import numpy as np
import pytest

from slmcf.errors import ChartDomainError, UnknownMetricError
from slmcf.metrics import get_metric, inv2, metric_ids

SAMPLE_POINTS = {
    "flat": [(0.0, 0.0), (0.3, -0.7), (1.5, 2.0)],
    "flat_polar": [(0.2, 0.1), (1.0, 3.0), (2.0, 5.5)],
    "sphere": [(0.3, 0.0), (0.8, 2.0), (1.4, 4.0)],
    "dome": [(0.2, 1.0), (0.9, 2.5), (1.4, 0.3)],
    "hyperbolic": [(0.5, 1.0), (1.2, 2.0)],
}


def test_catalog_ids():
    assert set(metric_ids()) >= {"flat", "flat_polar", "sphere", "dome", "hyperbolic"}
    with pytest.raises(UnknownMetricError):
        get_metric("nope")


def test_flat_metric_trivial():
    m, pt = get_metric("flat"), np.array([0.7, -0.2])
    assert np.allclose(m.sigma(pt), np.eye(2))
    assert np.allclose(m.christoffel(pt), 0.0)
    assert m.gauss_curvature(pt) == 0.0


def test_polar_christoffel_at_r2():
    m, pt = get_metric("flat_polar"), np.array([2.0, 0.3])
    gam = m.christoffel(pt)
    assert gam[0, 1, 1] == pytest.approx(-2.0, abs=1e-14)
    assert gam[1, 0, 1] == pytest.approx(0.5, abs=1e-14)
    assert gam[1, 1, 0] == pytest.approx(0.5, abs=1e-14)
    assert m.gauss_curvature(pt) == pytest.approx(0.0, abs=1e-14)


def test_sphere_curvature_is_one():
    for r in (0.2, 0.8, 1.3):
        assert get_metric("sphere").gauss_curvature(np.array([r, 1.0])) == pytest.approx(
            1.0, abs=1e-8)


def test_dome_curvature_positive_and_matches_f():
    metric = get_metric("dome")
    r = np.linspace(0.05, 1.4, 40)
    K = metric.gauss_curvature(np.stack([r, np.zeros_like(r)], axis=-1))
    assert np.all(K > 0)
    # K = -f''/f via high-order finite differences of f
    h = 1e-4
    fpp = (metric.f(r + h) - 2 * metric.f(r) + metric.f(r - h)) / h ** 2
    assert np.allclose(K, -fpp / metric.f(r), atol=1e-6)


def test_hyperbolic_curvature_negative():
    K = get_metric("hyperbolic").gauss_curvature(np.array([0.7, 0.0]))
    assert K == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("metric_id", sorted(SAMPLE_POINTS))
def test_sigma_inverse_and_positivity(metric_id):
    m = get_metric(metric_id)
    for pt in SAMPLE_POINTS[metric_id]:
        pt = np.asarray(pt, dtype=float)
        m.check_chart(pt)
        sigma = m.sigma(pt)
        assert np.max(np.abs(inv2(sigma) @ sigma - np.eye(2))) < 1e-12
        eigs = np.linalg.eigvalsh(sigma)
        assert np.all(eigs > 0)
        assert np.max(np.abs(sigma - sigma.T)) == 0.0


@pytest.mark.parametrize("metric_id", ["flat_polar", "sphere", "dome"])
def test_christoffel_matches_metric_derivatives(metric_id):
    # Gamma^k_ij = sigma^{kl} (d_i sigma_jl + d_j sigma_il - d_l sigma_ij) / 2
    # with the metric derivatives from centered differences, second order
    metric = get_metric(metric_id)
    pt = np.array([0.9, 1.1])
    errs = []
    for h in (2e-3, 1e-3):
        dsig = np.zeros((2, 2, 2))  # dsig[k, i, j] = d_k sigma_ij
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            dsig[k] = (metric.sigma(pt + e) - metric.sigma(pt - e)) / (2 * h)
        T = np.zeros((2, 2, 2))
        for l in range(2):
            for i in range(2):
                for j in range(2):
                    T[l, i, j] = dsig[i, j, l] + dsig[j, i, l] - dsig[l, i, j]
        gam_fd = 0.5 * np.einsum("kl,lij->kij", inv2(metric.sigma(pt)), T)
        errs.append(np.max(np.abs(gam_fd - metric.christoffel(pt))))
    assert errs[0] < 1e-5
    # at least second order (flat_polar differences are exact up to roundoff)
    assert errs[1] < max(errs[0] / 2.5, 1e-11)


def test_chart_bounds_rejected():
    with pytest.raises(ChartDomainError):
        get_metric("sphere").check_chart(np.array([3.5, 0.0]))
    with pytest.raises(ChartDomainError):
        get_metric("flat_polar").check_chart(np.array([-0.1, 0.0]))
