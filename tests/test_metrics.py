import numpy as np
import pytest

from slmcf.domain import build_domain
from slmcf.errors import ChartDomainError, ScenarioError, UnknownMetricError
from slmcf.grid import build_grid
from slmcf.metrics import get_metric, inv2, metric_ids

SAMPLE_POINTS = {
    "flat": [(0.0, 0.0), (0.3, -0.7), (1.5, 2.0)],
    "flat_polar": [(0.2, 0.1), (1.0, 3.0), (2.0, 5.5)],   # (r, th): flat pulled back
    "sphere": [(0.0, 0.0), (0.3, 0.0), (0.5, -0.6), (-1.0, 1.0)],
    "dome": [(0.0, 0.0), (0.2, 0.1), (-0.6, 0.7), (1.0, -1.0)],
    "hyperbolic": [(0.5, 1.0), (1.2, 2.0)],     # the test-local K < 0 metric
}


def test_catalog_ids():
    assert metric_ids() == ["dome", "flat", "sphere"]
    with pytest.raises(UnknownMetricError):
        get_metric("nope")


def test_flat_metric_trivial():
    m, pt = get_metric("flat"), np.array([0.7, -0.2])
    assert np.allclose(m.sigma(pt), np.eye(2))
    assert np.allclose(m.christoffel(pt), 0.0)
    assert m.gauss_curvature(pt) == 0.0


def _grid_with_a_node_at_the_pole():
    """A 16 x 32 unit disk centred at (-rho_3, 0): its node (3, 0) is the origin."""
    rho = 3.5 / 15.5
    grid = build_grid(build_domain({"kind": "disk", "radius": 1.0, "center": [-rho, 0.0]}),
                      16, 32)
    assert np.array_equal(grid.X[3, 0], [0.0, 0.0])
    return grid


@pytest.mark.parametrize("spec", [{"kind": "disk", "radius": 1.0},
                                  {"kind": "ellipse", "a": 1.5, "b": 1.0}, "pole"])
def test_flat_is_exactly_the_identity_at_grid_nodes(spec):
    """f = r gives f/r, A and B of exactly 1, 0 and 0, so sigma is exactly I and
    Gamma and K exactly 0 at every node, the pole included."""
    grid = _grid_with_a_node_at_the_pole() if spec == "pole" else build_grid(
        build_domain(spec, "flat"), 24, 48)
    m = get_metric("flat")
    assert np.array_equal(m.sigma(grid.X), np.broadcast_to(np.eye(2), grid.X.shape + (2,)))
    assert np.array_equal(m.christoffel(grid.X), np.zeros(grid.X.shape + (2, 2)))
    assert np.array_equal(m.gauss_curvature(grid.X), np.zeros(grid.X.shape[:-1]))


@pytest.mark.parametrize("metric_id,K0", [("sphere", 1.0), ("dome", 0.75)])
def test_the_pole_is_a_regular_point(metric_id, K0):
    """At x = 0 exactly: sigma = I, Gamma = 0 and K its limit, with no NaN."""
    m, pole = get_metric(metric_id), np.zeros(2)
    assert np.array_equal(m.sigma(pole), np.eye(2))
    assert np.array_equal(m.christoffel(pole), np.zeros((2, 2, 2)))
    assert m.gauss_curvature(pole) == K0


def _normal_chart_oracle(f):
    """sigma, Gamma and K of dr^2 + f(r)^2 dth^2 in normal coordinates (x, y),
    from sympy: sigma written out, Gamma from its derivatives, K = -f''/f;
    each a function of (x, y) that evaluates in mpmath."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y", real=True)
    X = (x, y)
    r = sympy.sqrt(x ** 2 + y ** 2)
    q2 = (f(r) / r) ** 2
    n = (x / r, y / r)
    sig = [[q2 * int(i == j) + (1 - q2) * n[i] * n[j] for j in range(2)] for i in range(2)]
    det = sig[0][0] * sig[1][1] - sig[0][1] ** 2
    sig_inv = [[sig[1][1] / det, -sig[0][1] / det], [-sig[1][0] / det, sig[0][0] / det]]
    d = [[[sympy.diff(sig[i][j], X[k]) for j in range(2)] for i in range(2)] for k in range(2)]
    # Gamma^k_ij = sigma^{kl} (d_i sigma_jl + d_j sigma_il - d_l sigma_ij) / 2
    gam = [[[sum(sig_inv[k][l] * (d[i][j][l] + d[j][i][l] - d[l][i][j]) for l in range(2)) / 2
             for j in range(2)] for i in range(2)] for k in range(2)]
    s = sympy.Symbol("s", positive=True)
    K = (-sympy.diff(f(s), s, 2) / f(s)).subs(s, r)
    return [sympy.lambdify(X, e, "mpmath") for e in (sig, gam, K)]


@pytest.mark.parametrize("metric_id", ["sphere", "dome"])
def test_normal_chart_matches_sympy_at_30_digits(metric_id):
    """sigma and Gamma against a 50-digit evaluation of the sympy formulas,
    from the pole's neighbourhood (where the closed forms of A and B cancel)
    and both sides of the sphere's series threshold out to r = 1.5: within
    4e-15 absolute, a few ulps, where 1e-12 is what the solvers need (the
    closed forms alone miss that by 5e-11 at r = 1e-6); K within 1e-14
    relative."""
    sympy = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    f = {"sphere": sympy.sin, "dome": lambda r: r - r ** 3 / 8}[metric_id]
    sig_ref, gam_ref, K_ref = _normal_chart_oracle(f)
    m = get_metric(metric_id)
    with mpmath.workdps(50):
        for r in (1e-8, 1e-6, 1e-4, 3e-3, 0.0999, 0.1, 1.0, 1.5):
            for th in (0.3, 2.0, -1.1):
                p = np.array([r * np.cos(th), r * np.sin(th)])
                a, b = mpmath.mpf(float(p[0])), mpmath.mpf(float(p[1]))
                assert np.max(np.abs(m.sigma(p) - np.array(sig_ref(a, b), dtype=float))) \
                    < 4e-15, (r, th)
                assert np.max(np.abs(m.christoffel(p) - np.array(gam_ref(a, b), dtype=float))) \
                    < 4e-15, (r, th)
                assert m.gauss_curvature(p) == pytest.approx(float(K_ref(a, b)), rel=1e-14)


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


def test_hyperbolic_curvature_negative(hyperbolic_metric):
    K = get_metric("hyperbolic").gauss_curvature(np.array([0.7, 0.0]))
    assert K == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("metric_id", sorted(SAMPLE_POINTS))
def test_sigma_inverse_and_positivity(metric_id, request):
    if metric_id == "hyperbolic":
        request.getfixturevalue("hyperbolic_metric")
    if metric_id == "flat_polar":
        def sigma_at(pt):
            return _polar_pullback(get_metric("flat"), *pt)[0]
    else:
        sigma_at = get_metric(metric_id).sigma
    for pt in SAMPLE_POINTS[metric_id]:
        pt = np.asarray(pt, dtype=float)
        sigma = sigma_at(pt)
        assert np.max(np.abs(inv2(sigma) @ sigma - np.eye(2))) < 1e-12
        eigs = np.linalg.eigvalsh(sigma)
        assert np.all(eigs > 0)
        assert np.max(np.abs(sigma - sigma.T)) == 0.0


def _polar_pullback(m, r, th):
    """sigma and Gamma of the metric m pulled back from its normal chart onto
    the polar chart (r, th) through x = r (cos th, sin th), at (r, th)."""
    c, s = np.cos(th), np.sin(th)
    x = r * np.array([c, s])
    J = np.array([[c, -r * s], [s, r * c]])                     # J[i, a] = dx^i / dy^a
    d2x = np.zeros((2, 2, 2))                                  # [k, a, b]
    d2x[:, 0, 1] = d2x[:, 1, 0] = [-s, c]
    d2x[:, 1, 1] = [-r * c, -r * s]
    sig_polar = J.T @ m.sigma(x) @ J
    gam_polar = np.einsum("ck,kab->cab", np.linalg.inv(J),
                          d2x + np.einsum("kij,ia,jb->kab", m.christoffel(x), J, J))
    return sig_polar, gam_polar


def test_polar_christoffel_at_r2():
    sig, gam = _polar_pullback(get_metric("flat"), 2.0, 0.3)
    assert np.allclose(sig, np.diag([1.0, 4.0]), rtol=0, atol=1e-14)
    assert gam[0, 1, 1] == pytest.approx(-2.0, abs=1e-14)
    assert gam[1, 0, 1] == pytest.approx(0.5, abs=1e-14)
    assert gam[1, 1, 0] == pytest.approx(0.5, abs=1e-14)
    assert get_metric("flat").gauss_curvature(np.array([2.0, 0.3])) == 0.0


@pytest.mark.parametrize("metric_id,r,f,fp", [
    ("sphere", 0.9, np.sin(0.9), np.cos(0.9)),
    ("dome", 1.2, 1.2 - 1.2 ** 3 / 8, 1.0 - 3 * 1.2 ** 2 / 8)])
def test_the_polar_chart_is_the_normal_chart_pulled_back(metric_id, r, f, fp):
    """Pulled back onto the polar chart, the normal chart gives diag(1, f^2)
    and Gamma^r_thth = -f f', Gamma^th_rth = Gamma^th_thr = f'/f (the others
    vanish)."""
    sig_polar, gam_polar = _polar_pullback(get_metric(metric_id), r, 0.7)
    assert np.allclose(sig_polar, np.diag([1.0, f * f]), rtol=0, atol=1e-14)
    expect = np.zeros((2, 2, 2))
    expect[0, 1, 1] = -f * fp
    expect[1, 0, 1] = expect[1, 1, 0] = fp / f
    assert np.allclose(gam_polar, expect, rtol=0, atol=1e-14)


@pytest.mark.parametrize("metric_id", ["flat", "sphere", "dome"])
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
    # at least second order (flat differences are exact)
    assert errs[1] < max(errs[0] / 2.5, 1e-11)


def test_chart_bounds_rejected():
    """The normal chart ends at r_max (the sphere's antipode, the edge of the
    dome); a domain that reaches it is a typed scenario error."""
    with pytest.raises(ChartDomainError, match="r_max"):
        build_domain({"kind": "chart_circle", "r0": 3.5}, "sphere")
    with pytest.raises(ChartDomainError, match="'dome'"):
        build_domain({"kind": "disk", "radius": 0.7, "center": [1.0, 0.0]}, "dome")
    assert issubclass(ChartDomainError, ScenarioError)
    # flat has no edge; a disk just inside the dome's chart builds
    build_domain({"kind": "disk", "radius": 1.0, "center": [40.0, 0.0]}, "flat")
    build_domain({"kind": "disk", "radius": 0.7, "center": [0.85, 0.0]}, "dome")
