import dataclasses

import numpy as np
import pytest

from conftest import boundary_frame, nabla_T_T
from slmcf.domain import build_domain
from slmcf.errors import NonConvexDomainError, ScenarioError


def test_unit_disk_frame_and_curvature(unit_disk):
    s = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    kap = unit_disk.kappa(s)
    assert np.allclose(kap, 1.0, atol=1e-12)
    assert unit_disk.kappa0 == pytest.approx(1.0, abs=1e-12)
    T, N, w = boundary_frame(unit_disk, s)
    assert np.allclose(N, -np.stack([np.cos(s), np.sin(s)], axis=-1), atol=1e-12)
    assert np.allclose(T, np.stack([-np.sin(s), np.cos(s)], axis=-1), atol=1e-12)
    assert np.allclose(w, 1.0)


def test_ellipse_curvature_at_vertex(ellipse21):
    # semi-axes a=2, b=1: curvature at (2, 0) is a/b^2 = 2
    assert ellipse21.kappa(np.array([0.0]))[0] == pytest.approx(2.0, abs=1e-12)
    assert ellipse21.kappa(np.array([np.pi / 2]))[0] == pytest.approx(1.0 / 4.0, abs=1e-12)
    assert ellipse21.kappa0 == pytest.approx(0.25, rel=1e-6)


def test_frame_orthonormal_all_kinds(unit_disk, ellipse21, sphere_cap):
    for dom in (unit_disk, ellipse21, sphere_cap,
                build_domain({"kind": "smooth_convex", "r0": 1.0, "amp": 0.05, "k": 4},
                             "flat")):
        s = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        T, N, _ = boundary_frame(dom, s)
        g = dom.curve.gamma(s)
        sig = dom.metric.sigma(g)
        tt = np.einsum("...i,...ij,...j->...", T, sig, T)
        nn = np.einsum("...i,...ij,...j->...", N, sig, N)
        tn = np.einsum("...i,...ij,...j->...", T, sig, N)
        assert np.max(np.abs(tt - 1)) < 1e-10
        assert np.max(np.abs(nn - 1)) < 1e-10
        assert np.max(np.abs(tn)) < 1e-10
        # orientation: T counterclockwise, N inward
        assert np.all(T[..., 0] * N[..., 1] - T[..., 1] * N[..., 0] > 0)


def test_sphere_cap_geodesic_circle_curvature(sphere_cap):
    # geodesic circle of radius r0 on the unit sphere has curvature cot(r0)
    s = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    assert np.allclose(sphere_cap.kappa(s), 1.0 / np.tan(0.8), atol=1e-12)


def test_smooth_convex_support_curvature():
    dom = build_domain({"kind": "smooth_convex", "r0": 1.0, "amp": 0.03, "k": 4}, "flat")
    # support parameterization: curvature radius is h + h''
    s = np.linspace(0, 2 * np.pi, 48, endpoint=False)
    h = 1.0 + 0.03 * np.cos(4 * s)
    hpp = -0.03 * 16 * np.cos(4 * s)
    assert np.allclose(dom.kappa(s), 1.0 / (h + hpp), atol=1e-10)


def test_disk_is_the_circle_bit_for_bit():
    """A disk is built as the ellipse with equal semi-axes; its curve is the
    circle center + r (cos s, sin s) and its derivatives, bit for bit."""
    r, center = 0.7, np.array([0.1, -0.2])
    curve = build_domain({"kind": "disk", "radius": r, "center": list(center)}, "flat").curve
    s = np.linspace(-1.0, 7.0, 777)
    c, sn = np.cos(s), np.sin(s)
    assert np.array_equal(curve.gamma(s), center + r * np.stack([c, sn], axis=-1))
    assert np.array_equal(curve.dgamma(s), r * np.stack([-sn, c], axis=-1))
    assert np.array_equal(curve.d2gamma(s), r * np.stack([-c, -sn], axis=-1))
    for radius in (0.0, -1.0):
        with pytest.raises(ScenarioError, match="disk radius must be positive"):
            build_domain({"kind": "disk", "radius": radius}, "flat")


def test_nonconvex_rejected():
    with pytest.raises(NonConvexDomainError):
        build_domain({"kind": "smooth_convex", "r0": 1.0, "amp": 0.2, "k": 4}, "flat")


def test_sphere_cap_past_the_equator_rejected():
    """A geodesic circle of radius r0 about the pole of the sphere's normal
    chart has geodesic curvature cot(r0): the cap of r0 = 1.5 is convex, the
    one of r0 = 1.6, past the equator at pi / 2, is not."""
    assert build_domain({"kind": "chart_circle", "r0": 1.5}, "sphere").kappa0 > 0.07
    with pytest.raises(NonConvexDomainError, match="min boundary curvature = -2.921e-02"):
        build_domain({"kind": "chart_circle", "r0": 1.6}, "sphere")


def test_odd_harmonic_rejected():
    with pytest.raises(ScenarioError):
        build_domain({"kind": "smooth_convex", "r0": 1.0, "amp": 0.05, "k": 3}, "flat")


def test_every_domain_kind_runs_on_every_metric():
    """One chart for every metric: a chart_circle is the disk of radius r0 about
    the pole, bit for bit, and the Cartesian kinds build on curved metrics."""
    for metric in ("flat", "sphere", "dome"):
        circle = build_domain({"kind": "chart_circle", "r0": 0.5}, metric)
        disk = build_domain({"kind": "disk", "radius": 0.5}, metric)
        s = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        assert np.array_equal(circle.curve.gamma(s), disk.curve.gamma(s))
        assert (circle.kappa0, circle.inradius) == (disk.kappa0, disk.inradius)
        assert circle.inradius == pytest.approx(0.5, rel=1e-15)
        for spec in ({"kind": "ellipse", "a": 0.6, "b": 0.4},
                     {"kind": "disk", "radius": 0.4, "center": [0.3, 0.0]},
                     {"kind": "smooth_convex", "r0": 0.5, "amp": 0.02, "k": 4}):
            assert build_domain(spec, metric).kappa0 > 0


def _d4(fn, x0, V, eps):
    """Fourth-order directional derivative of a callable along chart vector V."""
    return (fn(x0 - 2 * eps * V) - 8 * fn(x0 - eps * V)
            + 8 * fn(x0 + eps * V) - fn(x0 + 2 * eps * V)) / (12 * eps)


def test_frame_identities_lemma_i(unit_disk, sphere_cap, collar_frame):
    """nabla_T T = kappa N and the parallel frame relations in the collar."""
    s = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    for dom in (unit_disk, sphere_cap):
        T, N, _ = boundary_frame(dom, s)
        kap = dom.kappa(s)
        resid = nabla_T_T(dom, s) - kap[:, None] * N
        sig = dom.metric.sigma(dom.curve.gamma(s))
        norms = np.sqrt(np.einsum("...i,...ij,...j->...", resid, sig, resid))
        assert np.max(norms) < 1e-8

    # nabla_T N = -kappa T, nabla_N T = nabla_N N = 0 for the extended frame,
    # checked by differentiating the collar frame field numerically
    for dom in (unit_disk, sphere_cap):
        for s0 in (0.3, 2.1, 4.0):
            x0 = dom.curve.gamma(np.array([s0]))[0]
            T0, N0 = collar_frame(dom, x0)
            kap0 = float(dom.kappa(np.array([s0]))[0])
            gam = dom.metric.christoffel(x0)
            eps = 1e-3

            def frame_at(y):
                Tv, Nv = collar_frame(dom, y)
                return np.stack([Tv, Nv])

            for V in (T0, N0):
                dframe = _d4(frame_at, x0, V, eps)
                covT = dframe[0] + np.einsum("kij,i,j->k", gam, V, T0)
                covN = dframe[1] + np.einsum("kij,i,j->k", gam, V, N0)
                if V is N0:   # parallel along the inward normal geodesic
                    assert np.max(np.abs(covT)) < 1e-8
                    assert np.max(np.abs(covN)) < 1e-8
                else:
                    assert np.max(np.abs(covT - kap0 * N0)) < 1e-8
                    assert np.max(np.abs(covN + kap0 * T0)) < 1e-8


def test_commutator_identity_lemma_ii(unit_disk, collar_frame):
    """D_N D_T f - D_T D_N f - kappa D_T f = 0 on the boundary (32 samples)."""
    dom = unit_disk
    grad_f = np.array([0.0, 1.0])  # f = second chart coordinate, exact gradient

    def d_t(y):
        Ty, _ = collar_frame(dom, y)
        return float(grad_f @ Ty)

    def d_n(y):
        _, Ny = collar_frame(dom, y)
        return float(grad_f @ Ny)

    s = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    resid = []
    eps = 1e-3
    for s0 in s:
        x0 = dom.curve.gamma(np.array([s0]))[0]
        T0, N0 = collar_frame(dom, x0)
        kap0 = float(dom.kappa(np.array([s0]))[0])
        dndt = _d4(d_t, x0, N0, eps)
        dtdn = _d4(d_n, x0, T0, eps)
        resid.append(dndt - dtdn - kap0 * d_t(x0))
    assert np.max(np.abs(resid)) < 1e-8


def test_kappa_grid_independent(unit_disk):
    # boundary data comes from the curve, not from any grid
    s = np.linspace(0, 2 * np.pi, 7)
    dom2 = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    assert np.array_equal(unit_disk.kappa(s), dom2.kappa(s))


def _tensor_frame(dom, s):
    """T, N, w, nabla_T T and kappa at s by the einsum formulas."""
    g, dg, d2g = dom.curve.gamma(s), dom.curve.dgamma(s), dom.curve.d2gamma(s)
    sig, gam = dom.metric.sigma(g), dom.metric.christoffel(g)
    w = np.sqrt(np.einsum("...i,...ij,...j->...", dg, sig, dg))
    T = dg / w[..., None]
    low = np.einsum("...lm,...m->...l", sig, T)
    det = sig[..., 0, 0] * sig[..., 1, 1] - sig[..., 0, 1] ** 2
    N = -(np.stack([low[..., 1], -low[..., 0]], axis=-1) / np.sqrt(det)[..., None])
    dsig_ds = (np.einsum("...lj,...lki,...k->...ij", sig, gam, dg)
               + np.einsum("...il,...lkj,...k->...ij", sig, gam, dg))
    dw2 = (np.einsum("...ij,...i,...j->...", dsig_ds, dg, dg)
           + 2.0 * np.einsum("...ij,...i,...j->...", sig, d2g, dg))
    dw = 0.5 * dw2 / w
    dT = d2g / w[..., None] - dg * (dw / w ** 2)[..., None]
    nTT = (dT + np.einsum("...kij,...i,...j->...k", gam, dg, T)) / w[..., None]
    return T, N, w, nTT, np.einsum("...i,...ij,...j->...", nTT, sig, N)


@pytest.mark.parametrize("spec,metric", [
    ({"kind": "disk", "radius": 1.0}, "flat"), ({"kind": "ellipse", "a": 1.5, "b": 1.0}, "flat"),
    ({"kind": "smooth_convex", "r0": 1.0, "amp": 0.05, "k": 4}, "flat"),
    ({"kind": "chart_circle", "r0": 0.8}, "sphere"), ({"kind": "chart_circle", "r0": 1.0}, "dome"),
    ("skew", None)])
def test_frame_is_bit_identical_to_the_tensor_formulas(spec, metric, skew_metric):
    s = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    if spec == "skew":   # every summation order differs in the last bits here
        dom = dataclasses.replace(build_domain({"kind": "ellipse", "a": 1.5, "b": 1.0}),
                                  metric=skew_metric)
    else:
        dom = build_domain(spec, metric)
    T, N, w, nTT, kappa = _tensor_frame(dom, s)
    got = boundary_frame(dom, s)[:2] + (dom.boundary_speed(s), nabla_T_T(dom, s), dom.kappa(s))
    for name, a, b in zip(("T", "N", "w", "nabla_T_T", "kappa"), got, (T, N, w, nTT, kappa)):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
    if spec == "skew":
        return
    assert dom.kappa0 == np.min(kappa)
    g, c = dom.curve.gamma(s), dom.curve.center
    sig = dom.metric.sigma(g)
    assert dom.inradius == np.min(np.sqrt(np.einsum("...i,...ij,...j->...", g - c, sig, g - c)))
