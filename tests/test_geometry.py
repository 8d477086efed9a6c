import numpy as np
import pytest

from conftest import covariant_hessian_field, from_chart, tensor_pullback
from slmcf.domain import build_domain
from slmcf.errors import SpacelikeViolationError
from slmcf.geometry import (EVO_DU_CONVENTIONS, angular_diff, angular_diff2, derivatives,
                            evo_du_rhs, g_upper_components, gradient_fields,
                            mean_curvature_field, quasilinear_operator)
from slmcf.grid import GridFunction, build_grid
from slmcf.metrics import get_metric


# -- periodic differences in s ----------------------------------------------------

def test_s_differences_match_the_roll_reference(disk_grid):
    """The s differences read the flattened F and write the wrapping columns
    apart; the np.roll formulas, with the same operands in the same order,
    are the reference, equal bit for bit, on a field and on one ring."""
    grid = disk_grid
    F = np.cos(3.0 * grid.s)[None, :] * (1.0 + grid.rho[:, None] ** 2) + 0.1 * grid.rho[:, None]
    hs = grid.hs

    def ds(G):
        return (np.roll(G, -1, axis=-1) - np.roll(G, 1, axis=-1)) / (2.0 * hs)

    d = derivatives(F, grid)
    assert np.array_equal(d["s"], ds(F))
    assert np.array_equal(d["ss"], (np.roll(F, -1, axis=-1) - 2.0 * F
                                    + np.roll(F, 1, axis=-1)) / hs ** 2)
    assert np.array_equal(d["rs"], ds(d["r"]))
    assert np.array_equal(angular_diff(F[-1], grid), ds(F[-1]))
    assert np.array_equal(angular_diff2(F[-1], grid),
                          (np.roll(F[-1], -1) - 2.0 * F[-1] + np.roll(F[-1], 1)) / hs ** 2)


# -- covariant Hessian ----------------------------------------------------------

def _chart_hessian(u):
    """The covariant Hessian field of ``u`` in chart components."""
    B = tensor_pullback(u.grid)["jac_inv"]
    return np.einsum("...ai,...bj,...ab->...ij", B, B, covariant_hessian_field(u.values, u.grid))


def test_hessian_flat_xy(disk_grid):
    u = from_chart(disk_grid, lambda x, y: x * y)
    H = _chart_hessian(u)[24, 10]
    assert np.allclose(H, [[0.0, 1.0], [1.0, 0.0]], atol=2e-3)


def _polar(x, y):
    """(r, th) of chart points of the normal chart."""
    return np.hypot(x, y), np.arctan2(y, x)


def test_hessian_polar_radial_field():
    """u = r = |x| on the flat disk of radius 2 about the pole is linear in rho
    and constant in s, so its stencil Hessian is exact: D D r = (I - n n^T)/r,
    whose polar components are D_rr r = 0 and D_thth r = r."""
    dom = build_domain({"kind": "chart_circle", "r0": 2.0}, "flat")
    grid = build_grid(dom, 24, 48)
    u = from_chart(grid, lambda x, y: np.hypot(x, y))
    H = _chart_hessian(u)
    for node in [(5, 0), (12, 7), (20, 30)]:
        r, th = _polar(*grid.X[node])
        n, t = np.array([np.cos(th), np.sin(th)]), np.array([-np.sin(th), np.cos(th)])
        assert np.max(np.abs(H[node] - (np.eye(2) - np.outer(n, n)) / r)) < 1e-9
        assert abs(n @ H[node] @ n) < 1e-9
        assert (r * t) @ H[node] @ (r * t) == pytest.approx(r, abs=1e-9)


def _fourth_order_hessian_oracle(metric, fn, point, eps=1e-3):
    """Independent oracle: 4th-order FD partials plus analytic Christoffels."""
    def d1(k):
        e = np.zeros(2)
        e[k] = eps
        return (fn(point - 2 * e) - 8 * fn(point - e)
                + 8 * fn(point + e) - fn(point + 2 * e)) / (12 * eps)

    def d2(k, l):
        if k == l:
            e = np.zeros(2)
            e[k] = eps
            return (-fn(point - 2 * e) + 16 * fn(point - e) - 30 * fn(point)
                    + 16 * fn(point + e) - fn(point + 2 * e)) / (12 * eps ** 2)
        ek, el = np.zeros(2), np.zeros(2)
        ek[k] = eps
        el[l] = eps

        def dk(p):
            return (fn(p - 2 * ek) - 8 * fn(p - ek)
                    + 8 * fn(p + ek) - fn(p + 2 * ek)) / (12 * eps)
        return (dk(point - 2 * el) - 8 * dk(point - el)
                + 8 * dk(point + el) - dk(point + 2 * el)) / (12 * eps)

    grad = np.array([d1(0), d1(1)])
    gam = metric.christoffel(point)
    H = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            H[i, j] = d2(i, j) - gam[:, i, j] @ grad
    return H


def test_hessian_second_order_on_sphere(sphere_cap):
    metric = get_metric("sphere")

    def u_of(x, y):      # 0.3 r^2 + 0.1 r^3 cos(th) in normal coordinates
        return (x * x + y * y) * (0.3 + 0.1 * x)

    def fn(p):
        return u_of(p[..., 0], p[..., 1])

    errs = []
    for n in (24, 48):
        grid = build_grid(sphere_cap, n, 2 * n)
        u = from_chart(grid, u_of)
        H = _chart_hessian(u)
        err = 0.0
        # fixed physical annulus so both resolutions see the same region
        rows = [i for i in range(n) if 0.2 <= grid.rho[i] <= 0.9]
        for i in rows:
            for j in range(0, 2 * n, 2 * n // 8):
                oracle = _fourth_order_hessian_oracle(metric, fn, grid.X[i, j])
                err = max(err, float(np.max(np.abs(H[i, j] - oracle))))
        errs.append(err)
    assert errs[1] < 1e-3
    assert 3.6 <= errs[0] / errs[1] <= 4.4


# -- graph geometry --------------------------------------------------------------

def test_graph_geometry_constant(disk_grid):
    u = GridFunction.constant(disk_grid, 4.0)
    P, du2, v = gradient_fields(u.values, disk_grid)
    assert np.max(np.abs(v - 1.0)) < 1e-12
    assert np.max(np.abs(du2)) < 1e-12
    gup = g_upper_components(disk_grid, P, du2)
    S = disk_grid.sigma_t_inv
    for g, ab in zip(gup, ((0, 0), (0, 1), (1, 1))):
        assert np.array_equal(g, S[..., ab[0], ab[1]])
    assert np.max(np.abs(mean_curvature_field(u.values, disk_grid))) < 1e-12


def test_graph_geometry_algebra_prescribed_gradient(disk_grid):
    # flat metric, u = 0.6 x: on the ray s = 0 (where sigma~ = diag(1, rho^2))
    # the stencil gradient is (u_rho, u_s) = (0.6, 0)
    u = from_chart(disk_grid, lambda x, y: 0.6 * x)
    P, du2, v = gradient_fields(u.values, disk_grid)
    g11, g12, g22 = g_upper_components(disk_grid, P, du2)
    rho = disk_grid.rho
    assert np.max(np.abs(v[:, 0] - 0.8)) < 1e-14
    assert np.max(np.abs(g11[:, 0] - 1.5625)) < 1e-12
    assert np.max(np.abs(g12[:, 0])) < 1e-15
    assert np.max(np.abs(g22[:, 0] * rho ** 2 - 1.0)) < 1e-12


def test_graph_geometry_paraboloid_center():
    # u = (x^2 + y^2)/8: at the origin Du = 0 and H = laplacian = 1/2
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    grid = build_grid(dom, 48, 96)
    u = from_chart(grid, lambda x, y: (x ** 2 + y ** 2) / 8.0)
    H = mean_curvature_field(u.values, grid)
    assert H[0, 0] == pytest.approx(0.5, abs=5e-3)


def test_inverse_metric_identity_up_to_099(disk_grid_small, inverse_metric_error):
    rng = np.random.default_rng(3)
    for _ in range(200):
        theta = rng.uniform(0, 2 * np.pi)
        mag = np.sqrt(rng.uniform(0.0, 0.99))
        u = from_chart(
            disk_grid_small, lambda x, y: mag * (np.cos(theta) * x + np.sin(theta) * y))
        assert inverse_metric_error(disk_grid_small, u.values) < 1e-10


def test_h_times_v_identity(disk_grid, phi02):
    # H v = g^{ab} D_a D_b u as an algebraic identity of the field routines
    u = from_chart(disk_grid, lambda x, y: 0.2 * x ** 2 - 0.1 * y ** 2 + 0.05 * x * y)
    q = quasilinear_operator(u.values, disk_grid)
    H = mean_curvature_field(u.values, disk_grid)
    assert np.max(np.abs(H * q["v"] - q["op"])) < 1e-12


def test_spacelike_guard():
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    grid = build_grid(dom, 16, 32)
    u = from_chart(grid, lambda x, y: 1.2 * x)
    with pytest.raises(SpacelikeViolationError) as err:
        quasilinear_operator(u.values, grid)
    assert err.value.value >= 1.0 - 1e-10


def test_mms_operator_convergence(unit_disk):
    """Manufactured solution: the discrete operator converges at order 2."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y", real=True)
    u_expr = sympy.Rational(1, 5) * x ** 2 + sympy.Rational(3, 20) * x * y \
        - sympy.Rational(1, 10) * y ** 2 + sympy.Rational(1, 20) * x ** 3
    ux, uy = sympy.diff(u_expr, x), sympy.diff(u_expr, y)
    w = ux ** 2 + uy ** 2
    gxx = 1 + ux ** 2 / (1 - w)
    gxy = ux * uy / (1 - w)
    gyy = 1 + uy ** 2 / (1 - w)
    op_expr = (gxx * sympy.diff(u_expr, x, 2) + 2 * gxy * sympy.diff(u_expr, x, y)
               + gyy * sympy.diff(u_expr, y, 2))
    u_fn = sympy.lambdify((x, y), u_expr, "numpy")
    op_fn = sympy.lambdify((x, y), op_expr, "numpy")

    errs = []
    for n in (16, 32, 64):
        grid = build_grid(unit_disk, n, 2 * n)
        u = from_chart(grid, u_fn)
        q = quasilinear_operator(u.values, grid)
        exact = op_fn(grid.X[..., 0], grid.X[..., 1])
        errs.append(float(np.max(np.abs(q["op"] - exact)[1:-1, :])))
    assert errs[-1] < 2e-3
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


# -- |Du|^2 evolution identity -----------------------------------------------------

def _evo_du_symbolic_residual(metric_kind, convention):
    sympy = pytest.importorskip("sympy")
    r, th = sympy.symbols("r theta", positive=True)
    X = (r, th)
    f = {"flat": r, "sphere": sympy.sin(r),
         "dome": r - r ** 3 / 8}[metric_kind]
    sig = sympy.Matrix([[1, 0], [0, f ** 2]])
    sigi = sig.inv()
    K = sympy.simplify(-sympy.diff(f, r, 2) / f)
    gam = [[[sympy.simplify(sum(sigi[k, l] * (sympy.diff(sig[l, i], X[j])
                                              + sympy.diff(sig[l, j], X[i])
                                              - sympy.diff(sig[i, j], X[l]))
                                for l in range(2)) / 2)
             for j in range(2)] for i in range(2)] for k in range(2)]

    u = sympy.Rational(1, 5) * r ** 2 + sympy.Rational(1, 10) * r ** 3 * sympy.cos(th)
    du = [sympy.diff(u, c) for c in X]

    def hess(F):
        dF = [sympy.diff(F, c) for c in X]
        return [[sympy.diff(dF[j], X[i]) - sum(gam[k][i][j] * dF[k] for k in range(2))
                 for j in range(2)] for i in range(2)]

    H = hess(u)
    w = sum(sigi[i, j] * du[i] * du[j] for i in range(2) for j in range(2))
    v2 = 1 - w
    P = [sum(sigi[i, j] * du[j] for j in range(2)) for i in range(2)]
    gup = [[sigi[i, j] + P[i] * P[j] / v2 for j in range(2)] for i in range(2)]
    ut = sum(gup[i][j] * H[i][j] for i in range(2) for j in range(2))
    lhs = 2 * sum(sigi[m, k] * du[k] * sympy.diff(ut, X[m])
                  for m in range(2) for k in range(2))

    dw = [sympy.diff(w, c) for c in X]
    Hw = hess(w)
    hc, dc, over_v2, kc = EVO_DU_CONVENTIONS[convention]
    rhs = (sum(gup[i][j] * dw[i] * dw[j] for i in range(2) for j in range(2)) / v2
           + sum(gup[i][j] * Hw[i][j] for i in range(2) for j in range(2))
           - hc * sum(sigi[i, a] * sigi[j, b] * H[i][j] * H[a][b]
                      for i in range(2) for j in range(2)
                      for a in range(2) for b in range(2))
           - kc * K * w)
    quart = sum(sigi[i, j] * dw[i] * dw[j] for i in range(2) for j in range(2))
    rhs -= dc * (quart / v2 if over_v2 else quart)

    pt = {r: sympy.Rational(7, 10), th: sympy.Rational(3, 10)}
    return float(sympy.N((lhs - rhs).subs(pt), 25))


@pytest.mark.parametrize("metric_kind", ["flat", "sphere", "dome"])
def test_evo_du_symbolic_oracle(metric_kind):
    """The 'derived' coefficients satisfy the identity exactly; 'printed' does not.

    The identity is between scalars, so it holds in any chart; the polar chart
    keeps the symbolic algebra small."""
    assert abs(_evo_du_symbolic_residual(metric_kind, "derived")) < 1e-12
    assert abs(_evo_du_symbolic_residual(metric_kind, "printed")) > 1e-3


def test_evo_du_rhs_constant_field(disk_grid):
    u = GridFunction.constant(disk_grid, 2.0)
    for conv in EVO_DU_CONVENTIONS:
        assert np.max(np.abs(evo_du_rhs(u.values, disk_grid, conv))) < 1e-12


def test_evo_du_rhs_matches_symbolic_on_grid(sphere_cap):
    """Numeric field evaluation of the right side converges to the symbolic one."""
    sympy = pytest.importorskip("sympy")
    r, th = sympy.symbols("r theta", positive=True)
    f = sympy.sin(r)
    sig = sympy.Matrix([[1, 0], [0, f ** 2]])
    sigi = sig.inv()
    gam = [[[sympy.simplify(sum(sigi[k, l] * (sympy.diff(sig[l, i], (r, th)[j])
                                              + sympy.diff(sig[l, j], (r, th)[i])
                                              - sympy.diff(sig[i, j], (r, th)[l]))
                                for l in range(2)) / 2)
             for j in range(2)] for i in range(2)] for k in range(2)]
    u = sympy.Rational(1, 5) * r ** 2 + sympy.Rational(1, 10) * r ** 3 * sympy.cos(th)
    du = [sympy.diff(u, c) for c in (r, th)]

    def hess(F):
        dF = [sympy.diff(F, c) for c in (r, th)]
        return [[sympy.diff(dF[j], (r, th)[i]) - sum(gam[k][i][j] * dF[k] for k in range(2))
                 for j in range(2)] for i in range(2)]

    w = sum(sigi[i, j] * du[i] * du[j] for i in range(2) for j in range(2))
    v2 = 1 - w
    P = [sum(sigi[i, j] * du[j] for j in range(2)) for i in range(2)]
    gup = [[sigi[i, j] + P[i] * P[j] / v2 for j in range(2)] for i in range(2)]
    H = hess(u)
    dw = [sympy.diff(w, c) for c in (r, th)]
    Hw = hess(w)
    rhs = (sum(gup[i][j] * dw[i] * dw[j] for i in range(2) for j in range(2)) / v2
           + sum(gup[i][j] * Hw[i][j] for i in range(2) for j in range(2))
           - 2 * sum(sigi[i, a] * sigi[j, b] * H[i][j] * H[a][b]
                     for i in range(2) for j in range(2) for a in range(2) for b in range(2))
           - sum(sigi[i, j] * dw[i] * dw[j] for i in range(2) for j in range(2)) / (2 * v2)
           - 2 * 1 * w)  # K = 1 on the sphere
    rhs_fn = sympy.lambdify((r, th), rhs, "numpy")

    errs = []
    for n in (16, 32):
        grid = build_grid(sphere_cap, n, 2 * n)
        # the right side is a scalar: the grid's normal-chart nodes are read in polar form
        rr, tt = _polar(grid.X[..., 0], grid.X[..., 1])
        uu = GridFunction(0.2 * rr ** 2 + 0.1 * rr ** 3 * np.cos(tt), grid)
        num = evo_du_rhs(uu.values, grid, "derived")
        exact = rhs_fn(rr, tt)
        errs.append(float(np.max(np.abs(num - exact)[2:-3, :])))
    assert errs[1] < errs[0] / 3.0
    assert errs[1] < 5e-3


def test_divergence_form_identity_flat():
    """v * div(Du / v) equals g^{ij} D_i D_j u for the flat metric (exact algebra)."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y", real=True)
    u = (sympy.Rational(1, 5) * x ** 2 + sympy.Rational(3, 20) * x * y
         - sympy.Rational(1, 10) * y ** 3 + sympy.Rational(1, 4) * sympy.sin(x))
    ux, uy = sympy.diff(u, x), sympy.diff(u, y)
    v = sympy.sqrt(1 - ux ** 2 - uy ** 2)
    lhs = v * (sympy.diff(ux / v, x) + sympy.diff(uy / v, y))
    rhs = ((1 + ux ** 2 / v ** 2) * sympy.diff(u, x, 2)
           + 2 * (ux * uy / v ** 2) * sympy.diff(u, x, y)
           + (1 + uy ** 2 / v ** 2) * sympy.diff(u, y, 2))
    for px, py in ((sympy.Rational(1, 3), sympy.Rational(1, 7)),
                   (sympy.Rational(-2, 5), sympy.Rational(1, 2)),
                   (sympy.Rational(1, 10), sympy.Rational(-3, 8))):
        gap = float(sympy.N((lhs - rhs).subs({x: px, y: py}), 30))
        assert abs(gap) < 1e-10


def test_evo_du_rhs_vanishes_on_translator_profile():
    """Rigidly moving profiles have time-independent |Du|^2: the right side
    of the evolution identity vanishes at discretization accuracy."""
    from slmcf.translator import ContinuationSchedule, continuation
    from slmcf.grid import ContactAngle
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    errs = []
    for n in (24, 48):
        grid = build_grid(dom, n, 2 * n)
        phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
        sol = continuation(ContinuationSchedule(eps_min=1e-5), phi, grid)
        rhs = evo_du_rhs(sol.profile.values, grid, "derived")
        errs.append(float(np.max(np.abs(rhs[2:n - 3, :]))))
    assert errs[1] < errs[0] / 2.5
    assert errs[1] < 2e-4


def test_evo_du_curvature_term_isolated_on_sphere(sphere_cap):
    """u = 0.3 r on the unit sphere, linear in the polar chart: grid evaluation
    matches the symbolic value of the identity's right side at a sample point."""
    sympy = pytest.importorskip("sympy")
    r, th = sympy.symbols("r theta", positive=True)
    a = sympy.Rational(3, 10)
    u = a * r                       # linear in the polar chart
    f = sympy.sin(r)
    sig = sympy.Matrix([[1, 0], [0, f ** 2]])
    sigi = sig.inv()
    gam_r_tt = -f * sympy.diff(f, r)
    gam_t_rt = sympy.diff(f, r) / f
    du = [a, 0]
    hess = sympy.Matrix([[0, 0], [0, -gam_r_tt * a]])
    w = a ** 2
    v2 = 1 - w
    gup = sympy.Matrix([[1 + a ** 2 / v2, 0], [0, sigi[1, 1]]])
    dw = [sympy.S(0), sympy.S(0)]          # |Du|^2 is constant for this field
    hess_w = sympy.Matrix([[0, 0], [0, 0]])
    hess2 = sum(sigi[i, aa] * sigi[j, b] * hess[i, j] * hess[aa, b]
                for i in range(2) for j in range(2) for aa in range(2) for b in range(2))
    rhs_sym = -2 * hess2 - 2 * 1 * w       # K = 1; gradient terms vanish
    grid = build_grid(sphere_cap, 48, 96)
    u_grid = from_chart(grid, lambda x, y: 0.3 * np.hypot(x, y))
    rhs_num = evo_du_rhs(u_grid.values, grid, "derived")
    i, j = 24, 10
    r_node, th_node = _polar(*grid.X[i, j])
    pt = {r: r_node, th: th_node}
    expected = float(sympy.N(rhs_sym.subs(pt), 25))
    assert rhs_num[i, j] == pytest.approx(expected, abs=2e-4)


def test_graph_geometry_error_carries_node():
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    grid = build_grid(dom, 16, 32)
    u = from_chart(grid, lambda x, y: 1.2 * x)
    with pytest.raises(SpacelikeViolationError) as err:
        gradient_fields(u.values, grid)
    _, du2, _ = gradient_fields(u.values, grid, guard=False)
    node = np.unravel_index(int(np.argmax(du2)), du2.shape)
    assert err.value.node == (int(node[0]), int(node[1]))
    assert err.value.value == du2[node] >= 1.0 - 1e-10
