import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from conftest import from_chart
from slmcf import flow, translator
from slmcf.domain import build_domain
from slmcf.errors import SpacelikeBoundaryError
from slmcf.grid import ContactAngle, GridFunction, build_grid
from slmcf.geometry import derivatives
from slmcf.operators import (OrderedLU, RingSolver, _stencil_coo, assemble_operator_matrix,
                             contact_ghost, flow_operator, linearized_affine,
                             nested_dissection_order)


def _test_field(grid, metric_id):
    if metric_id in ("sphere", "dome"):     # 0.2 r^2 + 0.08 r^3 cos(th)
        return from_chart(grid, lambda x, y: (x * x + y * y) * (0.2 + 0.08 * x)).values
    return from_chart(grid, lambda x, y: 0.15 * x ** 2 - 0.1 * x * y + 0.05 * y ** 2).values


def test_ghost_closure_examples(disk_grid_small, boundary_gradient_data):
    """D_N u of the boundary ring, centered on the returned ghost row, meets
    the closed-form targets."""
    grid = disk_grid_small
    # phi = 0.5, D_T u = 0: D_N u = 0.5 / sqrt(1.25)
    u = np.zeros((grid.n_radial, grid.n_angular))
    phi = np.full(grid.n_angular, 0.5)
    dn, dtu, _ = boundary_gradient_data(u, grid, phi)
    assert np.allclose(dtu, 0.0, atol=1e-15)
    assert np.allclose(dn, 0.5 / np.sqrt(1.25), atol=1e-12)
    assert dn[0] == pytest.approx(0.4472136, abs=1e-7)

    # phi = 1, D_T u = 0.6: v^2 = 0.32, D_N u = sqrt(0.32)
    # u = 0.6 y is space-like with D_T u = 0.6 cos(s) on the unit circle, 0.6
    # at s = 0; the discrete tangential derivative at j = 0 is 0.6 sin(hs)/hs,
    # so the field is scaled to make it exactly 0.6 there
    scale = 1.0 / (np.sin(grid.hs) / grid.hs)
    u2 = from_chart(grid, lambda x, y: 0.6 * scale * y).values
    phi1 = np.ones(grid.n_angular)
    dn2, dtu2, _ = boundary_gradient_data(u2, grid, phi1)
    assert dtu2[0] == pytest.approx(0.6, abs=1e-12)
    assert dn2[0] == pytest.approx(np.sqrt(0.32), abs=1e-12)
    assert dn2[0] == pytest.approx(0.5656854, abs=1e-7)

    # phi = 0: homogeneous Neumann
    dn0, _, _ = boundary_gradient_data(u2, grid, np.zeros(grid.n_angular))
    assert np.allclose(dn0, 0.0, atol=1e-15)


def test_ghost_boundary_spacelike_error(disk_grid_small):
    grid = disk_grid_small
    u = np.zeros((grid.n_radial, grid.n_angular))
    u[-1] = 1.5 * np.sin(grid.s)
    with pytest.raises(SpacelikeBoundaryError):
        contact_ghost(u, grid, np.zeros(grid.n_angular))


def test_boundary_identities_exact(disk_grid, phi02, boundary_gradient_data):
    """|D_N u|^2 = phi^2 v^2 and |D_T u|^2 = 1 - (1+phi^2) v^2 under the closure."""
    grid = disk_grid
    u = from_chart(grid, lambda x, y: 0.1 * x ** 2 + 0.2 * np.sin(y)).values
    pv = phi02.values_on(grid)
    dnu, dtu, v = boundary_gradient_data(u, grid, pv)
    assert np.max(np.abs(dnu ** 2 - pv ** 2 * v ** 2)) < 1e-14
    assert np.max(np.abs(dtu ** 2 - (1.0 - (1.0 + pv ** 2) * v ** 2))) < 1e-14


@pytest.mark.parametrize("dom_spec,metric_id", [
    ({"kind": "disk", "radius": 1.0}, "flat"),
    ({"kind": "ellipse", "a": 1.3, "b": 0.9}, "flat"),
    ({"kind": "smooth_convex", "r0": 1.0, "amp": 0.04, "k": 4}, "flat"),
    ({"kind": "chart_circle", "r0": 0.8}, "sphere"),
    ({"kind": "chart_circle", "r0": 1.2}, "dome"),
])
def test_jacobian_matches_finite_differences(dom_spec, metric_id):
    dom = build_domain(dom_spec, metric_id)
    grid = build_grid(dom, 8, 16)
    phi = ContactAngle({"kind": "fourier", "a0": 0.15, "cos": [0.1]}, dom)
    pv = phi.values_on(grid)
    rng = np.random.default_rng(11)
    u = _test_field(grid, metric_id) + 0.01 * rng.standard_normal((8, 16))

    L = assemble_operator_matrix(flow_operator(u, grid, pv), grid, pv)
    La = np.column_stack([L @ e for e in np.eye(u.size)])
    N = u.size
    Jfd = np.zeros((N, N))
    h = 1e-6
    for k in range(N):
        up = u.ravel().copy()
        um = u.ravel().copy()
        up[k] += h
        um[k] -= h
        Jfd[:, k] = (flow_operator(up.reshape(u.shape), grid, pv)["op"].ravel()
                     - flow_operator(um.reshape(u.shape), grid, pv)["op"].ravel()) / (2 * h)
    scale = max(1.0, float(np.abs(Jfd).max()))
    assert np.abs(La - Jfd).max() / scale < 1e-6


def test_frozen_affine_exact_at_linearization(disk_grid, phi02):
    u = _test_field(disk_grid, "flat")
    pv = phi02.values_on(disk_grid)
    L, k = linearized_affine(u, disk_grid, pv, flow_operator(u, disk_grid, pv))
    assert np.max(np.abs(L @ u.ravel() + k - flow_operator(u, disk_grid, pv)["op"].ravel())) < 1e-12
    # constants are in the kernel of the linearized operator (up to roundoff
    # amplified by the O(1/rho^2) angular coefficients at the center rings)
    assert np.max(np.abs(L @ np.ones(u.size))) < 1e-8


def test_affine_model_reads_the_callers_evaluation(disk_grid, phi02):
    """Handed the operator evaluation at u, the assembly builds the same model
    bit for bit as on a fresh evaluation."""
    u = _test_field(disk_grid, "flat")
    pv = phi02.values_on(disk_grid)
    fresh = flow_operator(u, disk_grid, pv)
    L = assemble_operator_matrix(fresh, disk_grid, pv)
    k = fresh["op"].ravel() - L @ u.ravel()
    L_q, k_q = linearized_affine(u, disk_grid, pv, flow_operator(u, disk_grid, pv))
    assert np.array_equal(L_q.padded, L.padded) and np.array_equal(L_q.boundary, L.boundary)
    assert np.array_equal(k_q, k)


def test_operator_invariant_under_constants(disk_grid, phi02):
    u = _test_field(disk_grid, "flat")
    pv = phi02.values_on(disk_grid)
    a = flow_operator(u, disk_grid, pv)["op"]
    b = flow_operator(u + 7.5, disk_grid, pv)["op"]
    assert np.max(np.abs(a - b)) < 1e-8


KERNEL_CASES = [
    ({"kind": "disk", "radius": 1.0}, "flat"),
    ({"kind": "ellipse", "a": 1.5, "b": 1.0}, "flat"),
    ({"kind": "smooth_convex", "r0": 1.0, "amp": 0.05, "k": 4}, "flat"),
    ({"kind": "chart_circle", "r0": 0.8}, "sphere"),
    ({"kind": "chart_circle", "r0": 1.2}, "dome"),
]


def _kernel_case(dom_spec, metric_id):
    """(grid, phi values, u): a 16 x 32 grid and a state that is not radial."""
    dom = build_domain(dom_spec, metric_id)
    grid = build_grid(dom, 16, 32)
    phi = ContactAngle({"kind": "fourier", "a0": 0.15, "cos": [0.1]}, dom)
    u = _test_field(grid, metric_id) + 1e-4 * np.random.default_rng(5).standard_normal((16, 32))
    return grid, phi.values_on(grid), u


def _tensor_reference(values, grid, phi_vals):
    """F and the nine stencil weights (in _OFFSETS order) from (..., 2, 2) tensor
    contractions of the gradient, Hessian, g~^{ab} and Christoffel symbols."""
    ghost, _ = contact_ghost(values, grid, phi_vals)
    d = derivatives(values, grid, ghost)
    S, G = grid.sigma_t_inv, grid.gamma_t
    du = np.stack([d["r"], d["s"]], axis=-1)
    P = np.einsum("...ab,...b->...a", S, du)
    v2 = 1.0 - np.einsum("...a,...a->...", P, du)
    hess = (np.stack([d["rr"], d["rs"], d["rs"], d["ss"]], axis=-1).reshape(du.shape + (2,))
            - np.einsum("...cab,...c->...ab", G, du))
    gup = S + np.einsum("...a,...b->...ab", P, P) / v2[..., None, None]
    op = np.einsum("...ab,...ab->...", gup, hess)
    hP = np.einsum("...ab,...b->...a", hess, P)
    B = (-np.einsum("...ab,...cab->...c", gup, G)
         + 2.0 * np.einsum("...ca,...a->...c", S, hP) / v2[..., None]
         + 2.0 * np.einsum("...a,...a->...", P, hP)[..., None] * P / v2[..., None] ** 2)
    hr, hs = grid.hr, grid.hs
    A11, A12, A22, B1, B2 = gup[..., 0, 0], gup[..., 0, 1], gup[..., 1, 1], B[..., 0], B[..., 1]
    corner = A12 / (2.0 * hr * hs)
    weights = np.stack([-2.0 * A11 / hr ** 2 - 2.0 * A22 / hs ** 2,
                        A11 / hr ** 2 + B1 / (2.0 * hr), A11 / hr ** 2 - B1 / (2.0 * hr),
                        A22 / hs ** 2 + B2 / (2.0 * hs), A22 / hs ** 2 - B2 / (2.0 * hs),
                        corner, corner, -corner, -corner])
    return op, weights


@pytest.mark.parametrize("dom_spec,metric_id", KERNEL_CASES)
def test_component_kernel_matches_the_tensor_reference(dom_spec, metric_id):
    grid, pv, u = _kernel_case(dom_spec, metric_id)
    op, weights = _tensor_reference(u, grid, pv)
    q = flow_operator(u, grid, pv)
    L = assemble_operator_matrix(q, grid, pv)
    assert np.max(np.abs(flow_operator(u, grid, pv)["op"] - op)) <= 1e-14 * np.max(np.abs(op))
    assert np.max(np.abs(q["op"] - op)) <= 1e-14 * np.max(np.abs(op))
    W = L.weights
    for k in range(9):
        assert np.max(np.abs(W[k] - weights[k])) <= 1e-14 * np.max(np.abs(weights[k]))


OFFSETS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1))


def _coo_reference(L):
    """The operator matrix of L's nine weights and ghost sensitivities, built as
    a COO list (the stencil entries inside the grid, then each entry w that
    reaches the ghost row folded into the ghost's three unknowns as w, w g and
    -w g) and converted by scipy, which sums the duplicates in that order."""
    W, sens = L.weights, L.sens
    _, n_r, n_a = W.shape
    I, J = np.meshgrid(np.arange(n_r), np.arange(n_a), indexing="ij")
    rows, cols, vals, ghost = [], [], [], ([], [], [])
    for (di, dj), w in zip(OFFSETS, W):
        ti, tj = I + di, (J + dj) % n_a
        tj = np.where(ti == -1, (tj + n_a // 2) % n_a, tj)     # (-1, j) is (0, j + n_a/2)
        ti = np.where(ti == -1, 0, ti)
        inside = ti < n_r
        rows.append((I * n_a + J)[inside])
        cols.append((ti * n_a + tj)[inside])
        vals.append(w[inside])
        for out, part in zip(ghost, ((I * n_a + J)[~inside], tj[~inside], w[~inside])):
            out.append(part)
    grow, gj, gw = map(np.concatenate, ghost)
    g = gw * sens[gj]
    rows += [grow] * 3
    cols += [(n_r - 2) * n_a + gj, (n_r - 1) * n_a + (gj + 1) % n_a,
             (n_r - 1) * n_a + (gj - 1) % n_a]
    vals += [gw, g, -g]
    N = n_r * n_a
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(N, N)).tocsc()


def _assert_product(y, A, x):
    """y is A x summed in another order: |y - A x|_i <= 2 gamma_{m_i} (|A| |x|)_i
    for the m_i entries of row i (Higham, Accuracy and Stability, 3.1)."""
    bound = A.getnnz(axis=1) * np.finfo(float).eps * (abs(A) @ np.abs(x))
    assert np.all(np.abs(y - A @ x) <= bound)


@pytest.mark.parametrize("dom_spec,metric_id", KERNEL_CASES)
def test_stencil_products_and_escalated_matrix_match_the_coo_reference(dom_spec, metric_id):
    """L @ x and a solver's A x and |A| |x| are the reference's up to the
    order of the sums; the matrix a solver factors on escalation is the
    reference shifted, or bordered, exactly: duplicates summed first, then
    times beta, plus alpha."""
    grid, pv, u = _kernel_case(dom_spec, metric_id)
    L = assemble_operator_matrix(flow_operator(u, grid, pv), grid, pv)
    ref, N = _coo_reference(L), u.size
    x = np.random.default_rng(7).standard_normal(N + 1)
    _assert_product(L @ x[:N], ref, x[:N])
    a = (grid.weights / grid.area).ravel()
    for alpha, beta, border in ((1.0, -0.05, None), (-0.25, 1.0, a)):
        A = beta * ref + alpha * sp.identity(N)
        if border is not None:
            A = sp.bmat([[A, np.full((N, 1), -1.0)], [border[None, :], None]])
        A = A.tocsc()
        solver = RingSolver(splu, L, alpha, beta, log=[], border=border)
        y = x[:A.shape[0]]
        _assert_product(solver._times(y, *solver._A), A, y)
        _assert_product(solver._times(np.abs(y), *solver._abs), abs(A), np.abs(y))
        assert (solver.matrix() != A).nnz == 0
    # the escalation's positions are computed once per shape and shared read-only
    rows, cols = _stencil_coo(16, 32)
    assert _stencil_coo(16, 32)[1] is cols and not (rows.flags.writeable or cols.flags.writeable)


@pytest.mark.parametrize("shape", [(8, 16), (32, 64), (64, 128)])
def test_nested_dissection_order_is_a_permutation(shape):
    p = nested_dissection_order(*shape)
    assert np.array_equal(np.sort(p), np.arange(shape[0] * shape[1]))
    assert not p.flags.writeable


# -- the ring solve and its escalation to the ordered LU ------------------------------

RADIAL = {"disk": ("flat", {"kind": "disk", "radius": 1.0}, {"kind": "constant", "value": 0.2}),
          "sphere_cap": ("sphere", {"kind": "chart_circle", "r0": 0.8},
                         {"kind": "constant", "value": 0.1}),
          "dome": ("dome", {"kind": "chart_circle", "r0": 1.0},
                   {"kind": "constant", "value": 0.15})}
NON_RADIAL = {"ellipse_fourier": ("flat", {"kind": "ellipse", "a": 1.5, "b": 1.0},
                                  {"kind": "fourier", "a0": 0.15, "cos": [0.0, 0.05],
                                   "sin": [0.03]}),
              "zero_flux": ("flat", {"kind": "smooth_convex", "r0": 1.0, "amp": 0.05, "k": 4},
                            {"kind": "fourier", "cos": [0.3]})}


def _ring_case(case, n_radial):
    """(grid, phi values, w): a zero-mean state that depends on rho alone."""
    metric, domain, phi = case
    dom = build_domain(domain, metric)
    grid = build_grid(dom, n_radial, 2 * n_radial)
    u = 0.2 * grid.rho[:, None] ** 2 * np.ones((1, grid.n_angular))
    return grid, ContactAngle(phi, dom).values_on(grid), u - grid.mean(u)


def _systems(grid, pv, w):
    """(A, p, solver) for I - dt L at three dt and the bordered matrix at eps = 0,
    0.25, each solver built as the flow and the translator build it; p is the
    order an escalated solver factors on."""
    L = assemble_operator_matrix(flow_operator(w, grid, pv), grid, pv)
    p = nested_dissection_order(grid.n_radial, grid.n_angular)
    out = []
    for dt in (1e-3, 0.05, 0.5):
        solver = RingSolver(flow.splu, L, 1.0, -dt, log=[])
        out.append((solver.matrix(), p, solver))
    for eps in (0.0, 0.25):
        system = translator._Bordered(grid, pv)
        system.factor(flow_operator(w, grid, pv), eps)
        out.append((system.solver.matrix(), np.append(p, p.size), system.solver))
    return out


def _reference_solve(A, p, b):
    """(LU solution, the same refined twice on residuals summed in extended precision)."""
    lu = OrderedLU(splu, A, p)
    A = A.tocoo()
    x = lu.solve(b)
    refined = x
    for _ in range(2):
        Ax = np.zeros(b.size, dtype=np.longdouble)
        np.add.at(Ax, A.row, A.data.astype(np.longdouble) * refined[A.col])
        refined = refined + lu.solve((b - Ax).astype(float))
    return x, refined


def _oettli_prager(A, x, b):
    """|b - A x|_i <= gamma_i (|A| |x| + |b|)_i, gamma_i = m_i u / (1 - m_i u)."""
    mu = A.getnnz(axis=1) * np.finfo(float).eps / 2
    bound = mu / (1.0 - mu) * (abs(A) @ np.abs(x) + np.abs(b))
    return bool(np.all(np.abs(b - A @ x) <= bound))


@pytest.mark.parametrize("n_radial", [16, 48])
@pytest.mark.parametrize("name", sorted(RADIAL))
def test_ring_solve_on_radial_states(name, n_radial, record_splu):
    """Off the LU, the ring solve matches the ordered LU and sits at A's rounding floor.

    The LU solution itself is off by up to 1.0e-12 (relative) on the bordered
    matrix at 48 x 96, and often misses the componentwise bound, so the ring
    solution is held to 1e-12 of the LU solution refined in extended precision.
    """
    made = [record_splu(flow), record_splu(translator)]
    grid, pv, w = _ring_case(RADIAL[name], n_radial)
    rng = np.random.default_rng(n_radial)
    for A, p, solver in _systems(grid, pv, w):
        b = rng.standard_normal(A.shape[0])
        x = solver.solve(b)
        plain, refined = _reference_solve(A, p, b)
        scale = np.max(np.abs(refined))
        assert solver.log[-1] == "ring"
        assert np.max(np.abs(x - refined)) <= 1e-12 * scale
        assert np.max(np.abs(x - plain)) <= 2e-12 * scale
        assert _oettli_prager(A, x, b)
    assert made == [[], []]


@pytest.mark.parametrize("n_radial", [16, 48])
@pytest.mark.parametrize("name", sorted(NON_RADIAL))
def test_ring_solve_escalates_off_symmetry(name, n_radial, record_splu):
    """Where the ring-averaged operator is not the Jacobian, every solve is the
    ordered LU's, bit for bit, from one factorization kept until the next refresh."""
    made = [record_splu(flow), record_splu(translator)]
    grid, pv, w = _ring_case(NON_RADIAL[name], n_radial)
    rng = np.random.default_rng(n_radial)
    for A, p, solver in _systems(grid, pv, w):
        reference = OrderedLU(splu, A, p)
        for _ in range(2):
            b = rng.standard_normal(A.shape[0])
            assert np.array_equal(solver.solve(b), reference.solve(b))
            assert solver.log[-1] == "lu"
    assert [len(m) for m in made] == [3, 2]


def test_non_finite_ring_solution_escalates_to_the_lu(monkeypatch):
    """A ring solution that is not finite is not refined: the solver
    escalates at once, logs "lu" and returns the ordered LU's solution, bit
    for bit, for the flow's and the translator's matrices alike."""
    grid, pv, w = _ring_case(RADIAL["disk"], 16)
    rng = np.random.default_rng(5)
    for A, p, solver in _systems(grid, pv, w):
        ring_solve, calls = solver._ring_solve, []

        def non_finite(b, ring_solve=ring_solve, calls=calls):
            calls.append(b)
            x = ring_solve(b)
            x[x.size // 2] = np.inf
            return x

        monkeypatch.setattr(solver, "_ring_solve", non_finite)
        b = rng.standard_normal(A.shape[0])
        assert np.array_equal(solver.solve(b), OrderedLU(splu, A, p).solve(b))
        assert solver.log[-1] == "lu" and len(calls) == 1


@pytest.mark.parametrize("name", ["disk", "zero_flux"])
def test_ring_solver_owns_abs_floor_and_log(name):
    """gamma_i comes from the entry count of row i of A; ``floor`` is max
    gamma (|A| |x|) as scipy's abs(A) gives it, to a few ulps; the caller's log
    entry gets the solver's kind, "ring", which becomes "lu" where the solver
    escalates."""
    grid, pv, w = _ring_case({**RADIAL, **NON_RADIAL}[name], 16)
    L = assemble_operator_matrix(flow_operator(w, grid, pv), grid, pv)
    x = np.random.default_rng(3).standard_normal(w.size + 1)
    a = (grid.weights / grid.area).ravel()
    for border, n in ((None, w.size), (a, w.size + 1)):
        entry = [0]
        solver = RingSolver(splu, L, 1.0, -0.05, border=border, log=entry)
        A = solver.matrix()
        assert entry == [0, "ring"] and solver.log is entry
        mu = A.getnnz(axis=1) * np.finfo(float).eps / 2
        assert np.array_equal(solver.gamma, mu / (1.0 - mu))
        floor = float(np.max(solver.gamma * (abs(A) @ np.abs(x[:n]))))
        assert abs(solver.floor(x[:n]) - floor) <= 4 * np.spacing(floor)
        solver.solve(x[:n])
        assert entry == [0, "ring" if name == "disk" else "lu"]
        assert (solver.lu is None) == (name == "disk")


def test_disk_flow_and_translator_call_no_splu(record_splu):
    """The 48 x 96 disk, phi = 0.2 from u = 0, runs to steady translation and to c3
    on ring solves alone, and computes no elimination order."""
    made = [record_splu(flow), record_splu(translator)]
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    grid = build_grid(dom, 48, 96)
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    nested_dissection_order.cache_clear()
    run = flow.run_to_convergence(GridFunction.constant(grid), phi, grid, flow.StepperConfig())
    sol = translator.continuation(translator.ContinuationSchedule(), phi, grid)
    assert run.converged and abs(run.speed_estimate - sol.c3) < 1e-6
    assert {entry[4] for entry in run.lu_refreshes} == {"ring"}
    assert {kind for _, kind in sol.limit["solvers"]} == {"ring"}
    assert made == [[], []]
    assert nested_dissection_order.cache_info().misses == 0
