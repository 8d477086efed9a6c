import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from slmcf import flow, translator
from slmcf.domain import build_domain
from slmcf.errors import SpacelikeBoundaryError
from slmcf.grid import ContactAngle, GridFunction, build_grid
from slmcf.operators import (OrderedLU, RingSolver, assemble_operator_matrix,
                             boundary_gradient_data, contact_ghost, explicit_stable_dt,
                             flow_operator, linearized_affine, nested_dissection_order)


def _test_field(grid, metric_id):
    if metric_id in ("sphere", "flat_polar", "dome"):
        return GridFunction.from_chart(
            grid, lambda r, th: 0.2 * r ** 2 + 0.08 * r ** 3 * np.cos(th)).values
    return GridFunction.from_chart(
        grid, lambda x, y: 0.15 * x ** 2 - 0.1 * x * y + 0.05 * y ** 2).values


def test_ghost_closure_examples(disk_grid_small):
    grid = disk_grid_small
    # phi = 0.5, D_T u = 0: D_N u = 0.5 / sqrt(1.25)
    u = np.zeros((grid.n_radial, grid.n_angular))
    phi = np.full(grid.n_angular, 0.5)
    _, dtu, dn = contact_ghost(u, grid, phi)
    assert np.allclose(dtu, 0.0, atol=1e-15)
    assert np.allclose(dn, 0.5 / np.sqrt(1.25), atol=1e-12)
    assert dn[0] == pytest.approx(0.4472136, abs=1e-7)

    # phi = 1, D_T u = 0.6: v^2 = 0.32, D_N u = sqrt(0.32)
    u_t = GridFunction.from_comp(grid, lambda rho, s: 0.6 * s * 0.0)  # placeholder
    # build boundary values with exact tangential slope 0.6 in arc length:
    # boundary of the unit disk has |gamma'| = 1, so u = 0.6 * s wraps badly;
    # instead impose the slope locally via a sine and read off one node
    amp = 0.6 / np.cos(grid.s[1])  # not used; kept simple below
    u2 = np.zeros_like(u)
    u2[-1] = 0.6 * np.sin(grid.s)  # D_T u = 0.6 cos(s); at s=0: exactly 0.6
    # the discrete tangential derivative at j=0 is 0.6 sin(hs)/hs, adjust:
    target_q = 0.6
    scale = target_q / (0.6 * np.sin(grid.hs) / grid.hs)
    u2[-1] *= scale
    phi1 = np.ones(grid.n_angular)
    _, dtu2, dn2 = contact_ghost(u2, grid, phi1)
    assert dtu2[0] == pytest.approx(0.6, abs=1e-12)
    assert dn2[0] == pytest.approx(np.sqrt(0.32), abs=1e-12)
    assert dn2[0] == pytest.approx(0.5656854, abs=1e-7)

    # phi = 0: homogeneous Neumann
    _, _, dn0 = contact_ghost(u2, grid, np.zeros(grid.n_angular))
    assert np.allclose(dn0, 0.0, atol=1e-15)


def test_ghost_boundary_spacelike_error(disk_grid_small):
    grid = disk_grid_small
    u = np.zeros((grid.n_radial, grid.n_angular))
    u[-1] = 1.5 * np.sin(grid.s)
    with pytest.raises(SpacelikeBoundaryError):
        contact_ghost(u, grid, np.zeros(grid.n_angular))


def test_boundary_identities_exact(disk_grid, phi02):
    """|D_N u|^2 = phi^2 v^2 and |D_T u|^2 = 1 - (1+phi^2) v^2 under the closure."""
    grid = disk_grid
    u = GridFunction.from_chart(grid, lambda x, y: 0.1 * x ** 2 + 0.2 * np.sin(y)).values
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

    L, _ = assemble_operator_matrix(u, grid, pv)
    La = L.toarray()
    N = u.size
    Jfd = np.zeros((N, N))
    h = 1e-6
    for k in range(N):
        up = u.ravel().copy()
        um = u.ravel().copy()
        up[k] += h
        um[k] -= h
        Jfd[:, k] = (flow_operator(up.reshape(u.shape), grid, pv).ravel()
                     - flow_operator(um.reshape(u.shape), grid, pv).ravel()) / (2 * h)
    scale = max(1.0, float(np.abs(Jfd).max()))
    assert np.abs(La - Jfd).max() / scale < 1e-6


def test_frozen_affine_exact_at_linearization(disk_grid, phi02):
    u = _test_field(disk_grid, "flat")
    pv = phi02.values_on(disk_grid)
    L, k, _ = linearized_affine(u, disk_grid, pv)
    assert np.max(np.abs(L @ u.ravel() + k - flow_operator(u, disk_grid, pv).ravel())) < 1e-12
    # constants are in the kernel of the linearized operator (up to roundoff
    # amplified by the O(1/rho^2) angular coefficients at the center rings)
    assert np.max(np.abs(L @ np.ones(u.size))) < 1e-8


def test_operator_invariant_under_constants(disk_grid, phi02):
    u = _test_field(disk_grid, "flat")
    pv = phi02.values_on(disk_grid)
    a = flow_operator(u, disk_grid, pv)
    b = flow_operator(u + 7.5, disk_grid, pv)
    assert np.max(np.abs(a - b)) < 1e-8


def test_explicit_dt_scaling(disk_grid_small, phi02):
    pv = phi02.values_on(disk_grid_small)
    u = np.zeros((disk_grid_small.n_radial, disk_grid_small.n_angular))
    q = flow_operator(u, disk_grid_small, pv, with_fields=True)
    dt = explicit_stable_dt(q, disk_grid_small, 0.8)
    assert 0 < dt < disk_grid_small.hr ** 2  # center ring stiffness dominates


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
    0.25, each solver built as the flow and the translator build it."""
    L, q = assemble_operator_matrix(w, grid, pv)
    p = nested_dissection_order(grid.n_radial, grid.n_angular)
    out = []
    for dt in (1e-3, 0.05, 0.5):
        A = (sp.identity(w.size, format="csc") - dt * L).tocsc()
        out.append((A, p, RingSolver(flow.splu, A, p, q["ring"], 1.0, -dt)))
    for eps in (0.0, 0.25):
        factor = translator._new_factor()
        translator._factor(factor, w, eps, grid, pv)
        out.append((factor["lu"].A, np.append(p, p.size), factor["lu"]))
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
        assert solver.kind == "ring"
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
            assert solver.kind == "lu"
    assert [len(m) for m in made] == [3, 2]


def test_disk_flow_and_translator_call_no_splu(record_splu):
    """The 48 x 96 disk, phi = 0.2 from u = 0, runs to steady translation and to c3
    on ring solves alone."""
    made = [record_splu(flow), record_splu(translator)]
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    grid = build_grid(dom, 48, 96)
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    run = flow.run_to_convergence(np.zeros((48, 96)), phi, grid, flow.StepperConfig())
    sol = translator.continuation(translator.ContinuationSchedule(), phi, grid)
    assert run.converged and abs(run.speed_estimate - sol.c3) < 1e-6
    assert {entry[4] for entry in run.lu_refreshes} == {"ring"}
    assert {kind for _, kind in sol.limit["solvers"]} == {"ring"}
    assert made == [[], []]
