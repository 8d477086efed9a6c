import numpy as np
import pytest
from scipy.sparse.linalg import splu

from conftest import (floor_stop_residuals, from_chart, limit_factorizations, regularized_oracle,
                      solve_regularized, trace_refactors)
from slmcf import translator
from slmcf.domain import build_domain
from slmcf.errors import (ContinuationError, NewtonError, ScenarioError,
                          SpacelikeViolationError)
from slmcf.flow import StepperConfig, run_to_convergence
from slmcf.geometry import gradient_fields, quasilinear_operator
from slmcf.grid import ContactAngle, GridFunction, build_grid
from slmcf.operators import (OrderedLU, RingSolver, assemble_operator_matrix, flow_operator,
                             nested_dissection_order)
from slmcf.oracle import translator_oracle
from slmcf.translator import ContinuationSchedule, compute_c3, continuation


@pytest.fixture(scope="module")
def disk_setup():
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    grid = build_grid(dom, 48, 96)
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    return dom, grid, phi


@pytest.fixture(scope="module")
def disk_solution(disk_setup):
    _, grid, phi = disk_setup
    return continuation(ContinuationSchedule(), phi, grid)


def test_zero_phi_gives_zero(disk_setup):
    dom, grid, _ = disk_setup
    phi0 = ContactAngle({"kind": "constant", "value": 0.0}, dom)
    u, info = solve_regularized(0.3, GridFunction.constant(grid, 0.0), phi0, grid)
    assert np.max(np.abs(u)) < 1e-12
    sol = continuation(ContinuationSchedule(eps_min=1e-3), phi0, grid)
    assert abs(sol.c3) < 1e-12
    assert np.max(np.abs(sol.profile.values)) < 1e-10


def test_regularized_matches_radial_oracle():
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    grid = build_grid(dom, 128, 32)  # radially symmetric data: angular count free
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    u, _ = solve_regularized(0.1, GridFunction.constant(grid, 0.0), phi, grid)
    orc = regularized_oracle(0.1, 0.2, 1.0)
    rr = np.sqrt(grid.X[..., 0] ** 2 + grid.X[..., 1] ** 2)
    assert np.max(np.abs(u - orc.u(rr))) < 1e-4


def test_continuation_c3_against_oracle(disk_solution):
    orc = translator_oracle(0.2, 1.0)
    assert abs(disk_solution.c3 - orc.c3) < 5e-4
    # at 48 radial rings the agreement is much tighter in practice
    assert abs(disk_solution.c3 - orc.c3) < 5e-6


def test_continuation_residual_invariants(disk_setup, disk_solution, boundary_gradient_data):
    _, grid, phi = disk_setup
    residuals = disk_solution.residuals
    assert residuals["interior_max"] < 1e-5
    # the ghost row closes the contact angle: D_N u = phi v to rounding
    pv = phi.values_on(grid)
    dnu, _, v = boundary_gradient_data(disk_solution.profile.values, grid, pv)
    assert np.max(np.abs(dnu - pv * v)) < 1e-12
    # flux-balance cross-check agrees to quadrature accuracy (O(h^2))
    grid_h = 1.0 / (48 - 0.5)
    assert abs(disk_solution.c3 - residuals["c3_quadrature"]) < 5.0 * grid_h ** 2


def test_every_operator_evaluation_is_used_once(disk_setup, disk_solution, monkeypatch):
    """The residual keeps its operator evaluation: the start speed is the
    area mean of the first residual's, a factorization assembles the Jacobian
    from the evaluation of the iterate the solve holds, and ``interior_max``
    reads the limit solve's last residual.  So the solution is the same as
    with every evaluation made afresh."""
    _, grid, phi = disk_setup
    calls = {"assembled": 0}
    taken = {}          # id of each evaluation -> (the evaluation, the state it was taken at)

    def recorded(values, grid, phi_vals):
        q = flow_operator(values, grid, phi_vals)
        taken[id(q)] = (q, values.copy())
        return q

    def checking_assembly(q, grid, phi_vals):
        held, values = taken[id(q)]
        assert held is q
        fresh = flow_operator(values, grid, phi_vals)
        assert all(np.array_equal(q[k], fresh[k]) for k in ("op", "du2", "dtu"))
        calls["assembled"] += 1
        return assemble_operator_matrix(q, grid, phi_vals)

    monkeypatch.setattr(translator, "flow_operator", recorded)
    monkeypatch.setattr(translator, "assemble_operator_matrix", checking_assembly)
    sol = continuation(ContinuationSchedule(), phi, grid)
    assert calls["assembled"] == limit_factorizations(sol.limit) == 2
    assert sol.c3 == disk_solution.c3
    assert np.array_equal(sol.profile.values, disk_solution.profile.values)
    assert sol.residuals == disk_solution.residuals
    F = flow_operator(sol.profile.values, grid, phi.values_on(grid))["op"]
    assert sol.residuals["interior_max"] == float(np.max(np.abs(F - sol.c3)))


def test_profile_zero_mean(disk_solution):
    grid = disk_solution.profile.grid
    assert abs(grid.mean(disk_solution.profile.values)) < 1e-10


def test_compute_c3_closed_form(disk_setup):
    dom, grid, _ = disk_setup
    # u = 0, phi = const: c3 = -(2 pi phi) / pi = -2 phi
    pv = ContactAngle({"kind": "constant", "value": 0.15}, dom).values_on(grid)
    c3 = compute_c3(flow_operator(GridFunction.constant(grid, 0.0).values, grid, pv), grid, pv)
    assert c3 == pytest.approx(-0.3, abs=5e-4)


def test_compute_c3_zero_flux(disk_setup):
    dom, grid, _ = disk_setup
    pv = ContactAngle({"kind": "fourier", "cos": [0.4]}, dom).values_on(grid)
    c3 = compute_c3(flow_operator(GridFunction.constant(grid, 0.0).values, grid, pv), grid, pv)
    assert abs(c3) < 1e-14  # trapezoid kills the first harmonic exactly


def test_c3_sign_opposite_to_flux(disk_setup):
    dom, grid, _ = disk_setup
    for val in (0.1, -0.15):
        phi = ContactAngle({"kind": "constant", "value": val}, dom)
        sol = continuation(ContinuationSchedule(eps_min=1e-4), phi, grid)
        assert np.sign(sol.c3) == -np.sign(phi.boundary_integral)


def _limit_solve(w, c, grid, phi):
    """The bordered solve at eps = 0 from (w, c); c = None takes the area mean
    of F(w).  Its info gains ``factorizations``, the entries of its log."""
    system = translator._Bordered(grid, phi.values_on(grid))
    w, c, _, info = translator._bordered_newton(0.0, w, c, system)
    return w, c, {**info, "factorizations": len(system.log)}


def _warm_limit(u, grid, phi):
    """The bordered solve at eps = 0 started from the zero-mean part of u."""
    return _limit_solve(u - grid.mean(u), None, grid, phi)


def test_uniqueness_up_to_constant(disk_setup, disk_solution):
    """Different warm starts land on the same profile and speed."""
    _, grid, phi = disk_setup
    init = from_chart(grid, lambda x, y: 0.05 * (x ** 2 + y ** 2) - 0.4)
    w, c3, _ = _warm_limit(init.values, grid, phi)
    d = w - disk_solution.profile.values
    d = d - grid.mean(d)
    assert np.max(np.abs(d)) < 1e-6
    assert abs(c3 - disk_solution.c3) < 1e-8


def test_monotone_regularization_tail(disk_solution):
    diffs = [d for e, d in disk_solution.eps_trace_mean if e <= 0.25]
    assert all(diffs[k + 1] <= diffs[k] + 1e-10 for k in range(len(diffs) - 1))


def test_gradient_bound_uniform_in_eps(disk_setup):
    """sup |Du_eps|^2 <= c1(monitor with eps u_eps in the speed slot) + 5 h^2."""
    from slmcf.verify import c1_formula
    dom, grid, phi = disk_setup
    u = GridFunction.constant(grid, 0.0).values
    sup_eu = 0.0
    sup_du2_all = []
    eps_list = ContinuationSchedule(eps_min=1e-4).eps_values()
    for eps in eps_list:
        u, _ = solve_regularized(eps, u, phi, grid)
        du2 = gradient_fields(u, grid)[1]
        sup_eu = max(sup_eu, float(np.max(np.abs(eps * u))))
        sup_du2_all.append(float(np.max(du2)))
    c0 = sup_eu ** 2
    c2 = max(abs(phi.phi0), abs(phi.phi1)) * np.sqrt(c0) + 3 * phi.phi2
    c1 = c1_formula(c2, grid.domain.kappa0)
    assert 0 < c1 < 1
    assert max(sup_du2_all) <= c1 + 5 * grid.h ** 2
    assert max(sup_du2_all) < 1.0


def test_translator_orbit_speed_under_flow(disk_setup, disk_solution):
    """One flow evaluation on the translated profile returns the speed c3."""
    _, grid, phi = disk_setup
    moved = disk_solution.profile.values + disk_solution.c3 * 1.0
    op = flow_operator(moved, grid, phi.values_on(grid))["op"]
    assert abs(grid.mean(op) - disk_solution.c3) < 1e-5
    # and a full semi-implicit step preserves the orbit
    one_step = StepperConfig().initial_dt(grid)
    run = run_to_convergence(GridFunction(moved, grid), phi, grid,
                             StepperConfig(max_time=one_step, tol_speed=0.0))
    dt = run.series["t"][-1] - 0.0
    drift = run.state.u - (moved + disk_solution.c3 * dt)
    # the profile solves op = c3 to Newton tolerance, so the orbit holds to rounding
    assert np.max(np.abs(drift - grid.mean(drift))) < 1e-7


def test_barrier_bound(disk_setup):
    """eps u_eps <= eps max(psi) - eps min(psi) + c4 for a sub-solution barrier.

    psi = A d near the boundary, smoothly flattened toward the center, with
    A/sqrt(1-A^2) < min phi; c4 = max g^{ij}(D psi) D_i D_j psi.
    """
    dom, grid, phi = disk_setup
    A = 0.15
    assert A / np.sqrt(1 - A ** 2) < phi.phi0

    # psi(r) = A * q(r) with q = 1 - r near the boundary, quintic-blended to a
    # constant plateau around the center (C^2, slope zero at r = 0)
    def q(r):
        t = np.clip((r - 0.3) / 0.4, 0.0, 1.0)
        s = t ** 3 * (10 - 15 * t + 6 * t ** 2)
        return (1 - s) * 0.5 + s * (1.0 - r)

    rr = np.sqrt(grid.X[..., 0] ** 2 + grid.X[..., 1] ** 2)
    psi = A * q(rr)
    qq = quasilinear_operator(psi, grid)
    c4 = float(np.max(qq["op"]))

    u = GridFunction.constant(grid, 0.0).values
    for eps in (0.5, 0.25, 0.125):
        u, _ = solve_regularized(eps, u, phi, grid)
        bound = eps * float(np.max(psi)) - eps * float(np.min(psi)) + c4
        assert float(np.max(eps * u)) <= bound + 1e-10


def test_non_cauchy_detection(disk_setup, monkeypatch):
    """A trace level that cannot converge raises with the levels solved so far.

    Started from the converged limit with one Newton step allowed per level,
    the small-eps levels converge in one step each and a larger one cannot.
    The limit solve itself keeps its iteration limit.
    """
    _, grid, phi = disk_setup
    bordered_newton = translator._bordered_newton

    def one_step_per_level(eps, *args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            if eps > 0:
                mp.setattr(translator, "_MAX_ITER", 1)
            return bordered_newton(eps, *args, **kwargs)

    monkeypatch.setattr(translator, "_bordered_newton", one_step_per_level)
    schedule = ContinuationSchedule(eps_min=1e-4)
    with pytest.raises(ContinuationError) as err:
        continuation(schedule, phi, grid)
    trace = err.value.trace
    assert trace
    eps_done = [e for e, _, _, _ in trace]
    # schedule order, ending at the smallest eps: the trace runs upward from the limit
    assert eps_done == sorted(eps_done, reverse=True)
    assert eps_done[-1] == schedule.eps_values()[-1]
    assert len(trace) < len(schedule.eps_values())


def test_limit_solve_record(disk_solution):
    """The bordered solve at eps = 0 is recorded: every step, every LU, no fallback."""
    limit = disk_solution.limit
    assert 1 <= limit_factorizations(limit) <= 5
    assert 0 <= limit["newton_steps"] <= len(limit["residuals"]) - 1
    assert limit["residuals"][-1] <= 1e-10
    assert limit["floor_stops"] == []
    # every level of the default schedule is traced, in schedule order
    schedule = ContinuationSchedule()
    assert [e for e, _ in disk_solution.eps_trace] == schedule.eps_values()
    assert len(disk_solution.newton_iterations) == len(schedule.eps_values())
    assert [e for e, _ in limit["trace_residuals"]] == schedule.eps_values()
    for n, (_, history) in zip(disk_solution.newton_iterations, limit["trace_residuals"]):
        assert len(history) - 1 == n      # no chord step was dropped
        assert history[-1] <= 1e-10
    record = disk_solution.to_record()
    assert record["limit"] == limit


def test_regularized_solution_is_bordered_newton(disk_setup, disk_solution, record_splu):
    """eps u_eps from solve_regularized matches the trace value at that eps, and
    the solve is Newton-chord: the 48 x 96 disk at eps = 1/8 factors once, on
    the ring solve, without an LU."""
    _, grid, phi = disk_setup
    factored = record_splu(translator)
    eps = 0.125
    u, info = solve_regularized(eps, GridFunction.constant(grid, 0.0), phi, grid)
    assert info["solvers"] == [[eps, "ring"]] and factored == []
    assert info["iterations"] > len(info["solvers"])   # chord steps count as iterations
    assert info["residual"] <= 1e-10
    gap = abs(grid.mean(eps * u) - disk_solution.c3)
    assert gap == pytest.approx(dict(disk_solution.eps_trace_mean)[eps], abs=1e-10)


def test_schedule_validation():
    for eps_min in (0.0, 1.0, 2.0):
        with pytest.raises(ScenarioError, match="eps_min"):
            ContinuationSchedule(eps_min=eps_min)
    assert ContinuationSchedule(eps_min=0.5).eps_values() == [1.0, 0.5]


def test_full_solve_manufactured_asymmetric(monkeypatch):
    """Manufactured solution of the complete nonlinear boundary value solve.

    An asymmetric analytic space-like field defines its own contact angle
    (sampled as a table) and interior source; Newton with the ghost closure
    must reproduce the field at second order under refinement.  The source
    is subtracted from the operator the solve evaluates; the Jacobian does
    not read that field.
    """
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y", real=True)
    u_expr = (sympy.Rational(3, 20) * x ** 2 - sympy.Rational(1, 10) * x * y
              + sympy.Rational(1, 20) * y ** 3 + sympy.Rational(1, 10) * x)
    ux, uy = sympy.diff(u_expr, x), sympy.diff(u_expr, y)
    w2 = ux ** 2 + uy ** 2
    v = sympy.sqrt(1 - w2)
    op_expr = ((1 + ux ** 2 / v ** 2) * sympy.diff(u_expr, x, 2)
               + 2 * (ux * uy / v ** 2) * sympy.diff(u_expr, x, y)
               + (1 + uy ** 2 / v ** 2) * sympy.diff(u_expr, y, 2))
    s = sympy.symbols("s", real=True)
    # inward normal on the unit circle is (-cos s, -sin s)
    dn_expr = (-(sympy.cos(s) * ux + sympy.sin(s) * uy)).subs(
        {x: sympy.cos(s), y: sympy.sin(s)})
    phi_expr = dn_expr / v.subs({x: sympy.cos(s), y: sympy.sin(s)})
    u_fn = sympy.lambdify((x, y), u_expr, "numpy")
    op_fn = sympy.lambdify((x, y), op_expr, "numpy")
    phi_fn = sympy.lambdify(s, phi_expr, "numpy")

    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    eps = 1.0
    errs = []
    for n in (16, 32, 64):
        grid = build_grid(dom, n, 2 * n)
        phi = ContactAngle({"kind": "table", "values": phi_fn(grid.s)}, dom,
                           n_angular=grid.n_angular)
        u_exact = u_fn(grid.X[..., 0], grid.X[..., 1])
        src = op_fn(grid.X[..., 0], grid.X[..., 1]) - eps * u_exact

        def with_source(values, grid, phi_vals, src=src):
            q = flow_operator(values, grid, phi_vals)
            return dict(q, op=q["op"] - src)

        monkeypatch.setattr(translator, "flow_operator", with_source)
        u_h, info = solve_regularized(eps, GridFunction.constant(grid, 0.0), phi, grid)
        errs.append(float(np.max(np.abs(u_h - u_exact))))
    assert errs[-1] < 5e-4
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_zero_flux_translator_is_the_limit():
    """A zero-flux contact angle (c3 = 0) still gets the limit profile.

    Speed estimates near zero once stopped the eps walk at eps = 0.5 and
    returned u_eps there, which missed the flow's long-time profile by 0.03.
    """
    from slmcf.runio import load_scenario
    from slmcf.verify import check_translator_agreement
    scenario = load_scenario({
        "name": "zero_flux", "metric": {"id": "flat"},
        "domain": {"kind": "smooth_convex", "r0": 1.0, "amp": 0.05, "k": 4},
        "phi": {"kind": "fourier", "cos": [0.3]},
        "grid": {"n_radial": 32, "n_angular": 64},
        "stepper": {"tol_speed": 1e-7, "max_time": 10.0, "snapshot_interval": 25}})
    sol = continuation(scenario.continuation, scenario.phi, scenario.grid)
    assert sol.residuals["interior_max"] < 1e-8
    assert abs(sol.c3) < 1e-12
    run = run_to_convergence(scenario.u0, scenario.phi, scenario.grid, scenario.stepper)
    rep = check_translator_agreement(run, sol)
    assert rep.passed, rep.details


# -- the bordered matrix, factored on the flow's nested-dissection order ------------

DISK = {"kind": "disk", "radius": 1.0}
PHI02 = {"kind": "constant", "value": 0.2}


def _curved(domain, n_radial, metric="flat", phi=PHI02):
    """(grid, phi, u): a small curved field with a mixed (rho, s) derivative."""
    dom = build_domain(domain, metric)
    grid = build_grid(dom, n_radial, 2 * n_radial)
    u = 0.05 * grid.rho[:, None] ** 2 * (1.0 + 0.5 * np.cos(grid.s + 0.3))[None, :]
    return grid, ContactAngle(phi, dom), u


def _bordered_matrix(w, grid, pv):
    """[[L, -1], [a^T, 0]] at w, as the translator's solver builds it."""
    system = translator._Bordered(grid, pv)
    system.factor(flow_operator(w, grid, pv), 0.0)
    return system.solver.matrix()


def _bordered_order(grid):
    """The flow's order of the grid shape, with the border index last."""
    p = nested_dissection_order(grid.n_radial, grid.n_angular)
    return np.append(p, p.size)


@pytest.fixture
def factored(record_splu):
    """Every (matrix, keywords, SuperLU) factorization the translator makes."""
    return record_splu(translator)


@pytest.mark.parametrize("domain", [DISK, {"kind": "ellipse", "a": 2.0, "b": 1.0}])
def test_bordered_newton_factors_on_the_shape_order(domain, factored):
    grid, phi, u = _curved(domain, 32)
    _warm_limit(u, grid, phi)
    A, kw, _ = factored[0]
    q = _bordered_order(grid)
    reference = _bordered_matrix(u - grid.mean(u), grid, phi.values_on(grid))
    assert kw["permc_spec"] == "NATURAL"
    assert (A != reference[q][:, q]).nnz == 0


def test_ordered_bordered_factor_fills_less_than_colamd(factored):
    grid, phi, u = _curved(DISK, 64)
    _warm_limit(u, grid, phi)
    B = _bordered_matrix(u - grid.mean(u), grid, phi.values_on(grid))
    assert factored[0][2].nnz < splu(B).nnz


@pytest.mark.parametrize("domain,metric,phi", [
    (DISK, "flat", PHI02),
    ({"kind": "ellipse", "a": 2.0, "b": 1.0}, "flat", PHI02),
    ({"kind": "chart_circle", "r0": 0.8}, "sphere", PHI02),
    ({"kind": "smooth_convex", "r0": 1.0, "amp": 0.05, "k": 4}, "flat",
     {"kind": "fourier", "cos": [0.3]}),
])
def test_ordered_bordered_solve_matches_plain_splu(domain, metric, phi):
    """One Newton solve on the ordered LU (diagonal pivot threshold 0.1) is the
    solve of a plain, COLAMD-ordered splu with SuperLU's default pivoting."""
    grid, phi, u = _curved(domain, 32, metric, phi)
    w = u - grid.mean(u)
    pv = phi.values_on(grid)
    B = _bordered_matrix(w, grid, pv)
    R = flow_operator(w, grid, pv)["op"]
    b = -np.append(R - grid.mean(R), grid.mean(w))
    expected = splu(B).solve(b)
    solved = OrderedLU(splu, B, _bordered_order(grid)).solve(b)
    assert np.max(np.abs(solved - expected)) <= 1e-12 * np.max(np.abs(expected))


# -- the default solve: two factorizations, a quadratic predictor, floor stops --------

def _tangent_start_residuals(sol, grid, pv):
    """max(max|R|, |area-mean(w)|) at the tangent start (w + eps w', c3 + eps c')
    of every trace level, with the tangent solved on a plain splu of the
    bordered limit matrix."""
    w = sol.profile.values
    t = splu(_bordered_matrix(w, grid, pv)).solve(np.append(w.ravel(), 0.0))
    w_dot, c_dot = t[:-1].reshape(w.shape), float(t[-1])
    out = []
    for eps, _ in sol.limit["trace_residuals"]:
        ws, cs = w + eps * w_dot, sol.c3 + eps * c_dot
        R = flow_operator(ws, grid, pv)["op"] - eps * ws - cs
        out.append(max(float(np.max(np.abs(R))), abs(grid.mean(ws))))
    return out


@pytest.fixture(scope="module")
def tangent_solution(disk_setup):
    """The 48 x 96 disk solved with every trace level started on the tangent."""
    _, grid, phi = disk_setup
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(translator, "_quadratic_start", lambda eps, start, below: start)
        return continuation(ContinuationSchedule(), phi, grid)


def test_quadratic_start_is_closer_than_the_tangent(disk_setup, disk_solution):
    """Above the smallest levels every trace level starts closer to its
    solution than the tangent start: the level below holds the O(eps^2) term.
    The margin (a tenth; the 48 x 96 disk shows 1/29 or less) keeps a tangent
    start, whose residual here differs from the plain-splu one by rounding,
    from passing."""
    _, grid, phi = disk_setup
    tangent = _tangent_start_residuals(disk_solution, grid, phi.values_on(grid))
    levels = disk_solution.limit["trace_residuals"]
    checked = 0
    for (eps, history), r_tangent in zip(levels, tangent):
        if eps >= 1.0 / 16:
            assert history[0] < 0.1 * r_tangent
            checked += 1
    assert checked == 5


def test_quadratic_starts_take_fewer_trace_steps(disk_solution, tangent_solution):
    """The same limit and trace in fewer steps than from tangent starts."""
    assert sum(disk_solution.newton_iterations) < sum(tangent_solution.newton_iterations)
    assert disk_solution.c3 == tangent_solution.c3
    assert np.array_equal(disk_solution.profile.values, tangent_solution.profile.values)
    for (e1, d1), (e2, d2) in zip(disk_solution.eps_trace, tangent_solution.eps_trace):
        assert e1 == e2 and abs(d1 - d2) < 1e-10


def test_quadratic_start_off_the_spacelike_set_falls_back(disk_setup, tangent_solution,
                                                          monkeypatch):
    """A quadratic start that is not space-like gives way to the tangent start."""
    _, grid, phi = disk_setup
    calls = []

    def steep(eps, start, below):
        calls.append(eps)
        return start[0] + 2.0 * grid.rho[:, None] * np.ones(grid.n_angular), start[1]

    monkeypatch.setattr(translator, "_quadratic_start", steep)
    sol = continuation(ContinuationSchedule(), phi, grid)
    assert calls
    assert sol.newton_iterations == tangent_solution.newton_iterations
    assert sol.limit["trace_residuals"] == tangent_solution.limit["trace_residuals"]
    assert sol.eps_trace == tangent_solution.eps_trace

CATALOG = {
    "disk": ({"id": "flat"}, DISK, PHI02),
    "ellipse_fourier": ({"id": "flat"}, {"kind": "ellipse", "a": 1.5, "b": 1.0},
                        {"kind": "fourier", "a0": 0.15, "cos": [0.0, 0.05], "sin": [0.03]}),
    "dome": ({"id": "dome"}, {"kind": "chart_circle", "r0": 1.0},
             {"kind": "constant", "value": 0.15}),
    "zero_flux": ({"id": "flat"}, {"kind": "smooth_convex", "r0": 1.0, "amp": 0.05, "k": 4},
                  {"kind": "fourier", "cos": [0.3]}),
}


def _catalog_case(name, n_radial):
    metric, domain, phi = CATALOG[name]
    dom = build_domain(domain, metric["id"])
    return build_grid(dom, n_radial, 2 * n_radial), ContactAngle(phi, dom)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_default_solve_factors_twice(name):
    """One LU for the Newton-chord limit solve, one at the limit for the trace."""
    grid, phi = _catalog_case(name, 32)
    sol = continuation(ContinuationSchedule(), phi, grid)
    assert limit_factorizations(sol.limit) == 2
    assert trace_refactors(sol.limit) == []


def test_trace_levels_match_fresh_regularized_solves():
    """Every traced level is the regularized solution at its eps, solved from scratch."""
    grid, phi = _catalog_case("ellipse_fourier", 32)
    sol = continuation(ContinuationSchedule(), phi, grid)
    for (eps, gap), (_, spread) in zip(sol.eps_trace_mean, sol.eps_trace):
        u, _ = solve_regularized(eps, GridFunction.constant(grid, 0.0), phi, grid)
        eu = eps * u
        assert abs(abs(grid.mean(eu) - sol.c3) - gap) < 1e-10
        assert abs(max(np.max(eu) - sol.c3, sol.c3 - np.min(eu)) - spread) < 1e-10


def test_floor_stops_sit_at_the_floor():
    """At 128 x 256 the non-radial residual has a rounding floor near tol: the
    trace stops there on the limit LU instead of refactoring at every level."""
    grid, phi = _catalog_case("ellipse_fourier", 128)
    sol = continuation(ContinuationSchedule(), phi, grid)
    limit = sol.limit
    assert limit_factorizations(limit) + sum(n for _, n, _ in trace_refactors(limit)) <= 3
    assert limit["floor_stops"]
    for eps, residual, floor in floor_stop_residuals(limit):
        assert residual <= floor
    # every level ends at tol or at a recorded floor stop
    stops = {(eps, residual) for eps, residual, _ in floor_stop_residuals(limit)}
    for eps, history in [[0.0, limit["residuals"]]] + limit["trace_residuals"]:
        assert history[-1] <= 1e-10 or (eps, history[-1]) in stops


# -- the exits of the bordered step loop ------------------------------------------------

@pytest.fixture(scope="module")
def small_disk():
    """(grid, phi, limit w, c3): the 16 x 32 unit disk, phi = 0.2, and its limit."""
    dom = build_domain(DISK, "flat")
    grid = build_grid(dom, 16, 32)
    phi = ContactAngle(PHI02, dom)
    return (grid, phi) + _warm_limit(np.zeros((16, 32)), grid, phi)[:2]


def _near_limit(grid, w_limit):
    """A zero-mean start 1e-6 off the limit: started there with c3, the
    residual is L times the offset to 1e-12, so a Newton step on a scaled
    Jacobian reduces it by a known factor."""
    x2 = grid.X[..., 0] ** 2
    return w_limit + 1e-6 * (x2 - grid.mean(x2))


def _evaluations(monkeypatch, off_spacelike=()):
    """The iterates at which the translator evaluates F, in call order; the
    calls numbered in ``off_spacelike`` raise as if the iterate were not
    space-like."""
    seen = []

    def spy(values, grid, phi_vals):
        seen.append(values.copy())
        if len(seen) - 1 in off_spacelike:
            raise SpacelikeViolationError((0, 0), 1.0)
        return flow_operator(values, grid, phi_vals)

    monkeypatch.setattr(translator, "flow_operator", spy)
    return seen


def _scaled_jacobian(monkeypatch, factor, first_only=False):
    """Scale L by ``factor`` in the translator's solvers (only the first one's
    with ``first_only``): a Newton step on it is 1 / factor of the true one."""
    built = []

    def solver(splu_, L, alpha, beta, **kwargs):
        scale = factor if not (first_only and built) else 1.0
        built.append(scale)
        return RingSolver(splu_, L, alpha, scale * beta, **kwargs)

    monkeypatch.setattr(translator, "RingSolver", solver)
    return built


def test_start_off_the_spacelike_set_raises_without_fallback(small_disk):
    grid, phi, _, _ = small_disk
    with pytest.raises(SpacelikeViolationError):
        _warm_limit(1.5 * grid.X[..., 0], grid, phi)


def test_newton_trial_off_the_spacelike_set_is_damped(small_disk, monkeypatch):
    """A Newton trial that is not space-like halves the step and tries again."""
    grid, phi, w_limit, _ = small_disk
    seen = _evaluations(monkeypatch, off_spacelike={1})
    w, _, info = _warm_limit(np.zeros((16, 32)), grid, phi)
    full, damped = seen[1] - seen[0], seen[2] - seen[0]
    assert np.allclose(damped, 0.5 * full, rtol=0.0, atol=1e-15 * np.max(np.abs(full)))
    assert info["residuals"][-1] <= 1e-10 and info["floor_stops"] == []
    assert np.max(np.abs(w - w_limit)) < 1e-9


def test_chord_trial_off_the_spacelike_set_refactors(small_disk, monkeypatch):
    """A chord trial that is not space-like fails above the floor: the solve
    drops its solver and refactors at the current iterate."""
    grid, phi, w_limit, _ = small_disk
    _, _, clean = _warm_limit(np.zeros((16, 32)), grid, phi)
    # evaluations: the start, the Newton trial, then the first chord trial
    assert clean["factorizations"] == 1 and clean["newton"] == 1 and clean["chord"] >= 1
    _evaluations(monkeypatch, off_spacelike={2})
    w, _, info = _warm_limit(np.zeros((16, 32)), grid, phi)
    assert info["factorizations"] == 2 and info["newton"] == 2
    assert info["steps"] == len(info["residuals"])    # one solve was dropped
    assert info["residuals"][-1] <= 1e-10 and info["floor_stops"] == []
    assert np.max(np.abs(w - w_limit)) < 1e-9


def test_newton_step_backtracks_under_the_armijo_test(small_disk, monkeypatch):
    """On a Jacobian 2.5 times too flat the full Newton step overshoots the
    residual (by 1.5 times) and the half step is taken; the chord step on that
    solver fails to halve the residual, and the refactored solve converges."""
    grid, phi, w_limit, _ = small_disk
    seen = _evaluations(monkeypatch)
    built = _scaled_jacobian(monkeypatch, 0.4, first_only=True)
    w, _, info = _warm_limit(np.zeros((16, 32)), grid, phi)
    full, damped = seen[1] - seen[0], seen[2] - seen[0]
    assert np.allclose(damped, 0.5 * full, rtol=0.0, atol=1e-15 * np.max(np.abs(full)))
    assert info["residuals"][1] < 0.5 * info["residuals"][0]
    assert built[:2] == [0.4, 1.0] and info["factorizations"] == 2
    assert info["residuals"][-1] <= 1e-10 and info["floor_stops"] == []
    assert np.max(np.abs(w - w_limit)) < 1e-9


def test_newton_stagnation_raises(small_disk, monkeypatch):
    """On a Jacobian 7000 times too steep every Newton step passes the Armijo
    test (a reduction of 1.4e-4) but five reduce less than 0.1%, far above
    the floor."""
    grid, phi, w_limit, c3 = small_disk
    _scaled_jacobian(monkeypatch, 7000.0)
    with pytest.raises(NewtonError, match="stagnation"):
        _limit_solve(_near_limit(grid, w_limit), c3, grid, phi)


def test_newton_line_search_failure_raises(small_disk, monkeypatch):
    """On a Jacobian 1e6 times too steep no damped step passes the Armijo test."""
    grid, phi, w_limit, c3 = small_disk
    _scaled_jacobian(monkeypatch, 1e6)
    with pytest.raises(NewtonError, match="line search failed"):
        _limit_solve(_near_limit(grid, w_limit), c3, grid, phi)


def test_newton_failure_at_the_floor_stops(small_disk, monkeypatch):
    """The same failed line search with the floor above the residual is a
    floor stop: the solve returns its start, recorded as [eps, floor]."""
    grid, phi, w_limit, c3 = small_disk
    _scaled_jacobian(monkeypatch, 1e6)
    monkeypatch.setattr(RingSolver, "floor", lambda self, x: 1e-3)
    w0 = _near_limit(grid, w_limit)
    w, _, info = _limit_solve(w0, c3, grid, phi)
    r0 = info["residuals"][0]
    assert info["residuals"] == [r0] and r0 < 1e-3
    assert info["floor_stops"] == [[0.0, 1e-3]] and w is w0
    assert (info["steps"], info["newton"], info["chord"], info["factorizations"]) == (1, 0, 0, 1)


def test_failed_trace_chord_step_refactors_and_is_recorded():
    """On the radius-3 disk the spectral gap of L is below eps = 1, so chord
    steps on the limit solver cannot halve that level's residual: the level
    refactors once, converges to tol, and its solver entry records it."""
    dom = build_domain({"kind": "disk", "radius": 3.0}, "flat")
    grid = build_grid(dom, 16, 32)
    sol = continuation(ContinuationSchedule(), ContactAngle(PHI02, dom), grid)
    limit = sol.limit
    ((eps, n, residual),) = trace_refactors(limit)
    assert (eps, n) == (1.0, 1) and residual <= 1e-10
    assert [e for e, _ in limit["solvers"]] == [0.0, 0.0, 1.0]
    assert limit_factorizations(limit) == 2 and limit["floor_stops"] == []
    history = dict(limit["trace_residuals"])[1.0]
    # the dropped chord step is a solve with no residual of its own
    assert len(history) == sol.newton_iterations[0]


@pytest.mark.parametrize("metric, domain, phi", [
    ("sphere", {"kind": "disk", "radius": 0.4, "center": [0.3, 0.0]},
     {"kind": "constant", "value": 0.1}),
    ("flat", {"kind": "smooth_convex", "r0": 1.0, "amp": 0.02, "k": 6}, PHI02),
], ids=["sphere_off", "smooth_convex_k6"])
def test_trace_steps_halve_the_residual_down_to_the_floor(metric, domain, phi):
    """Off rotational symmetry at 64 x 128 the trace levels end at their
    rounding floor, and every kept step halves the residual: a chord step
    that does not stops the level at the floor rather than being kept."""
    dom = build_domain(domain, metric)
    sol = continuation(ContinuationSchedule(), ContactAngle(phi, dom), build_grid(dom, 64, 128))
    limit = sol.limit
    assert limit["floor_stops"]
    assert all(residual <= floor for _, residual, floor in floor_stop_residuals(limit))
    refactored = {eps for eps, _, _ in trace_refactors(limit)}
    for eps, history in limit["trace_residuals"]:
        if eps not in refactored:
            assert all(b <= 0.5 * a or b <= 1e-10 for a, b in zip(history, history[1:])), eps


def test_trace_leaves_the_floor_stops_the_limit_solve_returned(monkeypatch):
    """The trace levels' floor stops join a copy of the limit solve's list:
    the list the limit's ``_bordered_newton`` returned keeps its length."""
    dom = build_domain({"kind": "disk", "radius": 0.4, "center": [0.3, 0.0]}, "sphere")
    bordered_newton = translator._bordered_newton
    returned = []

    def recorded(*args, **kwargs):
        w, c, q, info = bordered_newton(*args, **kwargs)
        returned.append((info["floor_stops"], len(info["floor_stops"])))
        return w, c, q, info

    monkeypatch.setattr(translator, "_bordered_newton", recorded)
    sol = continuation(ContinuationSchedule(), ContactAngle({"kind": "constant", "value": 0.1},
                                                            dom), build_grid(dom, 64, 128))
    (limit_stops, n_limit), *levels = returned
    assert len(sol.limit["floor_stops"]) == n_limit + sum(n for _, n in levels) > n_limit
    assert len(limit_stops) == n_limit
