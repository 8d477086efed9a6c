"""Acceptance suite: one test per exit criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s`.  Expensive runs are shared
through module fixtures; the full suite targets a few minutes on a laptop.
"""

import time

import numpy as np
import pytest

from conftest import (boundary_frame, covariant_hessian_field, from_chart, nabla_T_T,
                      tensor_pullback)
from slmcf.domain import build_domain
from slmcf.flow import StepperConfig, run_pair, run_to_convergence
from slmcf.grid import ContactAngle, GridFunction, build_grid
from slmcf.metrics import get_metric, inv2
from slmcf.operators import flow_operator
from slmcf.oracle import translator_oracle
from slmcf.translator import (ContinuationSchedule, compute_c3, continuation)
from slmcf.verify import (check_evo_du_residual, check_maximal_limit,
                          check_osc_decay, check_spacelike_bound,
                          check_translator_agreement, check_ut_max_principle,
                          monitor_constants)


def _report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _bump(grid, amp=0.03, width=6.0):
    """Interior bump vanishing to machine zero at the boundary (compatible data)."""
    R, _ = np.meshgrid(grid.rho, grid.s, indexing="ij")
    with np.errstate(over="ignore"):
        b = amp * np.exp(-width * R ** 2 / np.maximum(1.0 - R ** 2, 1e-300))
    return np.where(R < 1.0, b, 0.0)


# -- shared scenario fixtures -----------------------------------------------------

@pytest.fixture(scope="module")
def disk():
    return build_domain({"kind": "disk", "radius": 1.0}, "flat")


@pytest.fixture(scope="module")
def sphere():
    return build_domain({"kind": "chart_circle", "r0": 0.8}, "sphere")


@pytest.fixture(scope="module")
def grid128(disk):
    return build_grid(disk, 128, 256)


@pytest.fixture(scope="module")
def phi02(disk):
    return ContactAngle({"kind": "constant", "value": 0.2}, disk)


@pytest.fixture(scope="module")
def oracle02():
    return translator_oracle(0.2, 1.0)


_TIMINGS = {}


@pytest.fixture(scope="module")
def sol128(grid128, phi02):
    t0 = time.perf_counter()
    sol = continuation(ContinuationSchedule(), phi02, grid128)
    _TIMINGS["continuation_128"] = time.perf_counter() - t0
    return sol


@pytest.fixture(scope="module")
def flow128(grid128, phi02):
    t0 = time.perf_counter()
    run = run_to_convergence(GridFunction.constant(grid128, 0.0), phi02, grid128,
                             StepperConfig(max_time=10.0, tol_speed=1e-7,
                                           snapshot_interval=25))
    _TIMINGS["flow_128"] = time.perf_counter() - t0
    return run


@pytest.fixture(scope="module")
def compat_family(disk, phi02):
    """Translator-profile initial data at three resolutions (criteria 3-4)."""
    runs = {}
    for n in (32, 64, 128):
        grid = build_grid(disk, n, 2 * n)
        sol = continuation(ContinuationSchedule(), phi02, grid)
        run = run_to_convergence(sol.profile, phi02, grid,
                                 StepperConfig(max_time=2.0, tol_speed=1e-9,
                                               snapshot_interval=10))
        runs[n] = (grid, sol, run)
    return runs


@pytest.fixture(scope="module")
def bump_run(disk, phi02):
    """Compatible, genuinely dynamic run: profile + interior bump (64 x 128)."""
    grid = build_grid(disk, 64, 128)
    sol = continuation(ContinuationSchedule(), phi02, grid)
    u0 = GridFunction(sol.profile.values + _bump(grid), grid)
    run = run_to_convergence(u0, phi02, grid,
                             StepperConfig(max_time=8.0, tol_speed=1e-8,
                                           snapshot_interval=10))
    return grid, sol, run


@pytest.fixture(scope="module")
def cos_setup(disk):
    grid = build_grid(disk, 128, 256)
    phi = ContactAngle({"kind": "fourier", "cos": [0.3]}, disk)
    sol = continuation(ContinuationSchedule(), phi, grid)
    u0 = GridFunction(sol.profile.values + _bump(grid), grid)
    run = run_to_convergence(u0, phi, grid,
                             StepperConfig(max_time=8.0, tol_speed=1e-7,
                                           snapshot_interval=25))
    return grid, phi, sol, run


@pytest.fixture(scope="module")
def pair64(disk, phi02):
    grid = build_grid(disk, 64, 128)
    sol = continuation(ContinuationSchedule(), phi02, grid)
    u0a = GridFunction.constant(grid, 0.0)
    u0b = from_chart(grid, lambda x, y: 0.1 * (x ** 2 + y ** 2))
    pair = run_pair(u0a, u0b, phi02, grid,
                    StepperConfig(max_time=10.0, tol_speed=1e-8))
    return grid, sol, pair


@pytest.fixture(scope="module")
def sphere_family(sphere):
    grid = build_grid(sphere, 64, 128)
    phi = ContactAngle({"kind": "constant", "value": 0.1}, sphere)
    sol = continuation(ContinuationSchedule(), phi, grid)
    flow = run_to_convergence(GridFunction.constant(grid, 0.0), phi, grid,
                              StepperConfig(max_time=10.0, tol_speed=1e-8,
                                            snapshot_interval=10))
    compat = run_to_convergence(sol.profile, phi, grid,
                                StepperConfig(max_time=2.0, tol_speed=1e-9,
                                              snapshot_interval=10))
    rho, _ = np.meshgrid(grid.rho, grid.s, indexing="ij")
    u0b = GridFunction(0.1 * rho ** 2, grid)
    pair = run_pair(GridFunction.constant(grid, 0.0), u0b, phi, grid,
                    StepperConfig(max_time=10.0, tol_speed=1e-8))
    return grid, phi, sol, flow, compat, pair


# -- criteria -------------------------------------------------------------------------


def test_criterion_1_translator_speed_agreement(grid128, phi02, sol128, flow128,
                                                oracle02):
    """Flat unit disk, phi = 0.2, 128 x 256: four-way speed agreement at 5e-4."""
    a = flow128.speed_estimate
    b = sol128.c3
    pv = phi02.values_on(grid128)
    c = compute_c3(flow_operator(sol128.profile.values, grid128, pv), grid128, pv)
    d = oracle02.c3
    gaps = {"flow_vs_elliptic": abs(a - b), "flow_vs_quadrature": abs(a - c),
            "elliptic_vs_quadrature": abs(b - c), "flow_vs_oracle": abs(a - d),
            "elliptic_vs_oracle": abs(b - d), "quadrature_vs_oracle": abs(c - d)}
    total = _TIMINGS.get("flow_128", 0.0) + _TIMINGS.get("continuation_128", 0.0)
    ok = all(g < 5e-4 for g in gaps.values()) and flow128.converged and total < 300.0
    # flux-balance quadrature self-consistency at this resolution
    ok = ok and gaps["elliptic_vs_quadrature"] < 1e-5
    _report(1, ok, f"speeds flow={a:.8f} elliptic={b:.8f} quadrature={c:.8f} "
                   f"oracle={d:.8f}; max gap {max(gaps.values()):.2e} < 5e-4; "
                   f"quadrature self-consistency {gaps['elliptic_vs_quadrature']:.2e} "
                   f"< 1e-5; runtime {total:.1f}s < 300s")


def test_flow128_dt_ladder(flow128):
    """The x4 dt ladder reaches steady translation on the 128 x 256 disk in at
    most 4 factorizations (6 on the doubling ladder), each one logged."""
    assert flow128.converged
    assert flow128.lu_factorizations <= 4
    assert flow128.state.step_count <= 22
    assert len(flow128.lu_refreshes) == flow128.lu_factorizations


def test_criterion_2_zero_speed_maximal_limit(cos_setup):
    """phi = 0.3 cos s: zero speed, stationary limit, energy identity."""
    grid, phi, sol, run = cos_setup
    c3_ok = abs(sol.c3) < 1e-6
    speed_ok = abs(run.speed_estimate) < 1e-4
    rep = check_maximal_limit(run)
    ok = c3_ok and speed_ok and rep.passed and run.converged
    _report(2, ok, f"|c3| = {abs(sol.c3):.2e} < 1e-6; |mean u_t| = "
                   f"{abs(run.speed_estimate):.2e} < 1e-4; max|H| = "
                   f"{rep.measured:.2e} < 5e-3; energy residual ratio "
                   f"{rep.details['energy_worst_ratio']:.3f} (threshold 10(dt^2+h^2))")


def test_criterion_3_spacelike_preservation(compat_family, flow128, cos_setup,
                                            bump_run, sphere_family, phi02):
    """All shipped runs stay under 1 - 1e-3 and the monitor bound; the excess
    over max(initial, c1) shrinks at second order under refinement."""
    entries = []
    # refinement family with compatible data
    excesses = {}
    for n, (grid, sol, run) in compat_family.items():
        c1 = monitor_constants(phi02, grid, run.monitor_c0)
        rep = check_spacelike_bound(run.series, c1, grid.h)
        entries.append((f"disk-compat-{n}", rep))
        excesses[n] = rep.details["excess"]
    order_ok = (excesses[64] <= max(excesses[32] / 4 * 1.2, 1e-12)
                and excesses[128] <= max(excesses[64] / 4 * 1.2, 1e-12))

    # the remaining shipped runs
    grid_c, phi_c, sol_c, run_c = cos_setup
    c1 = monitor_constants(phi_c, grid_c, run_c.monitor_c0)
    entries.append(("disk-cos", check_spacelike_bound(run_c.series, c1, grid_c.h)))

    grid_b, sol_b, run_b = bump_run
    c1 = monitor_constants(phi02, grid_b, run_b.monitor_c0)
    entries.append(("disk-bump", check_spacelike_bound(run_b.series, c1, grid_b.h)))

    c1 = monitor_constants(phi02, flow128.grid, flow128.monitor_c0)
    entries.append(("disk-128", check_spacelike_bound(flow128.series, c1,
                                                      flow128.grid.h)))

    grid_s, phi_s, sol_s, flow_s, compat_s, _ = sphere_family
    c1 = monitor_constants(phi_s, grid_s, flow_s.monitor_c0)
    entries.append(("sphere", check_spacelike_bound(flow_s.series, c1, grid_s.h)))
    c1 = monitor_constants(phi_s, grid_s, compat_s.monitor_c0)
    entries.append(("sphere-compat", check_spacelike_bound(compat_s.series, c1,
                                                           grid_s.h)))

    all_ok = all(rep.passed for _, rep in entries) and order_ok
    worst = max(rep.measured for _, rep in entries)
    _report(3, all_ok,
            f"{len(entries)} runs, worst sup|Du|^2 = {worst:.5f} < {1 - 1e-3}; "
            f"monitor excesses at 32/64/128: {excesses[32]:.2e}/"
            f"{excesses[64]:.2e}/{excesses[128]:.2e} (order >= 2)")


def test_criterion_4_ut_max_principle(compat_family, bump_run, sphere_family):
    """sup |u_t| nonincreasing on every compatible-initial-data run."""
    entries = []
    for n, (grid, sol, run) in compat_family.items():
        entries.append((f"disk-compat-{n}", check_ut_max_principle(run.series)))
    _, _, run_b = bump_run
    entries.append(("disk-bump", check_ut_max_principle(run_b.series)))
    _, _, _, _, compat_s, _ = sphere_family
    entries.append(("sphere-compat", check_ut_max_principle(compat_s.series)))
    increments = [rep.details["max_increment"] for _, rep in entries]
    ok = all(rep.passed for _, rep in entries)
    _report(4, ok, f"{len(entries)} compatible runs; "
                   f"largest sup|u_t| increment {max(increments):.2e} "
                   f"(bound: initial * (1+1e-6) + 1e-8)")


def test_criterion_5_osc_decay_and_uniqueness(pair64):
    grid, sol, pair = pair64
    rep_osc = check_osc_decay(pair)
    rep_tr = check_translator_agreement(pair.run_a, sol)
    ok = rep_osc.passed and rep_tr.passed
    _report(5, ok,
            f"osc {pair.osc[0]:.4f} -> {pair.osc[-1]:.2e} "
            f"(< 1e-4 of initial = {1e-4 * pair.osc[0]:.1e}); max increment "
            f"{rep_osc.details['max_increment']:.1e}; c8 = {rep_tr.details['c8']:.4f}; "
            f"aligned profile gap {rep_tr.details['profile_gap']:.2e} < 1e-3")


def test_criterion_6_nonflat_metric(sphere_family):
    """Sphere cap (K = 1), phi = 0.1: criteria 3-5 plus three-way agreement."""
    grid, phi, sol, flow, compat, pair = sphere_family
    a = flow.speed_estimate
    b = sol.c3
    pv = phi.values_on(grid)
    c = compute_c3(flow_operator(sol.profile.values, grid, pv), grid, pv)
    gaps = [abs(a - b), abs(a - c), abs(b - c)]
    rep_osc = check_osc_decay(pair)
    rep_tr = check_translator_agreement(flow, sol)
    c1 = monitor_constants(phi, grid, flow.monitor_c0)
    rep_sp = check_spacelike_bound(flow.series, c1, grid.h)
    rep_ut = check_ut_max_principle(compat.series)
    orc = translator_oracle(0.1, 0.8, get_metric("sphere"))
    oracle_gap = abs(b - orc.c3)
    ok = (max(gaps) < 1e-3 and rep_osc.passed and rep_tr.passed and rep_sp.passed
          and rep_ut.passed and flow.converged and oracle_gap < 1e-3)
    _report(6, ok,
            f"speeds flow={a:.7f} elliptic={b:.7f} quadrature={c:.7f}, "
            f"max pairwise gap {max(gaps):.2e} < 1e-3; radial-oracle gap "
            f"{oracle_gap:.2e}; osc/spacelike/ut/translator checks all pass")


def test_criterion_7_geometry_kernel(disk, sphere, collar_frame, inverse_metric_error):
    """Catalog exactness, Hessian convergence, metric inverses, frame identities."""
    ok = True
    notes = []

    # on the x axis of the normal chart n = e1 and t = e2, so Gamma^1_22 = A
    # = (r - f f')/r^2 and Gamma^2_12 = B = f'/f - 1/r
    gam = get_metric("sphere").christoffel(np.array([0.8, 0.0]))
    ok &= abs(gam[0, 1, 1] - (0.8 - np.sin(0.8) * np.cos(0.8)) / 0.64) < 1e-12
    ok &= abs(gam[1, 0, 1] - (1.0 / np.tan(0.8) - 1.0 / 0.8)) < 1e-12
    ok &= abs(get_metric("sphere").gauss_curvature(np.array([0.8, 1.0])) - 1.0) < 1e-8
    ok &= np.allclose(get_metric("flat").christoffel(np.array([0.2, 0.4])), 0.0)
    notes.append("catalog exact")

    for mid, pts in (("flat", [(0.1, 0.2), (1.5, 2.0)]), ("sphere", [(0.5, 1.0), (1.2, 2.0)]),
                     ("dome", [(0.5, 0.1)])):
        metric = get_metric(mid)
        for pt in pts:
            pt = np.asarray(pt, dtype=float)
            ok &= float(np.max(np.abs(inv2(metric.sigma(pt)) @ metric.sigma(pt)
                                      - np.eye(2)))) < 1e-12
    notes.append("sigma^-1 sigma = I to 1e-12")

    # covariant Hessian second-order convergence on the sphere cap
    def fn(x, y):      # 0.3 r^2 + 0.1 r^3 cos(th) in normal coordinates
        return (x * x + y * y) * (0.3 + 0.1 * x)
    errs = []
    for n in (24, 48):
        grid = build_grid(sphere, n, 2 * n)
        u = from_chart(grid, fn)
        B = tensor_pullback(grid)["jac_inv"]
        H = np.einsum("...ai,...bj,...ab->...ij", B, B, covariant_hessian_field(u.values, grid))
        rows = [i for i in range(n) if 0.2 <= grid.rho[i] <= 0.9]
        err = 0.0
        for i in rows:
            for j in range(0, 2 * n, max(1, n // 4)):
                pt = grid.X[i, j]
                exact = _exact_sphere_hessian(pt)
                err = max(err, float(np.max(np.abs(H[i, j] - exact))))
        errs.append(err)
    ratio = errs[0] / errs[1]
    ok &= 3.6 <= ratio <= 4.4
    notes.append(f"hessian order 2 (ratio {ratio:.2f})")

    # random chart-linear gradients up to |Du|^2 = 0.99 on a 16x32 disk grid
    grid = build_grid(disk, 16, 32)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        th = rng.uniform(0, 2 * np.pi)
        mag = np.sqrt(rng.uniform(0, 0.99))
        u = from_chart(grid, lambda x, y: mag * (np.cos(th) * x + np.sin(th) * y))
        worst = max(worst, inverse_metric_error(grid, u.values))
    ok &= worst < 1e-10
    notes.append(f"g^ij g_jk = delta to {worst:.1e}")

    # Lemma-type frame identities at 32 boundary samples
    s = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    dom = disk
    T, N, _ = boundary_frame(dom, s)
    resid_i = nabla_T_T(dom, s) - dom.kappa(s)[:, None] * N
    ok &= float(np.max(np.abs(resid_i))) < 1e-8
    resid_ii = []
    grad_f = np.array([0.0, 1.0])
    eps = 1e-3
    for s0 in s:
        x0 = dom.curve.gamma(np.array([s0]))[0]
        T0, N0 = collar_frame(dom, x0)
        kap0 = float(dom.kappa(np.array([s0]))[0])

        def d_t(y):
            return float(grad_f @ collar_frame(dom, y)[0])

        def d_n(y):
            return float(grad_f @ collar_frame(dom, y)[1])

        def d4(fn_, V):
            return (fn_(x0 - 2 * eps * V) - 8 * fn_(x0 - eps * V)
                    + 8 * fn_(x0 + eps * V) - fn_(x0 + 2 * eps * V)) / (12 * eps)

        resid_ii.append(d4(d_t, N0) - d4(d_n, T0) - kap0 * d_t(x0))
    ok &= float(np.max(np.abs(resid_ii))) < 1e-8
    notes.append(f"frame identities to {max(np.max(np.abs(resid_i)), np.max(np.abs(resid_ii))):.1e} at 32 samples")

    _report(7, bool(ok), "; ".join(notes))


def _exact_sphere_hessian(pt):
    """Analytic covariant Hessian of 0.3 r^2 + 0.1 r^3 cos(th) on the unit sphere
    at the normal-chart point pt: its polar components, taken to normal ones
    through dr = n . dx and dth = t . dx / r."""
    r, th = np.hypot(*pt), np.arctan2(pt[1], pt[0])
    ur = 0.6 * r + 0.3 * r ** 2 * np.cos(th)
    uth = -0.1 * r ** 3 * np.sin(th)
    urr = 0.6 + 0.6 * r * np.cos(th)
    urth = -0.3 * r ** 2 * np.sin(th)
    uthth = -0.1 * r ** 3 * np.cos(th)
    cot = np.cos(r) / np.sin(r)
    H = np.empty((2, 2))
    H[0, 0] = urr
    H[0, 1] = H[1, 0] = urth - cot * uth
    H[1, 1] = uthth + np.sin(r) * np.cos(r) * ur
    P = np.array([[np.cos(th), np.sin(th)], [-np.sin(th) / r, np.cos(th) / r]])  # P[a, i]
    return P.T @ H @ P


def test_criterion_8_eps_continuation(sol128):
    """|mean(eps u_eps) - c3| monotone for eps <= 0.25 and < 1e-6 by eps = 1e-5."""
    trace = sol128.eps_trace_mean
    small = [(e, d) for e, d in trace if e <= 0.25]
    monotone = all(small[k + 1][1] <= small[k][1] + 1e-10
                   for k in range(len(small) - 1))
    at_1e5 = [d for e, d in trace if e <= 1e-5]
    reached = bool(at_1e5) and at_1e5[0] < 1e-6
    ok = monotone and reached
    first = at_1e5[0] if at_1e5 else float("nan")
    _report(8, ok, f"trace monotone below 0.25: {monotone}; first value at "
                   f"eps <= 1e-5 is {first:.2e} < 1e-6 "
                   f"(schedule reached eps = {trace[-1][0]:.1e})")


@pytest.fixture(scope="module")
def evo_du_runs(disk, sphere):
    out = {}
    for label, dom, phi_spec, phi_val in (("disk", disk, "constant", 0.2),
                                          ("sphere", sphere, "constant", 0.1)):
        runs = []
        for n, dt in ((32, 4e-3), (64, 2e-3)):
            grid = build_grid(dom, n, 2 * n)
            phi = ContactAngle({"kind": phi_spec, "value": phi_val}, dom)
            cfg = StepperConfig(max_time=0.45, tol_speed=0.0, dt=dt,
                                dense_sample_times=(0.1, 0.25))
            run = run_to_convergence(GridFunction.constant(grid, 0.0), phi, grid, cfg)
            runs.append((grid, phi, run))
        out[label] = runs
    return out


def test_criterion_9_evo_du_convention(evo_du_runs):
    """Exactly one gradient-evolution convention converges at O(h^2 + dt)."""
    ok = True
    notes = []
    for label, runs in evo_du_runs.items():
        reps = [check_evo_du_residual(run) for _, _, run in runs]
        ok &= all(r.passed and r.details["validated"] == "derived" for r in reps)
        coarse = reps[0].details["residuals"]
        fine = reps[1].details["residuals"]
        ratio = fine["derived"] / coarse["derived"]
        ok &= ratio <= 0.6                      # h and dt both halved
        ok &= fine["printed"] / coarse["printed"] > 0.6   # wrong convention stalls
        notes.append(f"{label}: derived {coarse['derived']:.2e} -> {fine['derived']:.2e} "
                     f"(ratio {ratio:.2f}), printed stalls at {fine['printed']:.2e}")
    _report(9, bool(ok), "; ".join(notes) + "; validated convention recorded: derived")
