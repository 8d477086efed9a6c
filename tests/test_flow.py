import dataclasses

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from conftest import from_chart
from slmcf import flow
from slmcf.domain import build_domain
from slmcf.errors import ScenarioError, StepSizeUnderflowError
from slmcf.flow import StepperConfig, run_pair, run_to_convergence
from slmcf.grid import ContactAngle, GridFunction, build_grid
from slmcf.operators import flow_operator, linearized_affine, nested_dissection_order
from slmcf.runio import load_scenario


@pytest.fixture(scope="module")
def disk24():
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    return dom, build_grid(dom, 24, 48)


def test_constant_stationary_with_zero_phi(disk24):
    dom, grid = disk24
    phi = ContactAngle({"kind": "constant", "value": 0.0}, dom)
    run = run_to_convergence(GridFunction.constant(grid, 5.0), phi, grid,
                             StepperConfig(max_time=0.5, tol_speed=1e-12))
    assert run.converged
    assert run.sup_ut < 1e-13
    assert np.max(np.abs(run.state.u - 5.0)) < 1e-12


def test_linear_field_zero_interior_update(disk24):
    """The flow operator on linear data only acts through the boundary closure.

    The covariant Hessian of a chart-linear field vanishes; discretely the
    center rings keep an O(h) local truncation for first-harmonic data (the
    usual polar-center behavior), so the interior update u_t is zero at the
    truncation scale rather than machine zero.
    """
    dom, grid = disk24
    phi = ContactAngle({"kind": "constant", "value": 0.0}, dom)
    u0 = from_chart(grid, lambda x, y: 0.3 * x)
    interior_update = flow_operator(u0.values, grid, phi.values_on(grid))["op"][:-2, :]
    assert np.max(np.abs(interior_update)) < 0.05
    # away from the center patch the Hessian is clean second-order small
    away = interior_update[grid.rho[:-2] > 0.25, :]
    assert np.max(np.abs(away)) < 2e-3


def test_phi_zero_converges_to_constant(disk24):
    dom, grid = disk24
    phi = ContactAngle({"kind": "constant", "value": 0.0}, dom)
    u0 = from_chart(grid, lambda x, y: 0.1 * (x ** 2 + y ** 2))
    run = run_to_convergence(u0, phi, grid, StepperConfig(max_time=8.0, tol_speed=1e-9))
    assert run.converged
    assert abs(run.speed_estimate) < 1e-6
    final = run.state.u
    assert np.max(final) - np.min(final) < 1e-6


def test_translation_equivariance(disk24):
    dom, grid = disk24
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    cfg = StepperConfig(max_time=0.3, tol_speed=0.0)
    u0 = from_chart(grid, lambda x, y: 0.05 * x ** 2)
    run_a = run_to_convergence(u0, phi, grid, cfg)
    run_b = run_to_convergence(GridFunction(u0.values + 3.0, grid), phi, grid, cfg)
    assert run_a.series["t"][-1] == run_b.series["t"][-1]
    assert np.max(np.abs(run_b.state.u - run_a.state.u - 3.0)) < 1e-9


def test_boundary_identities_along_run(disk24, boundary_gradient_data):
    dom, grid = disk24
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    pv = phi.values_on(grid)
    run = run_to_convergence(GridFunction.constant(grid, 0.0), phi, grid,
                             StepperConfig(max_time=0.5, tol_speed=0.0))
    dnu, dtu, v = boundary_gradient_data(run.state.u, grid, pv)
    assert np.max(np.abs(dnu ** 2 - pv ** 2 * v ** 2)) < 1e-14
    assert np.max(np.abs(dtu ** 2 - (1 - (1 + pv ** 2) * v ** 2))) < 1e-14


def test_series_columns_complete(disk24):
    dom, grid = disk24
    phi = ContactAngle({"kind": "constant", "value": 0.1}, dom)
    run = run_to_convergence(GridFunction.constant(grid, 0.0), phi, grid,
                             StepperConfig(max_time=0.2, tol_speed=0.0))
    assert list(run.series) == ["t", "sup_ut", "sup_du2", "mean_ut", "osc_u"]
    for key in run.series:
        assert len(run.series[key]) == len(run.series["t"])
    assert np.all(np.diff(run.series["t"]) > 0)


def _forward_euler(u0, phi, grid, dt, t_end):
    """Reference integrator: forward Euler up to t_end, each step clamped to
    0.8 / (2 max over nodes of the second-order stencil scale)."""
    pv = phi.values_on(grid)
    u, t = np.array(u0, dtype=float), 0.0
    while t < t_end:
        q = flow_operator(u, grid, pv)
        g11, g12, g22 = q["gup"]
        lam = g11 / grid.hr ** 2 + g22 / grid.hs ** 2 + 2.0 * np.abs(g12) / (grid.hr * grid.hs)
        dt = min(dt, 0.8 / (2.0 * float(np.max(lam))))
        u += dt * q["op"]
        t += dt
    return u


def test_explicit_matches_semi_implicit_short(disk24):
    dom, grid = disk24
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    u0 = np.zeros((grid.n_radial, grid.n_angular))
    t_end = 0.02
    u_e = _forward_euler(u0, phi, grid, 1e-5, t_end)
    run_s = run_to_convergence(GridFunction(u0, grid), phi, grid, StepperConfig(
        dt=1e-4, max_time=t_end, tol_speed=0.0))
    # both first order in time; difference is O(dt_larger) after the transient
    mask = slice(0, grid.n_radial - 1)
    gap = np.max(np.abs(u_e[mask] - run_s.state.u[mask]))
    assert gap < 5e-3


_PAIR_DOMAINS = {"disk": ({"kind": "disk", "radius": 1.0}, 1.0),
                 "ellipse": ({"kind": "ellipse", "a": 1.5, "b": 1.0}, 1.5)}


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in _PAIR_DOMAINS for n in (16, 24, 48)],
                         ids=lambda v: f"{v}x{2 * v}" if isinstance(v, int) else v)
def test_osc_nonincreasing_pair(kind, n):
    """On the default dt ladder the oscillation of u_a - u_b never rises by
    more than 1e-10 in one step (faster ladders break this)."""
    spec, a = _PAIR_DOMAINS[kind]
    dom = build_domain(spec, "flat")
    grid = build_grid(dom, n, 2 * n)
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    u0a = GridFunction.constant(grid, 0.0)
    u0b = from_chart(grid, lambda x, y: 0.1 * (x ** 2 + y ** 2))
    # the disk settles by t = 3.6; the ellipse's slower mode needs about t = 7
    pair = run_pair(u0a, u0b, phi, grid, StepperConfig(max_time=10.0, tol_speed=1e-8))
    assert pair.osc[0] == pytest.approx(0.1 * a ** 2, abs=1e-3)
    assert np.max(np.diff(pair.osc)) <= 1e-10
    assert pair.osc[-1] < 1e-6
    assert np.max(pair.max_abs) <= pair.max_abs[0] * (1 + 1e-6) + 1e-8


def test_pair_constant_shift_trivial(disk24):
    dom, grid = disk24
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    u0a = GridFunction.constant(grid, 0.0)
    pair = run_pair(u0a, GridFunction(u0a.values + 3.0, grid), phi, grid,
                    StepperConfig(max_time=0.3, tol_speed=0.0))
    # the difference field stays exactly the constant 3
    assert np.max(pair.osc) < 1e-9
    assert np.allclose(pair.max_abs, 3.0, atol=1e-9)


def test_ut_max_principle_compatible_run(disk24):
    dom, grid = disk24
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    from slmcf.translator import ContinuationSchedule, continuation
    sol = continuation(ContinuationSchedule(eps_min=1e-5), phi, grid)
    R, _ = np.meshgrid(grid.rho, grid.s, indexing="ij")
    bump = 0.02 * np.exp(-8.0 * R ** 2 / np.maximum(1 - R ** 2, 1e-300)) * (R < 1.0)
    run = run_to_convergence(GridFunction(sol.profile.values + bump, grid), phi, grid,
                             StepperConfig(max_time=3.0, tol_speed=1e-8))
    su = run.series["sup_ut"]
    assert np.max(su) <= su[0] * (1 + 1e-6) + 1e-8


def test_nonconvergence_reported(disk24):
    dom, grid = disk24
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    run = run_to_convergence(GridFunction.constant(grid, 0.0), phi, grid,
                             StepperConfig(max_time=0.05, tol_speed=1e-12))
    assert not run.converged
    assert run.message.startswith("not converged by max_time = 0.05 ")


def test_max_steps_stop_names_max_steps(monkeypatch):
    monkeypatch.setattr(flow, "_MAX_STEPS", 2)
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    grid = build_grid(dom, 16, 32)
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    run = run_to_convergence(GridFunction.constant(grid), phi, grid, StepperConfig())
    assert not run.converged and run.state.step_count == 2
    assert run.series["t"][-1] == pytest.approx(0.125) and run.series["t"][-1] < run.cfg.max_time
    assert run.message.startswith("not converged by max_steps = 2 at t = 0.125 ")


def test_stepper_config_validation():
    # a given dt below the stepper's smallest step would never move t
    for dt in (-1.0, 0.0, 1e-300, 0.5 * flow._DT_FLOOR, float("nan")):
        with pytest.raises(ScenarioError, match="dt"):
            StepperConfig(dt=dt)
    assert StepperConfig(dt=flow._DT_FLOOR).dt == flow._DT_FLOOR
    nan = float("nan")
    for max_time in (0.0, -1.0, nan):
        with pytest.raises(ScenarioError, match="max_time"):
            StepperConfig(max_time=max_time)
    for tol_speed in (-1e-7, nan):
        with pytest.raises(ScenarioError, match="tol_speed"):
            StepperConfig(tol_speed=tol_speed)
    assert StepperConfig(tol_speed=0.0).tol_speed == 0.0     # runs to max_time
    for snapshot_interval in (0, nan, 2.5):
        with pytest.raises(ScenarioError, match="snapshot_interval"):
            StepperConfig(snapshot_interval=snapshot_interval)
    # the ends of the ranges, and sample times in a numpy array, are admitted
    StepperConfig(tol_speed=0, max_time=1e-300, snapshot_interval=1,
                  dense_sample_times=np.array([0.1, 0.2]))
    # the stepper has one scheme, one space-like margin and one runaway bound:
    # a scenario that sets any of them is refused
    scenario = {"metric": {"id": "flat"}, "domain": {"kind": "disk", "radius": 1.0},
                "phi": {"kind": "constant", "value": 0.2},
                "grid": {"n_radial": 16, "n_angular": 32}}
    for key, value in (("scheme", "explicit"), ("delta_space", 0.01), ("max_steps", 10)):
        with pytest.raises(ScenarioError, match=key):
            load_scenario({**scenario, "stepper": {key: value}})


def test_dense_sample_times_checked_before_conversion():
    """A value that is no array of numbers is refused as the scenario path
    refuses it, not turned into a tuple first: an int raised a raw TypeError,
    a string was split into characters and a generator was consumed."""
    for value in (5, "ab", (t for t in (0.1, 0.2)), [0.1, "a"], [[0.1]]):
        with pytest.raises(ScenarioError, match="'stepper': 'dense_sample_times'"):
            StepperConfig(dense_sample_times=value)
    assert StepperConfig(dense_sample_times=[0.2, 0.1]).dense_sample_times == (0.2, 0.1)


def test_dense_triplet_is_centred_on_the_first_step_at_tau():
    """Each tau snapshots (u_{k-1}, u_k, u_{k+1}) with t_k the first step time
    >= tau, step 1 for tau = 0, each step once, also where one step reaches
    two taus and where a tau is listed twice; the regular snapshots (t = 0 and
    the final state here) are kept."""
    taus = [0.0, 0.1, 0.3000001, 0.3000004, 0.3000004]
    scenario = load_scenario({
        "metric": {"id": "flat"}, "domain": {"kind": "disk", "radius": 1.0},
        "phi": {"kind": "constant", "value": 0.2}, "grid": {"n_radial": 16, "n_angular": 32},
        "stepper": {"dt": 0.01, "max_time": 0.5, "dense_sample_times": taus}})
    run = run_to_convergence(scenario.u0, scenario.phi, scenario.grid, scenario.stepper)
    times = list(run.series["t"])
    snap_times = [t for t, _ in run.snapshots]
    for tau in taus:
        k = max(1, next(i for i, t in enumerate(times) if t >= tau))
        i = snap_times.index(times[k])
        assert snap_times[i - 1:i + 2] == times[k - 1:k + 2]
    assert times[1] >= 0.0 and times[10] < 0.1 <= times[11] and times[30] < 0.3000001
    assert times[31] >= 0.3000004
    assert snap_times == [times[k] for k in (0, 1, 2, 10, 11, 12, 30, 31, 32, 50)]


# -- stepping core: step control, LU refresh and the mean split ---------------------

def test_large_constant_u0_steps_like_zero():
    """The mean split keeps a large constant out of the operator and the LU:
    u0 = 1000 converges on the same steps as u0 = 0, to the same speed."""
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    grid = build_grid(dom, 32, 64)
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    cfg = StepperConfig(max_time=10.0, tol_speed=1e-7)
    runs = [run_to_convergence(GridFunction.constant(grid, c), phi, grid, cfg)
            for c in (0.0, 1000.0)]
    assert all(run.converged for run in runs)
    assert runs[0].state.step_count == runs[1].state.step_count
    assert np.array_equal(runs[0].series["t"], runs[1].series["t"])
    assert abs(runs[0].speed_estimate - runs[1].speed_estimate) < 1e-12


def test_controlled_run_few_steps_and_factorizations():
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    grid = build_grid(dom, 64, 128)
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    cfg = StepperConfig(max_time=10.0, tol_speed=1e-7, snapshot_interval=25)
    run = run_to_convergence(GridFunction.constant(grid, 0.0), phi, grid, cfg)
    assert run.converged
    assert run.state.step_count <= 40
    assert run.lu_factorizations <= 10
    assert run.rejected == 0
    # dt grew from the initial step, never past the cap; with no rejection
    # every dt taken is the dt of a refresh
    dts = [r[2] for r in run.lu_refreshes]
    assert min(dts) == pytest.approx(cfg.initial_dt(grid))
    assert cfg.initial_dt(grid) < max(dts) <= 0.5 * dom.inradius
    steps = np.diff(run.series["t"])
    assert np.all(steps[1:] >= steps[:-1] * (1.0 - 1e-9))
    # snapshots fall on the first step reaching each multiple of 25 initial steps
    every = 25 * cfg.initial_dt(grid)
    snap_t = [t for t, _ in run.snapshots]
    assert snap_t[0] == 0.0 and snap_t[-1] == run.series["t"][-1]
    assert len(snap_t) > 3
    for t in snap_t[1:-1]:
        prev = run.series["t"][np.searchsorted(run.series["t"], t) - 1]
        assert np.floor(prev / every) < np.floor(t / every + 1e-9)


def test_zero_flux_flow_factors_few_times():
    """On the Jacobian the affine model's defect is second order in the step,
    so the defect rule stays quiet and the factorizations follow the dt ladder."""
    dom = build_domain({"kind": "smooth_convex", "r0": 1.0, "amp": 0.05, "k": 4}, "flat")
    grid = build_grid(dom, 24, 48)
    phi = ContactAngle({"kind": "fourier", "cos": [0.3]}, dom)
    run = run_to_convergence(GridFunction.constant(grid, 0.0), phi, grid, StepperConfig())
    assert run.converged
    assert run.lu_factorizations <= 8


def test_explicit_dt_keeps_fixed_step_times(disk24):
    dom, grid = disk24
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    cfg = StepperConfig(dt=0.01, max_time=0.3, tol_speed=0.0, snapshot_interval=10)
    run = run_to_convergence(GridFunction.constant(grid, 0.0), phi, grid, cfg)
    expected = [0.0]
    while expected[-1] < cfg.max_time:
        expected.append(expected[-1] + 0.01)
    assert run.series["t"].tolist() == expected
    assert {r[2] for r in run.lu_refreshes} == {0.01}
    assert run.rejected == 0
    # fixed step: one snapshot every snapshot_interval steps, plus the final state
    assert len(expected) == 31
    assert [t for t, _ in run.snapshots] == expected[::10]


def test_pair_core_grows_dt_and_matches_single_run_times():
    """Lockstep pairs use the shared controller; growth only counts steps, so a
    single run of either member steps on the same times."""
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    grid = build_grid(dom, 32, 64)
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    cfg = StepperConfig(max_time=10.0, tol_speed=1e-8)
    u0a = GridFunction.constant(grid, 0.0)
    u0b = from_chart(grid, lambda x, y: 0.1 * (x ** 2 + y ** 2))
    pair = run_pair(u0a, u0b, phi, grid, cfg)
    assert pair.run_a.converged and pair.run_b.converged
    assert max(r[2] for r in pair.run_a.lu_refreshes) > cfg.initial_dt(grid)
    assert np.max(np.diff(pair.osc)) <= 1e-10
    assert pair.osc[-1] < 1e-4 * pair.osc[0]
    single = run_to_convergence(u0b, phi, grid, cfg)
    n = min(len(single.series["t"]), len(pair.t))
    assert np.array_equal(single.series["t"][:n], pair.t[:n])
    assert single.speed_estimate == pytest.approx(pair.run_b.speed_estimate, abs=1e-9)


def test_pair_members_are_single_runs(disk24):
    """A pair member is recorded exactly as the single run of its field: the
    series and energy agree bit for bit on the steps both runs took."""
    dom, grid = disk24
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    cfg = StepperConfig(snapshot_interval=5)
    u0a = GridFunction.constant(grid, 0.0)
    u0b = from_chart(grid, lambda x, y: 0.1 * (x ** 2 + y ** 2))
    pair = run_pair(u0a, u0b, phi, grid, cfg)
    snap_every = cfg.snapshot_interval * cfg.initial_dt(grid)
    for member, u0 in ((pair.run_a, u0a), (pair.run_b, u0b)):
        single = run_to_convergence(u0, phi, grid, cfg)
        for name in ("series", "energy"):
            mem, ref = getattr(member, name), getattr(single, name)
            assert list(mem) == list(ref)
            n = min(len(mem["t"]), len(ref["t"]))
            assert all(np.array_equal(mem[k][:n], ref[k][:n]) for k in ref), name
        assert member.monitor_c0 == single.monitor_c0
        assert np.array_equal(member.series["t"], pair.t)
        times = [t for t, _ in member.snapshots]
        assert times[0] == 0.0 and times[-1] == member.series["t"][-1] and len(times) > 2
        marks = np.floor(np.asarray(times[:-1]) / snap_every + 1e-6)
        assert np.all(np.diff(marks) >= 1)
        assert all(np.array_equal(u, single_u) for (t, u), (s, single_u)
                   in zip(member.snapshots[:-1], single.snapshots) if t == s)


@pytest.mark.parametrize("runner", ["single", "pair"])
def test_nonfinite_u0_raises_scenario_error(runner):
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    grid = build_grid(dom, 16, 32)
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    u0 = GridFunction.constant(grid)
    u0.values[3, 5] = np.nan    # a GridFunction checks its values once, when built
    with pytest.raises(ScenarioError, match="non-finite"):
        if runner == "single":
            run_to_convergence(u0, phi, grid, StepperConfig(max_time=1.0))
        else:
            run_pair(GridFunction.constant(grid), u0, phi, grid, StepperConfig(max_time=1.0))


@pytest.mark.parametrize("runner", ["single", "pair"])
def test_wrong_shaped_u0_raises_scenario_error(runner):
    """A u0 that is not of the grid's shape (a GridFunction of another grid) is
    refused with both shapes named, not left to fail as a numpy broadcast error."""
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    grid = build_grid(dom, 16, 32)
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    u0 = GridFunction.constant(build_grid(dom, 16, 30))
    with pytest.raises(ScenarioError, match=r"\(16, 30\).*\(16, 32\)"):
        if runner == "single":
            run_to_convergence(u0, phi, grid, StepperConfig(max_time=1.0))
        else:
            run_pair(GridFunction.constant(grid), u0, phi, grid, StepperConfig(max_time=1.0))


@pytest.mark.parametrize("runner", ["single", "pair"])
def test_persistent_rejection_underflows(runner):
    """phi = 31 with u0 = 0.9 x: the closure puts the boundary |Du|^2 at
    phi^2 (1 - q^2) / (1 + phi^2) + q^2 with q = D_T u up to 0.9, near 0.9998
    and above 1 - 1e-3, and a short step keeps it there: every step is
    rejected and halved until the typed underflow error."""
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    grid = build_grid(dom, 16, 32)
    phi = ContactAngle({"kind": "constant", "value": 31.0}, dom)
    cfg = StepperConfig()
    u0 = _tilted(grid)
    with pytest.raises(StepSizeUnderflowError):
        if runner == "single":
            run_to_convergence(u0, phi, grid, cfg)
        else:
            run_pair(u0, GridFunction(u0.values + 1.0, grid), phi, grid, cfg)


def _tilted(grid):
    """u0 = 0.9 x: its boundary tangential slope rejects every step at phi = 31."""
    return GridFunction(0.9 * grid.X[..., 0], grid)


@pytest.mark.parametrize("runner", ["single", "pair"])
def test_contact_angle_past_the_step_ceiling_is_a_scenario_error(runner):
    """The closure makes the boundary |Du|^2 at least phi^2 / (1 + phi^2): at
    phi = 50 that is 2500/2501, above 1 - 1e-3, so no step could be accepted
    and the flow refuses phi before its first step.  phi = 31 (961/962) flows."""
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    grid = build_grid(dom, 16, 32)
    u0 = GridFunction.constant(grid, 0.0)
    cfg = StepperConfig(max_time=1.0)
    for value in (50.0, -50.0):
        phi = ContactAngle({"kind": "constant", "value": value}, dom)
        with pytest.raises(ScenarioError, match=r"'phi': max \|phi\| = 50 .* 0\.9996"):
            if runner == "single":
                run_to_convergence(u0, phi, grid, cfg)
            else:
                run_pair(u0, GridFunction(u0.values + 1.0, grid), phi, grid, cfg)
    phi = ContactAngle({"kind": "constant", "value": 31.0}, dom)
    if runner == "single":
        assert run_to_convergence(u0, phi, grid, cfg).series["t"][-1] > 0.0
    else:
        assert run_pair(u0, GridFunction(u0.values + 1.0, grid), phi, grid, cfg).t[-1] > 0.0


def _lu_entries(run):
    return sum(entry[4] == "lu" for entry in run.lu_refreshes)


def test_lu_refresh_log(disk24, record_splu, monkeypatch):
    """Every refresh is logged as [step, t, dt, reason, solver]; the solver is
    "ring" or "lu", and each "lu" entry is one splu call."""
    made = record_splu(flow)
    dom, grid = disk24
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    u0 = GridFunction.constant(grid, 0.0)
    fixed = run_to_convergence(u0, phi, grid, StepperConfig(dt=0.01, max_time=0.3,
                                                            tol_speed=0.0))
    assert len(fixed.lu_refreshes) == fixed.lu_factorizations
    assert len(made) == _lu_entries(fixed)
    assert fixed.lu_refreshes[0] == [0, 0.0, 0.01, "start", "ring"]
    for prev, (step_, t, dt, reason, solver) in zip(fixed.lu_refreshes,
                                                    fixed.lu_refreshes[1:]):
        assert dt == 0.01 and t == fixed.series["t"][step_]
        assert reason == "defect" or (reason == "interval" and step_ - prev[0] == 10)
        assert solver in ("ring", "lu")

    # a state off rotational symmetry escalates to the LU
    bumped = run_to_convergence(GridFunction(_bump(grid), grid), phi, grid,
                                StepperConfig(dt=0.01, max_time=0.05))
    assert _lu_entries(bumped) > 0
    assert len(made) == _lu_entries(fixed) + _lu_entries(bumped)
    del made[:]

    cfg = StepperConfig(max_time=10.0, tol_speed=1e-7)
    grown = run_to_convergence(u0, phi, grid, cfg)
    log = grown.lu_refreshes
    assert len(log) == grown.lu_factorizations
    assert len(made) == _lu_entries(grown)
    assert log[0] == [0, 0.0, cfg.initial_dt(grid), "start", "ring"]
    rungs = [(prev, entry) for prev, entry in zip(log, log[1:]) if entry[3] == "dt"]
    assert [entry[0] for _, entry in rungs] == [5 * k for k in range(1, len(rungs) + 1)]
    assert all(entry[2] == pytest.approx(min(4.0 * prev[2], 0.5 * dom.inradius))
               for prev, entry in rungs)
    assert rungs[-1][1][2] == pytest.approx(0.5 * dom.inradius)

    # a rejected step halves dt and refactors every field
    tilted = _tilted(grid)
    stepper = flow._Stepper([tilted, GridFunction(tilted.values + 1.0, grid)], grid,
                            ContactAngle({"kind": "constant", "value": 31.0}, dom),
                            StepperConfig())
    with pytest.raises(StepSizeUnderflowError):
        stepper.advance()
    for f in stepper.fields:
        assert [r[3] for r in f.refreshes[:3]] == ["start", "reject", "reject"]
        assert f.refreshes[1][2] == 0.5 * f.refreshes[0][2]

    # so a run's rejected count is its "reject" entries: phi = 5 rejects steps
    # and recovers, and each member counts every halving of the pair's dt
    halvings = []
    set_dt = flow._Stepper._set_dt

    def counting(self, dt, reason):
        halvings.append(reason == "reject")
        return set_dt(self, dt, reason)

    monkeypatch.setattr(flow._Stepper, "_set_dt", counting)
    pair = run_pair(u0, GridFunction(u0.values + 1.0, grid),
                    ContactAngle({"kind": "constant", "value": 5.0}, dom), grid,
                    StepperConfig(max_time=1.0))
    assert sum(halvings) > 0
    assert pair.run_a.rejected == pair.run_b.rejected == sum(halvings)


# -- the step matrix, factored on the nested-dissection order of the grid shape -----

def _one_step(u, cfg, grid, phi):
    """The first accepted step from ``u``."""
    cfg = dataclasses.replace(cfg, max_time=cfg.initial_dt(grid), tol_speed=0.0)
    return run_to_convergence(GridFunction(u, grid), phi, grid, cfg).state


def _bump(grid):
    """A small curved field with a mixed (rho, s) derivative on any domain."""
    return 0.05 * grid.rho[:, None] ** 2 * (1.0 + 0.5 * np.cos(grid.s + 0.3))[None, :]


@pytest.fixture
def factored(record_splu):
    """Every (matrix, keywords, SuperLU) factorization the flow makes."""
    return record_splu(flow)


def _step_matrix(u, grid, phi, dt):
    """(I - dt L, k) of the affine model at u, as the stepper builds it."""
    w = u - grid.mean(u)
    pv = phi.values_on(grid)
    L, k = linearized_affine(w, grid, pv, flow_operator(w, grid, pv))
    return flow.RingSolver(splu, L, 1.0, -dt, log=[]).matrix(), k, w


@pytest.mark.parametrize("domain", [{"kind": "disk", "radius": 1.0},
                                    {"kind": "ellipse", "a": 2.0, "b": 1.0}])
def test_step_factors_on_the_shape_order(domain, factored):
    dom = build_domain(domain, "flat")
    grid = build_grid(dom, 32, 64)
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    cfg = StepperConfig(dt=0.02)
    u = _bump(grid)
    _one_step(u, cfg, grid, phi)
    (A, kw, _), = factored
    p = nested_dissection_order(32, 64)
    reference, _, _ = _step_matrix(u, grid, phi, 0.02)
    assert kw["permc_spec"] == "NATURAL"
    assert (A != reference[p][:, p]).nnz == 0


@pytest.mark.parametrize("domain,metric,phi", [
    ({"kind": "disk", "radius": 1.0}, "flat", {"kind": "constant", "value": 0.2}),
    ({"kind": "ellipse", "a": 2.0, "b": 1.0}, "flat", {"kind": "constant", "value": 0.2}),
    ({"kind": "chart_circle", "r0": 0.8}, "sphere", {"kind": "constant", "value": 0.2}),
    ({"kind": "smooth_convex", "r0": 1.0, "amp": 0.05, "k": 4}, "flat",
     {"kind": "fourier", "cos": [0.3]}),
])
def test_ordered_step_matches_colamd_step(domain, metric, phi):
    """One step on the reordered factor is the step a COLAMD-ordered splu gives."""
    dom = build_domain(domain, metric)
    grid = build_grid(dom, 32, 64)
    phi = ContactAngle(phi, dom)
    dt = 0.5 * StepperConfig().initial_dt(grid)
    u = _bump(grid)
    A, k, w = _step_matrix(u, grid, phi, dt)
    expected = grid.mean(u) + splu(A).solve(w.ravel() + dt * k).reshape(u.shape)
    stepped = _one_step(u, StepperConfig(dt=dt), grid, phi).u
    assert np.max(np.abs(stepped - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_ordered_factor_fills_less_than_colamd(factored):
    """The order comes from the stencil pattern, not from a matrix: a first
    factorization at u = 0 on the disk, where A12 is an exact zero, must not
    leave the factors of a later, curved state worse than COLAMD's."""
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    grid = build_grid(dom, 64, 128)
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    cfg = StepperConfig(dt=0.02)
    _one_step(np.zeros((64, 128)), cfg, grid, phi)
    u = from_chart(grid, lambda x, y: 0.15 * x ** 2 - 0.1 * x * y).values
    _one_step(u, cfg, grid, phi)
    A, _, _ = _step_matrix(u, grid, phi, 0.02)
    assert factored[-1][2].nnz < splu(A).nnz


def test_pair_computes_the_order_once():
    """The order is computed where a solver first escalates to the LU, and
    then read from the per-shape cache: one computation for the pair."""
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    grid = build_grid(dom, 32, 64)
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    nested_dissection_order.cache_clear()
    pair = run_pair(GridFunction.constant(grid), GridFunction(_bump(grid), grid), phi, grid,
                    StepperConfig(max_time=0.2))
    assert pair.run_a.lu_factorizations > 0 and pair.run_b.lu_factorizations > 0
    assert _lu_entries(pair.run_a) == 0 and _lu_entries(pair.run_b) > 0
    assert nested_dissection_order.cache_info().misses == 1
