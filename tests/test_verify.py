import dataclasses

import numpy as np
import pytest

from conftest import from_chart
from slmcf.domain import build_domain
from slmcf.errors import CheckPreconditionError
from slmcf.flow import StepperConfig, run_pair, run_to_convergence
from slmcf.grid import ContactAngle, GridFunction, build_grid
from slmcf.operators import flow_operator
from slmcf.translator import ContinuationSchedule, continuation
from slmcf.verify import (CheckReport, c1_formula,
                          check_evo_du_residual, check_maximal_limit,
                          check_osc_decay, check_spacelike_bound,
                          check_translator_agreement, check_ut_max_principle,
                          monitor_constants, render_reports)


@pytest.fixture(scope="module")
def disk32():
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    return dom, build_grid(dom, 32, 64)


@pytest.fixture(scope="module")
def run_phi02(disk32):
    dom, grid = disk32
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    run = run_to_convergence(GridFunction.constant(grid, 0.0), phi, grid,
                             StepperConfig(max_time=6.0, tol_speed=1e-8,
                                           snapshot_interval=10))
    return phi, run


# -- monitor constants -----------------------------------------------------------

def test_c1_formula_reference_value():
    # kappa0 = 1, c2 = 1: c1 = (sqrt(5) - 1)/2
    assert c1_formula(1.0, 1.0) == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0, abs=1e-15)
    assert c1_formula(1.0, 1.0) == pytest.approx(0.6180340, abs=1e-7)


def test_c1_formula_degenerate_and_range():
    assert c1_formula(0.0, 2.0) == 0.0
    for c2 in (0.01, 0.5, 2.0, 10.0):
        for k0 in (0.25, 1.0, 4.0):
            assert 0.0 < c1_formula(c2, k0) < 1.0
    with pytest.raises(ValueError):
        c1_formula(1.0, 0.0)


def test_c1_formula_monotonicity():
    # larger forcing c2 weakens the bound, larger boundary convexity kappa0
    # strengthens it: c1 increases in c2 and decreases in kappa0 (follows from
    # kappa0^2 c1^2 = c2^2 (1 - c1))
    c2s = np.linspace(0.05, 6.0, 25)
    k0s = np.linspace(0.1, 5.0, 25)
    for k0 in k0s:
        vals = [c1_formula(c2, k0) for c2 in c2s]
        assert all(np.diff(vals) > 0)
    for c2 in c2s:
        vals = [c1_formula(c2, k0) for k0 in k0s]
        assert all(np.diff(vals) < 0)


def _c0_from_zero(phi, grid):
    """c0 of u0 = 0: the squared sup of the flow operator there."""
    op = flow_operator(np.zeros((grid.n_radial, grid.n_angular)), grid, phi.values_on(grid))["op"]
    return float(np.max(np.abs(op)) ** 2)


def test_monitor_constants_zero_phi(disk32):
    dom, grid = disk32
    phi0 = ContactAngle({"kind": "constant", "value": 0.0}, dom)
    assert monitor_constants(phi0, grid, _c0_from_zero(phi0, grid)) == 0.0


def test_monitor_constants_disk_run(disk32):
    dom, grid = disk32
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    c0 = _c0_from_zero(phi, grid)
    c1 = monitor_constants(phi, grid, c0)
    assert c0 > 0
    assert 0 < c1 < 1
    # c2 = max(|phi0|, |phi1|) sqrt(c0) + 3 phi2 with phi = 0.2 constant
    assert c1 == pytest.approx(c1_formula(0.2 * np.sqrt(c0), grid.domain.kappa0), rel=1e-12)


# -- u_t maximum principle ----------------------------------------------------------

def test_ut_max_principle_stationary():
    series = {"t": np.linspace(0, 1, 5), "sup_ut": np.zeros(5)}
    assert check_ut_max_principle(series).passed


def test_ut_max_principle_on_run(run_phi02):
    _, run = run_phi02
    assert check_ut_max_principle(run.series).passed


def test_ut_max_principle_negative():
    series = {"t": np.linspace(0, 1, 5), "sup_ut": np.array([1.0, 1.0, 1.1, 1.2, 1.3])}
    rep = check_ut_max_principle(series)
    assert not rep.passed
    assert rep.measured == pytest.approx(1.3)


# -- space-like bound ------------------------------------------------------------------

def test_spacelike_bound_stationary():
    series = {"sup_du2": np.zeros(4)}
    assert check_spacelike_bound(series, 0.5, h=0.05).passed


def test_spacelike_bound_on_run(run_phi02, disk32):
    _, grid = disk32
    phi, run = run_phi02
    c1 = monitor_constants(phi, grid, run.monitor_c0)
    rep = check_spacelike_bound(run.series, c1, grid.h)
    assert rep.passed
    assert rep.details["excess"] == 0.0


def test_spacelike_bound_negative():
    series = {"sup_du2": np.array([0.0, 0.5, 1.0])}
    rep = check_spacelike_bound(series, 0.6, h=0.05)
    assert not rep.passed


# -- oscillation decay ------------------------------------------------------------------

def test_osc_decay_on_pair(disk32):
    dom, grid = disk32
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    pair = run_pair(GridFunction.constant(grid, 0.0),
                    from_chart(grid, lambda x, y: 0.1 * (x ** 2 + y ** 2)),
                    phi, grid, StepperConfig(max_time=6.0, tol_speed=1e-8))
    rep = check_osc_decay(pair)
    assert rep.passed
    assert rep.details["initial_osc"] == pytest.approx(0.1, abs=1e-3)


def test_osc_decay_constant_shift(disk32):
    dom, grid = disk32
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    u0 = GridFunction.constant(grid, 0.0)
    pair = run_pair(u0, GridFunction(u0.values + 3.0, grid), phi, grid,
                    StepperConfig(max_time=0.3, tol_speed=0.0))
    rep = check_osc_decay(pair)
    assert rep.passed  # osc of a constant difference is identically zero


@pytest.mark.parametrize("samples", [0, 1])
def test_osc_decay_of_a_pair_with_fewer_than_two_samples_fails(samples):
    """A pair with nothing to compare is a failed check, not an exception."""
    Pair = dataclasses.make_dataclass("Pair", ["t", "osc", "max_abs"])
    pair = Pair(t=np.zeros(samples), osc=np.full(samples, 0.1), max_abs=np.full(samples, 0.1))
    rep = check_osc_decay(pair)
    assert not rep.passed
    assert rep.measured == samples and rep.threshold == 2
    assert "fewer than two samples" in rep.details["precondition"]


def test_osc_decay_negative_reversed():
    Pair = dataclasses.make_dataclass("Pair", ["t", "osc", "max_abs"])
    pair = Pair(t=np.linspace(0, 1, 4), osc=np.array([1e-6, 1e-4, 1e-2, 1.0]),
                max_abs=np.array([1.0, 1.0, 1.0, 1.0]))
    assert not check_osc_decay(pair).passed


# -- translator agreement ------------------------------------------------------------

def test_translator_agreement_on_run(run_phi02, disk32):
    dom, grid = disk32
    phi, run = run_phi02
    sol = continuation(ContinuationSchedule(), phi, grid)
    rep = check_translator_agreement(run, sol)
    assert rep.passed
    assert rep.details["speed_gap"] < 1e-6
    assert rep.details["profile_gap"] < 1e-5
    assert rep.details["c8"] > 0


def test_translator_agreement_negative(run_phi02, disk32):
    dom, grid = disk32
    phi, run = run_phi02
    sol = continuation(ContinuationSchedule(), phi, grid)
    wrong = dataclasses.replace(sol, c3=sol.c3 + 0.05)
    assert not check_translator_agreement(run, wrong).passed
    # a translator on another grid shape is refused, not broadcast
    grid16 = build_grid(dom, 16, 32)
    other = dataclasses.replace(sol, profile=GridFunction.constant(grid16, 0.0))
    with pytest.raises(CheckPreconditionError, match=r"\(32, 64\).*\(16, 32\)"):
        check_translator_agreement(run, other)


# -- maximal limit --------------------------------------------------------------------

def test_maximal_limit_on_cos_run(disk32):
    dom, grid = disk32
    phi = ContactAngle({"kind": "fourier", "cos": [0.3]}, dom)
    run = run_to_convergence(GridFunction.constant(grid, 0.0), phi, grid,
                             StepperConfig(max_time=6.0, tol_speed=1e-8))
    rep = check_maximal_limit(run)
    assert rep.passed
    assert rep.measured < 5e-3
    assert abs(rep.details["mean_ut"]) < 1e-4


def test_maximal_limit_precondition(run_phi02):
    phi, run = run_phi02   # phi = 0.2 has nonzero total flux
    assert not phi.zero_flux
    with pytest.raises(CheckPreconditionError):
        check_maximal_limit(run)


def test_maximal_limit_negative_tampered(disk32):
    dom, grid = disk32
    phi = ContactAngle({"kind": "fourier", "cos": [0.3]}, dom)
    run = run_to_convergence(GridFunction.constant(grid, 0.0), phi, grid,
                             StepperConfig(max_time=6.0, tol_speed=1e-8))
    tampered = dataclasses.replace(run)
    tampered.energy = {k: np.array(v, copy=True) for k, v in run.energy.items()}
    # every step's energy residual dE - dt (I_k + I_{k-1})/2 grows by 1
    tampered.energy["E"] = tampered.energy["E"] + np.arange(len(run.energy["E"]))
    assert not check_maximal_limit(tampered).passed


# -- evo-du convention --------------------------------------------------------------

def test_evo_du_check_identifies_derived(disk32):
    dom, grid = disk32
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    cfg = StepperConfig(max_time=0.5, tol_speed=0.0, dt=0.002,
                        dense_sample_times=(0.1, 0.25))
    run = run_to_convergence(GridFunction.constant(grid, 0.0), phi, grid, cfg)
    rep = check_evo_du_residual(run)
    assert rep.passed
    assert rep.details["validated"] == "derived"
    assert rep.details["residuals"]["printed"] > 10 * rep.details["residuals"]["derived"]


def test_evo_du_check_needs_dense(run_phi02):
    _, run = run_phi02
    if run.dense:
        pytest.skip("run unexpectedly has dense data")
    with pytest.raises(CheckPreconditionError):
        check_evo_du_residual(run)


def test_dense_times_in_the_first_step_and_past_the_end():
    """tau = 0.01 falls inside the first step: its triplet starts at the initial
    state.  tau = 50 lies past the end of the run: the check names it."""
    dom = build_domain({"kind": "disk", "radius": 1.0}, "flat")
    grid = build_grid(dom, 16, 32)
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    cfg = StepperConfig(dense_sample_times=(0.01, 50.0))
    run = run_to_convergence(GridFunction.constant(grid, 0.0), phi, grid, cfg)
    assert list(run.dense) == [0.01]
    (t0, u0), (t1, _), (t2, _) = run.dense[0.01]
    assert t0 == 0.0 and t1 == cfg.initial_dt(grid) > 0.01 and t2 == 2 * t1
    assert np.array_equal(u0, run.snapshots[0][1])
    with pytest.raises(CheckPreconditionError, match="tau = 50.0"):
        check_evo_du_residual(run)


def test_evo_du_check_rejects_unequal_steps(disk32):
    """A triplet that straddles a dt doubling cannot be centred-differenced."""
    dom, grid = disk32
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    cfg = StepperConfig(max_time=0.2, tol_speed=0.0, dt=0.002, dense_sample_times=(0.1,))
    run = run_to_convergence(GridFunction.constant(grid, 0.0), phi, grid, cfg)
    tau = next(iter(run.dense))
    (t0, u0), (t1, u1), (t2, u2) = run.dense[tau]
    run.dense[tau] = ((t0, u0), (t1, u1), (t2 + (t2 - t1), u2))
    with pytest.raises(CheckPreconditionError, match="unequal steps"):
        check_evo_du_residual(run)


# -- report plumbing -----------------------------------------------------------------

def test_reports_deterministic(run_phi02):
    _, run = run_phi02
    a = check_ut_max_principle(run.series).as_dict()
    b = check_ut_max_principle(run.series).as_dict()
    assert a == b


def test_render_reports():
    reports = [CheckReport("alpha", True, 1e-3, 1e-2),
               CheckReport("beta", False, 2.0, 1.0)]
    text = render_reports(reports)
    assert "alpha" in text and "pass" in text
    assert "beta" in text and "FAIL" in text


def test_evo_du_negative_corrupted_snapshots(disk32):
    """Corrupting a dense snapshot breaks both conventions: no identification."""
    dom, grid = disk32
    phi = ContactAngle({"kind": "constant", "value": 0.2}, dom)
    cfg = StepperConfig(max_time=0.4, tol_speed=0.0, dt=0.002,
                        dense_sample_times=(0.1,))
    run = run_to_convergence(GridFunction.constant(grid, 0.0), phi, grid, cfg)
    tau = next(iter(run.dense))
    (t0, u0), (t1, u1), (t2, u2) = run.dense[tau]
    bad = u2 + 0.01 * np.cos(3 * grid.s)[None, :] * grid.rho[:, None] ** 2
    run.dense[tau] = ((t0, u0), (t1, u1), (t2, bad))
    rep = check_evo_du_residual(run)
    assert not rep.passed
