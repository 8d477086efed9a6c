"""Executable checks for the quantitative invariants of flow runs.

Every check is a pure function of recorded run data (series arrays,
snapshots, translator records) returning a CheckReport; re-running a check on
the same artifacts gives a bit-identical report.  A check takes the same
FlowRun, PairRun or TranslatorSolution whether it was just computed or loaded
from a run directory by ``runio.load_run``.  Tolerances involving the
grid scale use 5 h^2 with h the physical radial spacing of the grid.

The gradient-bound monitor instantiates the a-priori estimate

    kappa0 (1 - v^2) <= c2 v,   c2 = max(|phi0|, |phi1|) sqrt(c0) + 3 phi2,
    c1 = (sqrt(c2^4 + 4 c2^2 kappa0^2) - c2^2) / (2 kappa0^2) < 1,

with c0 the squared sup of the initial speed field, measured once from the
discrete operator at t = 0 and never updated.  The c2 expression is a
concrete conservative bound for the boundary-maximum analysis (the three
non-curvature terms are estimated using |D_T u| > 1/2, v <= 1 and
phi^2/(1+phi^2) <= 1) and degenerates cleanly to c1 = 0 when c2 = 0.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import CheckPreconditionError
from .geometry import EVO_DU_CONVENTIONS, evo_du_time_residual
from .grid import ContactAngle, CurvilinearGrid
from .operators import contact_ghost, flow_operator


# -- monitor constants ---------------------------------------------------------

def c1_formula(c2, kappa0):
    """Closed-form space-like bound; decreasing in c2, increasing in kappa0."""
    if kappa0 <= 0:
        raise ValueError("kappa0 must be positive")
    if c2 == 0.0:
        return 0.0
    return (np.sqrt(c2 ** 4 + 4.0 * c2 ** 2 * kappa0 ** 2) - c2 ** 2) / (2.0 * kappa0 ** 2)


@dataclasses.dataclass(frozen=True)
class MonitorConstants:
    c0: float
    kappa0: float
    phi0: float
    phi1: float
    phi2: float
    c2: float
    c1: float

    def as_dict(self):
        return dataclasses.asdict(self)


def monitor_constants(u0, phi: ContactAngle, grid: CurvilinearGrid,
                      c0=None) -> MonitorConstants:
    """Compute the monitor constants from the initial state.

    c0 defaults to the squared max of the discrete flow operator applied to
    u0; pass an externally measured value to reuse (e.g. max |eps u_eps|^2
    when monitoring the regularized elliptic family).
    """
    if grid.domain.kappa0 <= 0:
        raise ValueError("kappa0 must be positive")
    if c0 is None:
        values = u0.values if hasattr(u0, "values") else np.asarray(u0, float)
        op = flow_operator(values, grid, phi.values_on(grid))
        c0 = float(np.max(np.abs(op)) ** 2)
    big_phi = max(abs(phi.phi0), abs(phi.phi1))
    c2 = big_phi * np.sqrt(c0) + 3.0 * phi.phi2
    return MonitorConstants(c0=float(c0), kappa0=grid.domain.kappa0,
                            phi0=phi.phi0, phi1=phi.phi1, phi2=phi.phi2,
                            c2=float(c2), c1=float(c1_formula(c2, grid.domain.kappa0)))


# -- reports -------------------------------------------------------------------

@dataclasses.dataclass
class CheckReport:
    name: str
    passed: bool
    measured: float
    threshold: float
    details: dict = dataclasses.field(default_factory=dict)

    def as_dict(self):
        return {"name": self.name, "passed": bool(self.passed),
                "measured": float(self.measured), "threshold": float(self.threshold),
                "details": self.details}


def render_reports(reports) -> str:
    lines = [f"{'check':38s} {'status':6s} {'measured':>13s} {'threshold':>13s}"]
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.name:38s} {status:6s} {r.measured:13.5e} {r.threshold:13.5e}")
    return "\n".join(lines)


# -- individual checks -----------------------------------------------------------

def check_ut_max_principle(series) -> CheckReport:
    """sup |u_t|(t) never exceeds its initial value (relative slack 1e-6)."""
    sup_ut = np.asarray(series["sup_ut"])
    bound = sup_ut[0] * (1.0 + 1e-6) + 1e-8
    measured = float(np.max(sup_ut))
    worst = int(np.argmax(sup_ut))
    return CheckReport(
        name="ut_max_principle", passed=bool(measured <= bound),
        measured=measured, threshold=float(bound),
        details={"initial": float(sup_ut[0]),
                 "t_at_max": float(np.asarray(series["t"])[worst]),
                 "max_increment": float(np.max(np.diff(sup_ut))) if len(sup_ut) > 1 else 0.0})


def check_spacelike_bound(series, constants: MonitorConstants, h,
                          delta_space=1e-3) -> CheckReport:
    """sup |Du|^2 stays under max(initial, c1) + 5 h^2 and under 1 - delta_space."""
    sup_du2 = np.asarray(series["sup_du2"])
    bound_monitor = max(sup_du2[0], constants.c1) + 5.0 * h ** 2
    bound_ceiling = 1.0 - delta_space
    measured = float(np.max(sup_du2))
    passed = measured <= bound_monitor and measured < bound_ceiling
    return CheckReport(
        name="spacelike_bound", passed=bool(passed), measured=measured,
        threshold=float(min(bound_monitor, bound_ceiling)),
        details={"monitor_bound": float(bound_monitor),
                 "ceiling": float(bound_ceiling), "c1": constants.c1,
                 "initial": float(sup_du2[0]),
                 "excess": float(max(0.0, measured - max(sup_du2[0], constants.c1)))})


def check_osc_decay(pair) -> CheckReport:
    """Oscillation of the difference of two runs decays and its sup is initial.

    ``pair`` provides t, osc and max_abs arrays on a common time grid (see
    flow.run_pair).
    """
    osc = np.asarray(pair.osc)
    max_abs = np.asarray(pair.max_abs)
    if len(osc) < 2:
        raise CheckPreconditionError("need at least two pair samples")
    max_inc = float(np.max(np.diff(osc)))
    nonincreasing = max_inc <= 1e-8
    final_target = max(1e-4 * osc[0], 1e-12)
    decayed = osc[-1] <= final_target
    sup_bound = max_abs[0] * (1.0 + 1e-6) + 1e-8
    bounded = float(np.max(max_abs)) <= sup_bound
    return CheckReport(
        name="osc_decay", passed=bool(nonincreasing and decayed and bounded),
        measured=float(osc[-1]), threshold=float(final_target),
        details={"initial_osc": float(osc[0]), "max_increment": max_inc,
                 "max_abs_sup": float(np.max(max_abs)),
                 "max_abs_initial": float(max_abs[0]),
                 "nonincreasing": bool(nonincreasing), "bounded": bool(bounded)})


def check_translator_agreement(run, solution, h) -> CheckReport:
    """Long-time flow state agrees with the rigidly translating profile.

    run: FlowRun; solution: TranslatorSolution on the same grid.  The drift
    max|u - c3 t| must saturate: c8 is its largest value over the snapshots,
    and its late rate is max|u_t - c3| of the final state, which bounds
    d/dt max|u - c3 t| there.  Snapshot differences would not do: a run that
    settles before its second snapshot has one difference quotient, over the
    whole run.
    """
    c3 = solution.c3
    grid = solution.profile.grid
    tol_speed = max(1e-4, 5.0 * h ** 2)
    speed_gap = abs(run.speed_estimate - c3)

    t_final, u_final = run.snapshots[-1]
    aligned = (u_final - c3 * t_final) - solution.profile.values
    aligned = aligned - grid.mean(aligned)
    profile_gap = float(np.max(np.abs(aligned)))

    c8 = max(float(np.max(np.abs(u - c3 * t))) for t, u in run.snapshots)
    late_rate = float(np.max(np.abs(run.u_t - c3)))
    drift_bounded = late_rate <= max(1e-3, 1e-2 * c8)

    passed = speed_gap < tol_speed and profile_gap < 1e-3 and drift_bounded
    return CheckReport(
        name="translator_agreement", passed=bool(passed),
        measured=float(max(speed_gap, profile_gap)), threshold=float(tol_speed),
        details={"speed_gap": float(speed_gap), "profile_gap": profile_gap,
                 "c8": c8, "c3": float(c3), "drift_late_rate": late_rate,
                 "drift_bounded": bool(drift_bounded), "profile_tol": 1e-3})


def check_maximal_limit(run, phi: ContactAngle, h, skip_initial=3,
                        energy_const=10.0) -> CheckReport:
    """Zero-flux scenarios converge to a stationary (H ~ 0) limit and satisfy
    the energy balance step by step.

    skip_initial: number of leading steps excluded from the energy residual
    (incompatible initial data relaxes its boundary layer there).
    """
    scale = abs(phi.phi0) + abs(phi.phi1) + 1e-30
    if abs(phi.boundary_integral) > 1e-8 * max(1.0, scale):
        raise CheckPreconditionError(
            f"maximal-limit check requires zero total contact angle, "
            f"got integral {phi.boundary_integral:.3e}")
    H_max = float(np.max(np.abs(run.H_field)))
    t = np.asarray(run.energy["t"])
    res = np.abs(np.asarray(run.energy["residual"]))
    dts = np.diff(t)
    k0 = min(skip_initial, max(0, len(res) - 2))
    thresholds = energy_const * (dts ** 2 + h ** 2)
    ok_energy = bool(np.all(res[1 + k0:] <= thresholds[k0:]))
    worst = float(np.max(res[1 + k0:] / thresholds[k0:])) if len(res) > 1 + k0 else 0.0
    passed = H_max < 5e-3 and ok_energy
    return CheckReport(
        name="maximal_limit", passed=bool(passed), measured=H_max, threshold=5e-3,
        details={"energy_ok": ok_energy, "energy_worst_ratio": worst,
                 "mean_ut": float(run.speed_estimate),
                 "skip_initial": int(k0), "energy_const": float(energy_const)})


def check_evo_du_residual(run, grid: CurvilinearGrid, phi: ContactAngle,
                          const=5.0) -> CheckReport:
    """Identify the coefficient convention satisfied by the gradient evolution.

    Evaluates the time-differenced |Du|^2 evolution residual on interior
    rings for every dense snapshot triplet the run recorded, for each
    candidate convention; passes iff exactly one convention's residual is
    below const * (h^2 + dt_snapshot).  A requested time of
    ``run.cfg.dense_sample_times`` without a triplet (it lies past the end of
    the run) raises CheckPreconditionError, and so does a triplet that
    straddles a dt change: the centred difference needs its two steps to be
    equal up to time rounding.
    """
    missing = [tau for tau in run.cfg.dense_sample_times if tau not in run.dense]
    if missing:
        raise CheckPreconditionError(
            f"run recorded no dense triplet for tau = {', '.join(map(repr, missing))}")
    if not run.dense:
        raise CheckPreconditionError("run recorded no dense snapshot triplets")
    for tau, ((t0, _), (t1, _), (t2, _)) in run.dense.items():
        if abs((t2 - t1) - (t1 - t0)) > 16.0 * np.spacing(abs(t2)):
            raise CheckPreconditionError(
                f"dense triplet at tau = {tau} has unequal steps "
                f"{t1 - t0:.6g} and {t2 - t1:.6g}")
    phi_vals = phi.values_on(grid)
    interior = (slice(2, grid.n_radial - 3), slice(None))
    h = grid.h
    results = {}
    dt_max = 0.0
    for name in EVO_DU_CONVENTIONS:
        worst = 0.0
        for tau, ((t0, u0), (t1, u1), (t2, u2)) in run.dense.items():
            dt = 0.5 * (t2 - t0)
            dt_max = max(dt_max, dt)
            ghosts = tuple(contact_ghost(u, grid, phi_vals)[0] for u in (u0, u1, u2))
            res = evo_du_time_residual(u0, u1, u2, dt, grid, name, ghosts)
            worst = max(worst, float(np.max(np.abs(res[interior]))))
        results[name] = worst
    threshold = const * (h ** 2 + dt_max)
    validated = [name for name, val in results.items() if val <= threshold]
    passed = len(validated) == 1
    return CheckReport(
        name="evo_du_residual", passed=bool(passed),
        measured=min(results.values()), threshold=float(threshold),
        details={"residuals": results,
                 "validated": validated[0] if len(validated) == 1 else validated,
                 "dt_snapshot": dt_max})
