"""Executable checks for the quantitative invariants of flow runs.

Every check is a pure function of recorded run data (series arrays,
snapshots, translator records) returning a CheckReport; re-running a check on
the same artifacts gives a bit-identical report.  A check reads the run it
judges: a FlowRun carries its grid, phi and stepper settings and a
TranslatorSolution the grid of its profile, so no check takes them as
separate arguments; only ``check_ut_max_principle`` and
``check_spacelike_bound`` take bare series, which tests build by hand.  A
check takes the same FlowRun, PairRun or TranslatorSolution whether it was
just computed or loaded from a run directory by ``runio.load_run``.
Tolerances involving the grid scale use 5 h^2 with h the physical radial
spacing of the run's grid.

The gradient-bound monitor instantiates the a-priori estimate

    kappa0 (1 - v^2) <= c2 v,   c2 = max(|phi0|, |phi1|) sqrt(c0) + 3 phi2,
    c1 = (sqrt(c2^4 + 4 c2^2 kappa0^2) - c2^2) / (2 kappa0^2) < 1,

with c0 the squared sup of the initial speed field, measured once from the
discrete operator at t = 0 and never updated.  The c2 expression is a
concrete conservative bound for the boundary-maximum analysis (the three
non-curvature terms are estimated using |D_T u| > 1/2, v <= 1 and
phi^2/(1+phi^2) <= 1) and degenerates cleanly to c1 = 0 when c2 = 0.
``monitor_constants`` gives c1 alone, the bound ``check_spacelike_bound``
takes; c0, kappa0 and phi0, phi1, phi2 are the run's and its scenario's.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import CheckPreconditionError
from .geometry import EVO_DU_CONVENTIONS, evo_du_time_residual
from .grid import _DELTA_SPACE, ContactAngle, CurvilinearGrid
from .operators import contact_ghost

_ENERGY_SKIP = 3      # leading steps maximal_limit's energy residual skips (boundary layer)
_ENERGY_CONST = 10.0  # maximal_limit: the energy residual stays under this * (dt^2 + h^2)
_EVO_DU_CONST = 5.0   # evo_du_residual: a convention passes under this * (h^2 + dt_snapshot)


# -- monitor constants ---------------------------------------------------------

def c1_formula(c2, kappa0):
    """Closed-form space-like bound; decreasing in c2, increasing in kappa0."""
    if kappa0 <= 0:
        raise ValueError("kappa0 must be positive")
    if c2 == 0.0:
        return 0.0
    return (np.sqrt(c2 ** 4 + 4.0 * c2 ** 2 * kappa0 ** 2) - c2 ** 2) / (2.0 * kappa0 ** 2)


def monitor_constants(phi: ContactAngle, grid: CurvilinearGrid, c0) -> float:
    """The monitor bound c1 of ``phi`` on ``grid``, with c0 the squared sup
    of the initial speed field (``FlowRun.monitor_c0``)."""
    c2 = max(abs(phi.phi0), abs(phi.phi1)) * np.sqrt(c0) + 3.0 * phi.phi2
    return float(c1_formula(c2, grid.domain.kappa0))


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


def check_spacelike_bound(series, c1, h) -> CheckReport:
    """sup |Du|^2 stays under max(initial, c1) + 5 h^2 (c1 of
    ``monitor_constants``) and under the stepper's ceiling 1 - ``grid._DELTA_SPACE``."""
    sup_du2 = np.asarray(series["sup_du2"])
    bound_monitor = max(sup_du2[0], c1) + 5.0 * h ** 2
    bound_ceiling = 1.0 - _DELTA_SPACE
    measured = float(np.max(sup_du2))
    passed = measured <= bound_monitor and measured < bound_ceiling
    return CheckReport(
        name="spacelike_bound", passed=bool(passed), measured=measured,
        threshold=float(min(bound_monitor, bound_ceiling)),
        details={"monitor_bound": float(bound_monitor),
                 "ceiling": float(bound_ceiling), "c1": float(c1),
                 "initial": float(sup_du2[0]),
                 "excess": float(max(0.0, measured - max(sup_du2[0], c1)))})


def check_osc_decay(pair) -> CheckReport:
    """Oscillation of the difference of two runs decays and its sup is initial.

    ``pair`` provides t, osc and max_abs arrays on a common time grid (see
    flow.run_pair and PairRun.from_snapshots).  A pair with fewer than two
    samples has nothing to compare: the check fails, measuring the sample
    count against 2, and does not raise.
    """
    osc = np.asarray(pair.osc)
    max_abs = np.asarray(pair.max_abs)
    if len(osc) < 2:
        return CheckReport(name="osc_decay", passed=False, measured=len(osc), threshold=2,
                           details={"precondition": "the pair has fewer than two samples "
                                                    "(shared snapshot times)"})
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


def check_translator_agreement(run, solution) -> CheckReport:
    """Long-time flow state agrees with the rigidly translating profile.

    run: FlowRun; solution: TranslatorSolution on a grid of the same shape
    (else CheckPreconditionError).  The drift max|u - c3 t| must saturate:
    c8 is its largest value over the snapshots, and its late rate is
    max|u_t - c3| of the final state, which bounds d/dt max|u - c3 t| there.
    Snapshot differences would not do: a run that settles before its second
    snapshot has one difference quotient, over the whole run.
    """
    c3 = solution.c3
    grid = solution.profile.grid
    shapes = [(g.n_radial, g.n_angular) for g in (run.grid, grid)]
    if shapes[0] != shapes[1]:
        raise CheckPreconditionError(f"flow run on a {shapes[0]} grid, translator on a "
                                     f"{shapes[1]} grid")
    tol_speed = max(1e-4, 5.0 * run.grid.h ** 2)
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


def check_maximal_limit(run) -> CheckReport:
    """Zero-flux runs (``ContactAngle.zero_flux``) converge to a stationary
    (H ~ 0) limit and satisfy the energy balance step by step.

    The energy residual of step k, dE - dt (I_k + I_{k-1})/2, is computed from
    the run's E and I series; it skips the first ``_ENERGY_SKIP`` steps:
    incompatible initial data relaxes its boundary layer there.
    """
    phi, h = run.phi, run.grid.h
    if not phi.zero_flux:
        raise CheckPreconditionError(
            f"maximal-limit check requires zero total contact angle, "
            f"got integral {phi.boundary_integral:.3e}")
    H_max = float(np.max(np.abs(run.H_field)))
    t, E, I = (np.asarray(run.energy[k]) for k in ("t", "E", "I"))
    dts = np.diff(t)
    res = np.abs(np.diff(E) - dts * 0.5 * (I[1:] + I[:-1]))
    k0 = min(_ENERGY_SKIP, max(0, len(res) - 1))
    thresholds = _ENERGY_CONST * (dts ** 2 + h ** 2)
    ok_energy = bool(np.all(res[k0:] <= thresholds[k0:]))
    worst = float(np.max(res[k0:] / thresholds[k0:])) if len(res) > k0 else 0.0
    passed = H_max < 5e-3 and ok_energy
    return CheckReport(
        name="maximal_limit", passed=bool(passed), measured=H_max, threshold=5e-3,
        details={"energy_ok": ok_energy, "energy_worst_ratio": worst,
                 "mean_ut": float(run.speed_estimate),
                 "skip_initial": int(k0), "energy_const": _ENERGY_CONST})


def check_evo_du_residual(run) -> CheckReport:
    """Identify the coefficient convention satisfied by the gradient evolution.

    Evaluates the time-differenced |Du|^2 evolution residual on interior
    rings for every dense snapshot triplet the run recorded, for each
    candidate convention; passes iff exactly one convention's residual is
    below ``_EVO_DU_CONST`` * (h^2 + dt_snapshot).  A requested time of
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
    grid = run.grid
    phi_vals = run.phi.values_on(grid)
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
    threshold = _EVO_DU_CONST * (h ** 2 + dt_max)
    validated = [name for name, val in results.items() if val <= threshold]
    passed = len(validated) == 1
    return CheckReport(
        name="evo_du_residual", passed=bool(passed),
        measured=min(results.values()), threshold=float(threshold),
        details={"residuals": results,
                 "validated": validated[0] if len(validated) == 1 else validated,
                 "dt_snapshot": dt_max})
