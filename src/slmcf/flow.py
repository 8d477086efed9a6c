"""Time integration of the contact-angle flow u_t = g~^{ab} D_a D_b u.

The scheme is backward Euler on the affine model F(u') ~ L u' + k,
k = F(w) - L w, with F the spatial operator of :mod:`slmcf.operators` and L
its exact Jacobian at the current state (``operators.linearized_affine``; the
translator's Newton matrix).  A translator orbit u(x) + c t is an exact fixed
orbit: F(w) = c and L annihilates constants, so (I - dt L) w' = w + dt k is
solved by w' = w + dt c for any L, and long-time speeds carry no dt bias.

One stepping core serves ``run_to_convergence`` and ``run_pair`` (two
fields in lockstep on one time grid):

- Step control.  A step is rejected and dt halved whenever the update would
  push sup |Du|^2 above 1 - ``grid._DELTA_SPACE`` (1e-3) or break the
  boundary closure; persistent rejections surface as StepSizeUnderflowError
  rather than being clamped; a run unsettled after ``_MAX_STEPS`` steps
  stops unconverged.  With ``StepperConfig.dt`` unset, the stepper
  multiplies dt by ``_GROW_BY`` = 4 after every ``_GROW_AFTER`` consecutive
  accepted steps, up to ``_DT_CAP`` times the domain inradius: near a
  translator backward Euler is a fixed-point iteration, so steps can grow as
  the speed field settles, and each rung of the ladder costs one
  factorization.  Faster ladders (x4 after 3 or 4 steps, x8 after 2) let the
  oscillation of a lockstep pair rise within one step.  Growth counts steps
  and never looks at the data, so two runs that differ only in u0 step on
  identical times unless one of them rejects a step.  An explicit ``dt`` is a
  fixed step (halved only on rejection).
- LU refresh.  The affine model is relinearized and refactored when dt
  changes, every ``_REFRESH_INTERVAL`` accepted steps, and whenever its defect
  max|F(u_{n+1}) - (L u_{n+1} + k)| exceeds half the speed deviation
  max|u_t - mean u_t|, which a stale model would otherwise not fall below.
  On the Jacobian the defect is second order in the step, so factorizations
  mostly follow the dt ladder; the interval rule keeps fixed-dt transients
  off a stale model.  The rules are checked just before a step, so a
  stopped run pays for no factorization.  A refresh hands L (its stencil,
  ``operators.Jacobian``) and dt to an ``operators.RingSolver``, which forms
  the stencil of I - dt L, solves it by FFT in s on the ring-averaged stencil
  and accepts a solution only at its componentwise rounding floor; where the
  ring solve misses it (a state off rotational symmetry) the solver builds
  the CSC matrix of I - dt L and escalates to its sparse LU on the grid
  shape's nested-dissection order.  On a rotationally symmetric state no
  sparse matrix, LU or order is built.  Each field logs its refreshes as
  ``[step, t, dt, reason, solver]`` (``FlowRun.lu_refreshes``): step and t
  are the accepted steps and the time before the refresh, dt is the step it
  factors for, reason is ``start``, ``dt`` (growth), ``interval``,
  ``defect`` or ``reject`` (a rejected step halved dt), and solver, which
  the solver writes itself, is ``ring`` or ``lu`` (an LU was built on this
  refresh).
- Mean split.  Each field is carried as a scalar mean plus a zero-mean part
  w.  F and the affine model are invariant under constant shifts, so the
  operator and the LU only see w, and the growing constant c3 t (or a large
  constant u0) adds no rounding floor proportional to |u| to the speed field.

Each field's ``_Record`` takes, at t = 0 and after every accepted step, the
series row (t, sup|u_t|, sup|Du|^2, area-mean u_t, osc u) and the energy pair
E = int v - bdry int u phi, I = int u_t^2 / v; the verification suite
computes the energy identity's per-step residual dE - dt (I_k + I_{k+1})/2
from them.  The row has no max|u_t - H v|: H is u_t / v of the same
operator.  Snapshots are taken at the first step reaching each multiple of
snapshot_interval * initial_dt.  The dense triplet of a requested tau is
(u_{k-1}, u_k, u_{k+1}) with t_k the first step time >= tau; the initial
state is the left neighbour of the first step.  A pair member is recorded
exactly as a single run of its field.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import ScenarioError, SpacelikeViolationError, StepSizeUnderflowError
# unused here: perfbench/spans.py wraps this name on this module to time curvature
from .geometry import mean_curvature_field  # noqa: F401
from .grid import _DELTA_SPACE, ContactAngle, CurvilinearGrid, GridFunction
from .operators import RingSolver, flow_operator, linearized_affine, splu
from .schema import DT_FLOOR as _DT_FLOOR, check, fields   # a halved dt below it: underflow

_GROW_AFTER = 5      # consecutive accepted steps before dt grows
_GROW_BY = 4.0       # factor dt grows by, once per _GROW_AFTER accepted steps
_DT_CAP = 0.5        # largest grown dt, in units of the domain inradius
_REFRESH_INTERVAL = 10   # accepted steps after which the LU is refactored
_MAX_STEPS = 2_000_000   # runaway bound: a run stops unconverged after this many steps


@dataclasses.dataclass
class StepperConfig:
    dt: float | None = None           # default: diameter / (2 n_radial), grown
    tol_speed: float = 1e-7
    max_time: float = 10.0
    snapshot_interval: int = 50
    dense_sample_times: tuple = ()

    def __post_init__(self):
        check("stepper", vars(self), fields("stepper", StepperConfig))
        self.dense_sample_times = tuple(self.dense_sample_times)

    def initial_dt(self, grid: CurvilinearGrid) -> float:
        if self.dt is not None:
            return float(self.dt)
        diameter = 2.0 * grid.domain.inradius
        return diameter / (2.0 * grid.n_radial)


@dataclasses.dataclass
class FlowState:
    u: np.ndarray
    step_count: int


# FlowRun fields the stepper records and the manifest's "final" block holds by name
_RECORDED = ("converged", "message", "lu_refreshes", "dt_min", "dt_max", "max_H_final")


@dataclasses.dataclass
class FlowRun:
    """A flow run as its run directory stores it: the stored data (u of the
    final state is the last snapshot) and the scalars the stepper records.
    Everything else is a property, computed alike for a run just computed and
    for one loaded by ``runio.load_run``, so the two are equal."""

    grid: CurvilinearGrid
    phi: ContactAngle
    cfg: StepperConfig
    state: FlowState
    converged: bool
    series: dict
    energy: dict
    snapshots: list
    dense: dict
    message: str
    lu_refreshes: list          # [step, t, dt, reason, solver] per refresh of the step solver
    dt_min: float | None        # smallest and largest accepted dt (None: no step)
    dt_max: float | None
    max_H_final: float          # max |H| of the stepper's final operator evaluation

    # derived: computed alike in memory and on disk
    sup_du2 = property(lambda self: float(np.max(self.series["sup_du2"])))
    sup_ut = property(lambda self: float(np.max(self.series["sup_ut"])))
    monitor_c0 = property(lambda self: float(self.series["sup_ut"][0]) ** 2)  # at t = 0
    lu_factorizations = property(lambda self: len(self.lu_refreshes))
    # a rejected step attempt halves dt and refreshes every field
    rejected = property(lambda self: sum(r[3] == "reject" for r in self.lu_refreshes))
    speed_estimate = property(lambda self: float(self.series["mean_ut"][-1]))  # final u_t mean
    u_t = property(lambda self: self._final_fields[0])
    H_field = property(lambda self: self._final_fields[1])

    @functools.cached_property
    def _final_fields(self):
        """(u_t, H = u_t / v): the operator at the final u."""
        q = flow_operator(self.state.u, self.grid, self.phi.values_on(self.grid))
        return q["op"], q["op"] / q["v"]

    def to_record(self) -> dict:
        """The manifest's ``final`` block: the recorded scalars and the derived
        counts and maxima.  The final time is the last series row and the
        monitor bound c1 is ``verify.monitor_constants`` of the run."""
        derived = ("rejected", "speed_estimate", "lu_factorizations", "sup_du2", "sup_ut")
        return {**{k: getattr(self, k) for k in _RECORDED + derived},
                "steps": self.state.step_count}

    @classmethod
    def from_record(cls, record: dict, grid: CurvilinearGrid, phi: ContactAngle,
                    cfg: StepperConfig, series, energy, snapshots, dense) -> FlowRun:
        """Inverse of ``to_record``; the rest are the data stored beside it, the
        final time the last row of ``series``, which has one row per step and
        one for t = 0."""
        state = FlowState(u=snapshots[-1][1], step_count=len(series["t"]) - 1)
        return cls(grid=grid, phi=phi, cfg=cfg, state=state, series=series, energy=energy,
                   snapshots=snapshots, dense=dense, **{k: record[k] for k in _RECORDED})


class _Field:
    """One evolving field u = mean + w with grid.mean(w) = 0.

    Holds the operator evaluation ``q`` at the current w, the affine model
    (L, k) with the solver of its step matrix I - dt L (``RingSolver``) and
    the log of its refreshes.
    """

    def __init__(self, u: GridFunction, grid, phi_vals):
        u = u.values
        if not np.all(np.isfinite(u)):
            raise ScenarioError("initial data contains non-finite values")
        if u.shape != (grid.n_radial, grid.n_angular):
            raise ScenarioError(f"initial data has shape {u.shape}, the grid "
                                f"{(grid.n_radial, grid.n_angular)}")
        self.grid = grid
        self.phi_vals = phi_vals
        self.mean = 0.0
        self.lu = None              # the step matrix's solver, built before the first step
        self.refreshes = []         # [step, t, dt, reason, solver] per refresh
        self.since_refresh = 0
        self.accept(self._centered(u))

    @property
    def u(self):
        return self.mean + self.w

    def refresh(self, dt, entry):
        """Relinearize and rebuild the step solver for ``dt``; ``entry`` is
        the log line [step, t, dt, reason], which the solver completes with
        its kind."""
        # the operator fields go before the solver is built; the assembly
        # reads the evaluation ``q`` already held at w
        self._L, self._k = linearized_affine(self.w, self.grid, self.phi_vals, self.q)
        self.lu = None              # the old factors go before the new ones are built
        self.lu = RingSolver(splu, self._L, 1.0, -dt, log=entry)
        self.refreshes.append(entry)
        self.since_refresh = 0

    def defect(self):
        """max|F(w) - (L w + k)|: how far the affine model has drifted."""
        model = self._L @ self.w.ravel() + self._k
        return float(np.max(np.abs(self.q["op"].ravel() - model)))

    def _centered(self, w):
        """(shift, w - shift, operator evaluation) with shift the area mean of w."""
        shift = float(self.grid.mean(w))
        w = w - shift
        return shift, w, flow_operator(w, self.grid, self.phi_vals)

    def candidate(self, dt):
        """The next step of this field, as accepted by ``accept``."""
        w = self.lu.solve(self.w.ravel() + dt * self._k).reshape(self.w.shape)
        return self._centered(w)

    def accept(self, candidate):
        shift, self.w, self.q = candidate
        self.since_refresh += 1
        self.mean += shift
        self.speed = float(self.grid.mean(self.q["op"]))
        self.dev = float(np.max(np.abs(self.q["op"] - self.speed)))


class _Record:
    """Series, energy, snapshots and dense triplets of one field, taken by ``add``
    on the initial state and after every accepted step."""

    def __init__(self, field, cfg: StepperConfig):
        self.field = field
        self.series = {k: [] for k in ("t", "sup_ut", "sup_du2", "mean_ut", "osc_u")}
        self.energy = {k: [] for k in ("t", "E", "I")}
        self.snapshots = []
        self.dense = {}
        self._targets = sorted(float(tau) for tau in cfg.dense_sample_times)
        self._snap_every = cfg.snapshot_interval * cfg.initial_dt(field.grid)
        self._snap_index = 0
        self._pending = []      # (tau, left, middle) of the triplets awaiting their right end
        self.last = None        # (t, u) of the latest record

    def add(self, t, dt=None):
        """Record the field at time t, reached by a step of ``dt`` (None: initial)."""
        f, grid = self.field, self.field.grid
        q, u = f.q, f.u
        u_t, v = q["op"], q["v"]
        row = (t, float(np.max(np.abs(u_t))), float(np.max(q["du2"])), f.speed,
               float(np.max(f.w) - np.min(f.w)))
        for key, val in zip(self.series, row):
            self.series[key].append(val)
        E = grid.domain_integral(v) - grid.boundary_integral(u[-1] * f.phi_vals)
        I = grid.domain_integral(u_t ** 2 / v)
        for key, val in zip(self.energy, (t, E, I)):
            self.energy[key].append(val)

        # the slack absorbs the rounding of the accumulated time
        k = int(np.floor(t / self._snap_every + 1e-6))
        if not self.snapshots or k > self._snap_index:
            self._snap_index = k
            self.snapshots.append((t, u))

        # dense triplets (u_{k-1}, u_k, u_{k+1}) for the |Du|^2 evolution study:
        # every tau that step k reaches is completed at step k + 1
        for tau, left, middle in self._pending:
            self.dense[tau] = (left, middle, (t, u))
        self._pending = []
        while dt is not None and self._targets and t >= self._targets[0]:
            self._pending.append((self._targets.pop(0), self.last, (t, u)))
        self.last = (t, u)


class _Stepper:
    """Accept/reject loop, step-size control, LU refresh and one ``_Record`` for
    each of the fields it steps in lockstep."""

    def __init__(self, fields, grid, phi, cfg: StepperConfig):
        self.cfg = cfg
        self.grid = grid
        self.phi = phi
        phi_vals = phi.values_on(grid)
        self.fields = [_Field(u, grid, phi_vals) for u in fields]
        self.t = 0.0
        self.dt = cfg.initial_dt(grid)
        self.dt_cap = _DT_CAP * grid.domain.inradius
        self.grow = cfg.dt is None
        self.streak = 0          # accepted steps since dt last changed
        self.steps = 0
        self.dt_min = self.dt_max = None
        self.records = [_Record(f, cfg) for f in self.fields]
        for rec in self.records:
            rec.add(self.t)

    def _refresh(self, f, reason):
        f.refresh(self.dt, [self.steps, self.t, self.dt, reason])

    def _set_dt(self, dt, reason):
        if dt < _DT_FLOOR:
            raise StepSizeUnderflowError(
                f"time step underflow at t = {self.t:.6g} (blow-up or bad scenario)")
        self.dt = dt
        self.streak = 0
        for f in self.fields:
            self._refresh(f, reason)

    def _update_models(self):
        """Grow dt and refresh stale LUs before a step.

        Deciding here rather than right after the previous step spares the
        factorization that no step would use once the run has stopped.
        """
        if self.grow and self.streak >= _GROW_AFTER and self.dt < self.dt_cap:
            self._set_dt(min(_GROW_BY * self.dt, self.dt_cap), "dt")
            return
        for f in self.fields:
            if f.lu is None:
                self._refresh(f, "start")
            elif f.since_refresh >= _REFRESH_INTERVAL:
                self._refresh(f, "interval")
            elif f.defect() > 0.5 * f.dev:
                self._refresh(f, "defect")

    def advance(self) -> float:
        """Take and record one accepted step of every field; returns the dt taken."""
        self._update_models()
        ceiling = 1.0 - _DELTA_SPACE
        while True:
            try:
                cands = [f.candidate(self.dt) for f in self.fields]
                ok = all(float(np.max(c[2]["du2"])) <= ceiling for c in cands)
            except SpacelikeViolationError:
                ok = False
            if ok:
                break
            self._set_dt(self.dt * 0.5, "reject")

        dt = self.dt
        for f, c in zip(self.fields, cands):
            f.accept(c)
        self.t += dt
        self.steps += 1
        self.streak += 1
        self.dt_min = dt if self.dt_min is None else min(self.dt_min, dt)
        self.dt_max = dt if self.dt_max is None else max(self.dt_max, dt)
        for rec in self.records:
            rec.add(self.t, dt)
        return dt

    def settled(self):
        tol = self.cfg.tol_speed
        return tol > 0 and all(f.dev < tol for f in self.fields)

    def running(self):
        return (not self.settled() and self.t < self.cfg.max_time
                and self.steps < _MAX_STEPS)

    def runs(self) -> list:
        """The FlowRun of every field, in the order of ``fields``."""
        cfg, runs = self.cfg, []
        for f, rec in zip(self.fields, self.records):
            converged = f.dev < cfg.tol_speed
            if not converged:
                limit = (f"max_time = {cfg.max_time}" if self.t >= cfg.max_time else
                         f"max_steps = {_MAX_STEPS} at t = {self.t:.6g}")
                message = (f"not converged by {limit} "
                           f"(speed deviation {f.dev:.3e} > tol {cfg.tol_speed:.1e})")
            elif self.steps == 0:
                message = "initial state already steady"
            else:
                message = f"speed field settled at t = {self.t:.6g} (dev = {f.dev:.3e})"
            snapshots = rec.snapshots
            if snapshots[-1][0] != self.t:
                snapshots = snapshots + [rec.last]
            record = {"converged": converged, "message": message, "lu_refreshes": f.refreshes,
                      "dt_min": self.dt_min, "dt_max": self.dt_max,
                      "max_H_final": float(np.max(np.abs(f.q["op"] / f.q["v"])))}
            runs.append(FlowRun.from_record(
                record, self.grid, self.phi, cfg,
                series={k: np.asarray(v) for k, v in rec.series.items()},
                energy={k: np.asarray(v) for k, v in rec.energy.items()},
                snapshots=snapshots, dense=rec.dense))
        return runs


def run_to_convergence(u0, phi: ContactAngle, grid: CurvilinearGrid,
                       cfg: StepperConfig) -> FlowRun:
    """Integrate until u_t deviates from its mean by less than tol_speed.

    Returns a FlowRun with the final state, the area-weighted mean of u_t as
    speed estimate, the diagnostic series (``osc_u`` is osc(u)),
    per-step energy data, snapshots, any requested dense snapshot triplets
    and the step counters.
    """
    stepper = _Stepper([u0], grid, phi, cfg)
    while stepper.running():
        stepper.advance()
    return stepper.runs()[0]


@dataclasses.dataclass
class PairRun:
    t: np.ndarray
    osc: np.ndarray
    max_abs: np.ndarray
    run_a: FlowRun
    run_b: FlowRun

    @classmethod
    def from_snapshots(cls, run_a: FlowRun, run_b: FlowRun) -> PairRun:
        """The pair of two recorded runs, sampled at the snapshot times they share."""
        ua = {round(t, 12): u for t, u in run_a.snapshots}
        ub = {round(t, 12): u for t, u in run_b.snapshots}
        times = sorted(set(ua) & set(ub))
        diffs = [ua[t] - ub[t] for t in times]
        return cls(t=np.asarray(times),
                   osc=np.asarray([float(np.max(d) - np.min(d)) for d in diffs]),
                   max_abs=np.asarray([float(np.max(np.abs(d))) for d in diffs]),
                   run_a=run_a, run_b=run_b)


def run_pair(u0a, u0b, phi: ContactAngle, grid: CurvilinearGrid,
             cfg: StepperConfig) -> PairRun:
    """Advance two initial data in lockstep (identical step sizes).

    Records osc(u_a - u_b) and max|u_a - u_b| at every shared step; a step
    is accepted only when both fields accept it, so the difference series is
    sampled on one time grid.  Stops when both speed fields have settled.
    Each member is the FlowRun a single run of its field records over the
    pair's steps.
    """
    stepper = _Stepper([u0a, u0b], grid, phi, cfg)
    fa, fb = stepper.fields
    oscs, maxabs = [], []

    def record():
        dw = fa.w - fb.w
        oscs.append(float(np.max(dw) - np.min(dw)))
        maxabs.append(float(np.max(np.abs(dw + (fa.mean - fb.mean)))))

    record()
    while stepper.running():
        stepper.advance()
        record()
    run_a, run_b = stepper.runs()
    return PairRun(t=run_a.series["t"], osc=np.asarray(oscs),
                   max_abs=np.asarray(maxabs), run_a=run_a, run_b=run_b)
