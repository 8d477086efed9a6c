"""Elliptic translator profiles: one bordered Newton solve for (u, c3).

The translator equation g~^{ab} D_a D_b u = c with the contact-angle boundary
condition determines u only up to an additive constant, with the speed fixed
by the flux balance

    c3 = - (boundary integral of phi) / (domain integral of (1 - |Du|^2)^{-1/2}).

``compute_c3`` reads it off an evaluation of F; ``continuation`` hands it the
limit's, the one the limit factorization is built from.

The operator F(u) = g~^{ab} D_a D_b u (``flow_operator``, ghost-closed on the
boundary ring) sees only derivatives, so its Jacobian L annihilates constants
and is singular.  Keller's bordering (1977) removes the constant and adds the
speed as an unknown: Newton acts on a zero-area-mean field w and the scalar c
with the equations

    F(w) - eps w - c = 0   on every node,      area-mean(w) = 0,

and the Jacobian [[L - eps I, -1], [a^T, 0]], a = quadrature weights / area.
At eps = 0 this is the translator itself and c is the operator-limit speed
c3, which ``continuation`` solves for directly from u = 0.  At eps > 0 it is
the regularized problem g~^{ab} D_a D_b u = eps u with u = c / eps + w,
whose levels make the trace below.  Every bordered solve runs one loop,
Newton-chord, with one step rule (see ``_bordered_newton``): a Newton step
on a fresh factorization, then chord steps on that LU while each halves the
residual; a chord step that does not, above the rounding floor, drops the
LU and the Jacobian is refactored.  Its iteration limit, tol (1e-10) and
damping are module constants.

The regularization trace (eps, eps u_eps - c3), which acceptance criterion 8
reads, is computed afterwards over the schedule's eps list in ascending
order, on one more factorization, taken at the converged limit.  On that LU
one solve gives the tangent: differentiating F(w) - eps w - c = 0 in eps,
[[L, -1], [a^T, 0]] [w'; c'] = [w; 0].  Each level takes chord steps on the
limit LU from a predicted start (Allgower & Georg, Numerical Continuation
Methods, ch. 2): the quadratic through the limit, its tangent and the
converged level (eps_p, w_p, c_p) below, that is the tangent start
(w + eps w', c3 + eps c') plus (eps/eps_p)^2 (w_p - w - eps_p w',
c_p - c3 - eps_p c'), which needs no further solve.  The smallest level, a
level whose predecessor took no step (its departure from the tangent is
rounding only) and a level whose quadratic start is not space-like start on
the tangent.  A default solve factors twice unless a level's chord steps
stall above the floor.

The residual of a non-radial scenario has a rounding floor near tol at fine
grids (about 1e-9 at 128 x 256), amplified by the O(1/rho^2) center
coefficients.  A failed step, or a stagnating Newton step, compares the
residual once with the componentwise floor max_i gamma_{m_i} (|J| |x|)_i
(``RingSolver.floor``): at or below it the solve stops, and every such stop
is recorded; above it a chord step refactors and a Newton step raises.

Newton uses the exact Jacobian (including the derivative of g~^{ab} with
respect to Du and the nonlinear boundary closure), the flow's too, with
backtracking damping that keeps iterates space-like.  Each factorization
hands L (its stencil, ``operators.Jacobian``, built from the evaluation of F
at the iterate alone, which the Newton loop owns), eps and the border row a
to an ``operators.RingSolver``, which solves the bordered system: FFT in s,
with angular mode 0 (singular at eps = 0) solved as its own bordered system
of n_radial + 1 unknowns, and, where the ring solve misses the componentwise
rounding floor, the sparse LU of the bordered CSC matrix, built only then.
The solver writes which of the two served into its entry of
``limit["solvers"]``, [eps, "ring" or "lu"] per factorization, the trace's
included: the entries at eps = 0 count the limit's factorizations, those at
eps > 0 a trace level's refactors.  At most one LU is alive at a time, and
no operator evaluation while it solves.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ContinuationError, NewtonError, SpacelikeViolationError
from .grid import ContactAngle, CurvilinearGrid, GridFunction
from .operators import RingSolver, assemble_operator_matrix, flow_operator, splu
from .schema import check, fields

_MAX_ITER = 40           # solves on an LU per bordered solve, dropped chord steps included
_TOL = 1e-10             # residual max(max|R|, |area-mean(w)|) that ends a solve
_DAMPING = 0.5           # step-length factor per Newton backtrack
_MAX_BACKTRACKS = 30
_EPS_TOP = 1.0           # the largest eps of the trace, the top of eps_min's range (0, 1)
_EPS_RATIO = 0.5         # each trace level is this times the one above


@dataclasses.dataclass
class ContinuationSchedule:
    """The eps levels of the regularization trace: 1, 1/2, 1/4, ... down to eps_min."""
    eps_min: float = 1e-6

    def __post_init__(self):
        check("continuation", vars(self), fields("continuation", ContinuationSchedule))

    def eps_values(self):
        out = []
        eps = _EPS_TOP
        while eps >= self.eps_min:
            out.append(eps)
            eps *= _EPS_RATIO
        return out


@dataclasses.dataclass
class TranslatorSolution:
    profile: GridFunction          # zero area mean
    c3: float
    eps_trace: list                # (eps, max_nodes |eps u_eps - c3|)
    eps_trace_mean: list           # (eps, |area-mean(eps u_eps) - c3|)
    residuals: dict
    newton_iterations: list        # per trace level: chord steps + Newton steps
    limit: dict                    # the bordered solve at eps = 0

    def to_record(self):
        """result.json: everything but the profile and the manifest's ``final``
        block, ``c3`` and ``residuals``."""
        return {
            "eps_trace": [[e, d] for e, d in self.eps_trace],
            "eps_trace_mean": [[e, d] for e, d in self.eps_trace_mean],
            "newton_iterations": self.newton_iterations,
            "limit": self.limit,
        }

    @classmethod
    def from_record(cls, final: dict, record: dict, profile: GridFunction) -> TranslatorSolution:
        """Inverse of ``to_record``; ``final`` is the manifest's final block and
        ``profile`` the field stored beside the record."""
        return cls(profile=profile, c3=final["c3"],
                   eps_trace=[tuple(p) for p in record["eps_trace"]],
                   eps_trace_mean=[tuple(p) for p in record["eps_trace_mean"]],
                   residuals=final["residuals"], newton_iterations=record["newton_iterations"],
                   limit=record["limit"])


class _Bordered:
    """The state of the bordered solves of one continuation: the grid, the
    contact angle, the border row a = quadrature weights / area, the one
    live solver and the log [eps, solver] of every factorization.  It holds
    no operator evaluation: ``factor`` is handed one."""

    def __init__(self, grid: CurvilinearGrid, phi_vals):
        self.grid, self.phi_vals = grid, phi_vals
        self.border = (grid.weights / grid.area).ravel()
        self.solver = None
        self.log = []

    def factor(self, q, eps):
        """Build the solver of [[L - eps I, -1], [a^T, 0]] at eps, L the
        Jacobian at the iterate whose ``flow_operator`` evaluation is ``q``,
        the old solver dropped first; the solver writes its kind into the log
        entry [eps]."""
        self.solver = None
        entry = [eps]
        self.solver = RingSolver(splu, assemble_operator_matrix(q, self.grid, self.phi_vals),
                                 -eps, 1.0, border=self.border, log=entry)
        self.log.append(entry)


def _quadratic_start(eps, tangent_start, below):
    """The start (w, c) of the trace level at eps on the quadratic through the
    limit, its tangent and the converged level ``below`` = (eps_p, dw, dc),
    dw and dc that level's departure from the tangent: the tangent start
    plus (eps / eps_p)^2 (dw, dc)."""
    eps_p, dw, dc = below
    r = (eps / eps_p) ** 2
    return tangent_start[0] + r * dw, tangent_start[1] + r * dc


def _bordered_newton(eps, w, c, system: _Bordered, fallback=None):
    """Damped Newton-chord on F(w) - eps w - c = 0, area-mean(w) = 0.

    Every iteration solves on the live solver of ``system``, which is reused
    across steps and solves.  On a fresh solver the step is a Newton step,
    damped by backtracking under the Armijo test; on a reused one it is a
    chord step, taken whole, which must halve the residual.  Either is
    accepted at tol.  A failed step, or a Newton step that stagnates,
    compares the residual once with its rounding floor max_i gamma_i
    (|J| |[w; c]|)_i (``RingSolver.floor``).  At or below the floor the
    solve stops and records [eps, floor] in info["floor_stops"], the residual
    being the last of info["residuals"]; above it a chord step drops the
    solver, so the next iteration refactors at the current iterate, and a
    Newton step raises NewtonError.

    A start (w, c) that is not space-like is replaced by ``fallback`` (w, c)
    where one is given.  A start c of None is the area mean of F(w), taken
    from the first residual's evaluation.  The solve owns q, the
    ``flow_operator`` evaluation of its iterate w, for a factorization at w.
    No evaluation is alive while the solver solves: q is dropped before every
    solve and set again only where a trial is accepted, so a rejected trial's
    evaluation is never reused.  A factorization at a w whose q was dropped
    (after a failed chord step) evaluates F there once more.

    Returns (w, c, q, info), q None where the last trial was rejected (a
    floor stop); info holds the residual history, the counts of accepted
    chord steps and Newton steps, the floor stops, ``steps``, every solve on
    an LU including failed chord steps, and ``residual_max``, max |R| over
    the nodes at the returned (w, c); each factorization is an entry of
    ``system.log``.
    Raises NewtonError on stagnation or a failed line search above the floor
    (a trial step that is not space-like fails), and SpacelikeViolationError
    where the start is not space-like and no fallback is given.
    """
    grid, phi_vals = system.grid, system.phi_vals

    def norm(R, wv):
        return max(float(np.max(np.abs(R))), abs(grid.mean(wv)))

    try:
        q = flow_operator(w, grid, phi_vals)
    except SpacelikeViolationError:
        if fallback is None:
            raise
        w, c = fallback
        q = flow_operator(w, grid, phi_vals)
    c = grid.mean(q["op"]) if c is None else c
    R = q["op"] - eps * w - c
    norms = [norm(R, w)]
    info = {"chord": 0, "newton": 0, "steps": 0, "floor_stops": []}
    while norms[-1] > _TOL:
        if info["steps"] >= _MAX_ITER:
            raise NewtonError(
                f"Newton: no convergence in {_MAX_ITER} iterations "
                f"(eps = {eps:.3e}, residual = {norms[-1]:.3e})")
        info["steps"] += 1
        newton = system.solver is None
        if newton:
            system.factor(flow_operator(w, grid, phi_vals) if q is None else q, eps)
        q = None                         # no evaluation is alive while the solver solves
        delta = system.solver.solve(-np.append(R.ravel(), grid.mean(w)))
        dw, dc = delta[:-1].reshape(w.shape), float(delta[-1])

        t = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS if newton else 1):
            trial = None                 # one evaluation alive at a time
            try:
                trial_w, trial_c = w + t * dw, c + t * dc
                trial = flow_operator(trial_w, grid, phi_vals)
                R_trial = trial["op"] - eps * trial_w - trial_c
            except SpacelikeViolationError:
                t *= _DAMPING
                continue
            norm_trial = norm(R_trial, trial_w)
            if (norm_trial < norms[-1] * (1.0 - 1e-4 * t) or norm_trial < _TOL) if newton \
                    else (norm_trial <= 0.5 * norms[-1] or norm_trial <= _TOL):
                w, c, R, q = trial_w, trial_c, R_trial, trial
                norms.append(norm_trial)
                accepted = True
                break
            t *= _DAMPING
        trial = None                     # a rejected trial's evaluation is never reused
        if accepted:
            info["newton" if newton else "chord"] += 1
            # Newton stagnation: less than 0.1% total reduction over the last 5 steps
            if not newton or len(norms) <= 5 or norms[-1] <= max(_TOL, norms[-6] * (1.0 - 1e-3)):
                continue
        bound = system.solver.floor(np.append(w.ravel(), c))
        if norms[-1] <= bound:
            info["floor_stops"].append([eps, bound])
            break
        if not newton:                   # refactor at the current iterate
            system.solver = None
            continue
        raise NewtonError(
            f"Newton {'stagnation' if accepted else 'line search failed'} "
            f"(eps = {eps:.3e}, residual = {norms[-1]:.3e})")
    info.update(residuals=norms, residual_max=float(np.max(np.abs(R))))
    return w, c, q, info


def compute_c3(q, grid: CurvilinearGrid, phi_vals):
    """Speed from the flux balance, with the (1-|Du|^2)^(-1/2) = 1 / v volume
    weight read off ``q``, the ``flow_operator`` evaluation of the profile."""
    return -grid.boundary_integral(phi_vals) / float(np.sum(grid.weights / q["v"]))


def continuation(schedule: ContinuationSchedule, phi: ContactAngle,
                 grid: CurvilinearGrid) -> TranslatorSolution:
    """The translator profile and c3 from one bordered Newton solve, plus the
    regularization trace over ``schedule.eps_values()``.

    The Newton start is u = 0, with the area mean of the operator there as
    start speed.  The ghost row makes the contact-angle closure exact, so
    ``residuals`` records only ``interior_max`` and ``c3_quadrature``.
    Raises NewtonError or SpacelikeViolationError if the limit solve fails,
    and ContinuationError if a trace level does not converge; its ``trace``
    holds the levels solved so far as (eps, mean, min, max of eps u_eps), in
    schedule order.
    """
    phi_vals = phi.values_on(grid)
    w = np.zeros((grid.n_radial, grid.n_angular))
    system = _Bordered(grid, phi_vals)
    # Newton-chord from the speed that fits F(0) best in the area mean
    w, c3, q, info = _bordered_newton(0.0, w, None, system)
    q = flow_operator(w, grid, phi_vals) if q is None else q   # None: a rejected last trial
    # the flux balance by quadrature: its gap to c3 is the discrete
    # integration-by-parts mismatch, O(h^2)
    c3_quadrature = compute_c3(q, grid, phi_vals)
    # the limit LU serves the tangent and every trace level: differentiating
    # F(w) - eps w - c = 0 in eps gives [[L, -1], [a^T, 0]] [w'; c'] = [w; 0]
    system.factor(q, 0.0)
    q = None                         # no evaluation is alive while the solver solves
    tangent = system.solver.solve(np.append(w.ravel(), 0.0))
    w_dot, c_dot = tangent[:-1].reshape(w.shape), float(tangent[-1])
    # a copy, so the trace levels' stops leave the limit solve's own list as it returned it
    limit = {"residuals": info["residuals"], "newton_steps": info["newton"],
             "floor_stops": list(info["floor_stops"]), "trace_residuals": [],
             "solvers": system.log}

    # eps trace, smallest eps first, each level started on the tangent or,
    # above a level that took a step, on the quadratic through that level:
    # eps u_eps = c + eps w_eps
    stats = []       # (eps, mean eps*u, min eps*u, max eps*u)
    newton_iters = []
    below = None     # (eps, second-order part of w, of c) of the level below
    for eps in reversed(schedule.eps_values()):
        tangent_start = (w + eps * w_dot, c3 + eps * c_dot)
        start = tangent_start if below is None else _quadratic_start(eps, tangent_start, below)
        try:
            w_eps, c_eps, q, level = _bordered_newton(eps, *start, system,
                                                      fallback=tangent_start)
        except (NewtonError, SpacelikeViolationError) as err:
            raise ContinuationError(f"eps trace: no convergence at eps = {eps:.3e}: {err}",
                                    trace=stats[::-1]) from err
        q = None                     # the level's evaluation goes before the next level starts
        # a level that took no step is its start: its second-order part would
        # only carry the rounding of the start onward
        below = (eps, w_eps - w - eps * w_dot, c_eps - c3 - eps * c_dot) \
            if level["chord"] + level["newton"] else None
        newton_iters.append(level["steps"])
        limit["trace_residuals"].append([eps, level["residuals"]])
        limit["floor_stops"].extend(level["floor_stops"])
        eu = c_eps + eps * w_eps
        stats.append((eps, float(grid.mean(eu)), float(np.min(eu)), float(np.max(eu))))
    system.solver = None
    stats.reverse()
    newton_iters.reverse()
    limit["trace_residuals"].reverse()
    eps_trace = [(e, max(abs(mx - c3), abs(mn - c3))) for e, _, mn, mx in stats]
    eps_trace_mean = [(e, abs(m - c3)) for e, m, _, _ in stats]

    residuals = {"interior_max": info["residual_max"],     # max |F(w) - c3| at the limit
                 "c3_quadrature": c3_quadrature}
    return TranslatorSolution(profile=GridFunction(w, grid), c3=c3, eps_trace=eps_trace,
                              eps_trace_mean=eps_trace_mean, residuals=residuals,
                              newton_iterations=newton_iters, limit=limit)

