"""Independent radial ODE oracle for rotationally symmetric scenarios.

For a constant contact angle on the disk r < r0 about the pole of a catalog
metric dr^2 + f^2 dth^2 (a flat disk, a sphere cap, a dome), the translator
profile depends on r alone and the PDE collapses to

    u'' = (1 - u'^2) (c - (f'/f) u'),    u'(0) = 0,
    u'(r0) = -phi / sqrt(1 + phi^2)      (contact angle at the boundary),

with c the translation speed.  It is solved here by shooting with a
high-order adaptive integrator, entirely independent of the two-dimensional
grid discretization, for the speed alone: c is the root of the boundary
slope's mismatch, and it is the reference speed of the acceptance
experiments and the benchmark.

No command of the CLI calls it, so ``scipy.integrate`` and
``scipy.optimize`` are imported inside the functions that use them, on the
first call, and ``import slmcf`` loads neither.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .metrics import get_metric

_R_START = 1e-8


@dataclasses.dataclass
class RadialOracle:
    """The speed c3 of the radial translator on the disk r < r0."""
    c3: float
    r0: float


def _f_ratio(metric):
    """f'/f and f of the metric; None is the flat metric, f = r."""
    if metric is None:
        metric = get_metric("flat")
    return (lambda r: metric.fp(r) / metric.f(r)), metric.f


def _shoot_slope(c, r0, fratio):
    from scipy.integrate import solve_ivp  # deferred: see the module docstring

    def rhs(r, y):
        p = y[0]
        return [(1.0 - p * p) * (c - fratio(r) * p)]
    sol = solve_ivp(rhs, [_R_START, r0], [c * _R_START / 2.0],
                    method="DOP853", rtol=1e-12, atol=1e-14)
    return sol.y[0, -1]


def translator_oracle(phi_const, r0, metric=None) -> RadialOracle:
    """Speed of the radial translator problem, by shooting on the slope u'.

    phi_const: constant contact angle; r0: boundary radius; metric: a
    catalog metric, None for the flat one.
    """
    from scipy.integrate import quad  # deferred: see the module docstring
    from scipy.optimize import brentq

    fratio, f = _f_ratio(metric)
    target = -phi_const / np.sqrt(1.0 + phi_const ** 2)

    if phi_const == 0.0:
        return RadialOracle(c3=0.0, r0=r0)

    def g(c):
        return _shoot_slope(c, r0, fratio) - target

    # linearized estimate of the speed from the flux balance
    length = 2.0 * np.pi * f(r0)
    area = 2.0 * np.pi * quad(f, _R_START, r0, limit=200)[0]
    c_lin = -phi_const * length / area
    lo, hi = -4.0 * abs(c_lin) - 0.5, 4.0 * abs(c_lin) + 0.5
    while g(lo) * g(hi) > 0:
        lo *= 2.0
        hi *= 2.0
        if abs(lo) > 1e3:
            raise RuntimeError("translator oracle: bracketing failed")
    return RadialOracle(c3=brentq(g, lo, hi, xtol=1e-14), r0=r0)
