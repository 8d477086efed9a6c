"""Analytic metric catalog for the ambient surface.

Every metric is given on a single chart with closed-form components,
Christoffel symbols and Gaussian curvature, so the PDE solvers never
differentiate the metric numerically.  Two chart types exist:

- ``cartesian``: chart coordinates (x, y), currently only the flat metric.
- ``radial``: chart coordinates (r, theta) with theta periodic and

      sigma = dr^2 + f(r)^2 dtheta^2,

  Gaussian curvature K = -f''/f.  The chart excludes r = 0 (coordinate
  singularity); grids built on these charts keep all nodes at r > 0.

All evaluation functions are vectorized over a trailing point axis:
``points`` has shape (..., 2) and results carry the leading shape.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ChartDomainError, UnknownMetricError


def inv2(M):
    """The inverse of each 2 x 2 matrix M[..., :, :], by the adjugate."""
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    out = np.empty_like(M)
    out[..., 0, 0] = M[..., 1, 1] / det
    out[..., 1, 1] = M[..., 0, 0] / det
    out[..., 0, 1] = -M[..., 0, 1] / det
    out[..., 1, 0] = -M[..., 1, 0] / det
    return out


# The (i, j) terms of a contraction over two indices, in np.einsum's order
INDEX_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def einsum_sum(terms):
    """The terms added to 0.0 one at a time, in the order given.

    This is how np.einsum sums over its contracted indices when the points
    axis holds more than one point, so a contraction written term by term in
    its label order (INDEX_PAIRS for two labels), with each term's factors in
    operand order, is bit-identical to the einsum and runs without its
    per-element loop.
    """
    terms = iter(terms)
    out = next(terms) + 0.0
    for term in terms:
        out += term
    return out


class Metric:
    """Base class: a named analytic metric on a 2-D chart."""

    metric_id: str
    chart: str  # "cartesian" or "radial"

    def sigma(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def christoffel(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gauss_curvature(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def check_chart(self, points: np.ndarray) -> None:
        """Raise ChartDomainError if any point leaves the chart."""


class FlatMetric(Metric):
    """Euclidean plane in cartesian coordinates."""

    metric_id = "flat"
    chart = "cartesian"

    def sigma(self, points):
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 1.0
        return out

    def christoffel(self, points):
        points = np.asarray(points, dtype=float)
        return np.zeros(points.shape[:-1] + (2, 2, 2))

    def gauss_curvature(self, points):
        points = np.asarray(points, dtype=float)
        return np.zeros(points.shape[:-1])


class RadialMetric(Metric):
    """Rotationally symmetric metric dr^2 + f(r)^2 dtheta^2."""

    chart = "radial"

    def __init__(self, metric_id: str, f: Callable, fp: Callable, gauss: Callable,
                 r_max: float):
        self.metric_id = metric_id
        self.f = f
        self.fp = fp
        self._gauss = gauss
        self.r_max = r_max

    def check_chart(self, points):
        r = np.asarray(points, dtype=float)[..., 0]
        if np.any(r <= 0.0) or np.any(r >= self.r_max):
            bad = r[(r <= 0.0) | (r >= self.r_max)]
            raise ChartDomainError(
                f"metric '{self.metric_id}': r = {bad.flat[0]} outside chart (0, {self.r_max})"
            )

    def sigma(self, points):
        points = np.asarray(points, dtype=float)
        r = points[..., 0]
        out = np.zeros(points.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = self.f(r) ** 2
        return out

    def christoffel(self, points):
        points = np.asarray(points, dtype=float)
        r = points[..., 0]
        f = self.f(r)
        fp = self.fp(r)
        out = np.zeros(points.shape[:-1] + (2, 2, 2))
        out[..., 0, 1, 1] = -f * fp          # Gamma^r_{theta theta}
        out[..., 1, 0, 1] = fp / f           # Gamma^theta_{r theta}
        out[..., 1, 1, 0] = fp / f
        return out

    def gauss_curvature(self, points):
        points = np.asarray(points, dtype=float)
        return np.broadcast_to(np.asarray(self._gauss(points[..., 0]), dtype=float),
                               points.shape[:-1]).copy()


def _dome_gauss(r):
    # f = r - r^3/8  =>  K = -f''/f = (3/4) / (1 - r^2/8)
    return 0.75 / (1.0 - np.asarray(r) ** 2 / 8.0)


_CATALOG: dict[str, Metric] = {}


def _register(metric: Metric) -> Metric:
    _CATALOG[metric.metric_id] = metric
    return metric


_register(FlatMetric())
_register(RadialMetric("flat_polar", lambda r: np.asarray(r, dtype=float),
                       lambda r: np.ones_like(np.asarray(r, dtype=float)),
                       lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                       r_max=np.inf))
_register(RadialMetric("sphere", np.sin, np.cos,
                       lambda r: np.ones_like(np.asarray(r, dtype=float)),
                       r_max=np.pi))
_register(RadialMetric("dome", lambda r: r - r ** 3 / 8.0,
                       lambda r: 1.0 - 3.0 * np.asarray(r) ** 2 / 8.0,
                       _dome_gauss,
                       r_max=1.6))
# Negative curvature entry: constructible for testing, but scenario
# validation rejects it (K >= 0 is required for admissible runs).
_register(RadialMetric("hyperbolic", np.sinh, np.cosh,
                       lambda r: -np.ones_like(np.asarray(r, dtype=float)),
                       r_max=np.inf))


def metric_ids() -> list[str]:
    return sorted(_CATALOG)


def get_metric(metric_id: str) -> Metric:
    try:
        return _CATALOG[metric_id]
    except KeyError:
        raise UnknownMetricError(
            f"unknown metric '{metric_id}'; catalog: {metric_ids()}"
        ) from None

