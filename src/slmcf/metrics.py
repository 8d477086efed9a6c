"""Analytic metric catalog for the ambient surface.

Every catalog metric is rotationally symmetric,

    sigma = dr^2 + f(r)^2 dtheta^2,        Gaussian curvature K = -f''/f,

with f(r) = r + O(r^3), and is evaluated in its geodesic normal chart
x = r n, n = (cos theta, sin theta), r = |x| < r_max.  With q = f/r,
t = (-n_2, n_1), A = (r - f f')/r^2 and B = f'/f - 1/r,

    sigma_ij     = q^2 delta_ij + (1 - q^2) n_i n_j,
    Gamma^k_ij   = A t_i t_j n_k + B (n_i t_j + t_i n_j) t_k.

Each entry gives q, A, B and K in closed forms that keep their digits near
the pole (f/r -> 1 and A, B -> 0 as r -> 0, where sigma = I and Gamma = 0);
``flat`` is f = r, whose q, A and B are exactly 1, 0 and 0.  The chart has
one type, so every domain kind runs on every metric; ``domain.build_domain``
refuses a domain that reaches r_max.  The PDE solvers never differentiate
the metric numerically.

All evaluation functions are vectorized over a trailing point axis:
``points`` has shape (..., 2) and results carry the leading shape.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import UnknownMetricError


def inv2(M):
    """The inverse of each 2 x 2 matrix M[..., :, :], by the adjugate."""
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    out = np.empty_like(M)
    out[..., 0, 0] = M[..., 1, 1] / det
    out[..., 1, 1] = M[..., 0, 0] / det
    out[..., 0, 1] = -M[..., 0, 1] / det
    out[..., 1, 0] = -M[..., 1, 0] / det
    return out


# The (i, j) terms of a contraction over two indices, in np.einsum's order.
# np.einsum sums its contracted indices from 0.0, one term at a time, when the
# points axis holds more than one point; so ``sum`` of a contraction's terms
# in this order, each term's factors in operand order, is bit-identical to the
# einsum and runs without its per-element loop.
INDEX_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


class Metric:
    """dr^2 + f(r)^2 dtheta^2 in its geodesic normal chart (module docstring).

    ``f`` and ``fp`` (f') serve the radial oracle; ``f_over_r``, ``a``,
    ``b`` and ``gauss`` are q, A, B and K as functions of r >= 0.
    """

    def __init__(self, metric_id: str, f: Callable, fp: Callable, f_over_r: Callable,
                 a: Callable, b: Callable, gauss: Callable, r_max: float):
        self.metric_id = metric_id
        self.f = f
        self.fp = fp
        self._f_over_r = f_over_r
        self._a = a
        self._b = b
        self._gauss = gauss
        self.r_max = r_max

    @staticmethod
    def _polar(points):
        """(r, n1, n2) at each point; n = 0 at the pole, where every term
        that carries it vanishes."""
        points = np.asarray(points, dtype=float)
        x1, x2 = points[..., 0], points[..., 1]
        r = np.hypot(x1, x2)
        scale = 1.0 / np.where(r > 0.0, r, 1.0)
        return r, x1 * scale, x2 * scale

    def sigma(self, points):
        r, n1, n2 = self._polar(points)
        q2 = self._f_over_r(r) ** 2
        p = 1.0 - q2
        off = p * n1 * n2
        # built component-major, so that each component is written contiguously
        out = np.stack([q2 + p * n1 * n1, off, off, q2 + p * n2 * n2])
        return np.moveaxis(out.reshape((2, 2) + r.shape), (0, 1), (-2, -1))

    def christoffel(self, points):
        r, n1, n2 = self._polar(points)
        a, b = self._a(r), self._b(r)
        n, t = (n1, n2), (-n2, n1)
        out = np.empty((2, 2, 2) + r.shape)
        for i, j in ((0, 0), (0, 1), (1, 1)):
            at = a * t[i] * t[j]
            bnt = b * (n[i] * t[j] + t[i] * n[j])
            for k in range(2):
                out[k, i, j] = at * n[k] + bnt * t[k]
                out[k, j, i] = out[k, i, j]
        return np.moveaxis(out, (0, 1, 2), (-3, -2, -1))

    def gauss_curvature(self, points):
        points = np.asarray(points, dtype=float)
        r = np.hypot(points[..., 0], points[..., 1])
        return np.asarray(self._gauss(r), dtype=float)


def _zeros(r):
    return np.zeros_like(np.asarray(r, dtype=float))


def _ones(r):
    return np.ones_like(np.asarray(r, dtype=float))


# Below this r the sphere's A and B come from their Taylor series through
# r^9 (truncation under 3e-17); above it the closed forms lose at most
# about 2e-15 to cancellation.
_SERIES_BELOW = 0.1


def _sphere_a(r):
    """(r - sin r cos r) / r^2."""
    r = np.asarray(r, dtype=float)
    s = r * r
    series = r * (2 / 3 - s * (2 / 15 - s * (4 / 315 - s * (2 / 2835 - s * 4 / 155925))))
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = (r - np.sin(r) * np.cos(r)) / s
    return np.where(r < _SERIES_BELOW, series, closed)


def _sphere_b(r):
    """cot r - 1/r."""
    r = np.asarray(r, dtype=float)
    s = r * r
    series = -r * (1 / 3 + s * (1 / 45 + s * (2 / 945 + s * (1 / 4725 + s * 2 / 93555))))
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = 1.0 / np.tan(r) - 1.0 / r
    return np.where(r < _SERIES_BELOW, series, closed)


_CATALOG: dict[str, Metric] = {}


def _register(metric: Metric) -> Metric:
    _CATALOG[metric.metric_id] = metric
    return metric


_register(Metric("flat", f=lambda r: r, fp=_ones, f_over_r=_ones, a=_zeros, b=_zeros,
                 gauss=_zeros, r_max=np.inf))
_register(Metric("sphere", f=np.sin, fp=np.cos, f_over_r=lambda r: np.sinc(r / np.pi),
                 a=_sphere_a, b=_sphere_b, gauss=_ones, r_max=np.pi))
# f = r - r^3/8: q = 1 - r^2/8, A = r/2 - 3r^3/64, B = -2r/(8 - r^2) and
# K = (3/4) / (1 - r^2/8), with no cancellation anywhere
_register(Metric("dome", f=lambda r: r - r ** 3 / 8.0,
                 fp=lambda r: 1.0 - 3.0 * np.asarray(r) ** 2 / 8.0,
                 f_over_r=lambda r: 1.0 - np.asarray(r) ** 2 / 8.0,
                 a=lambda r: r * (0.5 - 3.0 * np.asarray(r) ** 2 / 64.0),
                 b=lambda r: -2.0 * r / (8.0 - np.asarray(r) ** 2),
                 gauss=lambda r: 0.75 / (1.0 - np.asarray(r) ** 2 / 8.0), r_max=1.6))


def metric_ids() -> list[str]:
    return sorted(_CATALOG)


def get_metric(metric_id: str) -> Metric:
    try:
        return _CATALOG[metric_id]
    except KeyError:
        raise UnknownMetricError(
            f"unknown metric '{metric_id}'; catalog: {metric_ids()}"
        ) from None
