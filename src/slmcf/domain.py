"""Strictly convex domains: boundary curve, frame and geodesic curvature.

A domain is described by a closed boundary curve gamma(s), s in [0, 2pi),
given in chart coordinates of its metric, star-shaped about a center point.
The boundary frame is computed covariantly:

    T = gamma' / |gamma'|_sigma      (counterclockwise unit tangent)
    N = -J T                         (inward unit normal, J the rotation
                                      by +90 degrees w.r.t. sigma)
    kappa = < nabla_T T, N >_sigma   (geodesic curvature)

The derivative of T along the curve uses the analytic curve derivatives and
the metric-compatibility identity d sigma = sigma Gamma + Gamma sigma, so no
finite differencing of the metric enters.  The frame is given on the boundary
only; nothing in the solver extends it into the domain.

Curve kinds
-----------
- ``disk``: circle of given radius about a center (cartesian charts).
- ``ellipse``: axis-aligned ellipse (cartesian charts).
- ``smooth_convex``: support-function curve h(s) = r0 + amp*cos(k s), k even;
  strictly convex iff h + h'' > 0, checked numerically like every other kind.
- ``chart_circle``: the curve r = r0 in a radial chart (geodesic circle).

All kinds are centrally symmetric about the center; the grid's cross-center
stencils rely on that and it is asserted at build time.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import NonConvexDomainError, ScenarioError
from .metrics import INDEX_PAIRS, Metric, einsum_sum, get_metric


class BoundaryCurve:
    """Closed parameterized curve with analytic derivatives."""

    kind: str

    def gamma(self, s):
        raise NotImplementedError

    def dgamma(self, s):
        raise NotImplementedError

    def d2gamma(self, s):
        raise NotImplementedError


class _Ellipse(BoundaryCurve):
    """Axis-aligned ellipse with semi-axes a, b; a disk is the ellipse with a = b."""

    kind = "ellipse"

    def __init__(self, a, b, center=(0.0, 0.0)):
        if a <= 0 or b <= 0:
            raise ScenarioError("ellipse semi-axes must be positive")
        self.a = float(a)
        self.b = float(b)
        self.center = np.asarray(center, dtype=float)

    def gamma(self, s):
        s = np.asarray(s, dtype=float)
        return self.center + np.stack([self.a * np.cos(s), self.b * np.sin(s)], axis=-1)

    def dgamma(self, s):
        s = np.asarray(s, dtype=float)
        return np.stack([-self.a * np.sin(s), self.b * np.cos(s)], axis=-1)

    def d2gamma(self, s):
        s = np.asarray(s, dtype=float)
        return np.stack([-self.a * np.cos(s), -self.b * np.sin(s)], axis=-1)


class _SupportCurve(BoundaryCurve):
    """gamma(s) = h(s) e(s) + h'(s) e'(s) with e = (cos s, sin s).

    s is the outward-normal angle; the curvature radius is h + h''.
    """

    kind = "smooth_convex"

    def __init__(self, r0, amp, k, phase=0.0):
        if r0 <= 0:
            raise ScenarioError("smooth_convex r0 must be positive")
        k = int(k)
        if k % 2 != 0:
            raise ScenarioError("smooth_convex harmonic k must be even (central symmetry)")
        self.r0 = float(r0)
        self.amp = float(amp)
        self.k = k
        self.phase = float(phase)
        self.center = np.zeros(2)

    def _h(self, s, order=0):
        k, a = self.k, self.amp
        arg = k * (np.asarray(s, dtype=float) - self.phase)
        if order == 0:
            return self.r0 + a * np.cos(arg)
        if order == 1:
            return -a * k * np.sin(arg)
        if order == 2:
            return -a * k * k * np.cos(arg)
        return a * k ** 3 * np.sin(arg)

    def gamma(self, s):
        s = np.asarray(s, dtype=float)
        e = np.stack([np.cos(s), np.sin(s)], axis=-1)
        ep = np.stack([-np.sin(s), np.cos(s)], axis=-1)
        return self._h(s)[..., None] * e + self._h(s, 1)[..., None] * ep

    def dgamma(self, s):
        s = np.asarray(s, dtype=float)
        ep = np.stack([-np.sin(s), np.cos(s)], axis=-1)
        return (self._h(s) + self._h(s, 2))[..., None] * ep

    def d2gamma(self, s):
        s = np.asarray(s, dtype=float)
        e = np.stack([np.cos(s), np.sin(s)], axis=-1)
        ep = np.stack([-np.sin(s), np.cos(s)], axis=-1)
        rr = self._h(s) + self._h(s, 2)
        drr = self._h(s, 1) + self._h(s, 3)
        return drr[..., None] * ep - rr[..., None] * e


class _ChartCircle(BoundaryCurve):
    kind = "chart_circle"

    def __init__(self, r0):
        if r0 <= 0:
            raise ScenarioError("chart_circle r0 must be positive")
        self.r0 = float(r0)
        self.center = None  # radial charts have no center node in the chart

    def gamma(self, s):
        s = np.asarray(s, dtype=float)
        return np.stack([np.full_like(s, self.r0), s], axis=-1)

    def dgamma(self, s):
        s = np.asarray(s, dtype=float)
        return np.stack([np.zeros_like(s), np.ones_like(s)], axis=-1)

    def d2gamma(self, s):
        s = np.asarray(s, dtype=float)
        return np.zeros(s.shape + (2,))


@dataclasses.dataclass
class ConvexDomain:
    """Strictly convex domain with its boundary frame data."""

    metric: Metric
    curve: BoundaryCurve
    kappa0: float
    inradius: float

    # -- frame -------------------------------------------------------------

    def frame(self, s):
        """Return (T, N, w) at boundary parameters s.

        T, N are sigma-unit chart vectors with T counterclockwise and N
        inward; w = |gamma'(s)|_sigma is the boundary speed.
        """
        s = np.asarray(s, dtype=float)
        g = self.curve.gamma(s)
        dg = self.curve.dgamma(s)
        sig = self.metric.sigma(g)
        w = np.sqrt(_pair(dg, sig, dg))
        T = dg / w[..., None]
        N = -_rotate90(self.metric, g, T)
        return T, N, w

    def kappa(self, s):
        """Geodesic curvature of the boundary at parameters s: <nabla_T T, N>_sigma."""
        _, N, _ = self.frame(s)
        sig = self.metric.sigma(self.curve.gamma(s))
        return _pair(self.nabla_T_T(s), sig, N)

    def nabla_T_T(self, s):
        """Covariant derivative nabla_T T at boundary parameters (chart vector)."""
        s = np.asarray(s, dtype=float)
        g = self.curve.gamma(s)
        dg = self.curve.dgamma(s)
        d2g = self.curve.d2gamma(s)
        sig = self.metric.sigma(g)
        gam = self.metric.christoffel(g)
        T, _, w = self.frame(s)
        # d sigma_ij / ds along the curve from metric compatibility
        # d_k sigma_ij = sigma_lj Gamma^l_{ki} + sigma_il Gamma^l_{kj}
        dsig_ds = np.empty_like(sig)
        for i, j in INDEX_PAIRS:
            dsig_ds[..., i, j] = (
                einsum_sum(sig[..., l, j] * gam[..., l, k, i] * dg[..., k] for l, k in INDEX_PAIRS)
                + einsum_sum(sig[..., i, l] * gam[..., l, k, j] * dg[..., k]
                             for l, k in INDEX_PAIRS))
        dw2 = _pair(dg, dsig_ds, dg) + 2.0 * _pair(d2g, sig, dg)
        dw = 0.5 * dw2 / w
        dT = d2g / w[..., None] - dg * (dw / w ** 2)[..., None]
        # nabla_{gamma'} T, then normalize by w to get nabla_T T
        covT = dT + np.stack([einsum_sum(gam[..., k, i, j] * dg[..., i] * T[..., j]
                                         for i, j in INDEX_PAIRS) for k in range(2)], axis=-1)
        return covT / w[..., None]


def _pair(u, sig, v):
    """u^i sig_ij v^j at each point, as np.einsum("...i,...ij,...j->...") gives it."""
    return einsum_sum(u[..., i] * sig[..., i, j] * v[..., j] for i, j in INDEX_PAIRS)


def _rotate90(metric, points, V):
    """Rotation by +90 degrees w.r.t. sigma: (JV)^k = eps^{kl} sigma_lm V^m / sqrt(det sigma)."""
    sig = metric.sigma(points)
    det = sig[..., 0, 0] * sig[..., 1, 1] - sig[..., 0, 1] ** 2
    low = [einsum_sum(sig[..., l, m] * V[..., m] for m in range(2)) for l in range(2)]
    out = np.stack([low[1], -low[0]], axis=-1)
    return out / np.sqrt(det)[..., None]


def build_domain(spec: dict, metric=None) -> ConvexDomain:
    """Construct a ConvexDomain from a spec dict and verify strict convexity.

    spec keys: kind (disk | ellipse | smooth_convex | chart_circle) plus the
    kind's parameters; ``metric`` may be a Metric or a metric id string.
    """
    if metric is None:
        metric = "flat"
    if isinstance(metric, str):
        metric = get_metric(metric)

    kind = spec.get("kind")
    if kind == "disk":
        radius = spec.get("radius", 1.0)
        if radius <= 0:
            raise ScenarioError("disk radius must be positive")
        curve = _Ellipse(radius, radius, spec.get("center", (0.0, 0.0)))
    elif kind == "ellipse":
        curve = _Ellipse(spec["a"], spec["b"], spec.get("center", (0.0, 0.0)))
    elif kind == "smooth_convex":
        curve = _SupportCurve(spec.get("r0", 1.0), spec.get("amp", 0.0),
                              spec.get("k", 2), spec.get("phase", 0.0))
    elif kind == "chart_circle":
        curve = _ChartCircle(spec["r0"])
    else:
        raise ScenarioError(f"unknown domain kind '{kind}'")

    if kind == "chart_circle":
        if metric.chart != "radial":
            raise ScenarioError("chart_circle domains require a radial-chart metric")
        if curve.r0 >= metric.r_max:
            raise ScenarioError(
                f"chart_circle r0 = {curve.r0} outside chart of metric '{metric.metric_id}'"
            )
    else:
        if metric.chart != "cartesian":
            raise ScenarioError(f"domain kind '{kind}' requires a cartesian-chart metric")

    domain = ConvexDomain(metric=metric, curve=curve, kappa0=np.nan, inradius=np.nan)

    s = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    # closed + centrally symmetric about the star center (cross-center stencils)
    g = domain.curve.gamma(s)
    g_pi = domain.curve.gamma(s + np.pi)
    if kind != "chart_circle":
        c = domain.curve.center
        sym = np.max(np.abs((g - c) + (g_pi - c)))
        if sym > 1e-10:
            raise ScenarioError(f"boundary curve not centrally symmetric (defect {sym:.2e})")
        # regular, counterclockwise, star-shaped about the center: rules out
        # reversing/self-intersecting parameterizations before any curvature math
        dg = domain.curve.dgamma(s)
        star = (g[:, 0] - c[0]) * dg[:, 1] - (g[:, 1] - c[1]) * dg[:, 0]
        if np.min(star) <= 0.0:
            raise NonConvexDomainError(
                "boundary parameterization reverses or loses star-shapedness "
                f"(min det[gamma - c, gamma'] = {np.min(star):.3e})")

    kap = domain.kappa(s)
    if not np.all(np.isfinite(kap)):
        raise NonConvexDomainError("curvature evaluation failed on the boundary")
    kappa0 = float(np.min(kap))
    if kappa0 <= 1e-10:
        raise NonConvexDomainError(
            f"domain is not strictly convex: min boundary curvature = {kappa0:.3e}"
        )
    domain.kappa0 = kappa0

    if kind == "chart_circle":
        domain.inradius = curve.r0
    else:
        c = domain.curve.center
        sig = metric.sigma(g)
        domain.inradius = float(np.min(np.sqrt(_pair(g - c, sig, g - c))))
    return domain
