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
- ``disk``: circle of given radius about a center.
- ``ellipse``: axis-aligned ellipse.
- ``smooth_convex``: support-function curve h(s) = r0 + amp*cos(k s), k even;
  strictly convex iff h + h'' > 0, checked numerically like every other kind.
- ``chart_circle``: the disk of radius r0 about the pole, the geodesic circle
  r = r0 of the metric.

Every kind runs on every metric.  All kinds are centrally symmetric about the
center; the grid's cross-center stencils rely on that and it is asserted at
build time, as is that the domain stays inside the metric's chart, |x| <
r_max.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ChartDomainError, NonConvexDomainError, ScenarioError
from .metrics import INDEX_PAIRS, Metric, einsum_sum, get_metric
from .schema import check


class _Ellipse:
    """Axis-aligned ellipse with semi-axes a, b; a disk is the ellipse with a = b."""

    def __init__(self, a, b, center=(0.0, 0.0)):
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


class _SupportCurve:
    """gamma(s) = h(s) e(s) + h'(s) e'(s) with e = (cos s, sin s).

    s is the outward-normal angle; the curvature radius is h + h''.
    """

    def __init__(self, r0, amp, k, phase=0.0):
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


@dataclasses.dataclass
class ConvexDomain:
    """Strictly convex domain with its boundary frame data."""

    metric: Metric
    curve: _Ellipse | _SupportCurve
    kappa0: float
    inradius: float

    # -- frame -------------------------------------------------------------

    def boundary_speed(self, s):
        """w = |gamma'(s)|_sigma at boundary parameters s."""
        return self._frame(np.asarray(s, dtype=float))[5]

    def kappa(self, s):
        """Geodesic curvature of the boundary at parameters s: <nabla_T T, N>_sigma."""
        nTT, sig, N = self._nabla_T_T(np.asarray(s, dtype=float))
        return _pair(nTT, sig, N)

    def _frame(self, s):
        """(gamma, gamma', sigma at gamma, T, N, w): the frame (T, N sigma-unit
        chart vectors, T counterclockwise and N inward) and what it is built from."""
        g = self.curve.gamma(s)
        dg = self.curve.dgamma(s)
        sig = self.metric.sigma(g)
        w = np.sqrt(_pair(dg, sig, dg))
        T = dg / w[..., None]
        N = -_rotate90(sig, T)
        return g, dg, sig, T, N, w

    def _nabla_T_T(self, s):
        """(nabla_T T, sigma, N) at boundary parameters s, on one metric evaluation."""
        g, dg, sig, T, N, w = self._frame(s)
        d2g = self.curve.d2gamma(s)
        gam = self.metric.christoffel(g)
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
        return covT / w[..., None], sig, N


def _pair(u, sig, v):
    """u^i sig_ij v^j at each point, as np.einsum("...i,...ij,...j->...") gives it."""
    return einsum_sum(u[..., i] * sig[..., i, j] * v[..., j] for i, j in INDEX_PAIRS)


def _rotate90(sig, V):
    """Rotation by +90 degrees w.r.t. sigma: (JV)^k = eps^{kl} sigma_lm V^m / sqrt(det sigma)."""
    det = sig[..., 0, 0] * sig[..., 1, 1] - sig[..., 0, 1] ** 2
    low = [einsum_sum(sig[..., l, m] * V[..., m] for m in range(2)) for l in range(2)]
    out = np.stack([low[1], -low[0]], axis=-1)
    return out / np.sqrt(det)[..., None]


def build_domain(spec: dict, metric=None) -> ConvexDomain:
    """Construct a ConvexDomain from a domain section (its table is in ``schema``)
    and verify strict convexity; ``metric`` may be a Metric or a metric id string.
    """
    if metric is None:
        metric = "flat"
    if isinstance(metric, str):
        metric = get_metric(metric)

    spec = check("domain", spec)
    kind = spec["kind"]
    if kind == "disk":
        curve = _Ellipse(spec["radius"], spec["radius"], spec["center"])
    elif kind == "ellipse":
        curve = _Ellipse(spec["a"], spec["b"], spec["center"])
    elif kind == "smooth_convex":
        curve = _SupportCurve(spec["r0"], spec["amp"], spec["k"], spec["phase"])
    else:   # chart_circle: the disk of radius r0 about the pole
        curve = _Ellipse(spec["r0"], spec["r0"])

    domain = ConvexDomain(metric=metric, curve=curve, kappa0=np.nan, inradius=np.nan)

    s = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    # closed + centrally symmetric about the star center (cross-center stencils)
    g = curve.gamma(s)
    c = curve.center
    sym = np.max(np.abs((g - c) + (curve.gamma(s + np.pi) - c)))
    if sym > 1e-10:
        raise ScenarioError(f"boundary curve not centrally symmetric (defect {sym:.2e})")
    # regular, counterclockwise, star-shaped about the center: rules out
    # reversing/self-intersecting parameterizations before any curvature math
    dg = curve.dgamma(s)
    star = (g[:, 0] - c[0]) * dg[:, 1] - (g[:, 1] - c[1]) * dg[:, 0]
    if np.min(star) <= 0.0:
        raise NonConvexDomainError(
            "boundary parameterization reverses or loses star-shapedness "
            f"(min det[gamma - c, gamma'] = {np.min(star):.3e})")
    # |x| is convex, so the closure's largest |x| lies on the boundary
    reach = float(np.max(np.hypot(g[:, 0], g[:, 1])))
    if reach >= metric.r_max:
        raise ChartDomainError(
            f"domain leaves the chart of metric '{metric.metric_id}': max |x| = {reach:.6g} "
            f">= r_max = {metric.r_max:.6g}")

    kap = domain.kappa(s)
    if not np.all(np.isfinite(kap)):
        raise NonConvexDomainError("curvature evaluation failed on the boundary")
    kappa0 = float(np.min(kap))
    if kappa0 <= 1e-10:
        raise NonConvexDomainError(
            f"domain is not strictly convex: min boundary curvature = {kappa0:.3e}"
        )
    domain.kappa0 = kappa0

    sig = metric.sigma(g)
    domain.inradius = float(np.min(np.sqrt(_pair(g - c, sig, g - c))))
    return domain
