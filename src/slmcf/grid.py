"""Boundary-fitted curvilinear grid and nodal scalar fields.

Computational coordinates (rho, s) live on [0, 1] x [0, 2pi): rho scales the
star-shaped map toward the boundary curve, s is the boundary parameter.
Radial nodes sit at rho_i = (i + 1/2) h with h = 1/(n_radial - 1/2), so the
first ring is offset h/2 from the center while the outermost ring lies
exactly on the boundary.  The angular direction is uniform and periodic; the
number of angular nodes must be even so that the ray (-rho, s) coincides
with (rho, s + pi) when stencils cross the center.

The ambient metric is pulled back onto (rho, s) through the mapping
x(rho, s) = c + rho (gamma(s) - c) into its chart (every metric has one, its
geodesic normal chart; see ``metrics``), giving nodal arrays for the inverse
of sigma~, the Christoffel symbols of the pulled-back metric, the Gaussian
curvature and the quadrature weights.  All PDE stencils downstream act on
the uniform computational grid with these coefficients, which keeps every
covariant operation a plain centered difference plus analytic data.

The pullback is computed in 2 x 2 components, each contraction written out
term by term in the order np.einsum sums it, so sigma~, its inverse,
Gamma~ and the inverse Jacobian are bit-identical to the tensor formulas
in the comments without their per-element loops.  sigma~ itself, the
Jacobian and sqrt(det sigma~) are intermediates of the construction and are
not kept.

``sigma_t_inv`` and ``gamma_t`` are indexed [..., a, b] and [..., c, a, b]
like the other tensors, but stored component-major: each component
``S[..., a, b]`` is a contiguous (n_radial, n_angular) array, which is how
the operator kernel reads them.

Quadrature: interior nodes own cells [rho_i - h/2, rho_i + h/2] x s-cell with
midpoint weights sqrt(det sigma~) * h * hs; boundary nodes own half cells.
Boundary integrals use the periodic trapezoid rule (spectrally accurate).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .domain import ConvexDomain
from .errors import ChartDomainError, GridError, ScenarioError
from .metrics import INDEX_PAIRS, inv2
from .schema import N_ANGULAR, N_RADIAL, check

_DELTA_SPACE = 1e-3  # the stepper rejects, and spacelike_bound fails, sup |Du|^2 above 1 - this


class CurvilinearGrid:
    """Structured grid over a convex domain with pulled-back metric data."""

    def __init__(self, domain: ConvexDomain, n_radial: int, n_angular: int):
        # before anything is allocated: a huge size would fail as a raw numpy error
        for name, n, (least, largest) in (("n_radial", n_radial, N_RADIAL),
                                          ("n_angular", n_angular, N_ANGULAR)):
            if not least <= n <= largest:
                raise GridError(f"{name} must be in [{least}, {largest}], not {n}")
        if n_angular % 2 != 0:
            raise GridError("n_angular must be even (cross-center stencils)")

        self.domain = domain
        metric = domain.metric
        self.n_radial = int(n_radial)
        self.n_angular = int(n_angular)
        self.hr = 1.0 / (n_radial - 0.5)
        self.hs = 2.0 * np.pi / n_angular
        self.rho = (np.arange(n_radial) + 0.5) * self.hr
        self.rho[-1] = 1.0  # exact by construction; pin against roundoff
        self.s = np.arange(n_angular) * self.hs
        self.anti = (np.arange(n_angular) + n_angular // 2) % n_angular

        R, S = np.meshgrid(self.rho, self.s, indexing="ij")
        curve = domain.curve
        c = curve.center
        gam = curve.gamma(S)
        dgam = curve.dgamma(S)
        X = c + R[..., None] * (gam - c)
        J = np.stack([gam - c, R[..., None] * dgam], axis=-1)  # J[..., i, a]

        jac_det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
        if np.any(jac_det <= 0.0):
            i, j = np.unravel_index(int(np.argmin(jac_det)), jac_det.shape)
            raise GridError(
                f"degenerate grid mapping at node ({i}, {j}): det J = {jac_det[i, j]:.3e}"
            )

        # |x| is convex, so the node farthest from the pole is on the boundary
        # ring, whose nodes can fall between the samples ``build_domain`` checks
        reach = np.hypot(X[-1, :, 0], X[-1, :, 1])
        j = int(np.argmax(reach))
        if reach[j] >= metric.r_max:
            raise ChartDomainError(f"grid leaves the chart of metric '{metric.metric_id}': "
                                   f"boundary node {j} at |x| = {reach[j]:.10g} >= r_max = "
                                   f"{metric.r_max:.10g}")

        sig = metric.sigma(X)
        gam_chart = metric.christoffel(X)

        self.X = X
        B = inv2(J)
        # sigma~_ab = J^i_a sigma_ij J^j_b
        sigma_t = np.empty_like(J)
        for a, b in INDEX_PAIRS:
            sigma_t[..., a, b] = sum(J[..., i, a] * sig[..., i, j] * J[..., j, b]
                                     for i, j in INDEX_PAIRS)
        self.sigma_t_inv = _component_major(inv2(sigma_t))
        sqrt_det = np.sqrt(sigma_t[..., 0, 0] * sigma_t[..., 1, 1] - sigma_t[..., 0, 1] ** 2)

        # Gamma~^c_{ab} = B^c_k ( x^k_{,ab} + Gamma^k_{ij} J^i_a J^j_b )
        # x^k_{,ab}, indexed [..., k]
        d2x = {(0, 0): np.zeros_like(X), (0, 1): dgam, (1, 0): dgam,
               (1, 1): R[..., None] * curve.d2gamma(S)}
        inner = {(k, a, b): d2x[a, b][..., k] + sum(
                     gam_chart[..., k, i, j] * J[..., i, a] * J[..., j, b] for i, j in INDEX_PAIRS)
                 for k in range(2) for a, b in INDEX_PAIRS}
        gamma_t = np.empty((2, 2, 2) + jac_det.shape)
        for c in range(2):
            for a, b in INDEX_PAIRS:
                gamma_t[c, a, b] = sum(B[..., c, k] * inner[k, a, b] for k in range(2))
        self.gamma_t = np.moveaxis(gamma_t, (3, 4), (0, 1))
        self.gauss = metric.gauss_curvature(X)

        # quadrature weights: midpoint cells, half cell on the boundary ring
        drho = np.full(self.n_radial, self.hr)
        drho[-1] = 0.5 * self.hr
        self.weights = sqrt_det * drho[:, None] * self.hs
        self.area = float(np.sum(self.weights))

        # boundary ring data (rho = 1)
        self.sqrt_sigma_ss_bd = np.sqrt(sigma_t[-1, :, 1, 1])
        self.boundary_weights = self.sqrt_sigma_ss_bd * self.hs
        # physical radial spacing, used for h^2-scaled tolerances
        self.h = float(np.max(np.sqrt(sigma_t[..., 0, 0])) * self.hr)

    # -- integrals ----------------------------------------------------------

    def domain_integral(self, values):
        """Integral over the domain by the quadrature weights; a (1 - |Du|^2)^(-1/2)
        weight is the caller's 1 / v (``geometry.gradient_fields``)."""
        return float(np.sum(self.weights * np.asarray(values)))

    def boundary_integral(self, boundary_values):
        """Periodic trapezoid rule along the boundary ring."""
        boundary_values = np.asarray(boundary_values)
        if boundary_values.shape != (self.n_angular,):
            raise ValueError("boundary_integral expects one value per boundary node")
        return float(np.sum(self.boundary_weights * boundary_values))

    def mean(self, values):
        return self.domain_integral(values) / self.area


def _component_major(T):
    """T (shape (n_r, n_a) + k) as a view of a copy stored with the k
    component axes first, so that every component T[..., a, b] is contiguous."""
    k = T.ndim - 2
    comp = np.ascontiguousarray(np.moveaxis(T, (0, 1), (k, k + 1)))
    return np.moveaxis(comp, (k, k + 1), (0, 1))


def build_grid(domain: ConvexDomain, n_radial: int, n_angular: int) -> CurvilinearGrid:
    return CurvilinearGrid(domain, n_radial, n_angular)


@dataclasses.dataclass
class GridFunction:
    """Scalar nodal field on a curvilinear grid."""

    values: np.ndarray
    grid: CurvilinearGrid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.n_radial, self.grid.n_angular)
        if self.values.shape != expected:
            raise ValueError(f"GridFunction shape {self.values.shape} != grid {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("GridFunction values must be finite")

    @classmethod
    def constant(cls, grid, value=0.0):
        return cls(np.full((grid.n_radial, grid.n_angular), float(value)), grid)


class ContactAngle:
    """Prescribed contact-angle function phi on the boundary.

    Built from a phi section (its table is in ``schema``): {"kind": "constant",
    "value": c}, {"kind": "fourier", "a0": ..., "cos": [...], "sin": [...]} or
    {"kind": "table", "values": [...]} (one value per angular node).  Every
    kind is one Fourier series a0 + sum_k (cos_k cos ks + sin_k sin ks): a
    constant is a0 alone, and a table is its trigonometric interpolant, the
    series of its discrete Fourier coefficients (for an even length the
    Nyquist cosine is halved, so the series reproduces the table at the nodes).
    """

    def __init__(self, spec: dict, domain: ConvexDomain, n_angular: int | None = None):
        spec = check("phi", spec)
        kind = spec["kind"]
        if kind == "table":
            vals = np.asarray(spec["values"], dtype=float)
            if n_angular is not None and len(vals) != n_angular:
                raise ScenarioError(
                    f"phi table length {len(vals)} does not match n_angular {n_angular}"
                )
            c = np.fft.rfft(vals) * (2.0 / len(vals))
            if len(vals) % 2 == 0:
                c[-1] /= 2.0
            self._a0, self._cos, self._sin = c[0].real / 2.0, c[1:].real, -c[1:].imag
        else:
            self._a0 = spec["value"] if kind == "constant" else spec["a0"]
            self._cos = np.asarray(spec.get("cos", ()), dtype=float)
            self._sin = np.asarray(spec.get("sin", ()), dtype=float)

        sdense = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        with np.errstate(over="ignore", invalid="ignore"):   # refused below, not warned
            vals = self._phi(sdense)
            closure = 1.0 + vals ** 2    # the contact-angle closure divides by its root
        if not np.all(np.isfinite(vals)):
            raise ScenarioError("phi evaluates to non-finite values")
        if not np.all(np.isfinite(closure)):    # there D_N u = 0: the zero-flux closure
            raise ScenarioError(f"scenario section 'phi': 1 + phi^2 is not finite at "
                                f"max |phi| = {np.max(np.abs(vals)):.6g}")
        self.phi0 = float(np.min(vals))
        self.phi1 = float(np.max(vals))
        w = domain.boundary_speed(sdense)
        self.phi2 = float(np.max(np.abs(self._dphi(sdense) / w)))  # max |D_T phi|
        self.boundary_integral = float(np.sum(vals * w) * (2.0 * np.pi / len(sdense)))
        # zero total contact angle, so zero translator speed: the maximal-limit case
        self.zero_flux = abs(self.boundary_integral) <= 1e-8

    def _phi(self, s):
        out = np.full_like(s, self._a0)
        for k, c in enumerate(self._cos, start=1):
            out = out + c * np.cos(k * s)
        for k, c in enumerate(self._sin, start=1):
            out = out + c * np.sin(k * s)
        return out

    def _dphi(self, s):
        out = np.zeros_like(s)
        for k, c in enumerate(self._cos, start=1):
            out = out - c * k * np.sin(k * s)
        for k, c in enumerate(self._sin, start=1):
            out = out + c * k * np.cos(k * s)
        return out

    def values_on(self, grid: CurvilinearGrid):
        return self._phi(grid.s)
