import collections
import dataclasses
import hashlib
import json
import pathlib

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq
from scipy.sparse.linalg import splu

from slmcf import translator
from slmcf.domain import _rotate90, build_domain
from slmcf.geometry import (angular_diff, derivatives, g_upper_components, gradient_fields,
                            hessian_components, sym_tensor)
from slmcf.grid import ContactAngle, CurvilinearGrid, GridFunction, build_grid
from slmcf import metrics
from slmcf.metrics import Metric, inv2
from slmcf.operators import contact_ghost
from slmcf.oracle import _R_START, _f_ratio, translator_oracle


# -- reference code the tests compare against; the library does not call it ------

def from_chart(grid, fn):
    """The ``GridFunction`` of a chart-coordinate callable fn(x1, x2) sampled at
    the grid's nodes."""
    return GridFunction(fn(grid.X[..., 0], grid.X[..., 1]), grid)


def covariant_hessian_field(values, grid: CurvilinearGrid, ghost=None, derivs=None):
    """Covariant Hessian D_a D_b u in computational components, shape (..., 2, 2)."""
    return sym_tensor(*hessian_components(derivs or derivatives(values, grid, ghost), grid))


def gradient_norm2(values, grid: CurvilinearGrid):
    """|Du|^2 = sigma~^{ab} u_a u_b at every node, as ``gradient_fields``
    contracts it but with no space-like test, so it also serves a field that
    is not space-like."""
    d = derivatives(values, grid)
    S = grid.sigma_t_inv
    P1 = S[..., 0, 0] * d["r"] + S[..., 0, 1] * d["s"]
    P2 = S[..., 0, 1] * d["r"] + S[..., 1, 1] * d["s"]
    return P1 * d["r"] + P2 * d["s"]


def tensor_pullback(grid):
    """The grid arrays by the einsum formulas, from the map x(rho, s) rebuilt
    here, with the intermediates the grid does not keep: the inverse
    Jacobian, sigma~ and sqrt(det sigma~)."""
    R, S = np.meshgrid(grid.rho, grid.s, indexing="ij")
    curve = grid.domain.curve
    c = curve.center
    X = c + R[..., None] * (curve.gamma(S) - c)
    J = np.stack([curve.gamma(S) - c, R[..., None] * curve.dgamma(S)], axis=-1)
    x_rs, x_ss = curve.dgamma(S), R[..., None] * curve.d2gamma(S)
    sig, gam = grid.domain.metric.sigma(X), grid.domain.metric.christoffel(X)
    jac_inv = inv2(J)
    sigma_t = np.einsum("...ia,...ij,...jb->...ab", J, sig, J)
    d2x = np.zeros(X.shape[:-1] + (2, 2, 2))
    d2x[..., :, 0, 1] = x_rs
    d2x[..., :, 1, 0] = x_rs
    d2x[..., :, 1, 1] = x_ss
    inner = d2x + np.einsum("...kij,...ia,...jb->...kab", gam, J, J)
    sqrt_det = np.sqrt(sigma_t[..., 0, 0] * sigma_t[..., 1, 1] - sigma_t[..., 0, 1] ** 2)
    drho = np.full(grid.n_radial, grid.hr)
    drho[-1] = 0.5 * grid.hr
    return {"X": X, "jac_inv": jac_inv, "sigma_t": sigma_t, "sigma_t_inv": inv2(sigma_t),
            "gamma_t": np.einsum("...ck,...kab->...cab", jac_inv, inner),
            "sqrt_det": sqrt_det, "weights": sqrt_det * drho[:, None] * grid.hs,
            "gauss": grid.domain.metric.gauss_curvature(X)}


def boundary_frame(domain, s):
    """(T, N, w) at boundary parameters s, as ``ConvexDomain`` builds them: T, N
    are sigma-unit chart vectors, T counterclockwise and N inward, and
    w = |gamma'(s)|_sigma is the boundary speed."""
    return domain._frame(np.asarray(s, dtype=float))[3:]


def nabla_T_T(domain, s):
    """Covariant derivative nabla_T T of the boundary's unit tangent at
    parameters s (chart vector), as ``ConvexDomain.kappa`` computes it."""
    return domain._nabla_T_T(np.asarray(s, dtype=float))[0]


def solve_regularized(eps, init, phi, grid: CurvilinearGrid):
    """Damped Newton-chord solve of g~^{ab} D_a D_b u = eps u with the
    contact-angle boundary closure: the translator's bordered solve at eps.

    The solution level grows like 1/eps, so Newton acts on the zero-mean part
    w and the scalar c = eps * (level), started from A = area-mean(init) as
    c = eps A: the operator sees only derivatives, hence the residual is
    F(w) - eps w - c and the large constant never enters a stencil
    difference.  A manufactured source enters where a test replaces
    ``translator.flow_operator``.  Returns (values, info); info's
    ``iterations`` counts every solve on an LU, dropped chord steps
    included, as the trace's ``newton_iterations`` does.  Raises NewtonError
    on stagnation and SpacelikeViolationError if no damped step stays
    space-like.
    """
    u0 = (init.values if isinstance(init, GridFunction) else np.asarray(init, float))
    A = float(grid.mean(u0))
    system = translator._Bordered(grid, phi.values_on(grid))
    w, c, _, info = translator._bordered_newton(eps, u0 - A, eps * A, system)
    return c / eps + w, {"iterations": info["steps"], "residual": info["residuals"][-1],
                         "floor_stops": info["floor_stops"], "solvers": system.log}


# -- counts and residuals a translator's limit record states once, derived ------------

def limit_factorizations(limit):
    """The factorizations of the limit solve and of the trace's LU: the
    ``solvers`` entries at eps = 0."""
    return sum(eps == 0 for eps, _ in limit["solvers"])


def trace_refactors(limit):
    """[eps, factorizations, last residual] of every trace level that
    refactored, in ascending eps: its ``solvers`` entries and the last value
    of its ``trace_residuals`` history."""
    counts = collections.Counter(eps for eps, _ in limit["solvers"] if eps > 0)
    last = {eps: history[-1] for eps, history in limit["trace_residuals"]}
    return [[eps, n, last[eps]] for eps, n in counts.items()]


def floor_stop_residuals(limit):
    """[eps, residual, floor] of every floor stop: the residual is the last
    value of that level's history (``residuals`` at eps = 0)."""
    last = {eps: history[-1] for eps, history in limit["trace_residuals"]}
    last[0.0] = limit["residuals"][-1]
    return [[eps, last[eps], floor] for eps, floor in limit["floor_stops"]]


# -- run directories -------------------------------------------------------------------

def record_sha256(run_dir, rel):
    """Record the sha256 of the file ``rel`` of ``run_dir`` in its manifest
    entry, so that an edit of the file passes the digest and reaches the
    checks after it."""
    path = pathlib.Path(run_dir) / "manifest.json"
    manifest = json.loads(path.read_text())
    entries = [entry for listed in manifest["files"].values()
               for entry in (listed if isinstance(listed, list) else [listed])]
    (entry,) = [entry for entry in entries if entry["file"] == rel]
    entry["sha256"] = hashlib.sha256((pathlib.Path(run_dir) / rel).read_bytes()).hexdigest()
    path.write_text(json.dumps(manifest))


@dataclasses.dataclass
class RadialProfile:
    profile: callable       # u(r), zero area mean
    slope: callable          # u'(r)


def radial_profile(c3, r0, metric=None) -> RadialProfile:
    """The radial translator profile on the disk r < r0 at the speed c3: a dense
    shooting solve of (u, u') from u(0) = u'(0) = 0, shifted to zero area mean."""
    fratio, f = _f_ratio(metric)
    if c3 == 0.0:
        return RadialProfile(profile=lambda r: np.zeros_like(np.asarray(r, float)),
                             slope=lambda r: np.zeros_like(np.asarray(r, float)))

    def rhs(r, y):
        u, p = y
        return [p, (1.0 - p * p) * (c3 - fratio(r) * p)]

    sol = solve_ivp(rhs, [_R_START, r0], [0.0, c3 * _R_START / 2.0],
                    method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True)
    mean = (quad(lambda r: sol.sol(r)[0] * f(r), _R_START, r0, limit=200)[0]
            / quad(f, _R_START, r0, limit=200)[0])

    def profile(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = sol.sol(np.clip(r.ravel(), _R_START, r0))[0].reshape(r.shape) - mean
        return out if out.size > 1 else float(out.flat[0])

    def slope(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = sol.sol(np.clip(r.ravel(), _R_START, r0))[1].reshape(r.shape)
        return out if out.size > 1 else float(out.flat[0])

    return RadialProfile(profile=profile, slope=slope)


def oracle_c3_from_flux(c3, phi_const, r0, metric=None):
    """Cross-check: speed from the flux balance on the profile at speed c3 of
    the disk r < r0."""
    fratio, f = _f_ratio(metric)
    slope = radial_profile(c3, r0, metric).slope
    num = phi_const * 2.0 * np.pi * f(r0)
    den = 2.0 * np.pi * quad(
        lambda r: f(r) / np.sqrt(1.0 - np.minimum(slope(r) ** 2, 1.0 - 1e-15)),
        _R_START, r0, limit=200)[0]
    return -num / den


@dataclasses.dataclass
class RegularizedOracle:
    eps: float
    r0: float
    u: callable
    slope: callable
    mean_eps_u: float


def regularized_oracle(eps, phi_const, r0, metric=None) -> RegularizedOracle:
    """Shooting solution of the regularized radial problem (zeroth-order term eps*u)."""
    fratio, f = _f_ratio(metric)
    target = -phi_const / np.sqrt(1.0 + phi_const ** 2)

    def solve(a):
        def rhs(r, y):
            u, p = y
            return [p, (1.0 - p * p) * (eps * u - fratio(r) * p)]
        return solve_ivp(rhs, [_R_START, r0],
                         [a * (1.0 + eps * _R_START ** 2 / 4.0), eps * a * _R_START / 2.0],
                         method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True)

    def g(a):
        return solve(a).y[1, -1] - target

    guess = translator_oracle(phi_const, r0, metric).c3 / eps if phi_const != 0 else 0.0
    lo, hi = guess - max(2.0, abs(guess)), guess + max(2.0, abs(guess))
    while g(lo) * g(hi) > 0:
        span = hi - lo
        lo -= span
        hi += span
        if span > 1e8:
            raise RuntimeError("regularized oracle: bracketing failed")
    a = brentq(g, lo, hi, xtol=1e-13 * max(1.0, abs(guess)))
    sol = solve(a)
    mean_eu = eps * (quad(lambda r: sol.sol(r)[0] * f(r), _R_START, r0, limit=200)[0]
                     / quad(f, _R_START, r0, limit=200)[0])

    def u_of_r(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = sol.sol(np.clip(r.ravel(), _R_START, r0))[0].reshape(r.shape)
        return out if out.size > 1 else float(out.flat[0])

    def slope(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = sol.sol(np.clip(r.ravel(), _R_START, r0))[1].reshape(r.shape)
        return out if out.size > 1 else float(out.flat[0])

    return RegularizedOracle(eps=eps, r0=r0, u=u_of_r, slope=slope, mean_eps_u=mean_eu)


@pytest.fixture(scope="session")
def unit_disk():
    return build_domain({"kind": "disk", "radius": 1.0}, "flat")


@pytest.fixture(scope="session")
def ellipse21():
    return build_domain({"kind": "ellipse", "a": 2.0, "b": 1.0}, "flat")


@pytest.fixture(scope="session")
def sphere_cap():
    return build_domain({"kind": "chart_circle", "r0": 0.8}, "sphere")


@pytest.fixture(scope="session")
def disk_grid(unit_disk):
    return build_grid(unit_disk, 48, 96)


@pytest.fixture(scope="session")
def disk_grid_small(unit_disk):
    return build_grid(unit_disk, 16, 32)


@pytest.fixture(scope="session")
def cap_grid(sphere_cap):
    return build_grid(sphere_cap, 48, 96)


@pytest.fixture(scope="session")
def phi02(unit_disk):
    return ContactAngle({"kind": "constant", "value": 0.2}, unit_disk)


class SkewMetric:
    """A metric with no zero component, so that the order in which a
    contraction sums its terms shows in the last bits.  It is not a real
    surface (the Christoffel symbols are not those of sigma) and not
    rotationally symmetric, so it stands in for a ``Metric`` with the three
    evaluations the domain and the grid call, and a chart without bound."""

    metric_id = "skew"
    r_max = np.inf

    def sigma(self, points):
        x, y = points[..., 0], points[..., 1]
        off = 0.2 * np.sin(x + 2 * y)
        return np.stack([np.stack([1.3 + x * x, off], -1), np.stack([off, 0.7 + y * y], -1)], -2)

    def christoffel(self, points):
        x, y = points[..., 0], points[..., 1]
        return np.stack([np.cos(k + 0.3 * x - 0.7 * y) for k in range(8)], -1).reshape(
            points.shape[:-1] + (2, 2, 2))

    def gauss_curvature(self, points):
        return np.ones(points.shape[:-1])


@pytest.fixture(scope="session")
def skew_metric():
    return SkewMetric()


def _hyperbolic_a(r):
    """(r - sinh r cosh r) / r^2, by its closed form (no node sits at the pole)."""
    return (r - np.sinh(r) * np.cosh(r)) / r ** 2


@pytest.fixture
def hyperbolic_metric(monkeypatch):
    """The hyperbolic plane f = sinh r, K = -1, registered in the catalog for
    one test: scenario loading must refuse it."""
    metric = Metric("hyperbolic", f=np.sinh, fp=np.cosh,
                    f_over_r=lambda r: np.sinh(r) / r, a=_hyperbolic_a,
                    b=lambda r: 1.0 / np.tanh(r) - 1.0 / r,
                    gauss=lambda r: -np.ones_like(r), r_max=np.inf)
    monkeypatch.setitem(metrics._CATALOG, "hyperbolic", metric)
    return metric


def _inverse_metric_error(grid, values):
    """max |g~^{ab} g~_bc - delta^a_c| over the nodes: g~^{ab} from the field
    kernel, g~_ab = sigma~_ab - u_a u_b from the reference sigma~ and the
    stencil gradient."""
    d = derivatives(values, grid)
    du = (d["r"], d["s"])
    P, du2, _ = gradient_fields(values, grid, derivs=d)
    g11, g12, g22 = g_upper_components(grid, P, du2)
    up = ((g11, g12), (g12, g22))
    sigma_t = tensor_pullback(grid)["sigma_t"]
    low = [[sigma_t[..., a, b] - du[a] * du[b] for b in range(2)] for a in range(2)]
    return max(float(np.max(np.abs(up[a][0] * low[0][c] + up[a][1] * low[1][c]
                                   - float(a == c))))
               for a in range(2) for c in range(2))


@pytest.fixture(scope="session")
def inverse_metric_error():
    """``inverse_metric_error(grid, values)``: see ``_inverse_metric_error``."""
    return _inverse_metric_error


def _boundary_gradient_data(values, grid, phi_vals):
    """(D_N u, D_T u, v) on the boundary ring from the gradient closed by the
    contact-angle ghost row: D_N u from the ghost difference in rho and the
    stencil difference in s, v from ``gradient_fields``."""
    ghost, dtu = contact_ghost(values, grid, phi_vals)
    _, _, v = gradient_fields(values, grid, ghost)
    srr = grid.sigma_t_inv[-1, :, 0, 0]
    srs = grid.sigma_t_inv[-1, :, 0, 1]
    ur = (ghost - values[-2]) / (2.0 * grid.hr)
    us = angular_diff(values[-1], grid)
    dnu = -(srr * ur + srs * us) / np.sqrt(srr)
    return dnu, dtu, v[-1]


@pytest.fixture(scope="session")
def boundary_gradient_data():
    """``boundary_gradient_data(values, grid, phi_vals)``: see ``_boundary_gradient_data``."""
    return _boundary_gradient_data


def _closest_boundary_param(dom, x, iters=40):
    """Parameter of the boundary point closest to the flat-chart point x (Newton
    on the squared chart distance, from the polar angle of x about the center)."""
    curve = dom.curve
    s = float(np.arctan2(x[1] - curve.center[1], x[0] - curve.center[0]))
    for _ in range(iters):
        r = x - curve.gamma(s)
        dg = curve.dgamma(s)
        step = -np.dot(r, dg) / (np.dot(dg, dg) - np.dot(r, curve.d2gamma(s)))
        s -= step
        if abs(step) < 1e-15:
            break
    return s


def _collar_frame(dom, x):
    """Boundary frame (T, N) extended to a collar point x.

    The extension is parallel along the normal geodesics of the boundary: on
    the flat metric those are straight lines, so (T, N) at x equal the frame
    at the closest boundary point; for a disk about the pole of a curved
    metric they are the radial lines of the normal chart, along which the
    sigma-unit N = -x/|x| is parallel and T is its rotation.
    """
    x = np.asarray(x, dtype=float)
    if dom.metric.metric_id != "flat":
        N = -x / np.hypot(x[0], x[1])
        return _rotate90(dom.metric.sigma(x), N), N
    T, N, _ = boundary_frame(dom, np.atleast_1d(_closest_boundary_param(dom, x)))
    return T[0], N[0]


@pytest.fixture(scope="session")
def collar_frame():
    """``collar_frame(domain, x)`` -> (T, N): the frame extended into the collar."""
    return _collar_frame


@pytest.fixture
def record_splu(monkeypatch):
    """``record_splu(module)`` replaces ``module.splu`` by a recorder and
    returns the list of every (matrix, keywords, SuperLU) it makes."""
    def install(module):
        made = []

        def recording(A, **kw):
            lu = splu(A, **kw)
            made.append((A, kw, lu))
            return lu

        monkeypatch.setattr(module, "splu", recording)
        return made

    return install
