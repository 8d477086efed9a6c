"""Graph geometry of space-like graphs: gradients, Hessians, mean curvature.

Fields live on the computational (rho, s) grid; every covariant operation is
a centered second-order stencil on that uniform grid combined with the
pulled-back metric data stored on the grid object.  Stencil closure rules:

- crossing the center: the node (-rho_0, s) is the node (rho_0, s + pi);
- boundary ring: either a caller-supplied ghost row (contact-angle closure,
  see the flow solver) or one-sided second-order differences.

The field kernel (``gradient_fields``, ``quasilinear_operator``) works on
scalar component arrays of the grid shape: P^a, |Du|^2, v, the three
distinct components of the symmetric D_a D_b u and g~^{ab}, each a plain
(n_radial, n_angular) array, read off the grid's component-major metric
data; it builds no (..., 2, 2) arrays.  ``sym_tensor`` stacks a component
triple into one for the tensor consumer, the |Du|^2 evolution diagnostic.
Tensors stay in computational components; the scalars (v, H, |Du|^2) are
the same in every chart.

The |Du|^2 evolution diagnostic supports two coefficient conventions for the
identity satisfied along the flow; an independent symbolic oracle in the test
suite and the run-based verification check both single out "derived":

    d|Du|^2/dt = <Dw,Dw>_g / v^2 + g^{ij} D_i D_j w
                 - 2 |D^2 u|^2 - |Dw|^2 / (2 v^2) - 2 K |Du|^2,   w = |Du|^2,

whereas "printed" uses coefficients (1, 1 without the 1/v^2, 1) on the last
three terms.
"""

from __future__ import annotations

import numpy as np

from .errors import SpacelikeViolationError
from .grid import _SPACELIKE_EPS, CurvilinearGrid


# -- stencils ----------------------------------------------------------------

def radial_diff(F, grid: CurvilinearGrid, ghost=None):
    """First derivative in rho; antipodal at the center, ghost or one-sided at rho=1."""
    hr = grid.hr
    out = np.empty_like(F)
    out[1:-1] = (F[2:] - F[:-2]) / (2.0 * hr)
    out[0] = (F[1] - F[0, grid.anti]) / (2.0 * hr)
    if ghost is not None:
        out[-1] = (ghost - F[-2]) / (2.0 * hr)
    else:
        out[-1] = (3.0 * F[-1] - 4.0 * F[-2] + F[-3]) / (2.0 * hr)
    return out

def radial_diff2(F, grid: CurvilinearGrid, ghost=None):
    hr = grid.hr
    out = np.empty_like(F)
    out[1:-1] = (F[2:] - 2.0 * F[1:-1] + F[:-2]) / hr ** 2
    out[0] = (F[1] - 2.0 * F[0] + F[0, grid.anti]) / hr ** 2
    if ghost is not None:
        out[-1] = (ghost - 2.0 * F[-1] + F[-2]) / hr ** 2
    else:
        out[-1] = (2.0 * F[-1] - 5.0 * F[-2] + 4.0 * F[-3] - F[-4]) / hr ** 2
    return out

def angular_diff(F, grid: CurvilinearGrid):
    """First derivative in s (periodic in the last axis).

    The s-neighbours of a node are the next and previous entries of the
    flattened F, except in the first and last column, which wrap within their
    row and are written afterwards; no shifted copy of F is made."""
    F = np.ascontiguousarray(F, dtype=float)
    out = np.empty(F.shape)
    f, o = F.reshape(-1), out.reshape(-1)
    np.subtract(f[2:], f[:-2], out=o[1:-1])
    out[..., 0] = F[..., 1] - F[..., -1]
    out[..., -1] = F[..., 0] - F[..., -2]
    out /= 2.0 * grid.hs
    return out

def angular_diff2(F, grid: CurvilinearGrid):
    """Second derivative in s (periodic), read as ``angular_diff`` reads F."""
    F = np.ascontiguousarray(F, dtype=float)
    out = 2.0 * F
    f, o = F.reshape(-1), out.reshape(-1)
    inner = o[1:-1]
    np.subtract(f[2:], inner, out=inner)
    np.add(inner, f[:-2], out=inner)
    out[..., 0] = F[..., 1] - 2.0 * F[..., 0] + F[..., -1]
    out[..., -1] = F[..., 0] - 2.0 * F[..., -1] + F[..., -2]
    out /= grid.hs ** 2
    return out

def derivatives(F, grid: CurvilinearGrid, ghost=None):
    """All first and second computational derivatives of a nodal field."""
    Fr = radial_diff(F, grid, ghost)
    return {
        "r": Fr,
        "s": angular_diff(F, grid),
        "rr": radial_diff2(F, grid, ghost),
        "ss": angular_diff2(F, grid),
        "rs": angular_diff(Fr, grid),
    }


# -- field-level geometry ------------------------------------------------------
#
# Components: the gradient is (u_1, u_2) = (u_rho, u_s), its raised form
# (P^1, P^2) = sigma~^{ab} u_b, and a symmetric tensor T is the triple
# (T_11, T_12, T_22).

def hessian_components(d, grid: CurvilinearGrid):
    """(D_1 D_1 u, D_1 D_2 u, D_2 D_2 u) from the computational derivatives ``d``."""
    G = grid.gamma_t
    ur, us = d["r"], d["s"]
    return (d["rr"] - (G[..., 0, 0, 0] * ur + G[..., 1, 0, 0] * us),
            d["rs"] - (G[..., 0, 0, 1] * ur + G[..., 1, 0, 1] * us),
            d["ss"] - (G[..., 0, 1, 1] * ur + G[..., 1, 1, 1] * us))


def sym_tensor(t11, t12, t22):
    """The (..., 2, 2) array of a symmetric tensor given by its components."""
    return np.stack([t11, t12, t12, t22], axis=-1).reshape(t11.shape + (2, 2))


def gradient_fields(values, grid: CurvilinearGrid, ghost=None, guard=True, derivs=None):
    """Gradient data: raised (P^1, P^2), |Du|^2 and v."""
    d = derivs or derivatives(values, grid, ghost)
    S = grid.sigma_t_inv
    ur, us = d["r"], d["s"]
    P1 = S[..., 0, 0] * ur + S[..., 0, 1] * us
    P2 = S[..., 0, 1] * ur + S[..., 1, 1] * us
    du2 = P1 * ur + P2 * us
    if guard and np.any(du2 >= 1.0 - _SPACELIKE_EPS):
        idx = np.unravel_index(int(np.argmax(du2)), du2.shape)
        raise SpacelikeViolationError((int(idx[0]), int(idx[1])), float(du2[idx]))
    v = np.sqrt(np.maximum(1.0 - du2, 0.0))
    return (P1, P2), du2, v


def g_upper_components(grid: CurvilinearGrid, P, du2):
    """(g~^11, g~^12, g~^22) with g~^{ab} = sigma~^{ab} + P^a P^b / (1 - |Du|^2)."""
    S = grid.sigma_t_inv
    P1, P2 = P
    v2 = 1.0 - du2
    return (S[..., 0, 0] + P1 * P1 / v2,
            S[..., 0, 1] + P1 * P2 / v2,
            S[..., 1, 1] + P2 * P2 / v2)


def quasilinear_operator(values, grid: CurvilinearGrid, ghost=None):
    """g~^{ab} D_a D_b u and its ingredient fields (the flow right-hand side).

    ``P``, ``hess`` and ``gup`` are component tuples (see above)."""
    d = derivatives(values, grid, ghost)
    P, du2, v = gradient_fields(values, grid, ghost, derivs=d)
    hess = h11, h12, h22 = hessian_components(d, grid)
    gup = g11, g12, g22 = g_upper_components(grid, P, du2)
    cross = g12 * h12
    op = (g11 * h11 + cross) + (cross + g22 * h22)
    return {"op": op, "P": P, "du2": du2, "v": v, "hess": hess, "gup": gup}


def mean_curvature_field(values, grid: CurvilinearGrid):
    """Scalar mean curvature H = (1/v) g~^{ab} D_a D_b u, one-sided on the
    boundary ring."""
    q = quasilinear_operator(values, grid)
    return q["op"] / q["v"]


# -- |Du|^2 evolution diagnostic ------------------------------------------------

EVO_DU_CONVENTIONS = {
    # (hessian^2 coeff, grad-quartic coeff, quartic divided by v^2?, curvature coeff)
    "derived": (2.0, 0.5, True, 2.0),
    "printed": (1.0, 1.0, False, 1.0),
}


def evo_du_rhs(values, grid: CurvilinearGrid, convention="derived", ghost=None):
    """Right-hand side of the |Du|^2 evolution identity as a nodal field.

    The w = |Du|^2 derivatives always use one-sided boundary closures (w obeys
    no boundary condition of its own); the u-derivatives accept the
    contact-angle ghost row so the field matches the flow's own gradient.
    """
    hc, dc, over_v2, kc = EVO_DU_CONVENTIONS[convention]
    q = quasilinear_operator(values, grid, ghost)
    w = q["du2"]
    v2 = 1.0 - w

    dw = derivatives(w, grid)
    dwvec = np.stack([dw["r"], dw["s"]], axis=-1)
    hess_w = sym_tensor(*hessian_components(dw, grid))
    gup, hess_u = sym_tensor(*q["gup"]), sym_tensor(*q["hess"])

    grad_w_g = np.einsum("...ab,...a,...b->...", gup, dwvec, dwvec)
    hess_w_g = np.einsum("...ab,...ab->...", gup, hess_w)
    hess_u_sq = np.einsum("...ac,...bd,...ab,...cd->...",
                          grid.sigma_t_inv, grid.sigma_t_inv, hess_u, hess_u)
    dw_sq = np.einsum("...ab,...a,...b->...", grid.sigma_t_inv, dwvec, dwvec)

    rhs = grad_w_g / v2 + hess_w_g - hc * hess_u_sq - kc * grid.gauss * w
    rhs -= dc * (dw_sq / v2 if over_v2 else dw_sq)
    return rhs


def evo_du_time_residual(u_prev, u_mid, u_next, dt, grid: CurvilinearGrid,
                         convention="derived", ghosts=(None, None, None)):
    """Residual field: centered d|Du|^2/dt minus the identity's right side."""
    fields = []
    for vals, gh in zip((u_prev, u_mid, u_next), ghosts):
        _, du2, _ = gradient_fields(vals, grid, gh)
        fields.append(du2)
    dwdt = (fields[2] - fields[0]) / (2.0 * dt)
    return dwdt - evo_du_rhs(u_mid, grid, convention, ghosts[1])
