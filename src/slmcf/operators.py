"""Discrete quasilinear operator with the contact-angle boundary closure.

One operator serves the parabolic stepper, the elliptic Newton solver and the
diagnostics: the nodal field

    F(u) = g~^{ab}(Du) D_a D_b u

evaluated on all rings, where the boundary ring uses a ghost row placed so
that the contact-angle condition holds exactly in its closed form

    D_N u = phi * sqrt((1 - (D_T u)^2) / (1 + phi^2)).

The closed form eliminates v from the boundary condition: combined with the
orthonormal frame split |Du|^2 = (D_N u)^2 + (D_T u)^2 it reproduces
|D_N u|^2 = phi^2 v^2 and |D_T u|^2 = 1 - (1 + phi^2) v^2 identically.

Jacobian assembly is exact: stencil weights carry the per-node coefficient
fields and the derivative of g~^{ab} with respect to Du, and the ghost row is
eliminated through its three-entry dependence on the unknowns (chain rule
through the tangential derivative).  A finite-difference verification of the
assembled matrix lives in the test suite.  The Jacobian is its stencil
(``Jacobian``): the nine weight arrays, computed from the component arrays
of ``geometry.quasilinear_operator``, and the boundary ring's eight entries
with the ghost folded in, so ``L @ x`` is a stencil product.  A CSC matrix
exists only where a solve escalates to the LU (``RingSolver.matrix``), on
the positions of ``_stencil_coo``, a per-grid-shape cache that also gives
the graph of ``nested_dissection_order``.

Every linear solve with the Jacobian goes through ``RingSolver``, which owns
all of it: from L it forms the matrix of the solve (the flow's I - dt L, or
the translator's bordered [[L - eps I, -1], [a^T, 0]] with the ring means of
a for mode 0), picks the solver, logs which one served into the caller's log
entry, and gives the componentwise rounding floor of a residual
(``RingSolver.floor``).  Averaging each
stencil weight and the ghost sensitivity over s on every ring gives an
operator that is diagonal in the angular Fourier modes, with one tridiagonal
system in rho per mode: the half-offset polar grid of the fast disk solvers
(Mohseni & Colonius, J. Comput. Phys. 157, 2000; Lai, Numer. Methods PDE 17,
2001).  On rotationally symmetric states it is the Jacobian up to rounding.
Every ring solution is checked against the solve's matrix: after at most
``_RING_SWEEPS`` refinement sweeps it must meet the Oettli-Prager
componentwise bound |b - A x|_i <= gamma_i (|A| |x| + |b|)_i, with
gamma_i = m_i u / (1 - m_i u) for the row's m_i entries and the unit
roundoff u.  Otherwise the solver escalates to ``OrderedLU``, a sparse LU on
a nested-dissection order of the grid shape (computed only then, so a run
that never escalates computes none), which then serves every later solve on
that matrix.

This module imports no scipy at load.  ``scipy.sparse`` is imported where a
solve escalates and builds its CSC matrix, the sparse LU
(``scipy.sparse.linalg``) by ``splu`` on the first escalation, and
``scipy.linalg`` by ``RingSolver`` where it builds a bordered mode 0: a
flow that the ring solves serve imports none of them.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import SpacelikeBoundaryError
from .geometry import angular_diff, quasilinear_operator
from .grid import CurvilinearGrid


def contact_ghost(values, grid: CurvilinearGrid, phi_vals):
    """Ghost row beyond rho = 1 enforcing the contact-angle closure.

    Returns (ghost, dtu): the ghost values, placed so that the centered D_N u
    of the boundary ring is phi sqrt((1 - q^2) / (1 + phi^2)) at q = D_T u,
    and the tangential derivative D_T u.
    """
    ub = values[-1]
    us = angular_diff(ub, grid)
    dtu = us / grid.sqrt_sigma_ss_bd
    one_minus = 1.0 - dtu ** 2
    if np.any(one_minus <= 0.0):
        j = int(np.argmin(one_minus))
        raise SpacelikeBoundaryError((grid.n_radial - 1, j), float(dtu[j] ** 2),
                                     f"|D_T u| >= 1 at boundary node {j}")
    srr = grid.sigma_t_inv[-1, :, 0, 0]
    srs = grid.sigma_t_inv[-1, :, 0, 1]
    dn_target = phi_vals * np.sqrt(one_minus / (1.0 + phi_vals ** 2))
    ghost = values[-2] - (2.0 * grid.hr / srr) * (np.sqrt(srr) * dn_target + srs * us)
    return ghost, dtu


def flow_operator(values, grid: CurvilinearGrid, phi_vals):
    """The evaluation of F(u) = g~^{ab} D_a D_b u with the contact-angle ghost
    closure applied: the fields of ``geometry.quasilinear_operator``, F as
    "op", and the closure's "dtu", which the Jacobian assembly reads."""
    ghost, dtu = contact_ghost(values, grid, phi_vals)
    return dict(quasilinear_operator(values, grid, ghost), dtu=dtu)


# -- the Jacobian as its stencil -------------------------------------------------

_OFFSETS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1))
# (ring, angular) offsets of the boundary ring's entries once the ghost is folded in
_BOUNDARY = ((-1, -1), (-1, 0), (-1, 1), (0, -2), (0, -1), (0, 0), (0, 1), (0, 2))
_ND_LEAF = 64   # nested dissection stops at parts of at most this many nodes


class Jacobian:
    """The operator matrix L as its stencil: ``L @ x`` is the stencil product.

    ``padded`` holds the nine weights per node in ``_OFFSETS`` order (9 x
    n_radial x (n_angular + 2), a zero column each side, so that every offset
    reads one contiguous slice of the flattened, padded x); ``weights`` is
    their view without the padding.  Rings 0 .. n_radial - 2 apply them, the
    center crossing (-1, j) reading (0, j + n_angular/2).  On the boundary
    ring the weights that reach the ghost row are folded into the three
    unknowns the ghost depends on, ghost[j] = u[-2, j] + g[j] (u[-1, j+1] -
    u[-1, j-1]) + const, and merged with the stencil's own entries:
    ``boundary`` holds the 8 x n_angular entries at the ``_BOUNDARY``
    offsets, each a sum in a fixed order (stencil entry, ghost entry, then
    the +g and the -g term).  ``sens`` is g per boundary node, and ``ring``
    the ring means of the nine weights and of g (9 x n_radial, one number):
    the ring-averaged stencil that ``RingSolver`` solves on.  The mixed
    derivative's weights at (-1, -1) and (-1, 1) repeat those at (1, 1) and
    (1, -1), as the assembly writes them and ``shifted`` and ``abs`` keep
    them; the product reads one weight per pair.
    """

    def __init__(self, padded, boundary, sens=None):
        self.padded, self.boundary, self.sens = padded, boundary, sens
        n_r, m = padded.shape[1:]
        self.shape = (n_r * (m - 2),) * 2

    @property
    def weights(self):
        return self.padded[:, :, 1:-1]

    @functools.cached_property
    def ring(self):
        return self.weights.mean(axis=2), float(np.mean(self.sens))

    def shifted(self, alpha, beta):
        """alpha I + beta L: each entry of L, the merged ones summed first,
        times beta, and alpha added on the diagonal."""
        padded, boundary = beta * self.padded, beta * self.boundary
        padded[0, :, 1:-1] += alpha
        boundary[_BOUNDARY.index((0, 0))] += alpha
        return Jacobian(padded, boundary)

    def __abs__(self):
        return Jacobian(np.abs(self.padded), np.abs(self.boundary))

    def __matmul__(self, x):
        _, n_r, m = self.padded.shape
        n_a = m - 2
        u = x.reshape(n_r, n_a)
        # x on rings -1 .. n_radial - 1, ring -1 the cross-center one, with one
        # periodic column each side, flattened with a spare zero at each end
        flat = np.empty((n_r + 1) * m + 2)
        flat[0] = flat[-1] = 0.0
        P = flat[1:-1].reshape(n_r + 1, m)
        P[1:, 1:-1] = u
        half = n_a // 2
        P[0, 1:1 + half], P[0, 1 + half:-1] = u[0, half:], u[0, :half]
        P[:, 0], P[:, -1] = P[:, -2], P[:, 1]
        size = (n_r - 1) * m
        start = [1 + (1 + di) * m + dj for di, dj in _OFFSETS]
        at = [flat[k:k + size] for k in start]              # x at each offset of every node
        w = [v.ravel() for v in self.padded[:, :-1]]
        y, term = w[0] * at[0], np.empty(size)
        for o in 1, 2, 3, 4:
            y += np.multiply(w[o], at[o], out=term)
        for o in 5, 7:          # (1, 1) with (-1, -1), then (1, -1) with (-1, 1)
            y += np.multiply(w[o], np.add(at[o], at[o + 1], out=term), out=term)
        out = np.empty((n_r, n_a))
        out[:-1] = y.reshape(n_r - 1, m)[:, 1:-1]
        # the last two rings with two periodic columns each side
        last = np.concatenate([u[-2:, -2:], u[-2:], u[-2:, :2]], axis=1)
        out[-1] = sum(e * last[1 + di, 2 + dj:2 + dj + n_a]
                      for e, (di, dj) in zip(self.boundary, _BOUNDARY))
        return out.ravel()

    def entries(self):
        """L's entries at the positions ``_stencil_coo`` gives."""
        return np.concatenate([self.padded[:, :-1, 1:-1], self.boundary], axis=None)


@functools.lru_cache(maxsize=8)
def _stencil_coo(n_radial, n_angular):
    """(rows, cols) of the operator matrix's entries on a grid shape, int32,
    read-only and in ``Jacobian.entries`` order: the nine offsets on rings 0
    .. n_radial - 2, offset-major, then the ``_BOUNDARY`` offsets on the
    boundary ring.  No position occurs twice."""
    n_r, n_a = n_radial, n_angular
    I, J = np.meshgrid(np.arange(n_r - 1), np.arange(n_a), indexing="ij")
    j = np.arange(n_a)
    cols = []
    for di, dj in _OFFSETS:
        center = I + di == -1           # (-1, j) is (0, j + n_angular/2)
        cols.append((np.where(center, 0, I + di) * n_a
                     + (J + dj + np.where(center, n_a // 2, 0)) % n_a).ravel())
    cols += [(n_r - 1 + di) * n_a + (j + dj) % n_a for di, dj in _BOUNDARY]
    rows = np.concatenate([np.tile(np.arange((n_r - 1) * n_a), len(_OFFSETS)),
                           np.tile((n_r - 1) * n_a + j, len(_BOUNDARY))]).astype(np.int32)
    cols = np.concatenate(cols).astype(np.int32)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


@functools.lru_cache(maxsize=8)
def nested_dissection_order(n_radial, n_angular):
    """Fill-reducing elimination order p of the operator matrix on a grid shape.

    ``A[p][:, p]`` is the reordered matrix.  Recursive coordinate bisection
    (George 1973): each part of the node set is split at the median of its
    longer extent in the reference-disk points (rho cos s, rho sin s); the
    nodes of the first half that have a stencil neighbour in the second half
    form the separator, which is ordered after both halves.  Parts of at
    most ``_ND_LEAF`` nodes keep their natural order.  The graph is the one
    of ``_stencil_coo``, which depends on the shape alone: a pattern read
    off the values of an assembled matrix would lack the entries that happen
    to be exact zeros (A12 = 0 on a radially symmetric state), and an order
    built on it fills the factors of every later, curved state.
    """
    rows, cols = (a.astype(np.int64) for a in _stencil_coo(n_radial, n_angular))
    N = n_radial * n_angular
    off = rows != cols
    edges = np.unique(np.concatenate([rows[off] * N + cols[off], cols[off] * N + rows[off]]))
    a, b = edges // N, edges % N                # each edge in both directions
    rho = (np.arange(n_radial) + 0.5) / (n_radial - 0.5)
    rho[-1] = 1.0
    R, S = np.meshgrid(rho, 2.0 * np.pi * np.arange(n_angular) / n_angular, indexing="ij")
    points = np.stack([(R * np.cos(S)).ravel(), (R * np.sin(S)).ravel()], axis=1)
    second_half = np.zeros(N, dtype=bool)
    separator = np.zeros(N, dtype=bool)
    order = []

    def dissect(nodes, a, b):
        """Append the order of ``nodes``; (a, b) are the edges among them."""
        if nodes.size <= _ND_LEAF:
            order.append(nodes)
            return
        x = points[nodes]
        axis = int(np.argmax(np.ptp(x, axis=0)))
        nodes = nodes[np.argsort(x[:, axis], kind="stable")]
        first, second = nodes[:nodes.size // 2], nodes[nodes.size // 2:]
        second_half[first] = False
        second_half[second] = True
        in_a, in_b = second_half[a], second_half[b]
        cut = np.unique(a[~in_a & in_b])
        separator[cut] = True
        keep = ~in_a & ~in_b & ~separator[a] & ~separator[b]
        dissect(np.sort(first[~separator[first]]), a[keep], b[keep])
        keep = in_a & in_b
        dissect(np.sort(second), a[keep], b[keep])
        order.append(cut)

    dissect(np.arange(N), a, b)
    p = np.concatenate(order)
    p.flags.writeable = False
    return p


# SuperLU's default pivot threshold 1.0 moves the Jacobian's rows off the
# nested-dissection order and fills the factors about 20% more; at 0.1 the
# diagonal pivot stays unless ten times smaller than its column's largest entry.
_DIAG_PIVOT_THRESH = 0.1


def splu(A, *args, **kwargs):
    """``scipy.sparse.linalg.splu``, imported on the first call: only a ring
    solve that escalates factorizes, so a run that never does loads none of
    ``scipy.sparse.linalg``.  ``flow`` and ``translator`` bind this name."""
    # deferred: scipy.sparse.linalg takes about 0.4 s to import
    from scipy.sparse.linalg import splu
    return splu(A, *args, **kwargs)


class OrderedLU:
    """LU of ``A[p][:, p]`` that solves in unpermuted coordinates; ``splu`` is
    the caller's binding of this module's ``splu``, which imports scipy's on
    its first call.  SuperLU keeps the order ``p``: its own column ordering is
    off and its symmetric mode on.  The explicit zeros of A's shape-fixed
    structure are dropped first: they would only add fill."""

    def __init__(self, splu, A, p):
        self.p = p
        Ap = A[p][:, p]
        Ap.eliminate_zeros()
        self.lu = splu(Ap, permc_spec="NATURAL", diag_pivot_thresh=_DIAG_PIVOT_THRESH,
                       options=dict(SymmetricMode=True))

    def solve(self, b):
        x = np.empty_like(b)
        x[self.p] = self.lu.solve(b[self.p])
        return x


_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_RING_SWEEPS = 2     # refinement sweeps of a ring solve before it escalates to the LU


class RingSolver:
    """Solves A x = b for the matrix of one Jacobian solve: A = alpha I + beta L
    or, given ``border`` (the border row a, one value per node), the bordered
    A = [[alpha I + beta L, -1], [a^T, 0]].  L is the ``Jacobian`` that
    ``assemble_operator_matrix`` returns, and A is kept as the stencil of
    ``L.shifted`` and the border.

    Each angular mode k of the ring-averaged operator is tridiagonal in rho:
    the center crossing (-1, j) = (0, j + n_angular/2) folds the inward
    weights into the diagonal as (-1)^k, and the ghost folds into the last
    row as u[-2] + g 2i sin(theta_k) u[-1].  Mode 0 of the bordered matrix,
    singular at alpha = 0, is solved as its own bordered system of n_radial
    + 1 unknowns, with the ring means of a as its border row.  A solution is
    returned once it meets the componentwise bound (see the module
    docstring); else, and for every later solve, ``OrderedLU`` of A's CSC
    matrix (``matrix``) with the caller's ``splu`` on the
    ``nested_dissection_order`` of the grid shape, border index last, all
    built only then.  ``log``, the caller's log entry (a list), says which
    of the two serves: "ring" is appended on construction and becomes "lu"
    where the solver escalates.

    ``gamma`` (gamma_i per row, from its entry count m_i: 9, or 8 on the
    boundary ring, one more where bordered, and N in the border row) serves
    the check and ``floor``.
    """

    def __init__(self, splu, L, alpha, beta, log, border=None):
        weights, sens = L.ring
        n_r, n_a = L.weights.shape[1:]
        self._A = (L.shifted(alpha, beta), border, -1.0)
        self._abs = (abs(self._A[0]), None if border is None else np.abs(border), 1.0)
        self.lu = None
        self._splu, self._shape = splu, (n_r, n_a)
        self.log = log
        self.log.append("ring")

        counts = np.full((n_r, n_a), len(_OFFSETS))
        counts[-1] = len(_BOUNDARY)
        counts = counts.ravel()
        if border is not None:
            counts = np.append(counts + 1, n_r * n_a)
        mu = counts * _UNIT_ROUNDOFF
        self.gamma = mu / (1.0 - mu)
        theta = 2.0 * np.pi * np.arange(n_a // 2 + 1) / n_a
        di = np.array([o[0] for o in _OFFSETS])
        dj = np.array([o[1] for o in _OFFSETS])
        coef = weights[:, :, None] * np.exp(1j * dj[:, None, None] * theta)
        sub, diag, sup = (coef[di == d].sum(axis=0) for d in (-1, 0, 1))
        diag[0] += (-1.0) ** np.arange(theta.size) * sub[0]
        diag[-1] += sup[-1] * sens * 2j * np.sin(theta)
        sub[-1] += sup[-1]
        diag = alpha + beta * diag
        sub, sup = beta * sub, beta * sup
        if border is not None:
            M0 = np.zeros((n_r + 1, n_r + 1))
            i = np.arange(n_r)
            M0[i, i] = diag[:, 0].real
            M0[i[1:], i[:-1]] = sub[1:, 0].real
            M0[i[:-1], i[1:]] = sup[:-1, 0].real
            M0[:n_r, n_r] = -n_a
            M0[n_r, :n_r] = border.reshape(n_r, n_a).mean(axis=1)
            # deferred: scipy.linalg serves only the bordered mode 0, not a flow's start-up
            from scipy.linalg import lu_factor, lu_solve
            self._mode0 = functools.partial(lu_solve, lu_factor(M0, check_finite=False),
                                            check_finite=False)
            sub, diag, sup = sub[:, 1:], diag[:, 1:], sup[:, 1:]
        # Thomas elimination, batched over the modes
        low = np.zeros_like(sub)
        inv = np.empty_like(diag)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv[0] = 1.0 / diag[0]
            for i in range(1, n_r):
                low[i] = sub[i] * inv[i - 1]
                inv[i] = 1.0 / (diag[i] - low[i] * sup[i - 1])
        self._low, self._inv, self._sup = low, inv, sup

    def _thomas(self, y):
        low, inv, sup = self._low, self._inv, self._sup
        for i in range(1, y.shape[0]):
            y[i] -= low[i] * y[i - 1]
        y[-1] *= inv[-1]
        for i in range(y.shape[0] - 2, -1, -1):
            y[i] = (y[i] - sup[i] * y[i + 1]) * inv[i]
        return y

    def _ring_solve(self, b):
        n_r, n_a = self._shape
        N = n_r * n_a
        with np.errstate(all="ignore"):
            y = np.fft.rfft(b[:N].reshape(n_r, n_a), axis=1)
            x = np.empty_like(b)
            if b.size > N:
                z = self._mode0(np.append(y[:, 0].real, b[N]))
                y[:, 0], x[N] = z[:n_r], z[n_r]
                y[:, 1:] = self._thomas(y[:, 1:])
            else:
                y = self._thomas(y)
            x[:N] = np.fft.irfft(y, n=n_a, axis=1).ravel()
        return x

    @staticmethod
    def _times(x, stencil, border, corner):
        """A x for A the ``stencil``, bordered by the column ``corner`` and the
        row ``border`` where the solve is bordered."""
        N = stencil.shape[0]
        if border is None:
            return stencil @ x
        out = np.empty(N + 1)
        np.add(stencil @ x[:N], corner * x[N], out=out[:N])
        out[N] = border @ x[:N]
        return out

    def matrix(self):
        """A as a CSC matrix: built only where the solver escalates to the LU."""
        # deferred: a run whose ring solves all succeed builds no sparse matrix
        import scipy.sparse as sp
        stencil, border, _ = self._A
        rows, cols = _stencil_coo(*self._shape)
        data, N = stencil.entries(), stencil.shape[0]
        if border is not None:
            nodes, last = np.arange(N, dtype=np.int32), np.full(N, N, dtype=np.int32)
            rows, cols = np.concatenate([rows, last, nodes]), np.concatenate([cols, nodes, last])
            data, N = np.concatenate([data, border, np.full(N, -1.0)]), N + 1
        return sp.csc_matrix((data, (rows, cols)), shape=(N, N))

    def solve(self, b):
        if self.lu is None:
            x = self._ring_solve(b)
            for sweep in range(_RING_SWEEPS + 1):
                if not np.all(np.isfinite(x)):      # a sweep would keep it so
                    break
                r = b - self._times(x, *self._A)
                if np.all(np.abs(r) <= self.gamma * (self._times(np.abs(x), *self._abs)
                                                     + np.abs(b))):
                    return x
                if sweep < _RING_SWEEPS:
                    x = x + self._ring_solve(r)
            p = nested_dissection_order(*self._shape)
            if b.size > p.size:
                p = np.append(p, p.size)        # the border index last
            self.lu = OrderedLU(self._splu, self.matrix(), p)
            self.log[-1] = "lu"
        return self.lu.solve(b)

    def floor(self, x):
        """max_i gamma_i (|A| |x|)_i: gamma_i (|A| |x|)_i bounds the rounding
        error of (A x)_i (Higham, *Accuracy and Stability of Numerical
        Algorithms*, 3.1), so a residual at x below the largest of them
        carries no information."""
        return float(np.max(self.gamma * self._times(np.abs(x), *self._abs)))


def assemble_operator_matrix(q, grid: CurvilinearGrid, phi_vals):
    """Jacobian L of F (a ``Jacobian``, L as its stencil) at the state that
    ``q``, its ``flow_operator`` evaluation, was taken at: L is a function of
    the evaluation alone.

    L is the full derivative of F(u), including dg~/dDu and the nonlinear
    part of the ghost closure.  It annihilates constants, since F sees only
    derivatives.
    """
    n_r, n_a = grid.n_radial, grid.n_angular
    hr, hs = grid.hr, grid.hs

    (A11, A12, A22), (h11, h12, h22), (P1, P2) = q["gup"], q["hess"], q["P"]
    v2 = 1.0 - q["du2"]
    S, G = grid.sigma_t_inv, grid.gamma_t
    hP1 = h11 * P1 + h12 * P2          # (D^2 u P)_a
    hP2 = h12 * P1 + h22 * P2
    quad = P1 * hP1 + P2 * hP2
    B = []                             # first-order coefficients B^c
    for c, Pc in ((0, P1), (1, P2)):
        Mc = S[..., c, 0] * hP1 + S[..., c, 1] * hP2
        gG = ((A11 * G[..., c, 0, 0] + A12 * G[..., c, 1, 0])
              + (A12 * G[..., c, 0, 1] + A22 * G[..., c, 1, 1]))
        B.append(-gG + 2.0 * Mc / v2 + 2.0 * quad * Pc / v2 ** 2)
    B1, B2 = B

    padded = np.zeros((9, n_r, n_a + 2))
    W = padded[:, :, 1:-1]
    W[0] = -2.0 * A11 / hr ** 2 - 2.0 * A22 / hs ** 2      # in _OFFSETS order
    a, b = A11 / hr ** 2, B1 / (2.0 * hr)
    np.add(a, b, out=W[1])
    np.subtract(a, b, out=W[2])
    a, b = A22 / hs ** 2, B2 / (2.0 * hs)
    np.add(a, b, out=W[3])
    np.subtract(a, b, out=W[4])
    np.divide(A12, 2.0 * hr * hs, out=W[5])
    W[6] = W[5]
    np.negative(W[5], out=W[7])
    W[8] = W[7]
    # d ghost[j] / d u[-1, j+1] (the j-1 entry is its negative), with
    # dPhi/d(D_T u) = -phi q / (sqrt(1+phi^2) sqrt(1-q^2)) at q = D_T u
    dtu = q["dtu"]
    srr, srs = S[-1, :, 0, 0], S[-1, :, 0, 1]
    dphi_dq = -phi_vals * dtu / (np.sqrt(1.0 + phi_vals ** 2) * np.sqrt(1.0 - dtu ** 2))
    sens = -(hr / hs) * (srs + np.sqrt(srr) * dphi_dq / grid.sqrt_sigma_ss_bd) / srr
    # the ghost's terms g w of the weights w that reach it, at (1, 0), (1, 1), (1, -1)
    w = W[:, -1]
    g1, g5, g7 = w[1] * sens, w[5] * np.roll(sens, -1), w[7] * np.roll(sens, 1)
    boundary = np.stack([w[6] + w[7], w[2] + w[1], w[8] + w[5], -g7,     # in _BOUNDARY order
                         w[4] - g1, w[0] + g7 - g5, w[3] + g1, g5])
    return Jacobian(padded, boundary, sens)


def linearized_affine(values, grid: CurvilinearGrid, phi_vals, q):
    """Affine model F(u') ~ L u' + k around ``values``: L the Jacobian of F
    built from ``q``, the caller's operator evaluation at ``values``.

    Exact at the linearization point by construction of k.
    """
    L = assemble_operator_matrix(q, grid, phi_vals)
    return L, q["op"].ravel() - L @ values.ravel()
