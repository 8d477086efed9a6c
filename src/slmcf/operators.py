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
assembled matrix lives in the test suite.  The nine weights are computed
from the component arrays of ``geometry.quasilinear_operator`` and written
straight into CSC data through ``operator_structure``, a per-grid-shape
cache (int32 ``indptr`` and ``indices``, and a slot map that sums the
entries several stencil entries hit in a fixed order), so an assembly does
no index work and no COO to CSC sort.  The same structure gives the graph of
``nested_dissection_order``, the shifted and bordered matrices of
``StencilStructure.shifted``, and the per-row entry counts of
``RingSolver``.  Matrices built on it share its read-only index arrays and
keep its exact zeros; ``OrderedLU`` drops those before factoring.

Every linear solve with the Jacobian goes through ``RingSolver``, which owns
all of it: from L and its ring-averaged stencil it builds the matrix of the
solve (the flow's I - dt L, or the translator's bordered [[L - eps I, -1],
[a^T, 0]] with the ring means of a for mode 0), picks the solver, logs which
one served into the caller's log entry, and gives the componentwise rounding
floor of a residual (``RingSolver.floor``).  Averaging each
stencil weight and the ghost sensitivity over s on every ring gives an
operator that is diagonal in the angular Fourier modes, with one tridiagonal
system in rho per mode: the half-offset polar grid of the fast disk solvers
(Mohseni & Colonius, J. Comput. Phys. 157, 2000; Lai, Numer. Methods PDE 17,
2001).  On rotationally symmetric states it is the Jacobian up to rounding.
Every ring solution is checked against the real matrix: after at most
``_RING_SWEEPS`` refinement sweeps it must meet the Oettli-Prager
componentwise bound |b - A x|_i <= gamma_i (|A| |x| + |b|)_i, with
gamma_i = m_i u / (1 - m_i u) for the row's m_i entries and the unit
roundoff u.  Otherwise the solver escalates to ``OrderedLU``, a sparse LU on
a nested-dissection order of the grid shape (computed only then, so a run
that never escalates computes none), which then serves every later solve on
that matrix.

Of scipy, this module imports only ``scipy.sparse`` at load.  The sparse LU
(``scipy.sparse.linalg``) is imported by ``splu`` on the first escalation,
and ``scipy.linalg`` by ``RingSolver`` where it builds a bordered mode 0: a
flow that the ring solves serve imports neither.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import scipy.sparse as sp

from .errors import SpacelikeBoundaryError
from .geometry import gradient_fields, quasilinear_operator
from .grid import CurvilinearGrid


def contact_ghost(values, grid: CurvilinearGrid, phi_vals):
    """Ghost row beyond rho = 1 enforcing the contact-angle closure.

    Returns (ghost, dtu, dn_target): the ghost values, the tangential
    derivative D_T u and the normal-derivative target phi*sqrt((1-q^2)/(1+phi^2)).
    """
    ub = values[-1]
    us = (np.roll(ub, -1) - np.roll(ub, 1)) / (2.0 * grid.hs)
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
    return ghost, dtu, dn_target


def flow_operator(values, grid: CurvilinearGrid, phi_vals, with_fields=False):
    """g~^{ab} D_a D_b u with the contact-angle ghost closure applied."""
    ghost, dtu, dn_target = contact_ghost(values, grid, phi_vals)
    q = quasilinear_operator(values, grid, ghost)
    if not with_fields:
        return q["op"]
    return dict(q, ghost=ghost, dtu=dtu, dn_target=dn_target)


def boundary_gradient_data(values, grid: CurvilinearGrid, phi_vals):
    """(D_N u, D_T u, v) on the boundary ring using the ghost-closed gradient."""
    ghost, dtu, _ = contact_ghost(values, grid, phi_vals)
    _, du2, v = gradient_fields(values, grid, ghost)
    srr = grid.sigma_t_inv[-1, :, 0, 0]
    srs = grid.sigma_t_inv[-1, :, 0, 1]
    ur = (ghost - values[-2]) / (2.0 * grid.hr)
    us = (np.roll(values[-1], -1) - np.roll(values[-1], 1)) / (2.0 * grid.hs)
    dnu = -(srr * ur + srs * us) / np.sqrt(srr)
    return dnu, dtu, v[-1]


# -- sparse assembly -----------------------------------------------------------

_OFFSETS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1))
_ND_LEAF = 64   # nested dissection stops at parts of at most this many nodes


def _stencil_coo(n_radial, n_angular):
    """The operator matrix's entries on a grid shape as a COO list (rows, cols, src)
    over the source vector, plus the stencil entries that reach the ghost row.

    The nine-point stencil at offsets ``_OFFSETS`` writes one weight per
    offset and node: the 9N stencil weights, offset-major.  ``ghost`` indexes
    the ones that reach beyond the boundary ring and ``gj`` gives their ghost
    column.  Each ghost entry w is folded into the three unknowns the ghost
    value depends on, ghost[j] = u[-2, j] + g[j] (u[-1, j+1] - u[-1, j-1]) +
    const, as w, w g and -w g.  The source vector is [the 9N weights, the G
    values w g, the G values -w g] and entry k, at (rows[k], cols[k]), holds
    source[src[k]]: first the stencil entries inside the grid, then the
    folded ones in three blocks.
    """
    n_r, n_a = n_radial, n_angular
    N = n_r * n_a
    half = n_a // 2
    I, J = np.meshgrid(np.arange(n_r), np.arange(n_a), indexing="ij")
    cols = []
    for di, dj in _OFFSETS:
        ti = I + di
        tj = (J + dj) % n_a
        # cross-center: (-1, j) is (0, j + half)
        center = ti == -1
        tj = np.where(center, (tj + half) % n_a, tj)
        ti = np.where(center, 0, ti)
        # beyond the boundary: ghost pseudo-columns N + j
        cols.append(np.where(ti == n_r, N + tj, ti * n_a + tj).ravel())
    cols = np.concatenate(cols)
    rows = np.tile(np.arange(N), len(_OFFSETS))
    beyond = cols >= N
    ghost, inside = np.flatnonzero(beyond), np.flatnonzero(~beyond)
    gj = cols[ghost] - N
    grows = rows[ghost]
    rows = np.concatenate([rows[inside], grows, grows, grows])
    cols = np.concatenate([cols[inside], (n_r - 2) * n_a + gj,
                           (n_r - 1) * n_a + (gj + 1) % n_a,
                           (n_r - 1) * n_a + (gj - 1) % n_a])
    src = np.concatenate([inside, ghost, 9 * N + np.arange(2 * ghost.size)])
    return rows, cols, src, ghost, gj


def _index_array(a):
    """A read-only int32 copy of ``a``."""
    out = np.array(a, dtype=np.int32)
    out.flags.writeable = False
    return out


def _csc(data, indices, indptr):
    """The square CSC matrix on index arrays in canonical order; it shares them."""
    n = indptr.size - 1
    A = sp.csc_matrix((data, indices, indptr), shape=(n, n))
    A.has_canonical_format = True
    return A


@dataclasses.dataclass(frozen=True, eq=False)
class StencilStructure:
    """The CSC structure of the operator matrix on one grid shape, and how
    the source vector of ``_stencil_coo`` fills it.

    Slot k of the matrix's ``data`` takes source[first[k]]; each pair
    (slots, sources) of ``adds`` then adds source[sources] at slots, so an
    entry that several stencil entries hit is their sum in COO order, as a
    COO to CSC conversion sums it.  All arrays are int32 and read-only.
    """

    indptr: np.ndarray      # N + 1 column starts
    indices: np.ndarray     # row of each slot, ascending within each column
    first: np.ndarray       # per slot: the source entry stored there
    adds: tuple             # (slots, sources) per further summand
    diag: np.ndarray        # per node: the slot of its diagonal entry
    ghost: np.ndarray       # positions of the ghost-reaching stencil weights
    gj: np.ndarray          # their ghost columns
    row_counts: np.ndarray  # entries per row

    @property
    def n_nodes(self):
        return self.indptr.size - 1

    def matrix(self, source):
        """The matrix whose entries the source vector gives; it shares the index arrays."""
        data = source[self.first]
        for slots, sources in self.adds:
            data[slots] += source[sources]
        return _csc(data, self.indices, self.indptr)

    @functools.cached_property
    def _bordered(self):
        """(indptr, indices, L's slots, border-row slots) of the bordered
        matrix: each column j < N gains row N at its end, column N holds
        rows 0 .. N-1."""
        N, nnz = self.n_nodes, self.indices.size
        indptr = np.append(self.indptr + np.arange(N + 1), nnz + 2 * N)
        slots = np.arange(nnz) + np.repeat(np.arange(N), np.diff(self.indptr))
        border = indptr[1:N + 1] - 1
        indices = np.empty(nnz + 2 * N, dtype=np.int64)
        indices[slots] = self.indices
        indices[border] = N
        indices[nnz + N:] = np.arange(N)
        return tuple(map(_index_array, (indptr, indices, slots, border)))

    def shifted(self, L, alpha, beta, border=None):
        """alpha I + beta L for an ``L`` on this structure, which it keeps,
        explicit zeros included; given ``border`` (the border row a, N
        values) the bordered [[alpha I + beta L, -1], [a^T, 0]]."""
        data = beta * L.data
        data[self.diag] += alpha
        if border is None:
            return _csc(data, self.indices, self.indptr)
        indptr, indices, slots, bslots = self._bordered
        full = np.empty(indices.size)
        full[slots] = data
        full[bslots] = border
        full[-self.n_nodes:] = -1.0
        return _csc(full, indices, indptr)


@functools.lru_cache(maxsize=8)
def operator_structure(n_radial, n_angular) -> StencilStructure:
    """The ``StencilStructure`` of a grid shape, built once per shape."""
    rows, cols, src, ghost, gj = _stencil_coo(n_radial, n_angular)
    N = n_radial * n_angular
    key = cols * N + rows
    order = np.argsort(key, kind="stable")   # column-major, COO order in a tie
    key = key[order]
    new = np.r_[True, key[1:] != key[:-1]]
    slot = np.cumsum(new) - 1
    rank = np.arange(key.size) - np.flatnonzero(new)[slot]
    indices = key[new] % N
    indptr = np.searchsorted(key[new] // N, np.arange(N + 1))
    diag = np.flatnonzero(indices == np.repeat(np.arange(N), np.diff(indptr)))
    adds = tuple((_index_array(slot[rank == r]), _index_array(src[order[rank == r]]))
                 for r in range(1, int(rank.max()) + 1))
    return StencilStructure(
        indptr=_index_array(indptr), indices=_index_array(indices),
        first=_index_array(src[order[new]]), adds=adds, diag=_index_array(diag),
        ghost=_index_array(ghost), gj=_index_array(gj),
        row_counts=_index_array(np.bincount(indices, minlength=N)))


@functools.lru_cache(maxsize=8)
def nested_dissection_order(n_radial, n_angular):
    """Fill-reducing elimination order p of the operator matrix on a grid shape.

    ``A[p][:, p]`` is the reordered matrix.  Recursive coordinate bisection
    (George 1973): each part of the node set is split at the median of its
    longer extent in the reference-disk points (rho cos s, rho sin s); the
    nodes of the first half that have a stencil neighbour in the second half
    form the separator, which is ordered after both halves.  Parts of at
    most ``_ND_LEAF`` nodes keep their natural order.  The graph is the one
    of ``operator_structure``, which depends on the shape alone: a pattern
    read off the values of an assembled matrix would lack the entries that
    happen to be exact zeros (A12 = 0 on a radially symmetric state), and an
    order built on it fills the factors of every later, curved state.
    """
    st = operator_structure(n_radial, n_angular)
    N = st.n_nodes
    graph = sp.csc_matrix((np.ones(st.indices.size), st.indices, st.indptr), shape=(N, N))
    graph = (graph + graph.T).tocoo()           # symmetric
    loop = graph.row == graph.col
    a, b = graph.row[~loop], graph.col[~loop]   # each edge in both directions
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
    A = [[alpha I + beta L, -1], [a^T, 0]].  L is the Jacobian that
    ``assemble_operator_matrix`` returned together with ``ring``, its
    ring-averaged stencil, and A is built on L's ``operator_structure``.

    Each angular mode k of the ring-averaged operator is tridiagonal in rho:
    the center crossing (-1, j) = (0, j + n_angular/2) folds the inward
    weights into the diagonal as (-1)^k, and the ghost folds into the last
    row as u[-2] + g 2i sin(theta_k) u[-1].  Mode 0 of the bordered matrix,
    singular at alpha = 0, is solved as its own bordered system of n_radial
    + 1 unknowns, with the ring means of a as its border row.  A solution is
    returned once it meets the componentwise bound (see the module
    docstring); else, and for every later solve, ``OrderedLU`` of A with the
    caller's ``splu`` on the ``nested_dissection_order`` of the grid shape,
    border index last, computed only then.  ``log``, the caller's log entry
    (a list), says which of the two serves: "ring" is appended on
    construction and becomes "lu" where the solver escalates.

    ``abs`` (|A|, on A's index arrays) and ``gamma`` (gamma_i per row) serve
    the check and ``floor``.
    """

    def __init__(self, splu, L, ring, alpha, beta, border=None, log=None):
        weights, sens = ring
        n_r = weights.shape[1]
        n_a = L.shape[0] // n_r
        st = operator_structure(n_r, n_a)
        self.A = A = st.shifted(L, alpha, beta, border=border)
        self.abs = _csc(np.abs(A.data), A.indices, A.indptr)
        self.lu = None
        self._splu, self._shape = splu, (n_r, n_a)
        self.log = [] if log is None else log
        self.log.append("ring")

        counts = st.row_counts
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

    def solve(self, b):
        if self.lu is None:
            x = self._ring_solve(b)
            for sweep in range(_RING_SWEEPS + 1):
                r = b - self.A @ x
                if (np.all(np.isfinite(x)) and
                        np.all(np.abs(r) <= self.gamma * (self.abs @ np.abs(x) + np.abs(b)))):
                    return x
                if sweep < _RING_SWEEPS:
                    x = x + self._ring_solve(r)
            p = nested_dissection_order(*self._shape)
            if self.A.shape[0] > p.size:
                p = np.append(p, p.size)        # the border index last
            self.lu = OrderedLU(self._splu, self.A, p)
            self.log[-1] = "lu"
        return self.lu.solve(b)

    def floor(self, x):
        """max_i gamma_i (|A| |x|)_i: gamma_i (|A| |x|)_i bounds the rounding
        error of (A x)_i (Higham, *Accuracy and Stability of Numerical
        Algorithms*, 3.1), so a residual at x below the largest of them
        carries no information."""
        return float(np.max(self.gamma * (self.abs @ np.abs(x))))


def assemble_operator_matrix(values, grid: CurvilinearGrid, phi_vals):
    """Jacobian L of F at ``values`` (CSC) and the operator evaluation there.

    L is the full derivative of F(u), including dg~/dDu and the nonlinear
    part of the ghost closure.  It annihilates constants, since F sees only
    derivatives.  Its entries sit on the ``operator_structure`` of the grid
    shape, exact zeros included, and it shares that structure's index
    arrays.  ``q["stencil"]`` holds the nine stencil weights (9 x n_radial x
    n_angular, in ``_OFFSETS`` order) and the ghost sensitivity g per
    boundary node; ``q["ring"]`` their ring means (9 x n_radial, and one
    number): the ring-averaged stencil that ``RingSolver`` takes.
    """
    n_r, n_a = grid.n_radial, grid.n_angular
    N = n_r * n_a
    hr, hs = grid.hr, grid.hs
    st = operator_structure(n_r, n_a)

    q = flow_operator(values, grid, phi_vals, with_fields=True)
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

    G_n = st.ghost.size
    source = np.empty(9 * N + 2 * G_n)     # see _stencil_coo
    W = source[:9 * N].reshape(9, n_r, n_a)
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
    folded = source[st.ghost] * sens[st.gj]
    source[9 * N:9 * N + G_n] = folded
    np.negative(folded, out=source[9 * N + G_n:])

    q["stencil"] = (W, sens)
    q["ring"] = (W.mean(axis=2), float(np.mean(sens)))
    return st.matrix(source), q


def linearized_affine(values, grid: CurvilinearGrid, phi_vals):
    """Affine model F(u') ~ L u' + k around ``values``: L the Jacobian of F.

    Exact at the linearization point by construction of k.
    """
    L, q = assemble_operator_matrix(values, grid, phi_vals)
    k = q["op"].ravel() - L @ values.ravel()
    return L, k, q
