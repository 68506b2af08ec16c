"""Score-matching estimation.

Matching the gradient of the model log-density to the data log-density
gradient turns estimation into a quadratic program: with D(x) the Jacobian of
the sufficient statistics, Gamma(x) = D D^T and H(x) = [S1, 2 S2], the
empirical objective is (1/2) phi' Gamma_hat phi - phi' H_hat, so the
unpenalized estimate solves the linear system Gamma_hat phi = H_hat. No
normalization constant is ever needed, which is the whole point: the
likelihood's normalizer is intractable here.

D is never built. Column l of D is nonzero only on the 4d - 2 coordinates
that touch node l (:func:`torusgraphs.model._node_coords`), so Gamma_hat is a
sum over nodes of (4d - 2)-square blocks B_l = A_l' A_l / N placed on those
coordinates, A_l being node l's derivative rows. Those rows are
cos x_l (F_l v) + sin x_l (G_l v) for v = (1, cos x, sin x) and fixed signed
selections F_l and G_l, so by the double angle every block follows from
M = E[v v'] and T_l = E[(cos 2x_l, sin 2x_l) v v'], and H_hat from M. The
moments' one walk over the data (:func:`accumulate_moments`) adds up those
products by one matrix product per chunk of rows, O(N d^3) work, and forms
neither the statistics nor the derivative rows. The moments keep the d
blocks, not the 2d^2-square Gamma_hat: a product with Gamma_hat, or with its
restriction to a fit's active coordinates, is one batched product over the
blocks (:class:`GammaOperator`), O(d^3). The closed-form fit solves
Gamma_hat phi = H_hat by conjugate gradients through those products, with a
condition guard read off the Lanczos tridiagonal that CG's coefficients form,
and the group lasso works through products alone. The only dense Gamma the
package builds is the sandwich covariance's, and not as one block: the
active coordinates are split by one level of nested dissection over the
nodes (:func:`_bisection_order`), Gamma_hat is zero between two of the three
sets, and its Cholesky factor is made by blocks
(:class:`BisectionCholesky`): three lower triangles, each written and
factored in LAPACK's rectangular full packed storage, n(n + 1)/2 contiguous
values for order n, and two dense rectangles. The sandwich's residual rows
Gamma(x) phi - H(x) need no derivative rows either: they follow in closed
form from the model score (:func:`_residual_rows`).

Affine submodels are handled by index deletion (rows/columns of masked
coordinates are dropped and the solution re-embedded with exact zeros). The
sparse variant adds a group penalty on each coupling block, solved by
proximal gradient with group soft-thresholding and backtracking, from a
step size set by the largest eigenvalue of the active Gamma, which ARPACK's
Lanczos iteration finds from products with the operator.
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .exceptions import ConvergenceError, DomainError, SingularMomentsError, check_seed
from .model import (
    Family,
    TorusGraphParams,
    _canonical_pairs,
    _conditional_coefficients,
    _edge_index_arrays,
    _node_coords,
    _read_only,
    coupling_coords,
    family_mask,
    param_dim,
)

_CHUNK = 256  # a chunk of the moments' walk holds no more values than _CHUNK rows of statistics
# OpenBLAS runs a matrix product of fewer multiply-adds than this on one thread
_ONE_THREAD_PRODUCT = 2**19
_MIN_ONE_THREAD_ROWS = 64
_BLOCK_GROUPS = 8  # the node blocks are assembled in about this many groups of nodes
_RESIDUAL_CHUNK = 64  # its pair temporaries stay within _CHUNK rows of statistics
_SUM_PANEL = 64  # columns of a block read at once for the sandwich's 1-norm
# the cells of a panel's square above its diagonal
_ABOVE = np.triu(np.ones((_SUM_PANEL, _SUM_PANEL), dtype=bool), 1)
_COND_LIMIT = 1e12
_CG_RTOL = 1e-14
_LASSO_MAX_ITER = 20000
_CV_TOL = 1e-8  # relative objective change that stops each cross-validation solve


@dataclass(frozen=True)
class GammaOperator:
    """Gamma_hat on a set of m coordinates, applied through the node blocks.

    ``G @ v`` for a length-m vector v is sum_l P_l' B_l P_l v, one batched
    product over the blocks, O(d^3) work with no m-square array. ``blocks``
    is (d, w, w) and ``position`` (d, w): node l's block restricted to its
    coordinates in the set, and their places in v. A node with fewer than w
    of them is padded with zero rows and columns at position 0, which add
    nothing.
    """

    blocks: np.ndarray
    position: np.ndarray
    size: int

    @property
    def shape(self):
        return (self.size, self.size)

    def __matmul__(self, v):
        out = np.matmul(self.blocks, v[self.position][:, :, None])
        return np.bincount(self.position.ravel(), weights=out.ravel(), minlength=self.size)


@dataclass(frozen=True)
class ScoreMatchingMoments:
    """Empirical moments, held by node.

    ``blocks`` is (d, 4d - 2, 4d - 2): block l is B_l = A_l' A_l / n, the Gram
    matrix of the derivatives with respect to x_l of the 4d - 2 statistics
    that depend on it (their coordinates are row l of
    ``model._node_coords(d)``), made by :func:`accumulate_moments` from the
    products of (1, cos x, sin x) without forming A_l. Gamma_hat is the sum of
    the blocks placed on those coordinates; it is applied by :meth:`gamma_dot`,
    applied on a coordinate subset by :meth:`gamma_operator`, and its lower
    triangle on one is written in rectangular full packed storage by
    :meth:`gamma_rfp`, and its rectangle on two by :meth:`gamma_rectangle`.
    ``h_hat`` is (2d^2,), and ``n`` the sample count the moments average
    over.

    The two arrays are kept, not copied, where they are float64 arrays
    already, as :func:`accumulate_moments` and :func:`_pool` make them, and
    are made read-only. So an array a caller passes in becomes the moments'
    own: it can no longer be written through that name, and must not be
    written through any other view of it.
    """

    blocks: np.ndarray
    h_hat: np.ndarray
    n: int

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=float)
        h = np.asarray(self.h_hat, dtype=float)
        d = b.shape[0] if b.ndim == 3 else 0
        if d < 1 or b.shape[1:] != (4 * d - 2, 4 * d - 2) or h.shape != (param_dim(d),):
            raise DomainError("inconsistent moment shapes")
        b.flags.writeable = False
        h.flags.writeable = False
        object.__setattr__(self, "blocks", b)
        object.__setattr__(self, "h_hat", h)

    @property
    def d(self):
        return self.blocks.shape[0]

    def gamma_dot(self, v):
        """Gamma_hat @ v for a vector over all 2d^2 coordinates."""
        v = np.asarray(v, dtype=float)
        if v.shape != self.h_hat.shape:
            raise DomainError("vector does not match the moment dimension")
        return self.gamma_operator(np.arange(v.size)) @ v

    def gamma_operator(self, coords):
        """Gamma_hat restricted to ``coords`` (distinct coordinates) as a
        :class:`GammaOperator`. The blocks are shared when every coordinate of
        every block is in the set, and otherwise gathered once here."""
        coords = np.asarray(coords, dtype=int)
        table = _positions(self.h_hat.size, coords)[_node_coords(self.d)]
        kept = table >= 0
        if kept.all():
            return GammaOperator(self.blocks, table, coords.size)
        # each node's kept columns first, in their order, then the padding
        order = np.argsort(~kept, axis=1, kind="stable")[:, : kept.sum(axis=1).max()]
        valid = np.take_along_axis(kept, order, axis=1)
        nodes = np.arange(self.d)[:, None, None]
        blocks = self.blocks[nodes, order[:, :, None], order[:, None, :]]
        blocks *= valid[:, :, None] & valid[:, None, :]
        position = np.where(valid, np.take_along_axis(table, order, axis=1), 0)
        return GammaOperator(blocks, position, coords.size)

    def gamma_rfp(self, coords):
        """Gamma_hat restricted to ``coords`` (distinct coordinates), its lower
        triangle in rectangular full packed storage (:func:`_rfp_columns`): a
        new 1-D array of the n(n + 1)/2 values for n = ``coords.size``, to be
        factored where it lies. The blocks are added in node order, each onto
        the cells of its coordinates' lower triangle, so a cell holds the same
        sum as in a scatter of both triangles."""
        coords = np.asarray(coords, dtype=int)
        n = coords.size
        T = np.zeros(n * (n + 1) // 2)
        self._add_blocks(T, coords, coords, *_rfp_columns(n), lower=True)
        return T

    def gamma_rectangle(self, rows, cols):
        """Gamma_hat on the coordinates ``rows`` by ``cols`` (each distinct),
        as a new Fortran-ordered array, the blocks added in node order."""
        rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
        G = np.zeros((rows.size, cols.size), order="F")
        # a view: cell (i, j) is i + |rows| j
        self._add_blocks(G.reshape(-1, order="F"), rows, cols, np.ones(cols.size, dtype=int),
                         rows.size * np.arange(cols.size), lower=False)
        return G

    def _add_blocks(self, cells, rows, cols, stride, start, lower):
        """Add each node's block, in node order, onto the flat ``cells``: the
        entry at (i, j), i among ``rows`` and j among ``cols``, at
        i stride[j] + start[j]; with ``lower``, the cells i >= j alone. Only
        nodes with cells in the target are visited, and only their kept
        sub-block is indexed."""
        table = _node_coords(self.d)
        at_row = _positions(self.h_hat.size, rows)[table]
        at_col = _positions(self.h_hat.size, cols)[table]
        row_kept, col_kept = at_row >= 0, at_col >= 0
        for l in np.nonzero(row_kept.any(axis=1) & col_kept.any(axis=1))[0]:
            i, j = at_row[l][row_kept[l]], at_col[l][col_kept[l]]
            place = i[:, None] * stride[j] + start[j]
            sub = self.blocks[l][np.ix_(row_kept[l], col_kept[l])]
            if lower:
                kept = i[:, None] >= j
                place, sub = place[kept], sub[kept]
            # one node's cells are distinct, so the buffered add adds each entry once
            cells[place] += sub


def _rfp_columns(n):
    """Where an order-n lower triangle lies in LAPACK's rectangular full
    packed storage with TRANSR='N', UPLO='L' (Gustavson, Wasniewski, Dongarra
    & Langou 2010, ACM TOMS 37(2)): cell (i, j), i >= j, is at
    i stride[j] + start[j]. With k = ceil(n/2), the n(n + 1)/2 values form a
    Fortran-ordered array of n + 1 - (n mod 2) rows and k columns. Column
    j < k holds the triangle's column j, below one row (n even) or none (n
    odd); the trailing triangle, of order n - k, lies transposed above them,
    its column j in row j - k."""
    k, odd = (n + 1) // 2, n % 2
    lda = n + 1 - odd
    j = np.arange(n)
    leading = j < k
    stride = np.where(leading, 1, lda)
    start = np.where(leading, 1 - odd + j * lda, j - k + (odd - k) * lda)
    return stride, start


def _positions(size, coords):
    """Place of each of ``size`` coordinates among ``coords`` (distinct
    coordinates), or -1 where it is not one of them."""
    pos = -np.ones(size, dtype=int)
    pos[coords] = np.arange(coords.size)
    return pos


def _pool(parts):
    """Moments of the union of disjoint samples from each sample's moments."""
    n = sum(p.n for p in parts)
    blocks = sum(p.blocks * p.n for p in parts) / n
    h = sum(p.h_hat * p.n for p in parts) / n
    return ScoreMatchingMoments(blocks=blocks, h_hat=h, n=n)


def _pairwise_reduce(blocks):
    """Tree-sum an iterable of equal-shape arrays (controlled rounding).

    The blocks are consumed lazily and summed in place: a binary-counter
    carry stack merges two partial sums of 2^j blocks as soon as both exist,
    and what is left is folded from the lowest level up. That is the tree of
    pairing neighbours level by level, with at most floor(log2 k) + 1
    partial sums alive for k blocks.
    """
    stack = []  # (level, partial sum of 2^level blocks), levels decreasing
    for block in blocks:
        level = 0
        while stack and stack[-1][0] == level:
            left = stack.pop()[1]
            left += block
            block = left
            level += 1
        stack.append((level, block))
    total = stack.pop()[1]
    while stack:
        left = stack.pop()[1]
        left += total
        total = left
    return total


@functools.lru_cache(maxsize=32)
def _walk_tables(d):
    """Index tables of the moments' walk at dimension d, read-only and cached
    by d. A row's v = (1, cos x_0, sin x_0, ..., cos x_(d-1), sin x_(d-1)) has
    2d + 1 entries, and its products v_i v_j (i <= j) are packed row by row:

    - ``start`` (2d + 2,): where the products of each v_i begin;
    - ``packed`` (2d + 1, 2d + 1): the place of v_i v_j, i and j in either
      order;
    - ``swapped`` (2d,): the places in v of every node's (sin, cos);
    - ``keep`` (d, 4d - 2): node l's rows among the 4d + 2 that
      :func:`_node_blocks` assembles with every node as a partner, all but
      the difference and the sum with itself."""
    size = 2 * d + 1
    i, j = np.triu_indices(size)
    packed = np.empty((size, size), dtype=np.intp)
    packed[i, j] = packed[j, i] = np.arange(i.size)
    start = np.concatenate([[0], np.cumsum(np.arange(size, 0, -1))])
    swapped = np.arange(1, size).reshape(d, 2)[:, ::-1].ravel()
    own = 2 + 2 * np.arange(d)[:, None] + [0, 1, 2 * d, 2 * d + 1]
    keep = np.stack([np.delete(np.arange(4 * d + 2), rows) for rows in own])
    return _read_only(start, packed, swapped, keep)


def _chunk_products(x, P, start):
    """[1 | cos 2x | sin 2x]' applied to the packed products v_i v_j (i <= j)
    of v = (1, cos x, sin x) for the rows x of one chunk, (2d + 1, K): row 0
    sums the products, and rows 1 + 2l and 2 + 2l weight them by cos 2x_l and
    sin 2x_l. The products are written into the first len(x) columns of P,
    (K, at least len(x)), and the double angles come from cos x and sin x."""
    n, d = x.shape
    v = np.empty((2 * d + 1, n))
    u = np.empty_like(v)
    c, s = np.cos(x.T), np.sin(x.T)
    v[0] = u[0] = 1.0
    v[1::2], v[2::2] = c, s
    np.multiply(c - s, c + s, out=u[1::2])
    np.multiply(2.0 * s, c, out=u[2::2])
    P = P[:, :n]
    for i in range(v.shape[0]):
        np.multiply(v[i], v[i:], out=P[start[i] : start[i + 1]])
    return u @ P.T


def accumulate_moments(data):
    """Average Gamma(x) and H(x) over the rows of an (N, d) angle matrix.

    With v = (1, cos x, sin x), every moment is a fixed combination of the
    entries of M = E[v v'] and T_l = E[(cos 2x_l, sin 2x_l) v v'] (see
    :func:`_node_blocks`), so the walk adds up only those. One pass over
    chunks of rows forms the products v_i v_j (i <= j) into one reused buffer
    and adds them up against (1, cos 2x, sin 2x) in one matrix product. A
    chunk's products stay within _CHUNK rows of the 2d^2 statistics, and its
    matrix product on one thread where that leaves _MIN_ONE_THREAD_ROWS rows
    or more. The chunk sums are pairwise reduced as they are made
    (deterministic, order-stable to ~1e-10 for large N*d). The node blocks,
    each exactly symmetric, and H_hat are then assembled from the sums; no
    2d^2-square array and no statistics or derivative rows are made."""
    X = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = X.shape
    if n < 1:
        raise DomainError("need at least one sample")
    tables = _walk_tables(d)
    start, packed = tables[:2]
    rows = _CHUNK * param_dim(d) // start[-1]
    one_thread = _ONE_THREAD_PRODUCT // (start[-1] * (2 * d + 1))
    if one_thread >= _MIN_ONE_THREAD_ROWS:
        # a product this small gains nothing from a second thread, and waking
        # one sometimes stalls a busy host for tens of ms
        rows = min(rows, one_thread)
    P = np.empty((start[-1], min(rows, n)))
    total = _pairwise_reduce(_chunk_products(X[a : a + rows], P, start) for a in range(0, n, rows))
    del P
    total /= 2 * n  # half of each mean, exactly: the blocks' factor 1/2
    blocks = _node_blocks(total, tables)
    return ScoreMatchingMoments(blocks=blocks, h_hat=_h_from(2.0 * total[0], packed, d), n=n)


def _h_from(m, packed, d):
    """H_hat = E[S1, 2 S2] from the packed moments m = E[v v'] by angle
    addition: S1 is v without its constant entry, and each pair's S2 comes
    from the products of its two nodes' (cos, sin)."""
    jj, kk = _edge_index_arrays(d)
    cj, sj, ck, sk = 1 + 2 * jj, 2 + 2 * jj, 1 + 2 * kk, 2 + 2 * kk
    cc, ss = m[packed[cj, ck]], m[packed[sj, sk]]
    sc, cs = m[packed[sj, ck]], m[packed[cj, sk]]
    h = np.empty(param_dim(d))
    h[: 2 * d] = m[1 : 2 * d + 1]
    h[2 * d :: 4] = 2.0 * (cc + ss)
    h[2 * d + 1 :: 4] = 2.0 * (sc - cs)
    h[2 * d + 2 :: 4] = 2.0 * (cc - ss)
    h[2 * d + 3 :: 4] = 2.0 * (sc + cs)
    return h


def _node_blocks(total, tables):
    """The node blocks (d, 4d - 2, 4d - 2) from ``total``, whose rows are
    halves of the packed moments (:func:`_walk_tables`): m = E[v v'] / 2 in
    row 0, and c = E[cos 2x_l v v'] / 2 and s = E[sin 2x_l v v'] / 2 in rows
    1 + 2l and 2 + 2l.

    Slot t of node l is the angle y = x_l + e x_p: e = 0 for its marginal,
    -1 for the difference and +1 for the sum with partner p. Its derivative
    rows are (-sin y, w cos y), w = -1 only for x_p - x_l with p < l. By angle
    addition each is cos x_l (F v) + sin x_l (G v), where F and G pick one
    signed entry of v: -sin y = cos x_l (-e sin x_p) + sin x_l (-cos x_p) and
    w cos y = cos x_l (w cos x_p) + sin x_l (-w e sin x_p). As
    cos^2 = (1 + cos 2x) / 2, sin^2 = (1 - cos 2x) / 2 and
    cos sin = (sin 2x) / 2, B_l = F Yf F' + G Yg G' + F S G' + G S F' for
    Yf = m + c, Yg = m - c and S = s, unpacked. On the partners' pairs G
    picks (cos, sin) and F (sin, cos), and the signs are fixed but for w: with
    eta = (-1, 1) on each slot's (-sin, cos) rows, F's signs are (1, w) on a
    difference and eta on a sum, G's (-1, w) and (-1, -1). The marginal's rows
    (-sin x_l, cos x_l) take v's constant entry.

    The blocks are assembled for groups of nodes at once, each with every
    node as a partner, and each node's own difference and sum are then
    dropped (``keep``). A group has about d / _BLOCK_GROUPS nodes, so its
    arrays hold about a quarter of the values of all the blocks."""
    _, packed, swapped, keep = tables
    d = keep.shape[0]
    width = 2 * d  # rows of the slots of each kind
    size = 2 * width + 2
    at_g, at_f = packed[1:, 1:], packed[np.ix_(swapped, swapped)]
    at_s = packed[swapped, 1:]
    eta = np.tile([-1.0, 1.0], d)
    eta2 = np.multiply.outer(eta, eta)
    diff, summ = slice(2, 2 + width), slice(2 + width, None)
    cos_rows = np.arange(width) % 2 == 1
    blocks = np.empty((d, size - 4, size - 4))
    group = max(1, d // _BLOCK_GROUPS)
    for first in range(0, d, group):
        nodes = np.arange(first, min(first + group, d))
        m, c, s = total[0], total[1 + 2 * nodes], total[2 + 2 * nodes]
        plus, minus = m + c, m - c
        yg = np.take(minus, at_g, axis=1)  # G Yg G' and F Yf F' up to the signs
        yf = np.take(plus, at_f, axis=1)
        sg = np.take(s, at_s, axis=1)  # F S G' up to the signs; G S F' is its transpose
        B = np.empty((nodes.size, size, size))
        # every term of the two diagonal blocks is symmetric, so they are
        # exactly symmetric
        dd = B[:, diff, diff]
        np.multiply(yg, eta2, out=dd)
        dd += yf
        r = sg * eta
        dd += r + r.transpose(0, 2, 1)
        ss = B[:, summ, summ]
        np.multiply(yf, eta2, out=ss)
        ss += yg
        r = sg * eta[:, None]
        ss -= r + r.transpose(0, 2, 1)
        ds = B[:, diff, summ]
        np.multiply(yf, eta, out=ds)
        ds -= yg * eta[:, None]
        ds -= sg
        ds += sg.transpose(0, 2, 1) * eta2
        B[:, 0, 0], B[:, 1, 1] = minus[:, 0], plus[:, 0]
        B[:, 0, 1] = B[:, 1, 0] = -s[:, 0]
        B[:, 0, diff] = -(minus[:, 1 : width + 1] * eta + s[:, swapped])
        B[:, 0, summ] = minus[:, 1 : width + 1] - eta * s[:, swapped]
        B[:, 1, diff] = plus[:, swapped] + eta * s[:, 1 : width + 1]
        B[:, 1, summ] = eta * plus[:, swapped] - s[:, 1 : width + 1]
        # w = -1: the cos rows and columns of the differences with partners p < l
        flip = np.where(cos_rows & (np.arange(width) // 2 < nodes[:, None]), -1.0, 1.0)
        B[:, : 2 + width, diff] *= flip[:, None, :]
        B[:, diff, 2:] *= flip[:, :, None]
        B[:, summ, :2] = B[:, :2, summ].transpose(0, 2, 1)
        B[:, summ, diff] = B[:, diff, summ].transpose(0, 2, 1)
        B[:, diff, :2] = B[:, :2, diff].transpose(0, 2, 1)
        for l, full in zip(nodes, B):
            blocks[l] = full[keep[l]][:, keep[l]]
    return blocks


def _residual_rows(X, params, idx):
    """Residual rows r(x) = Gamma(x) phi - H(x) of the (N, d) angles X on the
    coordinates ``idx``, in their order, as a new Fortran-ordered (N, |idx|)
    array, in closed form: Gamma(x) phi = D(x) g for the model score
    g = D(x)' phi, read off the conditional table. A
    (cos u, sin u) pair of statistics has derivative (-sin u, cos u) du/dx,
    so its entries of r are those of (i u' - c) e^(iu): u' = g_l and c = 1 for
    node l's marginal, u' = g_j -+ g_k and c = 2 for u = x_j -+ x_k, whose
    e^(iu) comes by angle addition."""
    n, d = X.shape
    rows, bias = _conditional_coefficients(params)
    rows, bias = rows.reshape(2 * d, 2 * d).T, bias.ravel()
    jj, kk = _edge_index_arrays(d)
    R = np.empty((n, idx.size), order="F")
    for start in range(0, n, _RESIDUAL_CHUNK):
        x = X[start : start + _RESIDUAL_CHUNK]
        c, s = np.cos(x), np.sin(x)
        b = np.hstack([c, s]) @ rows + bias  # column 2l is node l's b_x, 2l + 1 its b_y
        g = c * b[:, 1::2] - s * b[:, 0::2]
        z = c + 1j * s
        # the statistics' layout as (cos u, sin u) pairs: marginals, then (x_j - x_k, x_j + x_k)
        r = np.empty((len(x), d * d), dtype=complex)
        r[:, :d] = (1j * g - 1) * z
        zj, zk = z[:, jj], z[:, kk]
        r[:, d::2] = (1j * (g[:, jj] - g[:, kk]) - 2) * (zj * zk.conj())
        r[:, d + 1 :: 2] = (1j * (g[:, jj] + g[:, kk]) - 2) * (zj * zk)
        R[start : start + len(x)] = r.view(float)[:, idx]
    return R


def sm_objective(phi, moments):
    """Empirical score-matching objective (1/2) phi' Gamma phi - phi' H, with
    phi' Gamma phi = sum over nodes of phi_l' B_l phi_l."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != moments.h_hat.shape:
        raise DomainError("phi does not match the moment dimension")
    v = phi[_node_coords(moments.d)]
    quad = float(np.sum(v * np.matmul(moments.blocks, v[:, :, None])[:, :, 0]))
    return 0.5 * quad - float(phi @ moments.h_hat)


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients plus the moments and solver metadata behind them."""

    params: TorusGraphParams
    moments: ScoreMatchingMoments
    method: str
    residual_norm: float
    lam: Optional[float] = None
    n_iter: Optional[int] = None

    @property
    def n(self):
        return self.moments.n


def _active_indices(d, family, zero_edges=None):
    active = family_mask(d, family)
    active[coupling_coords(d)[_canonical_pairs(d, zero_edges)[1]]] = False
    return np.nonzero(active)[0]


def _equation_residual(moments, phi, idx):
    """max |Gamma_hat phi - H_hat| over the active coordinates ``idx``."""
    r = moments.gamma_dot(phi)[idx] - moments.h_hat[idx]
    return float(np.max(np.abs(r))) if idx.size else 0.0


def _bisection_order(d, coords):
    """``coords`` (distinct coordinates) in the column order of the
    node-bisection factor (:func:`_bisection_cholesky`), and the sizes of its
    sets A, B and S, each kept in the order of ``coords``. With h = ceil(d/2),
    A holds the marginals of nodes 0..h-1 and the pairs among them, B the
    same of nodes h..d-1, and S the pairs across. A node block touches A or
    B, never both, so Gamma_hat is exactly zero between A and B: one level of
    nested dissection over the nodes (George 1973, SIAM J. Numer. Anal. 10)."""
    h = (d + 1) // 2
    jj, kk = _edge_index_arrays(d)
    pair_set = np.where(kk < h, 0, np.where(jj >= h, 1, 2))
    sets = np.concatenate([np.repeat(np.arange(d) >= h, 2), np.repeat(pair_set, 4)])[coords]
    return coords[np.argsort(sets, kind="stable")], np.bincount(sets, minlength=3)


@dataclass(frozen=True)
class BisectionCholesky:
    """Cholesky factor L of Gamma_hat on coordinates in the order of
    :func:`_bisection_order`, held by blocks:

        L = [[L_A, 0, 0], [0, L_B, 0], [X_A, X_B, L_S]],

    L_A L_A' = G_AA, L_B L_B' = G_BB, X_A = G_SA L_A^-T, X_B = G_SB L_B^-T and
    L_S L_S' = G_SS - X_A X_A' - X_B X_B'. Each triangle is a 1-D array of its
    n(n + 1)/2 values in rectangular full packed storage
    (:func:`_rfp_columns`); X_A and X_B are dense and Fortran-ordered, and
    give the orders: |S| x |A| and |S| x |B|. From d = 2 no block has an
    order above d^2, half of 2d^2.
    """

    la: np.ndarray
    lb: np.ndarray
    ls: np.ndarray
    xa: np.ndarray
    xb: np.ndarray

    def solve(self, R):
        """R Gamma_hat^-1 written into R, a Fortran-ordered (rows, m) array
        whose columns are in L's order: Y L' = R, then Z L = Y, by blocks of
        columns."""
        a, b = self.xa.shape[1], self.xb.shape[1]
        ra, rb, rs = R[:, :a], R[:, a : a + b], R[:, a + b :]
        _triangular(self.la, ra, "T")
        _triangular(self.lb, rb, "T")
        _subtract_product(ra, self.xa, rs, 1)
        _subtract_product(rb, self.xb, rs, 1)
        _triangular(self.ls, rs, "T")
        _triangular(self.ls, rs, "N")
        _subtract_product(rs, self.xa, ra, 0)
        _subtract_product(rs, self.xb, rb, 0)
        _triangular(self.la, ra, "N")
        _triangular(self.lb, rb, "N")


def _triangular(T, Y, trans):
    """Y L^-T (``trans`` "T") or Y L^-1 ("N") into Y, for L the triangle of
    order Y.shape[1] in the RFP array T; no call on an empty block."""
    if Y.size:
        scipy.linalg.lapack.dtfsm(1.0, T, Y, transr="N", side="R", uplo="L", trans=trans,
                                  overwrite_b=1)


def _subtract_product(Y, X, C, trans):
    """C - Y X' (``trans`` 1) or C - Y X (0) into C; no call on an empty block."""
    if Y.size and C.size:
        scipy.linalg.blas.dgemm(-1.0, Y, X, beta=1.0, c=C, trans_b=trans, overwrite_c=1)


def _cholesky_in_place(T, order, n, m_total):
    """The RFP triangle T of ``order`` overwritten by its Cholesky factor. No
    call on an empty block."""
    if T.size and scipy.linalg.lapack.dpftrf(order, T, transr="N", uplo="L",
                                             overwrite_a=1)[1] != 0:
        raise _singular(n, m_total)


def _bisection_cholesky(moments, order, sizes, m_total):
    """The :class:`BisectionCholesky` of Gamma_hat on the coordinates
    ``order``, split into sets A, B and S of ``sizes`` by
    :func:`_bisection_order`, and its 1-norm condition estimate.

    The triangles G_AA, G_BB and G_SS are written by
    :meth:`ScoreMatchingMoments.gamma_rfp` and the rectangles G_SA and G_SB
    by :meth:`ScoreMatchingMoments.gamma_rectangle`; each is factored where
    it lies. The 1-norm of Gamma_hat is taken from the blocks before
    factoring (:func:`_block_norm1`) and ||Gamma_hat^-1||_1 estimated through
    solves with the factor (:func:`_inverse_norm1`), so the guard is the one
    LAPACK's dpocon applies to a dense factor. Raises SingularMomentsError on
    a block that is not positive definite or a condition estimate above
    1e12."""
    n = moments.n
    sets = np.split(order, np.cumsum(sizes)[:2])
    la, lb, ls = (moments.gamma_rfp(c) for c in sets)
    xa, xb = (moments.gamma_rectangle(sets[2], c) for c in sets[:2])
    anorm = _block_norm1(la, lb, ls, xa, xb)
    s = sizes[2]
    for T, X in ((la, xa), (lb, xb)):
        _cholesky_in_place(T, X.shape[1], n, m_total)
        _triangular(T, X, "T")
        if X.size:
            scipy.linalg.lapack.dsfrk(s, X.shape[1], -1.0, X, 1.0, ls, transr="N", uplo="L",
                                      trans="N", overwrite_c=1)
    _cholesky_in_place(ls, s, n, m_total)
    factor = BisectionCholesky(la, lb, ls, xa, xb)
    if not order.size:
        return factor, 1.0

    def solve(v):
        y = np.array(v)[None, :]  # one row, so both Fortran- and C-ordered
        factor.solve(y)
        return y[0]

    cond = anorm * _inverse_norm1(solve, order.size)
    if not cond <= _COND_LIMIT:
        raise _ill_conditioned(cond, n, m_total)
    return factor, cond


def _abs_sums(M, triangle=None):
    """Column and row sums of |M| for a view M of a Fortran-ordered array, or
    with ``triangle`` "lower" or "upper" of that triangle (or trapezoid) of
    M alone. M is read in panels of _SUM_PANEL columns through one work
    array, and across its diagonal only within a panel's square, so no copy
    of M is made."""
    rows, cols = M.shape
    col_sums, row_sums = np.zeros(cols), np.zeros(rows)
    work = np.empty((rows, _SUM_PANEL), order="F")
    for a in range(0, cols, _SUM_PANEL):
        w = min(_SUM_PANEL, cols - a)
        top = a if triangle == "lower" else 0
        end = a + w if triangle == "upper" else rows
        panel = np.abs(M[top:end, a : a + w], out=work[: end - top, :w])
        if triangle == "lower":
            panel[:w][_ABOVE[:w, :w]] = 0.0
        elif triangle == "upper":
            panel[a:][_ABOVE.T[:w, :w]] = 0.0
        col_sums[a : a + w] += panel.sum(axis=0)
        row_sums[top:end] += panel.sum(axis=1)
    return col_sums, row_sums


def _rfp_parts(T, n):
    """The order-n lower triangle in the RFP array T (:func:`_rfp_columns`)
    as two Fortran-ordered views of T: an n x k array whose lower trapezoid
    is the triangle's first k = ceil(n/2) columns, and a square array whose
    upper triangle is the transpose of the trailing triangle, of order
    n - k."""
    k, odd = (n + 1) // 2, n % 2
    W = T.reshape((n + 1 - odd, k), order="F")
    return W[1 - odd :], W[: n - k, odd:]


def _block_norm1(la, lb, ls, xa, xb):
    """1-norm of the symmetric [[G_AA, 0, G_SA'], [0, G_BB, G_SB'], [G_SA,
    G_SB, G_SS]] from the RFP triangles la, lb, ls of its diagonal blocks
    and the rectangles xa = G_SA and xb = G_SB, before any is factored. Each
    RFP triangle is read as its leading columns and its trailing triangle
    (:func:`_rfp_parts`). A column of a symmetric matrix sums the column and
    the row of its lower (or upper) triangle, less the diagonal entry
    counted twice."""
    s, a = xa.shape
    b = xb.shape[1]
    sums = np.zeros(a + b + s)

    def add(M, row, col, triangle=None):
        col_sums, row_sums = _abs_sums(M, triangle)
        if triangle:
            col_sums -= np.abs(np.diagonal(M))
        sums[col : col + M.shape[1]] += col_sums
        sums[row : row + M.shape[0]] += row_sums

    for T, at, size in ((la, 0, a), (lb, a, b), (ls, a + b, s)):
        leading, trailing = _rfp_parts(T, size)
        k = leading.shape[1]
        add(leading, at, at, "lower")
        add(trailing, at + k, at + k, "upper")
    add(xa, a + b, 0)
    add(xb, a + b, a)
    return float(sums.max()) if sums.size else 0.0


def _inverse_norm1(solve, m):
    """Estimate of ||G^-1||_1 for a symmetric G of order m >= 1, given
    ``solve(v)`` = G^-1 v: Hager's method as refined by Higham (1988, ACM
    TOMS 14), step for step the iteration of LAPACK's dlacn2 that dpocon
    runs. G^-T = G^-1, so each product with G^-T is a solve too."""
    y = solve(np.full(m, 1.0 / m))
    if m == 1:
        return abs(float(y[0]))
    est = float(np.abs(y).sum())
    signs = np.where(y >= 0, 1.0, -1.0)
    j = int(np.argmax(np.abs(solve(signs))))
    for _ in range(4):  # the iterations 2 to 5 of dlacn2
        unit = np.zeros(m)
        unit[j] = 1.0
        y = solve(unit)
        old, est = est, float(np.abs(y).sum())
        new_signs = np.where(y >= 0, 1.0, -1.0)
        if np.array_equal(new_signs, signs) or est <= old:
            break  # a repeated sign vector, or no growth
        signs = new_signs
        z = solve(signs)
        last, j = j, int(np.argmax(np.abs(z)))
        if z[last] == abs(z[j]):
            break
    alternating = (1.0 + np.arange(m) / (m - 1)) * np.where(np.arange(m) % 2, -1.0, 1.0)
    return max(est, 2.0 * float(np.abs(solve(alternating)).sum()) / (3 * m))


def _singular(n, m_total):
    return SingularMomentsError(
        f"moment matrix is singular: N={n} samples for {m_total} coefficients "
        f"(need N well above 2d)"
    )


def _ill_conditioned(cond, n, m_total):
    return SingularMomentsError(
        f"moment matrix too ill-conditioned (condition estimate {cond:.3g}): "
        f"N={n} samples for {m_total} coefficients"
    )


def _ritz_condition(diag, off):
    """Ratio of the extreme eigenvalues of the symmetric tridiagonal matrix
    with diagonal ``diag`` and off-diagonal ``off``."""
    ritz = scipy.linalg.eigvalsh_tridiagonal(diag, off)
    return ritz[-1] / ritz[0] if ritz[0] > 0 else np.inf


def _conjugate_gradient(G, b, n, m_total):
    """Solve G v = b by conjugate gradients from v = 0 (Hestenes & Stiefel
    1952), for an operator G on m coordinates that should be symmetric
    positive definite. Stops at a relative residual of _CG_RTOL. Returns
    (v, steps).

    CG's step lengths alpha_j and residual ratios beta_j are the entries of
    the Lanczos tridiagonal T of G on the Krylov space of b (Golub & Van
    Loan, Matrix Computations, section 11.3): diagonal 1/alpha_j +
    beta_(j-1)/alpha_(j-1), off-diagonal sqrt(beta_(j-1))/alpha_(j-1). T's
    extreme eigenvalues (Ritz values) lie within G's spectrum, so their ratio
    is a lower estimate of G's condition number.

    Raises SingularMomentsError, with the Cholesky guard's messages, when
    - p'Gp is not positive and finite;
    - the Ritz condition estimate exceeds _COND_LIMIT. It is taken once CG
      stops, and each step checks a lower bound on it that costs nothing:
      T's largest diagonal entry times e_1'T^-1 e_1 = b'v / b'b. The bound
      grows with v when G is (nearly) singular, so a diverging solve stops
      before v overflows;
    - CG has not converged after 20 m + 100 steps.
    The guard sees G on the Krylov space of b only, so b = 0 gives v = 0
    unchecked.
    """
    v = np.zeros(b.size)
    r = b.copy()
    p = b.copy()
    rr = rr0 = float(b @ b)
    diag, off = [], []
    carry = top = quad = 0.0
    n_iter = 0
    while rr > _CG_RTOL**2 * rr0:
        if n_iter == 20 * b.size + 100:
            raise _ill_conditioned(_ritz_condition(diag, off[:-1]), n, m_total)
        Gp = G @ p
        pGp = float(p @ Gp)
        if not (math.isfinite(pGp) and pGp > 0):
            raise _singular(n, m_total)
        alpha = rr / pGp
        diag.append(1.0 / alpha + carry)
        top = max(top, diag[-1])
        quad += alpha * rr  # b'v after this step
        if top * quad > _COND_LIMIT * rr0:
            raise _ill_conditioned(top * quad / rr0, n, m_total)
        v += alpha * p
        r -= alpha * Gp
        rr_next = float(r @ r)
        beta = rr_next / rr
        carry = beta / alpha
        off.append(math.sqrt(beta) / alpha)
        p *= beta
        p += r
        rr = rr_next
        n_iter += 1
    if diag:
        cond = _ritz_condition(diag, off[:-1])
        if cond > _COND_LIMIT:
            raise _ill_conditioned(cond, n, m_total)
    return v, n_iter


def fit_closed_form(data, family=Family.FULL, zero_edges=None, moments=None):
    """Solve the estimating equation on the family's active coordinate set.

    Masked coordinates and the blocks of ``zero_edges`` (pairs in either
    order) are removed from the system (exact affine restriction) and
    re-embedded as zeros. Gamma_hat phi = H_hat is solved on that set by
    conjugate gradients through the node blocks
    (:meth:`ScoreMatchingMoments.gamma_operator`), so no Gamma block is
    assembled; ``n_iter`` of the result counts the CG steps. Raises
    SingularMomentsError when the active moment block is singular, its
    Lanczos condition estimate exceeds 1e12 or CG stalls
    (:func:`_conjugate_gradient`).
    """
    if moments is None:
        moments = accumulate_moments(data)
    d = moments.d
    family = Family(family)
    idx = _active_indices(d, family, zero_edges)
    solution, n_iter = _conjugate_gradient(
        moments.gamma_operator(idx), moments.h_hat[idx], moments.n, param_dim(d)
    )
    phi = np.zeros(param_dim(d))
    phi[idx] = solution
    params = TorusGraphParams(d=d, phi=phi, family=family)
    return FitResult(params=params, moments=moments, method="closed_form",
                     residual_norm=_equation_residual(moments, phi, idx), n_iter=n_iter)


def _penalized_blocks(d, idx):
    """Active-coordinate positions of each penalized coupling block as an
    (E, size) index matrix. A family masks the same columns of every block; a
    zeroed edge's row goes first, so that no edge left leaves no column."""
    blocks = _positions(param_dim(d), idx)[coupling_coords(d)]
    blocks = blocks[(blocks >= 0).any(axis=1)]
    return blocks[:, (blocks >= 0).any(axis=0)]


def _group_soft_threshold(phi, blocks, shrink):
    """Shrink the 2-norm of each block of ``phi`` by ``shrink``, to zero
    below it, in place. Returns phi and the sum of the shrunk norms (each
    block's norm times its scale), the group penalty of the result over its
    weight."""
    if blocks.size == 0:
        return phi, 0.0
    vals = phi[blocks]
    norms = np.sqrt(np.add.reduce(vals * vals, axis=1))  # np.linalg.norm's own sum
    kept = norms > shrink  # so norms > 0 wherever it divides
    scale = np.where(kept, 1.0 - shrink / np.where(kept, norms, 1.0), 0.0)
    phi[blocks] = vals * scale[:, None]
    return phi, float(norms @ scale)


def _check_penalty(lam):
    lam = float(lam)
    if not (np.isfinite(lam) and lam >= 0):
        raise DomainError(f"penalty weight must be finite and >= 0, got {lam!r}")
    return lam


def _largest_eigenvalue(G):
    """Largest eigenvalue of a nonempty symmetric operator: by ARPACK's
    Lanczos iteration from the all-ones start vector (so the result is
    reproducible), or, for 2 coordinates or fewer, where ARPACK does not
    apply, from the matrix itself, read off G's products with the unit
    vectors."""
    m = G.shape[0]
    if m > 2:
        from scipy.sparse.linalg import LinearOperator, eigsh  # only the lasso needs it

        op = LinearOperator(G.shape, matvec=G.__matmul__, dtype=float)
        return float(eigsh(op, k=1, which="LA", v0=np.ones(m), return_eigenvectors=False)[0])
    cols = [G @ e for e in np.eye(m)]
    if m == 1:
        return float(cols[0][0])
    half_sum, half_diff = 0.5 * (cols[0][0] + cols[1][1]), 0.5 * (cols[0][0] - cols[1][1])
    return float(half_sum + np.hypot(half_diff, cols[0][1]))


def _lasso_system(moments, family, zero_edges):
    """The penalized problem on the family's active coordinates: their
    indices, the Gamma operator and H restricted to them, the penalty blocks
    and the initial step 1 / lambda_max(Gamma). The step depends on the
    moments only, so one eigenvalue computation serves every penalty
    weight."""
    d = moments.d
    idx = _active_indices(d, family, zero_edges)
    G = moments.gamma_operator(idx)
    b = moments.h_hat[idx]
    lipschitz = _largest_eigenvalue(G) if idx.size else 1.0
    return idx, G, b, _penalized_blocks(d, idx), 1.0 / max(lipschitz, 1e-12)


def _fista(G, b, blocks, lam, step, tol):
    """Minimise (1/2) v'Gv - v'b + lam * sum of block 2-norms from v = 0.

    Accelerated proximal gradient with function-value restart: the momentum
    sequence is reset whenever the objective rises, which keeps the method
    monotone on these often very ill-conditioned quadratics. G is a
    :class:`GammaOperator`. Each step makes two products with it: G y gives
    the gradient and the smooth part at y, and
    G cand, one per backtracking trial, gives the smooth part at the
    candidate, which the objective reuses. Both are fresh products of the
    same kind because the backtracking test compares the two smooth parts
    with a 1e-15 slack, which the rounding of a G y carried by recurrence
    exceeds. Returns (v, iterations).
    """

    def smooth(v, Gv):
        return float(0.5 * (Gv @ v) - v @ b)

    phi = np.zeros(b.size)
    y = phi.copy()
    t = 1.0
    obj = 0.0  # the objective at v = 0
    for n_iter in range(1, _LASSO_MAX_ITER + 1):
        Gy = G @ y
        grad = Gy - b
        smooth_y = smooth(y, Gy)
        while True:
            cand, penalty = _group_soft_threshold(y - step * grad, blocks, lam * step)
            smooth_cand = smooth(cand, G @ cand)
            delta = cand - y
            if smooth_cand <= smooth_y + grad @ delta + (delta @ delta) / (2 * step) + 1e-15:
                break
            step *= 0.5
            if step < 1e-18:
                raise ConvergenceError("backtracking line search underflow")
        new_obj = smooth_cand + lam * penalty
        if new_obj > obj and t > 1.0:
            # momentum overshoot: restart from the last accepted point (a
            # pure gradient step cannot increase the objective, so this
            # cannot cycle)
            y = phi.copy()
            t = 1.0
            continue
        move = cand - phi
        max_move = float(np.abs(move).max()) if cand.size else 0.0
        converged = abs(obj - new_obj) <= tol * max(1.0, abs(obj)) and max_move < 1e-8
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = cand + ((t - 1.0) / t_next) * move
        t = t_next
        phi = cand
        obj = new_obj
        if converged:
            return phi, n_iter
    raise ConvergenceError(
        f"group-lasso solver did not converge in {_LASSO_MAX_ITER} iterations "
        f"(last residual {float(np.max(np.abs(G @ phi - b))):.3g})"
    )


def fit_group_lasso(data, family=Family.FULL, lam=0.0, tol=1e-9, zero_edges=None, moments=None):
    """Group-penalized score matching: adds lam * sum over edges of the
    coupling-block 2-norm (marginal blocks unpenalized), with the blocks of
    ``zero_edges`` (pairs in either order) held at zero.

    Accelerated proximal gradient (group soft-thresholding, backtracking
    line search, momentum restarted on objective increase); converged when
    the relative objective change drops below ``tol`` and no coordinate
    moves more than 1e-8. ``lam`` must be finite and >= 0 (DomainError).
    """
    lam = _check_penalty(lam)
    if moments is None:
        moments = accumulate_moments(data)
    d = moments.d
    family = Family(family)
    idx, G, b, blocks, step = _lasso_system(moments, family, zero_edges)
    phi, n_iter = _fista(G, b, blocks, lam, step, tol)
    full = np.zeros(param_dim(d))
    full[idx] = phi
    params = TorusGraphParams(d=d, phi=full, family=family)
    residual = float(np.max(np.abs(G @ phi - b))) if idx.size else 0.0
    return FitResult(
        params=params,
        moments=moments,
        method="group_lasso",
        residual_norm=residual,
        lam=lam,
        n_iter=n_iter,
    )


def select_lambda_cv(data, family=Family.FULL, folds=5, grid=None, seed=0, zero_edges=None):
    """Pick the penalty weight by k-fold cross-validation.

    The validation loss is the held-out score-matching objective: each fold's
    moments are accumulated once, the model is trained on the remaining
    folds' pooled moments, and the trained coefficients are scored with the
    held-out moments. Each training fold's penalized system and step size
    are built once and shared by every weight in ``grid``, whose entries must
    all be finite and >= 0; ``seed``, an integer >= 0, fixes the fold split;
    ``zero_edges`` are pairs in either order. Each solve stops at
    ``tol=_CV_TOL`` of :func:`fit_group_lasso`. Returns (best lambda, table of
    (lambda, mean loss)).
    """
    return _cross_validate(data, family, folds, grid, seed, zero_edges)[:2]


def _cross_validate(data, family=Family.FULL, folds=5, grid=None, seed=0, zero_edges=None):
    """:func:`select_lambda_cv`, also returning the moments of all the data
    pooled from the folds' moments, so a refit need not accumulate again."""
    X = np.atleast_2d(np.asarray(data, dtype=float))
    n = X.shape[0]
    check_seed(seed)
    if folds < 2:
        raise DomainError("need at least 2 folds")
    if grid is None or len(grid) == 0:
        raise DomainError("need a nonempty lambda grid")
    if n < 2 * folds:
        raise DomainError(f"fold size too small: {n} samples across {folds} folds")
    lams = [_check_penalty(lam) for lam in grid]
    family = Family(family)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    fold_ids = np.array_split(order, folds)
    fold_moments = [accumulate_moments(X[ids]) for ids in fold_ids]
    losses = np.zeros((len(lams), folds))
    phi = np.zeros(param_dim(X.shape[1]))
    for f in range(folds):
        held = fold_moments[f]
        train = _pool([fm for i, fm in enumerate(fold_moments) if i != f])
        idx, G, b, blocks, step = _lasso_system(train, family, zero_edges)
        for gi, lam in enumerate(lams):
            phi[idx] = _fista(G, b, blocks, lam, step, _CV_TOL)[0]
            losses[gi, f] = sm_objective(phi, held)
    mean_loss = losses.mean(axis=1)
    best = int(np.argmin(mean_loss))
    table = [(lam, float(loss)) for lam, loss in zip(lams, mean_loss)]
    return lams[best], table, _pool(fold_moments)
