"""Per-sample derivatives of the sufficient statistics, for the tests.

``_derivative_table`` is the package's former derivative table, kept verbatim:
the coordinates of each node's derivative rows (which the package keeps as
``model._node_coords``) and the signed gather of the statistics that gives
those rows. ``accumulate_moments`` is the package's former walk over the data,
kept verbatim as the oracle of the walk that replaced it: per 256-row chunk,
the statistics, each node's derivative rows as their signed gather and the
rows' Gram block, with the chunk sums pairwise reduced.

``jacobian_D`` and ``gamma_H_of_sample`` give the dense per-sample definition
of the score-matching moments, Gamma(x) = D D^T and H(x) = [S1, 2 S2].
``gamma_lower`` and ``_lower_buffer`` are the package's former triangle
writer (``ScoreMatchingMoments.gamma_lower``, kept verbatim but for taking
the moments as an argument and one coordinate set as rows and columns),
the oracle of the rectangular full packed triangle that replaced it
(``ScoreMatchingMoments.gamma_rfp``): the lower triangle of an m-square
Fortran-ordered array whose strict upper half is never written. ``gamma_hat``
mirrors its triangle of Gamma_hat on every coordinate into the full
2d^2-square array, which no package path builds.
``gamma_block`` is the package's former dense assembly of Gamma_hat on a
coordinate set (``ScoreMatchingMoments.gamma_block`` and
``GammaOperator.dense``, kept verbatim in one function that takes the moments
as an argument), the oracles' factored block: a scatter onto both triangles,
of which the package now writes the lower one alone.
``_h_rows`` and ``_stat_chunks`` are the chunk helpers the former moment and
sandwich routines (kept as oracles) were written with. All of them are built
from the table above and the package's statistics, so the finite-difference
tests on ``jacobian_D`` check that table, and ``test_walk_oracle`` checks
its coordinates against the package's.
"""

import functools

import numpy as np

from torusgraphs.estimation import ScoreMatchingMoments, _pairwise_reduce, _positions
from torusgraphs.exceptions import DomainError
from torusgraphs.model import (
    _edge_index_arrays,
    _node_coords,
    _read_only,
    param_dim,
    suff_stats_batch,
)

_CHUNK = 256


@functools.lru_cache(maxsize=32)
def _derivative_table(d):
    """Derivatives of the sufficient statistics as a signed gather of them.

    Returns (idx, src, sign), each (d, 4d - 2): row l lists the coordinates
    that depend on x_l, so that dS[:, idx[l]] / dx_l = sign[l] * S[:, src[l]]
    for statistics S of shape (n, 2d^2). Every such coordinate is half of a
    (cos u, sin u) pair with du/dx_l = w = +-1 (-1 only for x_k in x_j - x_k),
    whose derivatives are (-w sin u, w cos u). The arrays are read-only and
    cached by d.
    """
    nodes = np.arange(d)
    jj, kk = _edge_index_arrays(d)
    rank = np.zeros((d, d), dtype=int)
    rank[jj, kk] = rank[kk, jj] = np.arange(jj.size)
    partner = np.arange(d - 1) + (np.arange(d - 1) >= nodes[:, None])  # (d, d - 1)
    start = 2 * d + 4 * rank[nodes[:, None], partner]
    cos_at = np.hstack([2 * nodes[:, None], start, start + 2])  # (d, 2d - 1) pairs
    w = np.hstack([np.ones((d, 1)), np.where(nodes[:, None] < partner, 1.0, -1.0),
                   np.ones((d, d - 1))])
    idx = np.stack([cos_at, cos_at + 1], axis=2).reshape(d, -1)
    src = np.stack([cos_at + 1, cos_at], axis=2).reshape(d, -1)
    sign = np.stack([-w, w], axis=2).reshape(d, -1)
    return _read_only(idx, src, sign)


def accumulate_moments(data):
    """Average Gamma(x) and H(x) over the rows of an (N, d) angle matrix in one
    pass of 256-row chunks: the statistics S, then each node's derivative rows
    A_l = dS[:, coords_l]/dx_l (a signed gather of S) and their Gram block
    A_l' A_l. Chunk sums are pairwise reduced as they are made (deterministic,
    order-stable to ~1e-10 for large N*d); no 2d^2-square array is made."""
    X = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = X.shape
    if n < 1:
        raise DomainError("need at least one sample")
    _, src, sign = _derivative_table(d)
    h_parts = []

    def grams():
        for start in range(0, n, _CHUNK):
            S = suff_stats_batch(X[start : start + _CHUNK])
            g = np.empty((d, src.shape[1], src.shape[1]))
            for l in range(d):
                A = S[:, src[l]]
                A *= sign[l]  # dS[:, coords_l] / dx_l, all rows of the chunk
                g[l] = A.T @ A  # a symmetric rank-k product: exactly symmetric
            h = S.sum(axis=0)
            h[2 * d :] *= 2.0  # H(x) = [S1, 2 S2]
            h_parts.append(h)
            del S, A
            yield g
            del g  # no chunk array stays alive while the next chunk is made

    blocks = _pairwise_reduce(grams())
    blocks /= n
    h = _pairwise_reduce(h_parts) / n
    return ScoreMatchingMoments(blocks=blocks, h_hat=h, n=n)


def jacobian_D(x):
    """Jacobian of the sufficient statistics: (2d^2, d), entry (i, l) is
    the partial derivative of statistic i with respect to angle l."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise DomainError("x must be a 1-D angle vector")
    d = x.size
    idx, src, sign = _derivative_table(d)
    D = np.zeros((param_dim(d), d))
    D[idx, np.arange(d)[:, None]] = sign * suff_stats_batch(x)[0][src]
    return D


def _h_rows(S, d):
    """H(x) = [S1, 2 S2] from statistic rows S -> same shape (a copy)."""
    H = S.copy()
    H[:, 2 * d :] *= 2.0
    return H


def _stat_chunks(X):
    """Statistics of fixed-size row blocks of X (a fixed summation order)."""
    for start in range(0, X.shape[0], _CHUNK):
        yield suff_stats_batch(X[start : start + _CHUNK])


def gamma_H_of_sample(x):
    """Per-sample moment contributions Gamma(x) = D D^T and H(x) = [S1, 2 S2]."""
    x = np.asarray(x, dtype=float)
    D = jacobian_D(x)
    return D @ D.T, _h_rows(suff_stats_batch(x), x.size)[0]


def gamma_block(moments, coords):
    """Gamma_hat restricted to ``coords`` (distinct coordinates), as a new
    C-ordered, exactly symmetric array: the scatter of the blocks of
    ``moments.gamma_operator(coords)``. ``add.at`` is unbuffered and runs in
    C order, so each cell gets its blocks' entries in node order onto both
    triangles. Padding adds zeros."""
    op = moments.gamma_operator(coords)
    G = np.zeros(op.shape)
    np.add.at(G, (op.position[:, :, None], op.position[:, None, :]), op.blocks)
    return G


def gamma_lower(moments, coords):
    """Gamma_hat restricted to ``coords`` (distinct coordinates), written
    onto the lower triangle of a new Fortran-ordered array whose strict
    upper half is never written (:func:`_lower_buffer`), to be factored
    where it lies. The blocks are added in node order, each onto the
    cells of its coordinates' lower triangle, so a cell holds the same
    sum as in a scatter of both triangles."""
    coords = np.asarray(coords, dtype=int)
    G = _lower_buffer(coords.size)
    cells = G.reshape(-1, order="F")  # a view: cell (i, j) is i + |coords| j
    at = _positions(moments.h_hat.size, coords)[_node_coords(moments.d)]
    for r, B in zip(at, moments.blocks):
        kept = (r[:, None] >= r) & (r >= 0)
        # one node's cells are distinct, so the buffered add adds each entry once
        cells[(r[:, None] + coords.size * r)[kept]] += B[kept]
    return G


def _lower_buffer(m):
    """A new Fortran-ordered m-square array of zeros in anonymous memory
    without huge pages. A page becomes resident when it is first written, so
    the strict upper half of a triangle that is never written costs no
    memory. numpy would give an array this large huge pages, and each of
    those spans both triangles. The mapping is released with the last array
    that views it."""
    import mmap  # only the sandwich needs it

    buf = mmap.mmap(-1, max(8 * m * m, 1))
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, count=m * m).reshape((m, m), order="F")


def gamma_hat(moments):
    """The full 2d^2-square Gamma_hat of ScoreMatchingMoments as a C-ordered,
    read-only array: the oracle's lower triangle on every coordinate
    (:func:`gamma_lower`) and its mirror image."""
    L = gamma_lower(moments, np.arange(moments.h_hat.size))
    G = np.ascontiguousarray(np.tril(L) + np.tril(L, -1).T)
    G.flags.writeable = False
    return G
