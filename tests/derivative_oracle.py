"""Per-sample derivatives of the sufficient statistics, for the tests.

``jacobian_D`` and ``gamma_H_of_sample`` give the dense per-sample definition
of the score-matching moments, Gamma(x) = D D^T and H(x) = [S1, 2 S2], and
``gamma_hat`` mirrors the package's lower triangle of Gamma_hat on every
coordinate into the full 2d^2-square array, which no package path builds.
``gamma_block`` is the package's former dense assembly of Gamma_hat on a
coordinate set (``ScoreMatchingMoments.gamma_block`` and
``GammaOperator.dense``, kept verbatim in one function that takes the moments
as an argument), the oracles' factored block: a scatter onto both triangles,
of which the package now writes the lower one alone.
``_h_rows`` and ``_stat_chunks`` are the chunk helpers the former moment and
sandwich routines (kept as oracles) were written with. All of them are built
from the package's derivative table and statistics, so the finite-difference
tests on ``jacobian_D`` check that table.
"""

import numpy as np

from torusgraphs.estimation import _CHUNK
from torusgraphs.exceptions import DomainError
from torusgraphs.model import _derivative_table, param_dim, suff_stats_batch


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


def gamma_hat(moments):
    """The full 2d^2-square Gamma_hat of ScoreMatchingMoments as a C-ordered,
    read-only array: the package's lower triangle on every coordinate
    (``gamma_lower``) and its mirror image."""
    L = moments.gamma_lower(np.arange(moments.h_hat.size))
    G = np.ascontiguousarray(np.tril(L) + np.tril(L, -1).T)
    G.flags.writeable = False
    return G
