"""The sandwich covariance through one dense Cholesky factor, for the tests.

``_checked_cholesky``, ``_symmetric_norm1`` and ``asymptotic_cov`` are the
package's former routines, kept verbatim as the oracle of the node-bisection
factor that replaced them (``estimation.BisectionCholesky``), but for one
thing: the residual rows, which the package now writes Fortran-ordered, are
made C-ordered here, so that the solve against their transpose is still
written into them. The oracle writes the lower triangle of the whole active
Gamma block (``derivative_oracle.gamma_lower``, the package's former
triangle writer), factors it in place by ``cho_factor`` and
solves R Gamma^-1 by ``cho_solve``; its factor's columns are the active
coordinates in increasing order. ``dpocon_condition`` gives the condition
estimate that the guard of ``_checked_cholesky`` compares with 1e12.
"""

import numpy as np
import scipy.linalg

from torusgraphs.estimation import (
    _COND_LIMIT,
    _ill_conditioned,
    _positions,
    _residual_rows,
    _singular,
    accumulate_moments,
)
from torusgraphs.exceptions import DomainError
from torusgraphs.inference import SandwichCov
from torusgraphs.model import param_dim

from derivative_oracle import gamma_lower

_NORM_PANEL = 32


def _checked_cholesky(G, n, m_total):
    """Cholesky factor (for scipy.linalg.cho_solve) of a moment block, with a
    1-norm condition estimate guard.

    One triangle is read and factored where it lies, overwriting G: the
    lower triangle of G when G is Fortran-ordered, as
    :func:`derivative_oracle.gamma_lower` writes it, and otherwise that
    of G's transpose, the Fortran-ordered view of a C-ordered exactly
    symmetric block. The guard's 1-norm is the symmetric matrix's, read off
    that triangle (:func:`_symmetric_norm1`).
    """
    L = G if G.flags.f_contiguous else G.T
    anorm = _symmetric_norm1(L)
    try:
        cho = scipy.linalg.cho_factor(L, lower=True, overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise _singular(n, m_total) from exc
    if G.size == 0:
        return cho
    rcond, info = scipy.linalg.lapack.dpocon(cho[0], anorm, uplo="L")
    if info != 0 or rcond <= 0 or 1.0 / rcond > _COND_LIMIT:
        raise _ill_conditioned(np.inf if rcond <= 0 else 1.0 / rcond, n, m_total)
    return cho


def _symmetric_norm1(L):
    """1-norm of the symmetric matrix whose lower triangle is that of the
    square L, read without touching L above its diagonal but for a
    _NORM_PANEL-wide band: column j sums |L[j:, j]| and |L[j, :j]|. L is read
    in panels of _NORM_PANEL columns through one m x _NORM_PANEL work
    array."""
    m = L.shape[0]
    sums = np.zeros(m)
    work = np.empty((m, _NORM_PANEL), order="F")
    above = np.triu(np.ones((_NORM_PANEL, _NORM_PANEL), dtype=bool), 1)
    for a in range(0, m, _NORM_PANEL):
        w = min(_NORM_PANEL, m - a)
        panel = np.abs(L[a:, a : a + w], out=work[: m - a, :w])
        panel[:w][above[:w, :w]] = 0.0
        sums[a : a + w] += panel.sum(axis=0)  # the columns, diagonal included
        np.fill_diagonal(panel, 0.0)
        sums[a:] += panel.sum(axis=1)  # the rows left of the diagonal
    return float(sums.max()) if m else 0.0


def asymptotic_cov(data, params, moments=None):
    """Sandwich covariance of sqrt(N)(phi_hat - phi) on the family's active set.

    With residual rows r_n = Gamma(x_n) phi - H(x_n) on the active coordinates
    (:func:`torusgraphs.estimation._residual_rows`), V_hat = R'R / N and
    Sigma = Gamma_hat^-1 V_hat Gamma_hat^-1 = F'F for the factor
    F = R Gamma_hat^-1 / sqrt(N), which is all that is formed. The moments, if
    none are passed, are accumulated here. The lower triangle of the active
    Gamma block is written from the moments' node blocks
    (:func:`derivative_oracle.gamma_lower`) into a buffer whose upper half
    is never mapped, and factored there; the solve against R is written into R.
    ``params`` may be the fitted or a null coefficient vector. Raises
    SingularMomentsError, as the closed-form fit does, on a singular active
    block or a condition estimate above 1e12.
    """
    X = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = X.shape
    if d != params.d:
        raise DomainError(f"data dimension {d} does not match model dimension {params.d}")
    m = param_dim(d)
    if n < 1:
        raise DomainError("need at least one sample")
    if moments is None:
        moments = accumulate_moments(X)
    idx = np.nonzero(params.active)[0]
    R = np.ascontiguousarray(_residual_rows(X, params, idx))
    cho = _checked_cholesky(gamma_lower(moments, idx), moments.n, m)
    # R' is Fortran-ordered, so the solve overwrites R with R Gamma^-1
    scipy.linalg.cho_solve(cho, R.T, overwrite_b=True, check_finite=False)
    R *= 1.0 / np.sqrt(n)
    R.flags.writeable = False
    return SandwichCov(factor=R, position=_positions(m, idx), moments=moments)


def dpocon_condition(moments, coords):
    """1 / rcond of LAPACK's dpocon for Gamma_hat on ``coords``, as the guard
    of :func:`_checked_cholesky` computes it (no guard applied)."""
    L = gamma_lower(moments, coords)
    anorm = _symmetric_norm1(L)
    cho = scipy.linalg.cho_factor(L, lower=True, overwrite_a=True, check_finite=False)
    return 1.0 / scipy.linalg.lapack.dpocon(cho[0], anorm, uplo="L")[0]
