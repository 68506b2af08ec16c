"""The in-place Cholesky of a moment block against the routine it replaces.

``_checked_cholesky`` below is the package's former routine, kept verbatim
as the oracle: it builds |G| for the 1-norm and lets ``cho_factor`` copy G.
The package takes the 1-norm with LAPACK and factors G where it lies. LAPACK
sees the same matrix either way, so the sandwich factor must be bitwise equal
through both routines, and the package routine must allocate less than one
more m x m array. The closed-form fit no longer factors: it is gated against
the Cholesky fit in test_cg_oracle.py.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from torusgraphs import estimation, inference
from torusgraphs.estimation import _COND_LIMIT, accumulate_moments, fit_closed_form
from torusgraphs.exceptions import SingularMomentsError
from torusgraphs.inference import asymptotic_cov
from torusgraphs.model import Family, TorusGraphParams, param_dim
from torusgraphs.sampling import GibbsConfig, gibbs_sample

from derivative_oracle import gamma_hat

def _checked_cholesky(G, n, m_total):
    """Cholesky factor (for scipy.linalg.cho_solve) of a moment block, with a
    1-norm condition estimate guard."""
    try:
        cho = scipy.linalg.cho_factor(G, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMomentsError(
            f"moment matrix is singular: N={n} samples for {m_total} coefficients "
            f"(need N well above 2d)"
        ) from exc
    if G.size == 0:
        return cho
    anorm = np.abs(G).sum(axis=0).max()
    rcond, info = scipy.linalg.lapack.dpocon(cho[0], anorm, uplo="L")
    if info != 0 or rcond <= 0 or 1.0 / rcond > _COND_LIMIT:
        cond = np.inf if rcond <= 0 else 1.0 / rcond
        raise SingularMomentsError(
            f"moment matrix too ill-conditioned (condition estimate {cond:.3g}): "
            f"N={n} samples for {m_total} coefficients"
        )
    return cho


def coupled_sample(d, n, seed):
    """n Gibbs draws from a model with O(1) marginal and coupling blocks."""
    rng = np.random.default_rng(seed)
    params = TorusGraphParams(d=d, phi=rng.normal(scale=0.5, size=param_dim(d)))
    return gibbs_sample(params, GibbsConfig(n_samples=n, burn_in=100, seed=seed))


def fit_and_factor(X, family):
    fit = fit_closed_form(X, family=family)
    return fit.params.phi, asymptotic_cov(X, fit.params, moments=fit.moments).factor


@pytest.mark.parametrize("d, family", [(d, f) for d in (1, 3, 8) for f in Family])
def test_bitwise_equal_to_copying_cholesky(monkeypatch, d, family):
    """The sandwich factor is bitwise equal through both routines. The fit
    solves by conjugate gradients and no longer passes through either, so its
    half checks only that two identical CG solves agree."""
    X = coupled_sample(d, max(300, 5 * param_dim(d)), seed=430 + d)
    phi, factor = fit_and_factor(X, family)
    monkeypatch.setattr(estimation, "_checked_cholesky", _checked_cholesky)
    monkeypatch.setattr(inference, "_checked_cholesky", _checked_cholesky)
    ref_phi, ref_factor = fit_and_factor(X, family)
    assert np.array_equal(phi, ref_phi)
    assert np.array_equal(factor, ref_factor)


def test_factors_in_place():
    d = 12
    X = coupled_sample(d, 5 * param_dim(d), seed=440)
    G = gamma_hat(accumulate_moments(X)).copy()
    tracemalloc.start()
    try:
        estimation._checked_cholesky(G, X.shape[0], param_dim(d))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < G.nbytes
