"""Agreement of the derivative-table paths with the dense Jacobian they replace.

``_jacobian_batch`` below is the package's former batch Jacobian, kept
verbatim as the oracle. It builds the full (n, 2d^2, d) tensor, from which
the moments and the sandwich residuals are formed by plain matrix products
and einsums, as the package once did. The package must agree with it to
1e-12 absolute. N = 300 crosses the 256-row chunk boundary.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgraphs.estimation import accumulate_moments, fit_closed_form
from torusgraphs.exceptions import FamilyScopeError
from torusgraphs.inference import (
    MODE_FULL,
    MODE_REFLECTIONAL,
    MODE_ROTATIONAL,
    asymptotic_cov,
)
from torusgraphs.model import Family, TorusGraphParams, edge_list
from torusgraphs.sampling import GibbsConfig, gibbs_sample

from derivative_oracle import gamma_hat, jacobian_D
from test_scoring_oracle import _block_coords

ATOL = 1e-12
DIMS = (1, 2, 3, 5, 8)
N = 300
CHUNK = 256


def param_dim(d):
    return 2 * d * d


def _edge_index_arrays(d):
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    jj = np.fromiter((j for j, _ in pairs), dtype=int, count=len(pairs))
    kk = np.fromiter((k for _, k in pairs), dtype=int, count=len(pairs))
    return jj, kk


def _jacobian_batch(X):
    """Stacked Jacobians for an (n, d) angle matrix -> (n, 2d^2, d)."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    m = param_dim(d)
    D = np.zeros((n, m, d))
    nodes = np.arange(d)
    cosX = np.cos(X)
    sinX = np.sin(X)
    D[:, 2 * nodes, nodes] = -sinX
    D[:, 2 * nodes + 1, nodes] = cosX
    if d > 1:
        jj, kk = _edge_index_arrays(d)
        t = np.arange(jj.size)
        diff = X[:, jj] - X[:, kk]
        summ = X[:, jj] + X[:, kk]
        sin_d, cos_d = np.sin(diff), np.cos(diff)
        sin_s, cos_s = np.sin(summ), np.cos(summ)
        r = 2 * d + 4 * t
        D[:, r, jj] = -sin_d
        D[:, r, kk] = sin_d
        D[:, r + 1, jj] = cos_d
        D[:, r + 1, kk] = -cos_d
        D[:, r + 2, jj] = -sin_s
        D[:, r + 2, kk] = -sin_s
        D[:, r + 3, jj] = cos_s
        D[:, r + 3, kk] = cos_s
    return D


def _h_batch(X):
    """H(x) = [S1, 2 S2] per row, written out from the statistics' definition."""
    X = np.asarray(X, dtype=float)
    d = X.shape[1]
    jj, kk = _edge_index_arrays(d)
    s1 = np.empty((X.shape[0], 2 * d))
    s1[:, 0::2], s1[:, 1::2] = np.cos(X), np.sin(X)
    diff, summ = X[:, jj] - X[:, kk], X[:, jj] + X[:, kk]
    s2 = np.stack([np.cos(diff), np.sin(diff), np.cos(summ), np.sin(summ)], axis=2)
    return np.hstack([s1, 2.0 * s2.reshape(X.shape[0], -1)])


def dense_moments(X):
    """Gamma_hat and H_hat from the dense Jacobian, chunk by chunk."""
    n, d = X.shape
    gamma = np.zeros((param_dim(d), param_dim(d)))
    h = np.zeros(param_dim(d))
    for start in range(0, n, CHUNK):
        chunk = X[start : start + CHUNK]
        D = _jacobian_batch(chunk)
        flat = np.ascontiguousarray(D.transpose(1, 0, 2)).reshape(param_dim(d), -1)
        gamma += flat @ flat.T
        h += _h_batch(chunk).sum(axis=0)
    gamma /= n
    return 0.5 * (gamma + gamma.T), h / n


def dense_cov(X, params, gamma):
    """Sandwich covariance with einsum residuals and two LU solves."""
    n, d = X.shape
    D = _jacobian_batch(X)
    proj = np.einsum("nmd,m->nd", D, params.phi)
    r = np.einsum("nmd,nd->nm", D, proj) - _h_batch(X)
    V = r.T @ r / n
    idx = np.nonzero(params.active)[0]
    G = gamma[np.ix_(idx, idx)]
    inner = np.linalg.solve(G, V[np.ix_(idx, idx)])
    sigma_a = np.linalg.solve(G, inner.T).T
    sigma = np.zeros((param_dim(d), param_dim(d)))
    sigma[np.ix_(idx, idx)] = 0.5 * (sigma_a + sigma_a.T)
    return sigma


def coupled_sample(d, seed, n=N):
    """n Gibbs draws from a model with O(1) marginal and coupling blocks."""
    rng = np.random.default_rng(seed)
    params = TorusGraphParams(d=d, phi=rng.normal(scale=0.5, size=param_dim(d)))
    return gibbs_sample(params, GibbsConfig(n_samples=n, burn_in=100, seed=seed))


@pytest.mark.parametrize("d", DIMS)
def test_jacobian_matches_dense(d):
    rng = np.random.default_rng(400 + d)
    X = rng.uniform(-2 * np.pi, 4 * np.pi, size=(20, d))
    dense = _jacobian_batch(X)
    for x, ref in zip(X, dense):
        np.testing.assert_allclose(jacobian_D(x), ref, rtol=0, atol=ATOL)


@pytest.mark.parametrize("d", DIMS)
def test_moments_match_dense(d):
    X = coupled_sample(d, seed=410 + d)
    moments = accumulate_moments(X)
    gamma, h = dense_moments(X)
    assert moments.n == N
    np.testing.assert_allclose(gamma_hat(moments), gamma, rtol=0, atol=ATOL)
    np.testing.assert_allclose(moments.h_hat, h, rtol=0, atol=ATOL)


@pytest.mark.parametrize(
    "d, family, zeroed",
    [(d, f, z) for d in DIMS for f in Family for z in ((False, True) if d > 1 else (False,))],
)
def test_cov_matches_dense(d, family, zeroed):
    X = coupled_sample(d, seed=420 + d)
    zero_edges = [(0, d - 1)] if zeroed else None
    fit = fit_closed_form(X, family=family, zero_edges=zero_edges)
    cov = asymptotic_cov(X, fit.params, moments=fit.moments)
    ref = dense_cov(X, fit.params, dense_moments(X)[0])
    active = np.nonzero(fit.params.active)[0]
    sigma = np.zeros_like(ref)
    sigma[np.ix_(active, active)] = cov.block(active)
    np.testing.assert_allclose(sigma, ref, rtol=0, atol=ATOL)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_cov_blocks_match_dense(data):
    d = data.draw(st.integers(1, 6), label="d")
    n = data.draw(st.integers(5 * param_dim(d), 600), label="n")
    family = data.draw(st.sampled_from(list(Family)), label="family")
    edges = edge_list(d)
    zero_edges = []
    if edges:
        zero_edges = data.draw(st.lists(st.sampled_from(edges), unique=True), label="zero_edges")
    X = coupled_sample(d, seed=data.draw(st.integers(0, 2**32 - 1), label="seed"), n=n)
    fit = fit_closed_form(X, family=family, zero_edges=zero_edges)
    cov = asymptotic_cov(X, fit.params, moments=fit.moments)
    ref = dense_cov(X, fit.params, dense_moments(X)[0])

    def check(coords):
        np.testing.assert_allclose(cov.block(coords), ref[np.ix_(coords, coords)],
                                   rtol=0, atol=ATOL)

    for j, k in edges:
        for mode in (MODE_FULL, MODE_ROTATIONAL, MODE_REFLECTIONAL):
            try:
                _, coords = _block_coords(fit, j, k, mode)
            except FamilyScopeError:
                continue
            check(coords)
    if edges:
        check([c for j, k in edges for c in _block_coords(fit, j, k, MODE_ROTATIONAL)[1]])
    masked = np.nonzero(~fit.params.active)[0]
    if masked.size:
        active = np.nonzero(fit.params.active)[0]
        with pytest.raises(FamilyScopeError):
            cov.block(masked[:1])
        with pytest.raises(FamilyScopeError):
            cov.block(np.concatenate([active[:1], masked[-1:]]))
