"""The closed-form fit by conjugate gradients against the Cholesky fit it replaces.

``fit_closed_form`` below is the package's former routine, kept verbatim as
the oracle: it assembles the active Gamma block and factors it under the
1-norm condition guard. The package solves the same system by CG through the
node-block operator. Two backward-stable solves of one system differ by about
cond * eps * |phi|, so on well-conditioned data the coefficients must agree
with the oracle to 1e-12 absolute and the estimating-equation residual must
be at most 1e-10. On ill-conditioned data (a chain with kappa_eps = 40) the
gate is the residual alone.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgraphs import estimation
from torusgraphs.estimation import (
    FitResult,
    GammaOperator,
    ScoreMatchingMoments,
    _active_indices,
    _checked_cholesky,
    _equation_residual,
    accumulate_moments,
)
from torusgraphs.exceptions import SingularMomentsError
from torusgraphs.model import Family, TorusGraphParams, edge_list, param_dim
from torusgraphs.sampling import GibbsConfig, gibbs_sample
from torusgraphs.simulation import gen_chain

ATOL = 1e-12
RESIDUAL = 1e-10


def fit_closed_form(data, family=Family.FULL, zero_edges=None, moments=None):
    """Solve the estimating equation on the family's active coordinate set.

    Masked coordinates are removed from the system (exact affine restriction)
    and re-embedded as zeros. Raises SingularMomentsError when the active
    moment block is singular or its condition estimate exceeds 1e12.
    """
    if moments is None:
        moments = accumulate_moments(data)
    d = moments.d
    family = Family(family)
    idx = _active_indices(d, family, zero_edges)
    b = moments.h_hat[idx]
    cho = _checked_cholesky(moments.gamma_block(idx), moments.n, param_dim(d))
    phi = np.zeros(param_dim(d))
    phi[idx] = scipy.linalg.cho_solve(cho, b, check_finite=False)
    params = TorusGraphParams(d=d, phi=phi, family=family)
    return FitResult(params=params, moments=moments, method="closed_form",
                     residual_norm=_equation_residual(moments, phi, idx))


def coupled_sample(d, n, seed):
    """n Gibbs draws from a model with O(1) marginal and coupling blocks."""
    rng = np.random.default_rng(seed)
    params = TorusGraphParams(d=d, phi=rng.normal(scale=0.5, size=param_dim(d)))
    return gibbs_sample(params, GibbsConfig(n_samples=n, burn_in=100, seed=seed))


def tree_angles(d, n, seed, kappa=1.0):
    """Angles on a uniform random recursive tree: the root uniform, each child
    its parent plus a fixed random offset plus von Mises(0, kappa) noise."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(d)
    X = np.empty((n, d))
    X[:, order[0]] = rng.uniform(0.0, 2.0 * np.pi, size=n)
    for i in range(1, d):
        parent = order[rng.integers(i)]
        X[:, order[i]] = X[:, parent] + rng.uniform(0.0, 2.0 * np.pi) + rng.vonmises(0.0, kappa, n)
    return np.mod(X, 2.0 * np.pi)


def assert_matches_oracle(moments, family, zero_edges):
    fit = estimation.fit_closed_form(None, family=family, zero_edges=zero_edges, moments=moments)
    ref = fit_closed_form(None, family=family, zero_edges=zero_edges, moments=moments)
    np.testing.assert_allclose(fit.params.phi, ref.params.phi, rtol=0, atol=ATOL)
    assert fit.residual_norm <= RESIDUAL
    return fit


@pytest.mark.parametrize(
    "d, family, zeroed",
    [(d, f, z) for d in (1, 3, 8) for f in Family for z in ((False, True) if d > 1 else (False,))],
)
def test_matches_cholesky(d, family, zeroed):
    X = coupled_sample(d, max(300, 5 * param_dim(d)), seed=500 + d)
    assert_matches_oracle(accumulate_moments(X), family, [(0, d - 1)] if zeroed else None)


def test_matches_cholesky_on_tree_data():
    moments = accumulate_moments(tree_angles(24, 840, seed=5))
    for family in Family:
        assert_matches_oracle(moments, family, None)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_matches_cholesky_property(data):
    d = data.draw(st.integers(1, 6), label="d")
    n = data.draw(st.integers(5 * param_dim(d), 600), label="n")
    family = data.draw(st.sampled_from(list(Family)), label="family")
    zero_edges = []
    if d > 1:
        zero_edges = data.draw(st.lists(st.sampled_from(edge_list(d)), unique=True),
                               label="zero_edges")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    assert_matches_oracle(accumulate_moments(coupled_sample(d, n, seed)), family, zero_edges)


@pytest.mark.parametrize("d, n, seed", [(4, 300, 491), (24, 840, 3)])
def test_ill_conditioned_chain_gated_on_residual(d, n, seed):
    X, _ = gen_chain(N=n, d=d, xi=np.pi / 100, kappa1=0.01, kappa_eps=40.0, seed=seed)
    moments = accumulate_moments(X)
    fit = estimation.fit_closed_form(None, moments=moments)
    fit_closed_form(None, moments=moments)  # the oracle accepts the system too
    assert fit.residual_norm <= RESIDUAL


@pytest.fixture
def products(monkeypatch):
    """The sizes of the GammaOperator products made during the test."""
    made = []
    inner = GammaOperator.__matmul__

    def counted(self, v):
        made.append(self.size)
        return inner(self, v)

    monkeypatch.setattr(GammaOperator, "__matmul__", counted)
    return made


def test_n_iter_counts_the_operator_products(products):
    X = coupled_sample(3, 300, seed=510)
    fit = estimation.fit_closed_form(X, family=Family.PHASE_DIFF)
    # every CG step makes one product, and the reported residual one more
    assert fit.method == "closed_form"
    assert 0 < fit.n_iter <= 20 * 12 + 100
    assert len(products) == fit.n_iter + 1
    empty = estimation.fit_closed_form(X[:, :1], family=Family.UNIFORM_MARGINAL)
    assert empty.n_iter == 0


def one_node_moments(block, h):
    """d=1 moments whose Gamma_hat is ``block`` itself."""
    return ScoreMatchingMoments(blocks=np.array([block], dtype=float),
                                h_hat=np.array(h, dtype=float), n=7)


@pytest.mark.filterwarnings("error")
def test_ritz_estimate_guards_a_converged_solve():
    # H puts little weight on the small eigenvalue, so the per-step bound
    # (1e9) stays below the limit and CG converges; the Ritz estimate taken
    # when it stops is the condition number itself, 1e13
    moments = one_node_moments([[1.0, 0.0], [0.0, 1e-13]], [1.0, 1e-2])
    with pytest.raises(SingularMomentsError, match="ill-conditioned.*N=7"):
        estimation.fit_closed_form(None, moments=moments)
    with pytest.raises(SingularMomentsError, match="ill-conditioned.*N=7"):
        fit_closed_form(None, moments=moments)
    fit = estimation.fit_closed_form(None, moments=one_node_moments([[1.0, 0.0], [0.0, 1e-11]],
                                                                     [1.0, 1e-2]))
    np.testing.assert_allclose(fit.params.phi, [1.0, 1e9], rtol=1e-12)


@pytest.mark.filterwarnings("error")
def test_stalled_solve_raises(products):
    # a non-symmetric block, which no data give, keeps CG from converging
    # while p'Gp = |p|^2 stays positive, so only the cap of 20 m + 100 steps
    # stops it
    moments = one_node_moments([[1.0, 10.0], [-10.0, 1.0]], [1.0, 1.0])
    with pytest.raises(SingularMomentsError, match="ill-conditioned.*N=7"):
        estimation.fit_closed_form(None, moments=moments)
    assert len(products) == 20 * 2 + 100
