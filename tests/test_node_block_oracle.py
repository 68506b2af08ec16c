"""Node-block moments against the dense accumulation they replace.

``accumulate_moments`` and ``fit_closed_form`` below are the package's former
routines, kept verbatim as the oracle except that the moments come back in
the local ``DenseMoments`` record: every 256-row chunk is scattered into a
dense 2d^2-square Gamma and the chunk matrices are tree-reduced. The package
keeps one (4d - 2)-square Gram block per node instead; Gamma products, the
blocks it assembles and the coefficients solved from them must agree with
the oracle to 1e-12 absolute, and no package path may assemble the full
Gamma_hat (a ``gamma_rfp`` triangle of every coordinate): from d = 2 on,
the sandwich writes and factors it by node-bisection blocks. The closed-form
fit and the group lasso assemble no block: their products with Gamma on the
active coordinates go through the node blocks and must agree with the
assembled block's to 1e-12 absolute, and the lasso's Lanczos step size with
the block's largest eigenvalue to 1e-10 relative.

``gamma_block`` below is the former method of that name, kept verbatim but
for taking the moments as an argument: a per-node ``np.ix_`` gather of each
block onto the coordinate set, on both triangles. The former triangle writer
(``derivative_oracle.gamma_lower``) wrote the lower triangle alone, and its
buffer must equal the lower triangle of the loop's block byte for byte, with
zeros above the diagonal. The package writes that triangle in rectangular
full packed storage (``gamma_rfp``), which must equal LAPACK's ``dtrttf`` of
the oracle's triangle byte for byte, at odd and even orders.
"""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgraphs import estimation
from torusgraphs.cli import main
from torusgraphs.estimation import (
    FitResult,
    ScoreMatchingMoments,
    _active_indices,
    _largest_eigenvalue,
    _pairwise_reduce,
    _positions,
    fit_group_lasso,
    select_lambda_cv,
    sm_objective,
)
from torusgraphs.exceptions import DomainError
from torusgraphs.inference import asymptotic_cov, bootstrap_null_test
from torusgraphs.io import save_samples_csv
from torusgraphs.model import Family, TorusGraphParams, edge_list, param_dim
from torusgraphs.sampling import GibbsConfig, gibbs_sample
from torusgraphs.simulation import gen_chain

from derivative_oracle import _derivative_table, _h_rows, _stat_chunks, gamma_hat, gamma_lower
from sandwich_oracle import _checked_cholesky

ATOL = 1e-12


@dataclass(frozen=True)
class DenseMoments:
    """Moments with Gamma_hat as a dense 2d^2-square array."""

    gamma_hat: np.ndarray
    h_hat: np.ndarray
    n: int

    @property
    def d(self):
        return int(round(np.sqrt(self.gamma_hat.shape[0] / 2)))


def accumulate_moments(data):
    """Average Gamma(x) and H(x) over the rows of an (N, d) angle matrix.

    Per chunk of rows, each node's Gram block A_l' A_l is added onto its
    4d - 2 coordinates; chunk sums are combined by a pairwise reduction as
    they are made, so the result is deterministic and order-stable to ~1e-10
    even for large N*d.
    """
    X = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = X.shape
    if n < 1:
        raise DomainError("need at least one sample")
    m = param_dim(d)
    table = _derivative_table(d)
    h_parts = []

    def grams():
        for S in _stat_chunks(X):
            g = np.zeros((m, m))
            for coords, src, sign in zip(*table):
                A = S[:, src] * sign  # dS[:, coords] / dx_l, all rows of the chunk
                g[np.ix_(coords, coords)] += A.T @ A
            h_parts.append(_h_rows(S, d).sum(axis=0))
            yield g

    # each chunk Gram scatters symmetric A'A blocks, so gamma is exactly symmetric
    gamma = _pairwise_reduce(grams())
    gamma /= n
    h = _pairwise_reduce(h_parts) / n
    return DenseMoments(gamma_hat=gamma, h_hat=h, n=n)


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
    G = moments.gamma_hat[np.ix_(idx, idx)]
    b = moments.h_hat[idx]
    cho = _checked_cholesky(G, moments.n, param_dim(d))
    phi = np.zeros(param_dim(d))
    phi[idx] = scipy.linalg.cho_solve(cho, b, check_finite=False)
    residual = float(np.max(np.abs((moments.gamma_hat @ phi)[idx] - b))) if idx.size else 0.0
    params = TorusGraphParams(d=d, phi=phi, family=family)
    return FitResult(params=params, moments=moments, method="closed_form", residual_norm=residual)


def gamma_block(moments, coords):
    """Gamma_hat restricted to ``coords`` (distinct coordinates), as a new
    C-ordered array. Each block is added in node order onto both
    triangles, so the result is exactly symmetric and may be factored in
    place."""
    coords = np.asarray(coords, dtype=int)
    pos = _positions(moments.h_hat.size, coords)
    G = np.zeros((coords.size, coords.size))
    for node_coords, B in zip(_derivative_table(moments.d)[0], moments.blocks):
        p = pos[node_coords]
        keep = np.nonzero(p >= 0)[0]
        if keep.size:
            G[np.ix_(p[keep], p[keep])] += B[np.ix_(keep, keep)]
    return G


def coupled_sample(d, n, seed):
    """n Gibbs draws from a model with O(1) marginal and coupling blocks."""
    rng = np.random.default_rng(seed)
    params = TorusGraphParams(d=d, phi=rng.normal(scale=0.5, size=param_dim(d)))
    return gibbs_sample(params, GibbsConfig(n_samples=n, burn_in=100, seed=seed))


@pytest.mark.parametrize("d, n", [(1, 5), (2, 255), (3, 257), (5, 840), (8, 300), (12, 1100)])
def test_moments_match_dense(d, n):
    X = coupled_sample(d, n, seed=450 + d)
    moments = estimation.accumulate_moments(X)
    ref = accumulate_moments(X)
    assert moments.n == ref.n == n
    assert moments.blocks.shape == (d, 4 * d - 2, 4 * d - 2)
    np.testing.assert_allclose(gamma_hat(moments), ref.gamma_hat, rtol=0, atol=ATOL)
    np.testing.assert_allclose(moments.h_hat, ref.h_hat, rtol=0, atol=ATOL)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_operator_matches_dense(data):
    d = data.draw(st.integers(1, 6), label="d")
    n = data.draw(st.integers(5 * param_dim(d), 600), label="n")
    family = data.draw(st.sampled_from(list(Family)), label="family")
    edges = edge_list(d)
    zero_edges = []
    if edges:
        zero_edges = data.draw(st.lists(st.sampled_from(edges), unique=True), label="zero_edges")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    X = coupled_sample(d, n, seed)
    moments = estimation.accumulate_moments(X)
    ref = accumulate_moments(X)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=param_dim(d))
    np.testing.assert_allclose(moments.gamma_dot(v), ref.gamma_hat @ v, rtol=0, atol=ATOL)
    assert abs(sm_objective(v, moments) - (0.5 * v @ ref.gamma_hat @ v - v @ ref.h_hat)) <= ATOL
    idx = _active_indices(d, family, zero_edges)
    for coords in (idx, rng.permutation(idx)[: max(1, idx.size // 2)]):
        L = gamma_lower(moments, coords)
        assert L.flags.f_contiguous and L.flags.writeable
        assert not np.triu(L, 1).any()
        np.testing.assert_allclose(L, np.tril(ref.gamma_hat[np.ix_(coords, coords)]),
                                   rtol=0, atol=ATOL)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_block_scatter_matches_loop(data):
    d = data.draw(st.integers(1, 8), label="d")
    n = data.draw(st.integers(1, 400), label="n")
    family = data.draw(st.sampled_from(list(Family)), label="family")
    edges = edge_list(d)
    zero_edges = []
    if edges:
        zero_edges = data.draw(st.lists(st.sampled_from(edges), unique=True), label="zero_edges")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    moments = estimation.accumulate_moments(coupled_sample(d, n, seed))
    rng = np.random.default_rng(seed)
    idx = _active_indices(d, family, zero_edges)
    m = param_dim(d)
    subsets = (
        idx,
        rng.permutation(idx)[: idx.size // 2],
        rng.choice(m, size=rng.integers(1, m + 1), replace=False),
        np.arange(0),
    )
    for coords in subsets:
        L = gamma_lower(moments, coords)
        assert L.tobytes(order="F") == np.tril(gamma_block(moments, coords)).tobytes(order="F")
        assert L.shape == (coords.size, coords.size)
        assert L.flags.f_contiguous and L.flags.writeable
        assert_rfp_matches_oracle(moments, coords)


def assert_rfp_matches_oracle(moments, coords):
    """The package's RFP triangle on ``coords`` is ``dtrttf`` of the oracle's
    lower triangle, byte for byte."""
    T = moments.gamma_rfp(coords)
    L = gamma_lower(moments, coords)
    assert T.shape == (coords.size * (coords.size + 1) // 2,)
    assert T.flags.c_contiguous and T.flags.writeable
    assert T.tobytes() == scipy.linalg.lapack.dtrttf(L, transr="N", uplo="L")[0].tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_rfp_triangle_matches_oracle(data):
    d = data.draw(st.integers(1, 6), label="d")
    n = data.draw(st.integers(1, 400), label="n")
    family = data.draw(st.sampled_from(list(Family)), label="family")
    edges = edge_list(d)
    zero_edges = []
    if edges:
        zero_edges = data.draw(st.lists(st.sampled_from(edges), unique=True), label="zero_edges")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    moments = estimation.accumulate_moments(coupled_sample(d, n, seed))
    idx = _active_indices(d, family, zero_edges)
    order, sizes = estimation._bisection_order(d, idx)
    # the active set without its last coordinate has the other parity
    for coords in (idx, idx[:-1], *np.split(order, np.cumsum(sizes)[:2])):
        assert_rfp_matches_oracle(moments, coords)


def test_rfp_triangle_matches_oracle_d48():
    X = np.random.default_rng(571).uniform(0.0, 2 * np.pi, size=(300, 48))
    moments = estimation.accumulate_moments(X)
    idx = np.arange(param_dim(48))
    order, sizes = estimation._bisection_order(48, idx)
    sets = np.split(order, np.cumsum(sizes)[:2])
    for coords in (*sets, sets[2][:-1], sets[0][::3]):
        assert_rfp_matches_oracle(moments, coords)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_active_operator_and_step_size_match_block(data):
    d = data.draw(st.integers(1, 10), label="d")
    n = data.draw(st.integers(1, 600), label="n")
    family = data.draw(st.sampled_from(list(Family)), label="family")
    edges = edge_list(d)
    zero_edges = []
    if edges:
        zero_edges = data.draw(st.lists(st.sampled_from(edges), unique=True), label="zero_edges")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    moments = estimation.accumulate_moments(coupled_sample(d, n, seed))
    rng = np.random.default_rng(seed)
    idx = _active_indices(d, family, zero_edges)
    for coords in (idx, rng.permutation(idx)[: max(1, idx.size // 2)]):
        G, block = moments.gamma_operator(coords), gamma_block(moments, coords)
        assert G.shape == block.shape
        v = rng.normal(size=coords.size)
        np.testing.assert_allclose(G @ v, block @ v, rtol=0, atol=ATOL)
        if coords.size:
            np.testing.assert_allclose(_largest_eigenvalue(G), np.linalg.eigvalsh(block)[-1],
                                       rtol=1e-10, atol=0)


@pytest.mark.parametrize(
    "d, family, zeroed",
    [(d, f, z) for d in (1, 3, 8) for f in Family for z in ((False, True) if d > 1 else (False,))],
)
def test_closed_form_matches_dense(d, family, zeroed):
    X = coupled_sample(d, max(300, 5 * param_dim(d)), seed=460 + d)
    zero_edges = [(0, d - 1)] if zeroed else None
    fit = estimation.fit_closed_form(X, family=family, zero_edges=zero_edges)
    ref = fit_closed_form(X, family=family, zero_edges=zero_edges)
    np.testing.assert_allclose(fit.params.phi, ref.params.phi, rtol=0, atol=ATOL)
    assert fit.residual_norm <= 1e-10


def test_moment_shapes_checked():
    m = estimation.accumulate_moments(coupled_sample(3, 100, seed=470))
    with pytest.raises(DomainError):
        ScoreMatchingMoments(blocks=m.blocks[:, :-1], h_hat=m.h_hat, n=m.n)
    with pytest.raises(DomainError):
        ScoreMatchingMoments(blocks=m.blocks, h_hat=m.h_hat[:-1], n=m.n)
    with pytest.raises(DomainError):
        ScoreMatchingMoments(blocks=m.blocks[0], h_hat=m.h_hat, n=m.n)
    with pytest.raises(DomainError):
        m.gamma_dot(np.zeros(m.h_hat.size + 1))


def _peak_bytes(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# at d=12 the statistics of one 256-row chunk (256 x 288 values) are nearly as
# large as Gamma itself, so that case uses fewer rows than one chunk
@pytest.mark.parametrize("d, n", [(12, 100), (24, 840)])
def test_no_full_gamma_allocated(d, n):
    X = coupled_sample(d, n, seed=480 + d)
    full = param_dim(d) ** 2 * 8
    assert _peak_bytes(estimation.accumulate_moments, X) < full
    # neither solve makes an m x m array: both work through node-block products
    assert _peak_bytes(estimation.fit_closed_form, X) < full
    assert _peak_bytes(estimation.fit_group_lasso, X, lam=0.1) < full


@pytest.fixture
def no_gamma_hat(monkeypatch):
    inner = ScoreMatchingMoments.gamma_rfp

    def guarded(self, coords):
        if np.asarray(coords).size == self.h_hat.size:
            raise AssertionError("the full Gamma_hat was assembled")
        return inner(self, coords)

    monkeypatch.setattr(ScoreMatchingMoments, "gamma_rfp", guarded)


def test_gamma_hat_guard_raises(no_gamma_hat):
    moments = estimation.accumulate_moments(coupled_sample(2, 50, seed=490))
    with pytest.raises(AssertionError):
        moments.gamma_rfp(np.arange(param_dim(2)))


def test_library_paths_never_assemble_gamma(no_gamma_hat):
    X, _ = gen_chain(N=300, d=4, xi=np.pi / 100, kappa1=0.01, kappa_eps=40.0, seed=491)
    fit = estimation.fit_closed_form(X)
    asymptotic_cov(X, fit.params, moments=fit.moments)
    lam, _ = select_lambda_cv(X, folds=3, grid=[0.01, 0.1], seed=0)
    fit_group_lasso(X, lam=lam)
    bootstrap_null_test(X[:150], null_edges=[(0, 1)], B=19, folds=2, grid=[0.05, 0.3],
                        gibbs_burn_in=50)


def test_cli_paths_never_assemble_gamma(no_gamma_hat, tmp_path):
    X, _ = gen_chain(N=300, d=4, xi=np.pi / 100, kappa1=0.01, kappa_eps=40.0, seed=492)
    data, model = tmp_path / "x.csv", tmp_path / "m.json"
    save_samples_csv(data, X)
    assert main(["fit", str(data), "--out", str(model)]) == 0
    assert main(["test", str(data), "--model", str(model), "--out", str(tmp_path / "g.json")]) == 0
    assert main(["fit", str(data), "--cv", "3", "--grid", "0.01,0.1", "--out", str(model)]) == 0
    assert main(["fit", str(data), "--lasso", "0.05", "--out", str(model)]) == 0
