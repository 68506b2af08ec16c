"""The sandwich's node-bisection factor against the dense Cholesky it replaces.

``sandwich_oracle`` keeps the package's former sandwich: one in-place
Cholesky of the lower triangle of the whole active Gamma block, guarded by
the symmetric 1-norm read off that triangle and dpocon's condition estimate,
then ``cho_solve``. ``_checked_cholesky`` below is the routine before that
one, kept verbatim: it builds |G| for the 1-norm and lets ``cho_factor`` copy
G. The chain is checked link by link.

- The oracle's sandwich factor is bitwise equal through both routines; its
  routine allocates less than one more m x m array, reads one triangle, and
  takes the symmetric matrix's 1-norm from it.
- The package splits the active coordinates into sets A, B and S by one
  level of nested dissection over the nodes, factors Gamma by those blocks
  (``estimation.BisectionCholesky``) and orders its factor's columns by
  them. Each active coordinate's factor column, found through each record's
  position map, must agree with the oracle's to 1e-12 abs, and the condition
  estimate, made by Hager-Higham through block solves, with dpocon's to 1e-8
  relative. A singular or ill-conditioned Gamma must still raise. From d = 2
  on, no block that is factored has an order above d^2, half of 2d^2, and no
  BLAS or LAPACK call is made on an empty block. The three triangles are
  held in rectangular full packed storage; the guard's 1-norm, read from
  them, must agree with ``dlange`` on the dense symmetric matrix to 1e-14
  relative.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import sandwich_oracle
from torusgraphs import estimation, inference
from torusgraphs.estimation import (
    _COND_LIMIT,
    ScoreMatchingMoments,
    _bisection_cholesky,
    _bisection_order,
    accumulate_moments,
    fit_closed_form,
)
from torusgraphs.exceptions import SingularMomentsError
from torusgraphs.inference import asymptotic_cov
from torusgraphs.model import (
    Family,
    TorusGraphParams,
    _canonical_pairs,
    coupling_coords,
    edge_list,
    family_mask,
    param_dim,
)
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


@pytest.mark.parametrize("d, family", [(d, f) for d in (1, 3, 8) for f in Family])
def test_bitwise_equal_to_copying_cholesky(monkeypatch, d, family):
    """The oracle's sandwich factor is bitwise equal through its in-place
    routine and the copying one before it."""
    X = coupled_sample(d, max(300, 5 * param_dim(d)), seed=430 + d)
    fit = fit_closed_form(X, family=family)
    factor = sandwich_oracle.asymptotic_cov(X, fit.params, moments=fit.moments).factor
    monkeypatch.setattr(sandwich_oracle, "_checked_cholesky", _checked_cholesky)
    ref = sandwich_oracle.asymptotic_cov(X, fit.params, moments=fit.moments).factor
    assert np.array_equal(factor, ref)


def test_factors_in_place():
    d = 12
    X = coupled_sample(d, 5 * param_dim(d), seed=440)
    G = gamma_hat(accumulate_moments(X)).copy()
    tracemalloc.start()
    try:
        sandwich_oracle._checked_cholesky(G, X.shape[0], param_dim(d))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < G.nbytes


@pytest.mark.parametrize("m", [1, 2, 31, 32, 33, 100])
def test_triangle_norm_is_symmetric_norm(m):
    rng = np.random.default_rng(445 + m)
    A = rng.normal(size=(m, m))
    A += A.T
    L = np.asfortranarray(np.tril(A))
    L[np.triu_indices(m, 1)] = np.nan  # not part of the triangle
    expected = scipy.linalg.lapack.dlange("1", A)
    assert sandwich_oracle._symmetric_norm1(L) == pytest.approx(expected, rel=1e-14, abs=0)


def test_factors_one_triangle():
    d = 3
    X = coupled_sample(d, 300, seed=446)
    G = gamma_hat(accumulate_moments(X))
    L = np.asfortranarray(np.tril(G))
    L[np.triu_indices(L.shape[0], 1)] = np.nan
    ref = sandwich_oracle._checked_cholesky(G.copy(), X.shape[0], param_dim(d))
    cho = sandwich_oracle._checked_cholesky(L, X.shape[0], param_dim(d))
    assert np.shares_memory(cho[0], L)
    assert np.tril(cho[0]).tobytes() == np.tril(ref[0]).tobytes()


@pytest.mark.parametrize("small, singular", [(1e-11, False), (1e-13, True)])
def test_triangle_guard(small, singular):
    L = np.asfortranarray(np.diag([1.0, small, 1.0]))
    L[np.triu_indices(3, 1)] = np.nan
    if singular:
        with pytest.raises(SingularMomentsError, match="ill-conditioned"):
            sandwich_oracle._checked_cholesky(L, 100, 3)
    else:
        sandwich_oracle._checked_cholesky(L, 100, 3)


def assert_matches_oracle(X, params, moments):
    """The package's factor columns and condition estimate against the
    oracle's; both raise, or neither. Returns the largest factor gap."""
    idx = np.nonzero(params.active)[0]
    try:
        ref = sandwich_oracle.asymptotic_cov(X, params, moments=moments)
    except SingularMomentsError:
        with pytest.raises(SingularMomentsError):
            asymptotic_cov(X, params, moments=moments)
        return 0.0
    cov = asymptotic_cov(X, params, moments=moments)
    assert np.array_equal(cov.position >= 0, ref.position >= 0)
    assert cov.factor.flags.f_contiguous and not cov.factor.flags.writeable
    gap = np.abs(cov.factor[:, cov.position[idx]] - ref.factor[:, ref.position[idx]])
    assert gap.max(initial=0.0) <= 1e-12
    if idx.size:
        order, sizes = _bisection_order(params.d, idx)
        cond = _bisection_cholesky(moments, order, sizes, param_dim(params.d))[1]
        assert cond == pytest.approx(sandwich_oracle.dpocon_condition(moments, idx),
                                     rel=1e-8, abs=0)
    return gap.max(initial=0.0)


@pytest.mark.parametrize(
    "d, family, zeroed",
    [(d, f, z) for d in (1, 3, 8) for f in Family for z in ((False, True) if d > 1 else (False,))],
)
def test_block_factor_matches_dense(d, family, zeroed):
    X = coupled_sample(d, max(300, 5 * param_dim(d)), seed=430 + d)
    fit = fit_closed_form(X, family=family, zero_edges=[(0, d - 1)] if zeroed else None)
    assert_matches_oracle(X, fit.params, fit.moments)


def null_params(params, null_edges):
    """``params`` with the coupling blocks of ``null_edges`` set to zero."""
    phi = np.array(params.phi)
    phi[coupling_coords(params.d)[_canonical_pairs(params.d, null_edges)[1]]] = 0.0
    return TorusGraphParams(d=params.d, phi=phi, family=params.family)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_block_factor_matches_dense_property(data):
    # one sample gives a Gamma of rank d at most, singular on every family's
    # active set, which must raise on both paths
    d = data.draw(st.integers(1, 6), label="d")
    one_sample = data.draw(st.integers(0, 3), label="one_sample") == 0
    n = 1 if one_sample else data.draw(st.integers(5 * param_dim(d), 600), label="n")
    family = data.draw(st.sampled_from(list(Family)), label="family")
    edges = edge_list(d)
    zero_edges, nulled = [], []
    if edges:
        zero_edges = data.draw(st.lists(st.sampled_from(edges), unique=True), label="zero_edges")
        nulled = data.draw(st.lists(st.sampled_from(edges), unique=True), label="null_edges")
    X = coupled_sample(d, n, seed=data.draw(st.integers(0, 2**32 - 1), label="seed"))
    moments = accumulate_moments(X)
    try:
        params = fit_closed_form(X, family=family, zero_edges=zero_edges or None,
                                 moments=moments).params
    except SingularMomentsError:
        rng = np.random.default_rng(n)
        phi = rng.normal(scale=1.0 / np.sqrt(d), size=param_dim(d)) * family_mask(d, family)
        params = TorusGraphParams(d=d, phi=phi, family=family)
    assert_matches_oracle(X, null_params(params, nulled), moments)


@pytest.mark.parametrize("family", list(Family))
def test_block_factor_matches_dense_d48(family):
    rng = np.random.default_rng(570)
    X = rng.uniform(0.0, 2 * np.pi, size=(300, 48))
    phi = rng.normal(scale=1.0 / np.sqrt(48), size=param_dim(48)) * family_mask(48, family)
    params = null_params(TorusGraphParams(d=48, phi=phi, family=family), [(0, 47), (5, 9)])
    assert_matches_oracle(X, params, accumulate_moments(X))


def diagonal_moments(d, scale):
    """Moments whose Gamma_hat is diagonal: 1 on the marginals and 2 on the
    pairs (one from each of its nodes), each times ``scale`` of it."""
    blocks = np.stack([np.diag(scale[c]) for c in estimation._node_coords(d)])
    return ScoreMatchingMoments(blocks=blocks, h_hat=np.zeros(param_dim(d)), n=100)


@pytest.mark.parametrize("small", [1e-11, 1e-13, 0.0])
@pytest.mark.parametrize("coord", [1, 2, 4], ids=["set-A", "set-B", "set-S"])
def test_block_guard(coord, small):
    # at d = 2, coordinate 1 is node 0's marginal (set A), 2 node 1's (B) and
    # 4 the pair's (S)
    scale = np.ones(param_dim(2))
    scale[coord] = small
    moments = diagonal_moments(2, scale)
    order, sizes = _bisection_order(2, np.arange(param_dim(2)))
    assert sizes.tolist() == [2, 2, 4]
    if small == 0.0:
        with pytest.raises(SingularMomentsError, match="singular"):
            _bisection_cholesky(moments, order, sizes, param_dim(2))
    elif small < 1.0 / _COND_LIMIT:
        with pytest.raises(SingularMomentsError, match="ill-conditioned"):
            _bisection_cholesky(moments, order, sizes, param_dim(2))
    else:
        cond = _bisection_cholesky(moments, order, sizes, param_dim(2))[1]
        entry = small * (2.0 if coord == 4 else 1.0)  # a pair's entry is 2
        assert cond == pytest.approx(2.0 / entry, rel=1e-12)
    params = TorusGraphParams(d=2, phi=np.zeros(param_dim(2)))
    X = np.zeros((100, 2))
    if small < 1.0 / _COND_LIMIT:
        with pytest.raises(SingularMomentsError):
            inference.asymptotic_cov(X, params, moments=moments)


def rfp(A):
    """The lower triangle of the square A in rectangular full packed storage,
    by LAPACK's dtrttf, which reads nothing above the diagonal."""
    return scipy.linalg.lapack.dtrttf(np.asfortranarray(A), transr="N", uplo="L")[0]


@pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 150])
def test_block_norm_is_symmetric_norm(m):
    rng = np.random.default_rng(447 + m)
    A = rng.normal(size=(m, m))
    A += A.T
    a, b = m // 4, m // 3
    A[:a, a : a + b] = A[a : a + b, :a] = 0.0  # no coupling between A and B
    blocks = [rfp(A[s, s]) for s in (slice(0, a), slice(a, a + b), slice(a + b, m))]
    for s in (slice(0, a), slice(a, a + b)):
        blocks.append(np.asfortranarray(A[a + b :, s]))
    expected = scipy.linalg.lapack.dlange("1", A)
    assert estimation._block_norm1(*blocks) == pytest.approx(expected, rel=1e-14, abs=0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 63, 64, 65, 128, 129, 150, 151])
def test_rfp_norm_is_symmetric_norm(m):
    # one RFP triangle of odd or even order, its panels cut at any place
    rng = np.random.default_rng(449 + m)
    A = rng.normal(size=(m, m))
    A += A.T
    empty = np.zeros(0)
    blocks = (empty, empty, rfp(A), np.zeros((m, 0), order="F"), np.zeros((m, 0), order="F"))
    expected = scipy.linalg.lapack.dlange("1", A)
    assert estimation._block_norm1(*blocks) == pytest.approx(expected, rel=1e-14, abs=0)


def test_inverse_norm_estimate_is_dpocon_estimate():
    # random positive definite matrices of order 3 to 8 whose inverses have
    # random Wishart shape; on some of them the estimate comes from dlacn2's
    # final, alternating-sign vector, so every branch is taken
    rng = np.random.default_rng(0)
    final_steps = 0
    for _ in range(400):
        m = int(rng.integers(3, 9))
        Q = rng.normal(size=(m, m))
        G = np.linalg.inv(Q @ Q.T + rng.uniform(0.01, 1.0) * np.eye(m))
        G = 0.5 * (G + G.T)
        cho = scipy.linalg.cho_factor(G, lower=True)
        estimate = estimation._inverse_norm1(lambda v: scipy.linalg.cho_solve(cho, v), m)
        anorm = np.abs(G).sum(axis=0).max()
        rcond = scipy.linalg.lapack.dpocon(cho[0], anorm, uplo="L")[0]
        assert estimate * anorm == pytest.approx(1.0 / rcond, rel=1e-12, abs=0)
        b = (1.0 + np.arange(m) / (m - 1)) * (-1.0) ** np.arange(m)
        final_steps += estimate == 2.0 * np.abs(scipy.linalg.cho_solve(cho, b)).sum() / (3 * m)
    assert final_steps > 0


def record_calls(monkeypatch):
    """Record the operands of every BLAS and LAPACK call the factor and its
    solves make: the shape of each array, and each order or rank passed as a
    positional integer."""
    calls = []
    for module, names in ((scipy.linalg.blas, ("dgemm",)),
                          (scipy.linalg.lapack, ("dpftrf", "dtfsm", "dsfrk"))):
        for name in names:
            inner = getattr(module, name)

            def recorded(*args, _name=name, _inner=inner, **kwargs):
                sizes = [a for a in args if isinstance(a, (int, np.integer))]
                arrays = [a for a in list(args) + list(kwargs.values()) if isinstance(a, np.ndarray)]
                calls.append((_name, [(int(n),) for n in sizes] + [a.shape for a in arrays]))
                return _inner(*args, **kwargs)

            monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("family", list(Family))
def test_no_call_on_an_empty_block(monkeypatch, d, family):
    X = coupled_sample(d, max(100, 5 * param_dim(d)), seed=448 + d)
    params = fit_closed_form(X, family=family).params
    calls = record_calls(monkeypatch)
    asymptotic_cov(X, params)
    for name, shapes in calls:
        assert all(0 not in shape for shape in shapes), (name, shapes)
    orders = [shapes[0][0] for name, shapes in calls if name == "dpftrf"]
    assert len(orders) == np.count_nonzero(_bisection_order(d, np.nonzero(params.active)[0])[1])
    if d > 1:
        assert max(orders, default=0) <= d * d
