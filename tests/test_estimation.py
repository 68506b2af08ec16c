"""Tests for score-matching estimation."""

import numpy as np
import pytest

from torusgraphs import estimation
from torusgraphs.estimation import (
    FitResult,
    ScoreMatchingMoments,
    _pairwise_reduce,
    accumulate_moments,
    fit_closed_form,
    fit_group_lasso,
    select_lambda_cv,
    sm_objective,
)
from torusgraphs.exceptions import DomainError, SingularMomentsError
from torusgraphs.model import (
    Family,
    TorusGraphParams,
    coupling_slice,
    edge_list,
    family_mask,
    param_dim,
    suff_stats,
)
from torusgraphs.sampling import GibbsConfig, gibbs_sample
from torusgraphs.simulation import gen_chain

from conftest import finite_difference_jacobian
from derivative_oracle import gamma_H_of_sample, gamma_hat, jacobian_D


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name so each call adds one to the returned one-item list."""
    calls = [0]
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestJacobian:
    def test_d1_at_zero(self):
        np.testing.assert_array_equal(jacobian_D(np.array([0.0])), [[0.0], [1.0]])

    def test_d2_at_origin(self):
        D = jacobian_D(np.zeros(2))
        expected = np.zeros((8, 2))
        expected[1] = [1, 0]   # d sin(x1)
        expected[3] = [0, 1]   # d sin(x2)
        expected[5] = [1, -1]  # d sin(x1 - x2)
        expected[7] = [1, 1]   # d sin(x1 + x2)
        np.testing.assert_array_equal(D, expected)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(31)
        for d in range(1, 7):
            for _ in range(10):
                x = rng.uniform(0, 2 * np.pi, d)
                fd = finite_difference_jacobian(lambda v: suff_stats(v).full, x)
                assert np.max(np.abs(jacobian_D(x) - fd)) < 1e-6


class TestGammaH:
    def test_h_single_node(self):
        _, H = gamma_H_of_sample(np.array([np.pi / 2]))
        np.testing.assert_allclose(H, [0.0, 1.0], atol=1e-15)

    def test_gamma_psd_gram(self):
        rng = np.random.default_rng(32)
        for d in (1, 3, 5):
            G, _ = gamma_H_of_sample(rng.uniform(0, 2 * np.pi, d))
            w = np.linalg.eigvalsh(G)
            assert w.min() > -1e-10
            assert np.sum(w > 1e-8) <= d

    def test_divergence_identity(self):
        # H(x) = -sum_i d/dx_i D(x)[:, i]; the sign is fixed by the objective
        # being (1/2) phi' Gamma phi - phi' H with H = [S1, 2 S2]
        rng = np.random.default_rng(33)
        h = 1e-6
        for d in (1, 2, 4):
            x = rng.uniform(0, 2 * np.pi, d)
            _, H = gamma_H_of_sample(x)
            div = np.zeros(param_dim(d))
            for i in range(d):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                div += (jacobian_D(xp)[:, i] - jacobian_D(xm)[:, i]) / (2 * h)
            assert np.max(np.abs(H - (-div))) < 1e-5


class TestAccumulateMoments:
    def test_single_sample(self):
        rng = np.random.default_rng(34)
        x = rng.uniform(0, 2 * np.pi, 3)
        m = accumulate_moments(x[None, :])
        G, H = gamma_H_of_sample(x)
        np.testing.assert_allclose(gamma_hat(m), G, atol=1e-14)
        np.testing.assert_allclose(m.h_hat, H, atol=1e-14)
        assert m.n == 1

    def test_duplication_invariance(self):
        rng = np.random.default_rng(35)
        X = rng.uniform(0, 2 * np.pi, size=(300, 4))
        a = accumulate_moments(X)
        b = accumulate_moments(np.vstack([X, X]))
        np.testing.assert_allclose(gamma_hat(a), gamma_hat(b), atol=1e-12)
        np.testing.assert_allclose(a.h_hat, b.h_hat, atol=1e-12)

    def test_order_independence(self):
        rng = np.random.default_rng(36)
        X = rng.uniform(0, 2 * np.pi, size=(1000, 3))
        a = accumulate_moments(X)
        b = accumulate_moments(X[rng.permutation(1000)])
        np.testing.assert_allclose(gamma_hat(a), gamma_hat(b), atol=1e-10)
        np.testing.assert_allclose(a.h_hat, b.h_hat, atol=1e-10)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(37)
        m = accumulate_moments(rng.uniform(0, 2 * np.pi, size=(500, 4)))
        np.testing.assert_allclose(gamma_hat(m), gamma_hat(m).T, atol=1e-12)
        assert np.linalg.eigvalsh(gamma_hat(m)).min() > -1e-10

    @pytest.mark.parametrize("d,N", [(1, 5), (2, 255), (3, 257), (5, 840), (8, 3000)])
    def test_exactly_symmetric(self, d, N):
        # every chunk Gram scatters symmetric A'A blocks and gamma is not
        # symmetrised afterwards, so a BLAS that breaks exact symmetry shows here
        rng = np.random.default_rng(39)
        m = accumulate_moments(rng.uniform(0, 2 * np.pi, size=(N, d)))
        assert np.array_equal(gamma_hat(m), gamma_hat(m).T)

    def test_desk_scale_invertible(self):
        # N = 840 samples comfortably above the 2d = 48 invertibility floor
        rng = np.random.default_rng(38)
        X = rng.uniform(0, 2 * np.pi, size=(840, 24))
        fit = fit_closed_form(X)
        assert np.all(np.isfinite(fit.params.phi))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            accumulate_moments(np.zeros((0, 3)))


def _list_pairwise_reduce(blocks):
    """The former list-based reduction, kept verbatim as the oracle."""
    while len(blocks) > 1:
        paired = []
        for i in range(0, len(blocks) - 1, 2):
            paired.append(blocks[i] + blocks[i + 1])
        if len(blocks) % 2:
            paired.append(blocks[-1])
        blocks = paired
    return blocks[0]


class TestPairwiseReduce:
    @pytest.mark.parametrize("k", range(1, 41))
    def test_bitwise_equal_to_list_reduction(self, k):
        # magnitudes spread over 16 decades so any change of summation
        # order shows in the last bits
        rng = np.random.default_rng(1000 + k)
        blocks = [rng.normal(size=(3, 5)) * 10.0 ** rng.uniform(-8, 8, size=(3, 5))
                  for _ in range(k)]
        expected = _list_pairwise_reduce([b.copy() for b in blocks])
        got = _pairwise_reduce(iter([b.copy() for b in blocks]))
        assert np.array_equal(got, expected)


class TestObjective:
    def test_zero_point(self):
        rng = np.random.default_rng(39)
        m = accumulate_moments(rng.uniform(0, 2 * np.pi, size=(200, 3)))
        assert sm_objective(np.zeros(18), m) == 0.0

    def test_minimum_value(self):
        rng = np.random.default_rng(40)
        m = accumulate_moments(rng.uniform(0, 2 * np.pi, size=(2000, 3)))
        fit = fit_closed_form(None, moments=m)
        val = sm_objective(fit.params.phi, m)
        direct = -0.5 * m.h_hat @ np.linalg.solve(gamma_hat(m), m.h_hat)
        assert val <= 0
        assert val == pytest.approx(direct, rel=1e-10)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(41)
        m = accumulate_moments(rng.uniform(0, 2 * np.pi, size=(200, 2)))
        phi = rng.normal(size=8)
        grad = gamma_hat(m) @ phi - m.h_hat
        h = 1e-6
        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            fd = (sm_objective(phi + e, m) - sm_objective(phi - e, m)) / (2 * h)
            assert abs(fd - grad[i]) < 1e-6

    def test_convexity_probe(self):
        rng = np.random.default_rng(42)
        m = accumulate_moments(rng.uniform(0, 2 * np.pi, size=(300, 3)))
        for _ in range(20):
            p1 = rng.normal(size=18)
            p2 = rng.normal(size=18)
            mid = sm_objective(0.5 * (p1 + p2), m)
            assert mid <= 0.5 * (sm_objective(p1, m) + sm_objective(p2, m)) + 1e-12


class TestClosedForm:
    def test_null_data_near_zero(self):
        rng = np.random.default_rng(43)
        X = rng.uniform(0, 2 * np.pi, size=(10**5, 3))
        fit = fit_closed_form(X)
        assert np.max(np.abs(fit.params.phi)) < 0.05

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(44)
        X = rng.uniform(0, 2 * np.pi, size=(5000, 4))
        fit = fit_closed_form(X)
        m = fit.moments
        resid = np.max(np.abs(gamma_hat(m) @ fit.params.phi - m.h_hat))
        assert resid <= 1e-8 * np.max(np.abs(m.h_hat))

    def test_consistency_against_generating_sampler(self):
        rng = np.random.default_rng(45)
        phi = rng.uniform(-2, 2, size=param_dim(3))
        truth = TorusGraphParams(d=3, phi=phi)
        X = gibbs_sample(truth, GibbsConfig(n_samples=10**5, burn_in=500, seed=46))
        fit = fit_closed_form(X)
        assert np.max(np.abs(fit.params.phi - phi)) < 0.1

    def test_masked_family_fit(self):
        rng = np.random.default_rng(47)
        phi = np.zeros(param_dim(3))
        phi[0:6] = rng.uniform(-1, 1, 6)
        for j, k in edge_list(3):
            sl = coupling_slice(3, j, k)
            phi[sl.start : sl.start + 2] = rng.uniform(-1.5, 1.5, 2)
        truth = TorusGraphParams(d=3, phi=phi, family=Family.PHASE_DIFF)
        X = gibbs_sample(truth, GibbsConfig(n_samples=10**5, burn_in=500, seed=48))
        fit = fit_closed_form(X, family=Family.PHASE_DIFF)
        inactive = ~family_mask(3, Family.PHASE_DIFF)
        assert np.all(fit.params.phi[inactive] == 0.0)
        assert np.max(np.abs(fit.params.phi - phi)) < 0.1

    @pytest.mark.filterwarnings("error")
    def test_singular_when_undersampled(self):
        rng = np.random.default_rng(49)
        X = rng.uniform(0, 2 * np.pi, size=(5, 4))  # N < 2d
        with pytest.raises(SingularMomentsError, match="N=5"):
            fit_closed_form(X)

    def test_empty_active_set(self):
        # d = 1 with uniform margins leaves no free coefficient: the fit is
        # the uniform distribution, not a failed factorization
        X = np.random.default_rng(52).uniform(0, 2 * np.pi, size=(50, 1))
        fit = fit_closed_form(X, family=Family.UNIFORM_MARGINAL)
        np.testing.assert_array_equal(fit.params.phi, [0.0, 0.0])
        assert fit.residual_norm == 0.0

    def test_rotation_equivariance_of_block_norms(self):
        # rotating one channel is an orthogonal reparameterization, so fitted
        # coupling-block norms are preserved (to rounding, far below 3 SE)
        rng = np.random.default_rng(50)
        X, _ = gen_chain(N=600, d=4, xi=0.3, kappa1=0.05, kappa_eps=3.0,
                         contam=(0, 1.0), seed=51)
        fit = fit_closed_form(X)
        X_rot = X.copy()
        X_rot[:, 2] = (X_rot[:, 2] + 1.234) % (2 * np.pi)
        fit_rot = fit_closed_form(X_rot)
        for j, k in edge_list(4):
            sl = coupling_slice(4, j, k)
            n0 = np.linalg.norm(fit.params.phi[sl])
            n1 = np.linalg.norm(fit_rot.params.phi[sl])
            assert abs(n0 - n1) < 1e-8


class TestGroupLasso:
    def test_zero_penalty_matches_closed_form(self):
        rng = np.random.default_rng(52)
        X = rng.uniform(0, 2 * np.pi, size=(3000, 3))
        closed = fit_closed_form(X)
        lasso = fit_group_lasso(X, lam=0.0)
        np.testing.assert_allclose(lasso.params.phi, closed.params.phi, atol=1e-6)

    def test_large_penalty_kills_all_blocks(self):
        X, _ = gen_chain(N=500, d=4, xi=0.2, kappa1=0.1, kappa_eps=5.0, contam=(0, 1.0), seed=53)
        m = accumulate_moments(X)
        lam = 2.0 * float(np.linalg.norm(m.h_hat))
        fit = fit_group_lasso(X, lam=lam)
        for j, k in edge_list(4):
            assert np.all(fit.params.phi[coupling_slice(4, j, k)] == 0.0)

    def test_sparsity_path_nested(self):
        grid = np.geomspace(1e-3, 2.0, 8)
        nested_runs = 0
        for seed in range(50):
            X, _ = gen_chain(N=300, d=5, xi=0.2, kappa1=0.05, kappa_eps=8.0,
                             contam=(0, 1.0), seed=seed)
            m = accumulate_moments(X)
            supports = []
            for lam in grid:
                fit = fit_group_lasso(None, lam=lam, moments=m, tol=1e-8)
                sup = frozenset(
                    (j, k)
                    for j, k in edge_list(5)
                    if np.any(fit.params.phi[coupling_slice(5, j, k)] != 0.0)
                )
                supports.append(sup)
            if all(b <= a for a, b in zip(supports, supports[1:])):
                nested_runs += 1
        assert nested_runs >= int(np.ceil(0.95 * 50))

    def test_negative_penalty_rejected(self):
        with pytest.raises(DomainError):
            fit_group_lasso(np.zeros((10, 2)), lam=-1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_penalty_rejected(self, lam):
        with pytest.raises(DomainError):
            fit_group_lasso(np.zeros((10, 2)), lam=lam)

    def test_one_step_size_per_fit(self, monkeypatch):
        X = np.random.default_rng(55).uniform(0, 2 * np.pi, size=(200, 3))
        calls = _count_calls(monkeypatch, estimation, "_largest_eigenvalue")
        dense = _count_calls(monkeypatch, np.linalg, "eigvalsh")
        fit_group_lasso(X, lam=0.1)
        assert calls == [1]
        assert dense == [0]


class TestSelectLambdaCV:
    def test_single_candidate(self):
        rng = np.random.default_rng(54)
        X = rng.uniform(0, 2 * np.pi, size=(200, 3))
        lam, table = select_lambda_cv(X, folds=2, grid=[0.37], seed=0)
        assert lam == 0.37
        assert len(table) == 1

    def test_noise_prefers_heaviest_penalty(self):
        grid = [0.01, 0.1, 1.0]
        hits = 0
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            X = rng.uniform(0, 2 * np.pi, size=(300, 4))
            lam, _ = select_lambda_cv(X, folds=3, grid=grid, seed=seed)
            if lam == grid[-1]:
                hits += 1
        assert hits >= int(np.ceil(0.80 * 50))

    def test_chain_recovery_top_blocks(self):
        grid = np.geomspace(2e-3, 0.5, 5)
        hits = 0
        truth = set(edge_list(5)[:0])
        for seed in range(50):
            X, tg = gen_chain(N=840, d=5, xi=np.pi / 100, kappa1=0.01, kappa_eps=40.0,
                              contam=(15, 0.1), seed=2000 + seed)
            truth = set(tg.edges)
            lam, _ = select_lambda_cv(X, folds=3, grid=grid, seed=seed)
            fit = fit_group_lasso(X, lam=lam)
            norms = {
                (j, k): np.linalg.norm(fit.params.phi[coupling_slice(5, j, k)])
                for j, k in edge_list(5)
            }
            top4 = set(sorted(norms, key=norms.get, reverse=True)[:4])
            if top4 == truth:
                hits += 1
        assert hits >= int(np.ceil(0.90 * 50))

    @pytest.mark.parametrize("seed", range(5))
    def test_refit_moments_pooled_from_folds(self, seed):
        # the folds' moments, pooled, are the moments of all the rows: the
        # same to rounding, so a direct solve on them agrees to 1e-12; the
        # group-lasso refit keeps the support and the 1e-5 coefficient bound
        # of solves whose inputs differ only in summation order
        grid = np.geomspace(2e-3, 0.5, 5)
        X, _ = gen_chain(N=840, d=5, xi=np.pi / 100, kappa1=0.01, kappa_eps=40.0,
                         contam=(15, 0.1), seed=2000 + seed)
        lam, table, pooled = estimation._cross_validate(X, folds=3, grid=grid, seed=seed)
        assert (lam, table) == select_lambda_cv(X, folds=3, grid=grid, seed=seed)
        fresh = accumulate_moments(X)
        assert pooled.n == fresh.n
        np.testing.assert_allclose(pooled.blocks, fresh.blocks, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pooled.h_hat, fresh.h_hat, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fit_closed_form(None, moments=pooled).params.phi,
                                   fit_closed_form(None, moments=fresh).params.phi,
                                   rtol=0, atol=1e-12)
        refit = fit_group_lasso(None, lam=lam, moments=pooled).params.phi
        ref = fit_group_lasso(None, lam=lam, moments=fresh).params.phi
        assert [np.any(refit[coupling_slice(5, j, k)] != 0) for j, k in edge_list(5)] == \
            [np.any(ref[coupling_slice(5, j, k)] != 0) for j, k in edge_list(5)]
        np.testing.assert_allclose(refit, ref, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("folds", [2, 5])
    def test_one_step_size_per_fold(self, monkeypatch, folds):
        X = np.random.default_rng(56).uniform(0, 2 * np.pi, size=(200, 3))
        calls = _count_calls(monkeypatch, estimation, "_largest_eigenvalue")
        dense = _count_calls(monkeypatch, np.linalg, "eigvalsh")
        select_lambda_cv(X, folds=folds, grid=np.geomspace(1e-3, 1.0, 7), seed=0)
        assert calls == [folds]
        assert dense == [0]

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
    def test_bad_grid_rejected_before_any_fold(self, monkeypatch, bad):
        calls = _count_calls(monkeypatch, estimation, "accumulate_moments")
        with pytest.raises(DomainError):
            select_lambda_cv(np.zeros((50, 2)), folds=2, grid=[0.1, 1.0, bad])
        assert calls == [0]

    def test_bad_folds(self):
        with pytest.raises(DomainError):
            select_lambda_cv(np.zeros((50, 2)), folds=1, grid=[0.1])
        with pytest.raises(DomainError):
            select_lambda_cv(np.zeros((50, 2)), folds=2, grid=[])
