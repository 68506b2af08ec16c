"""Tests for asymptotic inference, graph construction, and fit diagnostics."""

import tracemalloc

import numpy as np
import pytest
import scipy.stats

import torusgraphs.inference
from torusgraphs.estimation import accumulate_moments, fit_closed_form
from torusgraphs.exceptions import (
    DegenerateTestError,
    DomainError,
    FamilyScopeError,
    SingularMomentsError,
)
from torusgraphs.inference import (
    CORRECTION_BONFERRONI,
    CORRECTION_NONE,
    MODE_FULL,
    MODE_REFLECTIONAL,
    MODE_ROTATIONAL,
    STAT_MAX_BLOCK_NORM,
    STAT_NONZERO_EDGE_COUNT,
    EdgeTest,
    SandwichCov,
    asymptotic_cov,
    bootstrap_null_test,
    build_graph,
    correct_pvalues,
    edge_test,
    edge_tests,
    goodness_of_fit,
    group_edge_test,
    partial_plv,
)
from torusgraphs.estimation import FitResult
from torusgraphs.model import (
    Family,
    TorusGraphParams,
    _canonical_pairs,
    coupling_coords,
    coupling_slice,
    edge_list,
    param_dim,
)
from torusgraphs.sampling import GibbsConfig, gibbs_sample

from test_scoring_oracle import _edge_test, _edge_test_loop, _group_edge_test


def uniform_fit(d, n, seed, family=Family.FULL):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 2 * np.pi, size=(n, d))
    fit = fit_closed_form(X, family=family)
    cov = asymptotic_cov(X, fit.params, moments=fit.moments)
    return X, fit, cov


class TestAsymptoticCov:
    def test_symmetric_psd(self):
        _, fit, cov = uniform_fit(3, 800, seed=60)
        sigma = cov.block(np.arange(param_dim(3)))
        np.testing.assert_allclose(sigma, sigma.T, atol=1e-10)
        assert np.linalg.eigvalsh(sigma).min() > -1e-8

    def test_z_scores_standard_normal(self):
        # null coefficients on uniform data: pooled z-scores should be N(0,1)
        rng = np.random.default_rng(61)
        null = TorusGraphParams(d=2, phi=np.zeros(8))
        zs = []
        n = 500
        for _ in range(500):
            X = rng.uniform(0, 2 * np.pi, size=(n, 2))
            fit = fit_closed_form(X)
            cov = asymptotic_cov(X, null, moments=fit.moments)
            zs.extend(np.sqrt(n) * fit.params.phi / np.sqrt(np.diag(cov.block(np.arange(8)))))
        assert scipy.stats.kstest(zs, "norm").pvalue > 0.001

    def test_one_over_n_scaling(self):
        rng = np.random.default_rng(62)
        ratios = []
        for _ in range(20):
            X = rng.uniform(0, 2 * np.pi, size=(4000, 2))
            fit_small = fit_closed_form(X[:1000])
            fit_big = fit_closed_form(X)
            cov_small = asymptotic_cov(X[:1000], fit_small.params, moments=fit_small.moments)
            cov_big = asymptotic_cov(X, fit_big.params, moments=fit_big.moments)
            # Sigma estimates the sqrt(N)-scaled covariance, so Var(phi_hat)
            # = Sigma/N; the trace ratio at N vs 4N should be ~4
            full = np.arange(8)
            ratios.append(
                np.trace(cov_small.block(full)) / 1000 / (np.trace(cov_big.block(full)) / 4000)
            )
        assert 3.5 < np.mean(ratios) < 4.5

    def test_dimension_mismatch(self):
        p = TorusGraphParams(d=3, phi=np.zeros(18))
        with pytest.raises(DomainError):
            asymptotic_cov(np.zeros((10, 2)), p)

    # the fit's CG must raise before its iterate overflows
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("jitter", [0.0, 1e-7])
    def test_ill_conditioned_moments_raise(self, jitter):
        # two (nearly) identical channels: the sine of their difference is
        # (nearly) constant, so its row of the active Gamma (nearly) vanishes
        rng = np.random.default_rng(65)
        X = rng.uniform(0, 2 * np.pi, size=(400, 3))
        X[:, 1] = X[:, 0] + jitter * rng.standard_normal(400)
        params = TorusGraphParams(d=3, phi=np.zeros(18))
        moments = accumulate_moments(X)
        with pytest.raises(SingularMomentsError, match="N=400"):
            asymptotic_cov(X, params, moments=moments)
        with pytest.raises(SingularMomentsError, match="N=400"):
            fit_closed_form(X, moments=moments)


class TestEdgeTest:
    def test_zero_block_gives_unit_p(self):
        X, fit, cov = uniform_fit(2, 400, seed=63)
        zero = FitResult(
            params=TorusGraphParams(d=2, phi=np.zeros(8)),
            moments=fit.moments,
            method="closed_form",
            residual_norm=0.0,
        )
        t = edge_test(zero, cov, 0, 1)
        assert t.x2 == 0.0
        assert t.p == 1.0
        assert t.df == 4

    def test_modes_and_df(self):
        _, fit, cov = uniform_fit(3, 600, seed=64)
        assert edge_test(fit, cov, 0, 1, MODE_FULL).df == 4
        assert edge_test(fit, cov, 0, 1, MODE_ROTATIONAL).df == 2
        assert edge_test(fit, cov, 0, 1, MODE_REFLECTIONAL).df == 2
        assert edge_test(fit, cov, 0, 1).x2 >= 0

    def test_null_pvalues_uniform(self):
        rng = np.random.default_rng(65)
        pvals = []
        for _ in range(500):
            X = rng.uniform(0, 2 * np.pi, size=(400, 3))
            fit = fit_closed_form(X)
            cov = asymptotic_cov(X, fit.params, moments=fit.moments)
            pvals.extend(edge_test(fit, cov, j, k).p for j, k in edge_list(3))
        assert scipy.stats.kstest(pvals, "uniform").pvalue > 0.001

    def test_edge_tests_memory_is_one_gather_of_factor_columns(self):
        """The stack's one large array is the (N, E, k) gather of the factor
        columns; a second copy of it, in any layout, breaks the bound."""
        d, n = 12, 3000
        _, fit, cov = uniform_fit(d, n, seed=69)
        gathered = n * len(edge_list(d)) * 4 * 8
        tracemalloc.start()
        try:
            tests = edge_tests(fit, cov)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tests) == 66
        assert peak <= 1.5 * gathered + 2**20

    def test_null_fpr_at_the_paper_size(self):
        """Uniform null data at d=24, N=840: the mean per-replicate FPR of the
        276 four-df edge tests at alpha = 0.05 stays within 3 Monte-Carlo
        standard errors (from the replicate sd) of alpha. m = 1152 exceeds N
        here, and the test is conservative (a mean near 0.04)."""
        alpha, seeds = 0.05, range(2400, 2430)
        rates = []
        for seed in seeds:
            _, fit, cov = uniform_fit(24, 840, seed=seed)
            tests = edge_tests(fit, cov)
            assert len(tests) == 276 and all(t.df == 4 for t in tests)
            rates.append(np.mean([t.p <= alpha for t in tests]))
        mcse = np.std(rates, ddof=1) / np.sqrt(len(rates))
        assert np.mean(rates) <= alpha + 3 * mcse

    def test_family_scope(self):
        _, fit, cov = uniform_fit(3, 600, seed=66, family=Family.PHASE_DIFF)
        with pytest.raises(FamilyScopeError):
            edge_test(fit, cov, 0, 1, MODE_FULL)
        assert edge_test(fit, cov, 0, 1, MODE_ROTATIONAL).df == 2

    def test_strong_edge_detected(self):
        phi = np.zeros(18)
        phi[coupling_slice(3, 0, 1)] = [2.0, 0.0, 0.0, 0.0]
        truth = TorusGraphParams(d=3, phi=phi)
        X = gibbs_sample(truth, GibbsConfig(n_samples=840, burn_in=500, seed=67))
        fit = fit_closed_form(X)
        cov = asymptotic_cov(X, fit.params, moments=fit.moments)
        assert edge_test(fit, cov, 0, 1).p < 1e-6
        assert edge_test(fit, cov, 0, 2).p > 1e-4


def raised(fn, *args):
    """The type and message of the DegenerateTestError fn(*args) raises."""
    with pytest.raises(DegenerateTestError) as info:
        fn(*args)
    return type(info.value), str(info.value)


class TestDegenerateTest:
    """A covariance whose factor is damaged on the columns of edge (0, 2)."""

    @staticmethod
    def damaged(value, d=3, others=None):
        """Fit and covariance at ``d`` with (0, 2)'s factor columns set to
        ``value``, and those of each edge in ``others`` to its own value."""
        _, fit, cov = uniform_fit(d, 600, seed=72)
        factor = cov.factor.copy()
        for (j, k), v in {(0, 2): value, **(others or {})}.items():
            factor[:, cov.position[coupling_slice(d, j, k)]] = v
        return fit, SandwichCov(factor=factor, position=cov.position, moments=cov.moments)

    def test_singular_block_names_its_edge(self):
        fit, cov = self.damaged(0.0)
        with pytest.raises(DegenerateTestError, match=r"singular .* of \(0, 2\)$"):
            edge_test(fit, cov, 2, 0)
        with pytest.raises(DegenerateTestError, match=r"singular .* of \(0, 2\)$"):
            edge_tests(fit, cov)
        assert edge_test(fit, cov, 0, 1).df == 4  # other edges still test

    def test_singular_block_names_its_group(self):
        fit, cov = self.damaged(0.0)
        with pytest.raises(DegenerateTestError, match=r"singular .* of \(\(0, 1\), \(0, 2\)\)$"):
            group_edge_test(fit, cov, [(0, 1), (2, 0)], MODE_ROTATIONAL)

    def test_non_finite_statistic_names_its_edge(self):
        fit, cov = self.damaged(np.nan)
        with pytest.raises(DegenerateTestError, match=r"non-finite .* for \(0, 2\)$"):
            edge_test(fit, cov, 0, 2)
        with pytest.raises(DegenerateTestError, match=r"non-finite .* for \(0, 2\)$"):
            edge_tests(fit, cov, MODE_REFLECTIONAL)
        with pytest.raises(DegenerateTestError, match=r"non-finite .* for \(\(0, 2\), \(1, 2\)\)$"):
            group_edge_test(fit, cov, [(0, 2), (1, 2)])

    @staticmethod
    def all_rotational_pairs(n):
        """Fit and covariance of d=5 uniform null data under the
        uniform-phasediff family, whose 20 coefficients are the rotational
        blocks of the 10 pairs, so their group test has df 20."""
        return uniform_fit(5, n, seed=73, family=Family.UNIFORM_PHASE_DIFF)[1:]

    @pytest.mark.parametrize("n", [19, 20])
    def test_df_at_least_n_raises_before_the_gather(self, monkeypatch, n):
        """F's N rows sum to ~0 at the fit, so Sigma has rank below N and a
        block with df >= N is singular: the test raises without forming it."""
        fit, cov = self.all_rotational_pairs(n)
        calls = []
        inner = SandwichCov.block
        monkeypatch.setattr(SandwichCov, "block",
                            lambda self, coords: calls.append(coords) or inner(self, coords))
        message = (rf"^20 coefficients from N={n} samples: singular covariance block"
                   rf" in the test of \(\(0, 1\), \(0, 2\), .*\(3, 4\)\)$")
        with pytest.raises(DegenerateTestError, match=message):
            group_edge_test(fit, cov, edge_list(5), MODE_ROTATIONAL)
        assert calls == []

    def test_empty_stack_with_df_at_least_n_tests_nothing(self):
        _, fit, cov = uniform_fit(1, 3, seed=74)  # d=1 has no pairs; 4 >= N
        assert edge_tests(fit, cov) == []

    def test_df_below_n_tests(self):
        fit, cov = self.all_rotational_pairs(21)
        t = group_edge_test(fit, cov, edge_list(5), MODE_ROTATIONAL)
        assert t.df == 20 and np.isfinite(t.x2) and t.x2 >= 0.0

    def test_negative_statistic_is_a_singular_block(self, monkeypatch):
        """A negated stack is not positive definite: its statistic is negative
        and the test degenerate (it was reported as x2 = 0, p = 1)."""
        _, fit, cov = uniform_fit(3, 600, seed=72)
        inner = SandwichCov.block
        monkeypatch.setattr(SandwichCov, "block", lambda self, coords: -inner(self, coords))
        with pytest.raises(DegenerateTestError, match=r"^singular covariance block in the test of \(0, 2\)$"):
            edge_test(fit, cov, 0, 2)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["inf", "minus-inf"])
    def test_infinite_statistic_is_non_finite(self, monkeypatch, sign):
        """Identity blocks (negated for -inf) and coefficients of 1e160: each
        term of the statistic overflows with one sign."""
        _, fit, cov = uniform_fit(3, 600, seed=72)
        huge = FitResult(params=TorusGraphParams(d=3, phi=1e160 * fit.params.phi),
                         moments=fit.moments, method="closed_form", residual_norm=0.0)
        monkeypatch.setattr(SandwichCov, "block",
                            lambda self, coords: sign * np.eye(coords.shape[-1])[None])
        with np.errstate(over="ignore"), pytest.raises(
                DegenerateTestError, match=r"^non-finite test statistic for \(0, 2\)$"):
            edge_test(huge, cov, 0, 2)

    @pytest.mark.parametrize("mode", [MODE_FULL, MODE_ROTATIONAL, MODE_REFLECTIONAL])
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("first", [np.nan, 0.0], ids=["nan-first", "zero-first"])
    def test_first_degenerate_test_named_as_by_the_loop(self, first, d, mode):
        """NaN on one edge and zeros on another: a stacked solve raises for the
        whole stack on the singular block and not at all on the NaN one, but
        the error must name the test the per-pair loop stops at."""
        second = 0.0 if np.isnan(first) else np.nan
        fit, cov = self.damaged(second, d, others={(0, 1): first})
        assert raised(edge_tests, fit, cov, mode) == raised(_edge_test_loop, fit, cov, mode)
        for j, k in [(0, 1), (0, 2)]:
            assert raised(edge_test, fit, cov, k, j, mode) == raised(_edge_test, fit, cov, k, j, mode)
        for group in ([(0, 1), (0, 2)], [(2, 0), (0, 1)], [(1, 2), (0, 2), (0, 1)]):
            assert (raised(group_edge_test, fit, cov, group, mode)
                    == raised(_group_edge_test, fit, cov, group, mode))


class TestGroupEdgeTest:
    def test_all_zero_blocks(self):
        X, fit, cov = uniform_fit(3, 500, seed=68)
        zero = FitResult(
            params=TorusGraphParams(d=3, phi=np.zeros(18)),
            moments=fit.moments,
            method="closed_form",
            residual_norm=0.0,
        )
        t = group_edge_test(zero, cov, edge_list(3))
        assert t.x2 == 0.0
        assert t.p == 1.0

    def test_forty_rotational_edges_df_80(self):
        _, fit, cov = uniform_fit(10, 2500, seed=69, family=Family.PHASE_DIFF)
        edges = edge_list(10)[:40]
        t = group_edge_test(fit, cov, edges, MODE_ROTATIONAL)
        assert t.df == 80

    def test_duplicate_edges_rejected(self):
        _, fit, cov = uniform_fit(3, 500, seed=70)
        with pytest.raises(DomainError):
            group_edge_test(fit, cov, [(0, 1), (1, 0)])

    def test_aggregate_of_weak_edges(self):
        # many weak cross-edges (norm 0.05 on each of 40 pairs, N=840): the
        # df-80 group test sees the aggregate while no single edge survives
        # Bonferroni at 0.05; the joint event recurs in a substantial
        # fraction of runs (its Monte-Carlo rate measures ~0.46, see ledger)
        d = 13
        regions = (list(range(5)), list(range(5, 13)))
        cross = [(j, k) for j in regions[0] for k in regions[1]]
        phi = np.zeros(param_dim(d))
        rng = np.random.default_rng(71)
        hits = 0
        runs = 12
        for run in range(runs):
            phi[:] = 0.0
            for j, k in cross:
                ang = rng.uniform(0, 2 * np.pi)
                sl = coupling_slice(d, j, k)
                phi[sl.start] = 0.05 * np.cos(ang)
                phi[sl.start + 1] = 0.05 * np.sin(ang)
            truth = TorusGraphParams(d=d, phi=phi, family=Family.UNIFORM_PHASE_DIFF)
            X = gibbs_sample(
                truth, GibbsConfig(n_samples=840, burn_in=300, thin=2, seed=1700 + run)
            )
            fit = fit_closed_form(X, family=Family.PHASE_DIFF)
            cov = asymptotic_cov(X, fit.params, moments=fit.moments)
            group_p = group_edge_test(fit, cov, cross, MODE_ROTATIONAL).p
            singles = [edge_test(fit, cov, j, k, MODE_ROTATIONAL).p for j, k in cross]
            corrected = min(1.0, min(singles) * len(singles))
            if group_p <= 0.001 and corrected > 0.05:
                hits += 1
        assert hits >= runs // 3


class TestBuildGraph:
    def _tests(self, pvals):
        return [
            EdgeTest(edge=e, x2=1.0, df=4, p=p)
            for e, p in zip([(0, 1), (0, 2), (1, 2)], pvals)
        ]

    def test_all_unit_pvalues_empty_graph(self):
        g = build_graph(self._tests([1.0, 1.0, 1.0]), alpha=0.05)
        assert g.edges == []

    def test_boundary_p_equals_alpha_included(self):
        g = build_graph(self._tests([0.05, 0.5, 0.5]), alpha=0.05)
        assert g.adjacency[0, 1]

    def test_bonferroni_arithmetic(self):
        tests = [
            EdgeTest(edge=e, x2=1.0, df=4, p=p)
            for e, p in zip(
                [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)],
                [0.004] + [0.9] * 9,
            )
        ]
        g = build_graph(tests, alpha=0.05, correction=CORRECTION_BONFERRONI)
        assert g.pvals[0, 1] == pytest.approx(0.04)
        assert g.adjacency[0, 1]

    def test_symmetry_and_reproducibility(self):
        tests = self._tests([0.01, 0.2, 0.03])
        g1 = build_graph(tests, alpha=0.05, correction=CORRECTION_BONFERRONI)
        g2 = build_graph(tests, alpha=0.05, correction=CORRECTION_BONFERRONI)
        np.testing.assert_array_equal(g1.adjacency, g1.adjacency.T)
        np.testing.assert_array_equal(g1.adjacency, g2.adjacency)
        np.testing.assert_array_equal(g1.pvals, g2.pvals)

    def test_duplicate_edge_rejected(self):
        tests = self._tests([0.1, 0.2, 0.3]) + self._tests([0.4, 0.5, 0.6])
        with pytest.raises(DomainError):
            build_graph(tests, alpha=0.05)

    def test_edge_in_both_orders_rejected(self):
        # both would fill cells (0, 2) and (2, 0)
        tests = self._tests([0.5, 0.01, 0.3]) + [EdgeTest(edge=(2, 0), x2=1.0, df=4, p=0.5)]
        with pytest.raises(DomainError, match=r"^duplicate edge \(0, 2\)$"):
            build_graph(tests, alpha=0.05)

    @pytest.mark.parametrize("p", [0.5, 0.01])
    def test_self_loop_rejected(self, p):
        # it would write p onto the diagonal, which holds 1.0
        tests = self._tests([0.5, 0.5, 0.5]) + [EdgeTest(edge=(1, 1), x2=1.0, df=4, p=p)]
        with pytest.raises(DomainError, match=r"^invalid edge \(1, 1\) for d=3$"):
            build_graph(tests, alpha=0.05)

    @pytest.mark.parametrize("edge", [(0, 5), (5, 0), (-1, 2)])
    def test_node_outside_range_rejected(self, edge):
        tests = [EdgeTest(edge=edge, x2=1.0, df=4, p=0.5)]
        with pytest.raises(DomainError, match=r"^invalid edge .* for d=3$"):
            build_graph(tests, alpha=0.05, d=3)


class TestCorrectPvalues:
    def test_none_keeps_pvalues(self):
        np.testing.assert_array_equal(correct_pvalues([0.01, 0.5], CORRECTION_NONE), [0.01, 0.5])

    def test_bonferroni_scales_by_test_count_and_clamps(self):
        np.testing.assert_array_equal(
            correct_pvalues([0.01, 0.2, 0.5], CORRECTION_BONFERRONI), [0.03, 0.6000000000000001, 1.0]
        )

    def test_unknown_correction_rejected(self):
        with pytest.raises(DomainError, match="holm"):
            correct_pvalues([0.1], "holm")
        with pytest.raises(DomainError):
            build_graph([], alpha=0.05, correction="holm")


class TestPartialPlv:
    def _fit(self, rot_norm, seed=72):
        d = 2
        phi = np.zeros(8)
        phi[4] = rot_norm
        params = TorusGraphParams(d=d, phi=phi, family=Family.UNIFORM_PHASE_DIFF)
        X = gibbs_sample(params, GibbsConfig(n_samples=300, burn_in=100, seed=seed))
        moments = accumulate_moments(X)
        return FitResult(params=params, moments=moments, method="closed_form", residual_norm=0.0)

    def test_zero_coupling(self):
        assert partial_plv(self._fit(0.0), 0, 1) == 0.0

    def test_bessel_value(self):
        assert partial_plv(self._fit(2.0), 0, 1) == pytest.approx(0.6977746579640081, rel=1e-10)

    def test_monotone_in_block_norm(self):
        vals = [partial_plv(self._fit(r), 0, 1) for r in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert np.all(np.diff(vals) > 0)

    def test_full_family_rejected(self):
        _, fit, _ = uniform_fit(2, 300, seed=73)
        with pytest.raises(FamilyScopeError):
            partial_plv(fit, 0, 1)


class TestGoodnessOfFit:
    def test_self_consistency(self):
        rng = np.random.default_rng(74)
        phi = np.zeros(18)
        phi[coupling_slice(3, 0, 1)] = [1.0, 0.5, 0.0, 0.0]
        phi[coupling_slice(3, 1, 2)] = [0.8, -0.3, 0.0, 0.0]
        truth = TorusGraphParams(d=3, phi=phi)
        passes = 0
        runs = 20
        for run in range(runs):
            X = gibbs_sample(truth, GibbsConfig(n_samples=500, burn_in=300, seed=900 + run))
            fit = fit_closed_form(X)
            res = goodness_of_fit(X, fit, n_synth=2000, seed=42 + run)
            if all(res[k] > 0.01 for k in ("p_marginal", "p_diff", "p_sum")):
                passes += 1
        assert passes >= int(np.ceil(0.95 * runs))

    def test_sine_constrained_embed_lacks_fit(self):
        # rotational-dominant data with diffuse margins: an embed that forces
        # equal rotational and reflectional block norms misses the pairwise
        # statistics badly, while the unconstrained fit passes
        from torusgraphs.model import sine_model_embed, to_mean_centered

        phi = np.zeros(18)
        phi[0:6] = [0.3, 0.0, 0.0, 0.3, 0.2, -0.2]
        phi[coupling_slice(3, 0, 1)] = [1.5, 0.5, 0.0, 0.0]
        phi[coupling_slice(3, 1, 2)] = [1.2, -0.4, 0.0, 0.0]
        truth = TorusGraphParams(d=3, phi=phi)
        X = gibbs_sample(truth, GibbsConfig(n_samples=840, burn_in=500, seed=75))
        fit = fit_closed_form(X)
        mc = to_mean_centered(fit.params)
        sine_params = sine_model_embed(mc.mu, mc.kappa, mc.lambdas[:, 3])
        sine_fit = FitResult(
            params=sine_params, moments=fit.moments, method="closed_form", residual_norm=0.0
        )
        sine_res = goodness_of_fit(X, sine_fit, n_synth=4000, seed=76)
        full_res = goodness_of_fit(X, fit, n_synth=4000, seed=77)
        assert min(sine_res["p_diff"], sine_res["p_sum"]) < 1e-4
        assert all(full_res[k] > 0.01 for k in ("p_marginal", "p_diff", "p_sum"))

    def test_rotation_stability(self):
        # KS on circular data uses the fixed origin 0: shifting both samples
        # by a common constant reorders values at the wrap point, so p is not
        # exactly invariant, but where the test discriminates (small p, the
        # regime the battery's conclusions rest on) a common rotation moves
        # p by far less than 0.05
        from torusgraphs.circular import ks_two_sample, von_mises_sample, wrap_angle

        rng = np.random.default_rng(78)
        a = von_mises_sample(1.0, 1.5, 3000, rng)
        b = von_mises_sample(1.0, 1.9, 3000, rng)
        ps = [
            ks_two_sample(wrap_angle(a + c), wrap_angle(b + c))
            for c in np.linspace(0, 2 * np.pi, 8, endpoint=False)
        ]
        assert max(ps) < 0.05  # every rotation reaches the same conclusion
        assert np.ptp(ps) < 0.05

    def test_synth_count_floor(self):
        X, fit, _ = uniform_fit(2, 200, seed=80)
        with pytest.raises(DomainError):
            goodness_of_fit(X, fit, n_synth=50)


class TestBootstrapNullTest:
    def test_rank_p_is_one_when_observed_never_exceeds(self):
        # uniform data with every edge under test: the sparse fit keeps all
        # blocks at zero, so every bootstrap count ties the observed zero
        rng = np.random.default_rng(81)
        X = rng.uniform(0, 2 * np.pi, size=(150, 3))
        p = bootstrap_null_test(
            X,
            null_edges=edge_list(3),
            B=19,
            statistic=STAT_NONZERO_EDGE_COUNT,
            seed=1,
            folds=2,
            grid=[0.5, 1.0],
        )
        assert p == 1.0

    def test_strong_edge_rejected(self):
        phi = np.zeros(18)
        phi[coupling_slice(3, 0, 1)] = [2.0, 0.0, 0.0, 0.0]
        truth = TorusGraphParams(d=3, phi=phi, family=Family.UNIFORM_PHASE_DIFF)
        X = gibbs_sample(truth, GibbsConfig(n_samples=400, burn_in=300, seed=82))
        p = bootstrap_null_test(
            X,
            null_edges=[(0, 1)],
            B=19,
            statistic=STAT_MAX_BLOCK_NORM,
            seed=2,
            folds=2,
            grid=[0.02, 0.2],
        )
        assert p == pytest.approx(1 / 20)

    def test_b_floor(self):
        with pytest.raises(DomainError):
            bootstrap_null_test(np.zeros((50, 2)), [(0, 1)], B=5)

    @pytest.mark.parametrize("options,message", [
        ({"statistic": "bogus"}, "^unknown bootstrap statistic 'bogus'$"),
        ({"B": 18}, "^need B >= 19 bootstrap replicates$"),
        ({"gibbs_burn_in": -1}, "^burn_in must be >= 0$"),
        ({"seed": -1}, "^seed must be >= 0, got -1$"),
        ({"seed": 1.5}, "^seed must be an integer, got 1.5$"),
    ])
    def test_arguments_checked_before_any_fit(self, monkeypatch, options, message):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran before the arguments were checked")

        monkeypatch.setattr(torusgraphs.inference, "_cross_validate", no_fit)
        X = np.random.default_rng(83).uniform(0, 2 * np.pi, size=(100, 3))
        with pytest.raises(DomainError, match=message):
            bootstrap_null_test(X, [(0, 1)], **{"B": 19, **options})

    @staticmethod
    def _statistic_loop(params, edges, statistic):
        """The per-edge loop the batched statistic replaced, kept as its reference."""
        norms = [np.linalg.norm(params.coupling_block(j, k)) for j, k in edges]
        if statistic == STAT_NONZERO_EDGE_COUNT:
            return float(sum(1 for v in norms if v > 0))
        return float(max(norms))

    @pytest.mark.parametrize("seed", range(30))
    def test_statistic_matches_the_per_edge_loop(self, seed):
        # the count is exact (a sum of squares is zero in any order exactly when
        # every square is); with no square below the normal range, the maximum
        # norm may differ by the rounding of a 4-term sum in another order and
        # one square root, at most 4 eps relative
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        phi = rng.normal(size=param_dim(d)) * 10.0 ** rng.uniform(-100, 3)
        blocks = coupling_coords(d)
        phi[blocks[rng.random(len(blocks)) < 0.4]] = 0.0
        edges = [tuple(rng.permutation(e)) for e in rng.permutation(edge_list(d))]
        edges = edges[: int(rng.integers(1, len(edges) + 1))]
        params = TorusGraphParams(d=d, phi=phi)
        pairs, ranks = _canonical_pairs(d, edges)  # the loop took the checked pairs
        batched = torusgraphs.inference._bootstrap_statistic
        count = batched(phi, blocks[ranks], STAT_NONZERO_EDGE_COUNT)
        assert count == self._statistic_loop(params, pairs, STAT_NONZERO_EDGE_COUNT)
        top = batched(phi, blocks[ranks], STAT_MAX_BLOCK_NORM)
        assert top == pytest.approx(self._statistic_loop(params, pairs, STAT_MAX_BLOCK_NORM),
                                    rel=4 * np.finfo(float).eps, abs=0.0)

    @staticmethod
    def _recorded_run(monkeypatch, B=19, seed=7):
        """A small bootstrap, recording each cross-validation's seed and null
        edges and each multi-chain draw; the one-chain sampler must not run."""
        inference = torusgraphs.inference
        cross_validate, chains = inference._cross_validate, inference.gibbs_sample_chains
        record = {"cv": [], "draws": []}

        def recorded_cv(sample, **kwargs):
            record["cv"].append((kwargs["seed"], kwargs["zero_edges"]))
            return cross_validate(sample, **kwargs)

        def recorded_chains(params_list, cfg):
            record["draws"].append((params_list, cfg))
            return chains(params_list, cfg)

        def no_single_chain(*args, **kwargs):
            raise AssertionError("gibbs_sample called")

        monkeypatch.setattr(inference, "_cross_validate", recorded_cv)
        monkeypatch.setattr(inference, "gibbs_sample_chains", recorded_chains)
        monkeypatch.setattr(inference, "gibbs_sample", no_single_chain)
        X = np.random.default_rng(84).uniform(0, 2 * np.pi, size=(100, 3))
        bootstrap_null_test(X, [(1, 0)], B=B, seed=seed, folds=2, grid=[0.1], gibbs_burn_in=30)
        return record

    def test_null_data_drawn_in_one_multi_chain_call(self, monkeypatch):
        (params_list, cfg), = self._recorded_run(monkeypatch, B=19)["draws"]
        assert len(params_list) == 19
        assert all(p is params_list[0] for p in params_list)
        assert not params_list[0].coupling_block(0, 1).any()  # the null fit
        assert (cfg.n_samples, cfg.burn_in, cfg.thin) == (100, 30, 1)

    def test_seed_plan(self, monkeypatch):
        # children 0 and 1 seed the observed and null fits, child b + 2
        # replicate b's cross-validation, and child B + 2 the one draw
        B = 19
        record = self._recorded_run(monkeypatch, B=B, seed=7)
        children = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(7).spawn(B + 3)]
        assert record["cv"] == ([(children[0], None), (children[1], [[0, 1]])]
                                + [(s, None) for s in children[2:B + 2]])
        assert [cfg.seed for _, cfg in record["draws"]] == [children[B + 2]]

    def test_null_calibration_is_valid(self):
        # under the null the rank p-value is valid (conservative: the
        # penalized observed statistic is frequently exactly zero, see ledger)
        phi = np.zeros(18)
        phi[coupling_slice(3, 1, 2)] = [1.0, 0.4, 0.0, 0.0]
        truth = TorusGraphParams(d=3, phi=phi, family=Family.UNIFORM_PHASE_DIFF)
        ps = []
        outer = 40
        for run in range(outer):
            X = gibbs_sample(truth, GibbsConfig(n_samples=120, burn_in=200, seed=5000 + run))
            ps.append(
                bootstrap_null_test(
                    X, null_edges=[(0, 1)], B=49, statistic=STAT_MAX_BLOCK_NORM,
                    seed=run, folds=2, grid=[0.05, 0.3], gibbs_burn_in=200,
                )
            )
        ps = np.array(ps)
        rate = float(np.mean(ps < 0.1))
        assert rate <= 0.1 + 2 * np.sqrt(0.1 * 0.9 / outer)
        assert np.any(ps < 1.0)


class TestPartialPlvRotationInvariance:
    def test_rotating_one_channel_preserves_partial_plv(self):
        phi = np.zeros(18)
        phi[coupling_slice(3, 0, 1)] = [1.2, 0.5, 0.0, 0.0]
        phi[coupling_slice(3, 1, 2)] = [0.7, -0.2, 0.0, 0.0]
        truth = TorusGraphParams(d=3, phi=phi, family=Family.UNIFORM_PHASE_DIFF)
        X = gibbs_sample(truth, GibbsConfig(n_samples=840, burn_in=300, seed=85))
        fit = fit_closed_form(X, family=Family.UNIFORM_PHASE_DIFF)
        cov = asymptotic_cov(X, fit.params, moments=fit.moments)
        X_rot = X.copy()
        X_rot[:, 0] = (X_rot[:, 0] + 2.1) % (2 * np.pi)
        fit_rot = fit_closed_form(X_rot, family=Family.UNIFORM_PHASE_DIFF)
        for j, k in edge_list(3):
            sl = coupling_slice(3, j, k)
            block = fit.params.phi[sl.start : sl.start + 2]
            norm = float(np.linalg.norm(block))
            sigma = cov.block(np.arange(sl.start, sl.start + 2))
            se = float(np.sqrt(block @ sigma @ block / fit.n)) / max(norm, 1e-12)
            assert abs(partial_plv(fit_rot, j, k) - partial_plv(fit, j, k)) < 3 * se + 1e-9
