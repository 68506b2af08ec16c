"""Tests for the von Mises full conditionals and the Gibbs sampler."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusgraphs.sampling
from torusgraphs.circular import (
    bessel_i,
    chi2_sf,
    circular_mean_resultant,
    plv,
    rayleigh_test,
    wrap_angle,
)
from torusgraphs.exceptions import DomainError
from torusgraphs.model import (
    TorusGraphParams,
    coupling_slice,
    edge_list,
    param_dim,
    suff_stats_batch,
)
from torusgraphs.sampling import (
    GibbsConfig,
    conditional_von_mises,
    gibbs_sample,
    gibbs_sample_chains,
)
from torusgraphs.simulation import gen_random_torus_graph

from conftest import bessel_series_oracle


def random_params(d, rng, scale=1.0):
    phi = rng.uniform(-scale, scale, size=param_dim(d))
    return TorusGraphParams(d=d, phi=phi)


def conditional_slice_oracle(params, k, x_rest, grid):
    """Grid-normalized slice of the joint exponent along coordinate k."""
    d = params.d
    X = np.empty((grid.size, d))
    others = [j for j in range(d) if j != k]
    X[:, others] = np.asarray(x_rest)[None, :]
    X[:, k] = grid
    log_q = suff_stats_batch(X) @ params.phi
    q = np.exp(log_q - log_q.max())
    return q / (q.sum() * (grid[1] - grid[0]))


def bivariate_params(marginal0, coupling):
    phi = np.zeros(8)
    phi[0:2] = marginal0
    phi[coupling_slice(2, 0, 1)] = coupling
    return TorusGraphParams(d=2, phi=phi)


def bivariate_chi2_p(params, draws, G=64):
    """Pearson chi-squared p-value of (n, 2) draws against the model density
    on a G x G grid of cells."""
    n = draws.shape[0]
    edges = np.linspace(0, 2 * np.pi, G + 1)
    observed, _, _ = np.histogram2d(draws[:, 0], draws[:, 1], bins=[edges, edges])
    centers = (edges[:-1] + edges[1:]) / 2
    XX, YY = np.meshgrid(centers, centers, indexing="ij")
    pts = np.column_stack([XX.ravel(), YY.ravel()])
    log_q = suff_stats_batch(pts) @ params.phi
    q = np.exp(log_q - log_q.max())
    expected = (q / q.sum() * n).reshape(G, G)
    x2 = float(np.sum((observed - expected) ** 2 / expected))
    return chi2_sf(x2, G * G - 1)


class TestConditionalVonMises:
    def test_all_zero_params_uniform(self):
        params = TorusGraphParams(d=3, phi=np.zeros(18))
        amp, _ = conditional_von_mises(params, 1, np.array([0.3, 2.0]))
        assert amp == 0.0

    def test_pure_difference_coupling(self):
        # density prop to exp(cos(x1 - x2)): conditioning on x2 = c gives (1, c)
        phi = np.zeros(8)
        phi[4] = 1.0
        params = TorusGraphParams(d=2, phi=phi)
        for c in (0.0, 1.0, 5.5):
            amp, delta = conditional_von_mises(params, 0, np.array([c]))
            assert amp == pytest.approx(1.0, rel=1e-12)
            assert delta == pytest.approx(c % (2 * np.pi), abs=1e-12)

    def test_matches_grid_normalized_slice(self):
        rng = np.random.default_rng(42)
        grid = np.arange(1024) * (2 * np.pi / 1024)
        for trial in range(20):
            d = int(rng.integers(2, 5))
            params = random_params(d, rng)
            k = int(rng.integers(0, d))
            x_rest = rng.uniform(0, 2 * np.pi, d - 1)
            amp, delta = conditional_von_mises(params, k, x_rest)
            vm = np.exp(amp * np.cos(grid - delta)) / (2 * np.pi * bessel_i(0, amp))
            oracle = conditional_slice_oracle(params, k, x_rest, grid)
            assert np.max(np.abs(vm - oracle)) < 1e-8

    def test_dimension_mismatch(self):
        params = TorusGraphParams(d=3, phi=np.zeros(18))
        with pytest.raises(DomainError):
            conditional_von_mises(params, 0, np.zeros(3))
        with pytest.raises(DomainError):
            conditional_von_mises(params, 5, np.zeros(2))


class TestGibbsSampler:
    def test_uniform_when_all_zero(self):
        params = TorusGraphParams(d=3, phi=np.zeros(18))
        passes = 0
        runs = 20
        for seed in range(runs):
            draws = gibbs_sample(params, GibbsConfig(n_samples=2000, burn_in=20, seed=seed))
            if all(rayleigh_test(draws[:, j]) > 0.001 for j in range(3)):
                passes += 1
        assert passes >= int(np.ceil(0.99 * runs))

    def test_univariate_von_mises(self):
        phi = 2.0 * np.array([np.cos(1.0), np.sin(1.0)])
        params = TorusGraphParams(d=1, phi=phi)
        draws = gibbs_sample(params, GibbsConfig(n_samples=10**5, burn_in=100, seed=3))
        r = circular_mean_resultant(draws[:, 0])
        target = bessel_series_oracle(1, 2) / bessel_series_oracle(0, 2)
        assert abs(r.mean_resultant_length - target) < 0.01
        assert abs(r.mean_direction - 1.0) < 0.02

    def test_pairwise_plv_matches_population(self):
        # pure difference coupling with uniform margins: differences are
        # von Mises(2), so population PLV is the Bessel ratio at 2
        phi = np.zeros(8)
        phi[coupling_slice(2, 0, 1)] = [2.0, 0.0, 0.0, 0.0]
        params = TorusGraphParams(d=2, phi=phi)
        draws = gibbs_sample(params, GibbsConfig(n_samples=10**5, burn_in=500, seed=11))
        target = bessel_series_oracle(1, 2) / bessel_series_oracle(0, 2)
        assert plv(draws[:, 0], draws[:, 1]) == pytest.approx(target, rel=0.02)

    def test_seed_determinism(self):
        rng = np.random.default_rng(9)
        params = random_params(3, rng)
        cfg = GibbsConfig(n_samples=200, burn_in=50, thin=2, seed=123)
        a = gibbs_sample(params, cfg)
        b = gibbs_sample(params, cfg)
        np.testing.assert_array_equal(a, b)

    def test_explicit_init_and_range(self):
        rng = np.random.default_rng(10)
        params = random_params(2, rng)
        cfg = GibbsConfig(n_samples=100, burn_in=0, seed=1)
        draws = gibbs_sample(params, cfg)
        assert draws.shape == (100, 2)
        assert np.all((draws >= 0) & (draws < 2 * np.pi))

    def test_detailed_balance_smoke(self):
        # bivariate model, 64x64 discretization: empirical histogram of Gibbs
        # draws vs grid-normalized density, Pearson chi-squared GOF
        params = bivariate_params([0.4, 0.2], [1.0, 0.5, 0.2, -0.3])
        draws = gibbs_sample(params, GibbsConfig(n_samples=5 * 10**5, burn_in=200, thin=2,
                                                 seed=21))
        assert bivariate_chi2_p(params, draws) > 0.001

    def test_config_validation(self):
        with pytest.raises(DomainError):
            GibbsConfig(n_samples=0)
        with pytest.raises(DomainError):
            GibbsConfig(n_samples=10, thin=0)

    @pytest.mark.parametrize("field,value,message", [
        ("n_samples", 2.5, "n_samples must be an integer, got 2.5"),
        ("n_samples", True, "n_samples must be an integer, got True"),
        ("burn_in", 1.0, "burn_in must be an integer, got 1.0"),
        ("thin", np.float64(2.0), "thin must be an integer, got np.float64(2.0)"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("seed", False, "seed must be an integer, got False"),
        ("seed", "3", "seed must be an integer, got '3'"),
    ])
    def test_config_rejects_non_integers_and_negative_seeds(self, field, value, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            GibbsConfig(**{"n_samples": 10, field: value})

    def test_config_takes_numpy_integers(self):
        cfg = GibbsConfig(n_samples=np.int64(3), burn_in=np.uint8(0), thin=np.int32(1),
                          seed=np.int64(2**40))
        assert gibbs_sample(TorusGraphParams(d=2, phi=np.zeros(8)), cfg).shape == (3, 2)


def sparse_params(d, rng, p_zero, scale=1.0):
    """random_params with each coupling block zeroed with probability
    ``p_zero``: 1.0 gives the empty graph."""
    phi = rng.uniform(-scale, scale, size=param_dim(d))
    for j, k in edge_list(d):
        if rng.uniform() < p_zero:
            phi[coupling_slice(d, j, k)] = 0.0
    return TorusGraphParams(d=d, phi=phi)


def colour_rounds_oracle(params_list):
    """The rounds of the colour order, by a greedy colouring of each chain's
    coupling graph in Python: node k takes the smallest colour held by no
    earlier node whose coupling block with k is nonzero. Returns, per round,
    its (chain, node) pairs in chain order and then node order."""
    d = params_list[0].d
    colour = {}
    for c, params in enumerate(params_list):
        for k in range(d):
            near = {colour[c, j] for j in range(k) if np.any(params.coupling_block(j, k))}
            colour[c, k] = min(set(range(d)) - near)
    return [[(c, k) for (c, k), r in sorted(colour.items()) if r == round_]
            for round_ in range(max(colour.values()) + 1)]


def colour_loop_chains(params_list, cfg):
    """gibbs_sample_chains as a scalar loop: each update drawn on its own, in
    (round, chain, node) order of colour_rounds_oracle, from the state it
    finds: the oracle of the rounds drawn from one state."""
    rng, x, weights, bias = torusgraphs.sampling._start(params_list, cfg)
    d = x.shape[1]
    visits = [ck for round_ in colour_rounds_oracle(params_list) for ck in round_]
    cs = np.hstack([np.cos(x), np.sin(x)])
    vonmises = rng.vonmises

    def sweep():
        for c, k in visits:
            b = np.matmul(weights[k, c][None], cs[c][None, :, None])[0, :, 0] + bias[k, c]
            xk = vonmises(np.arctan2(b[1], b[0]), np.hypot(b[0], b[1]))
            x[c, k] = xk
            cs[c, k] = np.cos(xk)
            cs[c, d + k] = np.sin(xk)

    return torusgraphs.sampling._kept_states(cfg, x, sweep)


def record_updates(monkeypatch):
    """Record (state, mean, amplitude) of every round's batched update; the
    update writes into work arrays that the next round reuses, so each is
    copied."""
    updates = []
    inner = torusgraphs.sampling._chain_conditionals

    def recorded(weights, bias, cs, *work):
        mean, amp = inner(weights, bias, cs, *work)
        updates.append((cs.copy(), mean.copy(), amp.copy()))
        return mean, amp

    monkeypatch.setattr(torusgraphs.sampling, "_chain_conditionals", recorded)
    return updates


def assert_updates_match_oracle(updates, params_list):
    """Every recorded round (call index mod the number of rounds of
    colour_rounds_oracle) gives each of its (chain, node) updates the amplitude
    and wrapped mean of conditional_von_mises at the chain's state."""
    d = params_list[0].d
    rounds = colour_rounds_oracle(params_list)
    assert len(updates) % len(rounds) == 0
    for i, (cs, mean, amp) in enumerate(updates):
        visits = rounds[i % len(rounds)]
        assert len(cs) == len(visits)
        x = np.arctan2(cs[:, d:], cs[:, :d])
        for (c, k), x_c, m, a in zip(visits, x, mean, amp):
            A, delta = conditional_von_mises(params_list[c], k, np.delete(x_c, k))
            assert abs(a - A) <= 1e-12
            if A > 0:
                gap = abs(wrap_angle(m) - delta)
                assert min(gap, 2 * np.pi - gap) <= 1e-12


def allocating_chains(params_list, cfg):
    """gibbs_sample_chains with its former node update, which allocates every
    array it makes and visits the nodes in node order: the oracle of the
    update through work arrays, and of the colour order where every pair is
    coupled."""
    rng, x, weights, bias = torusgraphs.sampling._start(params_list, cfg)
    d = x.shape[1]
    cs = np.hstack([np.cos(x), np.sin(x)])
    vonmises = rng.vonmises

    def conditionals(weights, bias, cs):
        b = np.matmul(weights, cs[:, :, None])[:, :, 0] + bias
        return np.arctan2(b[:, 1], b[:, 0]), np.hypot(b[:, 0], b[:, 1])

    def sweep():
        for k in range(d):
            xk = vonmises(*conditionals(weights[k], bias[k], cs))
            x[:, k] = xk
            cs[:, k] = np.cos(xk)
            cs[:, d + k] = np.sin(xk)

    return torusgraphs.sampling._kept_states(cfg, x, sweep)


class TestGibbsSampleChains:
    @pytest.mark.parametrize("d", [1, 3, 10])
    @pytest.mark.parametrize("C", [1, 20])
    def test_work_arrays_draw_the_allocating_stream(self, d, C):
        rng = np.random.default_rng(50 + d + C)
        params_list = [random_params(d, rng, scale=s) for s in rng.uniform(0.1, 3.0, size=C)]
        cfg = GibbsConfig(n_samples=40, burn_in=30, thin=2, seed=d + C)
        np.testing.assert_array_equal(gibbs_sample_chains(params_list, cfg),
                                      allocating_chains(params_list, cfg))

    def test_updates_match_conditional_oracle(self, monkeypatch):
        # chains with different parameters, one with all-zero parameters
        rng = np.random.default_rng(31)
        params_list = [random_params(4, rng, scale=s) for s in (0.5, 1.0, 3.0)]
        params_list.append(TorusGraphParams(d=4, phi=np.zeros(param_dim(4))))
        updates = record_updates(monkeypatch)
        gibbs_sample_chains(params_list, GibbsConfig(n_samples=3, burn_in=2, thin=2, seed=5))
        # four rounds: the dense chains' nodes one by one, all of the zero
        # chain's nodes in the first
        assert len(colour_rounds_oracle(params_list)) == 4
        assert len(updates) == 4 * (2 + 3 * 2)
        assert_updates_match_oracle(updates, params_list)

    @pytest.mark.parametrize("d", [1, 3, 10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_chain_is_the_gibbs_sample_stream(self, d, seed):
        # both samplers share their start and keep schedule; the scalar and the
        # batched node update differ by rounding only, over 250 sweeps
        params = random_params(d, np.random.default_rng(40 + d))
        cfg = GibbsConfig(n_samples=250, burn_in=0, seed=seed)
        gap = np.abs(gibbs_sample(params, cfg) - gibbs_sample_chains([params], cfg)[0])
        assert np.minimum(gap, 2 * np.pi - gap).max() <= 1e-9

    @pytest.mark.parametrize("p_zero", [0.5, 1.0])
    @pytest.mark.parametrize("d", [3, 10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_chain_is_the_gibbs_sample_stream_on_sparse_models(self, p_zero, d, seed):
        # zeroed coupling blocks and the empty graph, where the colour order
        # differs from the node order: the same stream, up to rounding
        params = sparse_params(d, np.random.default_rng(60 + d), p_zero)
        cfg = GibbsConfig(n_samples=250, burn_in=0, seed=seed)
        gap = np.abs(gibbs_sample(params, cfg) - gibbs_sample_chains([params], cfg)[0])
        assert np.minimum(gap, 2 * np.pi - gap).max() <= 1e-9

    def test_detailed_balance_pooled_over_chains(self):
        # two bivariate models on alternating chains; each pool of draws
        # against its own grid-normalized density
        models = [bivariate_params([0.4, 0.2], [1.0, 0.5, 0.2, -0.3]),
                  bivariate_params([-0.3, 0.6], [-0.8, 0.1, 0.6, 0.4])]
        C = 20
        draws = gibbs_sample_chains([models[c % 2] for c in range(C)],
                                    GibbsConfig(n_samples=25000, burn_in=200, thin=2, seed=22))
        for m, params in enumerate(models):
            assert bivariate_chi2_p(params, draws[m::2].reshape(-1, 2)) > 0.001

    def test_zero_couplings_uniform_and_independent(self):
        # Rayleigh tests of each margin and of each chain pair's node-0
        # differences and sums, Bonferroni over all of them at 0.001
        C, d = 8, 3
        params = TorusGraphParams(d=d, phi=np.zeros(param_dim(d)))
        draws = gibbs_sample_chains([params] * C, GibbsConfig(n_samples=2000, burn_in=20,
                                                              seed=23))
        pvals = [rayleigh_test(draws[c, :, j]) for c in range(C) for j in range(d)]
        for a in range(C):
            for b in range(a + 1, C):
                pvals.append(rayleigh_test(wrap_angle(draws[a, :, 0] - draws[b, :, 0])))
                pvals.append(rayleigh_test(wrap_angle(draws[a, :, 0] + draws[b, :, 0])))
        assert min(pvals) > 0.001 / len(pvals)

    def test_seed_determinism(self):
        rng = np.random.default_rng(24)
        params_list = [random_params(3, rng) for _ in range(4)]
        cfg = GibbsConfig(n_samples=50, burn_in=10, thin=3, seed=7)
        a = gibbs_sample_chains(params_list, cfg)
        np.testing.assert_array_equal(a, gibbs_sample_chains(params_list, cfg))
        other = GibbsConfig(n_samples=50, burn_in=10, thin=3, seed=8)
        assert not np.array_equal(a, gibbs_sample_chains(params_list, other))

    def test_domain_errors(self):
        cfg = GibbsConfig(n_samples=5, burn_in=0)
        p2 = TorusGraphParams(d=2, phi=np.zeros(param_dim(2)))
        p3 = TorusGraphParams(d=3, phi=np.zeros(param_dim(3)))
        with pytest.raises(DomainError, match="at least one parameter set"):
            gibbs_sample_chains([], cfg)
        with pytest.raises(DomainError, match="same dimension"):
            gibbs_sample_chains([p2, p3], cfg)
        with pytest.raises(DomainError):
            gibbs_sample_chains([p2, np.zeros(8)], cfg)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_chains_shape_range_and_updates_property(data):
    d = data.draw(st.integers(1, 6), label="d")
    C = data.draw(st.integers(1, 8), label="C")
    n = data.draw(st.integers(1, 4), label="n_samples")
    thin = data.draw(st.integers(1, 2), label="thin")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    params_list = [random_params(d, rng, scale=rng.uniform(0.1, 4.0)) for _ in range(C)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        updates = record_updates(monkeypatch)
        draws = gibbs_sample_chains(params_list, GibbsConfig(n_samples=n, burn_in=1, thin=thin,
                                                             seed=seed))
    assert draws.shape == (C, n, d)
    assert np.all((draws >= 0) & (draws < 2 * np.pi))
    assert len(updates) == d * (1 + n * thin)
    assert_updates_match_oracle(updates, params_list)


@st.composite
def sparse_chains(draw, max_d=10, max_C=8):
    """Up to max_C parameter sets of one dimension, each with its coupling
    blocks zeroed at its own rate (none, some, or all: the empty graph)."""
    d = draw(st.integers(1, max_d), label="d")
    C = draw(st.integers(1, max_C), label="C")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="params_seed"))
    rates = draw(st.lists(st.sampled_from([0.0, 0.5, 0.8, 1.0]), min_size=C, max_size=C),
                 label="p_zero")
    return [sparse_params(d, rng, p, scale=rng.uniform(0.1, 4.0)) for p in rates]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sparse_chains(), st.booleans())
def test_colour_rounds_property(params_list, complete_or_empty):
    # every update once; no round holds two coupled nodes of one chain; each
    # round in chain order and then node order; the Python colouring's rounds
    C, d = len(params_list), params_list[0].d
    weights = torusgraphs.sampling._start(params_list, GibbsConfig(n_samples=1))[2]
    rounds = torusgraphs.sampling._colour_rounds(weights)
    flat = np.concatenate(rounds)
    np.testing.assert_array_equal(np.sort(flat), np.arange(C * d))
    for round_ in rounds:
        assert np.all(np.diff(round_) > 0)
        for a in round_:
            for b in round_[round_ > a]:
                c, j, k = a // d, a % d, b % d
                if b // d == c:
                    assert not np.any(params_list[c].coupling_block(j, k))
    assert [list(zip(*np.divmod(r, d))) for r in rounds] == colour_rounds_oracle(params_list)
    # the complete graph gives the node order, the empty graph one round
    p_zero = 1.0 if complete_or_empty else 0.0
    rng = np.random.default_rng(C * d)
    extreme = [sparse_params(d, rng, p_zero) for _ in range(C)]
    rounds = torusgraphs.sampling._colour_rounds(
        torusgraphs.sampling._start(extreme, GibbsConfig(n_samples=1))[2])
    if p_zero == 1.0:
        np.testing.assert_array_equal(rounds, [np.arange(C * d)])
    else:
        np.testing.assert_array_equal(rounds, [np.arange(C) * d + k for k in range(d)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sparse_chains(), st.data())
def test_rounds_draw_the_scalar_loop_stream(params_list, data):
    # one round drawn from one state is, bit for bit, its updates drawn one by
    # one in (round, chain, node) order
    cfg = GibbsConfig(n_samples=data.draw(st.integers(1, 20), label="n_samples"),
                      burn_in=data.draw(st.integers(0, 20), label="burn_in"),
                      thin=data.draw(st.integers(1, 3), label="thin"),
                      seed=data.draw(st.integers(0, 2**32 - 1), label="gibbs_seed"))
    ours, oracle = gibbs_sample_chains(params_list, cfg), colour_loop_chains(params_list, cfg)
    np.testing.assert_array_equal(ours, oracle)
    np.testing.assert_array_equal(np.signbit(ours), np.signbit(oracle))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(sparse_chains(max_d=6), st.integers(0, 2**32 - 1))
def test_rounds_match_conditional_oracle_on_sparse_models(params_list, seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        updates = record_updates(monkeypatch)
        gibbs_sample_chains(params_list, GibbsConfig(n_samples=2, burn_in=1, thin=2, seed=seed))
    assert len(updates) == 5 * len(colour_rounds_oracle(params_list))
    assert_updates_match_oracle(updates, params_list)


def test_colour_order_samples_the_node_order_distribution():
    # four sparse d=8 models, 250 chains each, drawn in colour order and by
    # the node-order oracle from the same start law; per-chain means of cos
    # and sin of every margin and pair difference, compared across the chains
    # by a two-sample z (seeds and bounds fixed before the first run)
    models = [gen_random_torus_graph(8, density, seed=seed, marginal_kappa=kappa)[0]
              for density, seed, kappa in ((0.25, 1, 0.0), (0.25, 2, 1.0),
                                           (0.5, 3, 0.0), (0.5, 4, 1.0))]
    C = 250
    params_list = [m for m in models for _ in range(C)]
    colour = gibbs_sample_chains(params_list, GibbsConfig(n_samples=100, burn_in=200, seed=901))
    node = allocating_chains(params_list, GibbsConfig(n_samples=100, burn_in=200, seed=902))
    j, k = np.triu_indices(8, 1)
    z = []
    for m in range(len(models)):
        stats = []
        for draws in (colour[m * C:(m + 1) * C], node[m * C:(m + 1) * C]):
            angles = np.concatenate([draws, draws[:, :, j] - draws[:, :, k]], axis=2)
            means = np.concatenate([np.cos(angles), np.sin(angles)], axis=2).mean(axis=1)
            stats.append((means.mean(axis=0), means.var(axis=0, ddof=1) / C))
        (ma, va), (mb, vb) = stats
        z.append((ma - mb) / np.sqrt(va + vb))
    z = np.concatenate(z)
    assert z.size == 4 * 2 * (8 + 28)
    assert np.abs(z).max() <= 5.0
    assert np.mean(z**2) <= 1.5
