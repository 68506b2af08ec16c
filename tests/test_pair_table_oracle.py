"""All-pairs array forms against the per-pair loops they replace.

The functions below are the package's former routines, kept verbatim as the
oracle. Each walked the node pairs in Python, found each pair with
``edge_list`` and its block with ``coupling_slice`` or ``coupling_block``,
and did that pair's arithmetic on scalars or on one (N,) column. The
multi-chain sampler re-packed each chain's four (d, d) coefficient matrices
into a second (C, 2, 2d) layout. The package now reads every pair from
``model._edge_index_arrays`` and ``model.coupling_coords`` and does each
pair's arithmetic elementwise, or as a reduction along one contiguous row, so
nothing is summed in another order: every result must equal the oracle's bit
for bit (``np.array_equal`` on the values and on the sign bits).
"""

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgraphs import circular, inference, model, sampling, simulation
from torusgraphs.circular import fisher_combine, ks_two_sample, wrap_angle
from torusgraphs.exceptions import DomainError, UnidentifiedMeanError
from torusgraphs.inference import EdgeTest
from torusgraphs.model import (
    Family,
    MeanCenteredParams,
    TorusGraphParams,
    coupling_slice,
    edge_list,
    family_mask,
    param_dim,
)
from torusgraphs.sampling import GibbsConfig
from torusgraphs.simulation import TruthGraph

_DEGENERATE_LENGTH = 1e-12


# ---- the former code, verbatim ---------------------------------------------

def _to_natural(mc):
    d = mc.d
    phi = np.zeros(param_dim(d))
    phi[0 : 2 * d : 2] = mc.kappa * np.cos(mc.mu)
    phi[1 : 2 * d : 2] = mc.kappa * np.sin(mc.mu)
    for t, (j, k) in enumerate(edge_list(d)):
        lcc, lcs, lsc, lss = mc.lambdas[t]
        dm = mc.mu[j] - mc.mu[k]
        sm = mc.mu[j] + mc.mu[k]
        sl = coupling_slice(d, j, k)
        phi[sl] = 0.5 * np.array(
            [
                (lcc + lss) * np.cos(dm) + (lcs - lsc) * np.sin(dm),
                (lsc - lcs) * np.cos(dm) + (lcc + lss) * np.sin(dm),
                (lcc - lss) * np.cos(sm) + (-lcs - lsc) * np.sin(sm),
                (lcs + lsc) * np.cos(sm) + (lcc - lss) * np.sin(sm),
            ]
        )
    return TorusGraphParams(d=d, phi=phi, family=Family.FULL)


def _to_mean_centered(params):
    d = params.d
    cosb = params.phi[0 : 2 * d : 2]
    sinb = params.phi[1 : 2 * d : 2]
    kappa = np.hypot(cosb, sinb)
    if np.any(kappa == 0.0):
        j = int(np.nonzero(kappa == 0.0)[0][0])
        raise UnidentifiedMeanError(f"node {j} has zero concentration; mean direction unidentified")
    mu = wrap_angle(np.arctan2(sinb, cosb))
    mu = np.atleast_1d(mu)
    lambdas = np.empty((d * (d - 1) // 2, 4))
    for t, (j, k) in enumerate(edge_list(d)):
        p1, p2, p3, p4 = params.coupling_block(j, k)
        dm = mu[j] - mu[k]
        sm = mu[j] + mu[k]
        cdm, sdm, csm, ssm = np.cos(dm), np.sin(dm), np.cos(sm), np.sin(sm)
        lambdas[t] = [
            p1 * cdm + p2 * sdm + p3 * csm + p4 * ssm,
            -p2 * cdm + p1 * sdm + p4 * csm - p3 * ssm,
            p2 * cdm - p1 * sdm + p4 * csm - p3 * ssm,
            p1 * cdm + p2 * sdm - p3 * csm - p4 * ssm,
        ]
    return MeanCenteredParams(mu=mu, kappa=kappa, lambdas=lambdas)


def _gen_random_torus_graph(d, edge_density, coupling_scale=1.0, seed=0, marginal_kappa=0.0):
    if not 0 < edge_density <= 1:
        raise DomainError("edge density must be in (0, 1]")
    rng = np.random.default_rng(seed)
    pairs = edge_list(d)
    n_edges = int(np.ceil(edge_density * len(pairs)))
    chosen = rng.choice(len(pairs), size=n_edges, replace=False)
    phi = np.zeros(param_dim(d))
    if marginal_kappa > 0:
        mus = rng.uniform(0, 2 * np.pi, d)
        phi[0 : 2 * d : 2] = marginal_kappa * np.cos(mus)
        phi[1 : 2 * d : 2] = marginal_kappa * np.sin(mus)
    rotational = model.coupling_coords(d)[:, :2]
    for t in chosen:
        angle = rng.uniform(0, 2 * np.pi)
        phi[rotational[t]] = coupling_scale * np.cos(angle), coupling_scale * np.sin(angle)
    family = Family.PHASE_DIFF if marginal_kappa > 0 else Family.UNIFORM_PHASE_DIFF
    params = TorusGraphParams(d=d, phi=phi, family=family)
    truth = TruthGraph(d=d, edges=frozenset(pairs[t] for t in chosen))
    return params, truth


def _conditional_coefficients(params):
    d = params.d
    cx_c = np.zeros((d, d))
    cx_s = np.zeros((d, d))
    cy_c = np.zeros((d, d))
    cy_s = np.zeros((d, d))
    for j, k in edge_list(d):
        a, b, g, dl = params.coupling_block(j, k)
        # for node k the neighbor is j (j < k, sign -1); for node j it is k (+1)
        for node, other, h in ((k, j, -1.0), (j, k, +1.0)):
            cx_c[node, other] += a + g
            cx_s[node, other] += dl - h * b
            cy_c[node, other] += h * b + dl
            cy_s[node, other] += a - g
    return cx_c, cx_s, cy_c, cy_s


def _conditional_von_mises(params, k, x_rest):
    d = params.d
    x_rest = np.asarray(x_rest, dtype=float)
    if not 0 <= k < d:
        raise DomainError(f"node index {k} out of range for d={d}")
    if x_rest.shape != (d - 1,):
        raise DomainError(f"x_rest must have length {d - 1}")
    cx_c, cx_s, cy_c, cy_s = _conditional_coefficients(params)
    # x_k itself meets only the zero diagonal of the coefficient matrices
    x = np.insert(x_rest, k, 0.0)
    c, s = np.cos(x), np.sin(x)
    bx = params.phi[2 * k] + cx_c[k] @ c + cx_s[k] @ s
    by = params.phi[2 * k + 1] + cy_c[k] @ c + cy_s[k] @ s
    amp = float(np.hypot(bx, by))
    if amp == 0.0:
        return 0.0, 0.0
    return amp, wrap_angle(np.arctan2(by, bx))


def _gibbs_sample(params, cfg):
    if not isinstance(params, TorusGraphParams):
        raise DomainError("params must be a TorusGraphParams")
    d = params.d
    rng = np.random.default_rng(cfg.seed)
    x = rng.uniform(0.0, 2.0 * np.pi, size=d)
    cx_c, cx_s, cy_c, cy_s = _conditional_coefficients(params)
    k1 = params.phi[0 : 2 * d : 2]
    k2 = params.phi[1 : 2 * d : 2]
    cos_x = np.cos(x)
    sin_x = np.sin(x)
    out = np.empty((cfg.n_samples, d))
    kept = 0
    sweep = 0
    total = cfg.burn_in + cfg.n_samples * cfg.thin
    dot = np.dot
    vonmises = rng.vonmises
    while sweep < total:
        for k in range(d):
            bx = k1[k] + dot(cx_c[k], cos_x) + dot(cx_s[k], sin_x)
            by = k2[k] + dot(cy_c[k], cos_x) + dot(cy_s[k], sin_x)
            xk = vonmises(math.atan2(by, bx), math.hypot(bx, by))
            x[k] = xk
            cos_x[k] = math.cos(xk)
            sin_x[k] = math.sin(xk)
        sweep += 1
        if sweep > cfg.burn_in and (sweep - cfg.burn_in) % cfg.thin == 0:
            out[kept] = x
            kept += 1
    return wrap_angle(out)


def _chain_conditionals(weights, bias, cs):
    b = np.matmul(weights, cs[:, :, None])[:, :, 0] + bias
    return np.arctan2(b[:, 1], b[:, 0]), np.hypot(b[:, 0], b[:, 1])


def _gibbs_sample_chains(params_list, cfg):
    d = params_list[0].d
    C = len(params_list)
    rng = np.random.default_rng(cfg.seed)
    x = rng.uniform(0.0, 2.0 * np.pi, size=(C, d))
    # weights[k, c] = node k's (2, 2d) coefficient rows in chain c
    weights = np.empty((d, C, 2, 2 * d))
    bias = np.empty((d, C, 2))
    for c, params in enumerate(params_list):
        cx_c, cx_s, cy_c, cy_s = _conditional_coefficients(params)
        weights[:, c, 0] = np.hstack([cx_c, cx_s])
        weights[:, c, 1] = np.hstack([cy_c, cy_s])
        bias[:, c] = params.phi[: 2 * d].reshape(d, 2)
    cs = np.hstack([np.cos(x), np.sin(x)])
    out = np.empty((C, cfg.n_samples, d))
    kept = 0
    total = cfg.burn_in + cfg.n_samples * cfg.thin
    vonmises = rng.vonmises
    for sweep in range(1, total + 1):
        for k in range(d):
            xk = vonmises(*_chain_conditionals(weights[k], bias[k], cs))
            x[:, k] = xk
            cs[:, k] = np.cos(xk)
            cs[:, d + k] = np.sin(xk)
        if sweep > cfg.burn_in and (sweep - cfg.burn_in) % cfg.thin == 0:
            out[:, kept] = x
            kept += 1
    return wrap_angle(out)


def _circular_mean_resultant(angles):
    a = np.asarray(angles, dtype=float)
    if a.size == 0:
        raise DomainError("need at least one angle")
    c = float(np.mean(np.cos(a)))
    s = float(np.mean(np.sin(a)))
    length = float(np.hypot(c, s))
    if length < _DEGENERATE_LENGTH:
        return circular.Resultant(0.0, length, degenerate=True)
    return circular.Resultant(wrap_angle(np.arctan2(s, c)), min(length, 1.0))


def _rayleigh(angles, name):
    a = np.asarray(angles, dtype=float)
    n = a.size
    if n < 2:
        raise DomainError(f"Rayleigh {name} needs at least 2 angles")
    rbar = _circular_mean_resultant(a).mean_resultant_length
    r = n * rbar
    p = np.exp(np.sqrt(1.0 + 4.0 * n + 4.0 * (n * n - r * r)) - (1.0 + 2.0 * n))
    return float(r * rbar), float(np.clip(p, 0.0, 1.0))


def _plv(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or x.shape != y.shape:
        raise DomainError("inputs must be equal-length and nonempty")
    d = x - y
    value = float(np.hypot(np.mean(np.cos(d)), np.mean(np.sin(d))))
    return min(value, 1.0)


def _plv_tests(data):
    X = np.atleast_2d(np.asarray(data, dtype=float))
    tests = []
    for j, k in edge_list(X.shape[1]):
        x2, p = _rayleigh(wrap_angle(X[:, j] - X[:, k]), "statistic")
        tests.append(EdgeTest(edge=(j, k), x2=x2, df=2, p=p, mode="plv"))
    return tests


def _goodness_of_fit(data, params, n_synth=2000, seed=0):
    X = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = X.shape
    synth = _gibbs_sample(params, GibbsConfig(n_samples=n_synth, burn_in=500, seed=seed))
    p_marginal = fisher_combine(
        [ks_two_sample(wrap_angle(X[:, j]), synth[:, j]) for j in range(d)]
    )
    if d < 2:
        return {"p_marginal": p_marginal, "p_diff": 1.0, "p_sum": 1.0}
    p_diff = fisher_combine(
        [
            ks_two_sample(wrap_angle(X[:, j] - X[:, k]), wrap_angle(synth[:, j] - synth[:, k]))
            for j, k in edge_list(d)
        ]
    )
    p_sum = fisher_combine(
        [
            ks_two_sample(wrap_angle(X[:, j] + X[:, k]), wrap_angle(synth[:, j] + synth[:, k]))
            for j, k in edge_list(d)
        ]
    )
    return {"p_marginal": p_marginal, "p_diff": p_diff, "p_sum": p_sum}


# ---- helpers ---------------------------------------------------------------

def assert_same_bits(new, old):
    """Equal shape, dtype, values and sign bits (so -0.0 differs from 0.0)."""
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape and new.dtype == old.dtype
    assert np.array_equal(new, old)
    assert np.array_equal(np.signbit(new), np.signbit(old))


def outcome(fn, *args):
    """fn(*args), or the type and message of the exception it raises."""
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc), str(exc)


def draw_params(data, d):
    """Coefficients of every family, with zero or nonzero marginal blocks."""
    family = data.draw(st.sampled_from(list(Family)), label="family")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    scale = data.draw(st.sampled_from([0.1, 1.0, 4.0]), label="scale")
    phi = rng.uniform(-scale, scale, param_dim(d)) * family_mask(d, family)
    if data.draw(st.booleans(), label="zero_margins"):
        phi[: 2 * d] = 0.0
    return TorusGraphParams(d=d, phi=phi, family=family)


def draw_angles(data, n, d):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="angle_seed"))
    X = rng.uniform(0.0, 2.0 * np.pi, (n, d))
    # a common drift makes some pairs strongly locked
    return wrap_angle(X * data.draw(st.sampled_from([0.02, 1.0]), label="spread"))


D = st.integers(1, 30)


# ---- parameter maps --------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_to_natural_matches_loop(data):
    d = data.draw(D, label="d")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    kappa = rng.uniform(0.0, 3.0, d) * data.draw(st.sampled_from([0.0, 1.0]), label="margins")
    mc = MeanCenteredParams(mu=rng.uniform(-7.0, 7.0, d), kappa=kappa,
                            lambdas=rng.normal(size=(d * (d - 1) // 2, 4)))
    new, old = model.to_natural(mc), _to_natural(mc)
    assert_same_bits(new.phi, old.phi)
    assert new.family == old.family


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_to_mean_centered_matches_loop(data):
    params = draw_params(data, data.draw(D, label="d"))
    new, old = outcome(model.to_mean_centered, params), outcome(_to_mean_centered, params)
    if isinstance(old, tuple):
        assert new == old  # the same error type and message
        return
    for name in ("mu", "kappa", "lambdas"):
        assert_same_bits(getattr(new, name), getattr(old, name))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_gen_random_torus_graph_matches_loop(data):
    kwargs = dict(
        d=data.draw(D, label="d"),
        edge_density=data.draw(st.floats(0.01, 1.0), label="edge_density"),
        coupling_scale=data.draw(st.floats(0.1, 3.0), label="coupling_scale"),
        seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
        marginal_kappa=data.draw(st.sampled_from([0.0, 0.7]), label="marginal_kappa"),
    )
    (params, truth), (old_params, old_truth) = (
        simulation.gen_random_torus_graph(**kwargs), _gen_random_torus_graph(**kwargs))
    assert_same_bits(params.phi, old_params.phi)
    assert params.family == old_params.family
    assert truth == old_truth
    assert all(type(v) is int for edge in truth.edges for v in edge)


# ---- the Gibbs coefficient table and its three consumers ------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_conditional_coefficients_match_loop(data):
    d = data.draw(D, label="d")
    params = draw_params(data, d)
    rows, bias = sampling._conditional_coefficients(params)
    cx_c, cx_s, cy_c, cy_s = _conditional_coefficients(params)
    assert rows.shape == (d, 2, 2 * d) and bias.shape == (d, 2)
    assert_same_bits(rows[:, 0, :d], cx_c)
    assert_same_bits(rows[:, 0, d:], cx_s)
    assert_same_bits(rows[:, 1, :d], cy_c)
    assert_same_bits(rows[:, 1, d:], cy_s)
    assert_same_bits(bias, params.phi[: 2 * d].reshape(d, 2))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_conditional_von_mises_matches_loop(data):
    d = data.draw(D, label="d")
    params = draw_params(data, d)
    x = draw_angles(data, 1, d)[0]
    for k in range(d):
        x_rest = np.delete(x, k)
        new = sampling.conditional_von_mises(params, k, x_rest)
        old = _conditional_von_mises(params, k, x_rest)
        assert new == old
        assert [type(v) for v in new] == [type(v) for v in old]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_gibbs_sample_stream_matches_loop(data):
    d = data.draw(D, label="d")
    params = draw_params(data, d)
    cfg = GibbsConfig(n_samples=data.draw(st.integers(1, 30), label="n_samples"),
                      burn_in=data.draw(st.integers(0, 20), label="burn_in"),
                      thin=data.draw(st.integers(1, 3), label="thin"),
                      seed=data.draw(st.integers(0, 2**32 - 1), label="gibbs_seed"))
    assert_same_bits(sampling.gibbs_sample(params, cfg), _gibbs_sample(params, cfg))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_gibbs_sample_chains_stream_matches_loop(data):
    d = data.draw(D, label="d")
    params_list = [draw_params(data, d) for _ in range(data.draw(st.integers(1, 5), label="C"))]
    cfg = GibbsConfig(n_samples=data.draw(st.integers(1, 20), label="n_samples"),
                      burn_in=data.draw(st.integers(0, 20), label="burn_in"),
                      thin=data.draw(st.integers(1, 3), label="thin"),
                      seed=data.draw(st.integers(0, 2**32 - 1), label="gibbs_seed"))
    assert_same_bits(sampling.gibbs_sample_chains(params_list, cfg),
                     _gibbs_sample_chains(params_list, cfg))


# ---- resultants, PLV and the goodness-of-fit battery -----------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_resultants_match_former_functions(data):
    n = data.draw(st.integers(1, 3000), label="n")
    X = draw_angles(data, n, 2)
    x, y = X[:, 0], X[:, 1]
    assert circular.circular_mean_resultant(x) == _circular_mean_resultant(x)
    assert circular.plv(x, y) == _plv(x, y)
    assert outcome(circular.rayleigh_test, x) == outcome(lambda a: _rayleigh(a, "test")[1], x)
    assert (outcome(circular.rayleigh_statistic, x)
            == outcome(lambda a: _rayleigh(a, "statistic")[0], x))
    grid = X.reshape(-1, 2).T.copy()  # a 2-D sample is pooled, as before
    assert circular.circular_mean_resultant(grid) == _circular_mean_resultant(grid)
    assert circular.plv(grid, grid[::-1]) == _plv(grid, grid[::-1])


def test_degenerate_resultant_matches_former_function():
    x = np.array([0.0, np.pi, 0.5 * np.pi, 1.5 * np.pi])
    assert circular.circular_mean_resultant(x) == _circular_mean_resultant(x)
    assert circular.circular_mean_resultant(0.3) == _circular_mean_resultant(0.3)
    assert circular.plv(0.3, 0.1) == _plv(0.3, 0.1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_plv_tests_match_pair_loop(data):
    d, n = data.draw(D, label="d"), data.draw(st.integers(1, 3000), label="n")
    X = draw_angles(data, n, d)
    new, old = outcome(inference.plv_tests, X), outcome(_plv_tests, X)
    if isinstance(old, tuple):
        assert new == old
        return
    assert new == old
    for a, b in zip(new, old):
        assert [type(v) for v in a.edge] == [type(v) for v in b.edge]
        assert (type(a.x2), type(a.df), type(a.p)) == (type(b.x2), type(b.df), type(b.p))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.data())
def test_plv_tests_match_pair_loop_across_pair_blocks(data):
    # more than 256 pairs, so the pairs are reduced in several blocks
    d, n = data.draw(st.integers(24, 40), label="d"), data.draw(st.integers(2, 500), label="n")
    X = draw_angles(data, n, d)
    assert inference.plv_tests(X) == _plv_tests(X)


def test_plv_tests_memory_bounded():
    # one (pairs, samples) array would take 4560 x 3000 x 8 B = 109 MB
    X = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, (3000, 96))
    tracemalloc.start()
    try:
        inference.plv_tests(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_goodness_of_fit_matches_loop(data):
    d, n = data.draw(D, label="d"), data.draw(st.integers(1, 3000), label="n")
    params = draw_params(data, d)
    X = draw_angles(data, n, d)
    n_synth = data.draw(st.integers(100, 300), label="n_synth")
    seed = data.draw(st.integers(0, 2**32 - 1), label="gof_seed")
    assert (inference.goodness_of_fit(X, params, n_synth=n_synth, seed=seed)
            == _goodness_of_fit(X, params, n_synth=n_synth, seed=seed))
