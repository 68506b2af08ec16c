"""Oracle for the all-pairs scoring path: the former per-pair loops.

``test`` and the benchmark harness ran ``edge_test`` once per pair, and each
call rebuilt its block's coordinates from ``coupling_slice`` and the family
mask, gathered its own factor columns, formed its own covariance block and
made its own solve and chi-squared call; the package now tests every pair,
and a group, as one stack. ``plv-graph`` and the PLV baseline formed each
pair's resultant twice, once for the Rayleigh statistic and once for its
p-value. ``family_mask``, the zeroed-edge index set and the penalty blocks
walked the edges in Python. Those are kept below verbatim. Each test's
arithmetic is unchanged, so the package must equal them exactly: every edge,
statistic, df, p-value and mode, every degenerate-test error, every mask,
index set and penalty block, and the graph files the CLI writes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusgraphs.model
from torusgraphs import io as tgio
from torusgraphs.circular import chi2_sf, circular_mean_resultant, wrap_angle
from torusgraphs.cli import main
from torusgraphs.estimation import FitResult, _active_indices, _penalized_blocks, fit_closed_form
from torusgraphs.exceptions import DegenerateTestError, DomainError, FamilyScopeError
from torusgraphs.inference import (
    MODE_FULL,
    MODE_REFLECTIONAL,
    MODE_ROTATIONAL,
    EdgeTest,
    asymptotic_cov,
    build_graph,
    edge_test,
    edge_tests,
    group_edge_test,
    plv_tests,
)
from torusgraphs.model import Family, coupling_slice, edge_list, family_mask, param_dim

MODES = (MODE_FULL, MODE_ROTATIONAL, MODE_REFLECTIONAL)


# ---- the former code, verbatim ---------------------------------------------

def _family_mask(d, family):
    """Boolean vector over the coefficient layout: True = active under family."""
    family = Family(family)
    active = np.ones(param_dim(d), dtype=bool)
    if family in (Family.UNIFORM_MARGINAL, Family.UNIFORM_PHASE_DIFF):
        active[: 2 * d] = False
    if family in (Family.PHASE_DIFF, Family.UNIFORM_PHASE_DIFF):
        for j, k in edge_list(d):
            sl = coupling_slice(d, j, k)
            active[sl.start + 2 : sl.start + 4] = False
    return active


def _active_indices_loop(d, family, zero_edges=None):
    active = family_mask(d, family)
    if zero_edges:
        for j, k in zero_edges:
            active[coupling_slice(d, j, k)] = False
    return np.nonzero(active)[0]


def _penalized_blocks_loop(d, idx):
    """Active-coordinate positions of each coupling block as an (E, size)
    index matrix for the penalty (block size is uniform within a family)."""
    pos = -np.ones(param_dim(d), dtype=int)
    pos[idx] = np.arange(idx.size)
    blocks = []
    for j, k in edge_list(d):
        sl = coupling_slice(d, j, k)
        p = pos[sl.start : sl.stop]
        p = p[p >= 0]
        if p.size:
            blocks.append(p)
    if not blocks:
        return np.zeros((0, 0), dtype=int)
    return np.vstack(blocks)


def _mode_offsets(mode):
    if mode == MODE_FULL:
        return [0, 1, 2, 3]
    if mode == MODE_ROTATIONAL:
        return [0, 1]
    if mode == MODE_REFLECTIONAL:
        return [2, 3]
    raise DomainError(f"unknown test mode {mode!r}")


def _block_coords(fit, j, k, mode):
    d = fit.params.d
    if not (0 <= j < d and 0 <= k < d and j != k):
        raise DomainError(f"invalid edge ({j}, {k}) for d={d}")
    j, k = min(j, k), max(j, k)
    sl = coupling_slice(d, j, k)
    coords = [sl.start + o for o in _mode_offsets(mode)]
    active = fit.params.active
    if not all(active[c] for c in coords):
        raise FamilyScopeError(
            f"mode {mode!r} tests coordinates masked by family {fit.params.family.value!r}"
        )
    return (j, k), coords


def _cov_block(cov, coords):
    """Sigma restricted to ``coords`` (coordinates of the full layout)."""
    cols = cov.position[np.asarray(coords, dtype=int)]
    if np.any(cols < 0):
        raise FamilyScopeError(
            "covariance block requested on a coordinate masked by the family"
        )
    F = cov.factor[:, cols]
    return F.T @ F


def _quadratic_test(fit, cov, edge, coords):
    phi_e = fit.params.phi[coords]
    sigma_e = _cov_block(cov, coords)
    try:
        sol = np.linalg.solve(sigma_e, phi_e)
    except np.linalg.LinAlgError as exc:
        raise DegenerateTestError(f"singular covariance block in the test of {edge}") from exc
    x2 = float(fit.n * phi_e @ sol)
    if not np.isfinite(x2):
        raise DegenerateTestError(f"non-finite test statistic for {edge}")
    return max(x2, 0.0)


def _edge_test(fit, cov, j, k, mode=MODE_FULL):
    """Chi-squared test of one coupling block (or its rotational /
    reflectional half) against zero; df equals the tested block size."""
    edge, coords = _block_coords(fit, j, k, mode)
    x2 = _quadratic_test(fit, cov, edge, coords)
    df = len(coords)
    return EdgeTest(edge=edge, x2=x2, df=df, p=chi2_sf(x2, df), mode=mode)


def _group_edge_test(fit, cov, edges, mode=MODE_FULL):
    """Joint chi-squared test that every edge in the group is absent.

    df is (block size) x (number of edges), e.g. 40 rotational edges -> 80.
    """
    if not edges:
        raise DomainError("need at least one edge")
    coords = []
    seen = set()
    norm_edges = []
    for j, k in edges:
        edge, block = _block_coords(fit, j, k, mode)
        if edge in seen:
            raise DomainError(f"duplicate edge {edge}")
        seen.add(edge)
        norm_edges.append(edge)
        coords.extend(block)
    x2 = _quadratic_test(fit, cov, tuple(norm_edges), coords)
    df = len(coords)
    return EdgeTest(edge=tuple(norm_edges), x2=x2, df=df, p=chi2_sf(x2, df), mode=mode)


def _edge_test_loop(fit, cov, mode):
    """The scoring loop of ``test`` and of the harness's torus method."""
    return [_edge_test(fit, cov, j, k, mode=mode) for j, k in edge_list(fit.params.d)]


def _rayleigh_test(angles):
    """Rayleigh test of circular uniformity; returns the p-value.

    Uses the refined exponential approximation
    p = exp(sqrt(1 + 4N + 4(N^2 - R^2)) - (1 + 2N)) with R = N * Rbar,
    clamped to [0, 1].
    """
    a = np.asarray(angles, dtype=float)
    n = a.size
    if n < 2:
        raise DomainError("Rayleigh test needs at least 2 angles")
    rbar = circular_mean_resultant(a).mean_resultant_length
    r = n * rbar
    p = np.exp(np.sqrt(1.0 + 4.0 * n + 4.0 * (n * n - r * r)) - (1.0 + 2.0 * n))
    return float(np.clip(p, 0.0, 1.0))


def _rayleigh_statistic(angles):
    """Rayleigh Z = N * Rbar^2, the statistic behind :func:`rayleigh_test`."""
    a = np.asarray(angles, dtype=float)
    if a.size < 2:
        raise DomainError("Rayleigh statistic needs at least 2 angles")
    rbar = circular_mean_resultant(a).mean_resultant_length
    return float(a.size * rbar * rbar)


def _plv_test_loop(angles):
    """The scoring loop of ``plv-graph``."""
    tests = []
    for j, k in edge_list(angles.shape[1]):
        w = wrap_angle(angles[:, j] - angles[:, k])
        tests.append(
            EdgeTest(edge=(j, k), x2=_rayleigh_statistic(w), df=2, p=_rayleigh_test(w), mode="plv")
        )
    return tests


# ---- helpers ---------------------------------------------------------------

def chain_sample(d, n, seed):
    """Angles with each node one von Mises step from the previous one."""
    rng = np.random.default_rng(seed)
    X = np.empty((n, d))
    X[:, 0] = rng.uniform(0, 2 * np.pi, n)
    for j in range(1, d):
        X[:, j] = X[:, j - 1] + 0.3 + rng.vonmises(0.0, 2.0, n)
    return wrap_angle(X)


def outcome(fn, *args):
    """fn(*args), or the type and message of the exception it raises."""
    try:
        return fn(*args)
    except (DomainError, FamilyScopeError) as exc:
        return type(exc), str(exc)


def assert_same_tests(new, old):
    """Exact equality of every field, and of the types the JSON writer sees."""
    assert new == old
    for a, b in zip(new, old):
        assert [type(v) for v in a.edge] == [type(v) for v in b.edge]
        assert (type(a.x2), type(a.df), type(a.p)) == (type(b.x2), type(b.df), type(b.p))


def sampled_zero_edges(data, d):
    edges = edge_list(d)
    if not edges:
        return []
    return data.draw(st.lists(st.sampled_from(edges), unique=True), label="zero_edges")


# ---- layout ----------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_masks_index_sets_and_penalty_blocks_match_loops(data):
    d = data.draw(st.integers(1, 7), label="d")
    family = data.draw(st.sampled_from(list(Family)), label="family")
    zero_edges = sampled_zero_edges(data, d)
    mask = family_mask(d, family)
    assert mask.dtype == bool
    np.testing.assert_array_equal(mask, _family_mask(d, family))
    idx = _active_indices(d, family, zero_edges)
    old_idx = _active_indices_loop(d, family, zero_edges)
    assert idx.dtype == old_idx.dtype
    np.testing.assert_array_equal(idx, old_idx)
    blocks, old_blocks = _penalized_blocks(d, idx), _penalized_blocks_loop(d, idx)
    assert blocks.shape == old_blocks.shape and blocks.dtype == old_blocks.dtype
    np.testing.assert_array_equal(blocks, old_blocks)


def test_coupling_coords_rows_are_the_coupling_slices():
    for d in range(1, 8):
        table = torusgraphs.model.coupling_coords(d)
        assert table.shape == (d * (d - 1) // 2, 4)
        for e, (j, k) in enumerate(edge_list(d)):
            sl = coupling_slice(d, j, k)
            assert table[e].tolist() == list(range(sl.start, sl.stop))


# ---- torus-graph edge tests ------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_edge_tests_match_per_pair_loop(data):
    d = data.draw(st.integers(1, 7), label="d")
    n = data.draw(st.integers(5 * param_dim(d), 600), label="n")
    family = data.draw(st.sampled_from(list(Family)), label="family")
    mode = data.draw(st.sampled_from(MODES), label="mode")
    zero_edges = sampled_zero_edges(data, d)
    X = chain_sample(d, n, seed=data.draw(st.integers(0, 2**32 - 1), label="seed"))
    fit = fit_closed_form(X, family=family, zero_edges=zero_edges)
    cov = asymptotic_cov(X, fit.params, moments=fit.moments)

    new, old = outcome(edge_tests, fit, cov, mode), outcome(_edge_test_loop, fit, cov, mode)
    if isinstance(old, tuple):
        assert new == old  # the same error type and message
        return
    assert_same_tests(new, old)
    assert [t.edge for t in new] == edge_list(d)
    for j, k in edge_list(d):
        assert_same_tests([edge_test(fit, cov, k, j, mode)], [_edge_test(fit, cov, k, j, mode)])
    if d >= 2:
        group = data.draw(st.lists(st.sampled_from(edge_list(d)), min_size=1, unique=True),
                          label="group")
        group = [(k, j) if i % 2 else (j, k) for i, (j, k) in enumerate(group)]
        assert_same_tests([group_edge_test(fit, cov, group, mode)],
                          [_group_edge_test(fit, cov, group, mode)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_stacked_tests_equal_lone_tests_bit_for_bit(data):
    """Every pair and several edge groups, compared through the bytes of x2
    and p, so a last-bit change or a -0.0 cannot pass."""
    d = data.draw(st.integers(2, 8), label="d")
    m = param_dim(d)
    n = data.draw(st.integers(5 * m, 5 * m + 600), label="n")
    family = data.draw(st.sampled_from(list(Family)), label="family")
    mode = data.draw(st.sampled_from(MODES), label="mode")
    groups = data.draw(st.lists(st.lists(st.sampled_from(edge_list(d)), min_size=1, unique=True),
                                min_size=1, max_size=4), label="groups")
    X = chain_sample(d, n, seed=data.draw(st.integers(0, 2**32 - 1), label="seed"))
    fit = fit_closed_form(X, family=family)
    cov = asymptotic_cov(X, fit.params, moments=fit.moments)

    expected = outcome(_edge_test_loop, fit, cov, mode)
    if isinstance(expected, tuple):  # the family masks the mode
        assert outcome(edge_tests, fit, cov, mode) == expected
        return
    new = edge_tests(fit, cov, mode) + [group_edge_test(fit, cov, g, mode) for g in groups]
    old = expected + [_group_edge_test(fit, cov, g, mode) for g in groups]
    assert [(t.edge, t.df, t.mode) for t in new] == [(t.edge, t.df, t.mode) for t in old]
    for field in ("x2", "p"):
        assert (np.array([getattr(t, field) for t in new]).tobytes()
                == np.array([getattr(t, field) for t in old]).tobytes())


@pytest.mark.parametrize("family,edges,mode", [
    (Family.FULL, [(0, 0)], MODE_FULL),
    (Family.FULL, [(0, 3)], MODE_ROTATIONAL),
    (Family.FULL, [(-1, 1)], MODE_REFLECTIONAL),
    (Family.FULL, [(0, 1), (2, 1), (1, 0)], MODE_FULL),
    (Family.FULL, [(0, 1), (1, 2), (2, 1)], MODE_ROTATIONAL),
    (Family.FULL, [(0, 1)], "diagonal"),
    (Family.PHASE_DIFF, [(0, 1)], MODE_REFLECTIONAL),
    (Family.PHASE_DIFF, [(2, 1), (0, 2)], MODE_FULL),
], ids=["self-loop", "out-of-range", "negative", "duplicate", "duplicate-later", "unknown-mode",
        "masked-mode", "masked-mode-group"])
def test_invalid_requests_raise_the_former_errors(family, edges, mode):
    X = chain_sample(3, 200, seed=3)
    fit = fit_closed_form(X, family=family)
    cov = asymptotic_cov(X, fit.params, moments=fit.moments)
    if len(edges) == 1:
        (j, k), = edges
        assert outcome(edge_test, fit, cov, j, k, mode) == outcome(_edge_test, fit, cov, j, k, mode)
    expected = outcome(_group_edge_test, fit, cov, edges, mode)
    assert isinstance(expected, tuple)
    assert outcome(group_edge_test, fit, cov, edges, mode) == expected


def test_one_family_mask_per_edge_tests_call(monkeypatch):
    X = chain_sample(6, 400, seed=4)
    fit = fit_closed_form(X, family=Family.PHASE_DIFF)
    cov = asymptotic_cov(X, fit.params, moments=fit.moments)
    calls = []

    def counting(*args):
        calls.append(args)
        return family_mask(*args)

    monkeypatch.setattr(torusgraphs.model, "family_mask", counting)
    tests = edge_tests(fit, cov, MODE_ROTATIONAL)
    assert len(tests) == 15
    assert len(calls) == 1


# ---- PLV baseline ----------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_plv_tests_match_pair_loop(data):
    d = data.draw(st.integers(1, 7), label="d")
    n = data.draw(st.integers(1, 400), label="n")
    X = chain_sample(d, n, seed=data.draw(st.integers(0, 2**32 - 1), label="seed"))
    new, old = outcome(plv_tests, X), outcome(_plv_test_loop, X)
    if isinstance(old, tuple):
        assert new == old
    else:
        assert_same_tests(new, old)


def test_plv_tests_equal_pair_loop_on_chain_and_without_pairs():
    X = chain_sample(5, 300, seed=5)
    tests = plv_tests(X)
    assert len(tests) == 10
    assert_same_tests(tests, _plv_test_loop(X))
    # d = 1 has no pair, so no Rayleigh test runs and no N is too small
    for n in (0, 1, 2):
        assert plv_tests(np.zeros((n, 1))) == _plv_test_loop(np.zeros((n, 1))) == []


# ---- the CLI writes the oracle's graphs ------------------------------------

@pytest.mark.parametrize("family,mode", [("full", "auto"), ("phasediff", "rot"),
                                         ("full", "refl"), ("uniform", "full")])
def test_test_graph_equals_oracle_graph(tmp_path, capsys, family, mode):
    csv, model, graph = tmp_path / "x.csv", tmp_path / "model.json", tmp_path / "graph.json"
    tgio.save_samples_csv(csv, chain_sample(6, 400, seed=6))
    assert main(["fit", str(csv), "--family", family, "--out", str(model)]) == 0
    assert main(["test", str(csv), "--model", str(model), "--mode", mode, "--alpha", "0.01",
                 "--correction", "bonferroni", "--out", str(graph)]) == 0

    ds, params = tgio.load_csv(csv), tgio.load_model(model)
    cov = asymptotic_cov(ds.angles, params)
    fit = FitResult(params=params, moments=cov.moments, method="loaded", residual_norm=0.0)
    test_mode = {"auto": MODE_FULL, "rot": MODE_ROTATIONAL, "refl": MODE_REFLECTIONAL,
                 "full": MODE_FULL}[mode]
    oracle = build_graph(_edge_test_loop(fit, cov, test_mode), alpha=0.01,
                         correction="bonferroni", d=ds.d)
    tgio.save_graph(tmp_path / "oracle.json", oracle)
    assert graph.read_bytes() == (tmp_path / "oracle.json").read_bytes()


def test_plv_graph_equals_oracle_graph(tmp_path, capsys):
    csv, graph = tmp_path / "x.csv", tmp_path / "graph.json"
    tgio.save_samples_csv(csv, chain_sample(6, 400, seed=7))
    assert main(["plv-graph", str(csv), "--alpha", "0.01", "--out", str(graph)]) == 0
    ds = tgio.load_csv(csv)
    oracle = build_graph(_plv_test_loop(ds.angles), alpha=0.01, correction="none", d=ds.d)
    tgio.save_graph(tmp_path / "oracle.json", oracle)
    assert graph.read_bytes() == (tmp_path / "oracle.json").read_bytes()
