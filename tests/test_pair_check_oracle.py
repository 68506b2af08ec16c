"""Oracle for the one check of node pairs: the former per-pair loops.

``_edge_coords`` (behind ``edge_test``, ``edge_tests`` and
``group_edge_test``) and ``build_graph`` each checked and ordered their pairs
in a Python loop; both now call ``model._canonical_pairs``. Those loops are
kept below verbatim. On every list of pairs the shared check must agree with
them: accept or reject, exception type and message, canonical pairs and
ranks. The one convention change: ``build_graph`` named a repeated pair as
given, and now names it j < k, as ``_edge_coords`` always did.

The other tests pin what the shared check added: pairs in either order
wherever pairs are taken, a repeat rejected wherever one would be counted
twice, and a typed error for entries that are not integers.
"""

import ast
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusgraphs.inference
from torusgraphs import io as tgio
from torusgraphs.cli import main
from torusgraphs.estimation import fit_closed_form, fit_group_lasso, select_lambda_cv
from torusgraphs.exceptions import DomainError, FamilyScopeError, SchemaError
from torusgraphs.inference import (
    CORRECTION_NONE,
    EdgeTest,
    GraphStructure,
    asymptotic_cov,
    bootstrap_null_test,
    build_graph,
    correct_pvalues,
    edge_test,
    group_edge_test,
)
from torusgraphs.io import save_samples_csv
from torusgraphs.model import (
    TorusGraphParams,
    _canonical_pairs,
    coupling_coords,
    edge_rank,
    param_dim,
)
from torusgraphs.simulation import TruthGraph

from test_scoring_oracle import chain_sample, outcome

_MODE_OFFSETS = {"full": [0, 1, 2, 3], "rot": [0, 1], "refl": [2, 3]}


# ---- the former code, verbatim ---------------------------------------------

def _edge_coords(params, edges, mode):
    """Validated distinct edges as (j, k) with j < k, and an (edges, block size)
    array of the coordinates ``mode`` tests on each, read off the coupling table."""
    d = params.d
    norm = {}  # an ordered set
    for j, k in edges:
        if not (0 <= j < d and 0 <= k < d and j != k):
            raise DomainError(f"invalid edge ({j}, {k}) for d={d}")
        edge = (min(j, k), max(j, k))
        if edge in norm:
            raise DomainError(f"duplicate edge {edge}")
        norm[edge] = None
    if mode not in _MODE_OFFSETS:
        raise DomainError(f"unknown test mode {mode!r}")
    coords = coupling_coords(d)[[edge_rank(d, j, k) for j, k in norm]][:, _MODE_OFFSETS[mode]]
    if not params.active[coords].all():
        raise FamilyScopeError(
            f"mode {mode!r} tests coordinates masked by family {params.family.value!r}"
        )
    return list(norm), coords


def _build_graph(tests, alpha, correction=CORRECTION_NONE, d=None):
    """Threshold edgewise tests into a graph.

    P-values are adjusted by :func:`correct_pvalues` over all the tests.
    ``d`` is inferred from the largest node index when not given. Self-loops,
    nodes outside [0, d) and duplicate edges, (j, k) and (k, j) being one
    edge, are rejected.
    """
    tests = list(tests)
    p_corr = correct_pvalues([t.p for t in tests], correction)
    if not 0 < alpha <= 1:
        raise DomainError("alpha must be in (0, 1]")
    if d is None:
        d = 1 + max((max(t.edge) for t in tests), default=0)
    seen = set()
    for t in tests:
        edge = (min(t.edge), max(t.edge))
        if not 0 <= edge[0] < edge[1] < d:
            raise DomainError(f"invalid edge {t.edge} for d={d}")
        if edge in seen:
            raise DomainError(f"duplicate edge {t.edge}")
        seen.add(edge)
    jj, kk = np.array([t.edge for t in tests], dtype=int).reshape(-1, 2).T
    adjacency = np.zeros((d, d), dtype=bool)
    pvals = np.ones((d, d))
    pvals[jj, kk] = pvals[kk, jj] = p_corr
    adjacency[jj, kk] = adjacency[kk, jj] = p_corr <= alpha
    return GraphStructure(
        d=d, adjacency=adjacency, pvals=pvals, alpha=float(alpha),
        correction=correction, tests=tuple(tests),
    )


# ---- the property ----------------------------------------------------------

@st.composite
def pair_lists(draw):
    """d and a list of pairs, each valid, reversed, a self-loop, with a
    negative node, with a node >= d, or a repeat of an earlier pair in either
    order; about half the lists draw distinct valid pairs in either order only."""
    d = draw(st.integers(1, 7), label="d")
    invalid = draw(st.booleans(), label="invalid kinds")
    kinds = ["valid", "reversed"] + (["self-loop", "negative", "large", "repeat"] if invalid else [])
    node = st.integers(0, d - 1)
    pairs = []
    for _ in range(draw(st.integers(0, 8), label="size")):
        kind = draw(st.sampled_from(kinds))
        if kind in ("valid", "reversed") and d >= 2:
            j, k = sorted(draw(st.lists(node, min_size=2, max_size=2, unique=True)))
            if not invalid and (j, k) in {(min(p), max(p)) for p in pairs}:
                continue
            pair = (j, k) if kind == "valid" else (k, j)
        elif kind == "negative":
            pair = (draw(st.integers(-3, -1)), draw(st.integers(-3, d + 2)))
        elif kind == "large":
            pair = (draw(st.integers(d, d + 3)), draw(st.integers(-3, d + 2)))
        elif kind == "repeat" and pairs:
            j, k = draw(st.sampled_from(pairs))
            pair = draw(st.sampled_from([(j, k), (k, j)]))
        else:
            j = draw(node)
            pair = (j, j)
        pairs.append(pair[::-1] if draw(st.booleans()) else pair)
    return d, pairs


def canonical_message(msg):
    """A former build_graph message with its repeated pair named j < k."""
    prefix = "duplicate edge "
    if msg.startswith(prefix):
        return prefix + str(tuple(sorted(ast.literal_eval(msg[len(prefix):]))))
    return msg


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair_lists(), st.booleans())
def test_shared_check_matches_former_loops(case, infer_d):
    d, pairs = case
    new = outcome(_canonical_pairs, d, pairs)

    params = TorusGraphParams(d=d, phi=np.zeros(param_dim(d)))
    old = outcome(_edge_coords, params, pairs, "full")
    if isinstance(old, tuple) and isinstance(old[0], type):
        assert isinstance(new[0], type) and new == old
    else:
        canon, ranks = new
        edges, coords = old
        assert canon.tolist() == [list(e) for e in edges]
        assert np.array_equal(coupling_coords(d)[ranks], coords)
        assert ranks.tolist() == [edge_rank(d, j, k) for j, k in edges]
        assert [tuple(e) for e in canon.tolist()] == [(min(p), max(p)) for p in pairs]

    tests = [EdgeTest(edge=p, x2=1.0, df=4, p=(i + 1) / 16) for i, p in enumerate(pairs)]
    graph_d = None if infer_d else d
    new_graph = outcome(build_graph, tests, 0.1, CORRECTION_NONE, graph_d)
    old_graph = outcome(_build_graph, tests, 0.1, CORRECTION_NONE, graph_d)
    if isinstance(old_graph, tuple):
        assert isinstance(new_graph, tuple)
        assert new_graph == (old_graph[0], canonical_message(old_graph[1]))
    else:
        assert new_graph.d == old_graph.d
        assert new_graph.adjacency.tobytes() == old_graph.adjacency.tobytes()
        assert new_graph.pvals.tobytes() == old_graph.pvals.tobytes()
        assert new_graph.tests == old_graph.tests
    if infer_d:
        return
    # build_graph and the tests' check are one check with one message
    if isinstance(new[0], type):
        assert new_graph == new
    else:
        assert isinstance(new_graph, GraphStructure)


# ---- what the shared check added -------------------------------------------

@pytest.fixture(scope="module")
def fitted():
    X = chain_sample(4, 400, seed=7)
    fit = fit_closed_form(X)
    return X, fit, asymptotic_cov(X, fit.params, moments=fit.moments)


@pytest.mark.parametrize("zero_edges", [[(2, 0)], [(3, 1), (0, 2)], [(1, 0), (0, 3), (3, 2)]])
@pytest.mark.parametrize("method", ["closed_form", "lasso"])
def test_reversed_zero_edges_fit_as_the_canonical_order(fitted, zero_edges, method):
    X = fitted[0]
    canonical = [(min(p), max(p)) for p in zero_edges]
    if method == "closed_form":
        new = fit_closed_form(X, zero_edges=zero_edges)
        ref = fit_closed_form(X, zero_edges=canonical)
    else:
        new = fit_group_lasso(X, lam=0.05, zero_edges=zero_edges)
        ref = fit_group_lasso(X, lam=0.05, zero_edges=canonical)
    assert new.params.phi.tobytes() == ref.params.phi.tobytes()
    for j, k in canonical:
        assert not new.params.coupling_block(j, k).any()


@pytest.mark.parametrize("zero_edges,message", [
    ([(0, 1), (1, 0)], r"^duplicate edge \(0, 1\)$"),
    ([(2, 2)], r"^invalid edge \(2, 2\) for d=4$"),
    ([(4, 0)], r"^invalid edge \(4, 0\) for d=4$"),
])
def test_zero_edges_take_the_shared_messages(fitted, zero_edges, message):
    with pytest.raises(DomainError, match=message):
        fit_closed_form(None, zero_edges=zero_edges, moments=fitted[1].moments)


def _graph_doc(edges):
    return {
        "schema_version": 1, "d": 3, "alpha": 0.05, "correction": "none",
        "edges": [{"j": j, "k": k, "x2": 9.0, "df": 4, "p": 0.01, "p_corrected": 0.01,
                   "significant": True, "mode": "full"} for j, k in edges],
    }


@pytest.mark.parametrize("edges,message", [
    ([(0, 1), (1, 0)], r"^duplicate edge \(0, 1\)$"),
    ([(0, 2), (1, 2), (0, 2)], r"^duplicate edge \(0, 2\)$"),
    ([(0, 1), (2, 2)], r"^invalid edge \(2, 2\) for d=3$"),
    ([(3, 0)], r"^invalid edge \(3, 0\) for d=3$"),
])
def test_graph_file_pairs_are_checked(edges, message):
    with pytest.raises(SchemaError, match=message):
        tgio.graph_from_dict(_graph_doc(edges))


def test_graph_file_in_either_order_loads():
    graph = tgio.graph_from_dict(_graph_doc([(1, 0), (2, 1)]))
    assert graph.edges == [(0, 1), (1, 2)]
    assert [t.edge for t in graph.tests] == [(1, 0), (2, 1)]


def test_summarize_diffs_on_a_graph_with_a_repeated_pair_exits_1(tmp_path):
    data, graph = tmp_path / "x.csv", tmp_path / "g.json"
    save_samples_csv(data, chain_sample(3, 200, seed=1))
    graph.write_text(json.dumps(_graph_doc([(0, 1), (1, 2), (1, 0)])))
    assert main(["summarize-diffs", str(data), "--graph", str(graph),
                 "--between", "0", "1,2"]) == 1


@pytest.mark.parametrize("null_edges,message", [
    ([(0, 1), (1, 0)], r"^duplicate edge \(0, 1\)$"),
    ([(0, 1), (0, 1)], r"^duplicate edge \(0, 1\)$"),
    ([(0, 3)], r"^invalid edge \(0, 3\) for d=3$"),
])
def test_bootstrap_null_edges_checked_before_any_fit(monkeypatch, null_edges, message):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran before the null edges were checked")

    monkeypatch.setattr(torusgraphs.inference, "_cross_validate", no_fit)
    with pytest.raises(DomainError, match=message):
        bootstrap_null_test(chain_sample(3, 100, seed=2), null_edges, B=19)


@pytest.mark.parametrize("pair", [(0, 1.5), (1.0, 2), (True, 2), (0, np.True_), ("0", 1), (0, None)])
def test_non_integer_entries_are_domain_errors(fitted, pair):
    _, fit, cov = fitted
    match = r"^edges must be \(j, k\) pairs of integer node indices$"
    with pytest.raises(DomainError, match=match):
        edge_test(fit, cov, *pair)
    with pytest.raises(DomainError, match=match):
        group_edge_test(fit, cov, [(0, 3), pair])
    with pytest.raises(DomainError, match=match):
        build_graph([EdgeTest(edge=pair, x2=1.0, df=4, p=0.5)], alpha=0.05, d=4)
    with pytest.raises(DomainError, match=match):
        fit_closed_form(None, zero_edges=[pair], moments=fit.moments)
    with pytest.raises(DomainError, match=match):
        TruthGraph(d=4, edges=frozenset({pair}))


def test_numpy_integers_give_python_ints(fitted):
    _, fit, cov = fitted
    t = edge_test(fit, cov, np.int64(2), np.int32(0))
    assert t.edge == (0, 2) and all(type(v) is int for v in t.edge)
    tests = [EdgeTest(edge=(np.int64(0), np.int64(1)), x2=1.0, df=4, p=0.5),
             EdgeTest(edge=(np.int64(1), np.int64(0)), x2=1.0, df=4, p=0.5)]
    with pytest.raises(DomainError, match=r"^duplicate edge \(0, 1\)$"):
        build_graph(tests, alpha=0.05)
    with pytest.raises(DomainError, match=r"^invalid edge \(5, 0\) for d=4$"):
        build_graph([EdgeTest(edge=(np.int64(5), np.int64(0)), x2=1.0, df=4, p=0.5)],
                    alpha=0.05, d=4)


def test_truth_graph_merges_a_pair_in_both_orders_and_takes_the_shared_messages():
    assert TruthGraph(d=3, edges=frozenset({(0, 1), (1, 0), (2, 1)})).edges == {(0, 1), (1, 2)}
    with pytest.raises(DomainError, match=r"^invalid edge \(1, 1\) for d=3$"):
        TruthGraph(d=3, edges=frozenset({(1, 1)}))
    with pytest.raises(DomainError, match=r"^invalid edge \(3, 0\) for d=3$"):
        TruthGraph(d=3, edges=frozenset({(3, 0)}))


@pytest.mark.parametrize("pairs", [[(0, 1), (2, 1)], [(3, 0)], [(1, 3), (0, 2), (3, 2)]])
def test_pair_arrays_give_the_results_of_lists(fitted, pairs):
    X, fit, cov = fitted
    array = np.array(pairs)
    new, ref = group_edge_test(fit, cov, array), group_edge_test(fit, cov, pairs)
    assert new == ref and new.x2.hex() == ref.x2.hex()
    for fn, kwargs in ((fit_closed_form, {}), (fit_group_lasso, {"lam": 0.05})):
        new, ref = fn(X, zero_edges=array, **kwargs), fn(X, zero_edges=pairs, **kwargs)
        assert new.params.phi.tobytes() == ref.params.phi.tobytes()
    cv = {"folds": 3, "grid": [0.02, 0.1], "seed": 4}
    assert select_lambda_cv(X, zero_edges=array, **cv) == select_lambda_cv(X, zero_edges=pairs, **cv)


@pytest.mark.parametrize("edges", [None, [], np.zeros((0, 2), dtype=int)],
                         ids=["none", "empty-list", "empty-array"])
def test_a_group_test_needs_an_edge(fitted, edges):
    _, fit, cov = fitted
    with pytest.raises(DomainError, match=r"^need at least one edge$"):
        group_edge_test(fit, cov, edges)


def test_all_pairs_checked_as_one_array():
    d = 48
    pairs, ranks = _canonical_pairs(d, np.transpose(np.triu_indices(d, 1)))
    assert ranks.tolist() == list(range(d * (d - 1) // 2))
    assert np.array_equal(pairs, np.transpose(np.triu_indices(d, 1)))
    reversed_pairs, reversed_ranks = _canonical_pairs(d, pairs[::-1, ::-1])
    assert np.array_equal(reversed_pairs, pairs[::-1])
    assert np.array_equal(reversed_ranks, ranks[::-1])
