"""Tests for the benchmark's own helpers: python3 -m pytest perfbench -q"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import gen
import layers
import run
import spans

ROOT = Path(__file__).resolve().parent.parent


# --- input generator ---------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 7])
def test_tree_truth_matches_parent_array(seed):
    d = 12
    X, parent = gen.tree_angles(d, 4000, seed)
    edges = gen.tree_edges(parent)
    assert (parent == -1).sum() == 1
    assert len(edges) == d - 1 == len(set(edges))
    # every node reaches the root, so the edges form a spanning tree
    for node in range(d):
        seen = set()
        while parent[node] >= 0:
            assert node not in seen
            seen.add(node)
            node = parent[node]
    # child - parent is offset + von Mises(0, 1) noise: resultant length
    # I1(1)/I0(1) = 0.446 on tree edges, about 0 between unrelated nodes
    for child, par in enumerate(parent):
        if par >= 0:
            r = abs(np.mean(np.exp(1j * (X[:, child] - X[:, par]))))
            assert 0.40 < r < 0.49
    assert X.min() >= 0.0 and X.max() < 2 * np.pi


def test_tree_csv_round_trip_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    truth = gen.write_tree_csv(a, 6, 50, seed=3)
    assert gen.write_tree_csv(b, 6, 50, seed=3) == truth
    assert a.read_bytes() == b.read_bytes()
    X, parent = gen.tree_angles(6, 50, seed=3)
    assert truth == gen.tree_edges(parent)
    assert a.read_text().splitlines()[0] == "ch01,ch02,ch03,ch04,ch05,ch06"
    np.testing.assert_array_equal(np.loadtxt(a, delimiter=",", skiprows=1), X)


# --- spans -------------------------------------------------------------------

def _span(i, parent, start, end, name="x", **extra):
    return dict(run="r", id=i, parent=parent, name=name, start=start, end=end, error=False, **extra)


def test_self_time_subtracts_direct_children_only():
    spans_ = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 4.0, 8.0),
        _span(3, 2, 5.0, 6.0),
    ]
    selfs = spans.self_times(spans_)
    assert selfs[("r", 0)] == pytest.approx(4.0)
    assert selfs[("r", 1)] == pytest.approx(2.0)
    assert selfs[("r", 2)] == pytest.approx(3.0)
    assert selfs[("r", 3)] == pytest.approx(1.0)


def test_span_stats_totals_and_ratios():
    spans_ = [
        _span(0, None, 0.0, 4.0, "cli.main"),
        _span(1, 0, 0.0, 1.0, "g.gen", seed=5),
        _span(2, 0, 1.0, 2.0, "g.gen", seed=5),
        _span(3, 0, 2.0, 3.0, "g.gen", seed=6, peak_mb=3.0, rows=10),
        _span(4, 0, 3.0, 3.5, "g.gen", seed=6, peak_mb=7.0, rows=10),
    ]
    st = spans.SpanStats(spans_)
    assert st.get("g.gen", "calls") == 4
    assert st.get("g.gen", "s") == pytest.approx(3.5)
    assert st.distinct_seeds("g.gen") == 2
    assert st.get("g.gen", "peak_mb") == 7.0
    assert st.get("g.gen", "rows") == 20
    assert st.layer_self_s("cli") == pytest.approx(0.5)
    assert st.root_s == pytest.approx(4.0)
    assert st.get("missing", "s") == 0


def test_tracer_returns_result_and_links_parents():
    tracer = spans.Tracer("run-1")
    marker = object()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return marker

    wrapped_leaf = tracer.wrap(leaf, "m.leaf", counters=lambda args, res: {"rows": args["x"]})

    def outer(x):
        return wrapped_leaf(x)

    wrapped_outer = tracer.wrap(outer, "m.outer")
    assert wrapped_outer(3) is marker
    with pytest.raises(ValueError):
        wrapped_outer(-1)
    names = [(s["name"], s["parent"], s["error"]) for s in tracer.spans]
    assert names == [("m.outer", None, False), ("m.leaf", 0, False),
                     ("m.outer", None, True), ("m.leaf", 2, True)]
    assert tracer.spans[1]["rows"] == 3
    assert all(s["run"] == "run-1" and s["end"] >= s["start"] for s in tracer.spans)


def test_tracer_survives_a_counter_that_no_longer_fits():
    tracer = spans.Tracer("r")
    wrapped = tracer.wrap(lambda rows: rows, "m.renamed", counters=lambda args, res: {"n": args["data"]})
    assert wrapped(5) == 5
    assert tracer.spans[0]["counter_errors"] == 1


def test_tracer_memory_peak_and_jsonl(tmp_path):
    tracer = spans.Tracer("r")
    wrapped = tracer.wrap(lambda: np.ones(2**20).sum(), "m.alloc", memory=True)
    assert wrapped() == 2**20
    assert tracer.spans[0]["peak_mb"] >= 8.0
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(path)
    assert spans.read_jsonl(path) == tracer.spans


def test_install_replaces_every_lookup(monkeypatch):
    def target():
        return 42

    home = types.ModuleType("torusgraphs.zz_home")
    caller = types.ModuleType("torusgraphs.zz_caller")
    home.target = target
    caller.target = target
    caller.alias = target
    monkeypatch.setitem(sys.modules, home.__name__, home)
    monkeypatch.setitem(sys.modules, caller.__name__, caller)

    class Owner:
        def method(self, seed):
            return seed

    tracer = spans.Tracer("r")
    installed = tracer.install([("zz.target", home, "target", None, False),
                                ("zz.Owner.method", Owner, "method", None, False),
                                ("zz.gone", home, "gone", None, False)])
    assert installed == ["zz.target", "zz.Owner.method"]
    assert home.target is caller.target is caller.alias is not target
    assert caller.alias() == 42 and Owner().method(9) == 9
    assert [s["name"] for s in tracer.spans] == ["zz.target", "zz.Owner.method"]


# --- output checks -----------------------------------------------------------

def test_fit_residual_check():
    assert checks.fit_residual("fitted\nresidual=1.2e-15\n", 1e-8) == []
    assert checks.fit_residual("residual=0.0995\n", 1e-8)
    assert checks.fit_residual("residual=nan\n", 1e-8)
    assert checks.fit_residual("no residual line\n", 1e-8)


def _graph_doc(path, edges, d=4):
    doc = {"edges": [{"j": j, "k": k, "significant": (j, k) in edges}
                     for j in range(d) for k in range(j + 1, d)]}
    path.write_text(json.dumps(doc))


def test_graph_check(tmp_path):
    path = tmp_path / "g.json"
    truth = [[0, 1], [1, 2], [2, 3]]
    _graph_doc(path, {(0, 1), (1, 2), (2, 3)})
    assert checks.graph_equals("", path, truth) == []
    _graph_doc(path, {(0, 1), (1, 2), (2, 3), (0, 3)})
    assert checks.graph_equals("", path, truth)
    _graph_doc(path, {(0, 1), (1, 2)})
    assert checks.graph_equals("", path, truth)


GRID = (0.001, 0.01, 0.1, 1.0)


def _cv_stdout(losses, star):
    rows = [f"  lambda={g:g}  heldout={loss:.6f}{' *' if i == star else ''}"
            for i, (g, loss) in enumerate(zip(GRID, losses))]
    return "cross-validation over 4 penalty weights, 5 folds:\n" + "\n".join(rows) + "\n"


def _model(path, d, zero_edge=None):
    phi = [0.0] * (2 * d) + [0.5] * (4 * d * (d - 1) // 2)
    if zero_edge is not None:
        start = checks._coupling_start(d, *zero_edge)
        phi[start : start + 4] = [0.0] * 4
    path.write_text(json.dumps({"d": d, "phi": phi}))


def test_cv_check(tmp_path):
    model = tmp_path / "m.json"
    truth = [[0, 1], [1, 3]]
    _model(model, 4)
    good = _cv_stdout([-1.0, -3.0, -2.0, 0.5], star=1)
    assert checks.cv_choice(good, GRID, model, truth) == []
    # starred lambda is not the minimiser
    assert checks.cv_choice(_cv_stdout([-1.0, -3.0, -2.0, 0.5], star=2), GRID, model, truth)
    # a row that is not a grid value
    assert checks.cv_choice(good, (0.001, 0.02, 0.1, 1.0), model, truth)
    # a missing row
    assert checks.cv_choice(good, GRID + (10.0,), model, truth)
    # a truth edge dropped from the support
    _model(model, 4, zero_edge=(1, 3))
    assert checks.cv_choice(good, GRID, model, truth)


def _summary(path, auc, fpr):
    path.write_text(json.dumps({"methods": {"torus": {"auc": auc, "fpr_at_alpha": fpr},
                                            "plv": {"auc": 0.9, "fpr_at_alpha": 0.5}}}))


def test_recovery_check(tmp_path):
    path = tmp_path / "summary.json"
    _summary(path, 0.99, 0.0)
    assert checks.recovery("", path, [0.0] * 20, 0.001, 0.9) == []
    # one false positive in one replicate stays within alpha + 2 MCSE
    reps = [0.03] + [0.0] * 19
    _summary(path, 0.99, sum(reps) / 20)
    assert checks.recovery("", path, reps, 0.001, 0.9) == []
    _summary(path, 0.85, 0.0)
    assert checks.recovery("", path, [0.0] * 20, 0.001, 0.9)
    _summary(path, 0.99, 0.2)
    assert checks.recovery("", path, [0.2] * 20, 0.001, 0.9)
    path.write_text(json.dumps({"methods": {"torus": {"auc": 1.0, "fpr_at_alpha": 0.0}}}))
    assert checks.recovery("", path, [], 0.001, 0.9)


# --- BENCHMARK.json ----------------------------------------------------------

def test_benchmark_json_matches_the_metrics_reported():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, unit, better, _, _ in layers.METRICS]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()}
