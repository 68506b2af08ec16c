"""End-to-end CLI tests: subcommand wiring, file formats, exit codes."""

import json

import numpy as np
import pytest

from torusgraphs.circular import rayleigh_test
from torusgraphs.cli import main
from torusgraphs.io import load_csv, load_graph, load_model, save_samples_csv
from torusgraphs.model import Family, TorusGraphParams, coupling_slice
from torusgraphs.simulation import gen_chain


@pytest.fixture
def chain_csv(tmp_path):
    X, truth = gen_chain(N=840, d=5, xi=np.pi / 100, kappa1=0.01, kappa_eps=40.0,
                         contam=(15, 0.1), seed=101)
    f = tmp_path / "chain.csv"
    save_samples_csv(f, X)
    return f, truth


class TestFitAndTest:
    def test_golden_chain_run(self, tmp_path, chain_csv):
        # end-to-end: fit then test recovers exactly the chain at the pinned
        # seed, while the pairwise phase-locking graph is fully connected
        data, truth = chain_csv
        model = tmp_path / "model.json"
        graph = tmp_path / "graph.json"
        assert main(["fit", str(data), "--out", str(model)]) == 0
        assert main([
            "test", str(data), "--model", str(model), "--alpha", "0.001",
            "--correction", "bonferroni", "--out", str(graph),
        ]) == 0
        g = load_graph(graph)
        assert set(g.edges) == set(truth.edges)
        plv_graph = tmp_path / "plv.json"
        assert main([
            "plv-graph", str(data), "--alpha", "0.001", "--correction", "bonferroni",
            "--out", str(plv_graph),
        ]) == 0
        assert len(load_graph(plv_graph).edges) == 10

    def test_fit_lasso_and_cv(self, tmp_path, chain_csv):
        data, _ = chain_csv
        model = tmp_path / "m.json"
        assert main(["fit", str(data), "--lasso", "0.05", "--out", str(model)]) == 0
        assert load_model(model).d == 5
        assert main([
            "fit", str(data), "--cv", "3", "--grid", "0.01,0.1", "--seed", "1",
            "--out", str(model),
        ]) == 0

    def test_phase_diff_family_auto_mode(self, tmp_path, chain_csv):
        data, truth = chain_csv
        model = tmp_path / "m.json"
        graph = tmp_path / "g.json"
        assert main(["fit", str(data), "--family", "phasediff", "--out", str(model)]) == 0
        assert load_model(model).family == Family.PHASE_DIFF
        assert main([
            "test", str(data), "--model", str(model), "--alpha", "0.001",
            "--correction", "bonferroni", "--out", str(graph),
        ]) == 0
        g = load_graph(graph)
        assert all(t.df == 2 for t in g.tests)
        assert set(g.edges) == set(truth.edges)


class TestSample:
    def test_uniform_model_columns_uniform(self, tmp_path):
        model = tmp_path / "m.json"
        out = tmp_path / "samples.csv"
        params = TorusGraphParams(d=3, phi=np.zeros(18))
        from torusgraphs.io import save_model

        save_model(model, params)
        assert main([
            "sample", "--model", str(model), "-n", "3000", "--burn-in", "50",
            "--thin", "1", "--seed", "9", "--out", str(out),
        ]) == 0
        ds = load_csv(out)
        assert ds.angles.shape == (3000, 3)
        assert all(rayleigh_test(ds.angles[:, j]) > 0.001 for j in range(3))

    def test_seeded_reproducibility(self, tmp_path):
        model = tmp_path / "m.json"
        from torusgraphs.io import save_model

        phi = np.zeros(8)
        phi[coupling_slice(2, 0, 1)] = [1.0, 0.0, 0.0, 0.0]
        save_model(model, TorusGraphParams(d=2, phi=phi))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--model", str(model), "-n", "100", "--seed", "5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()


class TestPhaseDensity:
    def test_bivar_normalization_contract(self, tmp_path, capsys):
        out = tmp_path / "density.csv"
        assert main([
            "phase-density", "--bivar", "--kappa", "0,0", "--mu", "0,0",
            "--coupling", "1,0", "--grid", "1024", "--out", str(out),
        ]) == 0
        text = capsys.readouterr().out
        integral = float(text.split("integral=")[1].split(",")[0])
        assert abs(integral - 1.0) <= 1e-8
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "w,p,f,g"
        assert len(rows) == 1025

    def test_trivar(self, tmp_path):
        out = tmp_path / "density.csv"
        assert main([
            "phase-density", "--trivar", "--coupling12", "0,0", "--coupling13", "2,0",
            "--coupling23", "2,0", "--grid", "256", "--out", str(out),
        ]) == 0
        assert out.read_text().splitlines()[0] == "w,p,g,h"


class TestRegionAndGof:
    def test_region_test(self, tmp_path, chain_csv):
        data, _ = chain_csv
        model = tmp_path / "m.json"
        groups = tmp_path / "groups.json"
        out = tmp_path / "regions.json"
        groups.write_text(json.dumps(
            {"schema_version": 1, "groups": {"head": [0, 1], "tail": [2, 3, 4]}}
        ))
        assert main(["fit", str(data), "--out", str(model)]) == 0
        assert main([
            "region-test", str(data), "--model", str(model), "--groups", str(groups),
            "--alpha", "0.001", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["results"][0]["significant"] is True
        assert doc["results"][0]["df"] == 24  # 6 cross edges x 4 coords

    def test_gof_runs(self, tmp_path, chain_csv, capsys):
        data, _ = chain_csv
        model = tmp_path / "m.json"
        assert main(["fit", str(data), "--out", str(model)]) == 0
        assert main([
            "gof", str(data), "--model", str(model), "--n-synth", "500", "--seed", "3",
        ]) == 0
        assert "combined p" in capsys.readouterr().out


class TestBench:
    def test_chain_bench(self, tmp_path):
        cfg = tmp_path / "exp.json"
        out = tmp_path / "results"
        cfg.write_text(json.dumps({
            "schema_version": 1,
            "generator": {"kind": "chain", "d": 4, "xi": 0.0314, "kappa1": 0.01,
                          "kappa_eps": 40.0, "contam": [5, 0.1]},
            "n_reps": 2, "N": 300, "alpha": 0.001, "correction": "bonferroni",
            "seed": 11, "methods": ["torus", "plv"],
        }))
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["methods"]) == {"torus", "plv"}
        roc = (out / "roc_torus.csv").read_text().splitlines()
        assert roc[0] == "fpr,tpr"
        assert len(roc) == 513


class TestSummarizeDiffs:
    def test_pooled_offset(self, tmp_path, chain_csv, capsys):
        data, _ = chain_csv
        model = tmp_path / "m.json"
        graph = tmp_path / "g.json"
        out = tmp_path / "pooled.json"
        main(["fit", str(data), "--out", str(model)])
        main(["test", str(data), "--model", str(model), "--alpha", "0.001",
              "--correction", "bonferroni", "--out", str(graph)])
        assert main([
            "summarize-diffs", str(data), "--graph", str(graph),
            "--between", "ch01,ch02", "ch03,ch04,ch05", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        # the chain steps by -xi per link, so the pooled (A minus B) offset
        # sits near -(number of links) * xi ... -xi depending on the edge mix;
        # only the significant (2,3) edge crosses the split -> offset ~ -xi
        assert doc["edges"] == [[1, 2]]
        assert abs(doc["mean_offset_degrees"] - (-np.degrees(np.pi / 100))) < 0.5
        assert doc["ci95_degrees"][0] < doc["mean_offset_degrees"] < doc["ci95_degrees"][1]

    def test_no_significant_edges_is_domain_error(self, tmp_path):
        rng = np.random.default_rng(0)
        data = tmp_path / "u.csv"
        save_samples_csv(data, rng.uniform(0, 2 * np.pi, size=(200, 3)))
        graph = tmp_path / "g.json"
        model = tmp_path / "m.json"
        main(["fit", str(data), "--out", str(model)])
        main(["test", str(data), "--model", str(model), "--alpha", "1e-9",
              "--out", str(graph)])
        assert main([
            "summarize-diffs", str(data), "--graph", str(graph), "--between", "0", "1,2",
        ]) == 2


class TestExitCodes:
    def test_usage_error_unknown_flag(self, capsys):
        assert main(["fit", "--nonsense"]) == 1
        assert "error" in capsys.readouterr().err

    def test_usage_error_schema_mismatch(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "d": 2}))
        data = tmp_path / "d.csv"
        save_samples_csv(data, np.zeros((10, 2)))
        assert main(["sample", "--model", str(bad), "-n", "5", "--out",
                     str(tmp_path / "o.csv")]) == 1

    def test_domain_error_bad_csv(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("0.1,0.2\nx,0.3\n")
        assert main(["fit", str(f), "--out", str(tmp_path / "m.json")]) == 2

    def test_domain_error_missing_file(self, tmp_path):
        assert main(["fit", str(tmp_path / "missing.csv"), "--out",
                     str(tmp_path / "m.json")]) == 2

    @pytest.mark.parametrize("penalty", [
        ["--cv", "3", "--grid", "0.1,abc"],
        ["--cv", "3", "--grid", "0.1,"],
        ["--cv", "3", "--grid", "0.1,nan"],
        ["--cv", "3", "--grid", "inf"],
        ["--cv", "3", "--grid", "0.1,-0.2"],
        ["--lasso", "nan"],
    ], ids=["grid-abc", "grid-empty-entry", "grid-nan", "grid-inf", "grid-negative", "lasso-nan"])
    def test_domain_error_bad_penalty(self, tmp_path, capsys, penalty):
        data = tmp_path / "d.csv"
        save_samples_csv(data, np.random.default_rng(3).uniform(0, 2 * np.pi, size=(60, 3)))
        assert main(["fit", str(data), *penalty, "--out", str(tmp_path / "m.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_numerical_error_undersampled(self, tmp_path):
        data = tmp_path / "tiny.csv"
        rng = np.random.default_rng(1)
        save_samples_csv(data, rng.uniform(0, 2 * np.pi, size=(5, 4)))
        assert main(["fit", str(data), "--out", str(tmp_path / "m.json")]) == 3

    def test_dimension_mismatch(self, tmp_path):
        data = tmp_path / "d.csv"
        rng = np.random.default_rng(2)
        save_samples_csv(data, rng.uniform(0, 2 * np.pi, size=(50, 2)))
        model = tmp_path / "m.json"
        from torusgraphs.io import save_model

        save_model(model, TorusGraphParams(d=3, phi=np.zeros(18)))
        assert main(["test", str(data), "--model", str(model), "--alpha", "0.05",
                     "--out", str(tmp_path / "g.json")]) == 2

    @pytest.mark.parametrize("command", ["region-test", "gof"])
    def test_dimension_mismatch_other_model_commands(self, tmp_path, command):
        from torusgraphs.io import save_model

        data = tmp_path / "d.csv"
        save_samples_csv(data, np.random.default_rng(3).uniform(0, 2 * np.pi, size=(50, 2)))
        model = tmp_path / "m.json"
        save_model(model, TorusGraphParams(d=3, phi=np.zeros(18)))
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({"schema_version": 1, "groups": {"a": [0], "b": [1]}}))
        extra = ["--groups", str(groups)] if command == "region-test" else []
        assert main([command, str(data), "--model", str(model)] + extra) == 2

    def test_numerical_error_in_bench_replicate(self, tmp_path, capsys):
        # 5 samples for 32 coefficients: the first replicate's fit is singular
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "schema_version": 1,
            "generator": {"kind": "random", "d": 4, "edge_density": 0.5},
            "n_reps": 2, "N": 5, "alpha": 0.001, "correction": "bonferroni",
            "seed": 11, "methods": ["torus"], "family": "full",
        }))
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 3
        assert "replicate 0 (seed " in capsys.readouterr().err

    def test_numerical_error_ill_conditioned_sandwich(self, tmp_path):
        # duplicated channel: the sandwich solve hits the condition guard
        from torusgraphs.io import save_model

        X = np.random.default_rng(4).uniform(0, 2 * np.pi, size=(400, 3))
        X[:, 1] = X[:, 0]
        data = tmp_path / "dup.csv"
        save_samples_csv(data, X)
        model = tmp_path / "m.json"
        save_model(model, TorusGraphParams(d=3, phi=np.zeros(18)))
        assert main(["test", str(data), "--model", str(model),
                     "--out", str(tmp_path / "g.json")]) == 3
