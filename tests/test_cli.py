"""End-to-end CLI tests: subcommand wiring, file formats, exit codes."""

import json
import re

import numpy as np
import pytest

from torusgraphs.circular import rayleigh_test
from torusgraphs.cli import build_parser, main
from torusgraphs.exceptions import SchemaError
from torusgraphs.inference import CORRECTIONS, MODES
from torusgraphs.io import (
    load_csv,
    load_experiment_config,
    load_graph,
    load_model,
    save_samples_csv,
)
from torusgraphs.model import Family, TorusGraphParams, coupling_slice
from torusgraphs.simulation import gen_chain

from test_cg_oracle import tree_angles
from test_walk_oracle import _count_walks


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

    def test_cv_refit_reuses_fold_moments(self, tmp_path, chain_csv, monkeypatch):
        # each row's moments are accumulated once, in its fold; the refit
        # pools the folds' moments
        import torusgraphs.estimation

        rows = []
        inner = torusgraphs.estimation.accumulate_moments

        def counted(data):
            rows.append(len(data))
            return inner(data)

        monkeypatch.setattr(torusgraphs.estimation, "accumulate_moments", counted)
        data, _ = chain_csv
        assert main(["fit", str(data), "--cv", "3", "--grid", "0.01,0.1", "--seed", "1",
                     "--out", str(tmp_path / "m.json")]) == 0
        assert rows == [280, 280, 280]

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

    def test_loaded_residual_on_active_set(self, tmp_path, capsys):
        # a phasediff fit solves its equation on the active set only; `test`
        # reports the residual there, not over the masked coordinates
        X, _ = gen_chain(600, 5, 0.3, 1.0, 2.0, seed=1)
        data, model = tmp_path / "x.csv", tmp_path / "m.json"
        save_samples_csv(data, X)
        assert main(["fit", str(data), "--family", "phasediff", "--out", str(model)]) == 0
        capsys.readouterr()
        assert main(["test", str(data), "--model", str(model),
                     "--out", str(tmp_path / "g.json")]) == 0
        found = re.findall(r"estimating-equation residual (\S+)\)", capsys.readouterr().out)
        assert len(found) == 1
        assert float(found[0]) <= 1e-12


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

    def test_region_test_orders_cross_edges_canonically(self, tmp_path, chain_csv):
        # channels listed out of order test the same canonical edge list, bit for bit
        data, _ = chain_csv
        model = tmp_path / "m.json"
        assert main(["fit", str(data), "--out", str(model)]) == 0
        docs = []
        for i, groups in enumerate(({"head": [0, 1], "tail": [2, 3, 4]},
                                    {"tail": [4, 2, 3], "head": [1, 0]})):
            path, out = tmp_path / f"groups{i}.json", tmp_path / f"regions{i}.json"
            path.write_text(json.dumps({"schema_version": 1, "groups": groups}))
            assert main(["region-test", str(data), "--model", str(model), "--groups", str(path),
                         "--out", str(out)]) == 0
            docs.append(out.read_text())
        assert docs[0] == docs[1]

    def test_gof_runs(self, tmp_path, chain_csv, capsys):
        data, _ = chain_csv
        model = tmp_path / "m.json"
        assert main(["fit", str(data), "--out", str(model)]) == 0
        assert main([
            "gof", str(data), "--model", str(model), "--n-synth", "500", "--seed", "3",
        ]) == 0
        assert "combined p" in capsys.readouterr().out

    def test_gof_computes_no_statistics(self, tmp_path, chain_csv, monkeypatch):
        # the battery reads only the model's parameters; no moments are taken
        data, _ = chain_csv
        model = tmp_path / "m.json"
        assert main(["fit", str(data), "--out", str(model)]) == 0
        walks = _count_walks(monkeypatch)
        assert main(["gof", str(data), "--model", str(model), "--n-synth", "200"]) == 0
        assert walks == []


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


    def test_each_replicate_drawn_once_for_both_methods(self, tmp_path, monkeypatch):
        # the benchmark harness reads the torus summary's per-replicate FPRs
        # through cli.recovery_experiment, so bench must call it exactly once
        import torusgraphs.cli
        from torusgraphs.simulation import GeneratorSpec, RecoverySummary

        calls = {"recovery": [], "generate": 0}
        recovery, generate = torusgraphs.cli.recovery_experiment, GeneratorSpec.generate

        def counting_recovery(*args, **kwargs):
            calls["recovery"].append(recovery(*args, **kwargs))
            return calls["recovery"][-1]

        def counting_generate(self, N, seed):
            calls["generate"] += 1
            return generate(self, N, seed)

        monkeypatch.setattr(torusgraphs.cli, "recovery_experiment", counting_recovery)
        monkeypatch.setattr(GeneratorSpec, "generate", counting_generate)
        cfg = _bench_config(tmp_path, "chain", n_reps=3, methods=["torus", "plv"])
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
        assert len(calls["recovery"]) == 1
        assert isinstance(calls["recovery"][0], RecoverySummary)
        assert len(calls["recovery"][0].fpr_reps) == 3
        assert calls["generate"] == 3

    def test_random_replicates_drawn_in_one_sampler_call(self, tmp_path, monkeypatch):
        draws = _count_generate(monkeypatch)
        cfg = _bench_config(tmp_path, "random", n_reps=3, methods=["torus", "plv"])
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
        assert draws == [1]


def _count_generate(monkeypatch):
    """Count the draws: GeneratorSpec.generate calls plus multi-chain
    sampler calls (which draw every `random` replicate at once)."""
    import torusgraphs.simulation
    from torusgraphs.simulation import GeneratorSpec

    calls = [0]
    generate, chains = GeneratorSpec.generate, torusgraphs.simulation.gibbs_sample_chains

    def counted_generate(self, N, seed):
        calls[0] += 1
        return generate(self, N, seed)

    def counted_chains(params_list, cfg):
        calls[0] += 1
        return chains(params_list, cfg)

    monkeypatch.setattr(GeneratorSpec, "generate", counted_generate)
    monkeypatch.setattr(torusgraphs.simulation, "gibbs_sample_chains", counted_chains)
    return calls


def _bench_config(tmp_path, kind, **settings):
    """Write a small `bench` config for generator ``kind``; ``settings``
    override the top-level fields."""
    generator = {
        "chain": {"d": 4, "xi": 0.0314, "kappa1": 0.01, "kappa_eps": 40.0, "contam": [5, 0.1]},
        "indirect-triple": {},
        "uniform-null": {"d": 3},
        "random": {"d": 3, "edge_density": 0.5},
    }[kind]
    doc = {"schema_version": 1, "generator": {"kind": kind, **generator}, "n_reps": 2,
           "N": 300, "alpha": 0.001, "correction": "bonferroni", "seed": 11, "methods": ["torus"]}
    doc.update(settings)
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    return cfg


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

    @pytest.mark.parametrize("group_a", ["ch01,ch01", "0,0", "ch01,0", "ch02,ch01,1"])
    def test_repeated_channel_is_domain_error(self, tmp_path, chain_csv, capsys, group_a):
        # a channel listed twice would pool its phase differences twice
        data, _ = chain_csv
        model, graph = tmp_path / "m.json", tmp_path / "g.json"
        main(["fit", str(data), "--out", str(model)])
        main(["test", str(data), "--model", str(model), "--alpha", "0.001",
              "--correction", "bonferroni", "--out", str(graph)])
        capsys.readouterr()
        assert main(["summarize-diffs", str(data), "--graph", str(graph),
                     "--between", group_a, "ch03,ch04,ch05"]) == 2
        assert "is listed twice" in capsys.readouterr().err


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

    @pytest.mark.parametrize("command", [
        ["sample", "--model", "{model}", "-n", "10", "--out", "{tmp}/s.csv"],
        ["gof", "{data}", "--model", "{model}", "--n-synth", "100"],
        ["fit", "{data}", "--cv", "3", "--grid", "0.01,0.1", "--out", "{tmp}/cv.json"],
    ], ids=["sample", "gof", "fit-cv"])
    def test_domain_error_negative_seed_on_each_command(self, tmp_path, capsys, chain_csv, command):
        # the one seed check of draw_replicates, as bench reports it
        data, _ = chain_csv
        model = tmp_path / "m.json"
        assert main(["fit", str(data), "--out", str(model)]) == 0
        capsys.readouterr()
        argv = [a.format(model=model, data=data, tmp=tmp_path) for a in command]
        assert main(argv + ["--seed", "-1"]) == 2
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err

    def test_numerical_error_undersampled(self, tmp_path):
        data = tmp_path / "tiny.csv"
        rng = np.random.default_rng(1)
        save_samples_csv(data, rng.uniform(0, 2 * np.pi, size=(5, 4)))
        assert main(["fit", str(data), "--out", str(tmp_path / "m.json")]) == 3

    def test_numerical_error_region_pair_with_df_at_least_n(self, tmp_path, capsys):
        # two 12-channel halves of a tree at d=24: 144 cross edges give df 576
        # from N=200 samples, a singular block (this pair was reported as p = 1)
        data, model, groups = tmp_path / "tree.csv", tmp_path / "m.json", tmp_path / "halves.json"
        save_samples_csv(data, tree_angles(24, 200, seed=5))
        groups.write_text(json.dumps(
            {"schema_version": 1, "groups": {"a": list(range(12)), "b": list(range(12, 24))}}))
        assert main(["fit", str(data), "--out", str(model)]) == 0
        assert main(["region-test", str(data), "--model", str(model), "--groups", str(groups)]) == 3
        err = capsys.readouterr().err
        assert "error: groups 'a' and 'b': 576 coefficients from N=200 samples: singular" in err

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

    @pytest.mark.parametrize("kind", ["chain", "indirect-triple", "uniform-null", "random"])
    @pytest.mark.parametrize("field", ["N", "n_reps"])
    def test_schema_error_boolean_count(self, tmp_path, capsys, kind, field):
        # JSON true is a bool, not a count of trials or replicates
        cfg = _bench_config(tmp_path, kind, **{field: True})
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        assert f"field {field!r} has the wrong type" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,N", [("uniform-null", -5), ("chain", 0), ("chain", -5)])
    def test_domain_error_bad_trial_count(self, tmp_path, capsys, kind, N):
        cfg = _bench_config(tmp_path, kind, N=N)
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert f"at least one replicate and one trial, got n_reps=2, N={N}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,generator,message", [
        ("uniform-null", {"d": True}, "field 'd' has the wrong type"),
        ("chain", {"d": 4, "kappa1": 0.01, "kappa_eps": 40.0}, "missing options ['xi']"),
        ("uniform-null", {"d": 3, "xi": 0.1}, "unknown options ['xi']"),
    ], ids=["bool-d", "chain-without-xi", "unknown-option"])
    def test_schema_error_bad_generator(self, tmp_path, capsys, kind, generator, message):
        cfg = _bench_config(tmp_path, kind)
        doc = json.loads(cfg.read_text())
        doc["generator"] = {"kind": kind, **generator}
        cfg.write_text(json.dumps(doc))
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind,d", [("uniform-null", 1), ("uniform-null", 0), ("random", 1)])
    def test_domain_error_generator_dimension(self, tmp_path, capsys, monkeypatch, kind, d):
        draws = _count_generate(monkeypatch)
        cfg = _bench_config(tmp_path, kind)
        doc = json.loads(cfg.read_text())
        doc["generator"]["d"] = d
        cfg.write_text(json.dumps(doc))
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert f"needs an integer d >= 2, got {d}" in capsys.readouterr().err
        assert draws == [0]

    def test_domain_error_negative_seed(self, tmp_path, capsys, monkeypatch):
        draws = _count_generate(monkeypatch)
        cfg = _bench_config(tmp_path, "uniform-null", seed=-1)
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert draws == [0]

    @pytest.mark.parametrize("alpha", [-1, 0, 1, 5])
    def test_domain_error_alpha_out_of_range(self, tmp_path, capsys, monkeypatch, alpha):
        draws = _count_generate(monkeypatch)
        cfg = _bench_config(tmp_path, "uniform-null", alpha=alpha)
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "alpha must be in (0, 1)" in capsys.readouterr().err
        assert draws == [0]

    @pytest.mark.parametrize("gibbs,code,message", [
        (5, 1, "option 'gibbs' must be an object"),
        ({"burnin": 10}, 1, "option 'gibbs' must be an object"),
        ({"burn_in": "x"}, 1, "field 'burn_in' has the wrong type"),
        ({"thin": True}, 1, "field 'thin' has the wrong type"),
        ({"thin": 0}, 2, "gibbs needs burn_in >= 0 and thin >= 1"),
        ({"burn_in": -1, "thin": 2}, 2, "gibbs needs burn_in >= 0 and thin >= 1"),
    ], ids=["int", "misspelt-key", "str-burn-in", "bool-thin", "thin-0", "negative-burn-in"])
    def test_bad_gibbs_option(self, tmp_path, capsys, monkeypatch, gibbs, code, message):
        draws = _count_generate(monkeypatch)
        cfg = _bench_config(tmp_path, "random")
        doc = json.loads(cfg.read_text())
        doc["generator"]["gibbs"] = gibbs
        cfg.write_text(json.dumps(doc))
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]) == code
        assert message in capsys.readouterr().err
        assert draws == [0]

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

    @pytest.mark.parametrize("kind,option,value,message", [
        ("chain", "contam", 5, "option 'contam' must be [count, kappa]"),
        ("chain", "contam", [5], "option 'contam' must be [count, kappa]"),
        ("chain", "contam", ["a", 1], "option 'contam' must be [count, kappa]"),
        ("chain", "contam", [5, 0.1, 3], "option 'contam' must be [count, kappa]"),
        ("chain", "contam", [True, 0.1], "option 'contam' must be [count, kappa]"),
        ("chain", "contam", [5.0, 0.1], "option 'contam' must be [count, kappa]"),
        ("chain", "xi", "a", "option 'xi' must be a number"),
        ("chain", "kappa1", False, "option 'kappa1' must be a number"),
        ("random", "edge_density", "x", "option 'edge_density' must be a number"),
        ("random", "coupling_scale", None, "option 'coupling_scale' must be a number"),
    ], ids=["contam-int", "contam-1", "contam-str", "contam-3", "contam-bool-count",
            "contam-float-count", "xi-str", "kappa1-bool", "density-str", "scale-null"])
    def test_schema_error_generator_option_type(self, tmp_path, capsys, monkeypatch, kind,
                                                option, value, message):
        # each of these crashed in replicate 0, or (a 3-entry contam) ran silently
        draws = _count_generate(monkeypatch)
        cfg = _bench_config(tmp_path, kind)
        doc = json.loads(cfg.read_text())
        doc["generator"][option] = value
        cfg.write_text(json.dumps(doc))
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert draws == [0]

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_domain_error_bad_delimiter(self, tmp_path, capsys, delimiter):
        data = tmp_path / "d.csv"
        save_samples_csv(data, np.random.default_rng(4).uniform(0, 2 * np.pi, size=(60, 3)))
        assert main(["fit", str(data), "--delimiter", delimiter,
                     "--out", str(tmp_path / "m.json")]) == 2
        assert "delimiter must be exactly one character" in capsys.readouterr().err

    @pytest.mark.parametrize("groups,message", [
        ({"A": [0, 1], "B": [1, 2]}, "groups 'A' and 'B' share channel 1"),
        ({"A": [True, 0], "B": [2]}, "group 'A' must list integer channel indices"),
        ({"A": [0, 0, 1], "B": [2]}, "group 'A' lists channel 0 twice"),
    ], ids=["overlapping", "boolean-index", "repeated-channel"])
    def test_schema_error_bad_groups(self, tmp_path, capsys, groups, message):
        from torusgraphs.io import save_model

        data = tmp_path / "d.csv"
        save_samples_csv(data, np.random.default_rng(5).uniform(0, 2 * np.pi, size=(200, 3)))
        model = tmp_path / "m.json"
        save_model(model, TorusGraphParams(d=3, phi=np.zeros(18)))
        path = tmp_path / "groups.json"
        path.write_text(json.dumps({"schema_version": 1, "groups": groups}))
        assert main(["region-test", str(data), "--model", str(model), "--groups", str(path)]) == 1
        assert message in capsys.readouterr().err


class TestNameTables:
    """Every family, mode and correction name is read from the module that
    defines the choice."""

    def test_choices_read_the_library_tables(self):
        expected = {
            "family": tuple(sorted(f.value for f in Family)),
            "mode": ("auto", *MODES),
            "correction": CORRECTIONS,
        }
        subparsers = next(a for a in build_parser()._actions if a.dest == "command")
        seen = {name: 0 for name in expected}
        for sub in subparsers.choices.values():
            for action in sub._actions:
                if action.dest in expected:
                    assert tuple(action.choices) == expected[action.dest], action.dest
                    seen[action.dest] += 1
        # --family on fit; --mode on test and region-test; --correction also on plv-graph
        assert seen == {"family": 1, "mode": 2, "correction": 3}

    @pytest.mark.parametrize("field,value", [("mode", "diagonal"), ("correction", "holm")])
    def test_config_rejects_unknown_name(self, tmp_path, field, value):
        with pytest.raises(SchemaError) as exc:
            load_experiment_config(_bench_config(tmp_path, "chain", **{field: value}))
        assert str(exc.value) == f"unknown {field} {value!r}"
