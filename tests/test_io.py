"""Tests for CSV ingestion and JSON persistence."""

import json
from pathlib import Path

import numpy as np
import pytest

from torusgraphs.exceptions import ParseError, SchemaError
from torusgraphs.inference import EdgeTest, build_graph
from torusgraphs.io import (
    Dataset,
    graph_from_dict,
    graph_to_dict,
    load_csv,
    load_experiment_config,
    load_graph,
    load_groups,
    load_model,
    params_from_dict,
    params_to_dict,
    save_graph,
    save_model,
    save_samples_csv,
)
from torusgraphs.model import TorusGraphParams, param_dim
from torusgraphs.simulation import GeneratorSpec

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


class TestLoadCsv:
    def test_basic_wrapping(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,3.14159\n6.28319,1.5708\n")
        ds = load_csv(f)
        assert ds.n == 2 and ds.d == 2
        assert ds.angles[0, 0] == 0.0
        assert ds.angles[0, 1] == pytest.approx(3.14159)
        assert ds.angles[1, 0] == pytest.approx(6.28319 - 2 * np.pi, abs=1e-9)
        assert ds.channel_names == ("ch01", "ch02")

    def test_degrees_conversion(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("360,90\n")
        ds = load_csv(f, units="degrees")
        assert ds.angles[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert ds.angles[0, 1] == pytest.approx(np.pi / 2)

    def test_header_names(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("left,right\n0.1,0.2\n")
        ds = load_csv(f)
        assert ds.channel_names == ("left", "right")

    def test_desk_scale_shape(self, tmp_path):
        rng = np.random.default_rng(0)
        f = tmp_path / "big.csv"
        save_samples_csv(f, rng.uniform(0, 2 * np.pi, size=(840, 24)))
        ds = load_csv(f)
        assert (ds.n, ds.d) == (840, 24)

    def test_ragged_row_location(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0.1,0.2\n0.3\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(f)

    def test_non_numeric_cell_location(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n0.1,0.2\n0.3,oops\n")
        with pytest.raises(ParseError, match="row 3, column 2"):
            load_csv(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("")
        with pytest.raises(ParseError):
            load_csv(f)

    def test_duplicate_names(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,a\n0.1,0.2\n")
        with pytest.raises(ParseError):
            load_csv(f)

    @pytest.mark.parametrize("delimiter", [";;", "", None, 5])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        f = tmp_path / "d.csv"
        f.write_text("0.1,0.2\n0.3,0.4\n")
        with pytest.raises(ParseError, match="delimiter must be exactly one character"):
            load_csv(f, delimiter=delimiter)

    def test_one_character_delimiter(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a;b\n0.1;0.2\n")
        assert load_csv(f, delimiter=";").channel_names == ("a", "b")

    def test_samples_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 2 * np.pi, size=(20, 3))
        f = tmp_path / "s.csv"
        save_samples_csv(f, X, ["a", "b", "c"])
        ds = load_csv(f)
        np.testing.assert_array_equal(ds.angles, X)
        assert ds.channel_names == ("a", "b", "c")


class TestModelJson:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(2)
        params = TorusGraphParams(d=4, phi=rng.standard_normal(param_dim(4)))
        f = tmp_path / "m.json"
        save_model(f, params)
        back = load_model(f)
        assert back.d == params.d
        assert back.family == params.family
        np.testing.assert_array_equal(back.phi, params.phi)

    def test_family_mask_enforced(self):
        doc = params_to_dict(TorusGraphParams(d=2, phi=np.zeros(8)))
        doc["family"] = "uniform"
        doc["phi"][0] = 1.0
        with pytest.raises(SchemaError):
            params_from_dict(doc)

    def test_version_checked(self):
        doc = params_to_dict(TorusGraphParams(d=2, phi=np.zeros(8)))
        doc["schema_version"] = 999
        with pytest.raises(SchemaError):
            params_from_dict(doc)

    def test_length_checked(self):
        doc = params_to_dict(TorusGraphParams(d=2, phi=np.zeros(8)))
        doc["phi"] = doc["phi"][:-1]
        with pytest.raises(SchemaError):
            params_from_dict(doc)


class TestGraphJson:
    def _graph(self):
        tests = [
            EdgeTest(edge=(0, 1), x2=12.3456789012345, df=4, p=0.0152),
            EdgeTest(edge=(0, 2), x2=1.0, df=4, p=0.9),
            EdgeTest(edge=(1, 2), x2=25.0, df=4, p=5.1e-5),
        ]
        return build_graph(tests, alpha=0.05, correction="bonferroni")

    def test_roundtrip_bitwise(self, tmp_path):
        g = self._graph()
        f = tmp_path / "g.json"
        save_graph(f, g)
        back = load_graph(f)
        assert back.d == g.d
        assert back.alpha == g.alpha
        assert back.correction == g.correction
        np.testing.assert_array_equal(back.adjacency, g.adjacency)
        np.testing.assert_array_equal(back.pvals, g.pvals)
        assert back.tests == g.tests

    def test_double_roundtrip_identical_text(self, tmp_path):
        g = self._graph()
        f1, f2 = tmp_path / "g1.json", tmp_path / "g2.json"
        save_graph(f1, g)
        save_graph(f2, load_graph(f1))
        assert f1.read_text() == f2.read_text()

    def test_schema_violations(self):
        doc = graph_to_dict(self._graph())
        bad = json.loads(json.dumps(doc))
        del bad["alpha"]
        with pytest.raises(SchemaError):
            graph_from_dict(bad)
        bad = json.loads(json.dumps(doc))
        bad["edges"][0]["j"] = 10
        with pytest.raises(SchemaError):
            graph_from_dict(bad)


class TestGroupsAndConfig:
    def test_groups(self, tmp_path):
        f = tmp_path / "groups.json"
        f.write_text(json.dumps({"schema_version": 1, "groups": {"A": [0, 1], "B": [2]}}))
        assert load_groups(f) == {"A": [0, 1], "B": [2]}

    def test_groups_schema(self, tmp_path):
        f = tmp_path / "groups.json"
        f.write_text(json.dumps({"schema_version": 1, "groups": {"A": []}}))
        with pytest.raises(SchemaError):
            load_groups(f)

    @pytest.mark.parametrize("groups,message", [
        ({"A": [0, 1], "B": [1, 2]}, "groups 'A' and 'B' share channel 1; groups must be disjoint"),
        ({"A": [0], "B": [2], "C": [3, 0]}, "groups 'A' and 'C' share channel 0"),
        ({"A": [True, 0], "B": [2]}, "group 'A' must list integer channel indices"),
        ({"A": [0, False]}, "group 'A' must list integer channel indices"),
        ({"A": [0, 0, 1], "B": [2]}, "group 'A' lists channel 0 twice"),
        ({"A": [0], "B": [2, 1, 2]}, "group 'B' lists channel 2 twice"),
    ], ids=["overlap", "overlap-later", "true-index", "false-index", "repeat", "repeat-later"])
    def test_groups_disjoint_integer_indices(self, tmp_path, groups, message):
        f = tmp_path / "groups.json"
        f.write_text(json.dumps({"schema_version": 1, "groups": groups}))
        with pytest.raises(SchemaError, match=message):
            load_groups(f)

    def test_experiment_config(self, tmp_path):
        f = tmp_path / "exp.json"
        f.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "generator": {"kind": "chain", "d": 5, "xi": 0.0314, "kappa1": 0.01,
                                  "kappa_eps": 40.0, "contam": [15, 0.1]},
                    "n_reps": 3,
                    "N": 100,
                    "alpha": 0.001,
                    "correction": "bonferroni",
                    "seed": 7,
                    "methods": ["torus"],
                }
            )
        )
        spec, settings = load_experiment_config(f)
        assert spec.kind == "chain"
        assert spec.options["contam"] == (15, 0.1)
        assert settings["n_reps"] == 3 and settings["methods"] == ["torus"]

    @pytest.mark.parametrize("option,value", [
        ("contam", 5), ("contam", [5]), ("contam", ["a", 1]), ("contam", [5, 0.1, 3]),
        ("contam", [5, True]), ("xi", "a"), ("kappa_eps", True),
    ], ids=["contam-int", "contam-1", "contam-str", "contam-3", "contam-bool-kappa", "xi-str",
            "kappa-eps-bool"])
    def test_config_option_type_errors(self, tmp_path, option, value):
        generator = {"kind": "chain", "d": 5, "xi": 0.0314, "kappa1": 0.01, "kappa_eps": 40.0,
                     option: value}
        f = tmp_path / "exp.json"
        f.write_text(json.dumps({"schema_version": 1, "generator": generator, "n_reps": 3,
                                 "N": 100, "alpha": 0.001, "correction": "bonferroni",
                                 "seed": 7}))
        with pytest.raises(SchemaError, match=f"generator option {option!r} must be"):
            load_experiment_config(f)

    def test_config_schema_errors(self, tmp_path):
        f = tmp_path / "exp.json"
        f.write_text(json.dumps({"schema_version": 1, "generator": {"kind": "nope"},
                                 "n_reps": 1, "N": 10, "alpha": 0.1,
                                 "correction": "none", "seed": 0}))
        with pytest.raises(SchemaError):
            load_experiment_config(f)
        f.write_text("not json at all{")
        with pytest.raises(SchemaError):
            load_experiment_config(f)

    def test_gibbs_option_accepted(self, tmp_path):
        f = tmp_path / "exp.json"
        f.write_text(json.dumps({
            "schema_version": 1,
            "generator": {"kind": "random", "d": 3, "edge_density": 0.5,
                          "gibbs": {"burn_in": 0, "thin": 1}},
            "n_reps": 1, "N": 10, "alpha": 0.1, "correction": "none", "seed": 0,
        }))
        spec, _ = load_experiment_config(f)
        assert spec.options["gibbs"] == {"burn_in": 0, "thin": 1}

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_configs_load(self, path, monkeypatch):
        # every config in configs/ passes the loader's checks; nothing is drawn
        def refuse(self, N, seed):
            raise AssertionError("a data set was drawn")

        monkeypatch.setattr(GeneratorSpec, "generate", refuse)
        spec, settings = load_experiment_config(path)
        assert spec.kind in GeneratorSpec._KINDS
        assert settings["n_reps"] >= 1 and settings["N"] >= 1


class TestDataset:
    def test_validation(self):
        with pytest.raises(ParseError):
            Dataset(angles=np.zeros((3, 2)), channel_names=("a",))


class TestAdjacencyCsv:
    def test_export(self, tmp_path):
        from torusgraphs.io import save_adjacency_csv

        tests = [
            EdgeTest(edge=(0, 1), x2=30.0, df=4, p=1e-5),
            EdgeTest(edge=(0, 2), x2=1.0, df=4, p=0.9),
            EdgeTest(edge=(1, 2), x2=2.0, df=4, p=0.7),
        ]
        g = build_graph(tests, alpha=0.01)
        f = tmp_path / "adj.csv"
        save_adjacency_csv(f, g, ["x", "y", "z"])
        rows = f.read_text().strip().splitlines()
        assert rows[0] == ",x,y,z"
        assert rows[1] == "x,0,1,0"
        assert rows[2] == "y,1,0,0"
