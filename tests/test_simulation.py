"""Tests for the data generators and the recovery benchmark harness."""

import numpy as np
import pytest

import torusgraphs.estimation
import torusgraphs.inference
import torusgraphs.simulation
from torusgraphs.circular import plv, rayleigh_test
from torusgraphs.exceptions import DomainError, ParseError, SchemaError
from torusgraphs.inference import bootstrap_null_test
from torusgraphs.model import Family, apply_family, coupling_slice, edge_list
from torusgraphs.simulation import (
    GeneratorSpec,
    TruthGraph,
    gen_chain,
    gen_indirect_triple,
    gen_random_torus_graph,
    draw_replicates,
    gen_uniform_null,
    plv_recovery_experiment,
    recovery_experiment,
)


class TestTruthGraph:
    def test_normalizes_order(self):
        g = TruthGraph(d=4, edges=frozenset({(2, 0), (1, 3)}))
        assert g.edges == frozenset({(0, 2), (1, 3)})
        assert g.has_edge(3, 1)

    def test_rejects_self_loop(self):
        with pytest.raises(DomainError):
            TruthGraph(d=3, edges=frozenset({(1, 1)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            TruthGraph(d=3, edges=frozenset({(0, 3)}))


class TestGenChain:
    def test_zero_noise_limit(self):
        X, truth = gen_chain(N=500, d=4, xi=0.0, kappa1=0.5, kappa_eps=1e9,
                             contam=(0, 1.0), seed=1)
        for j in range(4):
            for k in range(j + 1, 4):
                assert plv(X[:, j], X[:, k]) > 0.999
        assert truth.edges == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_adjacent_plv_dominates(self):
        hits = 0
        for seed in range(30):
            X, truth = gen_chain(N=840, d=5, xi=np.pi / 100, kappa1=0.01,
                                 kappa_eps=40.0, contam=(15, 0.1), seed=seed)
            adjacent = min(plv(X[:, j], X[:, j + 1]) for j in range(4))
            non_adjacent = max(
                plv(X[:, j], X[:, k])
                for j, k in edge_list(5)
                if not truth.has_edge(j, k)
            )
            if adjacent > non_adjacent:
                hits += 1
        assert hits >= int(np.ceil(0.95 * 30))

    def test_near_uniform_margins(self):
        passes = 0
        for seed in range(30):
            X, _ = gen_chain(N=840, d=5, xi=np.pi / 100, kappa1=0.01,
                             kappa_eps=40.0, contam=(15, 0.1), seed=seed)
            if rayleigh_test(X[:, 0]) > 0.001:
                passes += 1
        assert passes >= int(np.ceil(0.99 * 30))

    def test_contamination_bounds(self):
        with pytest.raises(DomainError):
            gen_chain(N=10, d=3, xi=0.0, kappa1=1.0, kappa_eps=1.0, contam=(11, 0.1))

    def test_wrapped_output(self):
        X, _ = gen_chain(N=100, d=3, xi=1.0, kappa1=1.0, kappa_eps=5.0, seed=3)
        assert np.all((X >= 0) & (X < 2 * np.pi))


class TestGenIndirectTriple:
    def test_truth_graph(self):
        _, truth = gen_indirect_triple(N=840, seed=0)
        assert truth.edges == frozenset({(0, 1), (1, 2)})
        assert not truth.has_edge(0, 2)

    def test_pairwise_locking_bridges_the_gap(self):
        # the uncoupled pair still shows significant phase locking through
        # the hub in nearly every replicate
        hits = 0
        for seed in range(30):
            X, _ = gen_indirect_triple(N=840, seed=seed)
            diffs = (X[:, 0] - X[:, 2]) % (2 * np.pi)
            if rayleigh_test(diffs) < 0.001:
                hits += 1
        assert hits >= int(np.ceil(0.95 * 30))

    def test_minimum_size(self):
        with pytest.raises(DomainError):
            gen_indirect_triple(N=50)


class TestGenRandomTorusGraph:
    def test_full_density_count(self):
        params, truth = gen_random_torus_graph(3, edge_density=1.0, seed=0)
        assert len(truth.edges) == 3

    def test_quarter_density_d24(self):
        _, truth = gen_random_torus_graph(24, edge_density=0.25, seed=1)
        assert len(truth.edges) == 69  # ceil(0.25 * 276)

    def test_uniform_phase_diff_structure(self):
        params, truth = gen_random_torus_graph(5, edge_density=0.5, coupling_scale=1.3, seed=2)
        masked = apply_family(params, Family.UNIFORM_PHASE_DIFF)
        np.testing.assert_array_equal(masked.phi, params.phi)
        for j, k in truth.edges:
            sl = coupling_slice(5, j, k)
            assert np.hypot(params.phi[sl.start], params.phi[sl.start + 1]) == pytest.approx(1.3)
        for j, k in edge_list(5):
            if not truth.has_edge(j, k):
                assert np.all(params.phi[coupling_slice(5, j, k)] == 0.0)

    def test_marginal_kappa_option(self):
        params, _ = gen_random_torus_graph(3, edge_density=1.0, seed=3, marginal_kappa=1.5)
        for j in range(3):
            assert np.hypot(*params.marginal_block(j)) == pytest.approx(1.5)

    def test_bad_density(self):
        with pytest.raises(DomainError):
            gen_random_torus_graph(4, edge_density=0.0)


class TestGeneratorSpec:
    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            GeneratorSpec(kind="nope")

    def test_chain_roundtrip(self):
        spec = GeneratorSpec(
            kind="chain",
            options={"d": 4, "xi": 0.1, "kappa1": 0.1, "kappa_eps": 10.0, "contam": (0, 1.0)},
        )
        X, truth, params = spec.generate(N=50, seed=5)
        assert X.shape == (50, 4)
        assert params is None
        assert len(truth.edges) == 3

    def test_random_kind_supplies_params(self):
        spec = GeneratorSpec(kind="random", options={"d": 3, "edge_density": 1.0})
        X, truth, params = spec.generate(N=30, seed=6)
        assert X.shape == (30, 3)
        assert params is not None

    @pytest.mark.parametrize("gibbs,error,message", [
        (5, SchemaError, "option 'gibbs' must be an object"),
        ({"burnin": 10}, SchemaError, "option 'gibbs' must be an object"),
        ({"burn_in": "x"}, SchemaError, "field 'burn_in' has the wrong type"),
        ({"thin": True}, SchemaError, "field 'thin' has the wrong type"),
        ({"thin": 0}, DomainError, "gibbs needs burn_in >= 0 and thin >= 1"),
        ({"burn_in": -1, "thin": 2}, DomainError, "gibbs needs burn_in >= 0 and thin >= 1"),
    ], ids=["int", "misspelt-key", "str-burn-in", "bool-thin", "thin-0", "negative-burn-in"])
    def test_bad_gibbs_option_raises_at_construction(self, gibbs, error, message):
        with pytest.raises(error, match=message):
            GeneratorSpec(kind="random", options={"d": 3, "edge_density": 0.5, "gibbs": gibbs})

    @pytest.mark.parametrize("kind,options,message", [
        ("random", {"d": 3, "edge_density": 0.5, "foo": 1},
         "generator 'random': missing options [], unknown options ['foo']"),
        ("random", {"d": 3}, "generator 'random': missing options ['edge_density'], "
                             "unknown options []"),
        ("chain", {"d": 4, "kappa1": 0.1, "kappa_eps": 10.0, "seed": 3},
         "generator 'chain': missing options ['xi'], unknown options ['seed']"),
        ("uniform-null", {"d": 3, "gibbs": {}},
         "generator 'uniform-null': missing options [], unknown options ['gibbs']"),
    ], ids=["random-unknown", "random-missing", "chain-both", "gibbs-off-random"])
    def test_bad_option_names_raise_at_construction(self, kind, options, message):
        with pytest.raises(SchemaError) as info:
            GeneratorSpec(kind=kind, options=options)
        assert str(info.value) == message

    @pytest.mark.parametrize("kind,options,message", [
        ("chain", {"contam": 5}, "generator option 'contam' must be [count, kappa], an integer "
                                 "and a number, got 5"),
        ("chain", {"contam": (3, "x")}, "generator option 'contam' must be [count, kappa]"),
        ("chain", {"contam": (np.int64(3), 0.1, 1)}, "generator option 'contam' must be"),
        ("chain", {"xi": "a"}, "generator option 'xi' must be a number, got 'a'"),
        ("random", {"edge_density": True}, "generator option 'edge_density' must be a number"),
        ("random", {"marginal_kappa": [1.0]}, "generator option 'marginal_kappa' must be a number"),
    ], ids=["contam-int", "contam-str-kappa", "contam-3", "xi-str", "density-bool", "kappa-list"])
    def test_bad_option_types_raise_at_construction(self, kind, options, message):
        base = {"chain": {"d": 4, "xi": 0.1, "kappa1": 0.1, "kappa_eps": 10.0},
                "random": {"d": 3, "edge_density": 0.5}}[kind]
        with pytest.raises(SchemaError) as info:
            GeneratorSpec(kind=kind, options={**base, **options})
        assert str(info.value).startswith(message)

    def test_contam_normalized_to_tuple(self):
        options = {"d": 4, "xi": 0.1, "kappa1": 0.1, "kappa_eps": 10.0, "contam": [2, 0.5]}
        spec = GeneratorSpec(kind="chain", options=options)
        assert spec.options["contam"] == (2, 0.5)
        assert options["contam"] == [2, 0.5]  # the caller's dict is left alone
        assert GeneratorSpec(kind="chain", options={**options, "contam": (np.int64(2), 1)})

    def test_negative_contamination_count(self):
        with pytest.raises(DomainError, match="must be in \\[0, N=10\\], got -1"):
            gen_chain(N=10, d=3, xi=0.0, kappa1=1.0, kappa_eps=1.0, contam=(-1, 0.1))

    def test_gibbs_settings_used(self):
        spec = GeneratorSpec(kind="random", options={"d": 3, "edge_density": 0.5,
                                                     "gibbs": {"burn_in": 10, "thin": 3}})
        cfg = spec._gibbs_config(40, 9)
        assert (cfg.n_samples, cfg.burn_in, cfg.thin, cfg.seed) == (40, 10, 3, 9)
        default = GeneratorSpec(kind="random", options={"d": 3, "edge_density": 0.5})
        cfg = default._gibbs_config(40, 9)
        assert (cfg.burn_in, cfg.thin) == (500, 2)


class TestRecoveryExperiment:
    def test_perfect_separation(self):
        spec = GeneratorSpec(
            kind="chain",
            options={"d": 4, "xi": 0.1, "kappa1": 0.05, "kappa_eps": 30.0, "contam": (0, 1.0)},
        )
        summary = recovery_experiment(draw_replicates(spec, n_reps=3, N=2000, seed=7),
                                      alpha=0.001, correction="bonferroni")
        assert summary.auc == pytest.approx(1.0, abs=1e-12)

    def test_uninformative_scores_auc_half(self):
        # truth marks edges but the coupling scale is zero, so the data carry
        # no signal and the ROC is the diagonal; the AUC's sd is 0.046 over 30
        # replicates of 3 true and 3 false pairs, so 300 replicates put the
        # 0.05 bound at 3.3 sd
        spec = GeneratorSpec(kind="random", options={"d": 4, "edge_density": 0.5,
                                                     "coupling_scale": 0.0})
        summary = recovery_experiment(draw_replicates(spec, n_reps=300, N=200, seed=8))
        assert abs(summary.auc - 0.5) < 0.05

    def test_roc_endpoints_and_monotonicity(self):
        spec = GeneratorSpec(kind="random", options={"d": 4, "edge_density": 0.5})
        summary = recovery_experiment(draw_replicates(spec, n_reps=2, N=300, seed=9))
        fpr, tpr = summary.roc[:, 0], summary.roc[:, 1]
        assert fpr[0] == 0.0 and fpr[-1] == 1.0
        assert tpr[-1] == 1.0
        assert np.all(np.diff(tpr) >= -1e-12)
        assert np.all(np.diff(fpr) >= 0)

    def test_reproducible_given_seed(self):
        spec = GeneratorSpec(kind="indirect-triple")
        a = recovery_experiment(draw_replicates(spec, n_reps=3, N=300, seed=10))
        b = recovery_experiment(draw_replicates(spec, n_reps=3, N=300, seed=10))
        assert a.auc == b.auc
        np.testing.assert_array_equal(a.roc, b.roc)
        assert a.seeds == b.seeds

    def test_param_mse_reported_for_model_truth(self):
        spec = GeneratorSpec(kind="random", options={"d": 3, "edge_density": 1.0})
        summary = recovery_experiment(draw_replicates(spec, n_reps=2, N=400, seed=11))
        assert summary.param_mse is not None and summary.param_mse >= 0


class TestPlvRecoveryExperiment:
    def test_chain_fully_connected(self):
        spec = GeneratorSpec(
            kind="chain",
            options={"d": 5, "xi": np.pi / 100, "kappa1": 0.01, "kappa_eps": 40.0,
                     "contam": (15, 0.1)},
        )
        hits = 0
        for seed in range(10):
            summary = plv_recovery_experiment(draw_replicates(spec, n_reps=1, N=840, seed=seed),
                                              alpha=0.001, correction="bonferroni")
            # 6 non-edges out of 10 pairs: FPR 1.0 means every spurious pair flagged
            if summary.fpr_at_alpha == 1.0 and summary.fnr_at_alpha == 0.0:
                hits += 1
        assert hits >= 9

    def test_null_data_fpr_controlled(self):
        spec = GeneratorSpec(kind="uniform-null", options={"d": 5})
        summary = plv_recovery_experiment(draw_replicates(spec, n_reps=40, N=300, seed=12),
                                          alpha=0.05, correction="bonferroni")
        # Bonferroni keeps the per-pair FPR well under the nominal level
        mcse = np.sqrt(0.05 * 0.95 / (40 * 10))
        assert summary.fpr_at_alpha <= 0.05 + 2 * mcse

    def test_unknown_correction_rejected(self):
        # the decision rule is build_graph's, unknown names included
        spec = GeneratorSpec(kind="uniform-null", options={"d": 3})
        with pytest.raises(DomainError, match="unknown correction"):
            plv_recovery_experiment(draw_replicates(spec, n_reps=1, N=100), correction="holm")


class TestFprControlInvariant:
    def test_torus_null_fpr_both_corrections(self):
        spec = GeneratorSpec(kind="uniform-null", options={"d": 5})
        for corr in ("none", "bonferroni"):
            s = recovery_experiment(draw_replicates(spec, n_reps=40, N=500, seed=13),
                                    alpha=0.05, correction=corr)
            assert s.fpr_at_alpha <= 0.05 + 2 * s.fpr_mcse()


class _TwoArgError(Exception):
    """An exception whose constructor does not take a single message."""

    def __init__(self, code, detail):
        super().__init__(f"code {code}: {detail}")
        self.code = code


class _FailingGenerator:
    """Stands in for a generator spec (or a bootstrap replicate's
    cross-validation): records the seed of each call and raises ``exc`` on
    call ``fail_at``."""

    def __init__(self, exc, fail_at=0):
        self.exc = exc
        self.fail_at = fail_at
        self.seeds = []

    def _record(self, seed):
        self.seeds.append(seed)
        if len(self.seeds) > self.fail_at:
            raise self.exc
        return np.random.default_rng(seed).uniform(0, 2 * np.pi, size=(200, 3))

    def generate(self, N, seed):
        return self._record(seed), TruthGraph(d=3, edges=((0, 1),)), None


def _run_replicates(site, failing, monkeypatch):
    if site == "recovery":
        recovery_experiment(draw_replicates(failing, n_reps=3, N=200, seed=21))
    elif site == "plv":
        plv_recovery_experiment(draw_replicates(failing, n_reps=3, N=200, seed=21))
    else:
        cross_validate = torusgraphs.estimation._cross_validate  # unwrapped on every run
        calls = []

        def replicate_cv(sample, **kwargs):
            calls.append(None)
            if len(calls) > 2:  # the observed and the null fit come first
                failing._record(kwargs["seed"])
            return cross_validate(sample, **kwargs)

        monkeypatch.setattr(torusgraphs.inference, "_cross_validate", replicate_cv)
        X = np.random.default_rng(22).uniform(0, 2 * np.pi, size=(200, 3))
        bootstrap_null_test(X, [(0, 1)], B=19, seed=21, folds=2, grid=[0.1])


SITES = ("recovery", "plv", "bootstrap")


class TestReplicateErrors:
    @pytest.mark.parametrize("site", SITES)
    def test_type_and_attributes_kept(self, site, monkeypatch):
        with pytest.raises(ParseError) as info:
            _run_replicates(site, _FailingGenerator(ParseError("bad cell", row=7)), monkeypatch)
        assert info.value.row == 7
        # other constructor signatures are re-raised as they are, not rebuilt
        with pytest.raises(_TwoArgError) as info:
            _run_replicates(site, _FailingGenerator(_TwoArgError(5, "detail")), monkeypatch)
        assert info.value.code == 5

    @pytest.mark.parametrize("site", SITES)
    def test_message_names_replicate_and_seed(self, site, monkeypatch):
        failing = _FailingGenerator(DomainError("no data"), fail_at=1)
        with pytest.raises(DomainError) as info:
            _run_replicates(site, failing, monkeypatch)
        assert f"replicate 1 (seed {failing.seeds[1]}): no data" in str(info.value)

    @pytest.mark.parametrize("method", ["recovery", "plv"])
    def test_failing_scorer_names_replicate_and_seed(self, method, monkeypatch):
        # the draws succeed; the second replicate's scoring raises (one fit,
        # or one all-pairs PLV scoring, per replicate)
        name, per_rep = {"recovery": ("fit_closed_form", 1), "plv": ("plv_tests", 1)}[method]
        original = getattr(torusgraphs.simulation, name)
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) > per_rep:
                raise ParseError("bad cell", row=7)
            return original(*args, **kwargs)

        monkeypatch.setattr(torusgraphs.simulation, name, failing)
        replicates = draw_replicates(GeneratorSpec(kind="uniform-null", options={"d": 3}),
                                     n_reps=3, N=200, seed=21)
        experiment = recovery_experiment if method == "recovery" else plv_recovery_experiment
        with pytest.raises(ParseError) as info:
            experiment(replicates)
        assert info.value.row == 7
        assert f"replicate 1 (seed {replicates[1].seed}): bad cell" in str(info.value)


class TestDrawReplicates:
    def test_one_draw_per_replicate(self):
        recorder = _FailingGenerator(DomainError("never raised"), fail_at=10)
        replicates = draw_replicates(recorder, n_reps=4, N=200, seed=5)
        assert [r.seed for r in replicates] == recorder.seeds
        assert len(set(recorder.seeds)) == 4

    @pytest.mark.parametrize("n_reps,N", [(0, 100), (-1, 100), (2, 0), (2, -5)])
    def test_bad_counts_rejected_before_any_draw(self, n_reps, N):
        recorder = _FailingGenerator(DomainError("never raised"), fail_at=10)
        with pytest.raises(DomainError, match="at least one replicate and one trial"):
            draw_replicates(recorder, n_reps=n_reps, N=N, seed=5)
        assert recorder.seeds == []

    @pytest.mark.parametrize("kind,options", [
        ("chain", {"d": 4, "xi": 0.1, "kappa1": 0.1, "kappa_eps": 10.0, "contam": (3, 0.1)}),
        ("indirect-triple", {}),
        ("uniform-null", {"d": 3}),
    ])
    def test_other_kinds_equal_per_seed_generate(self, kind, options):
        spec = GeneratorSpec(kind=kind, options=options)
        for r in draw_replicates(spec, n_reps=3, N=150, seed=17):
            X, truth, params = spec.generate(150, r.seed)
            assert np.array_equal(r.angles, X)
            assert r.truth == truth and r.params is None and params is None

    def test_random_draws_all_replicates_in_one_sampler_call(self, monkeypatch):
        options = {"d": 4, "edge_density": 0.5, "gibbs": {"burn_in": 30, "thin": 1}}
        spec = GeneratorSpec(kind="random", options=options)
        calls = []
        chains = torusgraphs.simulation.gibbs_sample_chains

        def counted(params_list, cfg):
            calls.append((list(params_list), cfg))
            return chains(params_list, cfg)

        def no_single_chain(*args, **kwargs):
            raise AssertionError("gibbs_sample called")

        monkeypatch.setattr(torusgraphs.simulation, "gibbs_sample_chains", counted)
        monkeypatch.setattr(torusgraphs.simulation, "gibbs_sample", no_single_chain)
        replicates = draw_replicates(spec, n_reps=5, N=60, seed=19)
        assert len(calls) == 1
        # seeds, truth and params are those of one generate call per spawned seed
        children = np.random.SeedSequence(19).spawn(6)
        seeds = [int(c.generate_state(1)[0]) for c in children[:5]]
        assert [r.seed for r in replicates] == seeds
        graph_options = {k: v for k, v in options.items() if k != "gibbs"}
        for r in replicates:
            params, truth = gen_random_torus_graph(seed=r.seed, **graph_options)
            assert r.truth == truth
            assert np.array_equal(r.params.phi, params.phi) and r.params.family == params.family
        # the angles are one multi-chain draw seeded by the unused child n_reps
        params_list, cfg = calls[0]
        assert [p.phi.tolist() for p in params_list] == [r.params.phi.tolist() for r in replicates]
        assert (cfg.n_samples, cfg.burn_in, cfg.thin) == (60, 30, 1)
        assert cfg.seed == int(children[5].generate_state(1)[0])
        draws = chains(params_list, cfg)
        for c, r in enumerate(replicates):
            assert r.angles.shape == (60, 4)
            assert np.array_equal(r.angles, draws[c])
