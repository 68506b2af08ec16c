"""Which package functions the traced run wraps, and the per-layer metrics.

Each metric names the end-to-end metric it should move and on which
workload (`moves`), written down before any optimisation is measured.
BENCHMARK.json lists the same metric names, units and directions; a test
keeps the two in step.
"""

import numpy as np

LAYERS = ("cli", "io", "estimation", "inference", "model", "sampling", "simulation", "circular")

# public functions of package version 0.1.0, per layer; a name a later
# version drops is skipped and reports zeros
FUNCTIONS = {
    "cli": ("cmd_fit", "cmd_test", "cmd_region_test", "cmd_sample", "cmd_plv_graph",
            "cmd_phase_density", "cmd_gof", "cmd_bench", "cmd_summarize_diffs",
            "build_parser", "main"),
    "io": ("load_csv", "save_samples_csv", "params_to_dict", "params_from_dict", "save_model",
           "load_model", "graph_to_dict", "graph_from_dict", "save_graph", "load_graph",
           "save_adjacency_csv", "save_density_csv", "load_groups", "load_experiment_config",
           "save_experiment_results"),
    "estimation": ("jacobian_D", "gamma_H_of_sample", "accumulate_moments", "sm_objective",
                   "fit_closed_form", "fit_group_lasso", "select_lambda_cv"),
    "inference": ("asymptotic_cov", "edge_test", "group_edge_test", "build_graph",
                  "partial_plv", "goodness_of_fit", "bootstrap_null_test"),
    "model": ("param_dim", "edge_list", "marginal_slice", "edge_rank", "coupling_slice",
              "family_mask", "suff_stats", "suff_stats_batch", "log_unnorm_density",
              "to_natural", "to_mean_centered", "sine_model_embed", "apply_family"),
    "sampling": ("conditional_von_mises", "gibbs_sample"),
    "simulation": ("gen_chain", "gen_indirect_triple", "gen_uniform_null",
                   "gen_random_torus_graph", "recovery_experiment", "plv_recovery_experiment"),
    "circular": ("wrap_angle", "bessel_i", "log_bessel_i0", "bessel_ratio", "harmonic_addition",
                 "circular_mean_resultant", "rayleigh_test", "rayleigh_statistic", "plv",
                 "circular_correlation", "chi2_sf", "fisher_combine", "von_mises_sample",
                 "ks_two_sample"),
}
METHODS = (("simulation", "GeneratorSpec", "generate"),)

MEMORY = {"estimation.accumulate_moments", "inference.asymptotic_cov"}


def _rows(args, result):
    shape = np.shape(args["data"])
    return {"rows": shape[0] if len(shape) == 2 else 1}


def _gibbs(args, result):
    d, cfg = args["params"].d, args["cfg"]
    sweeps = cfg.burn_in + cfg.n_samples * cfg.thin
    return {"sweeps": sweeps, "node_updates": d * sweeps, "kept": cfg.n_samples}


def _iters(args, result):
    return {"iters": result.n_iter or 0}


def _seed(args, result):
    return {"seed": args["seed"]}


COUNTERS = {
    "estimation.accumulate_moments": _rows,
    "sampling.gibbs_sample": _gibbs,
    "estimation.fit_group_lasso": _iters,
    "simulation.GeneratorSpec.generate": _seed,
}


def span_names():
    names = [f"{layer}.{fn}" for layer in LAYERS for fn in FUNCTIONS[layer]]
    names += [f"{layer}.{cls}.{fn}" for layer, cls, fn in METHODS]
    return names


def targets(modules):
    """Tracer targets for {layer: imported module}."""
    out = []
    for layer in LAYERS:
        for fn in FUNCTIONS[layer]:
            name = f"{layer}.{fn}"
            out.append((name, modules[layer], fn, COUNTERS.get(name), name in MEMORY))
    for layer, cls, fn in METHODS:
        name = f"{layer}.{cls}.{fn}"
        owner = getattr(modules[layer], cls)
        out.append((name, owner, fn, COUNTERS.get(name), name in MEMORY))
    return out


def _ratio(num, den):
    return num / den if den else 0.0


GRAPH_CV = "wall_s on graph-d48 and cv-d24"
GRAPH = "wall_s on graph-d48"
RECOVERY = "wall_s on recovery-d10"

# (name, unit, better, moves, value(stats, ctx)); ctx holds input_rows,
# wall_s (traced pass) and untraced_wall_s
METRICS = [
    ("cli.self_s", "s", "lower", "wall_s on every workload",
     lambda st, c: st.layer_self_s("cli")),
    *[(f"io.{fn}.s", "s", "lower", GRAPH_CV, lambda st, c, fn=fn: st.get(f"io.{fn}", "s"))
      for fn in ("load_csv", "load_model", "save_model", "save_graph")],
    ("io.save_experiment_results.s", "s", "lower", RECOVERY,
     lambda st, c: st.get("io.save_experiment_results", "s")),
    ("estimation.accumulate_moments.s", "s", "lower",
     "wall_s on graph-d48 and cv-d24; no change on recovery-d10",
     lambda st, c: st.get("estimation.accumulate_moments", "s")),
    ("estimation.accumulate_moments.calls", "count", "lower", GRAPH_CV,
     lambda st, c: st.get("estimation.accumulate_moments", "calls")),
    ("estimation.accumulate_moments.rows_ratio", "ratio", "lower", GRAPH_CV,
     lambda st, c: _ratio(st.get("estimation.accumulate_moments", "rows"), c["input_rows"])),
    ("estimation.accumulate_moments.rows_per_s", "rows/s", "higher", GRAPH_CV,
     lambda st, c: _ratio(st.get("estimation.accumulate_moments", "rows"),
                          st.get("estimation.accumulate_moments", "s"))),
    ("estimation.accumulate_moments.peak_mb", "MB", "lower", "peak_rss_mb on graph-d48",
     lambda st, c: st.get("estimation.accumulate_moments", "peak_mb")),
    ("model.suff_stats_batch.s", "s", "lower", GRAPH,
     lambda st, c: st.get("model.suff_stats_batch", "s")),
    ("model.suff_stats_batch.calls", "count", "lower", GRAPH,
     lambda st, c: st.get("model.suff_stats_batch", "calls")),
    ("estimation.fit_closed_form.self_s", "s", "lower", GRAPH,
     lambda st, c: st.get("estimation.fit_closed_form", "self_s")),
    ("estimation.fit_group_lasso.self_s", "s", "lower", "wall_s on cv-d24",
     lambda st, c: st.get("estimation.fit_group_lasso", "self_s")),
    ("estimation.fit_group_lasso.calls", "count", "lower", "wall_s on cv-d24",
     lambda st, c: st.get("estimation.fit_group_lasso", "calls")),
    ("estimation.fit_group_lasso.iters", "count", "lower", "wall_s on cv-d24",
     lambda st, c: st.get("estimation.fit_group_lasso", "iters")),
    ("estimation.select_lambda_cv.self_s", "s", "lower", "wall_s on cv-d24",
     lambda st, c: st.get("estimation.select_lambda_cv", "self_s")),
    ("inference.asymptotic_cov.s", "s", "lower", GRAPH,
     lambda st, c: st.get("inference.asymptotic_cov", "s")),
    ("inference.asymptotic_cov.peak_mb", "MB", "lower", "peak_rss_mb on graph-d48",
     lambda st, c: st.get("inference.asymptotic_cov", "peak_mb")),
    ("inference.edge_test.s", "s", "lower", "wall_s on graph-d48 and recovery-d10",
     lambda st, c: st.get("inference.edge_test", "s")),
    ("inference.edge_test.calls", "count", "lower", "wall_s on graph-d48 and recovery-d10",
     lambda st, c: st.get("inference.edge_test", "calls")),
    ("inference.build_graph.s", "s", "lower", "wall_s on graph-d48 and recovery-d10",
     lambda st, c: st.get("inference.build_graph", "s")),
    ("sampling.gibbs_sample.s", "s", "lower", RECOVERY,
     lambda st, c: st.get("sampling.gibbs_sample", "s")),
    ("sampling.gibbs_sample.calls", "count", "lower", RECOVERY,
     lambda st, c: st.get("sampling.gibbs_sample", "calls")),
    ("sampling.gibbs_sample.node_updates", "count", "lower", RECOVERY,
     lambda st, c: st.get("sampling.gibbs_sample", "node_updates")),
    ("sampling.gibbs_sample.node_updates_per_s", "1/s", "higher", RECOVERY,
     lambda st, c: _ratio(st.get("sampling.gibbs_sample", "node_updates"),
                          st.get("sampling.gibbs_sample", "s"))),
    ("sampling.gibbs_sample.kept_ratio", "ratio", "higher", RECOVERY,
     lambda st, c: _ratio(st.get("sampling.gibbs_sample", "kept"),
                          st.get("sampling.gibbs_sample", "sweeps"))),
    ("simulation.GeneratorSpec.generate.self_s", "s", "lower", RECOVERY,
     lambda st, c: st.get("simulation.GeneratorSpec.generate", "self_s")),
    ("simulation.GeneratorSpec.generate.repeat_ratio", "ratio", "lower", RECOVERY,
     lambda st, c: _ratio(st.get("simulation.GeneratorSpec.generate", "calls"),
                          st.distinct_seeds("simulation.GeneratorSpec.generate"))),
    ("simulation.recovery_experiment.self_s", "s", "lower", RECOVERY,
     lambda st, c: st.get("simulation.recovery_experiment", "self_s")),
    ("simulation.plv_recovery_experiment.self_s", "s", "lower", RECOVERY,
     lambda st, c: st.get("simulation.plv_recovery_experiment", "self_s")),
    ("circular.rayleigh.s", "s", "lower", RECOVERY,
     lambda st, c: st.get("circular.rayleigh_test", "s") + st.get("circular.rayleigh_statistic", "s")),
    ("trace.wall_s", "s", "lower", "none: wall_s of the traced pass",
     lambda st, c: c["wall_s"]),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s",
     lambda st, c: c["wall_s"] - c["untraced_wall_s"]),
    ("trace.share.moments_cov", "ratio", "lower",
     "design check: >= 0.85 of traced time on graph-d48",
     lambda st, c: _ratio(st.get("estimation.accumulate_moments", "s")
                          + st.get("inference.asymptotic_cov", "s"), st.root_s)),
    ("trace.share.group_lasso", "ratio", "lower", "design check: >= 0.5 of traced time on cv-d24",
     lambda st, c: _ratio(st.get("estimation.fit_group_lasso", "self_s"), st.root_s)),
    ("trace.share.gibbs", "ratio", "lower", "design check: >= 0.5 of traced time on recovery-d10",
     lambda st, c: _ratio(st.get("sampling.gibbs_sample", "s"), st.root_s)),
    *[(f"{name}.errors", "count", "lower", "ops_failed on any workload",
       lambda st, c, name=name: st.get(name, "errors")) for name in span_names()],
]


def per_layer(stats, ctx):
    """{metric name: value} for one traced pass."""
    return {name: float(value(stats, ctx)) for name, _, _, _, value in METRICS}
