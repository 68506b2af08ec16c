"""The three workloads: their inputs, CLI commands, output checks and the
traced-run shares that confirm what each one stresses."""

from dataclasses import dataclass
from typing import Callable

import numpy as np

import gen

N = 840
CV_GRID = tuple(float(v) for v in np.geomspace(1e-3, 1.0, 7))
RECOVERY_REPS = 20
RECOVERY_ALPHA = 0.001


@dataclass(frozen=True)
class Workload:
    """`prepare(work_dir, seed)` writes the inputs and returns a JSON-able
    dict; `ops(inputs, out_dir)` lists the CLI commands of one pass, each
    {"argv", "check", "kwargs"} with `check` a function name in checks.py."""

    name: str
    why: str
    prepare: Callable
    ops: Callable
    input_rows: int
    design: tuple = ()  # (per-layer metric, "min" or "equal", value)


def _prepare_tree(d):
    def prepare(work, seed):
        csv = work / f"tree-d{d}.csv"
        return {"csv": str(csv), "truth": gen.write_tree_csv(csv, d, N, seed), "seed": seed}
    return prepare


def _graph_ops(inputs, out):
    model, graph = str(out / "model.json"), str(out / "graph.json")
    return [
        {"argv": ["fit", inputs["csv"], "--family", "full", "--out", model],
         "check": "fit_residual", "kwargs": {"max_residual": 1e-8}},
        {"argv": ["test", inputs["csv"], "--model", model, "--alpha", "0.001",
                  "--correction", "bonferroni", "--out", graph],
         "check": "graph_equals", "kwargs": {"graph_path": graph, "truth_edges": inputs["truth"]}},
    ]


def _cv_ops(inputs, out):
    model = str(out / "model.json")
    return [
        {"argv": ["fit", inputs["csv"], "--family", "full", "--cv", "5",
                  "--grid", ",".join(repr(g) for g in CV_GRID),
                  "--seed", str(inputs["seed"]), "--out", model],
         "check": "cv_choice",
         "kwargs": {"grid": CV_GRID, "model_path": model, "truth_edges": inputs["truth"]}},
    ]


def _prepare_recovery(work, seed):
    config = work / "recovery-d10.json"
    gen.write_recovery_config(config, d=10, n=N, n_reps=RECOVERY_REPS, seed=seed,
                              alpha=RECOVERY_ALPHA, correction="bonferroni")
    return {"config": str(config)}


def _recovery_ops(inputs, out):
    results = out / "bench"
    return [
        {"argv": ["bench", "--config", inputs["config"], "--out", str(results)],
         "check": "recovery",
         "kwargs": {"summary_path": str(results / "summary.json"),
                    "alpha": RECOVERY_ALPHA, "min_auc": 0.9}},
    ]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "graph-d48",
            "fit then 1128 four-df edge tests at d=48: the dense Jacobian in moments and "
            "sandwich covariance does nearly all the work, no sampling",
            _prepare_tree(48), _graph_ops, N,
            (("trace.share.moments_cov", "min", 0.85),
             ("estimation.accumulate_moments.rows_ratio", "equal", 2.0)),
        ),
        Workload(
            "cv-d24",
            "5-fold x 7-lambda CV at d=24: 36 group-lasso solves with a dense eigvalsh each "
            "dominate, moments are spread over 6 small calls",
            _prepare_tree(24), _cv_ops, N,
            (("trace.share.group_lasso", "min", 0.5),),
        ),
        Workload(
            "recovery-d10",
            "bench at d=10 with torus and plv: many small Gibbs draws (each data set drawn "
            "twice) and small fits, so per-call overhead shows",
            _prepare_recovery, _recovery_ops, N * RECOVERY_REPS,
            (("trace.share.gibbs", "min", 0.5),
             ("simulation.GeneratorSpec.generate.repeat_ratio", "equal", 2.0)),
        ),
    )
}
