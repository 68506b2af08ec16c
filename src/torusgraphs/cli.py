"""Command-line front end.

Thin adapters over the library: each subcommand loads files, calls one or two
library functions, writes the documented output format, and prints a short
plain-text report. Exit codes: 0 success, 1 usage error (bad flags or
schema-mismatched JSON), 2 domain error (bad data or violated precondition),
3 numerical error (singular systems, failed iterations).
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as tgio
from .circular import circular_mean_resultant, rayleigh_statistic, rayleigh_test, wrap_angle
from .estimation import accumulate_moments, fit_closed_form, fit_group_lasso, select_lambda_cv
from .estimation import FitResult
from .exceptions import DomainError, NumericalError, SchemaError, TorusGraphError
from .inference import (
    MODE_FULL,
    MODE_REFLECTIONAL,
    MODE_ROTATIONAL,
    asymptotic_cov,
    build_graph,
    correct_pvalues,
    edge_test,
    goodness_of_fit,
    group_edge_test,
    EdgeTest,
)
from .margins import bivar_phase_diff_density, population_plv_from_grid, trivar_phase_diff_density
from .model import Family, edge_list
from .sampling import GibbsConfig, gibbs_sample
from .simulation import plv_recovery_experiment, recovery_experiment

_FAMILIES = {
    "full": Family.FULL,
    "phasediff": Family.PHASE_DIFF,
    "uniform": Family.UNIFORM_MARGINAL,
    "uniform-phasediff": Family.UNIFORM_PHASE_DIFF,
}

_MODES = {"full": MODE_FULL, "rot": MODE_ROTATIONAL, "refl": MODE_REFLECTIONAL}


class _UsageError(Exception):
    def __init__(self, message, parser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message, self)


def _floats(text, n, flag):
    parts = text.split(",")
    if len(parts) != n:
        raise DomainError(f"{flag} expects {n} comma-separated values")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise DomainError(f"{flag}: {exc}") from exc


def _auto_mode(family, requested):
    if requested != "auto":
        return _MODES[requested]
    if family in (Family.PHASE_DIFF, Family.UNIFORM_PHASE_DIFF):
        return MODE_ROTATIONAL
    return MODE_FULL


def _load_dataset(args):
    return tgio.load_csv(
        args.data,
        units=args.units,
        header=False if args.no_header else "auto",
        delimiter=args.delimiter,
    )


def _load_fit(args):
    """Load the angle CSV and the model, check that their dimensions agree,
    and wrap the model as a FitResult over the data's moments, with its
    estimating-equation residual max|Gamma phi - H|."""
    ds = _load_dataset(args)
    params = tgio.load_model(args.model)
    if params.d != ds.d:
        raise DomainError(f"model dimension {params.d} does not match data dimension {ds.d}")
    moments = accumulate_moments(ds.angles)
    resid = float(np.max(np.abs(moments.gamma_hat @ params.phi - moments.h_hat)))
    return ds, FitResult(params=params, moments=moments, method="loaded", residual_norm=resid)


def _add_dataset_options(p):
    p.add_argument("data", help="angle CSV, trials in rows and channels in columns")
    p.add_argument("--units", choices=["radians", "degrees"], default="radians")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--no-header", action="store_true",
                   help="treat the first row as data even if it looks like names")


def cmd_fit(args):
    ds = _load_dataset(args)
    family = _FAMILIES[args.family]
    if args.cv is not None:
        if not args.grid:
            raise DomainError("--cv requires --grid")
        try:
            grid = [float(g) for g in args.grid.split(",")]
        except ValueError as exc:
            raise DomainError(f"--grid: {exc}") from exc
        lam, table = select_lambda_cv(ds.angles, family=family, folds=args.cv,
                                      grid=grid, seed=args.seed)
        fit = fit_group_lasso(ds.angles, family=family, lam=lam)
        print(f"cross-validation over {len(grid)} penalty weights, {args.cv} folds:")
        for g, loss in table:
            marker = " *" if g == lam else ""
            print(f"  lambda={g:g}  heldout={loss:.6f}{marker}")
    elif args.lasso is not None:
        fit = fit_group_lasso(ds.angles, family=family, lam=args.lasso)
    else:
        fit = fit_closed_form(ds.angles, family=family)
    tgio.save_model(args.out, fit.params)
    print(f"fitted {family.value} model: d={ds.d}, N={ds.n}, method={fit.method}"
          + (f", lambda={fit.lam:g}" if fit.lam is not None else ""))
    print(f"residual={fit.residual_norm:.3g}")
    print(f"model written to {args.out}")
    return 0


def cmd_test(args):
    ds, fit = _load_fit(args)
    cov = asymptotic_cov(ds.angles, fit.params, moments=fit.moments)
    mode = _auto_mode(fit.params.family, args.mode)
    tests = [edge_test(fit, cov, j, k, mode=mode) for j, k in edge_list(ds.d)]
    graph = build_graph(tests, alpha=args.alpha, correction=args.correction, d=ds.d)
    tgio.save_graph(args.out, graph)
    print(f"edgewise tests ({mode}, {len(tests)} pairs, alpha={args.alpha}, "
          f"correction={args.correction}; estimating-equation residual {fit.residual_norm:.3g}):")
    for t in sorted(tests, key=lambda t: t.p):
        j, k = t.edge
        flag = "*" if graph.adjacency[j, k] else " "
        print(f" {flag} {ds.channel_names[j]}--{ds.channel_names[k]}  "
              f"X2={t.x2:10.3f}  df={t.df}  p={t.p:.3g}")
    print(f"{len(graph.edges)} edges at alpha={args.alpha}; graph written to {args.out}")
    return 0


def cmd_region_test(args):
    ds, fit = _load_fit(args)
    groups = tgio.load_groups(args.groups)
    for name, members in groups.items():
        for m in members:
            if not 0 <= m < ds.d:
                raise DomainError(f"group {name!r} lists channel {m}, but d={ds.d}")
    cov = asymptotic_cov(ds.angles, fit.params, moments=fit.moments)
    mode = _auto_mode(fit.params.family, args.mode)
    names = sorted(groups)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    results = []
    for a, b in pairs:
        edges = sorted({(min(j, k), max(j, k)) for j in groups[a] for k in groups[b] if j != k})
        if not edges:
            raise DomainError(f"groups {a!r} and {b!r} share all channels")
        t = group_edge_test(fit, cov, edges, mode=mode)
        results.append((a, b, t))
    p_corr = correct_pvalues([t.p for _, _, t in results], args.correction)
    print(f"region tests ({mode}, alpha={args.alpha}, correction={args.correction}):")
    out_doc = {"schema_version": tgio.SCHEMA_VERSION, "alpha": args.alpha,
               "correction": args.correction, "mode": mode, "results": []}
    for (a, b, t), p in zip(results, p_corr.tolist()):
        sig = p <= args.alpha
        flag = "*" if sig else " "
        print(f" {flag} {a} -- {b}: X2={t.x2:.3f}, df={t.df}, p={t.p:.3g}, corrected={p:.3g}")
        out_doc["results"].append(
            {"group_a": a, "group_b": b, "x2": t.x2, "df": t.df, "p": t.p,
             "p_corrected": p, "significant": sig}
        )
    if args.out:
        Path(args.out).write_text(json.dumps(out_doc, indent=2) + "\n", encoding="utf-8")
        print(f"results written to {args.out}")
    return 0


def cmd_sample(args):
    params = tgio.load_model(args.model)
    cfg = GibbsConfig(n_samples=args.n, burn_in=args.burn_in, thin=args.thin, seed=args.seed)
    X = gibbs_sample(params, cfg)
    tgio.save_samples_csv(args.out, X)
    print(f"wrote {X.shape[0]} x {X.shape[1]} samples to {args.out} "
          f"(burn-in {args.burn_in}, thin {args.thin}, seed {args.seed})")
    return 0


def cmd_plv_graph(args):
    ds = _load_dataset(args)
    tests = []
    for j, k in edge_list(ds.d):
        w = wrap_angle(ds.angles[:, j] - ds.angles[:, k])
        tests.append(
            EdgeTest(edge=(j, k), x2=rayleigh_statistic(w), df=2, p=rayleigh_test(w), mode="plv")
        )
    graph = build_graph(tests, alpha=args.alpha, correction=args.correction, d=ds.d)
    tgio.save_graph(args.out, graph)
    print(f"pairwise phase-locking graph (Rayleigh tests, alpha={args.alpha}, "
          f"correction={args.correction}): {len(graph.edges)} of {len(tests)} edges")
    print(f"graph written to {args.out}")
    return 0


def cmd_phase_density(args):
    if args.bivar == args.trivar:
        raise DomainError("choose exactly one of --bivar / --trivar")
    if args.bivar:
        for flag, val in (("--kappa", args.kappa), ("--mu", args.mu), ("--coupling", args.coupling)):
            if val is None:
                raise DomainError(f"--bivar requires {flag}")
        p, f, g = bivar_phase_diff_density(
            _floats(args.kappa, 2, "--kappa"),
            _floats(args.mu, 2, "--mu"),
            _floats(args.coupling, 2, "--coupling"),
            grid_size=args.grid,
        )
        tgio.save_density_csv(args.out, {"p": p, "f": f, "g": g})
    else:
        for flag, val in (("--coupling12", args.coupling12), ("--coupling13", args.coupling13),
                          ("--coupling23", args.coupling23)):
            if val is None:
                raise DomainError(f"--trivar requires {flag}")
        p, g, h = trivar_phase_diff_density(
            _floats(args.coupling12, 2, "--coupling12"),
            _floats(args.coupling13, 2, "--coupling13"),
            _floats(args.coupling23, 2, "--coupling23"),
            grid_size=args.grid,
        )
        tgio.save_density_csv(args.out, {"p": p, "g": g, "h": h})
    total = float(np.sum(p.values) * p.spacing)
    print(f"density on {args.grid} grid points written to {args.out}")
    print(f"integral={total:.10f}, population PLV={population_plv_from_grid(p):.6f}")
    return 0


def cmd_gof(args):
    ds, fit = _load_fit(args)
    res = goodness_of_fit(ds.angles, fit, n_synth=args.n_synth, seed=args.seed)
    print(f"goodness of fit against {args.n_synth} synthetic draws (seed {args.seed}):")
    print(f"  marginals          combined p = {res['p_marginal']:.4g}")
    print(f"  phase differences  combined p = {res['p_diff']:.4g}")
    print(f"  phase sums         combined p = {res['p_sum']:.4g}")
    return 0


def cmd_bench(args):
    spec, settings = tgio.load_experiment_config(args.config)
    results = {}
    if "torus" in settings["methods"]:
        results["torus"] = recovery_experiment(
            spec,
            n_reps=settings["n_reps"],
            N=settings["N"],
            alpha=settings["alpha"],
            correction=settings["correction"],
            seed=settings["seed"],
            family=_FAMILIES[settings["family"]],
            mode=_MODES[settings["mode"]],
        )
    if "plv" in settings["methods"]:
        results["plv"] = plv_recovery_experiment(
            spec,
            n_reps=settings["n_reps"],
            N=settings["N"],
            alpha=settings["alpha"],
            correction=settings["correction"],
            seed=settings["seed"],
        )
    summary_path = tgio.save_experiment_results(args.out, results)
    for method, res in results.items():
        extra = f", param MSE={res.param_mse:.4g}" if res.param_mse is not None else ""
        print(f"{method}: AUC={res.auc:.4f}, FPR={res.fpr_at_alpha:.4f}, "
              f"FNR={res.fnr_at_alpha:.4f} over {res.n_reps} replicates{extra}")
    print(f"results written to {summary_path.parent}")
    return 0


def _resolve_channels(text, ds, flag):
    out = []
    for token in text.split(","):
        token = token.strip()
        if token in ds.channel_names:
            out.append(ds.channel_names.index(token))
            continue
        try:
            idx = int(token)
        except ValueError:
            raise DomainError(f"{flag}: unknown channel {token!r}") from None
        if not 0 <= idx < ds.d:
            raise DomainError(f"{flag}: channel index {idx} out of range for d={ds.d}")
        out.append(idx)
    if not out:
        raise DomainError(f"{flag} must list at least one channel")
    return out


def cmd_summarize_diffs(args):
    ds = _load_dataset(args)
    graph = tgio.load_graph(args.graph)
    if graph.d != ds.d:
        raise DomainError(f"graph dimension {graph.d} does not match data dimension {ds.d}")
    group_a = _resolve_channels(args.between[0], ds, "--between")
    group_b = _resolve_channels(args.between[1], ds, "--between")
    if set(group_a) & set(group_b):
        raise DomainError("--between groups overlap")
    pooled = []
    used = []
    for a in group_a:
        for b in group_b:
            if graph.adjacency[a, b]:
                pooled.append(wrap_angle(ds.angles[:, a] - ds.angles[:, b]))
                used.append((a, b))
    if not pooled:
        raise DomainError("no significant edges between the two groups in this graph")
    pooled = np.concatenate(pooled)
    r = circular_mean_resultant(pooled)
    halfwidth = _circular_mean_ci_halfwidth(pooled, r)
    mean_deg = np.degrees(_signed(r.mean_direction))
    lo, hi = np.degrees(_signed(r.mean_direction - halfwidth)), np.degrees(
        _signed(r.mean_direction + halfwidth)
    )
    print(f"pooled phase differences over {len(used)} significant edges "
          f"({pooled.size} trial pairs):")
    print(f"  mean offset = {mean_deg:.2f} degrees")
    print(f"  95% CI = [{lo:.2f}, {hi:.2f}] degrees")
    print(f"  resultant length = {r.mean_resultant_length:.4f}")
    if args.out:
        doc = {
            "schema_version": tgio.SCHEMA_VERSION,
            "edges": [[int(a), int(b)] for a, b in used],
            "n_pooled": int(pooled.size),
            "mean_offset_degrees": float(mean_deg),
            "ci95_degrees": [float(lo), float(hi)],
            "resultant_length": float(r.mean_resultant_length),
        }
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"summary written to {args.out}")
    return 0


def _signed(angle):
    """Map [0, 2pi) to (-pi, pi] for human-readable offsets."""
    a = wrap_angle(angle)
    return a - 2 * np.pi if a > np.pi else a


def _circular_mean_ci_halfwidth(angles, r, z=1.959964):
    """Large-sample CI halfwidth for the circular mean (dispersion-based)."""
    n = angles.size
    a2 = float(np.mean(np.cos(2.0 * (angles - r.mean_direction))))
    if r.mean_resultant_length < 1e-12:
        return np.pi
    se = np.sqrt(max(0.0, (1.0 - a2)) / (2.0 * n * r.mean_resultant_length**2))
    return float(np.arcsin(min(1.0, z * se)))


def build_parser():
    parser = _Parser(prog="torusgraphs",
                     description="Graphical models for multivariate circular data")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fit", help="fit a model to an angle CSV")
    _add_dataset_options(p)
    p.add_argument("--family", choices=sorted(_FAMILIES), default="full")
    solver = p.add_mutually_exclusive_group()
    solver.add_argument("--lasso", type=float, default=None, metavar="LAMBDA",
                        help="group-penalized fit at this penalty weight")
    solver.add_argument("--cv", type=int, default=None, metavar="K",
                        help="pick the penalty weight by K-fold cross-validation")
    p.add_argument("--grid", default=None, help="comma-separated penalty weights for --cv")
    p.add_argument("--seed", type=int, default=0, help="fold-split seed for --cv")
    p.add_argument("--out", required=True, help="output model JSON")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser(
        "test",
        help="edgewise coupling tests against a fitted model",
        description="Edgewise chi-squared coupling tests. The asymptotic "
                    "theory assumes an unpenalized fit on this same data; "
                    "penalized coefficients call for the bootstrap instead.",
    )
    _add_dataset_options(p)
    p.add_argument("--model", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--correction", choices=["none", "bonferroni"], default="none")
    p.add_argument("--mode", choices=["auto", "full", "rot", "refl"], default="auto")
    p.add_argument("--out", required=True, help="output graph JSON")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("region-test", help="grouped cross-region coupling tests")
    _add_dataset_options(p)
    p.add_argument("--model", required=True)
    p.add_argument("--groups", required=True, help="channel grouping JSON")
    p.add_argument("--alpha", type=float, default=0.001)
    p.add_argument("--correction", choices=["none", "bonferroni"], default="bonferroni")
    p.add_argument("--mode", choices=["auto", "full", "rot", "refl"], default="auto")
    p.add_argument("--out", default=None, help="optional output JSON")
    p.set_defaults(func=cmd_region_test)

    p = sub.add_parser("sample", help="draw Gibbs samples from a model")
    p.add_argument("--model", required=True)
    p.add_argument("-n", type=int, required=True, help="number of samples")
    p.add_argument("--burn-in", type=int, default=500)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output angle CSV")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("plv-graph", help="pairwise phase-locking graph (Rayleigh tests)")
    _add_dataset_options(p)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--correction", choices=["none", "bonferroni"], default="none")
    p.add_argument("--out", required=True, help="output graph JSON")
    p.set_defaults(func=cmd_plv_graph)

    p = sub.add_parser("phase-density", help="analytic phase-difference density export")
    p.add_argument("--bivar", action="store_true")
    p.add_argument("--trivar", action="store_true")
    p.add_argument("--kappa", default=None, help="bivar: kappa1,kappa2")
    p.add_argument("--mu", default=None, help="bivar: mu1,mu2")
    p.add_argument("--coupling", default=None, help="bivar: alpha,beta")
    p.add_argument("--coupling12", default=None, help="trivar: alpha12,beta12")
    p.add_argument("--coupling13", default=None, help="trivar: alpha13,beta13")
    p.add_argument("--coupling23", default=None, help="trivar: alpha23,beta23")
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--out", required=True, help="output density CSV")
    p.set_defaults(func=cmd_phase_density)

    p = sub.add_parser("gof", help="KS/combined goodness-of-fit battery")
    _add_dataset_options(p)
    p.add_argument("--model", required=True)
    p.add_argument("--n-synth", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gof)

    p = sub.add_parser("bench", help="run a structure-recovery benchmark config")
    p.add_argument("--config", required=True, help="experiment JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("summarize-diffs",
                       help="pooled circular mean of significant-edge phase differences")
    _add_dataset_options(p)
    p.add_argument("--graph", required=True, help="graph JSON from `test` or `plv-graph`")
    p.add_argument("--between", nargs=2, required=True, metavar=("GROUP_A", "GROUP_B"),
                   help="two comma-separated channel lists (indices or names)")
    p.add_argument("--out", default=None, help="optional output JSON")
    p.set_defaults(func=cmd_summarize_diffs)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, TorusGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
