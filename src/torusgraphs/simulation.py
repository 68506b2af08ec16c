"""Synthetic data generators and the structure-recovery benchmark harness.

The generators build rotationally coupled angle data trial by trial (each
node's angles derived from a graph neighbor plus a fixed offset and von Mises
noise, with a few trials contaminated by much noisier draws), or draw from a
random sparse coupling model via Gibbs sampling (all replicates of a run in
one multi-chain sampler call). The harness draws the replicated data sets
once, scores every candidate edge in each with a method, and reports ROC/AUC
plus false positive/negative rates at a chosen decision rule. A method scores
with what the CLI runs: ``edge_tests`` as in ``test``, ``plv_tests`` as in
``plv-graph``.
"""

import inspect
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .circular import von_mises_sample, wrap_angle
from .estimation import fit_closed_form
from .exceptions import DomainError, SchemaError, add_context, check_seed, is_integer
from .inference import asymptotic_cov, correct_pvalues, edge_tests, plv_tests
from .model import (
    Family,
    TorusGraphParams,
    _canonical_pairs,
    _edge_index_arrays,
    coupling_coords,
    param_dim,
)
from .sampling import GibbsConfig, gibbs_sample, gibbs_sample_chains

FPR_GRID_SIZE = 512


@dataclass(frozen=True)
class TruthGraph:
    """Ground-truth edge set of pairs given in either order, stored as j < k."""

    d: int
    edges: frozenset

    def __post_init__(self):
        # a set: a pair listed in both orders is one edge
        distinct = {frozenset(e): e for e in self.edges}
        pairs = _canonical_pairs(self.d, list(distinct.values()))[0]
        object.__setattr__(self, "edges", frozenset(map(tuple, pairs.tolist())))

    def has_edge(self, j, k):
        return (min(j, k), max(j, k)) in self.edges


@dataclass(frozen=True)
class RecoverySummary:
    """Averaged ROC curve with its AUC and error rates at the decision rule.

    ``fpr_reps``/``fnr_reps`` hold the per-replicate rates behind the means,
    for Monte-Carlo standard errors (decisions within a replicate are
    correlated, so binomial formulas understate the uncertainty).
    """

    auc: float
    roc: np.ndarray  # (FPR_GRID_SIZE, 2) columns (fpr, tpr)
    fpr_at_alpha: float
    fnr_at_alpha: float
    n_reps: int
    seeds: tuple
    param_mse: Optional[float] = None
    fpr_reps: tuple = ()
    fnr_reps: tuple = ()

    def fpr_mcse(self):
        vals = np.array([v for v in self.fpr_reps if np.isfinite(v)])
        if vals.size < 2:
            return float("nan")
        return float(vals.std(ddof=1) / np.sqrt(vals.size))


def _noise(rng, kappa, n, contam_count, contam_kappa):
    """Coupling noise with `contam_count` trials (without replacement)
    re-drawn at the contamination concentration."""
    eps = von_mises_sample(0.0, kappa, n, rng)
    if contam_count:
        picks = rng.choice(n, size=contam_count, replace=False)
        eps[picks] = von_mises_sample(0.0, contam_kappa, contam_count, rng)
    return eps


def gen_chain(N, d, xi, kappa1, kappa_eps, contam=(0, 1.0), seed=0):
    """Linear-chain data: x_{j+1} = x_j + xi + eps per trial.

    The first node is von Mises(0, kappa1); each link adds the fixed offset
    ``xi`` plus von Mises(0, kappa_eps) noise, with ``contam[0]`` trials per
    link (chosen without replacement, independently per link) re-drawn at
    concentration ``contam[1]``. Truth graph is the chain.
    """
    contam_count, contam_kappa = int(contam[0]), float(contam[1])
    if d < 2:
        raise DomainError("chain needs d >= 2")
    if not 0 <= contam_count <= N:
        raise DomainError(f"contaminated trial count must be in [0, N={N}], got {contam_count}")
    rng = np.random.default_rng(seed)
    X = np.empty((N, d))
    X[:, 0] = von_mises_sample(0.0, kappa1, N, rng)
    for j in range(d - 1):
        eps = _noise(rng, kappa_eps, N, contam_count, contam_kappa)
        X[:, j + 1] = X[:, j] + xi + eps
    truth = TruthGraph(d=d, edges=frozenset((j, j + 1) for j in range(d - 1)))
    return wrap_angle(X), truth


def gen_indirect_triple(N, seed=0):
    """Three nodes with a hub: node 1 drives nodes 0 and 2, no direct (0, 2).

    The hub is nearly uniform (concentration 0.01); node 0 sits pi/6 ahead
    and node 2 pi/100 ahead, each through von Mises(0, 2) coupling noise with
    75 trials contaminated at concentration 0.1. Truth edges {(0,1), (1,2)}.
    """
    if N < 100:
        raise DomainError("need N >= 100")
    rng = np.random.default_rng(seed)
    hub = von_mises_sample(0.0, 0.01, N, rng)
    x0 = hub + np.pi / 6 + _noise(rng, 2.0, N, 75, 0.1)
    x2 = hub + np.pi / 100 + _noise(rng, 2.0, N, 75, 0.1)
    X = np.column_stack([x0, hub, x2])
    truth = TruthGraph(d=3, edges=frozenset({(0, 1), (1, 2)}))
    return wrap_angle(X), truth


def gen_uniform_null(N, d, seed=0):
    """Independent uniform channels; the truth graph is empty."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 2.0 * np.pi, size=(N, d))
    return X, TruthGraph(d=d, edges=frozenset())


def gen_random_torus_graph(d, edge_density, coupling_scale=1.0, seed=0, marginal_kappa=0.0):
    """Random sparse coupling model: ceil(density * d(d-1)/2) edges chosen
    uniformly, each with a rotational pair of norm ``coupling_scale`` in a
    uniform random direction; no reflectional terms. Marginal blocks are zero
    (uniform margins) unless ``marginal_kappa`` is set.
    """
    if not 0 < edge_density <= 1:
        raise DomainError("edge density must be in (0, 1]")
    rng = np.random.default_rng(seed)
    jj, kk = _edge_index_arrays(d)
    n_edges = int(np.ceil(edge_density * jj.size))
    chosen = rng.choice(jj.size, size=n_edges, replace=False)
    phi = np.zeros(param_dim(d))
    if marginal_kappa > 0:
        mus = rng.uniform(0, 2 * np.pi, d)
        phi[0 : 2 * d : 2] = marginal_kappa * np.cos(mus)
        phi[1 : 2 * d : 2] = marginal_kappa * np.sin(mus)
    angle = rng.uniform(0, 2 * np.pi, n_edges)
    phi[coupling_coords(d)[chosen, :2]] = np.column_stack(
        [coupling_scale * np.cos(angle), coupling_scale * np.sin(angle)])
    family = Family.PHASE_DIFF if marginal_kappa > 0 else Family.UNIFORM_PHASE_DIFF
    params = TorusGraphParams(d=d, phi=phi, family=family)
    truth = TruthGraph(d=d, edges=frozenset(zip(jj[chosen].tolist(), kk[chosen].tolist())))
    return params, truth


def _generator(kind):
    """The gen_* function of a generator kind, looked up when called."""
    return {"chain": gen_chain, "indirect-triple": gen_indirect_triple,
            "uniform-null": gen_uniform_null, "random": gen_random_torus_graph}[kind]


def _generator_options(kind):
    """(required, optional) option names of a generator kind: the keyword
    arguments of its gen_* function other than N and seed, plus the Gibbs
    settings ``gibbs`` of ``random``."""
    params = inspect.signature(_generator(kind)).parameters.values()
    required = {p.name for p in params if p.default is p.empty} - {"N"}
    optional = {p.name for p in params if p.default is not p.empty} - {"seed"}
    if kind == "random":
        optional.add("gibbs")
    return required, optional


def _is_number(value):
    """A JSON number: an integer or a float, not a boolean."""
    return is_integer(value) or isinstance(value, (float, np.floating))


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative generator description used by the benchmark harness.

    kind: one of "chain", "indirect-triple", "uniform-null", "random".
    options: keyword arguments of the matching gen_* function (minus N, seed),
    plus for "random" an optional ``gibbs`` object with integer ``burn_in``
    (>= 0, default 500) and ``thin`` (>= 1, default 2). A kind with a
    dimension option ``d`` needs an integer d >= 2, so that there is at least
    one pair to score. Every other option is a number (not a boolean), except
    ``contam``: a pair of an integer count and a number, stored as a tuple. A
    missing or unknown option, a value of the wrong type and a malformed
    ``gibbs`` are SchemaError, an out-of-range value DomainError.
    """

    kind: str
    options: dict = field(default_factory=dict)

    _KINDS = ("chain", "indirect-triple", "uniform-null", "random")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise DomainError(f"unknown generator kind {self.kind!r}; expected one of {self._KINDS}")
        required, optional = _generator_options(self.kind)
        missing = sorted(required - self.options.keys())
        unknown = sorted(self.options.keys() - required - optional)
        if missing or unknown:
            raise SchemaError(f"generator {self.kind!r}: missing options {missing}, "
                              f"unknown options {unknown}")
        for key, value in self.options.items():
            if key == "contam":
                if not (isinstance(value, (list, tuple)) and len(value) == 2
                        and is_integer(value[0]) and _is_number(value[1])):
                    raise SchemaError("generator option 'contam' must be [count, kappa], an "
                                      f"integer and a number, got {value!r}")
            elif key not in ("d", "gibbs") and not _is_number(value):
                raise SchemaError(f"generator option {key!r} must be a number, got {value!r}")
        if "contam" in self.options:
            object.__setattr__(self, "options", {**self.options,
                                                 "contam": tuple(self.options["contam"])})
        gibbs = self.options.get("gibbs", {}) if self.kind == "random" else {}
        if not isinstance(gibbs, dict) or gibbs.keys() - {"burn_in", "thin"}:
            raise SchemaError("generator option 'gibbs' must be an object with keys among "
                              "['burn_in', 'thin']")
        for key, value in gibbs.items():
            if not is_integer(value):
                raise SchemaError(f"field {key!r} has the wrong type")
        if gibbs.get("burn_in", 0) < 0 or gibbs.get("thin", 1) < 1:
            raise DomainError(f"gibbs needs burn_in >= 0 and thin >= 1, got {gibbs!r}")
        if "d" in self.options:
            d = self.options["d"]
            if not is_integer(d) or d < 2:
                raise DomainError(f"generator {self.kind!r} needs an integer d >= 2, got {d!r}")

    def generate(self, N, seed):
        """Produce (angles, truth, true_params-or-None) for one replicate."""
        if self.kind != "random":
            return (*_generator(self.kind)(N=N, seed=seed, **self.options), None)
        params, truth = self._random_graph(seed)
        return gibbs_sample(params, self._gibbs_config(N, seed)), truth, params

    def _random_graph(self, seed):
        """(params, truth) of the "random" kind's coupling model for ``seed``."""
        opts = {k: v for k, v in self.options.items() if k != "gibbs"}
        return gen_random_torus_graph(seed=seed, **opts)

    def _gibbs_config(self, N, seed):
        """The "random" kind's Gibbs settings for N kept draws from ``seed``."""
        gibbs = self.options.get("gibbs", {})
        return GibbsConfig(n_samples=N, burn_in=int(gibbs.get("burn_in", 500)),
                           thin=int(gibbs.get("thin", 2)), seed=seed)


class Replicate(NamedTuple):
    """One simulated data set: its seed, (N, d) angles, truth graph and, for
    data drawn from a model, the true parameters."""

    seed: int
    angles: np.ndarray
    truth: TruthGraph
    params: Optional[TorusGraphParams]


def _roc_points(scores, labels):
    """Threshold sweep of edge scores against the true edge labels."""
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    order = np.argsort(-np.asarray(scores))
    tp = np.concatenate([[0], np.cumsum(labels[order])])
    fp = np.concatenate([[0], np.cumsum(~labels[order])])
    tpr = tp / n_pos if n_pos else np.ones_like(tp, dtype=float)
    fpr = fp / n_neg if n_neg else np.ones_like(fp, dtype=float)
    return fpr, tpr


def _interp_roc(fpr, tpr, grid):
    # the ROC is the right-continuous staircase through the sweep corners
    # (max tpr at each achieved fpr: both never decrease along the sweep, so
    # that is the last corner at each fpr); evaluate it on the grid with
    # previous-value semantics, which preserves the Mann-Whitney area
    xs = np.unique(fpr)
    ys = tpr[np.searchsorted(fpr, xs, side="right") - 1]
    pos = np.searchsorted(xs, grid, side="right") - 1
    return ys[np.clip(pos, 0, xs.size - 1)]


def _decision_rates(pvals, labels, alpha, correction):
    reject = correct_pvalues(pvals, correction) <= alpha
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    fpr = float(np.sum(reject & ~labels) / n_neg) if n_neg else np.nan
    fnr = float(np.sum(~reject & labels) / n_pos) if n_pos else np.nan
    return fpr, fnr


def _seed_of(seed_sequence):
    return int(seed_sequence.generate_state(1)[0])


def draw_replicates(gen, n_reps, N, seed=0):
    """Draw ``n_reps`` data sets of ``N`` trials from ``gen``, one per seed
    spawned from ``seed`` (>= 0); every method scores this same list.

    Replicate i's seed comes from child i of ``SeedSequence(seed).spawn(n_reps
    + 1)``. Most generators draw each replicate with ``gen.generate(N,
    seed_i)``. A "random" GeneratorSpec builds each replicate's graph from its
    seed and draws all replicates' angles in one multi-chain Gibbs run
    seeded by child n_reps, which no replicate uses: a replicate's seed then
    fixes its graph, and its angles depend on the whole draw.
    """
    if n_reps < 1 or N < 1:
        raise DomainError(f"need at least one replicate and one trial, got n_reps={n_reps}, N={N}")
    check_seed(seed)
    children = np.random.SeedSequence(seed).spawn(n_reps + 1)
    seeds = [_seed_of(s) for s in children[:n_reps]]
    batched = isinstance(gen, GeneratorSpec) and gen.kind == "random"
    drawn = []
    for rep, rep_seed in enumerate(seeds):
        try:
            drawn.append(gen._random_graph(rep_seed) if batched else gen.generate(N, rep_seed))
        except Exception as exc:
            add_context(exc, f"replicate {rep} (seed {rep_seed})")
            raise
    if not batched:
        return [Replicate(s, *d) for s, d in zip(seeds, drawn)]
    params = [p for p, _ in drawn]
    angles = gibbs_sample_chains(params, gen._gibbs_config(N, _seed_of(children[n_reps])))
    return [Replicate(s, X, truth, p) for s, X, (p, truth) in zip(seeds, angles, drawn)]


def _experiment(replicates, score, alpha, correction):
    """Score every replicate with ``score(angles) -> (EdgeTests of every pair,
    fitted phi or None)``; average the ROC curves over replicates and apply
    the (alpha, correction) rule for the per-replicate FPR/FNR."""
    grid = np.linspace(0.0, 1.0, FPR_GRID_SIZE)
    tprs, fprs, fnrs, mses = [], [], [], []
    for rep, r in enumerate(replicates):
        try:
            tests, phi = score(r.angles)
        except Exception as exc:
            add_context(exc, f"replicate {rep} (seed {r.seed})")
            raise
        labels = np.array([r.truth.has_edge(*t.edge) for t in tests])
        tprs.append(_interp_roc(*_roc_points([t.x2 for t in tests], labels), grid))
        fpr, fnr = _decision_rates([t.p for t in tests], labels, alpha, correction)
        fprs.append(fpr)
        fnrs.append(fnr)
        if phi is not None and r.params is not None:
            mses.append(float(np.mean((phi - r.params.phi) ** 2)))
    mean_tpr = np.array(tprs).mean(axis=0)
    fprs, fnrs = np.array(fprs, dtype=float), np.array(fnrs, dtype=float)
    with np.errstate(invalid="ignore"):
        fpr_mean = float(np.nanmean(fprs)) if np.any(np.isfinite(fprs)) else float("nan")
        fnr_mean = float(np.nanmean(fnrs)) if np.any(np.isfinite(fnrs)) else float("nan")
    return RecoverySummary(
        auc=float(np.trapezoid(mean_tpr, grid)),
        roc=np.column_stack([grid, mean_tpr]),
        fpr_at_alpha=fpr_mean,
        fnr_at_alpha=fnr_mean,
        n_reps=len(replicates),
        seeds=tuple(r.seed for r in replicates),
        param_mse=float(np.mean(mses)) if mses else None,
        fpr_reps=tuple(float(v) for v in fprs),
        fnr_reps=tuple(float(v) for v in fnrs),
    )


def recovery_experiment(replicates, alpha=0.001, correction="bonferroni",
                        family=Family.FULL, mode="full"):
    """Model-based structure recovery: fit each replicate, score edges by
    the block test statistic, and report coefficient MSE where the truth is
    a model."""

    def score(X):
        fit = fit_closed_form(X, family=family)
        cov = asymptotic_cov(X, fit.params, moments=fit.moments)
        return edge_tests(fit, cov, mode), fit.params.phi

    return _experiment(replicates, score, alpha, correction)


def plv_recovery_experiment(replicates, alpha=0.001, correction="bonferroni"):
    """Pairwise baseline: score each pair by the Rayleigh statistic of the
    wrapped phase differences and decide edges by the Rayleigh test."""

    return _experiment(replicates, lambda X: (plv_tests(X), None), alpha, correction)
