"""Oracle for the replicate loop: the former per-method experiments.

``recovery_experiment`` and ``plv_recovery_experiment`` each drew their own
replicates (spawned seeds, one ``gen.generate`` per replicate) and scored
them. They are kept below verbatim, with the ROC and decision-rate helpers
they called, and every ``RecoverySummary`` field of the package's
draw-once-score-per-method path must equal theirs bit for bit.

``draw_replicates`` draws the ``random`` kind's angles for all replicates in
one multi-chain run, which no single ``generate`` call reproduces; for that
kind the oracles draw from a replay generator that returns, per seed, the
replicate ``draw_replicates`` made.

The package's ``_interp_roc`` reads the staircase off the sorted sweep
instead of the dict loop kept here, and must equal it exactly on tied
scores and on one-class labels, where fpr or tpr is all ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgraphs import simulation
from torusgraphs.circular import rayleigh_statistic, rayleigh_test, wrap_angle
from torusgraphs.estimation import fit_closed_form
from torusgraphs.exceptions import DomainError, add_context
from torusgraphs.inference import asymptotic_cov, correct_pvalues, edge_test
from torusgraphs.model import Family, edge_list
from torusgraphs.simulation import FPR_GRID_SIZE, GeneratorSpec, RecoverySummary, draw_replicates


def _roc_points(scores, truth, pairs):
    """Threshold sweep of edge scores against the truth graph."""
    labels = np.array([truth.has_edge(j, k) for j, k in pairs])
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
    # (max tpr at each achieved fpr); evaluate it on the grid with
    # previous-value semantics, which preserves the Mann-Whitney area
    best = {}
    for f, t in zip(fpr, tpr):
        best[f] = max(best.get(f, 0.0), t)
    xs = np.array(sorted(best))
    ys = np.array([best[x] for x in xs])
    pos = np.searchsorted(xs, grid, side="right") - 1
    return ys[np.clip(pos, 0, xs.size - 1)]


def _decision_rates(pvals, truth, pairs, alpha, correction):
    reject = correct_pvalues(pvals, correction) <= alpha
    labels = np.array([truth.has_edge(j, k) for j, k in pairs])
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    fpr = float(np.sum(reject & ~labels) / n_neg) if n_neg else np.nan
    fnr = float(np.sum(~reject & labels) / n_pos) if n_pos else np.nan
    return fpr, fnr


def _summarize(per_rep, seeds, n_reps):
    grid = np.linspace(0.0, 1.0, FPR_GRID_SIZE)
    tprs = np.array([_interp_roc(f, t, grid) for f, t, _, _, _ in per_rep])
    mean_tpr = tprs.mean(axis=0)
    auc = float(np.trapezoid(mean_tpr, grid))
    fprs = np.array([r[2] for r in per_rep], dtype=float)
    fnrs = np.array([r[3] for r in per_rep], dtype=float)
    mses = [r[4] for r in per_rep if r[4] is not None]
    roc = np.column_stack([grid, mean_tpr])
    with np.errstate(invalid="ignore"):
        fpr_mean = float(np.nanmean(fprs)) if np.any(np.isfinite(fprs)) else float("nan")
        fnr_mean = float(np.nanmean(fnrs)) if np.any(np.isfinite(fnrs)) else float("nan")
    return RecoverySummary(
        auc=auc,
        roc=roc,
        fpr_at_alpha=fpr_mean,
        fnr_at_alpha=fnr_mean,
        n_reps=n_reps,
        seeds=tuple(seeds),
        param_mse=float(np.mean(mses)) if mses else None,
        fpr_reps=tuple(float(v) for v in fprs),
        fnr_reps=tuple(float(v) for v in fnrs),
    )


def recovery_experiment(gen, n_reps, N, alpha=0.001, correction="bonferroni", seed=0,
                        family=Family.FULL, mode="full"):
    """Model-based structure recovery: fit, score edges by the block test
    statistic, sweep thresholds for the ROC, and apply the (alpha,
    correction) rule for FPR/FNR. Replicate seeds are spawned from ``seed``.
    """
    if n_reps < 1:
        raise DomainError("need at least one replicate")
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n_reps)]
    per_rep = []
    for rep, rep_seed in enumerate(seeds):
        try:
            X, truth, true_params = gen.generate(N, rep_seed)
            fit = fit_closed_form(X, family=family)
            cov = asymptotic_cov(X, fit.params, moments=fit.moments)
            pairs = edge_list(truth.d)
            tests = [edge_test(fit, cov, j, k, mode=mode) for j, k in pairs]
        except Exception as exc:
            add_context(exc, f"replicate {rep} (seed {rep_seed})")
            raise
        scores = [t.x2 for t in tests]
        pvals = [t.p for t in tests]
        fpr_pts, tpr_pts = _roc_points(scores, truth, pairs)
        fpr, fnr = _decision_rates(pvals, truth, pairs, alpha, correction)
        mse = None
        if true_params is not None:
            diff = fit.params.phi - true_params.phi
            mse = float(np.mean(diff**2))
        per_rep.append((fpr_pts, tpr_pts, fpr, fnr, mse))
    return _summarize(per_rep, seeds, n_reps)


def plv_recovery_experiment(gen, n_reps, N, alpha=0.001, correction="bonferroni", seed=0):
    """Pairwise baseline: score each pair by the Rayleigh statistic of the
    wrapped phase differences and decide edges by the Rayleigh test."""
    if n_reps < 1:
        raise DomainError("need at least one replicate")
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n_reps)]
    per_rep = []
    for rep, rep_seed in enumerate(seeds):
        try:
            X, truth, _ = gen.generate(N, rep_seed)
            pairs = edge_list(truth.d)
            diffs = [wrap_angle(X[:, j] - X[:, k]) for j, k in pairs]
            scores = [rayleigh_statistic(w) for w in diffs]
            pvals = [rayleigh_test(w) for w in diffs]
        except Exception as exc:
            add_context(exc, f"replicate {rep} (seed {rep_seed})")
            raise
        fpr_pts, tpr_pts = _roc_points(scores, truth, pairs)
        fpr, fnr = _decision_rates(pvals, truth, pairs, alpha, correction)
        per_rep.append((fpr_pts, tpr_pts, fpr, fnr, None))
    return _summarize(per_rep, seeds, n_reps)


GENERATORS = {
    "chain": GeneratorSpec(kind="chain", options={
        "d": 4, "xi": np.pi / 100, "kappa1": 0.01, "kappa_eps": 40.0, "contam": (15, 0.1)}),
    "indirect-triple": GeneratorSpec(kind="indirect-triple"),
    "uniform-null": GeneratorSpec(kind="uniform-null", options={"d": 4}),
    "random": GeneratorSpec(kind="random", options={
        "d": 4, "edge_density": 0.5, "coupling_scale": 1.0, "gibbs": {"burn_in": 200}}),
}
FAMILY_MODES = [(Family.FULL, "full"), (Family.UNIFORM_PHASE_DIFF, "rot")]
N_REPS, N, SEED = 3, 300, 41


def assert_same_summary(new, old):
    assert new.auc == old.auc
    assert np.array_equal(new.roc, old.roc)
    for name in ("fpr_reps", "fnr_reps", "fpr_at_alpha", "fnr_at_alpha"):
        assert np.array_equal(getattr(new, name), getattr(old, name), equal_nan=True), name
    assert new.seeds == old.seeds
    assert new.n_reps == old.n_reps
    assert new.param_mse == old.param_mse


class Replay:
    """A generator whose ``generate(N, seed)`` returns the given replicate
    with that seed."""

    def __init__(self, replicates):
        self.by_seed = {r.seed: r for r in replicates}

    def generate(self, N, seed):
        r = self.by_seed[seed]
        assert r.angles.shape[0] == N
        return r.angles, r.truth, r.params


@pytest.fixture(scope="module")
def replicates():
    return {kind: draw_replicates(gen, n_reps=N_REPS, N=N, seed=SEED)
            for kind, gen in GENERATORS.items()}


def oracle_generator(kind, replicates):
    return Replay(replicates[kind]) if kind == "random" else GENERATORS[kind]


@pytest.mark.parametrize("family,mode", FAMILY_MODES, ids=["full-full", "uniform-phasediff-rot"])
@pytest.mark.parametrize("correction", ["none", "bonferroni"])
@pytest.mark.parametrize("kind", list(GENERATORS))
def test_recovery_matches_oracle(replicates, kind, correction, family, mode):
    new = simulation.recovery_experiment(replicates[kind], alpha=0.05, correction=correction,
                                         family=family, mode=mode)
    old = recovery_experiment(oracle_generator(kind, replicates), n_reps=N_REPS, N=N,
                              alpha=0.05, correction=correction, seed=SEED, family=family,
                              mode=mode)
    assert_same_summary(new, old)
    assert (new.param_mse is not None) == (kind == "random")


@pytest.mark.parametrize("correction", ["none", "bonferroni"])
@pytest.mark.parametrize("kind", list(GENERATORS))
def test_plv_matches_oracle(replicates, kind, correction):
    new = simulation.plv_recovery_experiment(replicates[kind], alpha=0.05, correction=correction)
    old = plv_recovery_experiment(oracle_generator(kind, replicates), n_reps=N_REPS, N=N,
                                  alpha=0.05, correction=correction, seed=SEED)
    assert_same_summary(new, old)


STAIRCASES = {
    "tied-scores": ([2.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.0], [1, 0, 1, 1, 0, 1, 0]),
    "all-tied": ([3.0] * 5, [1, 0, 0, 1, 0]),
    "all-positive": ([0.3, 0.1, 0.1, 0.9], [1, 1, 1, 1]),
    "all-negative": ([0.3, 0.1, 0.1, 0.9], [0, 0, 0, 0]),
    "single": ([1.0], [1]),
}


def assert_same_staircase(scores, labels):
    fpr, tpr = simulation._roc_points(scores, np.asarray(labels, dtype=bool))
    grid = np.linspace(0.0, 1.0, FPR_GRID_SIZE)
    assert np.array_equal(simulation._interp_roc(fpr, tpr, grid), _interp_roc(fpr, tpr, grid))


@pytest.mark.parametrize("scores,labels", list(STAIRCASES.values()), ids=list(STAIRCASES))
def test_staircase_matches_oracle(scores, labels):
    assert_same_staircase(scores, labels)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 4), st.booleans()), min_size=1, max_size=40))
def test_staircase_matches_oracle_on_random_sweeps(points):
    # scores from a few values, so ties are common
    scores, labels = zip(*points)
    assert_same_staircase([float(s) for s in scores], labels)
