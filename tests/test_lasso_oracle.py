"""Agreement of the group-lasso solver and its cross-validation with the
versions they replace.

``fit_group_lasso`` and ``select_lambda_cv`` below are the package's former
solver and CV loop, kept verbatim as the oracle: one eigvalsh per solve and
four products with Gamma per accelerated step. The package builds each
training fold's system and step size once and makes two products per step.
Its iterates are the oracle's bit for bit until a backtracking or restart
test is decided by rounding of the smooth part (the 1e-15 slack is below
one ulp of a loss near 100); from there each solver stops at its own point
within the stopping tolerance. So the penalty weight and the support must be the same,
coefficients within 1e-5, and held-out losses within 1e-6 absolute plus
1e-7 relative: ten times the CV solve's relative tolerance of 1e-8.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgraphs import estimation
from torusgraphs.estimation import (
    FitResult,
    ScoreMatchingMoments,
    _active_indices,
    _block_norms,
    _group_soft_threshold,
    _penalized_blocks,
    accumulate_moments,
    sm_objective,
)
from torusgraphs.exceptions import ConvergenceError, DomainError
from torusgraphs.model import Family, TorusGraphParams, coupling_slice, edge_list, param_dim
from torusgraphs.sampling import GibbsConfig, gibbs_sample
from torusgraphs.simulation import gen_chain

PHI_ATOL = 1e-5
LOSS_ATOL = 1e-6
LOSS_RTOL = 1e-7
# the penalty grids of the d=5 chain tests in test_estimation.py
LAMBDAS = (0.0, *np.geomspace(1e-3, 2.0, 8), *np.geomspace(2e-3, 0.5, 5))


def fit_group_lasso(
    data,
    family=Family.FULL,
    lam=0.0,
    max_iter=20000,
    tol=1e-9,
    zero_edges=None,
    moments=None,
):
    """Group-penalized score matching: adds lam * sum over edges of the
    coupling-block 2-norm (marginal blocks unpenalized).

    Accelerated proximal gradient (group soft-thresholding, backtracking
    line search, momentum restarted on objective increase); converged when
    the relative objective change drops below ``tol`` and no coordinate
    moves more than 1e-8.
    """
    if lam < 0:
        raise DomainError("penalty weight must be >= 0")
    if moments is None:
        moments = accumulate_moments(data)
    d = moments.d
    family = Family(family)
    idx = _active_indices(d, family, zero_edges)
    G = moments.gamma_hat[np.ix_(idx, idx)]
    b = moments.h_hat[idx]
    blocks = _penalized_blocks(d, idx)

    def smooth(v):
        return float(0.5 * v @ G @ v - v @ b)

    def objective(v):
        return smooth(v) + lam * float(_block_norms(v, blocks).sum())

    # accelerated proximal gradient with function-value restart; the momentum
    # sequence is reset whenever the objective rises, which keeps the method
    # monotone on these often very ill-conditioned quadratics
    phi = np.zeros(idx.size)
    y = phi.copy()
    t = 1.0
    lipschitz = float(np.linalg.eigvalsh(G)[-1]) if idx.size else 1.0
    step = 1.0 / max(lipschitz, 1e-12)
    obj = objective(phi)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        grad = G @ y - b
        smooth_y = smooth(y)
        while True:
            cand = _group_soft_threshold(y - step * grad, blocks, lam * step)
            delta = cand - y
            if smooth(cand) <= smooth_y + grad @ delta + (delta @ delta) / (2 * step) + 1e-15:
                break
            step *= 0.5
            if step < 1e-18:
                raise ConvergenceError("backtracking line search underflow")
        new_obj = objective(cand)
        if new_obj > obj and t > 1.0:
            # momentum overshoot: restart from the last accepted point (a
            # pure gradient step cannot increase the objective, so this
            # cannot cycle)
            y = phi.copy()
            t = 1.0
            continue
        max_move = float(np.max(np.abs(cand - phi))) if cand.size else 0.0
        converged = abs(obj - new_obj) <= tol * max(1.0, abs(obj)) and max_move < 1e-8
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = cand + ((t - 1.0) / t_next) * (cand - phi)
        t = t_next
        phi = cand
        obj = new_obj
        if converged:
            break
    else:
        raise ConvergenceError(
            f"group-lasso solver did not converge in {max_iter} iterations "
            f"(last residual {float(np.max(np.abs(G @ phi - b))):.3g})"
        )
    full = np.zeros(param_dim(d))
    full[idx] = phi
    params = TorusGraphParams(d=d, phi=full, family=family)
    residual = float(np.max(np.abs(G @ phi - b))) if idx.size else 0.0
    return FitResult(
        params=params,
        moments=moments,
        method="group_lasso",
        residual_norm=residual,
        lam=float(lam),
        n_iter=n_iter,
    )


def select_lambda_cv(data, family=Family.FULL, folds=5, grid=None, seed=0, zero_edges=None, tol=1e-8):
    """Pick the penalty weight by k-fold cross-validation.

    The validation loss is the held-out score-matching objective: each fold's
    moments are accumulated once, the model is trained on the remaining
    folds' pooled moments, and the trained coefficients are scored with the
    held-out moments. Returns (best lambda, table of (lambda, mean loss)).
    """
    X = np.atleast_2d(np.asarray(data, dtype=float))
    n = X.shape[0]
    if folds < 2:
        raise DomainError("need at least 2 folds")
    if grid is None or len(grid) == 0:
        raise DomainError("need a nonempty lambda grid")
    if n < 2 * folds:
        raise DomainError(f"fold size too small: {n} samples across {folds} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    fold_ids = np.array_split(order, folds)
    fold_moments = [accumulate_moments(X[ids]) for ids in fold_ids]
    losses = np.zeros((len(grid), folds))
    for f in range(folds):
        held = fold_moments[f]
        n_train = n - held.n
        g_train = sum(fm.gamma_hat * fm.n for i, fm in enumerate(fold_moments) if i != f) / n_train
        h_train = sum(fm.h_hat * fm.n for i, fm in enumerate(fold_moments) if i != f) / n_train
        train = ScoreMatchingMoments(gamma_hat=g_train, h_hat=h_train, n=n_train)
        for gi, lam in enumerate(grid):
            fit = fit_group_lasso(
                None, family=family, lam=lam, zero_edges=zero_edges, moments=train, tol=tol
            )
            losses[gi, f] = sm_objective(fit.params.phi, held)
    mean_loss = losses.mean(axis=1)
    best = int(np.argmin(mean_loss))
    table = [(float(lam), float(loss)) for lam, loss in zip(grid, mean_loss)]
    return float(grid[best]), table


def coupled_sample(d, n, seed):
    """n Gibbs draws from a model with O(1) marginal and coupling blocks."""
    rng = np.random.default_rng(seed)
    params = TorusGraphParams(d=d, phi=rng.normal(scale=0.5, size=param_dim(d)))
    return gibbs_sample(params, GibbsConfig(n_samples=n, burn_in=100, seed=seed))


def support(phi, d):
    return {(j, k) for j, k in edge_list(d) if np.any(phi[coupling_slice(d, j, k)] != 0.0)}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_fit_matches_oracle(data):
    d = data.draw(st.integers(1, 6), label="d")
    n = data.draw(st.integers(5 * param_dim(d), 600), label="n")
    family = data.draw(st.sampled_from(list(Family)), label="family")
    edges = edge_list(d)
    zero_edges = []
    if edges:
        zero_edges = data.draw(st.lists(st.sampled_from(edges), unique=True), label="zero_edges")
    lam = data.draw(st.sampled_from(LAMBDAS), label="lam")
    X = coupled_sample(d, n, seed=data.draw(st.integers(0, 2**32 - 1), label="seed"))
    moments = accumulate_moments(X)
    new = estimation.fit_group_lasso(None, family=family, lam=lam, zero_edges=zero_edges,
                                     moments=moments)
    ref = fit_group_lasso(None, family=family, lam=lam, zero_edges=zero_edges, moments=moments)
    assert support(new.params.phi, d) == support(ref.params.phi, d)
    np.testing.assert_allclose(new.params.phi, ref.params.phi, rtol=0, atol=PHI_ATOL)


def _assert_same_selection(X, folds, grid, seed):
    lam, table = estimation.select_lambda_cv(X, folds=folds, grid=grid, seed=seed)
    ref_lam, ref_table = select_lambda_cv(X, folds=folds, grid=grid, seed=seed)
    assert lam == ref_lam
    assert [g for g, _ in table] == [g for g, _ in ref_table]
    np.testing.assert_allclose([v for _, v in table], [v for _, v in ref_table],
                               rtol=LOSS_RTOL, atol=LOSS_ATOL)


def test_cv_single_candidate_matches_oracle():
    X = np.random.default_rng(54).uniform(0, 2 * np.pi, size=(200, 3))
    _assert_same_selection(X, folds=2, grid=[0.37], seed=0)


@pytest.mark.parametrize("seed", range(50))
def test_cv_noise_matches_oracle(seed):
    X = np.random.default_rng(1000 + seed).uniform(0, 2 * np.pi, size=(300, 4))
    _assert_same_selection(X, folds=3, grid=[0.01, 0.1, 1.0], seed=seed)


@pytest.mark.parametrize("seed", range(50))
def test_cv_chain_matches_oracle(seed):
    X, _ = gen_chain(N=840, d=5, xi=np.pi / 100, kappa1=0.01, kappa_eps=40.0,
                     contam=(15, 0.1), seed=2000 + seed)
    _assert_same_selection(X, folds=3, grid=np.geomspace(2e-3, 0.5, 5), seed=seed)
