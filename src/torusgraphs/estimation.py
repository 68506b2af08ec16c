"""Score-matching estimation.

Matching the gradient of the model log-density to the data log-density
gradient turns estimation into a quadratic program: with D(x) the Jacobian of
the sufficient statistics, Gamma(x) = D D^T and H(x) = [S1, 2 S2], the
empirical objective is (1/2) phi' Gamma_hat phi - phi' H_hat, so the
unpenalized estimate solves the linear system Gamma_hat phi = H_hat. No
normalization constant is ever needed, which is the whole point: the
likelihood's normalizer is intractable here.

D is never built densely for a batch. Column l of D is a signed gather of
the statistics themselves (:func:`torusgraphs.model._derivative_table`): only
the 4d - 2 coordinates touching node l are nonzero, so Gamma_hat is a sum over
nodes of (4d - 2)-square Gram blocks A_l' A_l scattered onto those
coordinates, O(N d^3) work.

Affine submodels are handled by index deletion (rows/columns of masked
coordinates are dropped and the solution re-embedded with exact zeros). The
sparse variant adds a group penalty on each coupling block, solved by
proximal gradient with group soft-thresholding and backtracking.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .exceptions import ConvergenceError, DomainError, SingularMomentsError
from .model import (
    Family,
    TorusGraphParams,
    _derivative_table,
    coupling_slice,
    edge_list,
    family_mask,
    param_dim,
    suff_stats_batch,
)

_CHUNK = 256
_COND_LIMIT = 1e12
_LASSO_MAX_ITER = 20000


def jacobian_D(x):
    """Jacobian of the sufficient statistics: (2d^2, d), entry (i, l) is
    the partial derivative of statistic i with respect to angle l."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise DomainError("x must be a 1-D angle vector")
    d = x.size
    idx, src, sign = _derivative_table(d)
    D = np.zeros((param_dim(d), d))
    D[idx, np.arange(d)[:, None]] = sign * suff_stats_batch(x)[0][src]
    return D


def _h_rows(S, d):
    """H(x) = [S1, 2 S2] from statistic rows S -> same shape (a copy)."""
    H = S.copy()
    H[:, 2 * d :] *= 2.0
    return H


def _stat_chunks(X):
    """Statistics of fixed-size row blocks of X (a fixed summation order)."""
    for start in range(0, X.shape[0], _CHUNK):
        yield suff_stats_batch(X[start : start + _CHUNK])


def gamma_H_of_sample(x):
    """Per-sample moment contributions Gamma(x) = D D^T and H(x) = [S1, 2 S2]."""
    x = np.asarray(x, dtype=float)
    D = jacobian_D(x)
    return D @ D.T, _h_rows(suff_stats_batch(x), x.size)[0]


@dataclass(frozen=True)
class ScoreMatchingMoments:
    """Empirical moments: gamma_hat (2d^2 x 2d^2, symmetric PSD), h_hat (2d^2),
    and the sample count they average over."""

    gamma_hat: np.ndarray
    h_hat: np.ndarray
    n: int

    def __post_init__(self):
        g = np.array(self.gamma_hat, dtype=float)
        h = np.array(self.h_hat, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or h.shape != (g.shape[0],):
            raise DomainError("inconsistent moment shapes")
        d = int(round(np.sqrt(g.shape[0] / 2)))
        if param_dim(d) != g.shape[0]:
            raise DomainError(f"moment dimension {g.shape[0]} is not 2*d^2 for any d")
        g.flags.writeable = False
        h.flags.writeable = False
        object.__setattr__(self, "gamma_hat", g)
        object.__setattr__(self, "h_hat", h)

    @property
    def d(self):
        return int(round(np.sqrt(self.gamma_hat.shape[0] / 2)))


def _pairwise_reduce(blocks):
    """Tree-sum an iterable of equal-shape arrays (controlled rounding).

    The blocks are consumed lazily and summed in place: a binary-counter
    carry stack merges two partial sums of 2^j blocks as soon as both exist,
    and what is left is folded from the lowest level up. That is the tree of
    pairing neighbours level by level, with at most floor(log2 k) + 1
    partial sums alive for k blocks.
    """
    stack = []  # (level, partial sum of 2^level blocks), levels decreasing
    for block in blocks:
        level = 0
        while stack and stack[-1][0] == level:
            left = stack.pop()[1]
            left += block
            block = left
            level += 1
        stack.append((level, block))
    total = stack.pop()[1]
    while stack:
        left = stack.pop()[1]
        left += total
        total = left
    return total


def accumulate_moments(data):
    """Average Gamma(x) and H(x) over the rows of an (N, d) angle matrix.

    Per chunk of rows, each node's Gram block A_l' A_l is added onto its
    4d - 2 coordinates; chunk sums are combined by a pairwise reduction as
    they are made, so the result is deterministic and order-stable to ~1e-10
    even for large N*d.
    """
    X = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = X.shape
    if n < 1:
        raise DomainError("need at least one sample")
    m = param_dim(d)
    table = _derivative_table(d)
    h_parts = []

    def grams():
        for S in _stat_chunks(X):
            g = np.zeros((m, m))
            for coords, src, sign in zip(*table):
                A = S[:, src] * sign  # dS[:, coords] / dx_l, all rows of the chunk
                g[np.ix_(coords, coords)] += A.T @ A
            h_parts.append(_h_rows(S, d).sum(axis=0))
            yield g

    gamma = _pairwise_reduce(grams()) / n
    gamma = 0.5 * (gamma + gamma.T)
    h = _pairwise_reduce(h_parts) / n
    return ScoreMatchingMoments(gamma_hat=gamma, h_hat=h, n=n)


def sm_objective(phi, moments):
    """Empirical score-matching objective (1/2) phi' Gamma phi - phi' H."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != moments.h_hat.shape:
        raise DomainError("phi does not match the moment dimension")
    return float(0.5 * phi @ moments.gamma_hat @ phi - phi @ moments.h_hat)


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients plus the moments and solver metadata behind them."""

    params: TorusGraphParams
    moments: ScoreMatchingMoments
    method: str
    residual_norm: float
    lam: Optional[float] = None
    n_iter: Optional[int] = None

    @property
    def n(self):
        return self.moments.n


def _active_indices(d, family, zero_edges=None):
    active = family_mask(d, family)
    if zero_edges:
        for j, k in zero_edges:
            active[coupling_slice(d, j, k)] = False
    return np.nonzero(active)[0]


def _checked_cholesky(G, n, m_total):
    """Cholesky factor (for scipy.linalg.cho_solve) of a moment block, with a
    1-norm condition estimate guard.

    G is factored where it lies and is overwritten: callers pass a fresh copy
    of an exactly symmetric block, whose transpose is the Fortran-ordered
    array LAPACK works on.
    """
    anorm = scipy.linalg.lapack.dlange("1", G.T) if G.size else 0.0
    try:
        cho = scipy.linalg.cho_factor(G.T, lower=True, overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMomentsError(
            f"moment matrix is singular: N={n} samples for {m_total} coefficients "
            f"(need N well above 2d)"
        ) from exc
    if G.size == 0:
        return cho
    rcond, info = scipy.linalg.lapack.dpocon(cho[0], anorm, uplo="L")
    if info != 0 or rcond <= 0 or 1.0 / rcond > _COND_LIMIT:
        cond = np.inf if rcond <= 0 else 1.0 / rcond
        raise SingularMomentsError(
            f"moment matrix too ill-conditioned (condition estimate {cond:.3g}): "
            f"N={n} samples for {m_total} coefficients"
        )
    return cho


def fit_closed_form(data, family=Family.FULL, zero_edges=None, moments=None):
    """Solve the estimating equation on the family's active coordinate set.

    Masked coordinates are removed from the system (exact affine restriction)
    and re-embedded as zeros. Raises SingularMomentsError when the active
    moment block is singular or its condition estimate exceeds 1e12.
    """
    if moments is None:
        moments = accumulate_moments(data)
    d = moments.d
    family = Family(family)
    idx = _active_indices(d, family, zero_edges)
    G = moments.gamma_hat[np.ix_(idx, idx)]
    b = moments.h_hat[idx]
    cho = _checked_cholesky(G, moments.n, param_dim(d))
    phi = np.zeros(param_dim(d))
    phi[idx] = scipy.linalg.cho_solve(cho, b, check_finite=False)
    residual = float(np.max(np.abs((moments.gamma_hat @ phi)[idx] - b))) if idx.size else 0.0
    params = TorusGraphParams(d=d, phi=phi, family=family)
    return FitResult(params=params, moments=moments, method="closed_form", residual_norm=residual)


def _penalized_blocks(d, idx):
    """Active-coordinate positions of each coupling block as an (E, size)
    index matrix for the penalty (block size is uniform within a family)."""
    pos = -np.ones(param_dim(d), dtype=int)
    pos[idx] = np.arange(idx.size)
    blocks = []
    for j, k in edge_list(d):
        sl = coupling_slice(d, j, k)
        p = pos[sl.start : sl.stop]
        p = p[p >= 0]
        if p.size:
            blocks.append(p)
    if not blocks:
        return np.zeros((0, 0), dtype=int)
    return np.vstack(blocks)


def _block_norms(phi, blocks):
    if blocks.size == 0:
        return np.zeros(0)
    return np.linalg.norm(phi[blocks], axis=1)


def _group_soft_threshold(phi, blocks, shrink):
    if blocks.size == 0:
        return phi
    vals = phi[blocks]
    norms = np.linalg.norm(vals, axis=1)
    scale = np.where(norms > shrink, 1.0 - shrink / np.where(norms > 0, norms, 1.0), 0.0)
    phi[blocks] = vals * scale[:, None]
    return phi


def _check_penalty(lam):
    lam = float(lam)
    if not (np.isfinite(lam) and lam >= 0):
        raise DomainError(f"penalty weight must be finite and >= 0, got {lam!r}")
    return lam


def _lasso_system(moments, family, zero_edges):
    """The penalized problem on the family's active coordinates: their
    indices, the Gamma block and H restricted to them, the penalty blocks and
    the initial step 1 / lambda_max(Gamma block). The step depends on the
    moments only, so one eigvalsh serves every penalty weight."""
    d = moments.d
    idx = _active_indices(d, family, zero_edges)
    G = moments.gamma_hat[np.ix_(idx, idx)]
    b = moments.h_hat[idx]
    lipschitz = float(np.linalg.eigvalsh(G)[-1]) if idx.size else 1.0
    return idx, G, b, _penalized_blocks(d, idx), 1.0 / max(lipschitz, 1e-12)


def _fista(G, b, blocks, lam, step, tol, max_iter):
    """Minimise (1/2) v'Gv - v'b + lam * sum of block 2-norms from v = 0.

    Accelerated proximal gradient with function-value restart: the momentum
    sequence is reset whenever the objective rises, which keeps the method
    monotone on these often very ill-conditioned quadratics. Each step makes
    two products with G: G y gives the gradient and the smooth part at y, and
    G cand, one per backtracking trial, gives the smooth part at the
    candidate, which the objective reuses. Both are fresh products of the
    same kind because the backtracking test compares the two smooth parts
    with a 1e-15 slack, which the rounding of a G y carried by recurrence
    exceeds. Returns (v, iterations).
    """

    def smooth(v, Gv):
        return float(0.5 * (Gv @ v) - v @ b)

    phi = np.zeros(b.size)
    y = phi.copy()
    t = 1.0
    obj = 0.0  # the objective at v = 0
    for n_iter in range(1, max_iter + 1):
        Gy = G @ y
        grad = Gy - b
        smooth_y = smooth(y, Gy)
        while True:
            cand = _group_soft_threshold(y - step * grad, blocks, lam * step)
            smooth_cand = smooth(cand, G @ cand)
            delta = cand - y
            if smooth_cand <= smooth_y + grad @ delta + (delta @ delta) / (2 * step) + 1e-15:
                break
            step *= 0.5
            if step < 1e-18:
                raise ConvergenceError("backtracking line search underflow")
        new_obj = smooth_cand + lam * float(_block_norms(cand, blocks).sum())
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
            return phi, n_iter
    raise ConvergenceError(
        f"group-lasso solver did not converge in {max_iter} iterations "
        f"(last residual {float(np.max(np.abs(G @ phi - b))):.3g})"
    )


def fit_group_lasso(
    data,
    family=Family.FULL,
    lam=0.0,
    max_iter=_LASSO_MAX_ITER,
    tol=1e-9,
    zero_edges=None,
    moments=None,
):
    """Group-penalized score matching: adds lam * sum over edges of the
    coupling-block 2-norm (marginal blocks unpenalized).

    Accelerated proximal gradient (group soft-thresholding, backtracking
    line search, momentum restarted on objective increase); converged when
    the relative objective change drops below ``tol`` and no coordinate
    moves more than 1e-8. ``lam`` must be finite and >= 0 (DomainError).
    """
    lam = _check_penalty(lam)
    if moments is None:
        moments = accumulate_moments(data)
    d = moments.d
    family = Family(family)
    idx, G, b, blocks, step = _lasso_system(moments, family, zero_edges)
    phi, n_iter = _fista(G, b, blocks, lam, step, tol, max_iter)
    full = np.zeros(param_dim(d))
    full[idx] = phi
    params = TorusGraphParams(d=d, phi=full, family=family)
    residual = float(np.max(np.abs(G @ phi - b))) if idx.size else 0.0
    return FitResult(
        params=params,
        moments=moments,
        method="group_lasso",
        residual_norm=residual,
        lam=lam,
        n_iter=n_iter,
    )


def select_lambda_cv(data, family=Family.FULL, folds=5, grid=None, seed=0, zero_edges=None, tol=1e-8):
    """Pick the penalty weight by k-fold cross-validation.

    The validation loss is the held-out score-matching objective: each fold's
    moments are accumulated once, the model is trained on the remaining
    folds' pooled moments, and the trained coefficients are scored with the
    held-out moments. Each training fold's penalized system and step size
    are built once and shared by every weight in ``grid``, whose entries must
    all be finite and >= 0. Returns (best lambda, table of (lambda, mean
    loss)).
    """
    X = np.atleast_2d(np.asarray(data, dtype=float))
    n = X.shape[0]
    if folds < 2:
        raise DomainError("need at least 2 folds")
    if grid is None or len(grid) == 0:
        raise DomainError("need a nonempty lambda grid")
    if n < 2 * folds:
        raise DomainError(f"fold size too small: {n} samples across {folds} folds")
    lams = [_check_penalty(lam) for lam in grid]
    family = Family(family)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    fold_ids = np.array_split(order, folds)
    fold_moments = [accumulate_moments(X[ids]) for ids in fold_ids]
    losses = np.zeros((len(lams), folds))
    phi = np.zeros(param_dim(X.shape[1]))
    for f in range(folds):
        held = fold_moments[f]
        n_train = n - held.n
        g_train = sum(fm.gamma_hat * fm.n for i, fm in enumerate(fold_moments) if i != f) / n_train
        h_train = sum(fm.h_hat * fm.n for i, fm in enumerate(fold_moments) if i != f) / n_train
        train = ScoreMatchingMoments(gamma_hat=g_train, h_hat=h_train, n=n_train)
        idx, G, b, blocks, step = _lasso_system(train, family, zero_edges)
        for gi, lam in enumerate(lams):
            phi[idx] = _fista(G, b, blocks, lam, step, tol, _LASSO_MAX_ITER)[0]
            losses[gi, f] = sm_objective(phi, held)
    mean_loss = losses.mean(axis=1)
    best = int(np.argmin(mean_loss))
    table = [(lam, float(loss)) for lam, loss in zip(lams, mean_loss)]
    return lams[best], table
