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
nodes of (4d - 2)-square Gram blocks B_l = A_l' A_l / N placed on those
coordinates, O(N d^3) work. The moments keep the d blocks, not the 2d^2-square
Gamma_hat: a product with Gamma_hat, or with its restriction to a fit's active
coordinates, is one batched product over the blocks (:class:`GammaOperator`),
O(d^3). The closed-form fit solves Gamma_hat phi = H_hat by conjugate
gradients through those products, with a condition guard read off the
Lanczos tridiagonal that CG's coefficients form, and the group lasso works
through products alone. The only dense Gamma the package builds is the
active block that the sandwich covariance factors, made fresh where it is
factored. One walk over the data
(:func:`_derivative_walk`) feeds each node's derivative rows both to the Gram
blocks and to the sandwich covariance's residual rows, so a test reads each
data row once.

Affine submodels are handled by index deletion (rows/columns of masked
coordinates are dropped and the solution re-embedded with exact zeros). The
sparse variant adds a group penalty on each coupling block, solved by
proximal gradient with group soft-thresholding and backtracking, from a
step size set by the largest eigenvalue of the active Gamma, which ARPACK's
Lanczos iteration finds from products with the operator.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .exceptions import ConvergenceError, DomainError, SingularMomentsError
from .model import (
    Family,
    TorusGraphParams,
    _derivative_table,
    coupling_coords,
    edge_rank,
    family_mask,
    param_dim,
    suff_stats_batch,
)

_CHUNK = 256
_COND_LIMIT = 1e12
_CG_RTOL = 1e-14
_LASSO_MAX_ITER = 20000


@dataclass(frozen=True)
class GammaOperator:
    """Gamma_hat on a set of m coordinates, applied through the node blocks.

    ``G @ v`` for a length-m vector v is sum_l P_l' B_l P_l v, one batched
    product over the blocks, O(d^3) work with no m-square array. ``blocks``
    is (d, w, w) and ``position`` (d, w): node l's block restricted to its
    coordinates in the set, and their places in v. A node with fewer than w
    of them is padded with zero rows and columns at position 0, which add
    nothing.
    """

    blocks: np.ndarray
    position: np.ndarray
    size: int

    @property
    def shape(self):
        return (self.size, self.size)

    def __matmul__(self, v):
        out = np.matmul(self.blocks, v[self.position][:, :, None])
        return np.bincount(self.position.ravel(), weights=out.ravel(), minlength=self.size)


@dataclass(frozen=True)
class ScoreMatchingMoments:
    """Empirical moments, held by node.

    ``blocks`` is (d, 4d - 2, 4d - 2): block l is B_l = A_l' A_l / n, the Gram
    matrix of the derivatives with respect to x_l of the 4d - 2 statistics
    that depend on it (their coordinates are row l of
    ``model._derivative_table(d)[0]``). Gamma_hat is the sum of the blocks
    placed on those coordinates; it is applied by :meth:`gamma_dot`, applied
    on a coordinate subset by :meth:`gamma_operator` and assembled on one by
    :meth:`gamma_block`. ``h_hat`` is
    (2d^2,), and ``n`` the sample count the moments average over.
    """

    blocks: np.ndarray
    h_hat: np.ndarray
    n: int

    def __post_init__(self):
        b = np.array(self.blocks, dtype=float)
        h = np.array(self.h_hat, dtype=float)
        d = b.shape[0] if b.ndim == 3 else 0
        if d < 1 or b.shape[1:] != (4 * d - 2, 4 * d - 2) or h.shape != (param_dim(d),):
            raise DomainError("inconsistent moment shapes")
        b.flags.writeable = False
        h.flags.writeable = False
        object.__setattr__(self, "blocks", b)
        object.__setattr__(self, "h_hat", h)

    @property
    def d(self):
        return self.blocks.shape[0]

    def gamma_dot(self, v):
        """Gamma_hat @ v for a vector over all 2d^2 coordinates."""
        v = np.asarray(v, dtype=float)
        if v.shape != self.h_hat.shape:
            raise DomainError("vector does not match the moment dimension")
        return self.gamma_operator(np.arange(v.size)) @ v

    def gamma_operator(self, coords):
        """Gamma_hat restricted to ``coords`` (distinct coordinates) as a
        :class:`GammaOperator`. The blocks are shared when every coordinate of
        every block is in the set, and otherwise gathered once here."""
        coords = np.asarray(coords, dtype=int)
        table = _positions(self.h_hat.size, coords)[_derivative_table(self.d)[0]]
        kept = table >= 0
        if kept.all():
            return GammaOperator(self.blocks, table, coords.size)
        # each node's kept columns first, in their order, then the padding
        order = np.argsort(~kept, axis=1, kind="stable")[:, : kept.sum(axis=1).max()]
        valid = np.take_along_axis(kept, order, axis=1)
        nodes = np.arange(self.d)[:, None, None]
        blocks = self.blocks[nodes, order[:, :, None], order[:, None, :]]
        blocks *= valid[:, :, None] & valid[:, None, :]
        position = np.where(valid, np.take_along_axis(table, order, axis=1), 0)
        return GammaOperator(blocks, position, coords.size)

    def gamma_block(self, coords):
        """Gamma_hat restricted to ``coords`` (distinct coordinates), as a new
        C-ordered array. Each block is added in node order onto both
        triangles, so the result is exactly symmetric and may be factored in
        place."""
        coords = np.asarray(coords, dtype=int)
        pos = _positions(self.h_hat.size, coords)
        G = np.zeros((coords.size, coords.size))
        for node_coords, B in zip(_derivative_table(self.d)[0], self.blocks):
            p = pos[node_coords]
            keep = np.nonzero(p >= 0)[0]
            if keep.size:
                G[np.ix_(p[keep], p[keep])] += B[np.ix_(keep, keep)]
        return G


def _positions(size, coords):
    """Place of each of ``size`` coordinates among ``coords`` (distinct
    coordinates), or -1 where it is not one of them."""
    pos = -np.ones(size, dtype=int)
    pos[coords] = np.arange(coords.size)
    return pos


def _pool(parts):
    """Moments of the union of disjoint samples from each sample's moments."""
    n = sum(p.n for p in parts)
    blocks = sum(p.blocks * p.n for p in parts) / n
    h = sum(p.h_hat * p.n for p in parts) / n
    return ScoreMatchingMoments(blocks=blocks, h_hat=h, n=n)


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


def _derivative_walk(X, phi=None, idx=None, moments=None):
    """One pass over the (N, d) angles X in 256-row chunks: per chunk the
    statistics S, then each node's derivative rows A_l = dS[:, coords_l]/dx_l
    (a signed gather of S). A_l makes the Gram block A_l' A_l unless
    ``moments`` are passed and, given ``phi``, its term of the residual rows
    Gamma(x) phi - H(x) on the columns ``idx``. Chunk sums are pairwise
    reduced as they are made (deterministic, order-stable to ~1e-10 for large
    N*d). Returns (moments, residual rows or None)."""
    n, d = X.shape
    if n < 1:
        raise DomainError("need at least one sample")
    coords, src, sign = _derivative_table(d)
    R = None if phi is None else np.empty((n, idx.size))
    h_parts = []

    def chunks():
        for start in range(0, n, _CHUNK):
            S = suff_stats_batch(X[start : start + _CHUNK])
            g = np.empty((d, src.shape[1], src.shape[1])) if moments is None else None
            r = None if phi is None else -S
            if r is not None:
                r[:, 2 * d :] *= 2.0  # -H(x) = -[S1, 2 S2]
            for l in range(d):
                A = S[:, src[l]]
                A *= sign[l]  # dS[:, coords_l] / dx_l, all rows of the chunk
                if g is not None:
                    g[l] = A.T @ A  # a symmetric rank-k product: exactly symmetric
                if r is not None:
                    r[:, coords[l]] += A * (A @ phi[coords[l]])[:, None]
            if g is not None:
                h = S.sum(axis=0)
                h[2 * d :] *= 2.0  # H(x) = [S1, 2 S2]
                h_parts.append(h)
            if r is not None:
                # the indices are in range; mode="raise" would write through a buffer
                np.take(r, idx, axis=1, out=R[start : start + len(S)], mode="clip")
            del S, A, r
            yield g
            del g  # no chunk array stays alive while the next chunk is made

    if moments is not None:
        for _ in chunks():  # the walk for R alone
            pass
        return moments, R
    blocks = _pairwise_reduce(chunks())
    blocks /= n
    h = _pairwise_reduce(h_parts) / n
    return ScoreMatchingMoments(blocks=blocks, h_hat=h, n=n), R


def accumulate_moments(data):
    """Average Gamma(x) and H(x) over the rows of an (N, d) angle matrix
    (:func:`_derivative_walk`); no 2d^2-square array is made."""
    return _derivative_walk(np.atleast_2d(np.asarray(data, dtype=float)))[0]


def sm_objective(phi, moments):
    """Empirical score-matching objective (1/2) phi' Gamma phi - phi' H, with
    phi' Gamma phi = sum over nodes of phi_l' B_l phi_l."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != moments.h_hat.shape:
        raise DomainError("phi does not match the moment dimension")
    v = phi[_derivative_table(moments.d)[0]]
    quad = float(np.sum(v * np.matmul(moments.blocks, v[:, :, None])[:, :, 0]))
    return 0.5 * quad - float(phi @ moments.h_hat)


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
    active[coupling_coords(d)[[edge_rank(d, j, k) for j, k in zero_edges or ()]]] = False
    return np.nonzero(active)[0]


def _equation_residual(moments, phi, idx):
    """max |Gamma_hat phi - H_hat| over the active coordinates ``idx``."""
    r = moments.gamma_dot(phi)[idx] - moments.h_hat[idx]
    return float(np.max(np.abs(r))) if idx.size else 0.0


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
        raise _singular(n, m_total) from exc
    if G.size == 0:
        return cho
    rcond, info = scipy.linalg.lapack.dpocon(cho[0], anorm, uplo="L")
    if info != 0 or rcond <= 0 or 1.0 / rcond > _COND_LIMIT:
        raise _ill_conditioned(np.inf if rcond <= 0 else 1.0 / rcond, n, m_total)
    return cho


def _singular(n, m_total):
    return SingularMomentsError(
        f"moment matrix is singular: N={n} samples for {m_total} coefficients "
        f"(need N well above 2d)"
    )


def _ill_conditioned(cond, n, m_total):
    return SingularMomentsError(
        f"moment matrix too ill-conditioned (condition estimate {cond:.3g}): "
        f"N={n} samples for {m_total} coefficients"
    )


def _ritz_condition(diag, off):
    """Ratio of the extreme eigenvalues of the symmetric tridiagonal matrix
    with diagonal ``diag`` and off-diagonal ``off``."""
    ritz = scipy.linalg.eigvalsh_tridiagonal(diag, off)
    return ritz[-1] / ritz[0] if ritz[0] > 0 else np.inf


def _conjugate_gradient(G, b, n, m_total):
    """Solve G v = b by conjugate gradients from v = 0 (Hestenes & Stiefel
    1952), for an operator G on m coordinates that should be symmetric
    positive definite. Stops at a relative residual of _CG_RTOL. Returns
    (v, steps).

    CG's step lengths alpha_j and residual ratios beta_j are the entries of
    the Lanczos tridiagonal T of G on the Krylov space of b (Golub & Van
    Loan, Matrix Computations, section 11.3): diagonal 1/alpha_j +
    beta_(j-1)/alpha_(j-1), off-diagonal sqrt(beta_(j-1))/alpha_(j-1). T's
    extreme eigenvalues (Ritz values) lie within G's spectrum, so their ratio
    is a lower estimate of G's condition number.

    Raises SingularMomentsError, with the Cholesky guard's messages, when
    - p'Gp is not positive and finite;
    - the Ritz condition estimate exceeds _COND_LIMIT. It is taken once CG
      stops, and each step checks a lower bound on it that costs nothing:
      T's largest diagonal entry times e_1'T^-1 e_1 = b'v / b'b. The bound
      grows with v when G is (nearly) singular, so a diverging solve stops
      before v overflows;
    - CG has not converged after 20 m + 100 steps.
    The guard sees G on the Krylov space of b only, so b = 0 gives v = 0
    unchecked.
    """
    v = np.zeros(b.size)
    r = b.copy()
    p = b.copy()
    rr = rr0 = float(b @ b)
    diag, off = [], []
    carry = top = quad = 0.0
    n_iter = 0
    while rr > _CG_RTOL**2 * rr0:
        if n_iter == 20 * b.size + 100:
            raise _ill_conditioned(_ritz_condition(diag, off[:-1]), n, m_total)
        Gp = G @ p
        pGp = float(p @ Gp)
        if not (math.isfinite(pGp) and pGp > 0):
            raise _singular(n, m_total)
        alpha = rr / pGp
        diag.append(1.0 / alpha + carry)
        top = max(top, diag[-1])
        quad += alpha * rr  # b'v after this step
        if top * quad > _COND_LIMIT * rr0:
            raise _ill_conditioned(top * quad / rr0, n, m_total)
        v += alpha * p
        r -= alpha * Gp
        rr_next = float(r @ r)
        beta = rr_next / rr
        carry = beta / alpha
        off.append(math.sqrt(beta) / alpha)
        p *= beta
        p += r
        rr = rr_next
        n_iter += 1
    if diag:
        cond = _ritz_condition(diag, off[:-1])
        if cond > _COND_LIMIT:
            raise _ill_conditioned(cond, n, m_total)
    return v, n_iter


def fit_closed_form(data, family=Family.FULL, zero_edges=None, moments=None):
    """Solve the estimating equation on the family's active coordinate set.

    Masked coordinates are removed from the system (exact affine restriction)
    and re-embedded as zeros. Gamma_hat phi = H_hat is solved on that set by
    conjugate gradients through the node blocks
    (:meth:`ScoreMatchingMoments.gamma_operator`), so no Gamma block is
    assembled; ``n_iter`` of the result counts the CG steps. Raises
    SingularMomentsError when the active moment block is singular, its
    Lanczos condition estimate exceeds 1e12 or CG stalls
    (:func:`_conjugate_gradient`).
    """
    if moments is None:
        moments = accumulate_moments(data)
    d = moments.d
    family = Family(family)
    idx = _active_indices(d, family, zero_edges)
    solution, n_iter = _conjugate_gradient(
        moments.gamma_operator(idx), moments.h_hat[idx], moments.n, param_dim(d)
    )
    phi = np.zeros(param_dim(d))
    phi[idx] = solution
    params = TorusGraphParams(d=d, phi=phi, family=family)
    return FitResult(params=params, moments=moments, method="closed_form",
                     residual_norm=_equation_residual(moments, phi, idx), n_iter=n_iter)


def _penalized_blocks(d, idx):
    """Active-coordinate positions of each penalized coupling block as an
    (E, size) index matrix. A family masks the same columns of every block; a
    zeroed edge's row goes first, so that no edge left leaves no column."""
    blocks = _positions(param_dim(d), idx)[coupling_coords(d)]
    blocks = blocks[(blocks >= 0).any(axis=1)]
    return blocks[:, (blocks >= 0).any(axis=0)]


def _group_soft_threshold(phi, blocks, shrink):
    """Shrink the 2-norm of each block of ``phi`` by ``shrink``, to zero
    below it, in place. Returns phi and the sum of the shrunk norms (each
    block's norm times its scale), the group penalty of the result over its
    weight."""
    if blocks.size == 0:
        return phi, 0.0
    vals = phi[blocks]
    norms = np.sqrt(np.add.reduce(vals * vals, axis=1))  # np.linalg.norm's own sum
    kept = norms > shrink  # so norms > 0 wherever it divides
    scale = np.where(kept, 1.0 - shrink / np.where(kept, norms, 1.0), 0.0)
    phi[blocks] = vals * scale[:, None]
    return phi, float(norms @ scale)


def _check_penalty(lam):
    lam = float(lam)
    if not (np.isfinite(lam) and lam >= 0):
        raise DomainError(f"penalty weight must be finite and >= 0, got {lam!r}")
    return lam


def _largest_eigenvalue(G):
    """Largest eigenvalue of a nonempty symmetric operator: by ARPACK's
    Lanczos iteration from the all-ones start vector (so the result is
    reproducible), or, for 2 coordinates or fewer, where ARPACK does not
    apply, from the matrix itself, read off G's products with the unit
    vectors."""
    m = G.shape[0]
    if m > 2:
        from scipy.sparse.linalg import LinearOperator, eigsh  # only the lasso needs it

        op = LinearOperator(G.shape, matvec=G.__matmul__, dtype=float)
        return float(eigsh(op, k=1, which="LA", v0=np.ones(m), return_eigenvectors=False)[0])
    cols = [G @ e for e in np.eye(m)]
    if m == 1:
        return float(cols[0][0])
    half_sum, half_diff = 0.5 * (cols[0][0] + cols[1][1]), 0.5 * (cols[0][0] - cols[1][1])
    return float(half_sum + np.hypot(half_diff, cols[0][1]))


def _lasso_system(moments, family, zero_edges):
    """The penalized problem on the family's active coordinates: their
    indices, the Gamma operator and H restricted to them, the penalty blocks
    and the initial step 1 / lambda_max(Gamma). The step depends on the
    moments only, so one eigenvalue computation serves every penalty
    weight."""
    d = moments.d
    idx = _active_indices(d, family, zero_edges)
    G = moments.gamma_operator(idx)
    b = moments.h_hat[idx]
    lipschitz = _largest_eigenvalue(G) if idx.size else 1.0
    return idx, G, b, _penalized_blocks(d, idx), 1.0 / max(lipschitz, 1e-12)


def _fista(G, b, blocks, lam, step, tol):
    """Minimise (1/2) v'Gv - v'b + lam * sum of block 2-norms from v = 0.

    Accelerated proximal gradient with function-value restart: the momentum
    sequence is reset whenever the objective rises, which keeps the method
    monotone on these often very ill-conditioned quadratics. G is a
    :class:`GammaOperator`. Each step makes two products with it: G y gives
    the gradient and the smooth part at y, and
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
    for n_iter in range(1, _LASSO_MAX_ITER + 1):
        Gy = G @ y
        grad = Gy - b
        smooth_y = smooth(y, Gy)
        while True:
            cand, penalty = _group_soft_threshold(y - step * grad, blocks, lam * step)
            smooth_cand = smooth(cand, G @ cand)
            delta = cand - y
            if smooth_cand <= smooth_y + grad @ delta + (delta @ delta) / (2 * step) + 1e-15:
                break
            step *= 0.5
            if step < 1e-18:
                raise ConvergenceError("backtracking line search underflow")
        new_obj = smooth_cand + lam * penalty
        if new_obj > obj and t > 1.0:
            # momentum overshoot: restart from the last accepted point (a
            # pure gradient step cannot increase the objective, so this
            # cannot cycle)
            y = phi.copy()
            t = 1.0
            continue
        move = cand - phi
        max_move = float(np.abs(move).max()) if cand.size else 0.0
        converged = abs(obj - new_obj) <= tol * max(1.0, abs(obj)) and max_move < 1e-8
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = cand + ((t - 1.0) / t_next) * move
        t = t_next
        phi = cand
        obj = new_obj
        if converged:
            return phi, n_iter
    raise ConvergenceError(
        f"group-lasso solver did not converge in {_LASSO_MAX_ITER} iterations "
        f"(last residual {float(np.max(np.abs(G @ phi - b))):.3g})"
    )


def fit_group_lasso(data, family=Family.FULL, lam=0.0, tol=1e-9, zero_edges=None, moments=None):
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
    phi, n_iter = _fista(G, b, blocks, lam, step, tol)
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
    return _cross_validate(data, family, folds, grid, seed, zero_edges, tol)[:2]


def _cross_validate(data, family=Family.FULL, folds=5, grid=None, seed=0, zero_edges=None, tol=1e-8):
    """:func:`select_lambda_cv`, also returning the moments of all the data
    pooled from the folds' moments, so a refit need not accumulate again."""
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
        train = _pool([fm for i, fm in enumerate(fold_moments) if i != f])
        idx, G, b, blocks, step = _lasso_system(train, family, zero_edges)
        for gi, lam in enumerate(lams):
            phi[idx] = _fista(G, b, blocks, lam, step, tol)[0]
            losses[gi, f] = sm_objective(phi, held)
    mean_loss = losses.mean(axis=1)
    best = int(np.argmin(mean_loss))
    table = [(lam, float(loss)) for lam, loss in zip(lams, mean_loss)]
    return lams[best], table, _pool(fold_moments)
