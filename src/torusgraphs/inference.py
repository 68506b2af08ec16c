"""Asymptotic inference: edge tests, graph construction, fit diagnostics.

The estimator solves an unbiased linear estimating equation, so sqrt(N) times
the estimation error is asymptotically normal with the sandwich covariance
Sigma = Gamma^-1 V Gamma^-1, where V is the second moment of the per-sample
residual Gamma(x) phi - H(x), formed in the moments' own walk over the data:
entry l of D(x)' phi is A_l phi[coords_l], mapped back by A_l onto coords_l.
Sigma is never formed. With R the (N, |active|) residual rows on the family's
active coordinates, Sigma = F'F for the factor F = R Gamma^-1 / sqrt(N), and
a test reads only the block F_c'F_c of the coordinates c it tests
(:class:`SandwichCov`). Quadratic forms of coefficient blocks against that
covariance give chi-squared statistics with one degree of freedom per tested
coordinate: 4 for a full coupling block, 2 for its rotational or reflectional
half, and 2|E| or 4|E| for groups of edges. The CLI and the benchmark harness
score all pairs through :func:`edge_tests` and, for the pairwise phase-locking
baseline, :func:`plv_tests`. Multiple testing is corrected in one place,
:func:`correct_pvalues`.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .circular import _rayleigh, bessel_ratio, chi2_sf, fisher_combine, ks_two_sample, wrap_angle
from .estimation import (
    FitResult,
    ScoreMatchingMoments,
    _checked_cholesky,
    _cross_validate,
    _derivative_walk,
    _positions,
    fit_group_lasso,
)
from .exceptions import DegenerateTestError, DomainError, FamilyScopeError, add_context
from .model import (
    Family,
    TorusGraphParams,
    _edge_index_arrays,
    coupling_coords,
    edge_list,
    edge_rank,
    param_dim,
)
from .sampling import GibbsConfig, gibbs_sample

MODE_FULL = "full"
MODE_ROTATIONAL = "rot"
MODE_REFLECTIONAL = "refl"

CORRECTION_NONE = "none"
CORRECTION_BONFERRONI = "bonferroni"

_PLV_PAIRS = 256


@dataclass(frozen=True)
class SandwichCov:
    """Sandwich covariance Sigma of sqrt(N)(phi_hat - phi), held as a factor.

    ``factor`` is the (N, |active|) matrix F with Sigma = F'F on the family's
    active coordinates; ``position`` maps each of the 2d^2 coordinates to its
    column of F, or -1 where the family masks it (Sigma is zero there).
    ``moments`` are the score-matching moments Gamma was taken from.
    """

    factor: np.ndarray
    position: np.ndarray
    moments: ScoreMatchingMoments

    def block(self, coords):
        """Sigma restricted to ``coords`` (coordinates of the full layout)."""
        cols = self.position[np.asarray(coords, dtype=int)]
        if np.any(cols < 0):
            raise FamilyScopeError(
                "covariance block requested on a coordinate masked by the family"
            )
        F = self.factor[:, cols]
        return F.T @ F


def asymptotic_cov(data, params, moments=None):
    """Sandwich covariance of sqrt(N)(phi_hat - phi) on the family's active set.

    With residual rows r_n = Gamma(x_n) phi - H(x_n) on the active
    coordinates, V_hat = R'R / N and Sigma = Gamma_hat^-1 V_hat Gamma_hat^-1
    = F'F for the factor F = R Gamma_hat^-1 / sqrt(N), which is all that is
    formed. R comes from the moments' walk over the data, which also
    accumulates the moments when none are passed. The active Gamma block is
    assembled from the moments' node blocks
    (:meth:`ScoreMatchingMoments.gamma_block`) and factored in place, and the
    solve against R is written into R, so those two are the only large
    arrays. Tests read small blocks of Sigma through
    :meth:`SandwichCov.block`. ``params`` may be the fitted or a null
    coefficient vector. Raises SingularMomentsError when the active block is
    singular or its condition estimate exceeds 1e12, as the closed-form fit
    does.
    """
    X = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = X.shape
    if d != params.d:
        raise DomainError(f"data dimension {d} does not match model dimension {params.d}")
    m = param_dim(d)
    idx = np.nonzero(params.active)[0]
    moments, R = _derivative_walk(X, params.phi, idx, moments)
    cho = _checked_cholesky(moments.gamma_block(idx), moments.n, m)
    # R' is Fortran-ordered, so the solve overwrites R with R Gamma^-1
    scipy.linalg.cho_solve(cho, R.T, overwrite_b=True, check_finite=False)
    R *= 1.0 / np.sqrt(n)
    R.flags.writeable = False
    return SandwichCov(factor=R, position=_positions(m, idx), moments=moments)


@dataclass(frozen=True)
class EdgeTest:
    """Block test for one edge (or edge group): statistic, df, p-value."""

    edge: tuple
    x2: float
    df: int
    p: float
    mode: str = MODE_FULL


_MODE_OFFSETS = {MODE_FULL: [0, 1, 2, 3], MODE_ROTATIONAL: [0, 1], MODE_REFLECTIONAL: [2, 3]}


def _edge_coords(params, edges, mode):
    """Validated distinct edges as (j, k) with j < k, and an (edges, block size)
    array of the coordinates ``mode`` tests on each, read off the coupling table."""
    d = params.d
    norm = {}  # an ordered set
    for j, k in edges:
        if not (0 <= j < d and 0 <= k < d and j != k):
            raise DomainError(f"invalid edge ({j}, {k}) for d={d}")
        edge = (min(j, k), max(j, k))
        if edge in norm:
            raise DomainError(f"duplicate edge {edge}")
        norm[edge] = None
    if mode not in _MODE_OFFSETS:
        raise DomainError(f"unknown test mode {mode!r}")
    coords = coupling_coords(d)[[edge_rank(d, j, k) for j, k in norm]][:, _MODE_OFFSETS[mode]]
    if not params.active[coords].all():
        raise FamilyScopeError(
            f"mode {mode!r} tests coordinates masked by family {params.family.value!r}"
        )
    return list(norm), coords


def _quadratic_test(fit, cov, edge, coords, mode):
    """Test of ``edge`` (a pair, or a tuple of pairs) that the coefficients on
    ``coords`` are zero. Each test solves its own freshly gathered block, so
    its statistic does not depend on which other tests run with it."""
    phi_e = fit.params.phi[coords]
    sigma_e = cov.block(coords)
    try:
        sol = np.linalg.solve(sigma_e, phi_e)
    except np.linalg.LinAlgError as exc:
        raise DegenerateTestError(f"singular covariance block in the test of {edge}") from exc
    x2 = float(fit.n * phi_e @ sol)
    if not np.isfinite(x2):
        raise DegenerateTestError(f"non-finite test statistic for {edge}")
    x2 = max(x2, 0.0)
    return EdgeTest(edge=edge, x2=x2, df=len(coords), p=chi2_sf(x2, len(coords)), mode=mode)


def edge_test(fit, cov, j, k, mode=MODE_FULL):
    """Chi-squared test of one coupling block (or its rotational /
    reflectional half) against zero; df equals the tested block size."""
    (edge,), (coords,) = _edge_coords(fit.params, [(j, k)], mode)
    return _quadratic_test(fit, cov, edge, coords, mode)


def edge_tests(fit, cov, mode=MODE_FULL):
    """:func:`edge_test` of every pair, in canonical edge order."""
    edges, coords = _edge_coords(fit.params, edge_list(fit.params.d), mode)
    return [_quadratic_test(fit, cov, edge, c, mode) for edge, c in zip(edges, coords)]


def group_edge_test(fit, cov, edges, mode=MODE_FULL):
    """Joint chi-squared test that every edge in the group is absent.

    df is (block size) x (number of edges), e.g. 40 rotational edges -> 80.
    """
    if not edges:
        raise DomainError("need at least one edge")
    norm_edges, coords = _edge_coords(fit.params, edges, mode)
    return _quadratic_test(fit, cov, tuple(norm_edges), coords.ravel(), mode)


def plv_tests(data):
    """Pairwise phase-locking baseline: Rayleigh Z and p-value of every pair's
    wrapped phase difference, in canonical edge order, as EdgeTests of mode
    "plv" and df 2. The pairs are reduced 256 at a time (``_PLV_PAIRS``), so
    no array over all pairs and samples is made."""
    X = np.atleast_2d(np.asarray(data, dtype=float))
    jj, kk = _edge_index_arrays(X.shape[1])
    if not jj.size:
        return []
    XT = np.ascontiguousarray(X.T)
    x2, p = [], []
    for start in range(0, jj.size, _PLV_PAIRS):
        pairs = slice(start, start + _PLV_PAIRS)
        # one contiguous row per pair, so each row sums as the pair's own sample would
        z, q = _rayleigh(wrap_angle(XT[jj[pairs]] - XT[kk[pairs]]), "statistic")
        x2 += z.tolist()
        p += q.tolist()
    return [EdgeTest(edge=(j, k), x2=s, df=2, p=q, mode="plv")
            for j, k, s, q in zip(jj.tolist(), kk.tolist(), x2, p)]


@dataclass(frozen=True)
class GraphStructure:
    """Decision-rule output: symmetric adjacency plus corrected p-values.

    ``pvals`` holds the corrected p-value per pair (1.0 on the diagonal and
    for untested pairs); adjacency(j, k) is corrected p <= alpha, with the
    boundary p == alpha counting as an edge.
    """

    d: int
    adjacency: np.ndarray
    pvals: np.ndarray
    alpha: float
    correction: str
    tests: tuple = ()

    def __post_init__(self):
        adjacency = np.array(self.adjacency, dtype=bool)
        pvals = np.array(self.pvals, dtype=float)
        if adjacency.shape != (self.d, self.d) or pvals.shape != (self.d, self.d):
            raise DomainError("adjacency and pvals must be d x d")
        if not np.array_equal(adjacency, adjacency.T) or np.any(np.diag(adjacency)):
            raise DomainError("adjacency must be symmetric with an empty diagonal")
        adjacency.flags.writeable = False
        pvals.flags.writeable = False
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "pvals", pvals)

    @property
    def edges(self):
        return [(j, k) for j in range(self.d) for k in range(j + 1, self.d) if self.adjacency[j, k]]


def correct_pvalues(pvals, correction):
    """Multiple-testing adjustment of one family of p-values.

    ``none`` keeps them; ``bonferroni`` multiplies each by the number of
    tests, clamped to 1.
    """
    if correction not in (CORRECTION_NONE, CORRECTION_BONFERRONI):
        raise DomainError(f"unknown correction {correction!r}")
    p = np.asarray(pvals, dtype=float)
    factor = p.size if correction == CORRECTION_BONFERRONI else 1
    return np.minimum(1.0, p * factor)


def build_graph(tests, alpha, correction=CORRECTION_NONE, d=None):
    """Threshold edgewise tests into a graph.

    P-values are adjusted by :func:`correct_pvalues` over all the tests.
    Duplicate edges are rejected; ``d`` is inferred from the largest node
    index when not given.
    """
    tests = list(tests)
    p_corr = correct_pvalues([t.p for t in tests], correction)
    if not 0 < alpha <= 1:
        raise DomainError("alpha must be in (0, 1]")
    seen = set()
    for t in tests:
        if t.edge in seen:
            raise DomainError(f"duplicate edge {t.edge}")
        seen.add(t.edge)
    if d is None:
        d = 1 + max((max(t.edge) for t in tests), default=0)
    adjacency = np.zeros((d, d), dtype=bool)
    pvals = np.ones((d, d))
    for t, p in zip(tests, p_corr):
        j, k = t.edge
        pvals[j, k] = pvals[k, j] = p
        if p <= alpha:
            adjacency[j, k] = adjacency[k, j] = True
    return GraphStructure(
        d=d, adjacency=adjacency, pvals=pvals, alpha=float(alpha),
        correction=correction, tests=tuple(tests),
    )


def partial_plv(fit, j, k):
    """Conditional coupling strength mapped into [0, 1).

    Defined for rotational-coupling fits with uniform margins (and accepted
    for the plain rotational family): the Bessel ratio of the rotational
    block norm, a drop-in analogue of the pairwise phase locking value that
    measures the edge conditionally on all other nodes.
    """
    if fit.params.family not in (Family.PHASE_DIFF, Family.UNIFORM_PHASE_DIFF):
        raise FamilyScopeError(
            "partial PLV is defined for the rotational-coupling families; "
            f"got {fit.params.family.value!r}"
        )
    rot_cos, rot_sin = fit.params.coupling_block(min(j, k), max(j, k))[:2]
    return float(bessel_ratio(np.hypot(rot_cos, rot_sin)))


def goodness_of_fit(data, fit, n_synth=2000, seed=0):
    """KS battery between the data and a synthetic sample from the fit.

    Per channel, a two-sample KS on the angles; per pair, KS on the wrapped
    differences and wrapped sums (all mapped to [0, 2pi) with origin 0); the
    three groups are each combined with Fisher's method. ``fit`` is a
    FitResult or the TorusGraphParams to check; only the parameters are read.

    Returns
    -------
    dict with keys p_marginal, p_diff, p_sum.
    """
    X = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = X.shape
    params = fit if isinstance(fit, TorusGraphParams) else fit.params
    if d != params.d:
        raise DomainError("data dimension does not match the fit")
    if n_synth < 100:
        raise DomainError("need at least 100 synthetic draws")
    synth = gibbs_sample(params, GibbsConfig(n_samples=n_synth, burn_in=500, seed=seed))
    jj, kk = _edge_index_arrays(d)
    # KS columns of each group: the channels, the pair differences, the pair sums
    groups = {
        "p_marginal": (X, synth),
        "p_diff": (X[:, jj] - X[:, kk], synth[:, jj] - synth[:, kk]),
        "p_sum": (X[:, jj] + X[:, kk], synth[:, jj] + synth[:, kk]),
    }
    return {
        key: fisher_combine([ks_two_sample(a, b) for a, b in zip(wrap_angle(A).T, wrap_angle(B).T)])
        if A.shape[1] else 1.0  # no pairs at d = 1
        for key, (A, B) in groups.items()
    }


STAT_NONZERO_EDGE_COUNT = "nonzero-edge-count"
STAT_MAX_BLOCK_NORM = "max-block-norm"


def _bootstrap_statistic(params, edges, statistic):
    norms = [np.linalg.norm(params.coupling_block(j, k)) for j, k in edges]
    if statistic == STAT_NONZERO_EDGE_COUNT:
        return float(sum(1 for v in norms if v > 0))
    if statistic == STAT_MAX_BLOCK_NORM:
        return float(max(norms))
    raise DomainError(f"unknown bootstrap statistic {statistic!r}")


def bootstrap_null_test(
    data,
    null_edges,
    B=199,
    statistic=STAT_NONZERO_EDGE_COUNT,
    seed=0,
    family=Family.FULL,
    folds=5,
    grid=None,
    tol=1e-8,
    gibbs_burn_in=500,
):
    """Parametric bootstrap test that the given edges are absent.

    A null model is fitted with the tested blocks forced to zero (penalty
    weight by cross-validation); B data sets of the original size are drawn
    from it by Gibbs sampling; for each, the penalty weight is re-selected by
    cross-validation and an unrestricted model refitted. The statistic
    (computed over the tested edge set) yields the rank p-value
    (1 + #{bootstrap >= observed}) / (B + 1).
    """
    X = np.atleast_2d(np.asarray(data, dtype=float))
    n = X.shape[0]
    null_edges = [(min(j, k), max(j, k)) for j, k in null_edges]
    if not null_edges:
        raise DomainError("need at least one null edge")
    if B < 19:
        raise DomainError("need B >= 19 bootstrap replicates")
    if grid is None:
        grid = np.geomspace(1e-3, 1.0, 7)

    def cv_fit(sample, cv_seed, zero_edges=None):
        lam, _, moments = _cross_validate(
            sample, family=family, folds=folds, grid=grid, seed=cv_seed,
            zero_edges=zero_edges, tol=tol,
        )
        return fit_group_lasso(None, family=family, lam=lam, zero_edges=zero_edges, tol=tol,
                               moments=moments)

    seeds = np.random.SeedSequence(seed).spawn(B + 2)
    obs_fit = cv_fit(X, int(seeds[0].generate_state(1)[0]))
    observed = _bootstrap_statistic(obs_fit.params, null_edges, statistic)
    null_fit = cv_fit(X, int(seeds[1].generate_state(1)[0]), zero_edges=null_edges)
    exceed = 0
    for b in range(B):
        rep_seed = int(seeds[b + 2].generate_state(1)[0])
        try:
            Xb = gibbs_sample(
                null_fit.params,
                GibbsConfig(n_samples=n, burn_in=gibbs_burn_in, seed=rep_seed),
            )
            boot_fit = cv_fit(Xb, rep_seed)
        except Exception as exc:
            add_context(exc, f"bootstrap replicate {b} (seed {rep_seed})")
            raise
        if _bootstrap_statistic(boot_fit.params, null_edges, statistic) >= observed:
            exceed += 1
    return (1 + exceed) / (B + 1)
