"""Asymptotic inference: edge tests, graph construction, fit diagnostics.

The estimator solves an unbiased linear estimating equation, so sqrt(N) times
the estimation error is asymptotically normal with the sandwich covariance
Sigma = Gamma^-1 V Gamma^-1, where V is the second moment of the per-sample
residual Gamma(x) phi - H(x), the score-matching estimating function, whose
rows come in closed form from the model score D(x)' phi
(:func:`torusgraphs.estimation._residual_rows`). Sigma is never formed. With R
the (N, |active|) residual rows on the family's active coordinates, Sigma = F'F
for the factor F = R Gamma^-1 / sqrt(N), and a test reads only the block
F_c'F_c of the coordinates c it tests (:class:`SandwichCov`). Gamma is
factored by node-bisection blocks (:func:`asymptotic_cov`), from d = 2 none of
order above d^2, its three triangles in rectangular full packed storage.
Quadratic forms of coefficient blocks against that covariance give
chi-squared statistics with one degree of freedom per tested coordinate: 4
for a full coupling block, 2 for its rotational or reflectional half, and
2|E| or 4|E| for groups of edges.
Every pair, one pair or one group is tested as one stack of blocks, with one
batched product, solve and chi-squared call. The CLI and the benchmark harness
score all pairs through :func:`edge_tests` and, for the pairwise phase-locking
baseline, :func:`plv_tests`. Multiple testing is corrected in one place,
:func:`correct_pvalues`.
"""

from dataclasses import dataclass

import numpy as np

from .circular import _rayleigh, bessel_ratio, chi2_sf, fisher_combine, ks_two_sample, wrap_angle
from .estimation import (
    _CV_TOL,
    FitResult,
    ScoreMatchingMoments,
    _bisection_cholesky,
    _bisection_order,
    _cross_validate,
    _positions,
    _residual_rows,
    accumulate_moments,
    fit_group_lasso,
)
from .exceptions import (
    DegenerateTestError,
    DomainError,
    FamilyScopeError,
    add_context,
    check_seed,
)
from .model import (
    Family,
    TorusGraphParams,
    _canonical_pairs,
    _edge_index_arrays,
    coupling_coords,
    param_dim,
)
from .sampling import GibbsConfig, gibbs_sample, gibbs_sample_chains

MODE_FULL = "full"
MODE_ROTATIONAL = "rot"
MODE_REFLECTIONAL = "refl"

CORRECTION_NONE = "none"
CORRECTION_BONFERRONI = "bonferroni"
CORRECTIONS = (CORRECTION_NONE, CORRECTION_BONFERRONI)

_PLV_PAIRS = 256


@dataclass(frozen=True)
class SandwichCov:
    """Sandwich covariance Sigma of sqrt(N)(phi_hat - phi), held as a factor.

    ``factor`` is the (N, |active|) Fortran-ordered matrix F with
    Sigma = F'F on the family's active coordinates, its columns in the order
    of the node-bisection factor (:func:`asymptotic_cov`); ``position`` maps
    each of the 2d^2 coordinates to its column of F, or -1 where the family
    masks it (Sigma is zero there).
    ``moments`` are the score-matching moments Gamma was taken from.
    """

    factor: np.ndarray
    position: np.ndarray
    moments: ScoreMatchingMoments

    def block(self, coords):
        """Sigma restricted to ``coords`` (coordinates of the full layout): the
        (k, k) block of a 1-D coordinate list, or the (tests, k, k) stack of
        blocks of a (tests, k) array, one per row, formed in one batched
        product. Each block of a stack equals the block of its row alone."""
        cols = self.position[np.asarray(coords, dtype=int)]
        if np.any(cols < 0):
            raise FamilyScopeError(
                "covariance block requested on a coordinate masked by the family"
            )
        F = self.factor[:, cols]
        return np.moveaxis(F, 0, -1) @ np.moveaxis(F, 0, -2)


def asymptotic_cov(data, params, moments=None):
    """Sandwich covariance of sqrt(N)(phi_hat - phi) on the family's active set.

    With residual rows r_n = Gamma(x_n) phi - H(x_n) on the active coordinates
    (:func:`torusgraphs.estimation._residual_rows`), V_hat = R'R / N and
    Sigma = Gamma_hat^-1 V_hat Gamma_hat^-1 = F'F for the factor
    F = R Gamma_hat^-1 / sqrt(N), which is all that is formed. The moments, if
    none are passed, are accumulated here. The active coordinates are split
    by one level of nested dissection over the nodes
    (:func:`torusgraphs.estimation._bisection_order`): set A holds the
    coordinates of the first ceil(d/2) nodes alone, B those of the others
    alone, and S the pairs across. Gamma_hat is zero between A and B, so its
    Cholesky factor is made by blocks, from d = 2 none of order above d^2
    (:class:`torusgraphs.estimation.BisectionCholesky`): the three diagonal
    blocks' lower triangles, each in rectangular full packed storage of
    n(n + 1)/2 values for order n, and the two dense rectangles S x A and
    S x B. R is written with its columns in that order, and the solve
    against it is written into R. Tests read small blocks of Sigma through
    :meth:`SandwichCov.block`. ``params`` may be the fitted or a null
    coefficient vector. Raises SingularMomentsError, as the closed-form fit
    does, on a block that is not positive definite or a 1-norm condition
    estimate above 1e12.
    """
    X = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = X.shape
    if d != params.d:
        raise DomainError(f"data dimension {d} does not match model dimension {params.d}")
    m = param_dim(d)
    if n < 1:
        raise DomainError("need at least one sample")
    if moments is None:
        moments = accumulate_moments(X)
    order, sizes = _bisection_order(d, np.nonzero(params.active)[0])
    R = _residual_rows(X, params, order)
    _bisection_cholesky(moments, order, sizes, m)[0].solve(R)
    R *= 1.0 / np.sqrt(n)
    R.flags.writeable = False
    return SandwichCov(factor=R, position=_positions(m, order), moments=moments)


@dataclass(frozen=True)
class EdgeTest:
    """Block test for one edge (or edge group): statistic, df, p-value."""

    edge: tuple
    x2: float
    df: int
    p: float
    mode: str = MODE_FULL


_MODE_OFFSETS = {MODE_FULL: [0, 1, 2, 3], MODE_ROTATIONAL: [0, 1], MODE_REFLECTIONAL: [2, 3]}
MODES = tuple(_MODE_OFFSETS)


def _edge_coords(params, edges, mode):
    """The edges, checked, as (j, k) with j < k, and an (edges, block size)
    array of the coordinates ``mode`` tests on each, read off the coupling table."""
    pairs, ranks = _canonical_pairs(params.d, edges)
    if mode not in _MODE_OFFSETS:
        raise DomainError(f"unknown test mode {mode!r}")
    coords = coupling_coords(params.d)[ranks][:, _MODE_OFFSETS[mode]]
    if not params.active[coords].all():
        raise FamilyScopeError(
            f"mode {mode!r} tests coordinates masked by family {params.family.value!r}"
        )
    return list(map(tuple, pairs.tolist())), coords


def _quadratic_tests(fit, cov, tested, coords, mode):
    """Tests that the coefficients on each row of the (tests, k) ``coords``
    are zero, one per entry of ``tested`` (a pair, or a tuple of pairs).

    The blocks are gathered, formed and solved as one stack, and each block
    solves alone, so a test's statistic does not depend on which other tests
    run with it. The first degenerate test in order is named: df >= N (the N
    rows of F sum to ~0 at the fit; raised before the gather), a singular
    block, or a statistic that is not a finite number >= 0.
    """
    df, n = coords.shape[1], cov.factor.shape[0]
    if tested and df >= n:  # every row of the stack has this df
        raise DegenerateTestError(f"{df} coefficients from N={n} samples: "
                                  f"singular covariance block in the test of {tested[0]}")
    # a C-ordered gather gives each row's dot product the strides of a lone test
    coords = np.ascontiguousarray(coords)
    phi = fit.params.phi[coords]
    sigma = cov.block(coords)
    singular = np.zeros(len(tested), dtype=bool)
    try:
        sol = np.linalg.solve(sigma, phi[..., None])
    except np.linalg.LinAlgError:
        # solve rejects the whole stack; the LU of slogdet finds the same zero pivots
        with np.errstate(invalid="ignore"):  # a NaN block is named below, not warned of
            singular = np.linalg.slogdet(sigma)[0] == 0
        sol = np.full(phi.shape + (1,), np.nan)
        sol[~singular] = np.linalg.solve(sigma[~singular], phi[~singular, :, None])
    x2 = ((fit.n * phi)[:, None, :] @ sol)[:, 0, 0]
    singular |= (0.0 > x2) & np.isfinite(x2)  # a block not positive definite; -0.0 passes
    degenerate = singular | ~np.isfinite(x2)
    if degenerate.any():
        i = int(np.argmax(degenerate))
        if singular[i]:
            raise DegenerateTestError(f"singular covariance block in the test of {tested[i]}")
        raise DegenerateTestError(f"non-finite test statistic for {tested[i]}")
    return [EdgeTest(edge=edge, x2=s, df=df, p=q, mode=mode)
            for edge, s, q in zip(tested, x2.tolist(), chi2_sf(x2, df).tolist())]


def edge_test(fit, cov, j, k, mode=MODE_FULL):
    """Chi-squared test of one coupling block (or its rotational /
    reflectional half) against zero, of a pair in either order; df equals the
    tested block size."""
    edges, coords = _edge_coords(fit.params, [(j, k)], mode)
    return _quadratic_tests(fit, cov, edges, coords, mode)[0]


def edge_tests(fit, cov, mode=MODE_FULL):
    """:func:`edge_test` of every pair, in canonical edge order, as one stack."""
    edges, coords = _edge_coords(fit.params, np.transpose(_edge_index_arrays(fit.params.d)), mode)
    return _quadratic_tests(fit, cov, edges, coords, mode)


def group_edge_test(fit, cov, edges, mode=MODE_FULL):
    """Joint chi-squared test that every edge in the group is absent.

    df is (block size) x (number of edges), e.g. 40 rotational edges -> 80; df >= N
    raises. The pairs, a list or an (E, 2) int array, may be in either order, each once.
    """
    norm_edges, coords = _edge_coords(fit.params, edges, mode)
    if not norm_edges:
        raise DomainError("need at least one edge")
    return _quadratic_tests(fit, cov, [tuple(norm_edges)], coords.reshape(1, -1), mode)[0]


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
        return list(map(tuple, np.argwhere(np.triu(self.adjacency, 1)).tolist()))


def correct_pvalues(pvals, correction):
    """Multiple-testing adjustment of one family of p-values.

    ``none`` keeps them; ``bonferroni`` multiplies each by the number of
    tests, clamped to 1.
    """
    if correction not in CORRECTIONS:
        raise DomainError(f"unknown correction {correction!r}")
    p = np.asarray(pvals, dtype=float)
    factor = p.size if correction == CORRECTION_BONFERRONI else 1
    return np.minimum(1.0, p * factor)


def build_graph(tests, alpha, correction=CORRECTION_NONE, d=None):
    """Threshold edgewise tests into a graph.

    P-values are adjusted by :func:`correct_pvalues` over all the tests.
    ``d`` is inferred from the largest node index when not given. Pairs in
    either order are taken; self-loops, nodes outside [0, d) and a pair
    tested twice, (j, k) and (k, j) being one pair, are rejected.
    """
    tests = list(tests)
    p_corr = correct_pvalues([t.p for t in tests], correction)
    if not 0 < alpha <= 1:
        raise DomainError("alpha must be in (0, 1]")
    if d is None:
        d = 1 + max((max(t.edge) for t in tests), default=0)
    return _graph_of(d, tests, p_corr, p_corr <= alpha, float(alpha), correction)


def _graph_of(d, tests, p_corr, significant, alpha, correction):
    """The graph of tests on pairs in either order, given their corrected p and decision."""
    jj, kk = _canonical_pairs(d, [t.edge for t in tests])[0].T
    adjacency = np.zeros((d, d), dtype=bool)
    pvals = np.ones((d, d))
    pvals[jj, kk] = pvals[kk, jj] = p_corr
    adjacency[jj, kk] = adjacency[kk, jj] = significant
    return GraphStructure(d=d, adjacency=adjacency, pvals=pvals, alpha=alpha,
                          correction=correction, tests=tuple(tests))


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
    three groups are each combined with Fisher's method, into the p_marginal,
    p_diff and p_sum of the returned dict. ``fit`` is a FitResult or the
    TorusGraphParams to check; only the parameters are read.
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
_STATISTICS = {STAT_NONZERO_EDGE_COUNT: lambda norms: np.count_nonzero(norms > 0),
               STAT_MAX_BLOCK_NORM: np.max}


def _bootstrap_statistic(phi, blocks, statistic):
    """``statistic`` of the norms of the (edges, 4) coupling ``blocks`` of
    ``phi``: one gather, each norm summed as _group_soft_threshold sums it."""
    return float(_STATISTICS[statistic](np.linalg.norm(phi[blocks], axis=1)))


def bootstrap_null_test(
    data,
    null_edges,
    B=199,
    statistic=STAT_NONZERO_EDGE_COUNT,
    seed=0,
    family=Family.FULL,
    folds=5,
    grid=None,
    gibbs_burn_in=500,
):
    """Parametric bootstrap test that the given edges are absent.

    A null model is fitted with the tested blocks forced to zero (penalty
    weight by cross-validation); B data sets of the original size are drawn
    from it in one multi-chain Gibbs run, all B x n x d angles at once; for
    each, the penalty weight is re-selected by cross-validation and an
    unrestricted model refitted, every solve at the tolerance ``_CV_TOL`` of
    cross-validation. The statistic (computed over the tested edge
    set) yields the rank p-value (1 + #{bootstrap >= observed}) / (B + 1).
    Children 0, 1 and b + 2 of ``SeedSequence(seed).spawn(B + 3)`` seed the
    cross-validation of the observed fit, the null fit and replicate b; child
    B + 2 seeds the draw. The null edges (pairs in either order, each once),
    B, the statistic, the seed (an integer >= 0) and the burn-in are checked
    before any fit.
    """
    X = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = X.shape
    null_edges, ranks = _canonical_pairs(d, null_edges)
    if not ranks.size:
        raise DomainError("need at least one null edge")
    if B < 19:
        raise DomainError("need B >= 19 bootstrap replicates")
    if statistic not in _STATISTICS:
        raise DomainError(f"unknown bootstrap statistic {statistic!r}")
    check_seed(seed)
    if grid is None:
        grid = np.geomspace(1e-3, 1.0, 7)
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(B + 3)]
    draw = GibbsConfig(n_samples=n, burn_in=gibbs_burn_in, seed=seeds[B + 2])
    blocks = coupling_coords(d)[ranks]

    def cv_fit(sample, cv_seed, zero_edges=None):
        lam, _, moments = _cross_validate(sample, family=family, folds=folds, grid=grid,
                                          seed=cv_seed, zero_edges=zero_edges)
        return fit_group_lasso(None, family=family, lam=lam, zero_edges=zero_edges, tol=_CV_TOL,
                               moments=moments)

    observed = _bootstrap_statistic(cv_fit(X, seeds[0]).params.phi, blocks, statistic)
    null_fit = cv_fit(X, seeds[1], zero_edges=null_edges.tolist())
    exceed = 0
    for b, Xb in enumerate(gibbs_sample_chains([null_fit.params] * B, draw)):
        try:
            boot_fit = cv_fit(Xb, seeds[b + 2])
        except Exception as exc:
            add_context(exc, f"bootstrap replicate {b} (seed {seeds[b + 2]})")
            raise
        exceed += _bootstrap_statistic(boot_fit.params.phi, blocks, statistic) >= observed
    return (1 + exceed) / (B + 1)
