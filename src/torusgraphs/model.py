"""Model parameterization for graphical models of circular data.

The natural coefficient vector ``phi`` has length 2d^2, laid out as d marginal
blocks of 2 (cosine, sine coefficients per node) followed by one block of 4
per node pair in lexicographic (j < k) order. Each coupling block multiplies
the pairwise statistics (cos(x_j - x_k), sin(x_j - x_k), cos(x_j + x_k),
sin(x_j + x_k)): the first two encode rotational dependence, the last two
reflectional dependence. The block ordering is a package-wide canonical
convention; serialization and moment-matrix indexing rely on it.

When every ``phi`` entry is zero the distribution is uniform on the torus;
with one coordinate the model is von Mises. The normalization constant is
intractable for d > 2 and is never computed here: ``log_unnorm_density``
is explicitly unnormalized (grid normalizers for low-dimensional checks live
in :mod:`torusgraphs.margins`).
"""

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .circular import wrap_angle
from .exceptions import DomainError, UnidentifiedMeanError


class Family(str, enum.Enum):
    """Affine submodel selector.

    FULL keeps every coefficient. UNIFORM_MARGINAL zeroes all marginal blocks
    (uniform marginal distributions). PHASE_DIFF zeroes the reflectional pair
    of every coupling block. UNIFORM_PHASE_DIFF is the intersection of both.
    """

    FULL = "full"
    UNIFORM_MARGINAL = "uniform"
    PHASE_DIFF = "phasediff"
    UNIFORM_PHASE_DIFF = "uniform-phasediff"


def param_dim(d):
    """Total coefficient count 2*d + 4*d*(d-1)/2 = 2*d^2."""
    return 2 * d * d


def edge_list(d):
    """Node pairs (j, k), j < k, in canonical lexicographic order."""
    return [(j, k) for j in range(d) for k in range(j + 1, d)]


def marginal_slice(j):
    """Index slice of node j's marginal block."""
    return slice(2 * j, 2 * j + 2)


def edge_rank(d, j, k):
    """Position of edge (j, k), j < k strictly (as (k, j) flips the sine terms)."""
    if not (0 <= j < k < d):
        raise DomainError(f"invalid edge ({j}, {k}) for dimension {d}")
    return int(_canonical_pairs(d, [(j, k)])[1][0])


def _canonical_pairs(d, pairs):
    """The one check of node pairs in either order (pairs, an (E, 2) int array or
    None for none): returns them as an (E, 2) int array with j < k, in order, and
    their ranks. Raises DomainError on a non-integer entry (a bool is not one), or
    names the first pair with a node outside [0, d), a self-loop or a repeat."""
    given = pairs if isinstance(pairs, np.ndarray) else list(() if pairs is None else pairs)
    a = np.asarray(given) if len(given) else np.zeros((0, 2), dtype=np.intp)
    # a list mixing bools with ints reads as ints, so its entries are looked at
    if (a.ndim != 2 or a.shape[1] != 2 or a.dtype.kind not in "iu"
            or a is not given and any(isinstance(v, (bool, np.bool_)) for p in given for v in p)):
        raise DomainError("edges must be (j, k) pairs of integer node indices")
    canon = np.sort(a, axis=1).astype(np.intp)
    j, k = canon.T
    valid = (j >= 0) & (k < d) & (j != k)
    ranks = np.where(valid, j * d - j * (j + 1) // 2 + (k - j - 1), -1 - np.arange(len(canon)))
    bad = np.ones(len(canon), dtype=bool)  # a repeat: all but the first pair of each rank
    bad[np.unique(ranks, return_index=True)[1]] = False
    bad |= ~valid
    if bad.any():
        i = int(np.argmax(bad))
        if valid[i]:
            raise DomainError(f"duplicate edge {tuple(canon[i].tolist())}")
        raise DomainError(f"invalid edge {tuple(a[i].tolist())} for d={d}")
    return canon, ranks


def coupling_slice(d, j, k):
    """Index slice of the 4-entry coupling block for edge (j, k)."""
    start = 2 * d + 4 * edge_rank(d, j, k)
    return slice(start, start + 4)


def coupling_coords(d):
    """(E, 4) integer table of the coupling coordinates: row e holds those of
    the e-th edge in canonical order, 2d + 4e + (0, 1, 2, 3)."""
    return np.arange(2 * d, param_dim(d)).reshape(-1, 4)


def family_mask(d, family):
    """Boolean vector over the coefficient layout: True = active under family."""
    family = Family(family)
    active = np.ones(param_dim(d), dtype=bool)
    if family in (Family.UNIFORM_MARGINAL, Family.UNIFORM_PHASE_DIFF):
        active[: 2 * d] = False
    if family in (Family.PHASE_DIFF, Family.UNIFORM_PHASE_DIFF):
        active[2 * d + 2 :: 4] = active[2 * d + 3 :: 4] = False
    return active


@dataclass(frozen=True)
class TorusGraphParams:
    """Natural coefficient vector with its dimension and family.

    Invariants: ``phi`` has length 2*d^2, is finite, and is exactly zero on
    coordinates masked by ``family``. The array is stored read-only.
    """

    d: int
    phi: np.ndarray
    family: Family = Family.FULL

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float)
        if self.d < 1:
            raise DomainError("dimension must be >= 1")
        if phi.shape != (param_dim(self.d),):
            raise DomainError(
                f"phi must have length {param_dim(self.d)} for d={self.d}, got {phi.shape}"
            )
        if not np.all(np.isfinite(phi)):
            raise DomainError("phi entries must be finite")
        if np.any(phi[~family_mask(self.d, self.family)] != 0.0):
            raise DomainError(f"phi has nonzero entries masked by family {self.family.value}")
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "family", Family(self.family))

    def marginal_block(self, j):
        return self.phi[marginal_slice(j)]

    def coupling_block(self, j, k):
        return self.phi[coupling_slice(self.d, j, k)]

    @property
    def active(self):
        return family_mask(self.d, self.family)


@dataclass(frozen=True)
class MeanCenteredParams:
    """Mean-centered parameterization: per-node (mu, kappa) and per-edge
    interaction quadruples (cc, cs, sc, ss) in canonical edge order."""

    mu: np.ndarray
    kappa: np.ndarray
    lambdas: np.ndarray = field(default=None)

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        kappa = np.array(self.kappa, dtype=float)
        d = mu.size
        lambdas = self.lambdas
        if lambdas is None:
            lambdas = np.zeros((d * (d - 1) // 2, 4))
        lambdas = np.array(lambdas, dtype=float)
        if kappa.shape != (d,):
            raise DomainError("mu and kappa must have equal length")
        if lambdas.shape != (d * (d - 1) // 2, 4):
            raise DomainError(f"lambdas must have shape ({d * (d - 1) // 2}, 4)")
        if np.any(kappa < 0) or not np.all(np.isfinite(kappa)):
            raise DomainError("kappa must be finite and >= 0")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(lambdas))):
            raise DomainError("parameters must be finite")
        for name, arr in (("mu", mu), ("kappa", kappa), ("lambdas", lambdas)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def d(self):
        return self.mu.size


@dataclass(frozen=True)
class SufficientStats:
    """Per-node first-moment statistics ``s1`` (length 2d) and per-pair
    second-moment statistics ``s2`` (length 4*d*(d-1)/2), canonical order."""

    s1: np.ndarray
    s2: np.ndarray

    @property
    def full(self):
        return np.concatenate([self.s1, self.s2])


def suff_stats(x):
    """Evaluate the sufficient statistics of one angle vector.

    s1 stacks (cos x_j, sin x_j) per node; s2 stacks
    (cos(x_j - x_k), sin(x_j - x_k), cos(x_j + x_k), sin(x_j + x_k))
    per pair j < k. A one-row view of :func:`suff_stats_batch`.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise DomainError("x must be a 1-D angle vector")
    full = suff_stats_batch(x)[0]
    return SufficientStats(full[: 2 * x.size], full[2 * x.size :])


def _read_only(*arrays):
    """The arrays, locked against writes, so that a cache may share them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=32)
def _edge_index_arrays(d):
    """First and second nodes of every pair, in canonical edge order, as
    read-only arrays cached by d."""
    return _read_only(*np.triu_indices(d, 1))


def suff_stats_batch(X):
    """Sufficient statistics for each row of an (n, d) angle matrix -> (n, 2d^2)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    out = np.empty((n, param_dim(d)))
    out[:, 0 : 2 * d : 2] = np.cos(X)
    out[:, 1 : 2 * d : 2] = np.sin(X)
    if d > 1:
        jj, kk = _edge_index_arrays(d)
        diff = X[:, jj] - X[:, kk]
        summ = X[:, jj] + X[:, kk]
        out[:, 2 * d + 0 :: 4] = np.cos(diff)
        out[:, 2 * d + 1 :: 4] = np.sin(diff)
        out[:, 2 * d + 2 :: 4] = np.cos(summ)
        out[:, 2 * d + 3 :: 4] = np.sin(summ)
    return out


@functools.lru_cache(maxsize=32)
def _node_coords(d):
    """Coordinates of the statistics that depend on each angle, as a
    read-only (d, 4d - 2) array cached by d. Row l holds node l's 2d - 1
    slots, each the (cos u, sin u) pair of one angle u that x_l enters: its
    marginal (u = x_l), then the differences x_j - x_k of its pairs, then
    their sums, partners in increasing order."""
    nodes = np.arange(d)
    jj, kk = _edge_index_arrays(d)
    rank = np.zeros((d, d), dtype=int)
    rank[jj, kk] = rank[kk, jj] = np.arange(jj.size)
    partner = np.arange(d - 1) + (np.arange(d - 1) >= nodes[:, None])  # (d, d - 1)
    start = 2 * d + 4 * rank[nodes[:, None], partner]
    cos_at = np.hstack([2 * nodes[:, None], start, start + 2])  # (d, 2d - 1) slots
    return _read_only(np.stack([cos_at, cos_at + 1], axis=2).reshape(d, -1))[0]


def _conditional_coefficients(params):
    """Every node's conditional exponent as rows (d, 2, 2d) and bias (d, 2),
    scattered from the coupling table: for a state x with cs = (cos x | sin x)
    and b = rows[k] @ cs + bias[k], phi . S(x) is b[0] cos x_k + b[1] sin x_k
    plus terms free of x_k. So x_k given the rest is von Mises with
    concentration hypot(b[0], b[1]) and mean atan2(b[1], b[0]), and the model
    score d(phi . S)/dx_k is b[1] cos x_k - b[0] sin x_k. rows[k] is zero on
    x_k's own two columns; bias[k] is node k's marginal block."""
    d = params.d
    jj, kk = _edge_index_arrays(d)
    a, b, g, dl = params.phi[coupling_coords(d)].T
    rows = np.zeros((d, 2, 2 * d))
    # for node k the neighbor is j (j < k, sign -1); for node j it is k (+1)
    for node, other, h in ((kk, jj, -1.0), (jj, kk, +1.0)):
        rows[node, 0, other] += a + g
        rows[node, 0, d + other] += dl - h * b
        rows[node, 1, other] += h * b + dl
        rows[node, 1, d + other] += a - g
    return rows, params.phi[: 2 * d].reshape(d, 2)


def log_unnorm_density(params, x):
    """Exponent phi . S(x); 2pi-periodic in every coordinate.

    ``x`` may be a single angle vector or an (n, d) matrix of them.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != params.d:
        raise DomainError(f"x has dimension {x.shape[-1]}, model has {params.d}")
    if x.ndim == 1:
        return float(suff_stats(x).full @ params.phi)
    return suff_stats_batch(x) @ params.phi


def to_natural(mc):
    """Map mean-centered parameters to the natural coefficient vector.

    Marginal blocks are (kappa cos mu, kappa sin mu); each coupling block is
    the half-sum/half-difference combination of the interaction quadruple
    rotated by the mean differences and sums.
    """
    d = mc.d
    phi = np.zeros(param_dim(d))
    phi[0 : 2 * d : 2] = mc.kappa * np.cos(mc.mu)
    phi[1 : 2 * d : 2] = mc.kappa * np.sin(mc.mu)
    jj, kk = _edge_index_arrays(d)
    lcc, lcs, lsc, lss = mc.lambdas.T
    dm = mc.mu[jj] - mc.mu[kk]
    sm = mc.mu[jj] + mc.mu[kk]
    phi[coupling_coords(d)] = 0.5 * np.column_stack(
        [
            (lcc + lss) * np.cos(dm) + (lcs - lsc) * np.sin(dm),
            (lsc - lcs) * np.cos(dm) + (lcc + lss) * np.sin(dm),
            (lcc - lss) * np.cos(sm) + (-lcs - lsc) * np.sin(sm),
            (lcs + lsc) * np.cos(sm) + (lcc - lss) * np.sin(sm),
        ]
    )
    return TorusGraphParams(d=d, phi=phi, family=Family.FULL)


def to_mean_centered(params):
    """Invert :func:`to_natural`; requires every marginal block nonzero.

    Raises
    ------
    UnidentifiedMeanError
        If some node has a zero marginal block (mean direction undefined).
    """
    d = params.d
    cosb = params.phi[0 : 2 * d : 2]
    sinb = params.phi[1 : 2 * d : 2]
    kappa = np.hypot(cosb, sinb)
    if np.any(kappa == 0.0):
        j = int(np.nonzero(kappa == 0.0)[0][0])
        raise UnidentifiedMeanError(f"node {j} has zero concentration; mean direction unidentified")
    mu = wrap_angle(np.arctan2(sinb, cosb))
    mu = np.atleast_1d(mu)
    jj, kk = _edge_index_arrays(d)
    p1, p2, p3, p4 = params.phi[coupling_coords(d)].T
    dm = mu[jj] - mu[kk]
    sm = mu[jj] + mu[kk]
    cdm, sdm, csm, ssm = np.cos(dm), np.sin(dm), np.cos(sm), np.sin(sm)
    lambdas = np.column_stack(
        [
            p1 * cdm + p2 * sdm + p3 * csm + p4 * ssm,
            -p2 * cdm + p1 * sdm + p4 * csm - p3 * ssm,
            p2 * cdm - p1 * sdm + p4 * csm - p3 * ssm,
            p1 * cdm + p2 * sdm - p3 * csm - p4 * ssm,
        ]
    )
    return MeanCenteredParams(mu=mu, kappa=kappa, lambdas=lambdas)


def sine_model_embed(mu, kappa, lambda_ss):
    """Natural coefficients of the curved submodel with ss-interactions only.

    Every resulting coupling block satisfies phi1^2 + phi2^2 = phi3^2 + phi4^2,
    the structural constraint that makes this submodel non-affine.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    d = mu.size
    lam = np.zeros((d * (d - 1) // 2, 4))
    lam[:, 3] = np.asarray(lambda_ss, dtype=float)
    return to_natural(MeanCenteredParams(mu=mu, kappa=kappa, lambdas=lam))


def apply_family(params, family):
    """Zero the coefficients masked by ``family`` and record it."""
    family = Family(family)
    phi = np.array(params.phi, dtype=float)
    phi[~family_mask(params.d, family)] = 0.0
    return TorusGraphParams(d=params.d, phi=phi, family=family)
