"""A long-double reference for the statistics, the moments and the sandwich.

Every quantity is evaluated from the float64 angles, taken as exact, in
numpy's long double (64-bit mantissa on x86-64, eps 1.1e-19): the sufficient
statistics, the per-sample Jacobian, the node blocks B_l and H_hat, and the
sandwich Sigma = Gamma_A^-1 V_A Gamma_A^-1 on the active set A, through a
long-double Cholesky written here (numpy.linalg has no long double). The
cases are small, d <= 4 and N <= 64, and the angles lie in [0, 2pi).

Bounds, fixed before the first run:
- statistics within 2e-15 abs. A cosine or sine rounds to 1.1e-16, but the
  package forms x_j -+ x_k in float64 first, which rounds by up to
  eps * 2pi / 2 = 7e-16 on [0, 2pi); that error passes through a function of
  slope <= 1;
- moments within 1e-13 abs. Each entry of B_l is a mean of products of two
  derivatives bounded by 1, and each entry of H_hat a mean of terms bounded
  by 2, so a float64 sum of N = 64 terms is off by at most
  64 * eps * 2 = 2.8e-14, plus the inputs' own rounding, a few 1e-15 per term.

The sandwich blocks are only measured against the reference (run this file as
a script to print the gaps of the package and of the dense oracle in
``test_dense_oracle.py``, on the cases above and on the 40 derandomized
examples of ``test_dense_oracle.test_cov_blocks_match_dense``); the tests
below check the reference itself.
"""

import numpy as np
import pytest

from torusgraphs.estimation import accumulate_moments, fit_closed_form
from torusgraphs.inference import asymptotic_cov
from torusgraphs.model import Family, _node_coords, suff_stats_batch

from test_dense_oracle import coupled_sample, dense_cov, dense_moments

LD = np.longdouble
CASES = [(1, 5), (1, 64), (2, 17), (2, 64), (3, 33), (3, 64), (4, 48), (4, 64)]


def _pairs(d):
    return [(j, k) for j in range(d) for k in range(j + 1, d)]


def reference_stats(X):
    """Sufficient statistics (N, 2d^2) in long double: (cos x_j, sin x_j) per
    node, then (cos, sin) of x_j - x_k and of x_j + x_k per pair j < k."""
    X = np.asarray(X, dtype=float).astype(LD)
    cols = []
    for j in range(X.shape[1]):
        cols += [np.cos(X[:, j]), np.sin(X[:, j])]
    for j, k in _pairs(X.shape[1]):
        diff, summ = X[:, j] - X[:, k], X[:, j] + X[:, k]
        cols += [np.cos(diff), np.sin(diff), np.cos(summ), np.sin(summ)]
    return np.stack(cols, axis=1)


def reference_jacobian(X):
    """Per-sample derivatives (N, 2d^2, d) of the statistics, in long double,
    written out from their definition."""
    X = np.asarray(X, dtype=float).astype(LD)
    n, d = X.shape
    D = np.zeros((n, 2 * d * d, d), dtype=LD)
    for j in range(d):
        D[:, 2 * j, j] = -np.sin(X[:, j])
        D[:, 2 * j + 1, j] = np.cos(X[:, j])
    for t, (j, k) in enumerate(_pairs(d)):
        r = 2 * d + 4 * t
        diff, summ = X[:, j] - X[:, k], X[:, j] + X[:, k]
        for node, w in ((j, 1), (k, -1)):
            D[:, r, node] = -w * np.sin(diff)
            D[:, r + 1, node] = w * np.cos(diff)
            D[:, r + 2, node] = -np.sin(summ)
            D[:, r + 3, node] = np.cos(summ)
    return D


def reference_h(X):
    """H(x) = [S1, 2 S2] per sample (N, 2d^2), in long double."""
    H = reference_stats(X)
    H[:, 2 * X.shape[1] :] *= 2
    return H


def reference_moments(X):
    """Node blocks (d, 4d - 2, 4d - 2) on the coordinates of
    ``_node_coords(d)``, and H_hat (2d^2,), in long double."""
    D = reference_jacobian(X)
    n, _, d = D.shape
    idx = _node_coords(d)
    blocks = np.stack([D[:, idx[l], l].T @ D[:, idx[l], l] for l in range(d)]) / n
    return blocks, reference_h(X).sum(axis=0) / n


def cholesky_ld(A):
    """Lower Cholesky factor of a symmetric positive definite long-double
    matrix, column by column."""
    L = np.zeros_like(A)
    for j in range(A.shape[0]):
        L[j, j] = np.sqrt(A[j, j] - L[j, :j] @ L[j, :j])
        L[j + 1 :, j] = (A[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def cho_solve_ld(L, B):
    """A^-1 B for A = L L' and a 2-D B, by forward then back substitution."""
    Y = np.zeros_like(B)
    for i in range(L.shape[0]):
        Y[i] = (B[i] - L[i, :i] @ Y[:i]) / L[i, i]
    Z = np.zeros_like(B)
    for i in reversed(range(L.shape[0])):
        Z[i] = (Y[i] - L[i + 1 :, i] @ Z[i + 1 :]) / L[i, i]
    return Z


def reference_sandwich(X, params):
    """Sigma = Gamma_A^-1 V_A Gamma_A^-1 on the active coordinates A of
    ``params``, with residuals r_n = Gamma(x_n) phi - H(x_n) and
    V = R'R / N, in long double."""
    D = reference_jacobian(X)
    n = D.shape[0]
    idx = np.nonzero(params.active)[0]
    phi = params.phi.astype(LD)
    gamma = np.einsum("nil,njl->ij", D, D) / n
    R = np.einsum("nil,nl->ni", D, np.einsum("nil,i->nl", D, phi)) - reference_h(X)
    W = cho_solve_ld(cholesky_ld(gamma[np.ix_(idx, idx)]), R[:, idx].T)
    return W @ W.T / n


def case_data(d, n):
    return coupled_sample(d, seed=900 + 10 * d + n, n=n)


@pytest.mark.parametrize("d, n", CASES)
def test_stats_match_long_double(d, n):
    X = case_data(d, n)
    gap = np.abs(suff_stats_batch(X).astype(LD) - reference_stats(X))
    assert gap.max() <= 2e-15


@pytest.mark.parametrize("d, n", CASES)
def test_moments_match_long_double(d, n):
    X = case_data(d, n)
    moments = accumulate_moments(X)
    blocks, h = reference_moments(X)
    assert np.abs(moments.blocks.astype(LD) - blocks).max() <= 1e-13
    assert np.abs(moments.h_hat.astype(LD) - h).max() <= 1e-13


@pytest.mark.parametrize("m", [1, 2, 7, 32])
def test_long_double_cholesky_solves(m):
    # the reference's own factor and solve, on a well-conditioned matrix
    rng = np.random.default_rng(m)
    M = rng.normal(size=(m, m)).astype(LD)
    A = M @ M.T + m * np.eye(m, dtype=LD)
    L = cholesky_ld(A)
    assert np.all(np.triu(L, 1) == 0)
    assert np.abs(L @ L.T - A).max() <= 1e-17 * np.abs(A).max()
    B = rng.normal(size=(m, 3)).astype(LD)
    assert np.abs(A @ cho_solve_ld(L, B) - B).max() <= 1e-16 * np.abs(B).max()


def sandwich_gaps(X, fit):
    """max |Sigma - Sigma_ref| over the active block for the package and the
    dense oracle, and max |Sigma_ref|; None when the family leaves no active
    coordinate (d = 1 without marginals)."""
    idx = np.nonzero(fit.params.active)[0]
    if not idx.size:
        return None
    ref = reference_sandwich(X, fit.params)
    package = asymptotic_cov(X, fit.params, moments=fit.moments).block(idx)
    oracle = dense_cov(X, fit.params, dense_moments(X)[0])[np.ix_(idx, idx)]
    return (float(np.abs(package.astype(LD) - ref).max()),
            float(np.abs(oracle.astype(LD) - ref).max()), float(np.abs(ref).max()))


def dense_oracle_cases():
    """(X, fit) of every example that test_cov_blocks_match_dense runs, in its
    order, recorded from its call of fit_closed_form while it runs."""
    import test_dense_oracle

    cases = []
    inner = test_dense_oracle.fit_closed_form

    def recorded(X, **kwargs):
        fit = inner(X, **kwargs)
        cases.append((X, fit))
        return fit

    test_dense_oracle.fit_closed_form = recorded
    try:
        test_dense_oracle.test_cov_blocks_match_dense()
    finally:
        test_dense_oracle.fit_closed_form = inner
    return cases


def _print_gaps(label, X, fit):
    gaps = sandwich_gaps(X, fit)
    if gaps is not None:
        print(f"{label}  package {gaps[0]:.2e}  dense oracle {gaps[1]:.2e}  "
              f"max|Sigma| {gaps[2]:.2e}")
    return gaps


if __name__ == "__main__":
    for family in Family:
        for d, n in CASES:
            X = case_data(d, n)
            _print_gaps(f"{family.value:20s} d={d} N={n:3d}", X, fit_closed_form(X, family=family))
    worst = np.zeros(2)
    cases = dense_oracle_cases()
    for i, (X, fit) in enumerate(cases):
        n, d = X.shape
        gaps = _print_gaps(f"dense-oracle case {i:2d}: {fit.params.family.value:17s} d={d} N={n:3d}",
                           X, fit)
        if gaps is not None:
            worst = np.maximum(worst, gaps[:2])
    print(f"largest over the {len(cases)} dense-oracle cases: package {worst[0]:.2e}  "
          f"dense oracle {worst[1]:.2e}")
