"""Gibbs sampling via exact von Mises full conditionals.

The conditional of one coordinate given the rest collapses, by harmonic
addition, to a single von Mises density. Writing the conditional exponent as
b_x cos(x_k) + b_y sin(x_k), the marginal block contributes the constant
terms and each coupling block contributes linear combinations of cos(x_j) and
sin(x_j) with coefficients fixed by the block. Those coefficients are
tabled once, by :func:`torusgraphs.model._conditional_coefficients`, whose
table also gives the sandwich covariance its model score, and serve
:func:`conditional_von_mises` and both samplers. The one-chain
(:func:`gibbs_sample`) and the many-chain (:func:`gibbs_sample_chains`)
sampler share their checked start (:func:`_start`) and keep schedule
(:func:`_kept_states`); only their node updates differ.
"""

import math
from dataclasses import dataclass

import numpy as np

from .circular import wrap_angle
from .exceptions import DomainError
from .model import TorusGraphParams, _conditional_coefficients


@dataclass(frozen=True)
class GibbsConfig:
    """Chain settings: kept samples, burn-in sweeps, thinning and seed."""

    n_samples: int
    burn_in: int = 500
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise DomainError("n_samples must be >= 1")
        if self.thin < 1:
            raise DomainError("thin must be >= 1")
        if self.burn_in < 0:
            raise DomainError("burn_in must be >= 0")


def conditional_von_mises(params, k, x_rest):
    """Amplitude and phase (A, Delta) of the von Mises conditional of node k,
    proportional to exp(A cos(x_k - Delta)), given ``x_rest``, the other
    d - 1 coordinates in index order."""
    d = params.d
    x_rest = np.asarray(x_rest, dtype=float)
    if not 0 <= k < d:
        raise DomainError(f"node index {k} out of range for d={d}")
    if x_rest.shape != (d - 1,):
        raise DomainError(f"x_rest must have length {d - 1}")
    (cx, cy), (bias_x, bias_y) = (t[k] for t in _conditional_coefficients(params))
    # x_k itself meets only the zero columns of its own rows
    x = np.insert(x_rest, k, 0.0)
    c, s = np.cos(x), np.sin(x)
    bx = bias_x + cx[:d] @ c + cx[d:] @ s
    by = bias_y + cy[:d] @ c + cy[d:] @ s
    amp = float(np.hypot(bx, by))
    if amp == 0.0:
        return 0.0, 0.0
    return amp, wrap_angle(np.arctan2(by, bx))


def _start(params_list, cfg):
    """Both samplers' set-up for a nonempty list of C TorusGraphParams of one
    dimension d: the generator seeded by ``cfg.seed``, the start x (C, d)
    drawn uniformly on [0, 2pi) from it, and node k's rows and bias of
    :func:`_conditional_coefficients` in chain c as weights[k, c] and
    bias[k, c]."""
    if not params_list:
        raise DomainError("need at least one parameter set")
    if not all(isinstance(p, TorusGraphParams) for p in params_list):
        raise DomainError("params must be TorusGraphParams")
    d = params_list[0].d
    if any(p.d != d for p in params_list):
        raise DomainError(f"all chains need the same dimension, got {[p.d for p in params_list]}")
    rng = np.random.default_rng(cfg.seed)
    x = rng.uniform(0.0, 2.0 * np.pi, size=(len(params_list), d))
    weights, bias = (np.stack(t, axis=1)
                     for t in zip(*(_conditional_coefficients(p) for p in params_list)))
    return rng, x, weights, bias


def _kept_states(cfg, x, sweep):
    """Both samplers' keep schedule: ``sweep()`` updates the state x (C, d)
    in place, burn_in + thin times before the first kept state and thin times
    before each later one. Returns the (C, n_samples, d) kept angles."""
    out = np.empty((x.shape[0], cfg.n_samples, x.shape[1]))
    for _ in range(cfg.burn_in):
        sweep()
    for i in range(cfg.n_samples):
        for _ in range(cfg.thin):
            sweep()
        out[:, i] = x
    return wrap_angle(out)


def gibbs_sample(params, cfg):
    """Systematic-scan Gibbs sampler; returns an (n_samples, d) angle matrix.

    From a uniform random start, each sweep updates coordinates 0..d-1 in
    order from their exact von Mises full conditionals; after ``burn_in``
    sweeps, every ``thin``-th sweep is kept. Deterministic given ``cfg.seed``.

    Single-site updates mix the collective rotation slowly when coupling
    norms are very large (each conditional pins a coordinate to its
    neighbors, so the global phase performs a small-step random walk);
    increase burn_in/thin, or pool several chains, when block norms are far
    above the O(1) regime. :func:`gibbs_sample_chains` runs such chains in
    one sweep loop; this one-chain node update stays scalar because one
    chain through numpy array calls is slower.
    """
    rng, state, weights, bias = _start([params], cfg)
    x, d, rows = state[0], state.shape[1], weights[:, 0]
    cx_c, cx_s, cy_c, cy_s = rows[:, 0, :d], rows[:, 0, d:], rows[:, 1, :d], rows[:, 1, d:]
    k1, k2 = bias[:, 0].T
    cos_x, sin_x = np.cos(x), np.sin(x)
    dot, vonmises = np.dot, rng.vonmises

    def sweep():
        for k in range(d):
            bx = k1[k] + dot(cx_c[k], cos_x) + dot(cx_s[k], sin_x)
            by = k2[k] + dot(cy_c[k], cos_x) + dot(cy_s[k], sin_x)
            xk = vonmises(math.atan2(by, bx), math.hypot(bx, by))
            x[k] = xk
            cos_x[k] = math.cos(xk)
            sin_x[k] = math.sin(xk)

    return _kept_states(cfg, state, sweep)[0]


def _chain_conditionals(weights, bias, cs, b, mean, amp):
    """Von Mises (mean, concentration) of one node in every chain, written into
    ``mean`` and ``amp`` (C,) through the work array ``b`` (C, 2, 1), from the
    node's rows ``weights`` (C, 2, 2d) and ``bias`` (C, 2) of the conditional
    table in each chain and each chain's state ``cs`` (C, 2d), (cos x | sin x)."""
    np.matmul(weights, cs[:, :, None], out=b)
    np.add(b[:, :, 0], bias, out=b[:, :, 0])
    np.arctan2(b[:, 1, 0], b[:, 0, 0], out=mean)
    np.hypot(b[:, 0, 0], b[:, 1, 0], out=amp)
    return mean, amp


def gibbs_sample_chains(params_list, cfg):
    """Systematic-scan Gibbs sampler for C chains at once; returns a
    (C, n_samples, d) angle array, chain c drawn from ``params_list[c]``.

    Every chain follows the start and keep schedule of :func:`gibbs_sample`;
    one node update draws that node in all chains with one array call on a
    single generator seeded by ``cfg.seed``. The chains share that stream,
    so a chain's draws depend on the whole list; a one-element list draws
    :func:`gibbs_sample`'s stream, equal up to rounding.
    """
    rng, x, weights, bias = _start(params_list, cfg)
    C, d = x.shape
    cs = np.hstack([np.cos(x), np.sin(x)])
    work = np.empty((C, 2, 1)), np.empty(C), np.empty(C)  # each update's b, mean and amp
    vonmises = rng.vonmises

    def sweep():
        for k in range(d):
            xk = vonmises(*_chain_conditionals(weights[k], bias[k], cs, *work))
            x[:, k] = xk
            np.cos(xk, out=cs[:, k])
            np.sin(xk, out=cs[:, d + k])

    return _kept_states(cfg, x, sweep)
