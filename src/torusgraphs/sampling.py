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
sampler share their checked start (:func:`_start`), their visiting order
(:func:`_colour_rounds`) and their keep schedule (:func:`_kept_states`).

The visiting order colours each chain's nodes greedily by that chain's
coupling graph, so nodes of one colour share no coupling block, and a sweep
visits the colours in turn. One chain takes its nodes one by one. Many chains
run each sweep as rounds: round r draws every chain's colour-r nodes, in
chain order and then node order, with one matmul and one von Mises call. A
node's conditional reads no node of its own colour, so a round is exactly the
one-by-one update of its nodes, and a one-element list draws the one-chain
stream up to rounding, for every model. Where every pair is coupled the
colour order is the node order, one node of every chain per round; where none
is, one round holds every node.
"""

import math
from dataclasses import dataclass

import numpy as np

from .circular import wrap_angle
from .exceptions import DomainError, check_count, check_seed
from .model import TorusGraphParams, _conditional_coefficients


@dataclass(frozen=True)
class GibbsConfig:
    """Chain settings: kept samples (>= 1), burn-in sweeps (>= 0), thinning
    (>= 1) and seed (>= 0), all integers (not bool); DomainError otherwise."""

    n_samples: int
    burn_in: int = 500
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        check_count("n_samples", self.n_samples, 1)
        check_count("thin", self.thin, 1)
        check_count("burn_in", self.burn_in, 0)
        check_seed(self.seed)


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


def _colour_rounds(weights):
    """Both samplers' visiting order, from the stacked table rows weights
    (d, C, 2, 2d) of :func:`_start`: a list of rounds, each an int array of
    the flat indices c * d + k of the chain-c node-k updates it holds, in
    chain order and then node order.

    Node k of chain c takes the smallest colour held by no earlier node j of
    that chain that shares a nonzero coupling block with it (a nonzero entry
    of row k on x_j's columns), for all chains at once in one pass over the
    nodes; round r holds the colour-r nodes. No round holds two coupled nodes
    of one chain, so drawing a round's nodes from one state is the Gibbs
    update of each taken in turn. Where every pair is coupled the rounds are
    the nodes in order; where none is, one round holds them all.
    """
    d, C = weights.shape[:2]
    coupled = (weights.reshape(d, C, 4, d) != 0).any(axis=2)  # [k, c, j]
    held = np.zeros((C, d, d), dtype=bool)  # [c, j, r]: node j of chain c has colour r
    colour = np.empty((C, d), dtype=np.intp)
    chains = np.arange(C)
    for k in range(d):
        taken = (coupled[k, :, :k, None] & held[:, :k]).any(axis=1)
        colour[:, k] = np.argmin(taken, axis=1)
        held[chains, k, colour[:, k]] = True
    order = np.argsort(colour, axis=None, kind="stable")
    return np.split(order, np.cumsum(np.bincount(colour.ravel()))[:-1])


def gibbs_sample(params, cfg):
    """Systematic-scan Gibbs sampler; returns an (n_samples, d) angle matrix.

    From a uniform random start, each sweep updates every coordinate once from
    its exact von Mises full conditional, in the colour order of
    :func:`_colour_rounds` (node order when every pair is coupled); after
    ``burn_in`` sweeps, every ``thin``-th sweep is kept. Deterministic given
    ``cfg.seed``.

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
    order = np.concatenate(_colour_rounds(weights)).tolist()

    def sweep():
        for k in order:
            bx = k1[k] + dot(cx_c[k], cos_x) + dot(cx_s[k], sin_x)
            by = k2[k] + dot(cy_c[k], cos_x) + dot(cy_s[k], sin_x)
            xk = vonmises(math.atan2(by, bx), math.hypot(bx, by))
            x[k] = xk
            cos_x[k] = math.cos(xk)
            sin_x[k] = math.sin(xk)

    return _kept_states(cfg, state, sweep)[0]


def _chain_conditionals(weights, bias, cs, b, mean, amp):
    """Von Mises (mean, concentration) of a round's n updates, written into
    ``mean`` and ``amp`` (n,) through the work array ``b`` (n, 2, 1), from
    each update's table rows ``weights`` (n, 2, 2d) and ``bias`` (n, 2) and
    its chain's state ``cs`` (n, 2d), (cos x | sin x)."""
    np.matmul(weights, cs[:, :, None], out=b)
    np.add(b[:, :, 0], bias, out=b[:, :, 0])
    np.arctan2(b[:, 1, 0], b[:, 0, 0], out=mean)
    np.hypot(b[:, 0, 0], b[:, 1, 0], out=amp)
    return mean, amp


def _round_tables(flat, weights, bias, C):
    """One round's fixed arrays, made once per run from its flat indices
    c * d + k: its table rows and bias, the chains whose state rows it reads
    and a buffer to gather them into (both None when it holds one node of
    every chain, in chain order, so the state is read directly; a gather
    there was measured slower on dense models), the work arrays of
    :func:`_chain_conditionals`, and its scatter indices into x and cs."""
    d = weights.shape[0]
    c, k = np.divmod(flat, d)
    n = flat.size
    direct = n == C and np.array_equal(c, np.arange(C))
    return (weights[k, c], bias[k, c], None if direct else c,
            None if direct else np.empty((n, 2 * d)),
            (np.empty((n, 2, 1)), np.empty(n), np.empty(n)),
            flat, c * 2 * d + k, c * 2 * d + d + k)


def gibbs_sample_chains(params_list, cfg):
    """Systematic-scan Gibbs sampler for C chains at once; returns a
    (C, n_samples, d) angle array, chain c drawn from ``params_list[c]``.

    Every chain follows the start, visiting order and keep schedule of
    :func:`gibbs_sample`. A sweep runs the rounds of :func:`_colour_rounds`:
    round r draws every chain's colour-r nodes with one array call on a single
    generator seeded by ``cfg.seed``, in chain order and then node order. The
    chains share that stream, so a chain's draws depend on the whole list; a
    one-element list draws :func:`gibbs_sample`'s stream, equal up to rounding.
    """
    rng, x, weights, bias = _start(params_list, cfg)
    C, d = x.shape
    cs = np.hstack([np.cos(x), np.sin(x)])
    rounds = [_round_tables(flat, weights, bias, C) for flat in _colour_rounds(weights)]
    x_flat, cs_flat = x.reshape(-1), cs.reshape(-1)
    vonmises = rng.vonmises

    def sweep():
        for w, b, chains, rows, work, at_x, at_cos, at_sin in rounds:
            state = cs if chains is None else np.take(cs, chains, axis=0, out=rows, mode="clip")
            xk = vonmises(*_chain_conditionals(w, b, state, *work))
            x_flat[at_x] = xk
            cs_flat[at_cos] = np.cos(xk)
            cs_flat[at_sin] = np.sin(xk)

    return _kept_states(cfg, x, sweep)
