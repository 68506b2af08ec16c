"""Scalar circular-statistics primitives.

Angles are plain floats (or numpy arrays) in radians; every public function
wraps its angular output to [0, 2pi). Functions are pure and hold no state;
random sampling takes a caller-owned numpy Generator, so concurrent use with
independently seeded generators is safe.

References
----------
Fisher, N. I. (1993). Statistical Analysis of Circular Data. Cambridge.
Mardia, K. V. & Jupp, P. E. (2000). Directional Statistics. Wiley.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, i0e, i1e, kolmogorov

from .exceptions import DegenerateDataError, DomainError

TWO_PI = 2.0 * np.pi

_DEGENERATE_LENGTH = 1e-12


def wrap_angle(x):
    """Wrap angles to [0, 2pi).

    Accepts a scalar or array; idempotent and 2pi-periodic.

    Raises
    ------
    DomainError
        If any input is not finite.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("angles must be finite")
    w = np.mod(x, TWO_PI)
    # np.mod can return 2pi when x is a tiny negative number
    w = np.where(w >= TWO_PI, 0.0, w)
    if w.ndim == 0:
        return float(w)
    return w


def _bessel_argument(z):
    """Validated Bessel argument as a 1-D array, plus whether it was scalar."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)) or np.any(z < 0):
        raise DomainError("Bessel argument must be finite and >= 0")
    return np.atleast_1d(z), z.ndim == 0


def bessel_i(order, z):
    """Modified Bessel function of the first kind, I_0 or I_1.

    The exponentially scaled scipy.special.i0e / i1e times e^z; finite for
    z <= ~700 (beyond that e^z overflows the double range).

    Parameters
    ----------
    order : int
        0 or 1.
    z : float or ndarray
        Nonnegative argument.
    """
    if order not in (0, 1):
        raise DomainError(f"unsupported Bessel order {order!r}; only 0 and 1")
    z, scalar = _bessel_argument(z)
    out = (i0e if order == 0 else i1e)(z) * np.exp(z)
    return float(out[0]) if scalar else out


def log_bessel_i0(z):
    """log I_0(z), overflow-free for large z."""
    z, scalar = _bessel_argument(z)
    out = np.log(i0e(z)) + z
    return float(out[0]) if scalar else out


def bessel_ratio(z):
    """I_1(z) / I_0(z): strictly increasing from 0 toward 1.

    The exponential scalings cancel, so arguments far beyond the overflow
    point of I_m itself (z >= 1e4) are fine.
    """
    z, scalar = _bessel_argument(z)
    out = i1e(z) / i0e(z)
    return float(out[0]) if scalar else out


def harmonic_addition(amplitudes, phases):
    """Collapse sum(a_i cos(x - delta_i)) into a single A cos(x - Delta).

    Returns
    -------
    (A, Delta) : (float, float)
        Amplitude A >= 0 and phase Delta in [0, 2pi). When A is zero the
        phase is reported as 0.
    """
    a = np.asarray(amplitudes, dtype=float)
    d = np.asarray(phases, dtype=float)
    if a.size == 0 or a.shape != d.shape:
        raise DomainError("amplitudes and phases must be equal-length, nonempty")
    bx = float(np.sum(a * np.cos(d)))
    by = float(np.sum(a * np.sin(d)))
    amp = float(np.hypot(bx, by))
    if amp == 0.0:
        return 0.0, 0.0
    return amp, wrap_angle(np.arctan2(by, bx))


@dataclass(frozen=True)
class Resultant:
    """First circular moment of a sample: mean direction and resultant length.

    ``degenerate`` flags a vanishing resultant, in which case the direction
    is reported as 0 by convention.
    """

    mean_direction: float
    mean_resultant_length: float
    degenerate: bool = False


def _resultant(angles):
    """Mean cosine, mean sine and their hypot (the resultant length) of the
    angles along the last axis, each row summed on its own."""
    c = np.mean(np.cos(angles), axis=-1)
    s = np.mean(np.sin(angles), axis=-1)
    return c, s, np.hypot(c, s)


def circular_mean_resultant(angles):
    """Mean direction and mean resultant length of a sample of angles."""
    a = np.asarray(angles, dtype=float)
    if a.size == 0:
        raise DomainError("need at least one angle")
    c, s, length = (float(v) for v in _resultant(a.ravel()))
    if length < _DEGENERATE_LENGTH:
        return Resultant(0.0, length, degenerate=True)
    return Resultant(wrap_angle(np.arctan2(s, c)), min(length, 1.0))


def _rayleigh(angles, name):
    """(:func:`rayleigh_statistic`, :func:`rayleigh_test`) of the angles
    along the last axis, as arrays for a 2-D input (one test per row); an
    error message calls the result ``name``."""
    a = np.asarray(angles, dtype=float)
    n = a.shape[-1]
    if n < 2:
        raise DomainError(f"Rayleigh {name} needs at least 2 angles")
    rbar = np.minimum(_resultant(a)[2], 1.0)
    r = n * rbar
    p = np.exp(np.sqrt(1.0 + 4.0 * n + 4.0 * (n * n - r * r)) - (1.0 + 2.0 * n))
    return r * rbar, np.clip(p, 0.0, 1.0)


def rayleigh_test(angles):
    """Rayleigh test of circular uniformity; returns the p-value.

    Uses the refined exponential approximation
    p = exp(sqrt(1 + 4N + 4(N^2 - R^2)) - (1 + 2N)) with R = N * Rbar,
    clamped to [0, 1].
    """
    return float(_rayleigh(np.ravel(angles), "test")[1])


def rayleigh_statistic(angles):
    """Rayleigh Z = N * Rbar^2, the statistic behind :func:`rayleigh_test`."""
    return float(_rayleigh(np.ravel(angles), "statistic")[0])


def plv(x, y):
    """Phase locking value |mean exp(i(x - y))| of two equal-length samples.

    Invariant under adding a common constant to both channels; 1 when the
    differences are constant, 0 when they cancel.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or x.shape != y.shape:
        raise DomainError("inputs must be equal-length and nonempty")
    return min(float(_resultant((x - y).ravel())[2]), 1.0)


def circular_correlation(x, y):
    """Circular correlation coefficient in [-1, 1].

    Sample version of E[sin(X - mu_x) sin(Y - mu_y)] normalized by the two
    sine second moments; +1 for perfect rotational dependence, -1 for
    perfect reflectional dependence.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or x.shape != y.shape:
        raise DomainError("inputs must be equal-length with at least 2 samples")
    mx = circular_mean_resultant(x).mean_direction
    my = circular_mean_resultant(y).mean_direction
    sx = np.sin(x - mx)
    sy = np.sin(y - my)
    den = float(np.sqrt(np.mean(sx * sx) * np.mean(sy * sy)))
    if den < 1e-15:
        raise DegenerateDataError("zero sine dispersion; correlation undefined")
    rho = float(np.mean(sx * sy)) / den
    return float(np.clip(rho, -1.0, 1.0))


def chi2_sf(x, df):
    """Upper tail of the chi-squared distribution (regularized incomplete gamma).

    ``x`` may be an array of statistics sharing one ``df``, as the stacked
    edge tests pass it; each entry equals the scalar call on it.
    """
    if df <= 0:
        raise DomainError("degrees of freedom must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("chi-squared statistic must be >= 0")
    p = gammaincc(df / 2.0, x / 2.0)
    return float(p) if p.ndim == 0 else p


def fisher_combine(pvals):
    """Combine independent p-values: -2 sum(log p) referred to chi2(2k)."""
    p = np.asarray(pvals, dtype=float)
    if p.size == 0:
        raise DomainError("need at least one p-value")
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise DomainError("p-values must lie in (0, 1]")
    x2 = -2.0 * float(np.sum(np.log(p)))
    return chi2_sf(x2, 2 * p.size)


def von_mises_sample(mu, kappa, n, rng):
    """Draw n von Mises variates wrapped to [0, 2pi).

    kappa = 0 gives the uniform distribution. Uses the wrapped-Cauchy
    rejection sampler (Best & Fisher, 1979) as provided by numpy; the
    caller owns the generator, so draws are deterministic given its seed.
    """
    if not np.isfinite(kappa) or kappa < 0:
        raise DomainError("concentration must be finite and >= 0")
    if n < 0:
        raise DomainError("sample count must be >= 0")
    return wrap_angle(rng.vonmises(mu, kappa, size=n))


def ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov p-value.

    The statistic D is the sup distance between empirical CDFs; the p-value
    is the asymptotic Kolmogorov distribution evaluated at
    sqrt(n_a n_b / (n_a + n_b)) * D.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise DomainError("both samples must be nonempty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = a.size * b.size / (a.size + b.size)
    p = float(kolmogorov(np.sqrt(n_eff) * d))
    return float(np.clip(p, 0.0, 1.0))
