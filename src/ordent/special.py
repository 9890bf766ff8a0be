"""Scalar special functions behind the entropy and bound formulas.

All logarithms are natural: every entropy produced downstream is in nats.
Harmonic numbers, and log-factorials up to ``HARMONIC_CACHE_SIZE``, are
evaluated in extended precision because the exact order-statistic entropy is
a small difference of terms that grow like ``n log n``; beyond that size
float64 log-gamma takes over.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special as _sc

__all__ = [
    "EULER_GAMMA",
    "HARMONIC_CACHE_SIZE",
    "harmonic",
    "t_sequence",
    "log_gamma",
    "digamma",
    "log_beta",
    "regularized_incomplete_beta",
]

EULER_GAMMA = float(np.euler_gamma)

#: Largest index with extended-precision log-factorials; chosen to cover
#: every grid the experiment drivers use.
HARMONIC_CACHE_SIZE = 100_000

# Below this index H_r and log(r!) are summed term by term; from it on the
# asymptotic series, truncated after the r^-8 (H_r) and r^-9 (log r!) terms,
# err by less than one extended-precision ulp.  Only the leading terms need
# the extended type: the corrections are below 1e-2, and float64 carries
# them to ~1e-19.
_SERIES_FROM = 64
_EULER_GAMMA_EXT = np.longdouble("0.57721566490153286060651209008240243")
_HALF_LOG_2PI_EXT = np.longdouble("0.91893853320467274178032973640561764")


# Memoized because sweeps repeat their ranks; bounded to keep memory flat.
@functools.lru_cache(maxsize=1024)
def _log_factorial_ext(r: int) -> np.longdouble:
    """log(r!) in extended precision for 0 <= r <= HARMONIC_CACHE_SIZE."""
    if r < _SERIES_FROM:
        return np.sum(np.log(np.arange(1, r + 1, dtype=np.longdouble)), dtype=np.longdouble)
    x = np.longdouble(r)
    t = 1.0 / (r * r)
    corr = (1 / 12 - t * (1 / 360 - t * (1 / 1260 - t * (1 / 1680 - t / 1188)))) / r
    return (x + 0.5) * np.log(x) - x + _HALF_LOG_2PI_EXT + np.longdouble(corr)


def _check_integer(r, name: str) -> int:
    if r != int(r):
        raise ValueError(f"{name} must be an integer, got {r!r}")
    return int(r)


def harmonic(r: int) -> float:
    """H_r = sum_{k=1}^r 1/k.

    Summed term by term for r < 64; the asymptotic series log r + gamma +
    1/(2r) - 1/(12 r^2) + 1/(120 r^4) - 1/(252 r^6) + 1/(240 r^8) beyond.
    Evaluated in extended precision, so the result is H_r rounded once to float64.
    """
    r = _check_integer(r, "r")
    if r < 1:
        raise ValueError(f"harmonic requires r >= 1, got {r}")
    return float(harmonic_extended(r))


@functools.lru_cache(maxsize=1024)
def harmonic_extended(r: int) -> np.longdouble:
    """H_r in extended precision (internal precision path)."""
    if r < _SERIES_FROM:
        return np.sum(1.0 / np.arange(1, r + 1, dtype=np.longdouble), dtype=np.longdouble)
    t = 1.0 / (r * r)
    corr = 0.5 / r - t * (1 / 12 - t * (1 / 120 - t * (1 / 252 - t / 240)))
    return np.log(np.longdouble(r)) + _EULER_GAMMA_EXT + np.longdouble(corr)


def t_sequence(r: int) -> float:
    """T_r = log(r!) - r * H_r, evaluated in log space (no factorial overflow)."""
    r = _check_integer(r, "r")
    if r < 0:
        raise ValueError(f"t_sequence requires r >= 0, got {r}")
    return float(t_sequence_extended(r))


def t_sequence_extended(r: int) -> np.longdouble:
    """T_r in extended precision up to HARMONIC_CACHE_SIZE, log-gamma precision beyond."""
    if r <= HARMONIC_CACHE_SIZE:
        return _log_factorial_ext(r) - np.longdouble(r) * harmonic_extended(r)
    return np.longdouble(_sc.gammaln(r + 1.0)) - np.longdouble(r) * harmonic_extended(r)


def log_gamma(x):
    """log Gamma(x) for x > 0 (poles are not supported)."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("log_gamma requires strictly positive arguments")
    out = _sc.gammaln(arr)
    return float(out) if out.ndim == 0 else out


def digamma(x):
    """psi(x) for x > 0; satisfies psi(x+1) = psi(x) + 1/x."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("digamma requires strictly positive arguments")
    out = _sc.digamma(arr)
    return float(out) if out.ndim == 0 else out


def log_beta(a, b):
    """log B(a,b) = log Gamma(a) + log Gamma(b) - log Gamma(a+b)."""
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    if np.any(aa <= 0.0) or np.any(bb <= 0.0):
        raise ValueError("log_beta requires strictly positive arguments")
    out = _sc.gammaln(aa) + _sc.gammaln(bb) - _sc.gammaln(aa + bb)
    return float(out) if out.ndim == 0 else out


def log_beta_extended(a: float, b: float) -> np.longdouble:
    """log B(a,b) in extended precision for integer arguments up to the cache size.

    The composition of float64 log-gammas carries an absolute error near
    1e-10 once the arguments reach 1e5, which biases every normalized Beta
    weight by the same factor; integer arguments up to HARMONIC_CACHE_SIZE
    avoid that through extended-precision log-factorials.  Non-integer or
    out-of-range arguments fall back to the float64 composition.
    """
    ia, ib = int(a), int(b)
    if a == ia and b == ib and 1 <= ia and 1 <= ib and ia + ib - 1 <= HARMONIC_CACHE_SIZE:
        lf = _log_factorial_ext
        return lf(ia - 1) + lf(ib - 1) - lf(ia + ib - 1)
    return np.longdouble(_sc.gammaln(a) + _sc.gammaln(b) - _sc.gammaln(a + b))


def beta_log_density_extended(a: float, b: float, u) -> np.ndarray:
    """log of the Beta(a, b) density at u, in extended precision.

    The one Beta normalizer of the package: quadrature weights and
    ``distributions.beta_log_pdf`` both come from here, so a log density and
    the weight it stands for never differ by the float64 log-gamma bias.
    """
    ul = np.asarray(u, dtype=np.longdouble)
    return (-log_beta_extended(a, b) + np.longdouble(a - 1.0) * np.log(ul)
            + np.longdouble(b - 1.0) * np.log1p(-ul))


def regularized_incomplete_beta(a, b, x):
    """I_x(a, b), nondecreasing in x with I_0 = 0, I_1 = 1.

    Satisfies the reflection I_x(a,b) = 1 - I_{1-x}(b,a) used for accurate
    tails on either side.
    """
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    xx = np.asarray(x, dtype=float)
    if np.any(aa <= 0.0) or np.any(bb <= 0.0):
        raise ValueError("regularized_incomplete_beta requires a, b > 0")
    if np.any(xx < 0.0) or np.any(xx > 1.0):
        raise ValueError("regularized_incomplete_beta requires x in [0, 1]")
    out = _sc.betainc(aa, bb, xx)
    return float(out) if out.ndim == 0 else out
