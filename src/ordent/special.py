"""Scalar special functions behind the entropy and bound formulas, and the Beta log density.

All logarithms are natural: every entropy produced downstream is in nats.
Everything is plain float64 and valid at any n.  The large cancellations
that a naive evaluation would suffer are taken out analytically:

* T_r = log(r!) - r H_r is -(1 + gamma) r plus an O(log r) remainder given
  by the Stirling series (DLMF 5.11), so the order-statistic entropy
  T_{k-1} + T_{n-k} - T_n - H_n adds up O(log n) terms only;
* the Beta log density is Loader's saddle-point form (C. Loader, "Fast and
  Accurate Computation of Binomial Probabilities", 2000): a constant made of
  Stirling remainders, minus a deviance term on each side of the mode.

Below r = 16 the sums run term by term.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sc

__all__ = [
    "EULER_GAMMA",
    "harmonic",
    "t_sequence",
]

EULER_GAMMA = float(np.euler_gamma)

# From this index on, the asymptotic series below, truncated after B_16,
# err by less than 1e-19; below it, sums run term by term.
_SERIES_FROM = 16
_LOG_2PI = math.log(2.0 * math.pi)

# Bernoulli numbers B_2, B_4, ..., B_16 and the series they give:
#   log Gamma(z + 1) - (z + 1/2) log z + z - 1/2 log 2 pi = sum B_2j / (2j (2j-1) z^(2j-1))
#   H_r - log r - gamma - 1/(2r)                           = -sum B_2j / (2j r^2j)
#   T_r + (1 + gamma) r - 1/2 log(2 pi r) + 1/2             = sum B_2j / ((2j-1) r^(2j-1))
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_STIRLING = tuple(b / ((2 * j) * (2 * j - 1)) for j, b in enumerate(_BERNOULLI, 1))
_HARMONIC = tuple(-b / (2 * j) for j, b in enumerate(_BERNOULLI, 1))
_T_SERIES = tuple(b / (2 * j - 1) for j, b in enumerate(_BERNOULLI, 1))

# Loader's form applies from this Beta parameter on (both sides); below it the
# density is summed directly, where no term is large enough to cancel.
_LOADER_FROM = 2.0


def _odd_series(z: float, coef) -> float:
    """sum_j coef[j] / z^(2j+1), for j = 0, 1, ..."""
    w = 1.0 / (z * z)
    s = 0.0
    for c in reversed(coef):
        s = s * w + c
    return s / z


def _check_integer(r, name: str) -> int:
    if r != int(r):
        raise ValueError(f"{name} must be an integer, got {r!r}")
    return int(r)


def _harmonic_exact(r: int) -> float:
    """H_r rounded once, from integer arithmetic; for small r."""
    f = math.factorial(r)
    return sum(f // j for j in range(1, r + 1)) / f


def _harmonic_minus_gamma(r: int) -> float:
    """H_r - gamma, which is psi(r + 1)."""
    if r < _SERIES_FROM:
        return _harmonic_exact(r) - EULER_GAMMA
    return math.log(r) + 0.5 / r + _odd_series(r, _HARMONIC) / r


def harmonic(r: int) -> float:
    """H_r = sum_{k=1}^r 1/k.

    Exact up to one rounding for r < 16; beyond, the asymptotic series
    log r + gamma + 1/(2r) - 1/(12 r^2) + 1/(120 r^4) - ... through the
    r^-16 term.
    """
    r = _check_integer(r, "r")
    if r < 1:
        raise ValueError(f"harmonic requires r >= 1, got {r}")
    if r < _SERIES_FROM:
        return _harmonic_exact(r)
    return _harmonic_minus_gamma(r) + EULER_GAMMA


def _t_small_terms(r: int) -> list[float]:
    """Float terms that sum to T_r = log(r!) - r H_r; for small r."""
    return [*map(math.log, range(2, r + 1)), -r * _harmonic_exact(r)]


def _t_terms(r: int) -> list[float]:
    """Float terms that sum to T_r + (1 + gamma) r, which is O(log r)."""
    if r < _SERIES_FROM:
        return [*_t_small_terms(r), r, EULER_GAMMA * r]
    return [0.5 * (_LOG_2PI + math.log(r)) - 0.5, _odd_series(r, _T_SERIES)]


def t_sequence(r: int) -> float:
    """T_r = log(r!) - r * H_r, evaluated in log space (no factorial overflow)."""
    r = _check_integer(r, "r")
    if r < 0:
        raise ValueError(f"t_sequence requires r >= 0, got {r}")
    if r < _SERIES_FROM:
        return math.fsum(_t_small_terms(r))
    return math.fsum([*_t_terms(r), -r, -EULER_GAMMA * r])


def order_stat_entropy(n: int, k: int) -> float:
    """T_{k-1} + T_{n-k} - T_n - H_n for integers 1 <= k <= n (no checks).

    The linear parts -(1 + gamma) r of the three T's add up to 1 + gamma,
    and gamma cancels against H_n, so only O(log n) terms are summed.
    """
    return math.fsum([*_t_terms(k - 1), *_t_terms(n - k), *(-t for t in _t_terms(n)),
                      1.0, -_harmonic_minus_gamma(n)])


def _stirlerr(z: float) -> float:
    """log Gamma(z + 1) - (z + 1/2) log z + z - 1/2 log 2 pi, for z > 0.

    Below 8 the recurrence stirlerr(z) = stirlerr(z + 1) + (z + 1/2) log(1 + 1/z) - 1
    carries z up to where the series is accurate.
    """
    shift = 0.0
    while z < 8.0:
        shift += (z + 0.5) * math.log1p(1.0 / z) - 1.0
        z += 1.0
    return shift + _odd_series(z, _STIRLING)


def _split(a):
    """Veltkamp's split of a into hi + lo, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _deviance(x: float, mu: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Loader's bd0: x log(x / mu) + mu - x, for x > 0 and d = mu - x.

    Where |d| < x / 5 it is the series in v = d / (2x + d),
    -x v (2 sum_{j>=1} v^2j / (2j+1) - d / x), free of the cancellation
    between its two leading terms.
    """
    with np.errstate(divide="ignore"):
        out = x * np.log(x / mu) + d
    near = np.abs(d) < 0.2 * x
    if near.any():
        t = d[near] / x
        v = t / (2.0 + t)
        w = v * v
        s = 0.0
        for j in range(8, 0, -1):
            s = s * w + 1.0 / (2 * j + 1)
        out[near] = x * v * (t - 2.0 * w * s)
    return out


def beta_log_density(a: float, b: float, u) -> np.ndarray:
    """log of the Beta(a, b) density at u in [0, 1], in float64.

    The one Beta log density of the package: quadrature weights,
    ``distributions.beta_log_pdf`` and ``order_stats.order_stat_pdf`` all
    come from here.  For a, b > 2 it is Loader's form with x = a - 1,
    y = b - 1, m = x + y and d = m u - x:

        log(m + 1) + stirlerr(m) - stirlerr(x) - stirlerr(y) + 1/2 log(m / (2 pi x y))
            - bd0(x, m u) - bd0(y, m (1 - u))

    whose large parts cancel analytically, so it stays accurate to a few
    ulp of the deviance at any a + b.  Smaller parameters use the direct
    form with ``scipy.special.betaln``.
    """
    u = np.asarray(u, dtype=float)
    if not (a > 0.0 and b > 0.0):
        raise ValueError("beta_log_density requires a, b > 0")
    if a <= _LOADER_FROM or b <= _LOADER_FROM:
        with np.errstate(divide="ignore"):
            return _sc.xlogy(a - 1.0, u) + _sc.xlog1py(b - 1.0, -u) - _sc.betaln(a, b)
    shape = u.shape
    u = u.ravel()
    x, y = a - 1.0, b - 1.0
    m = x + y
    const = (math.log(m + 1.0) + _stirlerr(m) - _stirlerr(x) - _stirlerr(y)
             + 0.5 * (math.log(m / (x * y)) - _LOG_2PI))
    # d = m u - x exactly up to one rounding (Dekker's product): rounding
    # m u first would cost d an absolute error of order eps * x
    mu = m * u
    m_hi, m_lo = _split(m)
    u_hi, u_lo = _split(u)
    d = (mu - x) + (((m_hi * u_hi - mu) + m_hi * u_lo + m_lo * u_hi) + m_lo * u_lo)
    return (const - _deviance(x, mu, d) - _deviance(y, m * (1.0 - u), -d)).reshape(shape)
