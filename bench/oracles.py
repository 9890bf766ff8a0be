"""Reference values computed without ordent.

Every check in the benchmark compares ordent's output with a value derived
here from first principles: closed forms evaluated in mpmath, or
scipy.integrate.quad over scipy.stats laws.  Nothing here imports ordent, so
a fault in the package cannot leak into its own oracle.  These imports are
heavy and run only after the timed loop.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy import integrate, stats

mp.mp.dps = 40


def rank(n: int, p: float) -> int:
    """Rank k = round-half-up(n p) clipped to [1, n], in exact arithmetic."""
    k = math.floor(Fraction(n) * Fraction(str(p)) + Fraction(1, 2))
    return min(max(k, 1), n)


def beta_params(n: int, p: float) -> tuple[int, int]:
    k = rank(n, p)
    return k, n + 1 - k


def k1(n: int, p: float) -> float:
    """1/2 log(2 pi e p(1-p)/n) minus the entropy of Beta(k, n+1-k)."""
    a, b = (mp.mpf(x) for x in beta_params(n, p))
    pp = mp.mpf(str(p))
    h = (mp.log(mp.beta(a, b)) - (a - 1) * mp.digamma(a) - (b - 1) * mp.digamma(b)
         + (a + b - 2) * mp.digamma(a + b))
    return float(mp.log(2 * mp.pi * mp.e * pp * (1 - pp) / n) / 2 - h)


def uniform_terms(n: int, p: float) -> tuple[float, float]:
    """(k2, k3) for the Uniform(0, 1) parent: X = U, f = 1, k3 = 0."""
    a, b = (mp.mpf(x) for x in beta_params(n, p))
    pp = mp.mpf(str(p))
    mean = a / (a + b)
    var = a * b / ((a + b) ** 2 * (a + b + 1))
    v = pp * (1 - pp) / n
    return float((var + (mean - pp) ** 2) / (2 * v) - mp.mpf(1) / 2), 0.0


def exponential_terms(n: int, p: float) -> tuple[float, float]:
    """(k2, k3) for the rate-1 exponential: X = -log V with V = 1-U ~ Beta(b, a)."""
    a, b = (mp.mpf(x) for x in beta_params(n, p))
    pp = mp.mpf(str(p))
    mean_x = mp.digamma(a + b) - mp.digamma(b)
    var_x = mp.polygamma(1, b) - mp.polygamma(1, a + b)
    mu = -mp.log(1 - pp)
    v = pp / (n * (1 - pp))  # p(1-p) / (n f(mu)^2) with f(mu) = 1 - p
    k2 = (var_x + (mean_x - mu) ** 2) / (2 * v) - mp.mpf(1) / 2
    k3 = (mp.digamma(b) - mp.digamma(a + b)) - mp.log(1 - pp)
    return float(k2), float(k3)


def closed_terms(family: str, n: int, p: float) -> tuple[float, float]:
    return {"uniform": uniform_terms, "exponential": exponential_terms}[family](n, p)


def cauchy_k2(n: int, p: float) -> float:
    """k2 for the standard Cauchy parent by tanh-sinh quadrature in mpmath.

    F^{-1}(u) = tan(pi (u - 1/2)) and f(F^{-1}(p)) = sin(pi p)^2 / pi; only
    meaningful where cauchy_diverges is false.
    """
    a, b = beta_params(n, p)
    pp = mp.mpf(str(p))
    half = mp.mpf(1) / 2
    mu = mp.tan(mp.pi * (pp - half))
    norm = mp.beta(a, b)

    def integrand(u):
        return u ** (a - 1) * (1 - u) ** (b - 1) / norm * (mp.tan(mp.pi * (u - half)) - mu) ** 2

    m = mp.mpf(a) / (a + b)
    mse = mp.quad(integrand, [0, m / 4, m / 2, m, (1 + m) / 2, 1 - (1 - m) / 4, 1])
    v = pp * (1 - pp) / (n * (mp.sin(mp.pi * pp) ** 2 / mp.pi) ** 2)
    return float(mse / (2 * v) - half)


def cauchy_diverges(n: int, p: float) -> bool:
    """E[F^{-1}(U)^2] under Beta(a, b) is finite only when a > 2 and b > 2.

    |F^{-1}(u)|^2 grows like u^-2 (and (1-u)^-2) against a weight of order
    u^(a-1), so the integral converges exactly when a - 1 - 2 > -1.
    """
    a, b = beta_params(n, p)
    return not (a > 2 and b > 2)


SCIPY_LAWS = {
    "gaussian": stats.norm(),
    "exponential": stats.expon(),
    "uniform": stats.uniform(),
}


def beta_quad(g, a: float, b: float) -> float:
    """E[g(U)] for U ~ Beta(a, b) by scipy.integrate.quad with bulk breakpoints."""
    law = stats.beta(a, b)
    mean, sd = law.mean(), law.std()
    lo, hi = law.ppf(1e-16), law.isf(1e-16)
    pts = sorted({x for j in (-8, -4, -2, -1, 0, 1, 2, 4, 8)
                  if lo < (x := mean + j * sd) < hi})

    def integrand(u):
        return law.pdf(u) * g(u)

    val, _ = integrate.quad(integrand, lo, hi, points=pts, limit=500,
                            epsabs=0.0, epsrel=1e-12)
    return float(val)


def quantile_mse(family: str, n: int, p: float) -> float:
    """E[(F^{-1}(U_(k)) - F^{-1}(p))^2] over scipy.stats."""
    law = SCIPY_LAWS[family]
    mu = law.ppf(p)
    a, b = beta_params(n, p)
    return beta_quad(lambda u: (law.ppf(u) - mu) ** 2, a, b)


def log_density_ratio(family: str, n: int, p: float) -> float:
    """E[log f(F^{-1}(U_(k)))] - log f(F^{-1}(p)) over scipy.stats."""
    law = SCIPY_LAWS[family]
    a, b = beta_params(n, p)
    return beta_quad(lambda u: law.logpdf(law.ppf(u)), a, b) - float(law.logpdf(law.ppf(p)))


def order_stat_abs_moment(family: str, n: int, k: int, q: float) -> float:
    """E|X_(k)|^q over scipy.stats."""
    law = SCIPY_LAWS[family]
    return beta_quad(lambda u: np.abs(law.ppf(u)) ** q, k, n + 1 - k)


def uniform_second_moment(n: int, k: int) -> float:
    """E[U_(k)^2] = k(k+1) / ((n+1)(n+2))."""
    return k * (k + 1) / ((n + 1) * (n + 2))


def stirling_ratio(alpha: float, beta: float, q: float) -> tuple[float, float]:
    """(B(a*, b*)^(1/q) / B(alpha, beta), C_q n^((1-1/q)/2)) in mpmath.

    a* = q(alpha-1)+1, b* = q(beta-1)+1, n = alpha + beta - 1 and
    C_q = e^(1+2/q) sqrt(2 pi)^(1/q-1) q^(-1/(2q)).
    """
    a, b, qq = mp.mpf(alpha), mp.mpf(beta), mp.mpf(q)
    ratio = mp.beta(qq * (a - 1) + 1, qq * (b - 1) + 1) ** (1 / qq) / mp.beta(a, b)
    c_q = mp.e ** (1 + 2 / qq) * mp.sqrt(2 * mp.pi) ** (1 / qq - 1) * qq ** (-1 / (2 * qq))
    return float(ratio), float(c_q * (a + b - 1) ** ((1 - 1 / qq) / 2))


def loglog_slope(ns, values) -> float:
    """Least-squares slope of log|value| against log n."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.abs(np.asarray(values, dtype=float)))
    return float(np.polyfit(x, y, 1)[0])
