"""Parent distributions and the Beta law of uniform order statistics.

Six built-in continuous families are provided: ``uniform``, ``gaussian``,
``exponential``, ``cauchy``, and the two stress-test densities ``f1``
(2/(x log^3 x) on (e, inf), no finite absolute moment of any positive order)
and ``f2`` (1/(x log^2 x) on (0, 1/e), unbounded density whose L_m norm is
infinite for every m > 1).

Each parent exposes pdf, log-pdf, cdf, quantile, the pdf derivative, the
absolute moment E|X|^r and the L_m norm of the density.  Each family
declares how fast its quantile, log density and density grow at the ends of
quantile space (``EndpointGrowth``), and ``power_moment_finite`` turns that
into the finiteness of every expectation in the package (quadrature cannot
certify divergence); finite values are computed by quadrature in quantile
space unless a closed form is trivial.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .quadrature import _CHUNK_NODES, QuadResult, QuadResults, adaptive_quad, beta_expectation
from .special import beta_log_density, ndtri

__all__ = [
    "DistributionSpecError",
    "ClampedProbabilityWarning",
    "EndpointGrowth",
    "power_moment_finite",
    "ParentDistribution",
    "Uniform",
    "Gaussian",
    "Exponential",
    "Cauchy",
    "F1",
    "F2",
    "BetaLaw",
    "beta_mean_var",
    "beta_fourth_central_moment",
    "beta_log_pdf",
    "beta_sample",
    "beta_sample_mean",
    "random_stream",
    "make_parent",
    "parse_distribution",
    "PROB_CLAMP",
]

#: Probabilities fed to quantile functions are clamped into
#: [PROB_CLAMP, 1 - PROB_CLAMP]; heavy-tail quantiles explode at the ends.
PROB_CLAMP = 1e-15


class DistributionSpecError(ValueError):
    """Unknown family name or invalid parameters."""


class ClampedProbabilityWarning(UserWarning):
    """A quantile argument was clamped away from 0 or 1."""


def _finite(family: str, *params) -> list[float]:
    """``params`` as floats; raises ``DistributionSpecError`` unless all are finite."""
    values = [float(v) for v in params]
    if not all(map(math.isfinite, values)):
        raise DistributionSpecError(f"{family} requires finite parameters, got {values}")
    return values


def _ret(x_in, out):
    out = np.asarray(out)
    if np.ndim(x_in) == 0:
        return float(out)
    return out


class EndpointGrowth(NamedTuple):
    """Tight exponents (a0, a1) with |g(u)| = O(u^-a0) as u -> 0 and
    O((1 - u)^-a1) as u -> 1, for g = F^{-1}, log f(F^{-1}) and f(F^{-1}).

    0 means bounded or logarithmic; inf means faster than every power.
    """

    quantile: tuple[float, float] = (0.0, 0.0)
    log_pdf: tuple[float, float] = (0.0, 0.0)
    pdf: tuple[float, float] = (0.0, 0.0)


def power_moment_finite(growth: tuple[float, float], r: float,
                        alpha: float = 1.0, beta: float = 1.0) -> bool:
    """Whether E|g(U)|^r is finite for U ~ Beta(alpha, beta).

    ``growth`` is g's (a0, a1) from ``EndpointGrowth``: finite iff
    r a0 < alpha and r a1 < beta.  A zero exponent is finite at every r, an
    infinite one only at r = 0.  The defaults make U uniform.
    """
    return all(a == 0.0 or (r * a < w if a < math.inf else r == 0.0)
               for a, w in zip(growth, (alpha, beta)))


def random_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream).

    Philox streams keyed this way are independent, so parallel experiment
    shards can draw reproducibly without coordinating.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


class ParentDistribution:
    """A continuous parent law; immutable after construction."""

    name: str = "parent"
    support: tuple[float, float] = (-math.inf, math.inf)

    @property
    def growth(self) -> EndpointGrowth:
        """Each family declares its endpoint growth as a class attribute."""
        raise NotImplementedError

    # -- core surface -------------------------------------------------------
    def pdf(self, x):
        raise NotImplementedError

    def log_pdf(self, x):
        with np.errstate(divide="ignore"):
            return _ret(x, np.log(self.pdf(x)))

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, u):
        arr = np.asarray(u, dtype=float)
        # two reductions clear the common case, every point already inside
        # the clamp (quadrature nodes always are); NaN fails them
        if not (arr.min(initial=0.5) >= PROB_CLAMP and arr.max(initial=0.5) <= 1.0 - PROB_CLAMP):
            if np.any((arr < 0.0) | (arr > 1.0)):
                raise ValueError("quantile argument must lie in [0, 1]")
            clipped = np.clip(arr, PROB_CLAMP, 1.0 - PROB_CLAMP)
            if np.any(clipped != arr):
                warnings.warn(
                    f"quantile argument clamped to [{PROB_CLAMP:g}, 1-{PROB_CLAMP:g}]",
                    ClampedProbabilityWarning,
                    stacklevel=2,
                )
            arr = clipped
        return _ret(u, self._quantile(arr))

    def _quantile(self, u):
        raise NotImplementedError

    def log_pdf_at_quantile(self, u):
        """log f(F^{-1}(u)), overridden where the composition is unstable."""
        return _ret(u, self.log_pdf(self._quantile(np.clip(
            np.asarray(u, dtype=float), PROB_CLAMP, 1.0 - PROB_CLAMP))))

    # Tail quantiles take the tail mass s directly, so that s below float
    # resolution of 1-u stays meaningful; defaults fall back to the clamped
    # quantile and are overridden where the family has a stable form.
    def _quantile_lower_tail(self, s):
        return self._quantile(np.clip(np.asarray(s, dtype=float), PROB_CLAMP, 0.5))

    def _quantile_upper_tail(self, s):
        return self._quantile(np.clip(1.0 - np.asarray(s, dtype=float),
                                      0.5, 1.0 - PROB_CLAMP))

    def pdf_derivative(self, x):
        raise NotImplementedError

    # -- moments and norms --------------------------------------------------
    def abs_moment_finite(self, r: float) -> bool:
        """Whether E|X|^r = E|F^{-1}(U)|^r, U uniform, is finite."""
        return power_moment_finite(self.growth.quantile, r)

    def abs_moment(self, r: float) -> float:
        """E|X|^r, +inf when the moment diverges.

        Finite values come from quadrature in quantile coordinates.  The
        endpoints are reached through u = t^8 / 2 (and its mirror), which
        turns the u^{-a} blow-up of heavy-tail quantile powers (a < 1 when
        the moment exists) into a bounded integrand.
        """
        if r <= 0:
            raise ValueError("abs_moment requires r > 0")
        if not self.abs_moment_finite(r):
            return math.inf

        def left(t):
            with np.errstate(over="ignore", invalid="ignore"):
                return np.abs(self._quantile_lower_tail(0.5 * t**8)) ** r * 4.0 * t**7

        def right(t):
            with np.errstate(over="ignore", invalid="ignore"):
                return np.abs(self._quantile_upper_tail(0.5 * t**8)) ** r * 4.0 * t**7

        # geometric levels toward t = 0 only: toward t = 1 both sides are smooth
        levels = 1e-12 + (1.0 - 1e-12) * 2.0 ** -np.arange(1, 47)
        total = 0.0
        for side in (left, right):
            res = adaptive_quad(side, 1e-12, 1.0, tol_abs=1e-11, tol_rel=1e-10,
                                breakpoints=levels, endpoint_levels=0)
            total += res.check()
        return total

    def norm_m_finite(self, m: float) -> bool:
        """Whether ||f||_m is finite: int f^m dx = E[f(F^{-1}(U))^(m-1)], U uniform."""
        return power_moment_finite(self.growth.pdf, m - 1.0)

    def norm_m(self, m: float) -> float:
        """L_m norm of the density, +inf when divergent; m = inf is sup f."""
        if m < 1:
            raise ValueError("norm_m requires m >= 1")
        if not self.norm_m_finite(m):
            return math.inf
        if math.isinf(m):
            return self._sup_pdf()
        if m == 1:
            return 1.0
        # int f^m dx = E[f(F^{-1}(U))^{m-1}], U uniform
        res = beta_expectation(lambda u: np.exp((m - 1.0) * self.log_pdf_at_quantile(u)), 1.0, 1.0)
        return res.check() ** (1.0 / m)

    def _sup_pdf(self) -> float:
        raise NotImplementedError

    def spec_string(self) -> str:
        return f"{self.name}()"

    def __repr__(self) -> str:
        return self.spec_string()


class Uniform(ParentDistribution):
    """Uniform on (a, b)."""

    name = "uniform"
    growth = EndpointGrowth()

    def __init__(self, a: float = 0.0, b: float = 1.0):
        self.a, self.b = _finite("uniform", a, b)
        if not self.b > self.a:
            raise DistributionSpecError("uniform requires b > a")
        self.support = (self.a, self.b)
        self._w = self.b - self.a

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        return _ret(x, np.where((arr > self.a) & (arr < self.b), 1.0 / self._w, 0.0))

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        return _ret(x, np.clip((arr - self.a) / self._w, 0.0, 1.0))

    def _quantile(self, u):
        return self.a + u * self._w

    def log_pdf_at_quantile(self, u):
        return _ret(u, np.full_like(np.asarray(u, dtype=float), -math.log(self._w)))

    def pdf_derivative(self, x):
        return _ret(x, np.zeros_like(np.asarray(x, dtype=float)))

    def norm_m(self, m):
        if m < 1:
            raise ValueError("norm_m requires m >= 1")
        return self._w ** (1.0 / m - 1.0) if not math.isinf(m) else 1.0 / self._w

    def _sup_pdf(self):
        return 1.0 / self._w

    def spec_string(self):
        return f"uniform(a={self.a:g},b={self.b:g})"


class Gaussian(ParentDistribution):
    """Normal with mean mu and standard deviation sigma."""

    name = "gaussian"
    growth = EndpointGrowth()

    def __init__(self, mu: float = 0.0, sigma: float = 1.0):
        self.mu, self.sigma = _finite("gaussian", mu, sigma)
        if self.sigma <= 0:
            raise DistributionSpecError("gaussian requires sigma > 0")
        self.support = (-math.inf, math.inf)

    def _z(self, x):
        return (np.asarray(x, dtype=float) - self.mu) / self.sigma

    def pdf(self, x):
        z = self._z(x)
        return _ret(x, np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2 * math.pi)))

    def log_pdf(self, x):
        z = self._z(x)
        return _ret(x, -0.5 * z * z - math.log(self.sigma) - 0.5 * math.log(2 * math.pi))

    def cdf(self, x):
        from scipy.special import ndtr  # scipy loads only where it is needed

        return _ret(x, ndtr(self._z(x)))

    def _quantile(self, u):
        return self.mu + self.sigma * ndtri(u)

    def log_pdf_at_quantile(self, u):
        z = ndtri(u)
        return _ret(u, -0.5 * z * z - math.log(self.sigma) - 0.5 * math.log(2 * math.pi))

    def _quantile_lower_tail(self, s):
        return self.mu + self.sigma * ndtri(s)

    def _quantile_upper_tail(self, s):
        return self.mu - self.sigma * ndtri(s)

    def pdf_derivative(self, x):
        z = self._z(x)
        dens = np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2 * math.pi))
        return _ret(x, -z / self.sigma * dens)

    def abs_moment(self, r):
        if self.mu != 0.0:
            return super().abs_moment(r)
        if r <= 0:
            raise ValueError("abs_moment requires r > 0")
        # E|sigma Z|^r = sigma^r 2^(r/2) Gamma((r + 1)/2) / sqrt(pi)
        return math.exp(r * math.log(self.sigma) + 0.5 * r * math.log(2.0)
                        + math.lgamma(0.5 * (r + 1.0)) - 0.5 * math.log(math.pi))

    def norm_m(self, m):
        # int f^m dx = (2 pi sigma^2)^((1 - m)/2) / sqrt(m)
        if m < 1:
            raise ValueError("norm_m requires m >= 1")
        if math.isinf(m):
            return self._sup_pdf()
        return ((2 * math.pi * self.sigma**2) ** ((1.0 - m) / 2.0) / math.sqrt(m)) ** (1.0 / m)

    def _sup_pdf(self):
        return 1.0 / (self.sigma * math.sqrt(2 * math.pi))

    def spec_string(self):
        return f"gaussian(mu={self.mu:g},sigma={self.sigma:g})"


class Exponential(ParentDistribution):
    """Exponential with rate lambda on (0, inf)."""

    name = "exponential"
    growth = EndpointGrowth()

    def __init__(self, rate: float = 1.0):
        (self.rate,) = _finite("exponential", rate)
        if self.rate <= 0:
            raise DistributionSpecError("exponential requires rate > 0")
        self.support = (0.0, math.inf)

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            out = np.where(arr > 0, self.rate * np.exp(-self.rate * np.clip(arr, 0, None)), 0.0)
        return _ret(x, out)

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        return _ret(x, np.where(arr > 0, -np.expm1(-self.rate * np.clip(arr, 0, None)), 0.0))

    def _quantile(self, u):
        return -np.log1p(-u) / self.rate

    def log_pdf_at_quantile(self, u):
        return _ret(u, math.log(self.rate) + np.log1p(-np.asarray(u, dtype=float)))

    def _quantile_upper_tail(self, s):
        return -np.log(np.asarray(s, dtype=float)) / self.rate

    def pdf_derivative(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.where(arr > 0, -self.rate**2 * np.exp(-self.rate * np.clip(arr, 0, None)), 0.0)
        return _ret(x, out)

    def _sup_pdf(self):
        return self.rate

    def spec_string(self):
        return f"exponential(rate={self.rate:g})"


class Cauchy(ParentDistribution):
    """Cauchy with location and scale; E|X|^r is finite only for r < 1."""

    name = "cauchy"
    growth = EndpointGrowth(quantile=(1.0, 1.0))

    def __init__(self, loc: float = 0.0, scale: float = 1.0):
        self.loc, self.scale = _finite("cauchy", loc, scale)
        if self.scale <= 0:
            raise DistributionSpecError("cauchy requires scale > 0")
        self.support = (-math.inf, math.inf)

    def _z(self, x):
        return (np.asarray(x, dtype=float) - self.loc) / self.scale

    def pdf(self, x):
        z = self._z(x)
        return _ret(x, 1.0 / (math.pi * self.scale * (1.0 + z * z)))

    def cdf(self, x):
        return _ret(x, 0.5 + np.arctan(self._z(x)) / math.pi)

    def _quantile(self, u):
        # cotangent forms stay accurate where tan(pi (u - 1/2)) would lose
        # every digit against the pole
        uu = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.where(
                uu < 0.5,
                self.loc - self.scale / np.tan(math.pi * uu),
                self.loc + self.scale / np.tan(math.pi * (1.0 - uu)),
            )
        return out

    def _quantile_lower_tail(self, s):
        return self.loc - self.scale / np.tan(math.pi * np.asarray(s, dtype=float))

    def _quantile_upper_tail(self, s):
        return self.loc + self.scale / np.tan(math.pi * np.asarray(s, dtype=float))

    def log_pdf_at_quantile(self, u):
        # f(F^{-1}(u)) = sin^2(pi u) / (pi * scale)
        s = np.sin(math.pi * np.asarray(u, dtype=float))
        return _ret(u, 2.0 * np.log(s) - math.log(math.pi * self.scale))

    def pdf_derivative(self, x):
        z = self._z(x)
        return _ret(x, -2.0 * z / (math.pi * self.scale**2 * (1.0 + z * z) ** 2))

    def _sup_pdf(self):
        return 1.0 / (math.pi * self.scale)

    def spec_string(self):
        return f"cauchy(loc={self.loc:g},scale={self.scale:g})"


class F1(ParentDistribution):
    """Density 2/(x log^3 x) on (e, inf).

    Canonical heavy tail: E|X|^r diverges for every r > 0, while the density
    itself is bounded with every L_m norm finite.
    """

    name = "f1"
    # quantile exp((1-u)^-1/2), log density ~ -(1-u)^-1/2
    growth = EndpointGrowth(quantile=(0.0, math.inf), log_pdf=(0.0, 0.5))

    def __init__(self):
        self.support = (math.e, math.inf)

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        inside = arr > math.e
        safe = np.where(inside, arr, math.e * 2)
        lg = np.log(safe)
        return _ret(x, np.where(inside, 2.0 / (safe * lg**3), 0.0))

    def log_pdf(self, x):
        arr = np.asarray(x, dtype=float)
        inside = arr > math.e
        safe = np.where(inside, arr, math.e * 2)
        lg = np.log(safe)
        return _ret(x, np.where(inside, math.log(2.0) - np.log(safe) - 3.0 * np.log(lg), -np.inf))

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        inside = arr > math.e
        safe = np.where(inside, arr, math.e * 2)
        return _ret(x, np.where(inside, 1.0 - 1.0 / np.log(safe) ** 2, 0.0))

    def _quantile(self, u):
        with np.errstate(over="ignore"):
            return np.exp(1.0 / np.sqrt(1.0 - u))

    def log_pdf_at_quantile(self, u):
        s = 1.0 / np.sqrt(1.0 - np.asarray(u, dtype=float))
        return _ret(u, math.log(2.0) - s - 3.0 * np.log(s))

    def pdf_derivative(self, x):
        arr = np.asarray(x, dtype=float)
        inside = arr > math.e
        safe = np.where(inside, arr, math.e * 2)
        lg = np.log(safe)
        return _ret(x, np.where(inside, -2.0 * (lg + 3.0) / (safe**2 * lg**4), 0.0))

    def _sup_pdf(self):
        return 2.0 / math.e


class F2(ParentDistribution):
    """Density 1/(x log^2 x) on (0, 1/e).

    Unbounded at the origin: ||f||_m = inf for every m > 1 (and trivially 1
    for m = 1), yet all absolute moments are finite on the bounded support.
    """

    name = "f2"
    # log density 1/u + 2 log u, density e^(1/u) u^2
    growth = EndpointGrowth(log_pdf=(1.0, 0.0), pdf=(math.inf, 0.0))

    def __init__(self):
        self.support = (0.0, 1.0 / math.e)

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        inside = (arr > 0.0) & (arr < 1.0 / math.e)
        safe = np.where(inside, arr, 0.5 / math.e)
        lg = np.log(safe)
        return _ret(x, np.where(inside, 1.0 / (safe * lg * lg), 0.0))

    def log_pdf(self, x):
        arr = np.asarray(x, dtype=float)
        inside = (arr > 0.0) & (arr < 1.0 / math.e)
        safe = np.where(inside, arr, 0.5 / math.e)
        lg = np.log(safe)
        return _ret(x, np.where(inside, -np.log(safe) - 2.0 * np.log(-lg), -np.inf))

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.empty_like(arr)
        out[...] = np.where(arr <= 0.0, 0.0, 1.0)
        inside = (arr > 0.0) & (arr < 1.0 / math.e)
        safe = np.where(inside, arr, 0.5 / math.e)
        out = np.where(inside, -1.0 / np.log(safe), out)
        return _ret(x, out)

    def _quantile(self, u):
        return np.exp(-1.0 / u)

    def log_pdf_at_quantile(self, u):
        uu = np.asarray(u, dtype=float)
        return _ret(u, 1.0 / uu + 2.0 * np.log(uu))

    def pdf_derivative(self, x):
        arr = np.asarray(x, dtype=float)
        inside = (arr > 0.0) & (arr < 1.0 / math.e)
        safe = np.where(inside, arr, 0.5 / math.e)
        lg = np.log(safe)
        return _ret(x, np.where(inside, -(lg + 2.0) / (safe**2 * lg**3), 0.0))


# ---------------------------------------------------------------------------
# Beta law of uniform order statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaLaw:
    """Beta(alpha, beta); the k-th of n uniforms has alpha=k, beta=n+1-k."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("BetaLaw requires alpha, beta > 0")


def beta_mean_var(law: BetaLaw) -> tuple[float, float]:
    """Mean and variance: (a/(a+b), ab/((a+b)^2 (a+b+1)))."""
    a, b = law.alpha, law.beta
    s = a + b
    return a / s, a * b / (s * s * (s + 1.0))


def beta_fourth_central_moment(law: BetaLaw) -> float:
    """E[(W - EW)^4] in the product form that stays stable for large a, b."""
    a, b = law.alpha, law.beta
    s = a + b
    num = 3.0 * (a * a * b * b + 2.0 * a * a * b + a * b**3 - 2.0 * a * b * b + 2.0 * b**3)
    den = a**3 * (s + 1.0) * (s + 2.0) * (s + 3.0)
    return (a / s) ** 4 * num / den


def beta_log_pdf(law: BetaLaw, u):
    """Log density of Beta(alpha, beta) at u in (0, 1).

    The package's one Beta log density, ``special.beta_log_density``: the
    same values that weight the quadrature nodes.
    """
    return _ret(u, beta_log_density(law.alpha, law.beta, u))


#: ``beta_sample``'s inverse-CDF table: nodes w = -_TABLE_W + j h in w = logit(u),
#: h = 2 _TABLE_W / _TABLE_STEPS = 75 / 2048 (so every node is exact), j =
#: 0.._TABLE_STEPS.  |w| <= 53 log 2 < _TABLE_W for every nonzero u that
#: ``Generator.random`` returns.
_TABLE_W = 37.5
_TABLE_STEPS = 2048


def _logit_quantile(a: float, b: float, w: np.ndarray) -> np.ndarray:
    """Rows y, dy/dw and d2y/dw2 of y = logit(x), x the Beta(a, b) quantile at u = expit(w).

    The smaller of u and 1 - u is e / (1 + e) with e = exp(-|w|); x is
    ``betaincinv`` at u where w <= 0 and ``betainccinv`` at 1 - u beyond, so
    1 - u is never rounded near 1.  With log u + log(1 - u) = -|w| -
    2 log(1 + e) and f the Beta density,

        dy/dw = u (1 - u) / (f(x) x (1 - x)),
        d2y/dw2 = dy/dw ((1 - 2u) + dy/dw (b x - a (1 - x))).

    x keeps its precision where x <= 1/2; the caller mirrors the law beyond.
    """
    from scipy.special import betainccinv, betaincinv

    e = np.exp(-np.abs(w))
    small = e / (1.0 + e)
    low = w <= 0.0
    x = np.empty_like(w)
    x[low] = betaincinv(a, b, small[low])
    x[~low] = betainccinv(a, b, small[~low])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_x, log_1mx = np.log(x), np.log1p(-x)
        slope = np.exp(-np.abs(w) - 2.0 * np.log1p(e) - beta_log_density(a, b, x) - log_x - log_1mx)
        curvature = slope * (np.tanh(-0.5 * w) + slope * (b * x - a * (1.0 - x)))
    return np.array([log_x - log_1mx, slope, curvature])


def beta_sample(law: BetaLaw, count: int, seed: int, stream: int = 0) -> np.ndarray:
    """Deterministic Beta draws by the quantile method, through one table per call.

    Exactly one uniform u is consumed per variate, so the mapping from
    (seed, stream) to output does not depend on the Beta parameters, and
    draw i depends only on u_i and the law: any prefix of a draw is the
    same bit for bit.  A draw is y = logit(x) of the Beta quantile x,
    interpolated in w = logit(u) on a uniform grid of 2049 nodes over
    |w| <= 37.5: one quintic Hermite per cell, from y and its first two
    derivatives at both ends.  A first pass over the draws marks the cells
    they land in, and ``betaincinv`` runs only at those cells' nodes; a
    cell's quintic depends only on its two nodes, so the draws do not
    depend on ``count``.  Nodes where u > 1/2 take x from the complementary
    inverse ``betainccinv`` at 1 - u, and nodes where x > 1/2 take 1 - x
    from the mirrored law, so that neither 1 - u nor 1 - x is rounded.  A
    draw at u = 0, or in a cell where x rounds to 0 or 1, is ``betaincinv``
    itself.

    Accuracy contract: each draw lies within 1e-12 min(x, 1 - x) + 2^-52
    of ``betaincinv(alpha, beta, u)`` when alpha, beta >= 1 (1e-10 for the
    tested laws with a parameter down to 0.1; the error grows as a
    parameter shrinks further), and draws are nondecreasing in u; the tests
    check this from Beta(0.1, 0.1) to Beta(3e6, 7e6 + 1).  For skewed laws
    with parameters above ~1e5, ``betaincinv`` itself can be ~2e-12
    relative off; the nodes inherit that, and a draw can then miss the
    bound by up to ~2x.
    Draws are clipped to [1e-300, 1 - 1e-16].
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    # scipy loads only where it is needed
    from scipy.special import betainc, betaincc, betaincinv

    a, b = law.alpha, law.beta
    steps = _TABLE_STEPS
    h = 2.0 * _TABLE_W / steps
    u = random_stream(seed, stream).random(int(count))
    # first pass: x holds each draw's position (w + _TABLE_W) / h; a draw
    # beyond the table goes to position `steps`, whose row of `coef` is NaN
    x = np.empty_like(u)
    reached = np.zeros(steps + 1, dtype=bool)
    with np.errstate(divide="ignore"):
        for s in range(0, u.size, _CHUNK_NODES):
            part, pos = u[s:s + _CHUNK_NODES], x[s:s + _CHUNK_NODES]
            np.subtract(1.0, part, out=pos)  # exact: u is a multiple of 2^-53
            np.divide(part, pos, out=pos)
            np.log(pos, out=pos)
            pos += _TABLE_W
            pos /= h
            pos[~((pos >= 0.0) & (pos < steps))] = steps
            reached[pos.astype(np.intp)] = True
    reached[steps] = False
    cells = np.flatnonzero(reached)
    reached[1:] |= reached[:-1]  # the right-hand node of each cell
    nodes = np.flatnonzero(reached)

    # y, h y' and h^2 y'' at the nodes; nodes where x > 1/2, beyond w =
    # logit(F(1/2)), take y(w) = -y_m(-w), y'(w) = y_m'(-w), y''(w) = -y_m''(-w)
    # from the mirrored law
    w = nodes * h - _TABLE_W
    with np.errstate(divide="ignore"):
        low = w <= np.log(betainc(a, b, 0.5)) - np.log(betaincc(a, b, 0.5))
    table = np.full((3, steps + 1), np.nan)
    table[:, nodes[low]] = _logit_quantile(a, b, w[low])
    table[:, nodes[~low]] = _logit_quantile(b, a, -w[~low]) * [[-1.0], [1.0], [-1.0]]
    table *= [[1.0], [h], [h * h]]
    # quintic Hermite coefficients of each reached cell in powers of its
    # offset t in [0, 1), one row per cell; NaN where x rounds to 0 or 1 at
    # either node, and in the rows of cells no draw reached
    (y0, d0, s0), (y1, d1, s1) = table[:, cells], table[:, cells + 1]
    coef = np.full((steps + 1, 6), np.nan)
    with np.errstate(invalid="ignore"):
        dy, dd, ds = y1 - y0 - d0 - 0.5 * s0, d1 - d0 - s0, s1 - s0
        coef[cells] = np.stack([y0, d0, 0.5 * s0, 10.0 * dy - 4.0 * dd + 0.5 * ds,
                                7.0 * dd - 15.0 * dy - ds, 6.0 * dy - 3.0 * dd + 0.5 * ds], axis=1)
    coef[~np.isfinite(coef).all(axis=1)] = np.nan

    # second pass: each draw from its cell's quintic, in place of its position
    for s in range(0, u.size, _CHUNK_NODES):
        pos = x[s:s + _CHUNK_NODES]
        cell = np.floor(pos)
        np.subtract(pos, cell, out=pos)
        c = np.take(coef, cell.astype(np.intp), axis=0)
        y = c[:, 5] * pos
        for k in (4, 3, 2, 1):
            y += c[:, k]
            y *= pos
        y += c[:, 0]
        # the smaller of x and 1 - x from the logistic, the other by one subtraction
        np.abs(y, out=pos)
        np.negative(pos, out=pos)
        np.exp(pos, out=pos)
        np.divide(pos, 1.0 + pos, out=pos)
        np.subtract(1.0, pos, out=pos, where=y > 0.0)
        far = np.isnan(y)
        if far.any():
            pos[far] = betaincinv(a, b, u[s:s + _CHUNK_NODES][far])
    return np.clip(x, 1e-300, 1.0 - 1e-16, out=x)


def beta_sample_mean(g, law: BetaLaw, count: int, seed: int, stream: int = 0):
    """E[g(U)] for U ~ ``law`` as the mean over one ``beta_sample`` draw.

    The Monte Carlo twin of ``quadrature.beta_expectation``, with the same
    integrands and results: ``g`` returns one value per draw or stacked
    columns, and is called on chunks of the draw.  ``error`` is the standard
    error of the mean, which needs two draws, and ``neval`` is ``count``.
    """
    if count < 2:
        raise ValueError("beta_sample_mean needs count >= 2 for a standard error")
    u = beta_sample(law, count, seed, stream)
    y = None
    for s in range(0, count, _CHUNK_NODES):
        part = np.asarray(g(u[s:s + _CHUNK_NODES]), dtype=float)
        size = min(_CHUNK_NODES, count - s)
        if part.ndim not in (1, 2) or part.shape[-1] != size:
            raise ValueError(f"g returned shape {part.shape} for {size} draws")
        if y is None:
            y = np.empty(part.shape[:-1] + (count,))
        y[..., s:s + size] = part
    # row by row, without the draw: the statistics' temporaries stay one row
    del u, part
    results = [QuadResult(float(np.mean(row)), float(np.std(row, ddof=1) / math.sqrt(count)), count)
               for row in np.atleast_2d(y)]
    return results[0] if y.ndim == 1 else QuadResults(results, count)


# ---------------------------------------------------------------------------
# Construction and the CLI spec grammar
# ---------------------------------------------------------------------------

_FAMILIES = {
    "uniform": Uniform,
    "gaussian": Gaussian,
    "exponential": Exponential,
    "cauchy": Cauchy,
    "f1": F1,
    "f2": F2,
}

_SPEC_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*$")


def make_parent(name: str, **params) -> ParentDistribution:
    """Build a parent by family name; unknown names or bad params raise."""
    cls = _FAMILIES.get(name)
    if cls is None:
        raise DistributionSpecError(
            f"unknown distribution {name!r}; choose from {sorted(_FAMILIES)}")
    try:
        return cls(**params)
    except TypeError as exc:
        raise DistributionSpecError(f"bad parameters for {name!r}: {exc}") from exc


def parse_distribution(text: str) -> ParentDistribution:
    """Parse the grammar ``name(param=value,...)``, e.g. ``gaussian(mu=0,sigma=1)``."""
    m = _SPEC_RE.match(text)
    if not m:
        raise DistributionSpecError(f"cannot parse distribution spec {text!r}")
    name, argtext = m.group(1), m.group(2)
    params = {}
    if argtext and argtext.strip():
        for item in argtext.split(","):
            if "=" not in item:
                raise DistributionSpecError(
                    f"expected param=value in {text!r}, got {item.strip()!r}")
            key, val = item.split("=", 1)
            try:
                params[key.strip()] = float(val)
            except ValueError as exc:
                raise DistributionSpecError(
                    f"non-numeric value for {key.strip()!r} in {text!r}") from exc
    return make_parent(name, **params)
