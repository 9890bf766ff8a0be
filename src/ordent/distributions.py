"""Parent distributions and the Beta law of uniform order statistics.

Six built-in continuous families are provided: ``uniform``, ``gaussian``,
``exponential``, ``cauchy``, and the two stress-test densities ``f1``
(2/(x log^3 x) on (e, inf), no finite absolute moment of any positive order)
and ``f2`` (1/(x log^2 x) on (0, 1/e), unbounded density whose L_m norm is
infinite for every m > 1).

Each parent exposes pdf, log-pdf, cdf, ``tail`` (x and log f(x) at a tail
mass) with its views quantile and log density at a quantile, ``slope`` (the
derivative of log f(F^{-1}(u)) in u at a tail mass), the absolute moment
E|X|^r and the L_m norm of the density.  ``ParentDistribution`` defines those
public methods once, with the argument checks, the support and the scalar
returns; a family supplies only its formulas, one of them (``_tail``: x,
log f and the slope, both sides in one pass) in quantile space.  Each family
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
    """A continuous parent law; immutable after construction.

    Every public method is defined here, once.  Each converts its argument,
    returns a float for a scalar argument and owns the edges of its domain:

    - in x, the points outside the open ``support`` get log density -inf,
      and cdf 0 below the support and 1 above it; NaN stays NaN.  The
      density is exp(log density), +inf where that passes the float range;
    - ``tail`` and ``slope``, views of one checked call of the family's
      ``_tail``, raise ``ValueError`` outside (0, 1/2] (NaN included), and
      ``slope`` overflows to +-inf without a warning;
    - ``quantile`` and ``log_pdf_at_quantile``, views of ``tail``, raise
      ``ValueError`` outside [0, 1] (NaN included) and clamp into
      [PROB_CLAMP, 1 - PROB_CLAMP] with a ``ClampedProbabilityWarning``;
    - ``abs_moment_finite`` and ``norm_m_finite`` check their order, and
      ``abs_moment`` and ``norm_m`` return +inf where ``growth`` says the
      value diverges.

    A family supplies formulas only:

    - ``_log_pdf`` and ``_cdf``, valid inside the open support, where they
      may overflow (without a warning) only to the right limit;
    - in quantile space, ``_tail(s, upper)``: x, log f(x) and L'(u) for an
      array s and a bool or bool array ``upper``, both sides in one pass,
      without rounding 1 - s where that would cost digits;
    - ``_sup_pdf`` where the density is bounded, and closed-form
      ``_abs_moment`` and ``_norm_m`` where they exist;
    - its ``growth``, and ``spec_string`` when it has parameters.
    """

    name: str = "parent"
    support: tuple[float, float] = (-math.inf, math.inf)

    @property
    def growth(self) -> EndpointGrowth:
        """Each family declares its endpoint growth as a class attribute."""
        raise NotImplementedError

    # -- x space ------------------------------------------------------------
    def _on_support(self, x, formula, below, above):
        """``formula`` at the points of ``x`` inside the open support, ``below``
        at or below it and ``above`` at or above it; NaN stays NaN."""
        arr = np.asarray(x, dtype=float)
        lo, hi = self.support
        with np.errstate(over="ignore"):
            # two reductions clear the common case, every point inside; NaN fails them
            if arr.min(initial=math.inf) > lo and arr.max(initial=-math.inf) < hi:
                return _ret(x, formula(arr))
            out = np.where(arr <= lo, below, np.where(arr >= hi, above, np.nan))
            inside = (arr > lo) & (arr < hi)
            out[inside] = formula(arr[inside])
        return _ret(x, out)

    def pdf(self, x):
        # f2's density near 0 passes the float range: inf there is the limit
        with np.errstate(over="ignore"):
            return _ret(x, np.exp(self.log_pdf(x)))

    def log_pdf(self, x):
        return self._on_support(x, self._log_pdf, -math.inf, -math.inf)

    def cdf(self, x):
        return self._on_support(x, self._cdf, 0.0, 1.0)

    # -- quantile space -----------------------------------------------------
    @staticmethod
    def _probabilities(u) -> np.ndarray:
        """``u`` as an array clamped into [PROB_CLAMP, 1 - PROB_CLAMP]."""
        arr = np.asarray(u, dtype=float)
        # two reductions clear the common case, every point already inside
        # the clamp (quadrature nodes always are); NaN fails them
        if arr.min(initial=0.5) >= PROB_CLAMP and arr.max(initial=0.5) <= 1.0 - PROB_CLAMP:
            return arr
        if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails too
            raise ValueError("quantile argument must lie in [0, 1]")
        clipped = np.clip(arr, PROB_CLAMP, 1.0 - PROB_CLAMP)
        if np.any(clipped != arr):
            warnings.warn(
                f"quantile argument clamped to [{PROB_CLAMP:g}, 1-{PROB_CLAMP:g}]",
                ClampedProbabilityWarning,
                stacklevel=4,
            )
        return clipped

    def _at(self, s, upper):
        """(x, log f(x), L'(u)) at s and ``upper`` as ``tail`` takes them,
        checked, from one call of the family's ``_tail`` for both sides."""
        s = np.asarray(s, dtype=float)
        # two reductions clear the common case, every s inside; NaN fails them
        if not (s.min(initial=0.5) > 0.0 and s.max(initial=0.5) <= 0.5):
            raise ValueError("tail mass s must lie in (0, 1/2]")
        side = np.asarray(upper, dtype=bool)
        if side.ndim and side.shape != s.shape:
            raise ValueError(f"upper has shape {side.shape}, s has shape {s.shape}")
        with np.errstate(over="ignore", divide="ignore"):
            return self._tail(s, side)

    def tail(self, s, upper):
        """(x, log f(x)) at tail mass s: x = F^{-1}(s) where ``upper`` is
        false and x = F^{-1}(1 - s) where it is true.

        s lies in (0, 1/2]; a value outside, or NaN, raises ``ValueError``.
        ``upper`` is a bool, or a bool array shaped like s.
        """
        x, log_f, _ = self._at(s, upper)
        return _ret(s, x), _ret(s, log_f)

    def slope(self, s, upper):
        """L'(u) = d log f(F^{-1}(u)) / du at u = s where ``upper`` is false
        and u = 1 - s where it is true; s and ``upper`` as in ``tail``.

        Along the quantile flow f'(F^{-1}(u)) = L'(u) f^2 and
        (F^{-1})''(u) = -L'(u) / f.  Overflows to +-inf without a warning.
        """
        return _ret(s, self._at(s, upper)[2])

    def _tail_at(self, u):
        """``tail`` at u in [0, 1], checked and clamped: the tail mass
        min(u, 1 - u), on the side u >= 1/2, where 1 - u is exact."""
        arr = self._probabilities(u)
        x, log_f, _ = self._at(np.minimum(arr, 1.0 - arr), arr >= 0.5)
        return _ret(u, x), _ret(u, log_f)

    def quantile(self, u):
        """F^{-1}(u)."""
        return self._tail_at(u)[0]

    def log_pdf_at_quantile(self, u):
        """log f(F^{-1}(u))."""
        return self._tail_at(u)[1]

    # -- moments and norms --------------------------------------------------
    def abs_moment_finite(self, r: float) -> bool:
        """Whether E|X|^r = E|F^{-1}(U)|^r, U uniform, is finite; r > 0."""
        if not r > 0:
            raise ValueError("abs_moment requires r > 0")
        return power_moment_finite(self.growth.quantile, r)

    def abs_moment(self, r: float) -> float:
        """E|X|^r, +inf when the moment diverges."""
        return self._abs_moment(r) if self.abs_moment_finite(r) else math.inf

    def _abs_moment(self, r: float) -> float:
        """A finite E|X|^r by quadrature in quantile coordinates.

        The endpoints are reached through tail mass s = t^8 / 2 on each side,
        which turns the s^{-a} blow-up of heavy-tail quantile powers (a < 1
        when the moment exists) into a bounded integrand.
        """
        def side(t, upper):
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                return np.abs(self._tail(0.5 * t**8, upper)[0]) ** r * 4.0 * t**7

        # geometric levels toward t = 0 only: toward t = 1 both sides are smooth.
        # The sides start at t = 0 itself (no Gauss node lies on it): a cut at
        # t0 would drop a tail of order t0^(8(1-a)), which near a = 1 is not small
        levels = 2.0 ** -np.arange(1, 47)
        total = 0.0
        for upper in (False, True):
            res = adaptive_quad(lambda t: side(t, upper), 0.0, 1.0, tol_abs=1e-11,
                                tol_rel=1e-10, breakpoints=levels)
            total += res.check()
        return total

    def norm_m_finite(self, m: float) -> bool:
        """Whether ||f||_m is finite, m >= 1: int f^m dx = E[f(F^{-1}(U))^(m-1)],
        U uniform."""
        if not m >= 1:
            raise ValueError("norm_m requires m >= 1")
        return power_moment_finite(self.growth.pdf, m - 1.0)

    def norm_m(self, m: float) -> float:
        """L_m norm of the density, +inf when divergent; m = inf is sup f."""
        if not self.norm_m_finite(m):
            return math.inf
        if math.isinf(m):
            return self._sup_pdf()
        return 1.0 if m == 1 else self._norm_m(m)

    def _norm_m(self, m: float) -> float:
        """A finite ||f||_m, 1 < m < inf, by quadrature in quantile coordinates.

        int f^m dx = E[f(F^{-1}(U))^{m-1}], U uniform, is integrated as
        E[(f / sup f)^{m-1}] and scaled by sup f^{m-1}, so that it does not
        underflow at large m.
        """
        log_sup = math.log(self._sup_pdf())
        res = beta_expectation(
            lambda u: np.exp((m - 1.0) * (self.log_pdf_at_quantile(u) - log_sup)), 1.0, 1.0)
        return math.exp(log_sup * (1.0 - 1.0 / m)) * res.check() ** (1.0 / m)

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
        self._w = self.b - self.a
        if not math.isfinite(self._w):
            raise DistributionSpecError(f"uniform requires a finite width b - a, got {self._w}")
        self.support = (self.a, self.b)

    def _log_pdf(self, x):
        return np.full_like(x, -math.log(self._w))

    def _cdf(self, x):
        return (x - self.a) / self._w

    def _tail(self, s, upper):
        return (np.where(upper, self.b - s * self._w, self.a + s * self._w),
                np.full_like(s, -math.log(self._w)), np.zeros_like(s))

    def _norm_m(self, m):
        return self._w ** (1.0 / m - 1.0)

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

    def _z(self, x):
        return (x - self.mu) / self.sigma

    def _log_pdf(self, x):
        z = self._z(x)
        return -0.5 * z * z - math.log(self.sigma) - 0.5 * math.log(2 * math.pi)

    def _cdf(self, x):
        from scipy.special import ndtr  # scipy loads only where it is needed

        return ndtr(self._z(x))

    def _tail(self, s, upper):
        # the quantile's z: AS241 is odd about 1/2 to the bit, so -ndtri(s) is
        # the z at 1 - s, and sigma (-z) rounds as -(sigma z); L' = -z / phi(z)
        z = ndtri(s)
        z = np.where(upper, -z, z)
        log_phi = -0.5 * z * z
        return (self.mu + self.sigma * z,
                log_phi - math.log(self.sigma) - 0.5 * math.log(2 * math.pi),
                -z * math.sqrt(2 * math.pi) / np.exp(log_phi))

    def _abs_moment(self, r):
        if self.mu != 0.0:
            return super()._abs_moment(r)
        # E|sigma Z|^r = sigma^r 2^(r/2) Gamma((r + 1)/2) / sqrt(pi)
        return math.exp(r * math.log(self.sigma) + 0.5 * r * math.log(2.0)
                        + math.lgamma(0.5 * (r + 1.0)) - 0.5 * math.log(math.pi))

    def _norm_m(self, m):
        # int f^m dx = (2 pi sigma^2)^((1 - m)/2) / sqrt(m), in log space: it underflows from m ~ 1000
        log_two_pi_var = math.log(2 * math.pi) + 2.0 * math.log(self.sigma)
        return math.exp(((1.0 - m) * log_two_pi_var - math.log(m)) / (2.0 * m))

    def _sup_pdf(self):
        return 1.0 / (self.sigma * math.sqrt(2 * math.pi))

    def spec_string(self):
        return f"gaussian(mu={self.mu:g},sigma={self.sigma:g})"


class Exponential(ParentDistribution):
    """Exponential with rate lambda on (0, inf)."""

    name = "exponential"
    growth = EndpointGrowth()
    support = (0.0, math.inf)

    def __init__(self, rate: float = 1.0):
        (self.rate,) = _finite("exponential", rate)
        if self.rate <= 0:
            raise DistributionSpecError("exponential requires rate > 0")

    def _log_pdf(self, x):
        return math.log(self.rate) - self.rate * x

    def _cdf(self, x):
        return -np.expm1(-self.rate * x)

    def _tail(self, s, upper):
        log_sf = np.where(upper, np.log(s), np.log1p(-s))  # log(1 - F(x))
        return (-log_sf / self.rate, math.log(self.rate) + log_sf,
                -1.0 / np.where(upper, s, 1.0 - s))  # L' = -1 / (1 - u)

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

    def _z(self, x):
        return (x - self.loc) / self.scale

    def _log_pdf(self, x):
        # log(1 + z^2) as logaddexp(0, 2 log|z|), which z^2 cannot overflow;
        # where z itself overflows, log|z| is log|x/2 - loc/2| + log 2 - log(scale)
        z = self._z(x)
        with np.errstate(divide="ignore"):
            log_z = np.where(np.isinf(z), np.log(np.abs(0.5 * x - 0.5 * self.loc))
                             + (math.log(2.0) - math.log(self.scale)), np.log(np.abs(z)))
        return -math.log(math.pi * self.scale) - np.logaddexp(0.0, 2.0 * log_z)

    def _cdf(self, x):
        return 0.5 + np.arctan(self._z(x)) / math.pi

    def _tail(self, s, upper):
        # x = loc -+ scale cot(pi s), f(x) = sin^2(pi s) / (pi scale) and L' =
        # 2 pi cot(pi u), odd about 1/2: tan(pi (u - 1/2)) would lose every
        # digit against the pole, and sin(pi u) above the median
        tan = np.tan(math.pi * s)
        t, c = self.scale / tan, 2.0 * math.pi / tan
        return (self.loc + np.where(upper, t, -t),
                2.0 * np.log(np.sin(math.pi * s)) - math.log(math.pi * self.scale),
                np.where(upper, -c, c))

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
    support = (math.e, math.inf)

    def _log_pdf(self, x):
        lg = np.log(x)
        return math.log(2.0) - lg - 3.0 * np.log(lg)

    def _cdf(self, x):
        return 1.0 - 1.0 / np.log(x) ** 2

    def _tail(self, s, upper):
        # x = exp(t), t = (1 - F(x))^-1/2: log f stays finite where x overflows;
        # dt/du = t^3 / 2
        t = 1.0 / np.sqrt(np.where(upper, s, 1.0 - s))
        return np.exp(t), math.log(2.0) - t - 3.0 * np.log(t), -0.5 * t**3 - 1.5 * t**2

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
    support = (0.0, 1.0 / math.e)

    def _log_pdf(self, x):
        lg = np.log(x)
        return -lg - 2.0 * np.log(-lg)

    def _cdf(self, x):
        return -1.0 / np.log(x)

    def _tail(self, s, upper):
        # x = exp(-1/u) at u = F(x); rounding u = 1 - s costs no digit of any
        u = np.where(upper, 1.0 - s, s)
        return np.exp(-1.0 / u), 1.0 / u + 2.0 * np.log(u), (2.0 * u - 1.0) / (u * u)


# ---------------------------------------------------------------------------
# Beta law of uniform order statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaLaw:
    """Beta(alpha, beta); the k-th of n uniforms has alpha=k, beta=n+1-k."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):
            raise ValueError(f"BetaLaw requires finite alpha, beta > 0, got "
                             f"({self.alpha!r}, {self.beta!r})")


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
