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
log f and the slope, both sides in one pass) in quantile space.  Quantile
space is closed: at u = 0 and u = 1 (tail mass 0) the views return the
exact limits, the support's ends (infinite where it is unbounded), not a
value at a clamped u.  Each family
declares how fast its quantile, log density and density grow at the ends of
quantile space (``EndpointGrowth``), and ``power_moment_finite`` turns that
into the finiteness of every expectation in the package (quadrature cannot
certify divergence); finite values are computed by quadrature in quantile
space unless a closed form is trivial.

Monte Carlo draws (``beta_sample`` and what averages over it) take their
uniforms from ``random_stream``, a counter-based SplitMix64 stream keyed by
(seed, stream) and computed with numpy's integer ufuncs alone.  Because any
stretch of the stream can be read again exactly, the draws come in chunks of
``_CHUNK_NODES`` from two passes over it (``_beta_chunks``), and no sample
mean holds an array the size of its draw.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .quadrature import _CHUNK_NODES, QuadResult, QuadResults, adaptive_quad
from .special import _check_count, beta_log_density, beta_logit_quantile, ndtr, ndtri

__all__ = [
    "DistributionSpecError",
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
]


class DistributionSpecError(ValueError):
    """Unknown family name or invalid parameters."""


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


_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, the odd integer nearest 2^64 / phi
_MASK64 = 2**64 - 1


@functools.cache
def _weyl() -> np.ndarray:
    """(j + 1) gamma mod 2^64 for j within a chunk; built on first use, so
    that importing ordent builds no array."""
    steps = np.arange(1, _CHUNK_NODES + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    steps.flags.writeable = False
    return steps


def _mix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on the uint64 array z (arithmetic
    mod 2^64); ``tmp`` is scratch of z's shape."""
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.bitwise_xor(z, np.right_shift(z, shift, out=tmp), out=z)
        np.multiply(z, multiplier, out=z)
    return np.bitwise_xor(z, np.right_shift(z, 31, out=tmp), out=z)


def _uint64(name: str, value) -> int:
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not 0 <= value <= _MASK64:
        raise ValueError(f"{name} must lie in [0, 2^64), got {value}")
    return value


class UniformStream:
    """SplitMix64 counter stream: draw i is 2^-53 (mix64(K + (i + 1) gamma) >> 11).

    mix64 is SplitMix64's finalizer, gamma its increment and K the key of
    (seed, stream).  Draw i depends on K and i alone, so successive
    ``random`` calls continue one sequence, any prefix of a draw is the same
    bit for bit, and a new stream of the same key reads the same draws
    again.
    """

    def __init__(self, key: int):
        self._key = key
        self._drawn = 0

    def random(self, count: int) -> np.ndarray:
        """The next ``count`` uniforms: multiples of 2^-53 in [0, 1)."""
        count = int(count)
        out = np.empty(count)
        z, tmp = np.empty((2, min(count, _CHUNK_NODES)), dtype=np.uint64)
        weyl = _weyl()
        for s in range(0, count, _CHUNK_NODES):
            m = min(_CHUNK_NODES, count - s)
            np.add(weyl[:m], (self._key + (self._drawn + s) * _GAMMA) & _MASK64, out=z[:m])
            _mix64(z[:m], tmp[:m])
            out[s:s + m] = np.right_shift(z[:m], 11, out=z[:m])  # exact: < 2^53
        self._drawn += count
        out *= 2.0**-53
        return out


def random_stream(seed: int, stream: int = 0) -> UniformStream:
    """The uniform stream keyed by (seed, stream), integers in [0, 2^64).

    A counter-based generator (Salmon et al., SC 2011) on SplitMix64 (Steele,
    Lea and Flood, OOPSLA 2014) with key K = mix64(mix64(seed) + (stream + 1)
    gamma): parallel experiment shards draw reproducibly without
    coordinating, from numpy's integer ufuncs alone.  Two streams with
    different keys traverse one Weyl sequence from different starts, so they
    overlap within N draws each with probability about 2N / 2^64, about
    1e-14 for N = 1e5.  A seed or stream that is not an integer in
    [0, 2^64) raises ``ValueError``.
    """
    seed, stream = _uint64("seed", seed), _uint64("stream", stream)
    z, tmp = np.array([seed], dtype=np.uint64), np.empty(1, dtype=np.uint64)
    _mix64(z, tmp)
    z += ((stream + 1) * _GAMMA) & _MASK64
    return UniformStream(int(_mix64(z, tmp)[0]))


class ParentDistribution:
    """A continuous parent law; immutable after construction.

    Every public method is defined here, once.  Each converts its argument,
    returns a float for a scalar argument and owns the edges of its domain:

    - in x, the points outside the open ``support`` get log density -inf,
      and cdf 0 below the support and 1 above it; NaN stays NaN.  The
      density is exp(log density), +inf where that passes the float range;
    - ``tail`` and ``slope``, views of one checked call of the family's
      ``_tail``, raise ``ValueError`` outside [0, 1/2] (NaN included); at
      s = 0 they return the exact limits (the support's end, +-inf where it
      is unbounded), and ``slope`` overflows to +-inf without a warning;
    - ``quantile`` and ``log_pdf_at_quantile``, views of ``tail``, take u in
      [0, 1] as given, with the exact limits at 0 and 1, and raise
      ``ValueError`` outside it (NaN included);
    - ``abs_moment_finite`` and ``norm_m_finite`` check their order, and
      ``abs_moment`` and ``norm_m`` return +inf where ``growth`` says the
      value diverges.

    A family supplies formulas only:

    - ``_log_pdf`` and ``_cdf``, valid inside the open support, where they
      may overflow (without a warning) only to the right limit;
    - in quantile space, ``_tail(s, upper)``: x, log f(x) and L'(u) for an
      array s and a bool or bool array ``upper``, both sides in one pass,
      without rounding 1 - s where that would cost digits, and with the
      limits at s = 0 (where it may divide by zero without a warning);
    - ``_sup_pdf`` where the density is bounded, and closed-form
      ``_abs_moment`` and ``_norm_m`` where they exist; otherwise both are
      one quantile-space integral, ``_quantile_expectation``, over ``_tail``;
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
    def _at(self, s, upper):
        """(x, log f(x), L'(u)) at s and ``upper`` as ``tail`` takes them,
        checked, from one call of the family's ``_tail`` for both sides."""
        s = np.asarray(s, dtype=float)
        # two reductions clear the common case, every s inside; NaN fails them
        if not (s.min(initial=0.5) >= 0.0 and s.max(initial=0.5) <= 0.5):
            raise ValueError("tail mass s must lie in [0, 1/2]")
        side = np.asarray(upper, dtype=bool)
        if side.ndim and side.shape != s.shape:
            raise ValueError(f"upper has shape {side.shape}, s has shape {s.shape}")
        with np.errstate(over="ignore", divide="ignore"):
            return self._tail(s, side)

    def tail(self, s, upper):
        """(x, log f(x)) at tail mass s: x = F^{-1}(s) where ``upper`` is
        false and x = F^{-1}(1 - s) where it is true.

        s lies in [0, 1/2]; a value outside, or NaN, raises ``ValueError``.
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
        """``tail`` at u in [0, 1], checked: the tail mass min(u, 1 - u), on
        the side u >= 1/2, where 1 - u is exact."""
        arr = np.asarray(u, dtype=float)
        # two reductions clear the common case, every point inside; NaN fails them
        if not (arr.min(initial=0.5) >= 0.0 and arr.max(initial=0.5) <= 1.0):
            raise ValueError("quantile argument must lie in [0, 1]")
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
        """A finite E|X|^r by quadrature in quantile coordinates."""
        return self._quantile_expectation(lambda x, log_f: np.abs(x) ** r)

    def _quantile_expectation(self, g) -> float:
        """E[g(x, log f(x))] at x = F^{-1}(U), U uniform, by quadrature in
        quantile coordinates; ``g`` maps node arrays to one value per node.

        The endpoints are reached through tail mass s = t^8 / 2 on each side,
        which turns the s^{-a} blow-up of heavy-tail quantile powers (a < 1
        when the moment exists) into a bounded integrand.  The two sides are
        one batch of two problems, the lower side and the upper, each with
        its own tolerance; a side that does not converge raises
        ``NotConvergedError``.
        """
        def side(t, problem):
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                x, log_f, _ = self._tail(0.5 * t**8, problem == 1)
                return (g(x, log_f) * 4.0 * t**7)[None]

        # geometric levels toward t = 0 only: toward t = 1 both sides are smooth.
        # The sides start at t = 0 itself (no Gauss node lies on it): a cut at
        # t0 would drop a tail of order t0^(8(1-a)), which near a = 1 is not small
        levels = np.tile(2.0 ** -np.arange(1, 47), (2, 1))
        lower, upper = adaptive_quad(side, [0.0, 0.0], [1.0, 1.0], tol_abs=1e-11,
                                     tol_rel=1e-10, breakpoints=levels)
        return lower[0].check() + upper[0].check()

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
        mean = self._quantile_expectation(lambda x, log_f: np.exp((m - 1.0) * (log_f - log_sup)))
        return math.exp(log_sup * (1.0 - 1.0 / m)) * mean ** (1.0 / m)

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
        # digit against the pole, and sin(pi u) above the median.  cot(pi s)
        # is 1 / tan(pi s) below s = 1/4 and tan(pi (1/2 - s)) from 1/4 on,
        # where 1/2 - s is exact: 1 / tan(pi s) would lose the digits of the
        # zero at the median, rounding pi s against pi / 2
        low = s < 0.25
        tan = np.tan(math.pi * np.where(low, s, 0.5 - s))
        t = np.where(low, self.scale / tan, self.scale * tan)
        c = np.where(low, 2.0 * math.pi / tan, 2.0 * math.pi * tan)
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
        # x = exp(-1/u) at u = F(x); rounding u = 1 - s costs no digit of any.
        # At u = 0 log f is 1/u = +inf: log of 5e-324, the smallest positive
        # float, in place of log 0 keeps inf - inf out and leaves every u > 0
        u = np.where(upper, 1.0 - s, s)
        log_u = np.log(np.maximum(u, 5e-324))
        return np.exp(-1.0 / u), 1.0 / u + 2.0 * log_u, (2.0 * u - 1.0) / (u * u)


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
#: h = _TABLE_H = 2 _TABLE_W / _TABLE_STEPS = 75 / 2048 (so every node is exact), j =
#: 0.._TABLE_STEPS.  |w| <= 53 log 2 < _TABLE_W for every nonzero u that
#: ``random_stream`` returns.
_TABLE_W = 37.5
_TABLE_STEPS = 2048
_TABLE_H = 2.0 * _TABLE_W / _TABLE_STEPS
#: ``_beta_chunks`` marks a cell as reached without locating its draws where
#: it expects this many: no draw lands in it with probability about e^-20
_SURE_CELL_DRAWS = 20.0


@functools.cache
def _table_u() -> np.ndarray:
    """u = expit(w) at each node of the table, built on first use."""
    u = 1.0 / (1.0 + np.exp(_TABLE_W - np.arange(_TABLE_STEPS + 1) * _TABLE_H))
    u.flags.writeable = False
    return u


def _logit_rows(a: float, b: float, w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows y, dy/dw and d2y/dw2 of y = logit(x), x <= 1/2 the Beta(a, b)
    quantile at u = expit(w), from w and y.

    x and log x, log(1 - x) come from y = logit(x); with log u + log(1 - u)
    = -|w| - 2 log(1 + e^-|w|) and f the Beta density,

        dy/dw = u (1 - u) / (f(x) x (1 - x)),
        d2y/dw2 = dy/dw ((1 - 2u) + dy/dw (b x - a (1 - x))).

    The caller mirrors the law where x > 1/2.
    """
    e = np.exp(y)
    log_1mx = -np.log1p(e)
    x = e / (1.0 + e)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope = np.exp(-np.abs(w) - 2.0 * np.log1p(np.exp(-np.abs(w))) - beta_log_density(a, b, x)
                       - y - 2.0 * log_1mx)
        curvature = slope * (np.tanh(-0.5 * w) + slope * (b * x - a * (1.0 - x)))
    return np.array([y, slope, curvature])


def _table_positions(u: np.ndarray) -> np.ndarray:
    """Each draw's table position (logit(u) + _TABLE_W) / h; a draw beyond
    the table (u = 0) goes to position _TABLE_STEPS, whose column of
    ``_beta_table``'s coefficients is NaN."""
    with np.errstate(divide="ignore"):
        pos = np.subtract(1.0, u)  # exact: u is a multiple of 2^-53
        np.divide(u, pos, out=pos)
        np.log(pos, out=pos)
    pos += _TABLE_W
    pos /= _TABLE_H
    pos[u == 0.0] = _TABLE_STEPS
    return pos


def _beta_table(a: float, b: float, reached: np.ndarray) -> np.ndarray:
    """Quintic Hermite coefficients of the ``reached`` cells of Beta(a, b)'s
    table in powers of the offset t in [0, 1), one column per cell; NaN
    where x rounds to 0 or 1 at either node, and in the columns of the
    other cells."""
    steps, h = _TABLE_STEPS, _TABLE_H
    reached = reached.copy()
    reached[steps] = False
    cells = np.flatnonzero(reached)
    reached[1:] |= reached[:-1]  # the right-hand node of each cell
    nodes = np.flatnonzero(reached)

    # y, h y' and h^2 y'' at the nodes; nodes where x > 1/2 take y(w) =
    # -y_m(-w), y'(w) = y_m'(-w), y''(w) = -y_m''(-w) from the mirrored law
    w = nodes * h - _TABLE_W
    y = beta_logit_quantile(a, b, w)
    low = y <= 0.0
    table = np.full((3, steps + 1), np.nan)
    table[:, nodes[low]] = _logit_rows(a, b, w[low], y[low])
    table[:, nodes[~low]] = _logit_rows(b, a, -w[~low], -y[~low]) * [[-1.0], [1.0], [-1.0]]
    table *= [[1.0], [h], [h * h]]
    (y0, d0, s0), (y1, d1, s1) = table[:, cells], table[:, cells + 1]
    coef = np.full((6, steps + 1), np.nan)
    with np.errstate(invalid="ignore"):
        dy, dd, ds = y1 - y0 - d0 - 0.5 * s0, d1 - d0 - s0, s1 - s0
        coef[:, cells] = [y0, d0, 0.5 * s0, 10.0 * dy - 4.0 * dd + 0.5 * ds,
                          7.0 * dd - 15.0 * dy - ds, 6.0 * dy - 3.0 * dd + 0.5 * ds]
    coef[:, ~np.isfinite(coef).all(axis=0)] = np.nan
    return coef


def _table_draws(a: float, b: float, coef: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Beta(a, b) draws at the uniforms ``u`` from ``_beta_table``'s ``coef``."""
    # each draw from its cell's quintic at its offset t in the cell
    t = _table_positions(u)
    y = np.floor(t)
    np.subtract(t, y, out=t)
    cell = y.astype(np.intp)
    scratch = np.empty_like(t)
    np.multiply(np.take(coef[5], cell, out=y), t, out=y)
    for k in (4, 3, 2, 1):
        y += np.take(coef[k], cell, out=scratch)
        y *= t
    y += np.take(coef[0], cell, out=scratch)
    far = np.isnan(y)
    if far.any():
        with np.errstate(divide="ignore"):
            y[far] = beta_logit_quantile(a, b, np.log(u[far]) - np.log1p(-u[far]))
    # the smaller of x and 1 - x from the logistic, the other by one subtraction
    x = np.abs(y)
    np.negative(x, out=x)
    np.exp(x, out=x)
    np.divide(x, np.add(1.0, x, out=scratch), out=x)
    np.subtract(1.0, x, out=x, where=y > 0.0)
    return np.clip(x, 1e-300, 1.0 - 1e-16, out=x)


def _beta_chunks(law: BetaLaw, count: int, seed: int, stream: int = 0):
    """``beta_sample``'s draws in order, in chunks of at most ``_CHUNK_NODES``.

    Two passes over the counter stream of (seed, stream): the first marks
    the table cells the draws reach, the second reads the same uniforms
    again and yields each chunk's draws, a new array.  No array grows with
    ``count``.
    """
    def uniforms():
        source = random_stream(seed, stream)
        for s in range(0, count, _CHUNK_NODES):
            yield source.random(min(_CHUNK_NODES, count - s))

    # pass 1: mark the cells the draws reach.  The central cells, which
    # expect _SURE_CELL_DRAWS or more draws, are marked outright: marking one
    # that no draw reaches costs only its nodes' inversion.  Only the draws
    # outside [lo, hi], a cell inside them, are located
    nodes_u = _table_u()
    central = np.flatnonzero(count * np.diff(nodes_u) >= _SURE_CELL_DRAWS)
    lo, hi = (nodes_u[central[0] + 1], nodes_u[central[-1]]) if central.size else (1.0, 0.0)
    reached = np.zeros(_TABLE_STEPS + 1, dtype=bool)
    reached[central] = True
    for part in uniforms():
        reached[_table_positions(part[(part < lo) | (part > hi)]).astype(np.intp)] = True
    coef = _beta_table(law.alpha, law.beta, reached)

    # pass 2: the same uniforms again, through the table; no chunk's
    # uniforms outlive its draws
    yield from map(functools.partial(_table_draws, law.alpha, law.beta, coef), uniforms())


def beta_sample(law: BetaLaw, count: int, seed: int, stream: int = 0) -> np.ndarray:
    """Deterministic Beta draws by the quantile method, through one table per call.

    Exactly one uniform u of ``random_stream(seed, stream)`` is consumed
    per variate, so the mapping from (seed, stream) to output does not
    depend on the Beta parameters, and draw i depends only on u_i and the
    law: any prefix of a draw is the same bit for bit.  A draw is y =
    logit(x) of the Beta quantile x, interpolated in w = logit(u) on a
    uniform grid of 2049 nodes over |w| <= 37.5: one quintic Hermite per
    cell, from y and its first two derivatives at both ends.  The draws come
    from ``_beta_chunks``: a first pass over the stream marks the cells the
    draws land in, and the inverse ``special.beta_logit_quantile`` runs only
    at those cells' nodes; a second pass reads the same uniforms again and
    maps each through its cell's quintic.  A cell's quintic depends only on
    its two nodes, so the draws do not depend on ``count``.  The inverse
    maps w to y, so neither 1 - u nor 1 - x is rounded, and nodes where x >
    1/2 take their derivatives from the mirrored law.  A draw at u = 0, or
    in a cell where x rounds to 0 or 1, is that inverse itself.

    Accuracy contract: each draw lies within 1e-12 min(x, 1 - x) + 2^-52
    of the true quantile x of u when alpha, beta >= 1 (1e-10 for the tested
    laws with a parameter down to 0.1; the error grows as a parameter
    shrinks further), and draws are nondecreasing in u; the tests check the
    draws from Beta(0.1, 0.1) to Beta(6.96e6, 1.17e6), and the nodes
    against 40-digit mpmath roots.
    Draws are clipped to [1e-300, 1 - 1e-16].  ``count`` is a whole number
    >= 1; anything else raises ``ValueError``.
    """
    return _beta_map(lambda x: x, law, _check_count(count, "count", 1), seed, stream)


def _beta_map(f, law: BetaLaw, count: int, seed: int, stream: int = 0) -> np.ndarray:
    """``f`` of each chunk of ``beta_sample``'s draws, into one array of ``count``."""
    out = np.empty(count)
    s = 0
    for x in _beta_chunks(law, count, seed, stream):
        out[s:s + x.size] = f(x)
        s += x.size
    return out


def beta_sample_mean(g, law: BetaLaw, count: int, seed: int, stream: int = 0):
    """E[g(U)] for U ~ ``law`` as the mean over one ``beta_sample`` draw.

    The Monte Carlo twin of ``quadrature.beta_expectation`` for one law:
    ``g(u)`` returns one value per draw (the result is a ``QuadResult``) or
    stacked columns (a ``QuadResults``), and is called on the draw's chunks
    from ``_beta_chunks``, so memory stays constant in ``count``.  Each
    row's count, mean and sum of squared deviations are merged chunk by
    chunk (Chan, Golub and LeVeque, 1979); the mean and the standard error
    (the sample standard deviation, ddof = 1, over sqrt(count)) may differ
    from those of the whole draw in memory in the last digits, by the order
    of summation.  ``neval`` is ``count``, a whole number >= 2: a standard
    error needs two draws.
    """
    count = _check_count(count, "count", 2)
    total = m2 = 0.0
    rows, done = None, 0
    for u in _beta_chunks(law, count, seed, stream):
        part, size = np.asarray(g(u), dtype=float), u.size
        if part.ndim not in (1, 2) or part.shape[-1] != size or rows not in (None, part.shape[:-1]):
            raise ValueError(f"g returned shape {part.shape} for {size} draws")
        rows = part.shape[:-1]
        # the chunk's sum and squared deviations, merged into the running
        # ones; an infinite value leaves the sum infinite and M2 NaN
        with np.errstate(invalid="ignore"):
            chunk_sum = part.sum(axis=-1)
            dev = part - (chunk_sum / size)[..., None]
            delta = chunk_sum / size - total / max(done, 1)
            m2 = (m2 + np.einsum("...i,...i->...", dev, dev)
                  + delta * delta * (done * size / (done + size)))
        total = total + chunk_sum
        done += size
        del u, part, dev  # before the next chunk is drawn
    mean, error = total / count, np.sqrt(m2 / (count - 1)) / math.sqrt(count)
    results = [QuadResult(float(v), float(e), count)
               for v, e in zip(np.atleast_1d(mean), np.atleast_1d(error))]
    return QuadResults(results, count) if rows else results[0]


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
