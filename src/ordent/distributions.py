"""Parent distributions and the Beta law of uniform order statistics.

Six built-in continuous families are provided: ``uniform``, ``gaussian``,
``exponential``, ``cauchy``, and the two stress-test densities ``f1``
(2/(x log^3 x) on (e, inf), no finite absolute moment of any positive order)
and ``f2`` (1/(x log^2 x) on (0, 1/e), unbounded density whose L_m norm is
infinite for every m > 1).

Each parent exposes pdf, log-pdf, cdf, quantile, the pdf derivative, the
absolute moment E|X|^r and the L_m norm of the density.  Moment and norm
finiteness is decided symbolically per family (quadrature cannot certify
divergence); finite values are computed by quadrature in quantile space
unless a closed form is trivial.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special as _sc

from .quadrature import adaptive_quad
from .special import beta_log_density

__all__ = [
    "DistributionSpecError",
    "ClampedProbabilityWarning",
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


def _ret(x_in, out):
    out = np.asarray(out)
    if np.ndim(x_in) == 0:
        return float(out)
    return out


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
        if np.any((arr < 0.0) | (arr > 1.0)):
            raise ValueError("quantile argument must lie in [0, 1]")
        clipped = np.clip(arr, PROB_CLAMP, 1.0 - PROB_CLAMP)
        if np.any(clipped != arr):
            warnings.warn(
                f"quantile argument clamped to [{PROB_CLAMP:g}, 1-{PROB_CLAMP:g}]",
                ClampedProbabilityWarning,
                stacklevel=2,
            )
        return _ret(u, self._quantile(clipped))

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
        raise NotImplementedError

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

        total = 0.0
        for side in (left, right):
            res = adaptive_quad(side, 1e-12, 1.0, tol_abs=1e-11, tol_rel=1e-10)
            total += res.check()
        return total

    def norm_m_finite(self, m: float) -> bool:
        raise NotImplementedError

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
        # int f^m dx = int_0^1 f(F^{-1}(u))^{m-1} du
        res = adaptive_quad(
            lambda u: np.exp((m - 1.0) * self.log_pdf_at_quantile(u)),
            PROB_CLAMP, 1.0 - PROB_CLAMP, tol_abs=1e-12, tol_rel=1e-10,
        )
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

    def __init__(self, a: float = 0.0, b: float = 1.0):
        if not b > a:
            raise DistributionSpecError("uniform requires b > a")
        self.a = float(a)
        self.b = float(b)
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

    def abs_moment_finite(self, r):
        return True

    def norm_m_finite(self, m):
        return True

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

    def __init__(self, mu: float = 0.0, sigma: float = 1.0):
        if sigma <= 0:
            raise DistributionSpecError("gaussian requires sigma > 0")
        self.mu = float(mu)
        self.sigma = float(sigma)
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
        return _ret(x, _sc.ndtr(self._z(x)))

    def _quantile(self, u):
        return self.mu + self.sigma * _sc.ndtri(u)

    def log_pdf_at_quantile(self, u):
        z = _sc.ndtri(np.asarray(u, dtype=float))
        return _ret(u, -0.5 * z * z - math.log(self.sigma) - 0.5 * math.log(2 * math.pi))

    def _quantile_lower_tail(self, s):
        return self.mu + self.sigma * _sc.ndtri(np.asarray(s, dtype=float))

    def _quantile_upper_tail(self, s):
        return self.mu - self.sigma * _sc.ndtri(np.asarray(s, dtype=float))

    def pdf_derivative(self, x):
        z = self._z(x)
        dens = np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2 * math.pi))
        return _ret(x, -z / self.sigma * dens)

    def abs_moment_finite(self, r):
        return True

    def norm_m_finite(self, m):
        return True

    def _sup_pdf(self):
        return 1.0 / (self.sigma * math.sqrt(2 * math.pi))

    def spec_string(self):
        return f"gaussian(mu={self.mu:g},sigma={self.sigma:g})"


class Exponential(ParentDistribution):
    """Exponential with rate lambda on (0, inf)."""

    name = "exponential"

    def __init__(self, rate: float = 1.0):
        if rate <= 0:
            raise DistributionSpecError("exponential requires rate > 0")
        self.rate = float(rate)
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

    def abs_moment_finite(self, r):
        return True

    def norm_m_finite(self, m):
        return True

    def _sup_pdf(self):
        return self.rate

    def spec_string(self):
        return f"exponential(rate={self.rate:g})"


class Cauchy(ParentDistribution):
    """Cauchy with location and scale; E|X|^r is finite only for r < 1."""

    name = "cauchy"

    def __init__(self, loc: float = 0.0, scale: float = 1.0):
        if scale <= 0:
            raise DistributionSpecError("cauchy requires scale > 0")
        self.loc = float(loc)
        self.scale = float(scale)
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

    def abs_moment_finite(self, r):
        return r < 1.0

    def norm_m_finite(self, m):
        return True

    def _sup_pdf(self):
        return 1.0 / (math.pi * self.scale)

    def spec_string(self):
        return f"cauchy(loc={self.loc:g},scale={self.scale:g})"


class F1(ParentDistribution):
    """Density 2/(x log^3 x) on (e, inf).

    Canonical heavy tail: E|X|^r diverges for every r > 0, while the density
    itself is bounded with every L_m norm finite.  The quantile
    exp(1/sqrt(1-u)) overflows to inf as u -> 1; callers treat that as the
    too-large-to-represent signal it is.
    """

    name = "f1"

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

    def abs_moment_finite(self, r):
        return False

    def norm_m_finite(self, m):
        return True

    def _sup_pdf(self):
        return 2.0 / math.e


class F2(ParentDistribution):
    """Density 1/(x log^2 x) on (0, 1/e).

    Unbounded at the origin: ||f||_m = inf for every m > 1 (and trivially 1
    for m = 1), yet all absolute moments are finite on the bounded support.
    """

    name = "f2"

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

    def abs_moment_finite(self, r):
        return True

    def norm_m_finite(self, m):
        return m == 1.0

    def _sup_pdf(self):
        return math.inf


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


def beta_sample(law: BetaLaw, count: int, seed: int, stream: int = 0) -> np.ndarray:
    """Deterministic Beta draws by the quantile method.

    Exactly one uniform is consumed per variate (inverse regularized
    incomplete beta), so the mapping from (seed, stream) to output does not
    depend on the Beta parameters.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    u = random_stream(seed, stream).random(int(count))
    x = _sc.betaincinv(law.alpha, law.beta, u)
    return np.clip(x, 1e-300, 1.0 - 1e-16)


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
