"""Order-statistic laws: densities, sampling, moment bounds, quantile envelopes.

The k-th order statistic of n i.i.d. draws from a parent F equals
F^{-1}(U_(k)) in distribution, with U_(k) ~ Beta(k, n+1-k).  Everything here
goes through that representation: densities are assembled in log space (the
binomial-style normalizer overflows linear arithmetic near n = 170), and
sampling consumes a single Beta variate per draw rather than sorting.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .distributions import (BetaLaw, ParentDistribution, beta_sample, beta_sample_mean,
                            power_moment_finite)
from .reports import BoundReport
from .special import beta_log_density, log_gamma_ratio

__all__ = [
    "OrderStatSpec",
    "round_rank",
    "order_stat_pdf",
    "order_stat_cdf",
    "sample_order_stat",
    "MomentBoundConstant",
    "moment_bound_constant",
    "verify_moment_bound",
    "quantile_envelope",
]

_ROUNDINGS = ("half-up", "floor", "ceil")


def round_rank(n: int, p: float, rounding: str = "half-up") -> int:
    """Map the central fraction p to an integer rank in [1, n].

    Ties at .5 round up under the default policy; the choice is exposed
    because the asymptotics only require k/n -> p.
    """
    if rounding == "half-up":
        k = math.floor(n * p + 0.5)
    elif rounding == "floor":
        k = math.floor(n * p)
    elif rounding == "ceil":
        k = math.ceil(n * p)
    else:
        raise ValueError(f"rounding must be one of {_ROUNDINGS}, got {rounding!r}")
    return min(max(k, 1), n)


@dataclass(frozen=True)
class OrderStatSpec:
    """Which order statistic of a sample of size n is under study."""

    n: int
    k: int
    p: float | None = None

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) for v in (self.n, self.k)):
            raise ValueError(f"n and k must be integers, got n={self.n!r}, k={self.k!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k must lie in [1, n], got k={self.k}, n={self.n}")
        if self.p is not None and not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0, 1)")

    @classmethod
    def from_fraction(cls, n: int, p: float, rounding: str = "half-up") -> "OrderStatSpec":
        if not 0.0 < p < 1.0:
            raise ValueError("p must lie in (0, 1)")
        return cls(n=n, k=round_rank(n, p, rounding), p=p)

    @property
    def realized_fraction(self) -> float:
        return self.k / self.n

    @property
    def beta_law(self) -> BetaLaw:
        return BetaLaw(float(self.k), float(self.n + 1 - self.k))


def order_stat_pdf(parent: ParentDistribution, spec: OrderStatSpec, x):
    """Density of the k-th order statistic at x; zero outside the support."""
    law = spec.beta_law
    arr = np.asarray(x, dtype=float)
    F = np.asarray(parent.cdf(arr), dtype=float)
    logf = np.asarray(parent.log_pdf(arr), dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        logpdf = beta_log_density(law.alpha, law.beta, F) + logf
        # densities beyond float range (the unbounded parent near its origin)
        # surface as inf, which is the honest linear-space answer
        out = np.where(np.isfinite(logpdf), np.exp(logpdf), 0.0)
    if np.ndim(x) == 0:
        return float(out)
    return out


def order_stat_cdf(parent: ParentDistribution, spec: OrderStatSpec, x):
    """P(X_(k) <= x) = I_{F(x)}(k, n+1-k)."""
    from scipy.special import betainc  # scipy loads only where it is needed

    F = np.asarray(parent.cdf(np.asarray(x, dtype=float)), dtype=float)
    out = betainc(float(spec.k), float(spec.n + 1 - spec.k), F)
    if np.ndim(x) == 0:
        return float(out)
    return out


def sample_order_stat(
    parent: ParentDistribution,
    spec: OrderStatSpec,
    count: int,
    seed: int,
    stream: int = 0,
) -> np.ndarray:
    """Draw the order statistic as F^{-1} of one Beta variate per draw."""
    u = beta_sample(spec.beta_law, count, seed, stream)
    return np.asarray(parent.quantile(u), dtype=float)


@dataclass(frozen=True)
class MomentBoundConstant:
    """Gamma-ratio constant bounding E|X_(k)|^q by (E|X|^r)^{q/r}.

    Finite exactly when k > q/r and n - k > q/r - 1; infinity is a valid
    value (the bound is then vacuous).
    """

    n: int
    k: int
    q: float
    r: float
    value: float


def moment_bound_constant(n: int, k: int, q: float, r: float) -> MomentBoundConstant:
    if n < 1 or not 1 <= k <= n:
        raise ValueError("need n >= 1 and 1 <= k <= n")
    if q <= 0 or r <= 0:
        raise ValueError("need q > 0 and r > 0")
    s = q / r
    # C = E[(U (1 - U))^-s] under Beta(k, n + 1 - k)
    if power_moment_finite((1.0, 1.0), s, k, n + 1 - k):
        # Gamma(k-s)/Gamma(k) * Gamma(n-k+1-s)/Gamma(n-k+1) * Gamma(n+1)/Gamma(n+1-2s)
        logc = (log_gamma_ratio(float(k), -s) + log_gamma_ratio(n - k + 1.0, -s)
                - log_gamma_ratio(n + 1.0, -2.0 * s))
        value = float(np.exp(logc))
    else:
        value = math.inf
    return MomentBoundConstant(n=n, k=k, q=q, r=r, value=value)


def verify_moment_bound(
    parent: ParentDistribution,
    spec: OrderStatSpec,
    q: float,
    r: float,
    mc_count: int = 100_000,
    seed: int = 0,
    stream: int = 0,
) -> BoundReport:
    """Monte Carlo check of E|X_(k)|^q <= C_{n,k,q,r} (E|X|^r)^{q/r}.

    E|X_(k)|^q is a ``beta_sample_mean`` over ``mc_count`` >= 2 draws; the
    verdict allows 3 standard errors of slack.  An infinite parent moment or
    an infinite constant makes the bound vacuous rather than an error.
    """
    params = {"n": spec.n, "k": spec.k, "q": q, "r": r,
              "mc_count": mc_count, "seed": seed, "parent": parent.spec_string()}
    const = moment_bound_constant(spec.n, spec.k, q, r)
    parent_moment = parent.abs_moment(r)
    if math.isinf(parent_moment) or math.isinf(const.value):
        analytic = math.inf
        message = ("parent moment E|X|^r is infinite" if math.isinf(parent_moment)
                   else "constant is infinite for these (n, k, q, r)")
    else:
        analytic = const.value * parent_moment ** (q / r)
        message = ""
    res = beta_sample_mean(lambda u: np.abs(parent.quantile(u)) ** q, spec.beta_law,
                           mc_count, seed, stream)
    return BoundReport(
        bound_name="order_stat_moment",
        analytic_value=analytic,
        empirical_value=res.value,
        stderr=res.error,
        params=params,
        message=message,
    )


def quantile_envelope(parent: ParentDistribution, r: float, u: float) -> float:
    """(E|X|^r / min(u, 1-u))^{1/r}, an upper bound for |F^{-1}(u)|."""
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie in (0, 1)")
    moment = parent.abs_moment(r)
    if math.isinf(moment):
        raise ValueError(
            f"quantile envelope needs a finite E|X|^{r:g} for {parent.spec_string()}")
    return (moment / min(u, 1.0 - u)) ** (1.0 / r)
