"""Order-statistic laws: densities, sampling, moment bounds, quantile envelopes.

The k-th order statistic of n i.i.d. draws from a parent F equals
F^{-1}(U_(k)) in distribution, with U_(k) ~ Beta(k, n+1-k).  Everything here
goes through that representation: densities are assembled in log space (the
binomial-style normalizer overflows linear arithmetic near n = 170), and
sampling consumes a single Beta variate per draw rather than sorting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (BetaLaw, ParentDistribution, beta_sample, beta_sample_mean,
                            power_moment_finite)
from .reports import BoundReport
from .special import _check_fraction, _check_integer, beta_log_density, log_gamma_ratio

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

def round_rank(n: int, p: float) -> int:
    """Map the central fraction p to an integer rank in [1, n]: n p rounded
    half-up, then clamped."""
    return min(max(math.floor(n * p + 0.5), 1), n)


@dataclass(frozen=True)
class OrderStatSpec:
    """X_(k), the k-th smallest of n draws, and the fraction p it stands for.

    The package's one check of n, k and p; every entry point that takes them
    builds a spec.  n and k are whole numbers, stored as ``int``, with 1 <= k
    <= n <= 2**53 (beyond, ranks and n + 1.0 are not exact in float64), and p,
    if given, lies in (0, 1); anything else raises ``ValueError``.
    """

    n: int
    k: int
    p: float | None = None

    def __post_init__(self):
        n, k = _check_integer(self.n, "n"), _check_integer(self.k, "k")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if n > 2**53:
            raise ValueError(f"n is too large: ranks are exact only up to 2**53, got {n}")
        if not 1 <= k <= n:
            raise ValueError(f"k must lie in [1, n], got k={k}, n={n}")
        if self.p is not None:
            _check_fraction(self.p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)

    @classmethod
    def from_fraction(cls, n: int, p: float) -> "OrderStatSpec":
        """The spec of rank ``round_rank(n, p)``, taken once n and p pass."""
        n = cls(n=n, k=1, p=p).n
        return cls(n=n, k=round_rank(n, p), p=p)

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
        # 0 where the log density is -inf and NaN where x is; densities beyond
        # float range (the unbounded parent near its origin) surface as inf
        out = np.exp(beta_log_density(law.alpha, law.beta, F) + logf)
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


def sample_order_stat(parent: ParentDistribution, spec: OrderStatSpec, count: int,
                      seed: int) -> np.ndarray:
    """Draw the order statistic as F^{-1} of one Beta variate per draw, from
    ``seed``'s stream 0: the draws ``verify_moment_bound`` averages."""
    u = beta_sample(spec.beta_law, count, seed)
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
    """C_{n,k,q,r} = E[(U (1 - U))^(-q/r)] under Beta(k, n + 1 - k), for n and k
    that pass ``OrderStatSpec``'s rule and positive q and r."""
    spec = OrderStatSpec(n, k)
    n, k = spec.n, spec.k
    if not (q > 0 and r > 0):
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


def verify_moment_bound(parent: ParentDistribution, spec: OrderStatSpec, q: float, r: float,
                        mc_count: int = 100_000, seed: int = 0) -> BoundReport:
    """Monte Carlo check of E|X_(k)|^q <= C_{n,k,q,r} (E|X|^r)^{q/r}.

    E|X_(k)|^q is the mean of |x|^q over the ``mc_count`` >= 2 draws of
    ``sample_order_stat(parent, spec, mc_count, seed)``, with 3 standard errors of slack.
    An infinite parent moment or constant makes the bound vacuous, not an error.
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
    res = beta_sample_mean(lambda u: np.abs(parent.quantile(u)) ** q, spec.beta_law, mc_count, seed)
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
