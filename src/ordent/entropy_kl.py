"""Entropy of uniform order statistics and the KL gap to the Gaussian limit.

The central order statistic X_(np) approaches a Gaussian with mean F^{-1}(p)
and variance p(1-p) / (n f(F^{-1}(p))^2).  The KL divergence from that
Gaussian splits exactly into three parts:

* ``k1``: the entropy deficit of U_(np) against a matched Gaussian; closed
  form via harmonic numbers, independent of the parent;
* ``k2``: the normalized quantile mean-squared error minus one half;
* ``k3``: the expected log density ratio along the quantile flow.

``kl_direct`` integrates the same divergence in one piece as a cross-check;
the identity k1 + k2 + k3 = direct holds to quadrature accuracy whenever all
parts converge.  Divergence (the heavy-tail parent makes k2 infinite) is a
reported outcome, not an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special
from .distributions import ParentDistribution, beta_sample
from .order_stats import OrderStatSpec, round_rank
from .quadrature import QuadResult, beta_expectation

__all__ = [
    "ConditionViolation",
    "GaussianReference",
    "gaussian_reference",
    "uniform_order_stat_entropy_exact",
    "uniform_order_stat_entropy_expansion",
    "entropy_expansion_linear_coefficient",
    "k1_term",
    "k2_term",
    "k3_term",
    "kl_direct",
    "kl_decompose",
    "KlDecomposition",
]


class ConditionViolation(ValueError):
    """A convergence condition fails (e.g. zero density at the target quantile)."""


# ---------------------------------------------------------------------------
# Entropy of uniform order statistics
# ---------------------------------------------------------------------------

def uniform_order_stat_entropy_exact(n: int, k: int) -> float:
    """Differential entropy (nats) of U_(k) ~ Beta(k, n+1-k).

    Closed form T_{k-1} + T_{n-k} - T_n - H_n with T_r = log(r!) - r H_r.
    The terms grow like n log n while the result stays O(log n); the growing
    parts cancel analytically in ``special.order_stat_entropy``.
    """
    n = int(n)
    k = int(k)
    if n < 1 or not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return special.order_stat_entropy(n, k)


def entropy_expansion_linear_coefficient(p: float) -> float:
    """Coefficient of 1/n in the entropy expansion: (1/p + 1/(1-p) - 4) / 6.

    Exactly zero at p = 1/2, which is why the expansion error is O(1/n^2)
    there relative to the symmetric reference.
    """
    return (1.0 / p + 1.0 / (1.0 - p) - 4.0) / 6.0


def uniform_order_stat_entropy_expansion(n: int, p: float) -> float:
    """Asymptotic entropy of U_(np) for k = np, accurate to O(1/n^2).

    Returns ::

        1/2 log(2 pi e (p - 1/n)(1-p) / n) + (1/p + 1/(1-p) - 4)/(6n) + 1/(12 n^2)

    The shift p - 1/n inside the logarithm reflects that the first Beta
    parameter enters through k - 1; folding it into p would perturb the 1/n
    coefficient by -1/(2np) and destroy the O(1/n^2) residual.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if n * p < 2.0:
        raise ValueError("expansion requires n*p >= 2")
    base = 0.5 * math.log(2.0 * math.pi * math.e * (p - 1.0 / n) * (1.0 - p) / n)
    return base + entropy_expansion_linear_coefficient(p) / n + 1.0 / (12.0 * n * n)


# ---------------------------------------------------------------------------
# Gaussian reference
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianReference:
    """Limiting Gaussian: mean F^{-1}(p), variance p(1-p)/(n f(F^{-1}(p))^2)."""

    mu_p: float
    v_np: float
    n: int
    p: float

    @property
    def scaled_variance(self) -> float:
        """n * v_np; independent of n."""
        return self.n * self.v_np


def gaussian_reference(parent: ParentDistribution, n: int, p: float) -> GaussianReference:
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    mu = float(parent.quantile(p))
    fq = math.exp(float(parent.log_pdf_at_quantile(p)))
    if not (fq > 0.0 and math.isfinite(fq)):
        raise ConditionViolation(
            f"{parent.spec_string()} has density {fq:g} at its {p:g}-quantile; "
            "the Gaussian limit needs a positive finite density there")
    return GaussianReference(mu_p=mu, v_np=p * (1.0 - p) / (n * fq * fq), n=int(n), p=float(p))


# ---------------------------------------------------------------------------
# The three decomposition terms
# ---------------------------------------------------------------------------

def k1_term(n: int, p: float, rounding: str = "half-up") -> float:
    """Entropy gap 1/2 log(2 pi e p(1-p)/n) - h(U_(np)); parent-free."""
    k = round_rank(n, p, rounding)
    base = 0.5 * math.log(2.0 * math.pi * math.e * p * (1.0 - p) / n)
    return base - uniform_order_stat_entropy_exact(n, k)


def _term_tolerances(term: str, tol: float) -> tuple[float, float]:
    """(tol_abs, tol_rel) of one quadrature term for a caller's ``tol``."""
    if term == "k2":
        # relative only: the quantile MSE scales with the parent
        return 1e-300, max(tol, 1e-11)
    return tol, 1e-10


def _quadrature_terms(
    parent: ParentDistribution,
    law,
    ref: GaussianReference | None,
    tol: float,
    terms: tuple[str, ...] = ("k2", "k3", "direct"),
) -> dict[str, QuadResult]:
    """The Beta expectations behind ``terms``, in one pass of the engine.

    ``k2``: E[(F^{-1}(U) - mu)^2]; ``k3``: E[log f(F^{-1}(U))]; ``direct``:
    E of the log ratio of the X_(k) density to the Gaussian one, in
    u = F(x) coordinates.  Every node makes at most one ``quantile`` and one
    ``log_pdf_at_quantile`` call for all columns, and the direct column takes
    its log Beta density from the engine's extended-precision log weight,
    the same value that weights the node.  ``ref`` is needed only for
    ``k2`` and ``direct``.
    """
    need_quantile = "k2" in terms or "direct" in terms
    need_log_pdf = "k3" in terms or "direct" in terms

    def columns(u, logw):
        # overflow to inf is the divergence signal for explosive quantiles
        with np.errstate(over="ignore", invalid="ignore"):
            col = {}
            if need_quantile:
                col["k2"] = (np.asarray(parent.quantile(u), dtype=float) - ref.mu_p) ** 2
            if need_log_pdf:
                col["k3"] = np.asarray(parent.log_pdf_at_quantile(u), dtype=float)
            if "direct" in terms:
                v = ref.v_np
                col["direct"] = (logw + col["k3"] + 0.5 * math.log(2.0 * math.pi * v)
                                 + col["k2"] / (2.0 * v))
            return np.stack([col[t] for t in terms])

    tol_abs, tol_rel = zip(*(_term_tolerances(t, tol) for t in terms))
    # the direct value is reported only when k2 and k3 are finite
    res = beta_expectation(columns, law.alpha, law.beta,
                           tol_abs=tol_abs, tol_rel=tol_rel, log_weight=True,
                           stop_on_divergence=[t == "direct" for t in terms])
    return dict(zip(terms, res))


def _quadrature_detail(
    term: str, res: QuadResult, ref: GaussianReference, log_fp: float,
) -> tuple[float, float, bool, str]:
    """(value, error, diverged, message) of one term from its Beta expectation.

    A finite value from an unconverged integral is kept, and the message
    says so.
    """
    if res.diverged:
        value = math.copysign(math.inf, res.value) if term == "k3" else math.inf
        return value, math.inf, True, res.message
    message = "" if res.converged else f"{term} did not converge: {res.message}"
    if term == "k2":
        scale = 2.0 * ref.v_np
        return res.value / scale - 0.5, res.error / scale, False, message
    if term == "k3":
        return res.value - log_fp, res.error, False, message
    return res.value, res.error, False, message


def _monte_carlo_detail(
    term: str,
    parent: ParentDistribution,
    law,
    ref: GaussianReference,
    log_fp: float,
    budget: int,
    seed: int,
) -> tuple[float, float, bool, str]:
    """(value, error, diverged, message) of k2 or k3 from Beta draws."""
    if term == "k2":
        u = beta_sample(law, budget, seed, stream=1)
        vals = (np.asarray(parent.quantile(u), dtype=float) - ref.mu_p) ** 2
        if not np.isfinite(vals).all():
            return math.inf, math.inf, True, "non-finite quantile differences sampled"
        scale, shift = 2.0 * ref.v_np, 0.5
    else:
        u = beta_sample(law, budget, seed, stream=2)
        vals = np.asarray(parent.log_pdf_at_quantile(u), dtype=float)
        if not np.isfinite(vals).all():
            return math.inf, math.inf, True, "non-finite log densities sampled"
        scale, shift = 1.0, log_fp
    se = float(np.std(vals, ddof=1) / math.sqrt(budget))
    return float(np.mean(vals)) / scale - shift, se / scale, False, ""


def _term_detail(term, parent, spec, ref, log_fp, method, budget, seed, tol):
    """(value, error, diverged, message) of k2 or k3 by either method."""
    if method == "quadrature":
        res = _quadrature_terms(parent, spec.beta_law, ref, tol, (term,))[term]
        return _quadrature_detail(term, res, ref, log_fp)
    if method == "monte_carlo":
        return _monte_carlo_detail(term, parent, spec.beta_law, ref, log_fp, budget, seed)
    raise ValueError("method must be 'quadrature' or 'monte_carlo'")


def k2_term(
    parent: ParentDistribution,
    n: int,
    p: float,
    method: str = "quadrature",
    budget: int = 100_000,
    seed: int = 0,
    tol: float = 1e-10,
) -> float:
    """E[(F^{-1}(U_(np)) - F^{-1}(p))^2] / (2 V_np) - 1/2; inf when divergent."""
    spec = OrderStatSpec.from_fraction(n, p)
    ref = gaussian_reference(parent, n, p)
    return _term_detail("k2", parent, spec, ref, 0.0, method, budget, seed, tol)[0]


def k3_term(
    parent: ParentDistribution,
    n: int,
    p: float,
    method: str = "quadrature",
    budget: int = 100_000,
    seed: int = 0,
    tol: float = 1e-10,
) -> float:
    """E[log(f(F^{-1}(U_(np))) / f(F^{-1}(p)))]; signed inf when divergent."""
    spec = OrderStatSpec.from_fraction(n, p)
    log_fp = float(parent.log_pdf_at_quantile(p))
    if not math.isfinite(log_fp):
        raise ConditionViolation(
            f"{parent.spec_string()} has zero density at its {p:g}-quantile")
    return _term_detail("k3", parent, spec, None, log_fp, method, budget, seed, tol)[0]


# ---------------------------------------------------------------------------
# Direct KL and the bundled decomposition
# ---------------------------------------------------------------------------

def kl_direct(parent: ParentDistribution, n: int, p: float, tol: float = 1e-9) -> float:
    """KL divergence of X_(np) from its Gaussian reference by one integral.

    Integrates in u = F(x) coordinates, where the order-statistic density is
    the Beta weight times f(F^{-1}(u)); unbounded supports become endpoint
    singularities on (0, 1) that the panel refinement resolves.  Returns inf
    with divergence diagnostics when the integral blows up.
    """
    spec = OrderStatSpec.from_fraction(n, p)
    ref = gaussian_reference(parent, n, p)
    res = _quadrature_terms(parent, spec.beta_law, ref, tol, ("direct",))["direct"]
    if res.diverged:
        return math.inf
    return res.value


@dataclass(slots=True)
class KlDecomposition:
    """The three-term split of D(X_(np) || G_{n,p}) plus its direct value.

    Slotted, and the total is derived rather than stored: sweeps and
    benchmarks keep thousands of these.
    """

    n: int
    p: float
    k: int
    k1: float
    k2: float
    k3: float
    total_direct: float
    quad_error: float
    diverged: bool = False
    message: str = ""

    @property
    def total_decomposed(self) -> float:
        """k1 + k2 + k3; infinite once a term diverged."""
        return math.inf if self.diverged else self.k1 + self.k2 + self.k3

    def to_dict(self) -> dict:
        return {
            "n": self.n, "p": self.p, "k": self.k,
            "k1": self.k1, "k2": self.k2, "k3": self.k3,
            "total_decomposed": self.total_decomposed,
            "total_direct": self.total_direct,
            "quad_error": self.quad_error,
            "diverged": self.diverged,
            "message": self.message,
        }


def kl_decompose(
    parent: ParentDistribution,
    n: int,
    p: float,
    *,
    method: str = "quadrature",
    budget: int = 100_000,
    seed: int = 0,
    tol: float = 1e-9,
    rounding: str = "half-up",
) -> KlDecomposition:
    """Bundle k1, k2, k3, their sum, and the directly integrated divergence.

    Component divergence is retained as an infinite entry with a message
    rather than aborting, so parameter sweeps can report it per point.  By
    quadrature, k2, k3 and the direct value come from one three-column pass;
    a term whose integral ends unconverged keeps its value and is named in
    ``message``.
    """
    spec = OrderStatSpec.from_fraction(n, p, rounding)
    ref = gaussian_reference(parent, n, p)
    k1 = k1_term(n, p, rounding)
    log_fp = float(parent.log_pdf_at_quantile(p))
    if method == "quadrature":
        res = _quadrature_terms(parent, spec.beta_law, ref, tol)
        k2_detail, k3_detail, direct_detail = (
            _quadrature_detail(t, res[t], ref, log_fp) for t in ("k2", "k3", "direct"))
    else:
        k2_detail, k3_detail = (
            _term_detail(t, parent, spec, ref, log_fp, method, budget, seed, tol)
            for t in ("k2", "k3"))
        direct_detail = None
    k2, k2_err, k2_div, k2_msg = k2_detail
    k3, k3_err, k3_div, k3_msg = k3_detail
    diverged = k2_div or k3_div
    if diverged:
        message = "; ".join(m for m in (k2_msg, k3_msg) if m)
        direct = math.inf
        quad_error = math.inf
    else:
        if direct_detail is None:
            res = _quadrature_terms(parent, spec.beta_law, ref, tol, ("direct",))
            direct_detail = _quadrature_detail("direct", res["direct"], ref, log_fp)
        direct, direct_err, direct_div, direct_msg = direct_detail
        message = "; ".join(m for m in (k2_msg, k3_msg, direct_msg) if m)
        quad_error = k2_err + k3_err + (0.0 if direct_div else direct_err)
    return KlDecomposition(
        n=int(n), p=float(p), k=spec.k,
        k1=k1, k2=k2, k3=k3,
        total_direct=direct,
        quad_error=quad_error, diverged=diverged, message=message,
    )
