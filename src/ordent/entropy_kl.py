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
reported outcome, not an exception, decided from the parent's declared
endpoint growth before any quadrature or sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special
from .distributions import PROB_CLAMP, ParentDistribution, beta_sample_mean, power_moment_finite
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
    "KlDecompositions",
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
    n = special._check_integer(n, "n")
    k = special._check_integer(k, "k")
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
    """Limiting Gaussian: mean F^{-1}(p), variance p(1-p)/(n f(F^{-1}(p))^2).

    ``log_f_p`` is log f(F^{-1}(p)).
    """

    mu_p: float
    v_np: float
    n: int
    p: float
    log_f_p: float

    @property
    def scaled_variance(self) -> float:
        """n * v_np; independent of n."""
        return self.n * self.v_np


def gaussian_reference(parent: ParentDistribution, n: int, p: float) -> GaussianReference:
    return _references(parent, [n], p)[0]


def _references(parent: ParentDistribution, ns, p: float) -> list[GaussianReference]:
    """``gaussian_reference`` at each n of ``ns``, from one evaluation of the
    parent's quantile and density at p."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    mu = float(parent.quantile(p))
    log_fq = float(parent.log_pdf_at_quantile(p))
    fq = math.exp(log_fq)
    if not (fq > 0.0 and math.isfinite(fq)):
        raise ConditionViolation(
            f"{parent.spec_string()} has density {fq:g} at its {p:g}-quantile; "
            "the Gaussian limit needs a positive finite density there")
    return [GaussianReference(mu_p=mu, v_np=p * (1.0 - p) / (n * fq * fq), n=int(n), p=float(p),
                              log_f_p=log_fq) for n in ns]


# ---------------------------------------------------------------------------
# The three decomposition terms
# ---------------------------------------------------------------------------

def k1_term(n: int, p: float) -> float:
    """Entropy gap 1/2 log(2 pi e p(1-p)/n) - h(U_(np)); parent-free."""
    k = round_rank(n, p)
    base = 0.5 * math.log(2.0 * math.pi * math.e * p * (1.0 - p) / n)
    return base - uniform_order_stat_entropy_exact(n, k)


def _term_tolerances(term: str, tol: float) -> tuple[float, float]:
    """(tol_abs, tol_rel) of one quadrature term for a caller's ``tol``."""
    if term == "k2":
        # relative only: the quantile MSE scales with the parent
        return 1e-300, max(tol, 1e-11)
    return tol, 1e-10


#: The expectation behind k2 and k3 as (``EndpointGrowth`` field, power, name).
_TERM_EXPECTATION = {"k2": ("quantile", 2.0, "E[(F^-1(U) - F^-1(p))^2]"),
                     "k3": ("log_pdf", 1.0, "E[log f(F^-1(U))]")}


def _term_divergence(term: str, parent: ParentDistribution, law) -> tuple[float, str] | None:
    """(infinite value, message) when the expectation behind a term is
    infinite under ``law``, from the parent's endpoint growth, else None.

    A divergent k3 has the sign of log f(F^{-1}(u)) at its diverging end
    (the lower one if both diverge); the nonnegative direct KL is +inf with
    k2 or k3, whose message says why.
    """
    if term == "direct":
        hit = _term_divergence("k2", parent, law) or _term_divergence("k3", parent, law)
        return None if hit is None else (math.inf, "")
    field, power, name = _TERM_EXPECTATION[term]
    a0, a1 = getattr(parent.growth, field)
    if power_moment_finite((a0, a1), power, law.alpha, law.beta):
        return None
    value = math.inf
    if term == "k3":
        lower = not power_moment_finite((a0, 0.0), power, law.alpha, law.beta)
        end = PROB_CLAMP if lower else 1.0 - PROB_CLAMP
        value = math.copysign(value, float(parent.log_pdf_at_quantile(end)))
    return value, f"{name} is infinite under Beta({law.alpha:g}, {law.beta:g})"


def _term_columns(parent: ParentDistribution, refs, terms: tuple[str, ...]):
    """The integrand ``columns(u, logw=None, problem=0)`` of ``terms``, one
    row per term, for a batch whose problem i has the reference ``refs[i]``.

    ``k2``: (F^{-1}(u) - mu)^2; ``k3``: log f(F^{-1}(u)); ``direct``: the log
    ratio of the X_(k) density to the Gaussian one in u = F(x) coordinates,
    with the log Beta density ``logw`` that weights the quadrature node;
    ``problem`` is each node's problem index.  Each call makes at most one
    ``quantile`` and one ``log_pdf_at_quantile`` call.
    """
    mu = np.array([ref.mu_p for ref in refs])
    two_v = np.array([2.0 * ref.v_np for ref in refs])
    log_norm = np.array([0.5 * math.log(2.0 * math.pi * ref.v_np) for ref in refs])

    def columns(u, logw=None, problem=0):
        col = {}
        if "k2" in terms or "direct" in terms:
            col["k2"] = (np.asarray(parent.quantile(u), dtype=float) - mu[problem]) ** 2
        if "k3" in terms or "direct" in terms:
            col["k3"] = np.asarray(parent.log_pdf_at_quantile(u), dtype=float)
        if "direct" in terms:
            col["direct"] = logw + col["k3"] + log_norm[problem] + col["k2"] / two_v[problem]
        return np.stack([col[t] for t in terms])

    return columns


def _term_detail(term: str, res: QuadResult, ref: GaussianReference) -> tuple:
    """(value, error, diverged, message) of one term from either estimator's result.

    A finite value from an unconverged integral is kept, and the message
    says so.  A diverged k2 or direct KL is +inf (both are nonnegative); a
    diverged k3 keeps the result's value, NaN after a non-finite node.
    """
    if res.diverged:
        return res.value if term == "k3" else math.inf, math.inf, True, res.message
    message = "" if res.converged else f"{term} did not converge: {res.message}"
    if term == "k2":
        scale = 2.0 * ref.v_np
        return res.value / scale - 0.5, res.error / scale, False, message
    if term == "k3":
        return res.value - ref.log_f_p, res.error, False, message
    return res.value, res.error, False, message


def _term_results(terms, parent, laws, refs, tol, method="quadrature", budget=0,
                  seed=0) -> tuple[list, dict]:
    """The Beta expectation behind each of ``terms`` at each point of a
    batch, point i with law ``laws[i]`` and reference ``refs[i]``: one
    {term: result} dict per point, and the quadrature pass's cost (its
    integrand nodes, integrand calls and refinement levels).

    By quadrature, every point's terms are one batched multi-column pass.
    By Monte Carlo, each point's k2 and k3 are the mean over one
    ``budget``-draw sample from (``seed``, stream 1) that both share,
    and the direct KL is integrated.  An expectation that
    ``_term_divergence`` finds infinite is neither integrated nor sampled:
    its result is diverged, with that infinity and message.  A column that
    only other points need is integrated to an infinite tolerance and
    dropped.
    """
    if method not in ("quadrature", "monte_carlo"):
        raise ValueError("method must be 'quadrature' or 'monte_carlo'")
    results = [{} for _ in laws]
    for res, law in zip(results, laws):
        for t in terms:
            hit = _term_divergence(t, parent, law)
            if hit:
                res[t] = QuadResult(hit[0], math.inf, 0, diverged=True, converged=False,
                                    message=hit[1])
    sampled = tuple(t for t in terms if t != "direct" and method == "monte_carlo")
    for res, law, ref in zip(results, laws, refs):
        todo = tuple(t for t in sampled if t not in res)
        if todo:
            res.update(zip(todo, beta_sample_mean(_term_columns(parent, [ref], todo), law,
                                                  budget, seed, stream=1)))
    points = [i for i, res in enumerate(results) if any(t not in res for t in terms)]
    cost = {"nodes": 0, "integrand_calls": 0, "levels": 0}
    if points:
        integrated = tuple(t for t in terms if any(t not in results[i] for i in points))
        tols = [[_term_tolerances(t, tol) if t not in results[i] else (math.inf, 0.0)
                 for t in integrated] for i in points]
        batch = beta_expectation(_term_columns(parent, [refs[i] for i in points], integrated),
                                 [laws[i].alpha for i in points], [laws[i].beta for i in points],
                                 tol_abs=[[t[0] for t in row] for row in tols],
                                 tol_rel=[[t[1] for t in row] for row in tols],
                                 log_weight=True)
        for i, res in zip(points, batch):
            results[i].update((t, r) for t, r in zip(integrated, res) if t not in results[i])
        cost = {"nodes": batch.neval, "integrand_calls": batch.calls, "levels": batch.levels}
    return results, cost


def _term_grid(terms, parent, ns, p, tol, method="quadrature", budget=0,
               seed=0) -> tuple[list, list, list, dict]:
    """(specs, refs, results, cost) at each n of ``ns``: the order statistic,
    the Gaussian reference and ``_term_results`` of every point, in one batch."""
    specs = [OrderStatSpec.from_fraction(n, p) for n in ns]
    refs = _references(parent, ns, p)
    results, cost = _term_results(terms, parent, [spec.beta_law for spec in specs], refs, tol,
                                  method, budget, seed)
    return specs, refs, results, cost


#: The ``tol`` of each single-term view: the direct KL's is ``kl_decompose``'s
#: default, k2's and k3's a tighter one.
_VIEW_TOL = {"k2": 1e-10, "k3": 1e-10, "direct": 1e-9}


def _term_at(term, parent, n, p) -> tuple:
    """``_term_detail`` of one term at (n, p) alone, by quadrature: the value
    ``kl_decompose`` reports for it, with its error, divergence flag and
    message."""
    _, (ref,), (res,), _ = _term_grid((term,), parent, [n], p, _VIEW_TOL[term])
    return _term_detail(term, res[term], ref)


def k2_term(parent: ParentDistribution, n: int, p: float) -> float:
    """E[(F^{-1}(U_(np)) - F^{-1}(p))^2] / (2 V_np) - 1/2; inf when divergent."""
    return _term_at("k2", parent, n, p)[0]


def k3_term(parent: ParentDistribution, n: int, p: float) -> float:
    """E[log(f(F^{-1}(U_(np))) / f(F^{-1}(p)))]; signed inf when divergent."""
    return _term_at("k3", parent, n, p)[0]


# ---------------------------------------------------------------------------
# Direct KL and the bundled decomposition
# ---------------------------------------------------------------------------

def kl_direct(parent: ParentDistribution, n: int, p: float) -> float:
    """KL divergence of X_(np) from its Gaussian reference by one integral.

    Integrates in u = F(x) coordinates, where the order-statistic density is
    the Beta weight times f(F^{-1}(u)); unbounded supports become endpoint
    singularities on (0, 1) that the panel refinement resolves.  Returns inf
    when k2 or k3, and so the divergence, is infinite.
    """
    return _term_at("direct", parent, n, p)[0]


@dataclass(slots=True)
class KlDecomposition:
    """The three-term split of D(X_(np) || G_{n,p}) plus its direct value.

    ``quad_error`` sums the terms' errors, standard errors for Monte Carlo
    terms.  Slotted, and the total is derived rather than stored: sweeps and
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


class KlDecompositions(list):
    """``kl_decompose``'s result for a sequence of n: one ``KlDecomposition``
    per n, and ``cost``, the machine-independent cost of the quadrature pass
    that integrated them: its integrand nodes, integrand calls and
    refinement levels."""

    def __init__(self, decompositions, cost: dict):
        super().__init__(decompositions)
        self.cost = cost


def kl_decompose(
    parent: ParentDistribution,
    n,
    p: float,
    *,
    method: str = "quadrature",
    budget: int = 100_000,
    seed: int = 0,
    tol: float = 1e-9,
):
    """Bundle k1, k2, k3, their sum, and the directly integrated divergence.

    Component divergence, decided before any quadrature or sampling, is
    retained as an infinite entry with a message rather than aborting, so
    parameter sweeps can report it per point.  By quadrature, the finite
    terms come from one multi-column pass; a term whose integral ends
    unconverged keeps its value and is named in ``message``.  By Monte Carlo,
    k2 and k3 average the same integrand over one ``budget``-draw sample
    (``budget`` >= 2, from ``seed``'s stream 1); the direct KL is integrated.

    ``n`` may be an increasing sequence: the result is then a
    ``KlDecompositions`` list with one ``KlDecomposition`` per n, each equal
    to the one that n gives alone.  The reference quantile and density at p
    are evaluated once, and the integrals of all points share one batched
    quadrature pass, whose cost the list reports.
    """
    single = np.ndim(n) == 0
    ns = [special._check_integer(m, "n") for m in ([n] if single else n)]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n must be an int or a nonempty increasing sequence")
    specs, refs, results, cost = _term_grid(("k2", "k3", "direct"), parent, ns, p, tol, method,
                                            budget, seed)
    out = [_decomposition(spec, ref, res) for spec, ref, res in zip(specs, refs, results)]
    return out[0] if single else KlDecompositions(out, cost)


def _decomposition(spec: OrderStatSpec, ref: GaussianReference, results: dict) -> KlDecomposition:
    """The ``KlDecomposition`` of one point from its term results."""
    k2, k2_err, k2_div, k2_msg = _term_detail("k2", results["k2"], ref)
    k3, k3_err, k3_div, k3_msg = _term_detail("k3", results["k3"], ref)
    direct, direct_err, direct_div, direct_msg = _term_detail("direct", results["direct"], ref)
    diverged = k2_div or k3_div
    # a diverged k2 or k3 carries an infinite error, and so does quad_error
    return KlDecomposition(
        n=spec.n, p=float(ref.p), k=spec.k,
        k1=k1_term(spec.n, ref.p), k2=k2, k3=k3,
        total_direct=math.inf if diverged else direct,
        quad_error=k2_err + k3_err + (0.0 if direct_div else direct_err),
        diverged=diverged, message="; ".join(m for m in (k2_msg, k3_msg, direct_msg) if m),
    )
