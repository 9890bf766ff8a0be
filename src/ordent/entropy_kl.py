"""Entropy of uniform order statistics and the KL gap to the Gaussian limit.

The central order statistic X_(np) approaches a Gaussian with mean F^{-1}(p)
and variance p(1-p) / (n f(F^{-1}(p))^2).  The KL divergence from that
Gaussian splits exactly into three parts:

* ``k1``: the entropy deficit of U_(np) against a matched Gaussian; closed
  form via harmonic numbers, independent of the parent;
* ``k2``: the normalized quantile mean-squared error minus one half;
* ``k3``: the expected log density ratio along the quantile flow.

``kl_direct`` integrates the same divergence in one piece as a cross-check.
k2, k3 and the direct KL are Beta expectations E[g(U)], one ``_TERMS`` record
each: its integrand on a node record, its endpoint growth, exact part and
tolerance.  Divergence (the heavy-tail parent makes k2 infinite) is a
reported outcome, decided from that growth before any quadrature or sampling.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import special
from .distributions import ParentDistribution, beta_sample_mean, power_moment_finite
from .order_stats import OrderStatSpec
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
    spec = OrderStatSpec(n, k)
    return special.order_stat_entropy(spec.n, spec.k)


def entropy_expansion_linear_coefficient(p: float) -> float:
    """Coefficient of 1/n in the entropy expansion: (1/p + 1/(1-p) - 4) / 6.

    Exactly zero at p = 1/2, which is why the expansion error is O(1/n^2)
    there relative to the symmetric reference.
    """
    special._check_fraction(p)
    return (1.0 / p + 1.0 / (1.0 - p) - 4.0) / 6.0


def uniform_order_stat_entropy_expansion(n: int, p: float) -> float:
    """Asymptotic entropy of U_(np) for k = np, accurate to O(1/n^2).

    Returns ::

        1/2 log(2 pi e (p - 1/n)(1-p) / n) + (1/p + 1/(1-p) - 4)/(6n) + 1/(12 n^2)

    The shift p - 1/n inside the logarithm reflects that the first Beta
    parameter enters through k - 1; folding it into p would perturb the 1/n
    coefficient by -1/(2np) and destroy the O(1/n^2) residual.
    """
    n = OrderStatSpec.from_fraction(n, p).n
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
    """The limiting Gaussian of X_(np), for n and p that pass ``OrderStatSpec``;
    ``ConditionViolation`` unless f(F^{-1}(p)) is positive and finite, and
    ``ValueError`` unless v_np is a normal float with 2 pi v_np finite."""
    return _references(parent, [OrderStatSpec.from_fraction(n, p)])[0]


#: the range of log v_np: v_np, 2 v_np and 2 pi v_np are normal floats
_LOG_V_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max / (2.0 * math.pi)))


def _references(parent: ParentDistribution, specs) -> list[GaussianReference]:
    """``gaussian_reference`` at each of ``specs``, which share one p, from
    one ``tail`` call at p.  The range is decided from log f and log v_np =
    log(p(1 - p)/n) - 2 log f, before f or v_np is formed."""
    p = specs[0].p
    mu, log_fq = parent.tail(min(p, 1.0 - p), p >= 0.5)
    if not math.isfinite(log_fq):
        raise ConditionViolation(
            f"{parent.spec_string()} has density {math.exp(log_fq):g} at its {p:g}-quantile; "
            "the Gaussian limit needs a positive finite density there")
    refs = []
    for spec in specs:
        log_v = math.log(p * (1.0 - p) / spec.n) - 2.0 * log_fq
        if not _LOG_V_RANGE[0] < log_v < _LOG_V_RANGE[1]:
            raise ValueError(
                f"{parent.spec_string()} at n = {spec.n}, p = {p:g}: the reference variance "
                f"v_np = p(1-p)/(n f^2) = exp({log_v:.6g}) is outside the float range "
                f"(log f(F^-1(p)) = {log_fq:.6g})")
        fq = math.exp(log_fq)
        den = spec.n * fq * fq  # below the normal range only at p ~ 1e-16 and n ~ 1e16
        v = p * (1.0 - p) / den if den >= sys.float_info.min else math.exp(log_v)
        refs.append(GaussianReference(mu_p=mu, v_np=v, n=spec.n, p=float(p), log_f_p=log_fq))
    return refs


# ---------------------------------------------------------------------------
# The three decomposition terms
# ---------------------------------------------------------------------------

def k1_term(n: int, p: float) -> float:
    """Entropy gap 1/2 log(2 pi e p(1-p)/n) - h(U_(np)); parent-free."""
    return _k1(OrderStatSpec.from_fraction(n, p))


def _k1(spec: OrderStatSpec) -> float:
    """``k1_term`` of a spec that carries its p."""
    p = float(spec.p)
    base = 0.5 * math.log(2.0 * math.pi * math.e * p * (1.0 - p) / spec.n)
    return base - special.order_stat_entropy(spec.n, spec.k)


@dataclass(frozen=True, slots=True)
class _Term:
    """The Beta expectation E[g(U)] behind one reported term.  A node record
    holds dx = x - mu, logf = log f(x) and logw, the log Beta weight."""

    logw: bool  # whether g reads logw, which a Monte Carlo draw has not
    column: Callable  # g(q, r, i) on node record q, reference arrays r, problem indices i
    growth: tuple  # (EndpointGrowth field, power) of each expectation that makes it infinite
    name: str  # the expectation its divergence message names; "" when another's says why
    signed: bool  # whether a divergent term is -inf where log f falls; else it is +inf
    exact: Callable  # exact(value, error, ref): the term and its error from the expectation's
    tol: tuple  # the quadrature's (tol_abs, tol_rel), in every pass that integrates it


#: k2: the quantile MSE over 2v, minus 1/2; k3: the log density ratio; direct:
#: the log ratio of the X_(k) density to the Gaussian one in u = F(x).
_TERMS = {
    "k2": _Term(
        logw=False, column=lambda q, r, i: q["dx"] ** 2,
        growth=(("quantile", 2.0),), name="E[(F^-1(U) - F^-1(p))^2]", signed=False,
        exact=lambda value, error, ref: (value / (2 * ref.v_np) - 0.5, error / (2 * ref.v_np)),
        # relative only: the quantile MSE scales with the parent
        tol=(1e-300, 1e-10)),
    "k3": _Term(
        logw=False, column=lambda q, r, i: q["logf"],
        growth=(("log_pdf", 1.0),), name="E[log f(F^-1(U))]", signed=True,
        exact=lambda value, error, ref: (value - ref.log_f_p, error), tol=(1e-10, 1e-10)),
    "direct": _Term(
        logw=True,
        column=lambda q, r, i: (q["logw"] + q["logf"] + r["log_norm"][i]
                                + q["dx"] ** 2 / r["two_v"][i]),
        growth=(("quantile", 2.0), ("log_pdf", 1.0)), name="", signed=False,
        exact=lambda value, error, ref: (value, error), tol=(1e-10, 1e-10)),
}


def _term_divergence(term: str, parent: ParentDistribution, law) -> QuadResult | None:
    """The diverged result of a term that is infinite under ``law``, from the
    parent's endpoint growth, else None; a signed term takes the sign of log f
    at the diverging end (the lower one if both diverge): +inf where the
    declared ``growth.pdf`` exponent there is positive, -inf otherwise."""
    rec = _TERMS[term]
    for field, power in rec.growth:
        a0, a1 = getattr(parent.growth, field)
        if power_moment_finite((a0, a1), power, law.alpha, law.beta):
            continue
        value = math.inf
        if rec.signed:
            lower = not power_moment_finite((a0, 0.0), power, law.alpha, law.beta)
            value = math.inf if parent.growth.pdf[0 if lower else 1] > 0.0 else -math.inf
        message = rec.name and f"{rec.name} is infinite under Beta({law.alpha:g}, {law.beta:g})"
        return QuadResult(value, math.inf, 0, diverged=True, converged=False, message=message)
    return None


def _term_columns(parent: ParentDistribution, refs, terms: tuple[str, ...]):
    """The integrand ``columns(u, logw=None, problem=0)`` of ``terms``, one
    row per term, for a batch whose problem i has the reference ``refs[i]``.
    Each call builds one node record from one ``tail`` call: the tail mass
    min(u, 1 - u), exact, on the side u >= 1/2."""
    r = {"mu": np.array([ref.mu_p for ref in refs]),
         "two_v": np.array([2.0 * ref.v_np for ref in refs]),
         "log_norm": np.array([0.5 * math.log(2.0 * math.pi * ref.v_np) for ref in refs])}
    records = [_TERMS[t] for t in terms]

    def columns(u, logw=None, problem=0):
        x, logf = parent.tail(np.minimum(u, 1.0 - u), u >= 0.5)
        q = {"dx": x - r["mu"][problem], "logf": logf, "logw": logw}
        return np.stack([rec.column(q, r, problem) for rec in records])

    return columns


def _term_detail(term: str, res: QuadResult, ref: GaussianReference) -> tuple:
    """(value, error, diverged, message) of one term from either estimator's
    result.  An unconverged value is kept, and the message says so; a diverged
    term is +inf, or if signed the result's value, NaN after a non-finite node."""
    rec = _TERMS[term]
    if res.diverged:
        return res.value if rec.signed else math.inf, math.inf, True, res.message
    message = "" if res.converged else f"{term} did not converge: {res.message}"
    return (*rec.exact(res.value, res.error, ref), False, message)


def _term_results(terms, parent, laws, refs, method="quadrature", budget=0,
                  seed=0) -> tuple[list, dict]:
    """The Beta expectation behind each of ``terms`` at each point of a
    batch, point i with law ``laws[i]`` and reference ``refs[i]``: one
    {term: result} dict per point, and the passes' cost (summed integrand
    nodes and calls, the deepest pass's refinement levels).

    A term ``_term_divergence`` finds infinite is neither integrated nor
    sampled.  By Monte Carlo, each point's sampled terms are the mean over
    one ``budget``-draw sample from (``seed``, stream 1) that they share.
    The points that still need the same terms are one batched quadrature
    pass over exactly those columns, each to its record's tolerance.
    """
    if method not in ("quadrature", "monte_carlo"):
        raise ValueError("method must be 'quadrature' or 'monte_carlo'")
    results = [{t: hit for t in terms if (hit := _term_divergence(t, parent, law))}
               for law in laws]
    sampled = tuple(t for t in terms if not _TERMS[t].logw and method == "monte_carlo")
    for res, law, ref in zip(results, laws, refs):
        todo = tuple(t for t in sampled if t not in res)
        if todo:
            res.update(zip(todo, beta_sample_mean(_term_columns(parent, [ref], todo), law,
                                                  budget, seed, stream=1)))
    groups = {}
    for i, res in enumerate(results):
        todo = tuple(t for t in terms if t not in res)
        if todo:
            groups.setdefault(todo, []).append(i)
    cost = {"nodes": 0, "integrand_calls": 0, "levels": 0}
    for todo, points in groups.items():
        tol_abs, tol_rel = zip(*(_TERMS[t].tol for t in todo))
        batch = beta_expectation(_term_columns(parent, [refs[i] for i in points], todo),
                                 [laws[i].alpha for i in points], [laws[i].beta for i in points],
                                 tol_abs=tol_abs, tol_rel=tol_rel)
        for i, res in zip(points, batch):
            results[i].update(zip(todo, res))
        cost = {"nodes": cost["nodes"] + batch.neval,
                "integrand_calls": cost["integrand_calls"] + batch.calls,
                "levels": max(cost["levels"], batch.levels)}
    return results, cost


def _term_grid(terms, parent, specs, method="quadrature", budget=0,
               seed=0) -> tuple[list, list, dict]:
    """(refs, results, cost) at each of ``specs``, which share one p: the
    Gaussian reference and ``_term_results`` of every point."""
    refs = _references(parent, specs)
    results, cost = _term_results(terms, parent, [spec.beta_law for spec in specs], refs,
                                  method, budget, seed)
    return refs, results, cost


def _term_at(term, parent, n, p) -> tuple:
    """``_term_detail`` of one term at (n, p) alone, by quadrature of its
    column only: the value ``kl_decompose`` reports for it, with its error,
    divergence flag and message."""
    (ref,), (res,), _ = _term_grid((term,), parent, [OrderStatSpec.from_fraction(n, p)])
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

    ``quad_error`` sums the terms' errors (standard errors for Monte Carlo
    terms) and ``_roundoff``'s floor.  Slotted, and the total is derived
    rather than stored: sweeps and benchmarks keep thousands of these.
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


#: ulps of ``_roundoff``'s magnitudes; the largest gap between the two
#: totals on the benchmark's 60 decompositions is 2.9 of them
_ROUNDOFF_ULPS = 8.0


def _roundoff(ref: GaussianReference, k1: float) -> float:
    """A floor for the round-off of k1 + k2 + k3 against the direct KL, from
    the magnitudes that cancel to O(1/n): per node the direct column adds
    log w (about -h, h = h(U_(k))) to log f and 1/2 log(2 pi v); k1 is
    1/2 log(2 pi v) + 1/2 + log f(mu) - h; k3 subtracts log f(mu)."""
    log_norm = 0.5 * math.log(2.0 * math.pi * ref.v_np)
    base = log_norm + 0.5 + ref.log_f_p
    return _ROUNDOFF_ULPS * sys.float_info.epsilon * (
        abs(log_norm) + abs(ref.log_f_p) + abs(base) + 2.0 * abs(base - k1))


class KlDecompositions(list):
    """``kl_decompose``'s result for a sequence of n: one ``KlDecomposition``
    per n, and ``cost``, the machine-independent cost of the quadrature
    passes that integrated them: their summed integrand nodes and integrand
    calls, and the deepest pass's refinement levels."""

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
):
    """Bundle k1, k2, k3, their sum, and the directly integrated divergence.

    Component divergence, decided before any quadrature or sampling, is
    retained as an infinite entry with a message rather than aborting, so
    parameter sweeps can report it per point.  By quadrature, the finite
    terms come from one multi-column pass, each to its term's fixed
    tolerance; a term whose integral ends unconverged keeps its value and is
    named in ``message``.  By Monte Carlo, k2 and k3 average the same
    integrand over one ``budget``-draw sample (``budget`` >= 2, from
    ``seed``'s stream 1); the direct KL is integrated.

    ``n`` may be an increasing sequence: the result is then a
    ``KlDecompositions`` list with one ``KlDecomposition`` per n, each equal
    to the one that n gives alone.  The reference quantile and density at p
    are evaluated once, and the points that need the same terms share one
    batched quadrature pass; the list reports the passes' cost.
    """
    single = np.ndim(n) == 0
    specs = [OrderStatSpec.from_fraction(m, p) for m in ([n] if single else n)]
    if not specs or any(b.n <= a.n for a, b in zip(specs, specs[1:])):
        raise ValueError("n must be an int or a nonempty increasing sequence")
    refs, results, cost = _term_grid(tuple(_TERMS), parent, specs, method, budget, seed)
    out = []
    for spec, ref, res in zip(specs, refs, results):
        details = [_term_detail(t, res[t], ref) for t in _TERMS]
        (k2, k2_err, k2_div, _), (k3, k3_err, k3_div, _), (direct, err, direct_div, _) = details
        diverged = k2_div or k3_div
        k1 = _k1(spec)
        # a diverged k2 or k3 carries an infinite error, and so does quad_error
        out.append(KlDecomposition(
            n=spec.n, p=float(ref.p), k=spec.k, k1=k1, k2=k2, k3=k3,
            total_direct=math.inf if diverged else direct,
            quad_error=k2_err + k3_err + (0.0 if direct_div else err) + _roundoff(ref, k1),
            diverged=diverged, message="; ".join(d[3] for d in details if d[3])))
    return out[0] if single else KlDecompositions(out, cost)
