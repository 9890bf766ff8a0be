"""Acceptance gate: each test prints one PASS/FAIL line and enforces its
stated tolerance and runtime budget.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Two caveats discovered during verification are asserted exactly as
the mathematics dictates:

* the large-n limit of the order-statistic moment constant is
  (p(1-p))^{-q/r} (the constant is E[(U(1-U))^{q/r} reciprocal] and can never
  drop below 1); the commonly quoted (p(1-p))^{+q/r} is its reciprocal and
  unreachable, so criterion 7 checks convergence to the true limit;
* the Beta-normalizer constant bound of criterion 9 is genuinely violated on
  a small corner of its stated domain (p=0.1, q=10, n = 20..32); the
  sweep is asserted as stated and the failure is expected and documented.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc, betaincinv, digamma, gammaln

from ordent.bounds import holder_constant, quantile_mse_bound
from ordent.cli import EXIT_DIVERGENCE, cli_main
from ordent.distributions import F1, F2, Cauchy, Exponential, Gaussian, Uniform
from ordent.entropy_kl import (
    entropy_expansion_linear_coefficient,
    k2_term,
    k3_term,
    kl_decompose,
    uniform_order_stat_entropy_exact,
    uniform_order_stat_entropy_expansion,
)
from ordent.experiments import fit_rate, log_grid
from ordent.order_stats import OrderStatSpec, moment_bound_constant, verify_moment_bound


def _report(cid: str, ok: bool, detail: str, elapsed: float, budget: float):
    within = elapsed <= budget
    line = (f"ACCEPTANCE {cid}: {'PASS' if ok and within else 'FAIL'} "
            f"[{elapsed:.1f}s/{budget:.0f}s] {detail}")
    print(line)
    return ok and within


def _slope(ns, values):
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.abs(np.asarray(values, dtype=float)))
    return float(np.polyfit(x, y, 1)[0])


def beta_entropy_quadrature(n, k):
    a, b = float(k), float(n + 1 - k)
    lc = gammaln(a + b) - gammaln(a) - gammaln(b)

    def integrand(u):
        if u <= 0.0 or u >= 1.0:  # measure-zero endpoint probes from QUADPACK
            return 0.0
        logw = lc + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u)
        return -math.exp(logw) * logw

    pts = sorted(set(min(max(float(betaincinv(a, b, t)), 1e-14), 1.0 - 1e-14)
                     for t in (1e-13, 1e-8, 0.05, 0.5, 0.95, 1 - 1e-8, 1 - 1e-13)))
    return quad(integrand, 0.0, 1.0, points=pts, limit=400, epsabs=1e-12)[0]


def test_criterion_1_exact_entropy_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    pairs = [(2, 1), (2, 2), (10, 5), (100, 1), (100, 100), (10_000, 5_000)]
    while len(pairs) < 50:
        n = int(rng.integers(2, 10_001))
        pairs.append((n, int(rng.integers(1, n + 1))))
    worst = 0.0
    for n, k in pairs:
        err = abs(uniform_order_stat_entropy_exact(n, k) - beta_entropy_quadrature(n, k))
        worst = max(worst, err)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8
    assert _report("1-exact-entropy", ok, f"50 pairs, max |formula - quad| = {worst:.2e}",
                   elapsed, 10.0)


def test_criterion_2_expansion_quality():
    t0 = time.monotonic()
    ns_03 = log_grid(100, 100_000, 12, multiple_of=10)   # n p integer at p = 0.3
    ns_05 = log_grid(100, 100_000, 12, multiple_of=2)
    resid_03 = [abs(uniform_order_stat_entropy_expansion(n, 0.3)
                    - uniform_order_stat_entropy_exact(n, round(n * 0.3))) for n in ns_03]
    resid_05 = [abs(uniform_order_stat_entropy_expansion(n, 0.5)
                    - uniform_order_stat_entropy_exact(n, round(n * 0.5))) for n in ns_05]
    s03 = _slope(ns_03, resid_03)
    s05 = _slope(ns_05, resid_05)
    coeff = entropy_expansion_linear_coefficient(0.5)
    elapsed = time.monotonic() - t0
    ok = abs(s03 + 2.0) <= 0.1 and abs(s05 + 2.0) <= 0.1 and coeff == 0.0
    assert _report("2-expansion", ok,
                   f"slope(p=0.3) = {s03:.3f}, slope(p=0.5) = {s05:.3f}, "
                   f"linear coeff at 1/2 = {coeff}", elapsed, 5.0)


def test_criterion_3_decomposition_identity():
    t0 = time.monotonic()
    worst = 0.0
    cells = 0
    for parent in (Uniform(), Gaussian(), Exponential()):
        for n in (10, 100, 1_000):
            for p in (0.3, 0.5):
                d = kl_decompose(parent, n, p)
                gap = abs(d.total_decomposed - d.total_direct)
                worst = max(worst, gap)
                cells += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 2e-8
    assert _report("3-decomposition", ok,
                   f"{cells} cells, max |sum - direct| = {worst:.2e}", elapsed, 120.0)


def test_criterion_4_convergence_rate_upper_bound():
    t0 = time.monotonic()
    grid = log_grid(100, 100_000, 12, multiple_of=2)
    slopes = {}
    for parent in (Uniform(), Gaussian(), Exponential(), Cauchy()):
        totals = [kl_decompose(parent, n, 0.5).total_decomposed for n in grid]
        fit = fit_rate(grid, totals)
        slopes[parent.name] = fit.slope
    elapsed = time.monotonic() - t0
    ok = all(s <= -0.5 + 0.1 for s in slopes.values())
    detail = ", ".join(f"{k}={v:.3f}" for k, v in slopes.items())
    assert _report("4-rate-upper-bound", ok, f"slopes: {detail}", elapsed, 600.0)


def test_criterion_5_unbounded_density_counterexample():
    t0 = time.monotonic()
    grid = log_grid(100, 100_000, 12, multiple_of=2)
    parent = F2()
    totals = []
    worst_k3_gap = 0.0
    for n in grid:
        d = kl_decompose(parent, n, 0.5)
        totals.append(d.total_decomposed)
        k = round(n * 0.5)
        closed = (2.0 * (digamma(k) - digamma(n + 1)) + n / (k - 1.0)
                  - 2.0 * math.log(0.5) - 2.0)
        worst_k3_gap = max(worst_k3_gap, abs(d.k3 - closed))
    slope = fit_rate(grid, totals).slope
    elapsed = time.monotonic() - t0
    ok = abs(slope + 1.0) <= 0.15 and worst_k3_gap <= 1e-7
    assert _report("5-unbounded-density", ok,
                   f"slope = {slope:.3f}, max |k3_quad - k3_closed| = {worst_k3_gap:.2e}",
                   elapsed, 300.0)


def test_criterion_6_heavy_tail_counterexample(capsys):
    t0 = time.monotonic()
    k2_vals = [k2_term(F1(), n, 0.5) for n in (100, 1_000)]
    with capsys.disabled():
        pass
    code = cli_main(["kl", "--parent", "f1()", "--n", "100", "--p", "0.5"])
    capsys.readouterr()  # swallow the CLI JSON
    elapsed = time.monotonic() - t0
    ok = all(v == math.inf for v in k2_vals) and code == EXIT_DIVERGENCE
    assert _report("6-heavy-tail", ok,
                   f"k2 = {k2_vals}, CLI exit = {code} (want {EXIT_DIVERGENCE})",
                   elapsed, 60.0)


def test_criterion_7_moment_bound():
    t0 = time.monotonic()
    cells = []
    for parent, r, qs in [
        (Uniform(), 2.0, (1.0, 2.0, 4.0)),
        (Gaussian(), 2.0, (1.0, 2.0, 4.0)),
        (Exponential(), 1.0, (1.0, 2.0)),
        (Cauchy(), 0.5, (1.0, 2.0)),
    ]:
        for q in qs:
            for n, k in ((30, 15), (200, 60)):
                cells.append((parent, n, k, q, r))
    cells = cells[:20]
    failures = []
    for i, (parent, n, k, q, r) in enumerate(cells):
        rep = verify_moment_bound(parent, OrderStatSpec(n=n, k=k), q, r,
                                  mc_count=100_000, seed=1_000 + i)
        if not rep.passed:
            failures.append((parent.name, n, k, q, r))

    # limit of the constant: E[(U(1-U))^{-q/r}] concentrates at
    # (p(1-p))^{-q/r}; the reciprocal form sometimes quoted is impossible
    # since the constant always exceeds 1
    n, p, q, r = 100_000, 0.3, 4.0, 2.0
    c_val = moment_bound_constant(n, math.ceil(n * p), q, r).value
    true_limit = (p * (1 - p)) ** (-q / r)
    stated_reciprocal = (p * (1 - p)) ** (q / r)
    rel_dev = abs(c_val - true_limit) / true_limit
    elapsed = time.monotonic() - t0
    ok = not failures and rel_dev <= 0.01
    assert _report(
        "7-moment-bound", ok,
        f"{len(cells)} MC cells, failures = {failures or 'none'}; "
        f"C = {c_val:.4f} vs limit {true_limit:.4f} (rel dev {rel_dev:.2e}; "
        f"the reciprocal {stated_reciprocal:.4f} is below 1 and unreachable)",
        elapsed, 180.0)


def test_criterion_8_tail_bound_grid():
    t0 = time.monotonic()
    rng = np.random.default_rng(8)
    violations = 0
    for _ in range(1_000):
        n = int(rng.integers(10, 100_000))
        p = float(rng.uniform(0.05, 0.95))
        eps = float(rng.uniform(p / (n + 1) * 1.000001, p * 0.999999))
        k = min(max(int(math.floor(n * p + 0.5)), 1), n)
        exact = (betainc(k, n + 1 - k, max(p - eps, 0.0))
                 + 1.0 - betainc(k, n + 1 - k, min(p + eps, 1.0)))
        bound = 2.0 * math.exp(-2.0 * (n + 2.0) * (eps - p / (n + 1.0)) ** 2)
        if exact > bound + 1e-12:
            violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0
    assert _report("8-tail-bound", ok, f"1000-point grid, {violations} violations",
                   elapsed, 30.0)


def test_criterion_9_normalizer_constant_sweep():
    # NOTE: this criterion is expected to FAIL, honestly.  The claimed bound
    # C_q n^{(1-1/q)/2} on the Beta-normalizer ratio is violated on a small
    # corner of its own admissible domain: p = 0.1, q = 10, n in [20, 32]
    # (60-digit mpmath: ratio/bound 1.101 at n = 20, 1.003 at 32, 0.999 at
    # 33; below the domain, 1.188 at n = 16).  The underlying derivation's
    # final step needs (np-1) n(1-p) >= n^2, which no p in (0,1) satisfies;
    # elsewhere the constant's built-in slack absorbs the gap, but not in
    # this corner.  The sweep below asserts the stated claim over the full
    # domain and therefore fails with the precise violating cells.
    t0 = time.monotonic()
    n = np.arange(10, 100_001, dtype=float)
    violating = []
    for p in (0.1, 0.5, 0.9):
        alpha = n * p
        beta = n + 1.0 - alpha
        mask = (alpha >= 2.0) & (beta >= 2.0)
        for q in (1.5, 2.0, 4.0, 10.0):
            a_s = q * (alpha - 1.0) + 1.0
            b_s = q * (beta - 1.0) + 1.0
            log_emp = ((gammaln(a_s) + gammaln(b_s) - gammaln(a_s + b_s)) / q
                       - gammaln(alpha) - gammaln(beta) + gammaln(alpha + beta))
            log_ana = math.log(holder_constant(q)) + 0.5 * (1.0 - 1.0 / q) * np.log(n)
            bad = mask & (log_emp > log_ana)
            if bad.any():
                ns_bad = n[bad].astype(int)
                violating.append((p, q, int(ns_bad.min()), int(ns_bad.max()),
                                  int(bad.sum())))
    elapsed = time.monotonic() - t0
    ok = not violating
    assert _report(
        "9-normalizer-constant", ok,
        f"full integer sweep; violations (p, q, n_min, n_max, count): "
        f"{violating or 'none'}", elapsed, 30.0)


def test_criterion_10_mse_bound_tightness():
    t0 = time.monotonic()
    gaps = []
    for n in log_grid(100, 100_000, 7, multiple_of=2):
        rep = quantile_mse_bound(Uniform(), n, 0.5, r=2.0)
        gaps.append((rep.analytic_value - rep.empirical_value) * n)
    elapsed = time.monotonic() - t0
    bounded = all(-1e-9 <= g <= gaps[0] + 1e-9 for g in gaps)
    monotone = all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
    ok = bounded and monotone and abs(gaps[-1]) <= 1e-6
    assert _report("10-mse-tightness", ok,
                   f"(bound - exact) * n: first = {gaps[0]:.2e}, last = {gaps[-1]:.2e}, "
                   f"monotone = {monotone}", elapsed, 60.0)
