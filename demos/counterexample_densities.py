"""Two stress-test densities at the edge of the Gaussian-convergence theory.

f1(x) = 2/(x log^3 x) on (e, inf) has no finite absolute moment of any
positive order.  Its quantile explodes so violently that the quantile MSE
term is infinite at every n: the KL divergence never converges, showing the
moment condition is doing real work.

f2(x) = 1/(x log^2 x) on (0, 1/e) has an unbounded density whose L_m norm is
infinite for every m > 1, violating the norm condition.  Convergence happens
anyway, at the clean rate Theta(1/n), with the log-density term available in
closed form through the digamma function.
"""

import math

from scipy.special import digamma

from ordent import F1, F2, condition_check, kl_decompose, log_grid, rate_sweep

# ---------------------------------------------------------------------------
# 1. which sufficient conditions does each density violate?
# ---------------------------------------------------------------------------
for parent, r in ((F1(), 1.0), (F2(), 1.0)):
    chk = condition_check(parent, p=0.5, m=2.0, r=r)
    print(f"{parent.name}: norm_finite={chk.norm_finite} "
          f"density_positive={chk.density_positive} "
          f"derivative_continuous={chk.derivative_continuous} "
          f"moment_finite={chk.moment_finite}")

# ---------------------------------------------------------------------------
# 2. f1: the quantile MSE term diverges, so the full divergence is infinite
# ---------------------------------------------------------------------------
print("\nf1: divergence reported per point, not raised")
for n in (100, 1_000):
    d = kl_decompose(F1(), n, 0.5)
    print(f"  n={n:>5}: k1={d.k1:+.4e} (finite), k2={d.k2}, k3={d.k3:+.4e} (finite)"
          f" -> total={d.total_decomposed}")

# ---------------------------------------------------------------------------
# 3. f2: convergence at Theta(1/n) despite the unbounded density
# ---------------------------------------------------------------------------
grid = log_grid(100, 100_000, 12, multiple_of=2)
report = rate_sweep(F2(), 0.5, grid)
print(f"\nf2: fitted decay exponent {report.rate_fit.slope:.3f} "
      f"(r^2 {report.rate_fit.r_squared:.5f}) over n in {report.rate_fit.window}")

# the log-density term has a digamma closed form: for rank k of n at p,
#   k3 = 2 (psi(k) - psi(n+1)) + n/(k-1) - 2 log p - 1/p
print("\nf2 closed-form k3 vs quadrature:")
p = 0.5
for n in (100, 10_000):
    k = round(n * p)
    closed = 2 * (digamma(k) - digamma(n + 1)) + n / (k - 1) - 2 * math.log(p) - 1 / p
    d = kl_decompose(F2(), n, p)
    print(f"  n={n:>6}: quadrature {d.k3:+.10e}  closed {closed:+.10e}  "
          f"diff {abs(d.k3 - closed):.1e}")
