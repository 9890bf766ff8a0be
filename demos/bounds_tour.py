"""A tour of the finite-n bounds and their empirical verifiers.

Every bound is assembled from fully explicit finite-n expressions, so each
one can be checked numerically at concrete parameters: exact Beta tails
against the sub-Gaussian tail bound, Monte Carlo order-statistic moments
against the Gamma-ratio constant, the quantile-MSE bound (exactly tight for
the uniform parent), the log-density-ratio bound, and the Beta-normalizer
constant, including the one corner of parameter space where the claimed
constant genuinely fails.
"""

import math

import numpy as np
from scipy.special import betainc

from ordent import (
    BetaLaw,
    Cauchy,
    Gaussian,
    Uniform,
    beta_sample,
    beta_tail_bound,
    k3_bound,
    moment_bound_constant,
    quantile_mse_bound,
    stirling_constant_check,
    verify_moment_bound,
    OrderStatSpec,
)

# ---------------------------------------------------------------------------
# 1. tail bound vs exact Beta tails and Monte Carlo
# ---------------------------------------------------------------------------
n, p, eps = 1_000, 0.5, 0.05
k = round(n * p)
exact = betainc(k, n + 1 - k, p - eps) + 1 - betainc(k, n + 1 - k, p + eps)
bound = beta_tail_bound(n, p, eps)
draws = beta_sample(BetaLaw(k, n + 1 - k), 1_000_000, seed=0)
mc = float(np.mean(np.abs(draws - p) > eps))
print(f"tail of U_({k}) of {n} beyond +-{eps}:")
print(f"  exact {exact:.3e} <= monte carlo {mc:.3e} -> bound {bound:.3e}\n")

# ---------------------------------------------------------------------------
# 2. moments of order statistics from one parent moment
# ---------------------------------------------------------------------------
# the Cauchy has no mean, yet a single fractional moment (r = 1/2) bounds
# every moment of its central order statistics
rep = verify_moment_bound(Cauchy(), OrderStatSpec(n=50, k=25), q=2.0, r=0.5,
                          mc_count=200_000, seed=1)
print(f"cauchy median-of-50 second moment: MC {rep.empirical_value:.4f} "
      f"(se {rep.stderr:.4f}) <= bound {rep.analytic_value:.4f} [{rep.verdict}]")

c = moment_bound_constant(100_000, 30_000, q=4.0, r=2.0)
print(f"constant at n=1e5, p=0.3, q/r=2: {c.value:.4f} "
      f"(large-n limit 1/(p(1-p))^2 = {(0.3 * 0.7) ** -2:.4f})\n")

# ---------------------------------------------------------------------------
# 3. quantile-MSE bound: exactly tight for the uniform parent
# ---------------------------------------------------------------------------
print("uniform parent, (bound - exact MSE) * n collapses to zero:")
for n in (100, 1_000, 10_000):
    rep = quantile_mse_bound(Uniform(), n, 0.5, r=2.0)
    print(f"  n={n:>6}: gap*n = {(rep.analytic_value - rep.empirical_value) * n:.3e} "
          f"[{rep.verdict}]")

rep = quantile_mse_bound(Gaussian(), 500, 0.5, epsilon=0.1, r=2.0)
print(f"gaussian n=500: MSE {rep.empirical_value:.3e} <= bound "
      f"{rep.analytic_value:.3e} [{rep.verdict}]\n")

# ---------------------------------------------------------------------------
# 4. log-density-ratio bound
# ---------------------------------------------------------------------------
rep = k3_bound(Gaussian(), 1_000, 0.5, q=2.0)
print(f"log-density term, gaussian n=1000: {rep.empirical_value:+.3e} <= "
      f"{rep.analytic_value:.3e} [{rep.verdict}]\n")

# ---------------------------------------------------------------------------
# 5. the Beta-normalizer constant and its one failing corner
# ---------------------------------------------------------------------------
print("normalizer-ratio constant C_q n^{(1-1/q)/2}:")
for (alpha, beta, q) in [(500.0, 501.0, 2.0), (50.0, 451.0, 4.0)]:
    rep = stirling_constant_check(alpha, beta, q)
    print(f"  alpha={alpha:g} beta={beta:g} q={q:g}: ratio "
          f"{rep.empirical_value:.3f} <= {rep.analytic_value:.3f} [{rep.verdict}]")

rep = stirling_constant_check(2.4, 22.6, 10.0)  # n = 24, p = 0.1
print(f"  alpha=2.4 beta=22.6 q=10: ratio {rep.empirical_value:.3f} vs "
      f"{rep.analytic_value:.3f} [{rep.verdict}]  <- genuine violation: the"
      " claimed constant is too small on this corner (n = 20..32 at p=0.1,"
      " q=10, worst 10% over at n = 20); everywhere else the sweep passes")
