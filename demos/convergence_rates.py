"""Empirical convergence rates of the Gaussian approximation.

Sweeps the KL divergence over a log-spaced n grid for several parent laws
and fits the decay exponent on the top half of the grid.  All four classical
parents clear the 1/sqrt(n) guarantee comfortably; the realized rate is
1/n across the board.

Note the grid parity: at p = 1/2 an odd n puts the rank dead on the median
and drops the divergence onto a faster second-order branch, so rate studies
use even n throughout.
"""

from ordent import Cauchy, Exponential, Gaussian, Uniform, kl_decompose, log_grid, rate_sweep

grid = log_grid(100, 100_000, 12, multiple_of=2)
print(f"n grid: {grid}\n")

print(f"{'parent':28s} {'slope':>8s} {'r^2':>8s}   totals (first -> last)")
for parent in (Uniform(), Gaussian(), Exponential(), Cauchy()):
    report = rate_sweep(parent, 0.5, grid)
    fit = report.rate_fit
    first = report.decompositions[0].total_decomposed
    last = report.decompositions[-1].total_decomposed
    print(f"{parent.spec_string():28s} {fit.slope:8.3f} {fit.r_squared:8.5f}   "
          f"{first:.3e} -> {last:.3e}")

print("\nwhy parity matters at the median:")
even = kl_decompose(Gaussian(), 250, 0.5).total_decomposed
odd = kl_decompose(Gaussian(), 251, 0.5).total_decomposed
print(f"  n=250 (rank 125, off-center): total = {even:.3e}")
print(f"  n=251 (rank 126, exactly centered): total = {odd:.3e}")
print("  the exactly-centered rank kills the leading bias term, jumping to ~1/n^2")
