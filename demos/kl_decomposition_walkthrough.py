"""Splitting the Gaussian-approximation error of a central order statistic.

The KL divergence of X_(np) from its limiting Gaussian splits exactly into
three terms:

  k1  entropy deficit of the uniform order statistic (parent-independent),
  k2  normalized quantile mean-squared error minus one half,
  k3  expected log density ratio along the quantile flow.

The same divergence is also computed directly as one integral; the two
routes must agree to quadrature accuracy, which is the strongest invariant
this library exposes.
"""

from ordent import Exponential, Gaussian, Uniform, gaussian_reference, kl_decompose

n, p = 400, 0.3

for parent in (Uniform(), Gaussian(), Exponential()):
    ref = gaussian_reference(parent, n, p)
    d = kl_decompose(parent, n, p)
    print(f"{parent.spec_string()}  (reference mean {ref.mu_p:+.4f}, "
          f"variance {ref.v_np:.3e})")
    print(f"  k1 = {d.k1:+.6e}   (same for every parent)")
    print(f"  k2 = {d.k2:+.6e}")
    print(f"  k3 = {d.k3:+.6e}   (identically zero for the uniform parent)")
    print(f"  sum = {d.total_decomposed:+.6e}  direct = {d.total_direct:+.6e}  "
          f"|gap| = {abs(d.total_decomposed - d.total_direct):.1e}")
    print()

# The split is useful because each term isolates one mechanism: k1 is the
# Beta-vs-Gaussian shape penalty, k2 measures how well the order statistic
# tracks the true quantile, and k3 charges the local density variation.
print("k1 decays like 1/n, k2 and k3 carry all parent dependence:")
for n in (100, 1_000, 10_000):
    d = kl_decompose(Exponential(), n, p)
    print(f"  n={n:>6}: k1={d.k1:+.2e} k2={d.k2:+.2e} k3={d.k3:+.2e} "
          f"total={d.total_decomposed:+.2e}")
