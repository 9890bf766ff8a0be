"""Monte Carlo in constant memory.

The samplers read the counter stream in chunks of 8192 draws, so what a
Monte Carlo estimate allocates does not grow with its budget: at 1e6 draws
one count-sized float array alone is 8 MB, and the estimates below stay
under half of that.  ``tracemalloc`` sees numpy's array buffers, so the
traced peak is what the call allocates, not what the process happens to
keep resident.
"""

import tracemalloc

import pytest

from ordent.distributions import Exponential, Gaussian, beta_sample_mean
from ordent.entropy_kl import kl_decompose
from ordent.order_stats import OrderStatSpec, sample_order_stat, verify_moment_bound

COUNT = 1_000_000
LIMIT = 4e6  # bytes: a few chunks, the sampler's table and the caller's own work
SPEC = OrderStatSpec(200, 60)


def _traced_peak(call):
    """(peak bytes traced while ``call()`` runs, its result)."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


ESTIMATES = {
    "beta_sample_mean": lambda: beta_sample_mean(lambda u: u, SPEC.beta_law, COUNT, seed=3),
    "kl_decompose[monte_carlo]": lambda: kl_decompose(
        Exponential(), 200, 0.3, method="monte_carlo", budget=COUNT, seed=3),
    "verify_moment_bound": lambda: verify_moment_bound(
        Gaussian(), SPEC, 2.0, 4.0, mc_count=COUNT, seed=3),
}


@pytest.mark.parametrize("call", ESTIMATES.values(), ids=ESTIMATES.keys())
def test_estimates_run_in_constant_memory(call):
    peak, _ = _traced_peak(call)
    assert peak < LIMIT, f"traced peak {peak / 1e6:.1f} MB"


def test_sample_order_stat_holds_little_beyond_its_output():
    # the Beta variates pass through parent.quantile chunk by chunk into the output
    peak, draws = _traced_peak(lambda: sample_order_stat(Gaussian(), SPEC, COUNT, seed=3))
    assert draws.size == COUNT
    assert peak < draws.nbytes + LIMIT, f"traced peak {peak / 1e6:.1f} MB"
