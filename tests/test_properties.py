"""Property tests of the fused quadrature pass over random (parent, n, p).

Examples are derandomized and no example database is written, so the suite
runs the same cases every time.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ordent.distributions import make_parent
from ordent.entropy_kl import kl_decompose

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

ns = st.integers(min_value=50, max_value=100_000)
ps = st.floats(min_value=0.05, max_value=0.95)


@PROPERTY_SETTINGS
@given(family=st.sampled_from(["gaussian", "uniform"]), n=ns, p=ps)
def test_k2_reflection_symmetric_parents(family, n, p):
    # ceil rounding maps (p, 1-p) to the mirrored ranks k and n+1-k whenever
    # n p is not an integer; U_(n+1-k) = 1 - U_(k) in law, and F^{-1} is odd
    # about the median, so k2 agrees on both sides
    parent = make_parent(family)
    a = kl_decompose(parent, n, p, rounding="ceil")
    b = kl_decompose(parent, n, 1.0 - p, rounding="ceil")
    assume(a.k + b.k == n + 1)
    slack = a.quad_error + b.quad_error + 1e-12 * (1.0 + abs(a.k2))
    assert abs(a.k2 - b.k2) <= slack


@PROPERTY_SETTINGS
@given(family=st.sampled_from(["gaussian", "exponential", "uniform", "f2"]), n=ns, p=ps)
def test_decomposition_identity(family, n, p):
    d = kl_decompose(make_parent(family), n, p)
    assert not d.diverged and d.message == ""
    assert math.isfinite(d.total_direct)
    # f2 at small ranks has totals near 1e8, where 2e-8 is below one ulp
    assert abs(d.total_direct - d.total_decomposed) <= max(2e-8, 4.0 * math.ulp(d.total_decomposed))
