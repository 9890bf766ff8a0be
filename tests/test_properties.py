"""Property tests of the fused quadrature pass over random (parent, n, p),
of the parents' quantile views over random points, and of the Beta
sampler's table over random laws and streams.

Examples are derandomized and no example database is written, so the suite
runs the same cases every time.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import betaincinv

from ordent.distributions import PROB_CLAMP, BetaLaw, beta_sample, make_parent, random_stream
from ordent.entropy_kl import kl_decompose

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

ns = st.integers(min_value=50, max_value=100_000)
ps = st.floats(min_value=0.05, max_value=0.95)


@PROPERTY_SETTINGS
@given(family=st.sampled_from(["gaussian", "uniform"]), n=ns, p=ps)
def test_k2_reflection_symmetric_parents(family, n, p):
    # half-up rounding maps a half-integer n p = k - 1/2 and n (1-p) to the
    # mirrored ranks k and n+1-k; U_(n+1-k) = 1 - U_(k) in law, and F^{-1} is
    # odd about the median, so k2 agrees on both sides
    parent = make_parent(family)
    p = (math.floor(n * p) + 0.5) / n
    a = kl_decompose(parent, n, p)
    b = kl_decompose(parent, n, 1.0 - p)
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


@st.composite
def ranked_cases(draw):
    """(n, p, k) with k = round_rank(n, p), reaching k in {1, 2, n-1, n} often.

    n stays below 300 so that f2's density at its p-quantile, e^(1/p) p^2,
    fits in a float at k = 1."""
    n = draw(st.integers(min_value=1, max_value=300))
    boundary = {"1": 1, "2": min(2, n), "n-1": max(n - 1, 1), "n": n}
    rank = draw(st.sampled_from([*boundary, "any"]))
    k = boundary[rank] if rank in boundary else draw(st.integers(min_value=1, max_value=n))
    # half-up rounding maps n p = k - 1/2 + t, 0 < t < 1/2, to rank k
    p = (k - 0.5 + draw(st.floats(min_value=0.05, max_value=0.45))) / n
    return n, p, k


@PROPERTY_SETTINGS
@given(family=st.sampled_from(["cauchy", "f1", "f2", "gaussian"]), case=ranked_cases())
def test_divergence_matches_the_moment_conditions(family, case):
    n, p, k = case
    d = kl_decompose(make_parent(family), n, p)
    assert d.k == k
    alpha, beta = k, n + 1 - k
    expected = {
        "f1": True,  # E[F^-1(U)^2] with F^-1(u) = exp((1-u)^-1/2)
        "cauchy": alpha <= 2 or beta <= 2,  # F^-1(u) ~ -1/(pi u) and 1/(pi (1-u))
        "f2": k == 1,  # log f(F^-1(u)) = 1/u + 2 log u
        "gaussian": False,
    }[family]
    assert d.diverged == expected
    if expected:
        assert d.total_decomposed == math.inf and d.total_direct == math.inf
    else:
        assert d.message == ""
        assert abs(d.total_direct - d.total_decomposed) <= max(2e-8, 4.0 * math.ulp(d.total_decomposed))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@PROPERTY_SETTINGS
@given(family=st.sampled_from(["uniform", "gaussian", "exponential", "cauchy", "f1", "f2"]),
       u=st.lists(st.floats(min_value=PROB_CLAMP, max_value=1.0 - PROB_CLAMP), min_size=1,
                  max_size=16))
def test_quantile_views_are_tail(family, u):
    # quantile(u) and log_pdf_at_quantile(u) read tail at min(u, 1 - u) on the
    # side u >= 1/2, element by element; a scalar gives the bits of an array
    parent = make_parent(family)
    u = np.array(u)
    x, log_f = parent.tail(np.minimum(u, 1.0 - u), u >= 0.5)
    assert _bits(parent.quantile(u)) == _bits(x)
    assert _bits(parent.log_pdf_at_quantile(u)) == _bits(log_f)
    for i, ui in enumerate(u.tolist()):
        assert _bits(parent.quantile(ui)) == _bits(x[i])
        assert _bits(parent.log_pdf_at_quantile(ui)) == _bits(log_f[i])
        assert _bits(parent.tail(min(ui, 1.0 - ui), ui >= 0.5)) == _bits([x[i], log_f[i]])


log_uniform_parameters = st.floats(min_value=0.0, max_value=7.0).map(lambda e: 10.0**e)


@PROPERTY_SETTINGS
@given(alpha=log_uniform_parameters, beta=log_uniform_parameters,
       seed=st.integers(min_value=0, max_value=2**32 - 1), stream=st.integers(min_value=0, max_value=1000))
def test_beta_sample_contract(alpha, beta, seed, stream):
    # within 1e-12 min(x, 1 - x) + 2^-52 of the true quantile, nondecreasing
    # in u, and prefix-stable, for laws with alpha, beta in [1, 1e7]; the
    # oracle is scipy's betaincinv, itself up to ~2e-12 relative off on rare
    # skewed laws above ~1e5, which test_distributions checks against the
    # in-house inverse instead
    law, count = BetaLaw(alpha, beta), 20_000
    x = beta_sample(law, count, seed, stream)
    u = random_stream(seed, stream).random(count)
    ref = betaincinv(alpha, beta, u)
    assert np.all(np.abs(x - ref) <= 1e-12 * np.minimum(ref, 1.0 - ref) + 2.0**-52)
    assert np.all(np.diff(x[np.argsort(u)]) >= 0.0)
    assert np.array_equal(beta_sample(law, 100, seed, stream), x[:100])
