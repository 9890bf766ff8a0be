"""Special-function contracts against independent oracles.

Oracles: direct summation (math.fsum), arbitrary precision (mpmath), closed
forms, and scipy's digamma; none shares code with the implementation under
test.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import digamma

from ordent import special

mp.mp.dps = 40

EULER_GAMMA = special.EULER_GAMMA


class TestHarmonic:
    def test_first_values(self):
        assert special.harmonic(1) == 1.0
        assert special.harmonic(2) == 1.5

    def test_against_direct_sum_grid(self):
        for r in [3, 7, 10, 15, 16, 17, 97, 1024, 9999, 10_000]:
            oracle = math.fsum(1.0 / j for j in range(1, r + 1))
            assert abs(special.harmonic(r) - oracle) <= 1e-12

    def test_large_r_uses_series_and_matches_summation(self):
        r = 10**6
        oracle = math.fsum(1.0 / j for j in range(1, r + 1))
        assert abs(special.harmonic(r) - oracle) <= 1e-12

    def test_strictly_increasing_with_unit_steps(self):
        rs = np.arange(1, 2000)
        vals = np.array([special.harmonic(int(r)) for r in rs])
        steps = np.diff(vals)
        assert np.all(steps > 0)
        assert np.max(np.abs(steps - 1.0 / rs[1:])) <= 1e-13

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            special.harmonic(0)
        with pytest.raises(ValueError):
            special.harmonic(-3)


class TestTSequence:
    def test_first_values(self):
        assert special.t_sequence(0) == 0.0
        assert special.t_sequence(1) == -1.0

    def test_expansion_at_500(self):
        # 1/2 log(2 pi r / e) - (1+gamma) r + 1/(6r) - 1/(90 r^3)
        r = 500
        expansion = (0.5 * math.log(2 * math.pi * r / math.e)
                     - (1 + EULER_GAMMA) * r + 1.0 / (6 * r) - 1.0 / (90 * r**3))
        assert abs(special.t_sequence(r) - expansion) <= 1e-10

    def test_recurrence_in_log_space(self):
        # T_r - T_{r-1} = log(r) - r H_r + (r-1) H_{r-1}
        for r in [1, 2, 5, 33, 501, 9_999]:
            lhs = special.t_sequence(r) - special.t_sequence(r - 1)
            rhs = (math.log(r) if r > 0 else 0.0) \
                - r * special.harmonic(r) \
                + ((r - 1) * special.harmonic(r - 1) if r > 1 else 0.0)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_against_mpmath(self):
        # a few ulp of T_r at every r
        for r in [10, 15, 16, 100, 10_000, 100_001, 200_000, 10**7, 10**9]:
            oracle = float(mp.loggamma(r + 1) - r * mp.harmonic(r))
            assert abs(special.t_sequence(r) - oracle) <= 4e-16 * abs(oracle)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            special.t_sequence(-1)


class TestDigamma:
    def test_integer_identity_with_harmonic(self):
        for k in [2, 3, 10, 16, 17, 500, 10_000]:
            assert abs(digamma(k) - (special.harmonic(k - 1) - EULER_GAMMA)) <= 1e-11


def _mp_beta_log_density(a, b, u):
    a, b, u = mp.mpf(a), mp.mpf(b), mp.mpf(u)
    return float((a - 1) * mp.log(u) + (b - 1) * mp.log1p(-u) - mp.log(mp.beta(a, b)))


def _bulk(a, b):
    """Float64 points mean + z sd, z = -8..8, that lie inside (0, 1)."""
    mean = a / (a + b)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    u = mean + sd * np.linspace(-8.0, 8.0, 33)
    return u[(u > 0.0) & (u < 1.0)]


class TestLogBeta:
    """``special.beta_log_density``, the package's one Beta log density."""

    def test_trivial_values(self):
        u = np.linspace(0.05, 0.95, 19)
        assert np.all(special.beta_log_density(1.0, 1.0, u) == 0.0)
        # Beta(2, 3): 1 / B(2, 3) = 12
        closed = np.log(12.0 * u * (1.0 - u) ** 2)
        assert np.max(np.abs(special.beta_log_density(2.0, 3.0, u) - closed)) <= 1e-14

    def test_high_precision_reference(self):
        # non-integer parameters, on both sides of the switch to Loader's form
        for a, b in [(1.5, 2.5), (2.5, 7.25), (300.5, 700.25), (3.5, 1e6 + 0.5)]:
            u = _bulk(a, b)
            ref = np.array([_mp_beta_log_density(a, b, x) for x in u])
            assert np.max(np.abs(special.beta_log_density(a, b, u) - ref)) <= 1e-13

    def test_integer_arguments_against_mpmath(self):
        # the weight of every quadrature node, in the bulk of Beta(k, n+1-k),
        # at n up to 1e9
        for a, b in [(1, 1), (30, 35), (3000, 7001), (30000, 70001),
                     (50000, 50001), (90000, 10001), (500_000, 500_001),
                     (3_000_000, 7_000_001), (500_000_000, 500_000_001)]:
            u = _bulk(a, b)
            ref = np.array([_mp_beta_log_density(a, b, x) for x in u])
            assert np.max(np.abs(special.beta_log_density(a, b, u) - ref)) <= 1e-13

    def test_domain_error(self):
        with pytest.raises(ValueError):
            special.beta_log_density(0.0, 1.0, 0.5)
