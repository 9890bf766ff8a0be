"""Special-function contracts against independent oracles.

Oracles: direct summation (math.fsum), arbitrary precision (mpmath), and
adaptive quadrature (scipy.integrate.quad); none shares code with the
implementation under test.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from ordent import special

mp.mp.dps = 40

EULER_GAMMA = special.EULER_GAMMA


class TestHarmonic:
    def test_first_values(self):
        assert special.harmonic(1) == 1.0
        assert special.harmonic(2) == 1.5

    def test_against_direct_sum_grid(self):
        for r in [3, 7, 10, 97, 1024, 9999, 10_000]:
            oracle = math.fsum(1.0 / j for j in range(1, r + 1))
            assert abs(special.harmonic(r) - oracle) <= 1e-12

    def test_large_r_uses_series_and_matches_summation(self):
        r = 10**6
        oracle = math.fsum(1.0 / j for j in range(1, r + 1))
        assert r > special.HARMONIC_CACHE_SIZE
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
        for r in [10, 100, 10_000, 100_001, 200_000]:
            oracle = float(mp.loggamma(r + 1) - r * mp.harmonic(r))
            tol = 1e-10 if r <= special.HARMONIC_CACHE_SIZE else 5e-9 * abs(oracle)
            assert abs(special.t_sequence(r) - oracle) <= tol

    def test_domain_error(self):
        with pytest.raises(ValueError):
            special.t_sequence(-1)


class TestLogGamma:
    def test_trivial_values(self):
        assert special.log_gamma(1.0) == 0.0
        assert abs(special.log_gamma(0.5) - 0.5 * math.log(math.pi)) <= 1e-14

    def test_high_precision_reference(self):
        for x in [0.1, 1.7, 171.5, 3000.25]:
            oracle = float(mp.loggamma(x))
            assert abs(special.log_gamma(x) - oracle) <= 1e-12 * max(1.0, abs(oracle))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            special.log_gamma(0.0)
        with pytest.raises(ValueError):
            special.log_gamma(-2.5)


class TestDigamma:
    def test_euler_mascheroni(self):
        assert abs(special.digamma(1.0) + EULER_GAMMA) <= 1e-12

    def test_integer_identity_with_harmonic(self):
        for k in [2, 3, 10, 500, 10_000]:
            assert abs(special.digamma(k) - (special.harmonic(k - 1) - EULER_GAMMA)) <= 1e-11

    def test_recurrence_shifted_series_oracle(self):
        # shift x past 1e6 by the recurrence, then the asymptotic series
        def oracle(x):
            acc = 0.0
            while x < 1e6:
                acc -= 1.0 / x
                x += 1.0
            return acc + math.log(x) - 0.5 / x - 1.0 / (12 * x * x) + 1.0 / (120 * x**4)

        for x in [0.25, 3.5, 1000.25]:
            assert abs(special.digamma(x) - oracle(x)) <= 1e-12

    def test_recurrence_grid(self):
        xs = np.logspace(-3, 6, 40)
        err = np.abs(special.digamma(xs + 1.0) - special.digamma(xs) - 1.0 / xs)
        assert np.max(err) <= 1e-12 * np.maximum(1.0, 1.0 / xs).max()

    def test_domain_error(self):
        with pytest.raises(ValueError):
            special.digamma(-1.0)


class TestLogBeta:
    def test_trivial_values(self):
        assert special.log_beta(1.0, 1.0) == 0.0
        assert abs(special.log_beta(2.0, 3.0) - math.log(1.0 / 12.0)) <= 1e-14

    def test_high_precision_reference(self):
        oracle = float(mp.log(mp.beta(300, 701)))
        val = special.log_beta(300.0, 701.0)
        assert abs(val - oracle) <= 1e-12 * abs(oracle)

    def test_extended_integer_arguments_against_mpmath(self):
        # the Beta normalizer of every quadrature weight, up to n = 1e5
        for a, b in [(1, 1), (30, 35), (3000, 7001), (30000, 70001),
                     (50000, 50001), (90000, 10001)]:
            with mp.workdps(40):
                oracle = np.longdouble(mp.nstr(mp.log(mp.beta(a, b)), 30))
            assert abs(float(special.log_beta_extended(a, b) - oracle)) <= 3e-13
    def test_domain_error(self):
        with pytest.raises(ValueError):
            special.log_beta(0.0, 1.0)


class TestRegularizedIncompleteBeta:
    def test_uniform_cdf(self):
        assert abs(special.regularized_incomplete_beta(1, 1, 0.3) - 0.3) <= 1e-15

    def test_quadratic_closed_form(self):
        for x in [0.0, 0.2, 0.7, 1.0]:
            assert abs(special.regularized_incomplete_beta(2, 1, x) - x * x) <= 1e-13

    def test_quadrature_oracle(self):
        a, b = 50, 51
        dens = lambda t: t ** (a - 1) * (1 - t) ** (b - 1) / mp.beta(a, b)
        oracle = float(mp.quad(dens, [0, 0.25, 0.5]))
        assert abs(special.regularized_incomplete_beta(a, b, 0.5) - oracle) <= 1e-10

    def test_endpoints_and_monotonicity(self):
        xs = np.linspace(0.0, 1.0, 101)
        vals = special.regularized_incomplete_beta(3.0, 5.0, xs)
        assert vals[0] == 0.0 and vals[-1] == 1.0
        assert np.all(np.diff(vals) >= 0.0)

    def test_reflection_symmetry_random_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = float(rng.uniform(0.2, 80.0))
            b = float(rng.uniform(0.2, 80.0))
            x = float(rng.uniform(0.0, 1.0))
            s = (special.regularized_incomplete_beta(a, b, x)
                 + special.regularized_incomplete_beta(b, a, 1.0 - x))
            assert abs(s - 1.0) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            special.regularized_incomplete_beta(1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            special.regularized_incomplete_beta(-1.0, 1.0, 0.5)
