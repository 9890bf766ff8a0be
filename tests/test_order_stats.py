"""Order-statistic laws: density normalization, sampling consistency, the
moment-bound constant and its finiteness region, and quantile envelopes."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from ordent.distributions import F1, F2, Cauchy, Exponential, Gaussian, Uniform
from ordent.order_stats import (
    MomentBoundConstant,
    OrderStatSpec,
    moment_bound_constant,
    order_stat_cdf,
    order_stat_pdf,
    quantile_envelope,
    round_rank,
    sample_order_stat,
    verify_moment_bound,
)

SMOOTH_PARENTS = [Uniform(), Gaussian(), Exponential()]
ALL_PARENTS = SMOOTH_PARENTS + [Cauchy(), F1(), F2()]


class TestSpecConstruction:
    def test_rounding_policies(self):
        assert round_rank(10, 0.25) == 3          # 2.5 rounds half-up
        assert round_rank(10, 0.25, "floor") == 2
        assert round_rank(10, 0.25, "ceil") == 3
        assert round_rank(10, 0.01) == 1          # clamped to 1
        assert round_rank(10, 0.999) == 10

    def test_from_fraction_records_both(self):
        spec = OrderStatSpec.from_fraction(100, 0.3)
        assert spec.k == 30 and spec.p == 0.3
        assert spec.realized_fraction == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            OrderStatSpec(n=10, k=0)
        with pytest.raises(ValueError):
            OrderStatSpec(n=10, k=11)
        with pytest.raises(ValueError):
            OrderStatSpec.from_fraction(10, 1.5)

    def test_whole_n_and_k(self):
        # Beta(k, n + 1 - k) needs whole n and k
        for n, k in ((10.5, 3), (10, 3.0), (10.0, 3)):
            with pytest.raises(ValueError):
                OrderStatSpec(n=n, k=k)
        assert OrderStatSpec(n=np.int64(10), k=3).beta_law.beta == 8.0
        with pytest.raises(ValueError):
            round_rank(10, 0.5, "stochastic")


class TestOrderStatPdf:
    def test_single_draw_is_parent(self):
        spec = OrderStatSpec(n=1, k=1)
        assert order_stat_pdf(Uniform(), spec, 0.4) == 1.0

    def test_max_of_two_uniforms(self):
        spec = OrderStatSpec(n=2, k=2)
        for x in (0.1, 0.5, 0.9):
            assert abs(order_stat_pdf(Uniform(), spec, x) - 2 * x) <= 1e-14

    def test_outside_support_is_zero(self):
        spec = OrderStatSpec(n=5, k=3)
        assert order_stat_pdf(Exponential(), spec, -1.0) == 0.0
        assert order_stat_pdf(F2(), spec, 0.9) == 0.0

    def test_gaussian_median_statistic(self):
        parent = Gaussian()
        spec = OrderStatSpec(n=101, k=51)
        total, _ = quad(lambda x: order_stat_pdf(parent, spec, x), -2.0, 2.0,
                        limit=300)
        assert abs(total - 1.0) <= 1e-8
        mean, _ = quad(lambda x: x * order_stat_pdf(parent, spec, x), -2.0, 2.0,
                       limit=300)
        assert abs(mean) <= 1e-3

    @pytest.mark.parametrize("parent", SMOOTH_PARENTS, ids=lambda p: p.name)
    @pytest.mark.parametrize("n", [5, 50, 500])
    def test_normalization_grid(self, parent, n):
        from scipy.special import betaincinv

        for k in {1, math.ceil(n / 4), math.ceil(n / 2), n}:
            spec = OrderStatSpec(n=n, k=k)
            # integrate between extreme quantiles of the order statistic
            # itself (mass 1 - 2e-10); extreme ranks concentrate on a 1/n
            # scale that limits anchored to the parent would miss
            osq = lambda t: float(parent.quantile(betaincinv(k, n + 1 - k, t)))
            lo, hi = osq(1e-10), osq(1.0 - 1e-10)
            pts = sorted(set(osq(t) for t in (0.01, 0.25, 0.5, 0.75, 0.99)))
            total, _ = quad(lambda x: order_stat_pdf(parent, spec, x), lo, hi,
                            limit=400, points=pts)
            assert abs(total - 1.0) <= 1e-8

    @pytest.mark.parametrize("parent", ALL_PARENTS, ids=lambda p: p.name)
    def test_pdf_is_cdf_derivative(self, parent):
        # independent consistency oracle that works on every support,
        # including f1's log-heavy tail
        spec = OrderStatSpec(n=25, k=12)
        for u in (0.2, 0.45, 0.7):
            x = float(parent.quantile(u))
            h = 1e-6 * max(1.0, abs(x)) if parent.name != "f2" else 1e-7 * abs(x)
            fd = (order_stat_cdf(parent, spec, x + h)
                  - order_stat_cdf(parent, spec, x - h)) / (2 * h)
            d = order_stat_pdf(parent, spec, x)
            assert abs(d - fd) <= max(1e-7, 1e-5 * abs(d))


class TestSampling:
    def test_uniform_median_mean(self):
        spec = OrderStatSpec(n=99, k=50)
        draws = sample_order_stat(Uniform(), spec, 1_000_000, seed=5)
        mean = 50.0 / 100.0
        var = 50.0 * 50.0 / (100.0**2 * 101.0)
        assert abs(draws.mean() - mean) <= 4 * math.sqrt(var / len(draws))

    def test_single_draw_reproducible(self):
        spec = OrderStatSpec(n=10, k=5)
        a = sample_order_stat(Cauchy(), spec, 1, seed=9)
        b = sample_order_stat(Cauchy(), spec, 1, seed=9)
        assert a[0] == b[0]

    def test_gaussian_variance_matches_reference(self):
        n, p = 1001, 0.5
        spec = OrderStatSpec.from_fraction(n, p)
        draws = sample_order_stat(Gaussian(), spec, 1_000_000, seed=3)
        f0 = 1.0 / math.sqrt(2 * math.pi)
        v_ref = p * (1 - p) / (n * f0 * f0)
        assert abs(draws.var() - v_ref) / v_ref <= 0.05

    @pytest.mark.parametrize("parent", [Uniform(), Exponential(), Cauchy()],
                             ids=lambda p: p.name)
    def test_ks_against_cdf(self, parent):
        spec = OrderStatSpec(n=40, k=13)
        count = 100_000
        draws = np.sort(sample_order_stat(parent, spec, count, seed=21))
        cdf_vals = order_stat_cdf(parent, spec, draws)
        ecdf_hi = np.arange(1, count + 1) / count
        ecdf_lo = np.arange(0, count) / count
        ks = max(np.max(np.abs(cdf_vals - ecdf_hi)), np.max(np.abs(cdf_vals - ecdf_lo)))
        assert ks < 1.628 / math.sqrt(count)  # 1% critical value


class TestMomentBoundConstant:
    def test_infinite_when_rank_too_small(self):
        c = moment_bound_constant(10, 1, q=2.0, r=1.0)
        assert c.value == math.inf

    def test_limit_to_one_as_qr_vanishes(self):
        vals = [moment_bound_constant(50, 25, q, 1.0).value for q in (1e-2, 1e-4, 1e-6)]
        assert abs(vals[-1] - 1.0) < abs(vals[0] - 1.0)
        assert abs(vals[-1] - 1.0) <= 1e-4

    def test_large_n_limit(self):
        # C_{n,k,q,r} = E[(U(1-U))^{-q/r}] concentrates at (p(1-p))^{-q/r};
        # with p = 1/2 and q/r = 2 the limit is 16
        c = moment_bound_constant(10_000, 5_000, q=4.0, r=2.0)
        assert abs(c.value - 16.0) / 16.0 <= 0.01

    def test_limit_never_below_one(self):
        # the constant dominates E[(U(1-U))^{-q/r}] >= 4^{q/r} >= 1, so any
        # limit below 1 is impossible
        for n in (1_000, 10_000):
            for p in (0.3, 0.5, 0.7):
                c = moment_bound_constant(n, round(n * p), q=4.0, r=2.0)
                assert c.value >= (1.0 / (p * (1 - p))) ** 2 * 0.99

    def test_finiteness_region_matches_case_split(self):
        for n in (5, 20, 100):
            for k in range(1, n + 1):
                for q, r in [(2.0, 1.0), (4.0, 2.0), (1.0, 0.5), (0.5, 2.0)]:
                    c = moment_bound_constant(n, k, q, r)
                    expected_finite = (k > q / r) and (n - k > q / r - 1)
                    assert math.isfinite(c.value) == expected_finite

    @pytest.mark.parametrize("n", [10**4, 10**5, 10**6, 10**7])
    def test_against_mpmath_at_large_n(self, n):
        # composed from six float64 log-gamma values it would err by 2.2e-8 at n = 1e7
        k = n // 2
        for s in (0.5, 1.0, 2.0):
            with mp.workdps(40):
                want = (mp.gamma(n + 1) * mp.gamma(k - s) * mp.gamma(n - k - s + 1)
                        / (mp.gamma(n - 2 * s + 1) * mp.gamma(k) * mp.gamma(n - k + 1)))
            got = moment_bound_constant(n, k, q=2.0 * s, r=2.0).value
            assert abs(got / float(want) - 1.0) <= 1e-13, s

    def test_limit_error_decreases_in_n(self):
        p, q, r = 0.3, 4.0, 2.0
        target = (p * (1 - p)) ** (-q / r)
        errs = [abs(moment_bound_constant(n, math.ceil(n * p), q, r).value - target)
                for n in (100, 1_000, 10_000, 100_000)]
        assert errs == sorted(errs, reverse=True)


class TestVerifyMomentBound:
    def test_uniform_passes(self):
        report = verify_moment_bound(Uniform(), OrderStatSpec(n=20, k=10), q=2.0, r=2.0,
                                     mc_count=50_000, seed=1)
        assert report.verdict == "pass"
        assert report.empirical_value - 3 * report.stderr <= report.analytic_value

    def test_cauchy_fractional_moment_passes(self):
        report = verify_moment_bound(Cauchy(), OrderStatSpec(n=50, k=25), q=2.0, r=0.5,
                                     mc_count=100_000, seed=2)
        assert report.verdict == "pass"
        assert math.isfinite(report.analytic_value)

    def test_vacuous_when_constant_infinite(self):
        report = verify_moment_bound(Uniform(), OrderStatSpec(n=3, k=1), q=4.0, r=1.0,
                                     mc_count=1_000, seed=3)
        assert report.verdict == "vacuous"
        assert report.analytic_value == math.inf

    def test_mean_and_stderr_of_the_sampled_order_statistic(self):
        # bit-equal to the mean and standard error of |X_(k)|^q drawn directly
        parent, spec, count = Gaussian(), OrderStatSpec(n=100, k=30), 20_000
        report = verify_moment_bound(parent, spec, q=3.0, r=4.0, mc_count=count, seed=5, stream=2)
        draws = np.abs(sample_order_stat(parent, spec, count, seed=5, stream=2)) ** 3.0
        assert report.empirical_value == float(np.mean(draws))
        assert report.stderr == float(np.std(draws, ddof=1) / math.sqrt(count))

    def test_one_draw_is_rejected(self):
        # one draw has no standard error (NaN, and a false "fail")
        with pytest.raises(ValueError):
            verify_moment_bound(Uniform(), OrderStatSpec(n=20, k=10), q=2.0, r=2.0, mc_count=1)

    def test_vacuous_when_parent_moment_infinite(self):
        report = verify_moment_bound(F1(), OrderStatSpec(n=10, k=5), q=1.0, r=0.5,
                                     mc_count=1_000, seed=4)
        assert report.verdict == "vacuous"
        assert "infinite" in report.message


class TestQuantileEnvelope:
    def test_gaussian_median(self):
        assert abs(quantile_envelope(Gaussian(), 2.0, 0.5) - math.sqrt(2.0)) <= 1e-9
        assert quantile_envelope(Gaussian(), 2.0, 0.5) >= 0.0

    def test_uniform_point(self):
        val = quantile_envelope(Uniform(), 1.0, 0.9)
        assert abs(val - 5.0) <= 1e-8
        assert val >= 0.9

    def test_exponential_dominance_grid(self):
        parent = Exponential()
        for u in np.linspace(0.01, 0.99, 100):
            assert quantile_envelope(parent, 1.0, float(u)) >= -math.log1p(-u)

    @pytest.mark.parametrize("parent,r", [(Uniform(), 2.0), (Gaussian(), 2.0),
                                          (Exponential(), 1.0), (Cauchy(), 0.5),
                                          (F2(), 1.0)],
                             ids=lambda v: getattr(v, "name", v))
    def test_dominance_all_parents(self, parent, r):
        for u in np.linspace(0.02, 0.98, 25):
            env = quantile_envelope(parent, r, float(u))
            assert env >= abs(float(parent.quantile(u))) - 1e-12

    def test_infinite_moment_rejected(self):
        with pytest.raises(ValueError):
            quantile_envelope(F1(), 1.0, 0.5)
        with pytest.raises(ValueError):
            quantile_envelope(Cauchy(), 2.0, 0.5)
