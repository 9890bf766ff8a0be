"""Entropy formulas and the three-term KL decomposition.

Oracles: scipy.integrate.quad on the Beta entropy integrand, closed forms for
the uniform parent, the digamma closed form for the unbounded-density parent,
and the exact-vs-direct identity that must hold to quadrature accuracy.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betaincinv, gammaln

from ordent.distributions import F1, F2, Cauchy, Exponential, Gaussian, Uniform
from ordent.entropy_kl import (
    ConditionViolation,
    entropy_expansion_linear_coefficient,
    gaussian_reference,
    k1_term,
    k2_term,
    k3_term,
    kl_decompose,
    kl_direct,
    uniform_order_stat_entropy_exact,
    uniform_order_stat_entropy_expansion,
)


def beta_entropy_quadrature(n, k, epsabs=1e-12):
    """-int w log w for Beta(k, n+1-k) via an independent integrator."""
    a, b = float(k), float(n + 1 - k)
    lc = gammaln(a + b) - gammaln(a) - gammaln(b)

    def integrand(u):
        if u <= 0.0 or u >= 1.0:  # measure-zero endpoint probes from QUADPACK
            return 0.0
        logw = lc + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u)
        return -math.exp(logw) * logw

    pts = sorted(set(min(max(float(betaincinv(a, b, t)), 1e-14), 1.0 - 1e-14)
                     for t in (1e-13, 1e-9, 1e-5, 0.05, 0.5, 0.95,
                               1 - 1e-5, 1 - 1e-9, 1 - 1e-13)))
    val, err = quad(integrand, 0.0, 1.0, points=pts, limit=400, epsabs=epsabs)
    return val


def fitted_slope(ns, values):
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.abs(np.asarray(values, dtype=float)))
    return float(np.polyfit(x, y, 1)[0])


class TestExactEntropy:
    def test_single_uniform(self):
        assert uniform_order_stat_entropy_exact(1, 1) == 0.0

    def test_min_of_two(self):
        # density 2(1-x): h = -int 2(1-x) log(2(1-x)) dx = 1/2 - log 2
        oracle, _ = quad(lambda x: -2 * (1 - x) * math.log(2 * (1 - x)), 0, 1 - 1e-15)
        val = uniform_order_stat_entropy_exact(2, 1)
        assert abs(val - (0.5 - math.log(2.0))) <= 1e-12
        assert abs(val - oracle) <= 1e-9

    def test_median_of_1000_vs_quadrature(self):
        val = uniform_order_stat_entropy_exact(1000, 500)
        assert abs(val - beta_entropy_quadrature(1000, 500)) <= 1e-8

    def test_grid_vs_quadrature(self):
        rng = np.random.default_rng(0)
        for _ in range(12):
            n = int(rng.integers(2, 10_000))
            k = int(rng.integers(1, n + 1))
            assert abs(uniform_order_stat_entropy_exact(n, k)
                       - beta_entropy_quadrature(n, k)) <= 1e-8

    @pytest.mark.parametrize("n", [10**6, 10**7, 10**9])
    def test_large_n_against_mpmath(self, n):
        # no ceiling on n: the terms grow like n log n, the entropy like log n
        def oracle(k):
            t = lambda r: mp.loggamma(r + 1) - r * mp.harmonic(r)
            with mp.workdps(40):
                return float(t(k - 1) + t(n - k) - t(n) - mp.harmonic(n))

        for k, tol in [(n // 10, 1e-14), (n // 2, 1e-14), (1, 2e-14), (2, 2e-14),
                       (15, 2e-14), (16, 2e-14), (n - 1, 2e-14), (n, 2e-14)]:
            assert abs(uniform_order_stat_entropy_exact(n, k) - oracle(k)) <= tol, k

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            uniform_order_stat_entropy_exact(10, 0)
        with pytest.raises(ValueError):
            uniform_order_stat_entropy_exact(10, 11)


class TestEntropyExpansion:
    def test_linear_coefficient_vanishes_at_half(self):
        assert entropy_expansion_linear_coefficient(0.5) == 0.0
        assert entropy_expansion_linear_coefficient(0.3) != 0.0

    def test_residual_slope_p03(self):
        ns = [100, 320, 1_000, 3_200, 10_000, 32_000, 100_000]
        resid = [abs(uniform_order_stat_entropy_expansion(n, 0.3)
                     - uniform_order_stat_entropy_exact(n, round(n * 0.3)))
                 for n in ns]
        slope = fitted_slope(ns, resid)
        assert abs(slope + 2.0) <= 0.1

    def test_residual_slope_p05(self):
        ns = [100, 316, 1_000, 3_162, 10_000, 31_622, 100_000]
        resid = [abs(uniform_order_stat_entropy_expansion(n, 0.5)
                     - uniform_order_stat_entropy_exact(n, round(n * 0.5)))
                 for n in ns]
        slope = fitted_slope(ns, resid)
        assert abs(slope + 2.0) <= 0.1

    def test_absolute_accuracy_at_1e4(self):
        resid = abs(uniform_order_stat_entropy_expansion(10_000, 0.5)
                    - uniform_order_stat_entropy_exact(10_000, 5_000))
        assert resid <= 1e-7

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            uniform_order_stat_entropy_expansion(100, 0.0)
        with pytest.raises(ValueError):
            uniform_order_stat_entropy_expansion(3, 0.3)  # n p < 2


class TestGaussianReference:
    def test_uniform_parent(self):
        ref = gaussian_reference(Uniform(), 100, 0.5)
        assert ref.mu_p == 0.5
        assert abs(ref.v_np - 2.5e-3) <= 1e-15

    def test_gaussian_parent(self):
        n = 400
        ref = gaussian_reference(Gaussian(), n, 0.5)
        assert abs(ref.mu_p) <= 1e-12
        assert abs(ref.v_np - 0.25 * 2 * math.pi / n) <= 1e-12

    def test_f2_parent_closed_form(self):
        ref = gaussian_reference(F2(), 50, 0.5)
        assert abs(ref.mu_p - math.exp(-2.0)) <= 1e-12
        # f(F^{-1}(1/2)) = 0.25 e^2
        f_val = 0.25 * math.e**2
        assert abs(ref.v_np - 0.25 / (50 * f_val**2)) <= 1e-15

    def test_scaled_variance_independent_of_n(self):
        r1 = gaussian_reference(Exponential(), 100, 0.3)
        r2 = gaussian_reference(Exponential(), 10_000, 0.3)
        assert abs(r1.scaled_variance - r2.scaled_variance) <= 1e-12

    def test_zero_density_raises(self):
        class Flat(Uniform):
            def log_pdf_at_quantile(self, u):
                return -math.inf

        with pytest.raises(ConditionViolation):
            gaussian_reference(Flat(), 100, 0.5)


class TestK1:
    def test_positive_and_order_one_over_n(self):
        vals = {n: k1_term(n, 0.5) for n in (100, 1_000, 10_000)}
        assert all(v > 0 for v in vals.values())
        assert all(v * n < 2.0 for n, v in vals.items())

    def test_slope_p03(self):
        ns = [100, 1_000, 10_000, 100_000]
        slope = fitted_slope(ns, [k1_term(n, 0.3) for n in ns])
        assert abs(slope + 1.0) <= 0.1

    def test_slope_p05(self):
        # the entropy gap to the reference with variance p(1-p)/n stays
        # first-order in 1/n even at the median: the reference variance
        # differs from the exact Beta variance at relative O(1/n)
        ns = [100, 1_000, 10_000, 100_000]
        slope = fitted_slope(ns, [k1_term(n, 0.5) for n in ns])
        assert abs(slope + 1.0) <= 0.1

    def test_parent_free_and_bit_identical(self):
        a = kl_decompose(Uniform(), 200, 0.3).k1
        b = kl_decompose(Gaussian(), 200, 0.3).k1
        c = kl_decompose(F2(), 200, 0.3).k1
        assert a == b == c


class TestK2:
    def test_uniform_closed_form(self):
        # E[(U_(np) - p)^2] = Var + (EU - p)^2, normalized by 2 V_np
        for n, p in [(100, 0.5), (1_000, 0.3)]:
            k = round(n * p)
            var = k * (n + 1 - k) / ((n + 1) ** 2 * (n + 2))
            bias2 = (k / (n + 1) - p) ** 2
            v = p * (1 - p) / n
            oracle = (var + bias2) / (2 * v) - 0.5
            assert abs(k2_term(Uniform(), n, p) - oracle) <= 1e-10

    def test_f1_divergent(self):
        assert k2_term(F1(), 100, 0.5) == math.inf
        assert k2_term(F1(), 1_000, 0.5) == math.inf

    def test_gaussian_rate(self):
        ns = [100, 1_000, 10_000]
        vals = [k2_term(Gaussian(), n, 0.5) for n in ns]
        # |k2| * sqrt(n) must not grow
        scaled = [abs(v) * math.sqrt(n) for v, n in zip(vals, ns)]
        assert scaled[2] <= scaled[0] + 0.05

    def test_monte_carlo_agrees(self):
        # MC noise on the normalized MSE is ~E sqrt(2/budget) / (2V) ~ 1.1e-3
        quad_val = k2_term(Exponential(), 200, 0.3)
        mc_val = k2_term(Exponential(), 200, 0.3, method="monte_carlo",
                         budget=400_000, seed=7)
        assert abs(mc_val - quad_val) <= 5e-3


class TestK3:
    def test_uniform_is_exactly_zero(self):
        assert k3_term(Uniform(), 100, 0.5) == 0.0

    def test_f2_digamma_closed_form(self):
        from scipy.special import digamma

        for n, p in [(100, 0.5), (1_000, 0.5), (500, 0.3)]:
            k = round(n * p)
            closed = (2.0 * (digamma(k) - digamma(n + 1)) + n / (k - 1.0)
                      - 2.0 * math.log(p) - 1.0 / p)
            assert abs(k3_term(F2(), n, p) - closed) <= 1e-7

    def test_gaussian_rate(self):
        ns = [100, 1_000, 10_000]
        scaled = [abs(k3_term(Gaussian(), n, 0.5)) * math.sqrt(n) for n in ns]
        assert scaled[2] <= scaled[0] + 0.05

    def test_monte_carlo_agrees(self):
        quad_val = k3_term(Gaussian(), 150, 0.3)
        mc_val = k3_term(Gaussian(), 150, 0.3, method="monte_carlo",
                         budget=400_000, seed=11)
        assert abs(mc_val - quad_val) <= 1e-2


class TestKlDirect:
    def test_single_uniform_vs_one_dim_oracle(self):
        # U vs N(1/2, 1/4): D = -h(U) + cross entropy, one-dimensional quad
        v = 0.25

        def integrand(x):
            logphi = -0.5 * math.log(2 * math.pi * v) - (x - 0.5) ** 2 / (2 * v)
            return -logphi

        oracle, _ = quad(integrand, 0.0, 1.0, epsabs=1e-12)
        val = kl_direct(Uniform(), 1, 0.5, tol=1e-10)
        assert abs(val - oracle) <= 1e-9

    def test_nonnegative(self):
        for parent in (Uniform(), Gaussian(), Exponential(), Cauchy(), F2()):
            assert kl_direct(parent, 50, 0.4, tol=1e-9) >= -1e-8

    def test_divergent_for_heavy_tail(self):
        assert kl_direct(F1(), 100, 0.5) == math.inf


class TestDecomposition:
    @pytest.mark.parametrize("parent", [Uniform(), Gaussian(), Exponential()],
                             ids=lambda p: p.name)
    @pytest.mark.parametrize("n", [10, 100, 1_000])
    def test_identity_smooth_parents(self, parent, n):
        for p in (0.3, 0.5):
            d = kl_decompose(parent, n, p, tol=1e-10)
            assert not d.diverged
            assert abs(d.total_decomposed - d.total_direct) <= 2e-8
            assert d.total_direct >= -1e-8

    def test_uniform_total_is_k1_plus_k2(self):
        d = kl_decompose(Uniform(), 100, 0.5)
        assert d.k3 == 0.0
        assert d.total_decomposed == d.k1 + d.k2

    def test_f1_partial_results(self):
        d = kl_decompose(F1(), 100, 0.5)
        assert d.diverged
        assert d.k2 == math.inf
        assert math.isfinite(d.k1)
        assert math.isfinite(d.k3)  # log-density term stays integrable
        assert d.total_decomposed == math.inf

    def test_symmetry_under_p_reflection(self):
        # half-integer n p is the one case a deterministic rounding maps
        # (p, 1-p) to mirrored ranks k <-> n+1-k; there the decomposition of a
        # symmetric parent must agree on both sides
        for parent in (Uniform(), Gaussian(), Cauchy()):
            a = kl_decompose(parent, 10, 0.35, tol=1e-10)
            b = kl_decompose(parent, 10, 0.65, tol=1e-10)
            assert a.k == 10 + 1 - b.k
            assert abs(a.total_decomposed - b.total_decomposed) <= 1e-9

    def test_f2_rate_theta_one_over_n(self):
        ns = [100, 316, 1_000, 3_162, 10_000]
        totals = [kl_decompose(F2(), n, 0.5).total_decomposed for n in ns]
        slope = fitted_slope(ns[2:], totals[2:])
        assert abs(slope + 1.0) <= 0.15

    def test_exponential_rate_upper_bound(self):
        ns = [100, 1_000, 10_000]
        totals = [kl_decompose(Exponential(), n, 0.5).total_decomposed for n in ns]
        slope = fitted_slope(ns, totals)
        assert slope <= -0.5 + 0.1


class TestFusedQuadrature:
    """kl_decompose's one three-column pass: k2, k3 and the direct KL."""

    @pytest.mark.parametrize("parent", [Gaussian(), Exponential(), Uniform(), Cauchy(), F2()],
                             ids=lambda d: d.name)
    def test_direct_matches_decomposed_without_normalizer_bias(self, parent):
        # the direct column takes its log Beta density from the quadrature
        # weight itself; a float64 log-gamma normalizer left gaps near 2e-10
        for n in (10_000, 100_000):
            for p in (0.3, 0.5, 0.9):
                d = kl_decompose(parent, n, p)
                assert not d.diverged and d.message == ""
                assert abs(d.total_direct - d.total_decomposed) <= 1e-11, (n, p)

    @pytest.mark.parametrize("parent", [Gaussian(), Exponential()], ids=lambda d: d.name)
    @pytest.mark.parametrize("n", [10**6, 10**7])
    def test_identity_at_large_n(self, parent, n):
        d = kl_decompose(parent, n, 0.5)
        assert not d.diverged and d.message == ""
        assert abs(d.total_direct - d.total_decomposed) <= 1e-12

    def test_unconverged_integral_is_flagged(self):
        # k = 9 of 10 Cauchy draws: beta = 2 makes k2 a log divergence that the
        # trimmed domain turns into a large finite integral which the panel
        # budget cannot resolve; the result must never look clean
        d = kl_decompose(Cauchy(), 10, 0.9)
        assert d.diverged or "did not converge" in d.message

    def test_thin_views_agree_with_decomposition(self):
        d = kl_decompose(Gaussian(), 2_000, 0.3, tol=1e-10)
        assert abs(k2_term(Gaussian(), 2_000, 0.3) - d.k2) <= 1e-12
        assert abs(k3_term(Gaussian(), 2_000, 0.3) - d.k3) <= 1e-12
        assert abs(kl_direct(Gaussian(), 2_000, 0.3, tol=1e-10) - d.total_direct) <= 1e-12
