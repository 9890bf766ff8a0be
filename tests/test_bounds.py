"""Analytic bound verifiers: tail bound dominance, quantile-MSE bound and its
tightness for the uniform parent, the log-density-ratio bound, the
Beta-normalizer constant, and the decay-rate check."""

import math

import numpy as np
import pytest
from scipy.special import betainc

from ordent.bounds import (
    EpsilonWindow,
    beta_tail_bound,
    corollary1_check,
    default_epsilon,
    holder_constant,
    k3_bound,
    quantile_mse_bound,
    stirling_constant_check,
)
from ordent.distributions import F1, F2, BetaLaw, Exponential, Gaussian, Uniform, beta_sample
from ordent.order_stats import round_rank


class TestEpsilonWindow:
    def test_default_inside_every_window(self):
        for p in (0.1, 0.5, 0.9):
            for n in (18, 100, 10_000):
                for q in (1.0, 2.0, 10.0):
                    win = EpsilonWindow.default(p, n, q)
                    win.validate_tail_mode()
                    win.validate_log_mode(q)

    def test_tail_mode_violations(self):
        with pytest.raises(ValueError, match="epsilon window"):
            EpsilonWindow(p=0.5, n=100, epsilon=0.6).validate_tail_mode()
        with pytest.raises(ValueError, match="epsilon window"):
            EpsilonWindow(p=0.5, n=100, epsilon=0.5 / 101 * 0.9).validate_tail_mode()

    def test_log_mode_floor(self):
        win = EpsilonWindow(p=0.5, n=100, epsilon=0.25, q=2.0)
        assert abs(win.log_mode_floor(2.0) - abs(-1.0) / (2 * 99 + 2)) <= 1e-15


class TestBetaTailBound:
    def test_vacuous_limit_near_window_edge(self):
        n, p = 100, 0.5
        eps = p / (n + 1) * 1.0000001
        assert beta_tail_bound(n, p, eps) >= 2.0 * 0.999

    def test_dominates_exact_tail(self):
        n, p, eps = 100, 0.5, 0.2
        k = round_rank(n, p)
        exact = (betainc(k, n + 1 - k, p - eps)
                 + 1.0 - betainc(k, n + 1 - k, p + eps))
        assert beta_tail_bound(n, p, eps) >= exact

    def test_dominates_exact_tail_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(10, 50_000))
            p = float(rng.uniform(0.05, 0.95))
            eps = float(rng.uniform(p / (n + 1) * 1.01, p * 0.999))
            k = round_rank(n, p)
            exact = (betainc(k, n + 1 - k, max(p - eps, 0.0))
                     + 1.0 - betainc(k, n + 1 - k, min(p + eps, 1.0)))
            assert beta_tail_bound(n, p, eps) >= exact - 1e-12

    def test_monte_carlo_tail_below_bound(self):
        p, eps = 0.5, 0.1
        for n in (100, 1_000, 10_000):
            k = round_rank(n, p)
            draws = beta_sample(BetaLaw(k, n + 1 - k), 1_000_000, seed=n)
            emp = float(np.mean(np.abs(draws - p) > eps))
            assert emp <= beta_tail_bound(n, p, eps)

    def test_invalid_window_raises(self):
        with pytest.raises(ValueError):
            beta_tail_bound(100, 0.5, 0.7)


class TestSubGaussianMgf:
    def test_centered_mgf_dominated(self):
        # Beta(k, n+1-k) is sub-Gaussian with variance proxy 1/(4(n+2))
        n, p = 100, 0.3
        k = round_rank(n, p)
        law = BetaLaw(k, n + 1 - k)
        sigma0 = 1.0 / (4.0 * (n + 2.0))
        draws = beta_sample(law, 200_000, seed=17)
        centered = draws - draws.mean()
        for lam in (1.0, -1.0, math.sqrt(n), -math.sqrt(n), float(n), -float(n)):
            vals = np.exp(lam * centered)
            est = float(np.mean(vals))
            rel_err = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) / est
            assert est <= math.exp(lam * lam * sigma0 / 2.0) * (1.0 + 5.0 * rel_err)


class TestQuantileMseBound:
    def test_gaussian_passes(self):
        rep = quantile_mse_bound(Gaussian(), 500, 0.5, epsilon=0.1, r=2.0)
        assert rep.verdict == "pass"
        assert rep.analytic_value >= rep.empirical_value

    def test_uniform_tightness(self):
        # for the uniform parent the bound collapses onto the exact MSE up to
        # the exponentially small tail term: (bound - exact) * n must shrink
        gaps = []
        for n in (100, 1_000, 10_000, 100_000):
            rep = quantile_mse_bound(Uniform(), n, 0.5, r=2.0)
            assert rep.verdict == "pass"
            gaps.append((rep.analytic_value - rep.empirical_value) * n)
        assert all(g >= -1e-9 for g in gaps)
        # non-increasing up to round-off once the tail term has died away
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + 1e-9
        assert abs(gaps[-1]) <= 1e-6

    def test_exponential_mse_asymptotics(self):
        # empirical MSE * n approaches p(1-p)/f(F^{-1}(p))^2
        p = 0.5
        parent = Exponential()
        target = p * (1 - p) / math.exp(parent.log_pdf_at_quantile(p)) ** 2
        rep = quantile_mse_bound(parent, 10_000, p, r=2.0)
        assert abs(rep.empirical_value * 10_000 - target) / target <= 0.05

    def test_f1_vacuous(self):
        rep = quantile_mse_bound(F1(), 100, 0.5, r=1.0)
        assert rep.verdict == "vacuous"
        assert rep.analytic_value == math.inf

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            quantile_mse_bound(Gaussian(), 100, 0.5, epsilon=0.9)


class TestK3Bound:
    def test_uniform_trivial(self):
        rep = k3_bound(Uniform(), 100, 0.5, q=2.0)
        assert rep.verdict == "pass"
        assert rep.empirical_value == 0.0
        assert rep.analytic_value >= 0.0

    def test_gaussian_passes(self):
        rep = k3_bound(Gaussian(), 1_000, 0.5, q=2.0)
        assert rep.verdict == "pass"

    def test_gaussian_q_infinity(self):
        rep = k3_bound(Gaussian(), 1_000, 0.5, q=math.inf)
        assert rep.verdict == "pass"

    def test_f2_vacuous_norm(self):
        rep = k3_bound(F2(), 1_000, 0.5, q=2.0)
        assert rep.verdict == "vacuous"
        assert "condition" in rep.message

    def test_window_validation(self):
        # below the tail-mode floor p/(n+1) ~ 0.00495
        with pytest.raises(ValueError):
            k3_bound(Gaussian(), 100, 0.5, q=2.0, epsilon=0.004)


class TestHolderConstant:
    def test_q_one_collapse(self):
        assert abs(holder_constant(1.0) - math.e**3) <= 1e-12

    def test_q_infinity(self):
        assert abs(holder_constant(math.inf) - math.e / math.sqrt(2 * math.pi)) <= 1e-15

    def test_monotone_in_q_on_examples(self):
        assert holder_constant(2.0) < holder_constant(1.0)


class TestStirlingConstant:
    def test_q_one_collapse(self):
        rep = stirling_constant_check(5.0, 7.0, 1.0)
        assert abs(rep.empirical_value - 1.0) <= 1e-12
        assert abs(rep.analytic_value - math.e**3) <= 1e-10
        assert rep.verdict == "pass"

    def test_moderate_case(self):
        k = round_rank(1_000, 0.5)
        rep = stirling_constant_check(float(k), float(1_000 + 1 - k), 2.0)
        assert rep.verdict == "pass"

    def test_violations_confined_to_known_corner(self):
        # the claimed constant fails for a small cluster of cells around
        # (p=0.1, q=10, n~16..44); everywhere else the sweep passes
        bad = []
        for n in np.unique(np.round(np.logspace(1, 5, 60)).astype(int)):
            for p in (0.1, 0.5, 0.9):
                alpha = n * p
                beta = n + 1 - alpha
                if alpha < 2 or beta < 2:
                    continue
                for q in (1.5, 2.0, 4.0, 10.0):
                    rep = stirling_constant_check(alpha, beta, q)
                    if rep.verdict != "pass":
                        bad.append((int(n), p, q))
        assert all(p == 0.1 and q == 10.0 and 16 <= n <= 44 for (n, p, q) in bad)

    def test_domain(self):
        with pytest.raises(ValueError):
            stirling_constant_check(1.5, 10.0, 2.0)


class TestCorollary1:
    def test_uniform_passes(self):
        rep = corollary1_check(Uniform(), 0.5, 2.0, [100, 316, 1_000, 3_162, 10_000])
        assert rep.verdict == "pass"
        assert rep.empirical_value <= 0.1

    def test_gaussian_passes(self):
        rep = corollary1_check(Gaussian(), 0.5, 2.0, [100, 316, 1_000, 3_162, 10_000])
        assert rep.verdict == "pass"

    def test_f1_divergent_fails(self):
        rep = corollary1_check(F1(), 0.5, 0.5, [100, 316, 1_000])
        assert rep.verdict == "fail"
        assert "diverged" in rep.message

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            corollary1_check(Uniform(), 0.5, 2.0, [100, 50, 1_000])


class TestDefaultEpsilon:
    def test_half_of_smaller_side(self):
        assert default_epsilon(0.3) == 0.15
        assert default_epsilon(0.8) == pytest.approx(0.1)


class TestUnconvergedQuadrature:
    def test_mse_value_flags_non_convergence(self):
        # Cauchy, k = 9 of 10: the trimmed MSE integral exhausts the panel budget
        from ordent.bounds import _mse_quadrature_value
        from ordent.distributions import Cauchy
        from ordent.entropy_kl import gaussian_reference

        ref = gaussian_reference(Cauchy(), 10, 0.9)
        value, error, message = _mse_quadrature_value(Cauchy(), BetaLaw(9.0, 2.0), ref, 1e-10)
        assert math.isfinite(value)
        assert "did not converge" in message

    def test_converged_bound_has_no_message(self):
        rep = quantile_mse_bound(Gaussian(), 200, 0.3)
        assert rep.message == ""
