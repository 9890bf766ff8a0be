"""Entropy formulas and the three-term KL decomposition.

Oracles: scipy.integrate.quad on the Beta entropy integrand, closed forms for
the uniform parent, the digamma closed form for the unbounded-density parent,
and the exact-vs-direct identity that must hold to quadrature accuracy.
"""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betaincinv, gammaln

import ordent.distributions
import ordent.entropy_kl
from ordent.bounds import k3_bound
from ordent.distributions import (
    F1,
    F2,
    BetaLaw,
    Cauchy,
    Exponential,
    Gaussian,
    ParentDistribution,
    Uniform,
    beta_sample,
)
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
from ordent.order_stats import round_rank


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

    def test_non_integer_arguments_raise(self):
        # (10.5, 3.9) was truncated to (10, 3)
        for n, k in ((10.5, 3.9), (10.5, 3), (10, 3.9)):
            with pytest.raises(ValueError, match="must be an integer"):
                uniform_order_stat_entropy_exact(n, k)
        assert uniform_order_stat_entropy_exact(10.0, 3.0) == uniform_order_stat_entropy_exact(10, 3)


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
            def _tail(self, s, upper):
                x, log_f, slope = super()._tail(s, upper)
                return x, np.full_like(log_f, -math.inf), slope

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
        mc_val = kl_decompose(Exponential(), 200, 0.3, method="monte_carlo",
                              budget=400_000, seed=7).k2
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
        mc_val = kl_decompose(Gaussian(), 150, 0.3, method="monte_carlo",
                              budget=400_000, seed=11).k3
        assert abs(mc_val - quad_val) <= 1e-2


def _mp_beta_expectation(g, a, b):
    """E[g(U)] for U ~ Beta(a, b) by mpmath's tanh-sinh, with breakpoints at
    the mean and at mean +- s sd for s = 1, 2, 4, ..., 32."""
    a, b = mp.mpf(a), mp.mpf(b)
    mean, sd = a / (a + b), mp.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    log_norm = mp.log(mp.beta(a, b))
    pts = sorted({mp.mpf(0), mean, mp.mpf(1)}
                 | {x for s in (1, 2, 4, 8, 16, 32) for x in (mean - s * sd, mean + s * sd)
                    if 0 < x < 1})
    return mp.quad(lambda u: mp.exp((a - 1) * mp.log(u) + (b - 1) * mp.log1p(-u) - log_norm)
                   * g(u), pts)


class TestMpmathOracle:
    """k2 and k3 of the three parents without a closed form, against Beta
    expectations of the quantile and log density formulas in mpmath.  The
    k1 + k2 + k3 = direct identity cannot see a wrong column: the direct
    column is built from the same node values as k2's and k3's."""

    # (quantile, log density) in mpmath; the gaussian's erfinv is
    # slow, so its nodes are cached across the k2 and k3 integrals
    FORMULAS = {
        "gaussian": lambda: (functools.cache(lambda u: mp.sqrt(2) * mp.erfinv(2 * u - 1)),
                             lambda q: -q ** 2 / 2 - mp.log(2 * mp.pi) / 2),
        "cauchy": lambda: (lambda u: -mp.cot(mp.pi * u),
                           lambda q: -mp.log(mp.pi * (1 + q ** 2))),
        "f2": lambda: (lambda u: mp.exp(-1 / u), lambda q: -mp.log(q * mp.log(q) ** 2)),
    }

    # Cauchy at both points has Beta parameters > 2, where its k2 is finite
    @pytest.mark.parametrize("family, n, p", [
        ("gaussian", 200, 0.3), ("gaussian", 10_000, 0.9), ("cauchy", 20, 0.15),
        ("cauchy", 1_000, 0.5), ("f2", 200, 0.3), ("f2", 5_000, 0.9)])
    def test_k2_and_k3(self, family, n, p):
        parent = ordent.distributions.make_parent(family)
        k = round_rank(n, p)
        quantile, log_f = self.FORMULAS[family]()
        with mp.workdps(20):
            pp = mp.mpf(p)
            mu, log_f_p = quantile(pp), log_f(quantile(pp))
            v = pp * (1 - pp) / (n * mp.exp(2 * log_f_p))
            mse = _mp_beta_expectation(lambda u: (quantile(u) - mu) ** 2, k, n + 1 - k)
            k2 = float(mse / (2 * v) - mp.mpf(1) / 2)
            k3 = float(_mp_beta_expectation(lambda u: log_f(quantile(u)), k, n + 1 - k) - log_f_p)
        assert abs(k2_term(parent, n, p) - k2) <= 1e-10
        assert abs(k3_term(parent, n, p) - k3) <= 1e-10


class TestParentCalls:
    """One node record per integrand call: x and log f come from one ``tail``
    call, which runs the family's formula once for both sides, whichever
    terms are requested (k2 reads log f too, unused), and the reference at p
    is one scalar call."""

    @staticmethod
    def _count(monkeypatch):
        """Count the ``tail`` calls and the gaussian formula calls inside the
        quadrature's integrand calls, and list the dimension of s of each
        ``tail`` call made outside them."""
        log = {"integrand_calls": 0, "tail": 0, "formula": 0, "outside": []}
        inside = []
        real = ordent.entropy_kl.beta_expectation

        def expectation(g, *args, **kwargs):
            def counted(*a):
                log["integrand_calls"] += 1
                inside.append(True)
                try:
                    return g(*a)
                finally:
                    inside.pop()

            return real(counted, *args, **kwargs)

        def tail(self, s, upper, _real=ParentDistribution.tail):
            if inside:
                log["tail"] += 1
            else:
                log["outside"].append(np.ndim(s))
            return _real(self, s, upper)

        def formula(self, s, upper, _real=Gaussian._tail):
            log["formula"] += bool(inside)
            return _real(self, s, upper)

        monkeypatch.setattr(ordent.entropy_kl, "beta_expectation", expectation)
        monkeypatch.setattr(ParentDistribution, "tail", tail)
        monkeypatch.setattr(Gaussian, "_tail", formula)
        return log

    @pytest.mark.parametrize("view", [k2_term, k3_term, kl_direct, k3_bound],
                             ids=lambda f: f.__name__)
    def test_one_tail_call_per_integrand_call(self, monkeypatch, view):
        log = self._count(monkeypatch)
        view(Gaussian(), 200, 0.3)
        assert log["tail"] == log["formula"] == log["integrand_calls"] > 0
        # the scalar call at p first; k3_bound's density-ratio grid then
        # reads the parent outside the quadrature
        assert log["outside"][:1] == [0]
        assert len(log["outside"]) == 1 or view is k3_bound

    def test_one_ndtri_pass_per_parent_call(self, monkeypatch):
        # the reference at p, then one integrand call whose nodes straddle 1/2:
        # one pass of AS241 each, where a split by side ran it once per side
        sizes = []

        def ndtri(s, _real=ordent.distributions.ndtri):
            sizes.append(np.size(s))
            return _real(s)

        monkeypatch.setattr(ordent.distributions, "ndtri", ndtri)
        d = kl_decompose(Gaussian(), 1000, 0.3)
        assert math.isfinite(d.total_decomposed)
        assert len(sizes) == 2 and sizes[0] == 1


class TestKlDirect:
    def test_single_uniform_vs_one_dim_oracle(self):
        # U vs N(1/2, 1/4): D = -h(U) + cross entropy, one-dimensional quad
        v = 0.25

        def integrand(x):
            logphi = -0.5 * math.log(2 * math.pi * v) - (x - 0.5) ** 2 / (2 * v)
            return -logphi

        oracle, _ = quad(integrand, 0.0, 1.0, epsabs=1e-12)
        val = kl_direct(Uniform(), 1, 0.5)
        assert abs(val - oracle) <= 1e-9

    def test_nonnegative(self):
        for parent in (Uniform(), Gaussian(), Exponential(), Cauchy(), F2()):
            assert kl_direct(parent, 50, 0.4) >= -1e-8

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

    def test_non_integer_n_raises(self):
        # n = 100.7 was truncated to 100, as k2_term and quantile_mse_bound never did
        for n in (100.7, [100, 200.5]):
            with pytest.raises(ValueError, match="must be an integer"):
                kl_decompose(Gaussian(), n, 0.3)

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
        # trimmed domain would turn into a large finite integral; the
        # declared quantile growth flags it before any quadrature
        d = kl_decompose(Cauchy(), 10, 0.9)
        assert d.diverged and d.k2 == math.inf

    def test_thin_views_agree_with_decomposition(self):
        d = kl_decompose(Gaussian(), 2_000, 0.3, tol=1e-10)
        assert abs(k2_term(Gaussian(), 2_000, 0.3) - d.k2) <= 1e-12
        assert abs(k3_term(Gaussian(), 2_000, 0.3) - d.k3) <= 1e-12
        assert abs(kl_direct(Gaussian(), 2_000, 0.3) - d.total_direct) <= 1e-12


class TestMonteCarlo:
    def test_one_draw_per_decomposition(self, monkeypatch):
        calls = []

        def spy(law, count, seed, stream=0):
            calls.append((count, stream))
            return beta_sample(law, count, seed, stream)

        monkeypatch.setattr(ordent.distributions, "beta_sample", spy)
        kl_decompose(Exponential(), 200, 0.3, method="monte_carlo", budget=5_000, seed=4)
        assert calls == [(5_000, 1)]

    def test_terms_are_means_over_stream_one(self):
        # bit-equal to the mean over the draw taken directly; 20000 draws
        # cross the estimator's chunk boundaries
        parent, n, p, budget, seed = Exponential(), 200, 0.3, 20_000, 9
        d = kl_decompose(parent, n, p, method="monte_carlo", budget=budget, seed=seed)
        ref = gaussian_reference(parent, n, p)
        u = beta_sample(BetaLaw(d.k, n + 1 - d.k), budget, seed, stream=1)
        mse = float(np.mean((parent.quantile(u) - ref.mu_p) ** 2))
        assert d.k2 == mse / (2.0 * ref.v_np) - 0.5
        assert d.k3 == float(np.mean(parent.log_pdf_at_quantile(u))) - ref.log_f_p

    def test_one_draw_is_rejected(self):
        # one draw has no standard error (quad_error would be NaN)
        with pytest.raises(ValueError):
            kl_decompose(Exponential(), 200, 0.3, method="monte_carlo", budget=1)


class TestDeclaredDivergence:
    """Divergence decided from the parents' endpoint growth, before any
    quadrature or sampling.  In each case the 1e-15 trim of the quadrature
    domain, or a finite sample, would turn the divergent integral into a
    plausible finite number."""

    # (parent, n, p, divergent term): Cauchy with alpha = 2 (k = 2) or
    # beta = 2 (k = n - 1) has an infinite quantile MSE; f2 with k = 1 has
    # E[1/U] = inf under Beta(1, n) inside its log density
    CASES = [
        (Cauchy(), 10, 0.15, "k2"),
        (Cauchy(), 20, 0.1, "k2"),
        (Cauchy(), 40, 0.05, "k2"),
        (Cauchy(), 10, 0.9, "k2"),
        (F2(), 10, 0.05, "k3"),
        (F2(), 100, 0.005, "k3"),
    ]

    @pytest.mark.parametrize("method", ["quadrature", "monte_carlo"])
    @pytest.mark.parametrize("parent, n, p, term", CASES,
                             ids=lambda v: getattr(v, "name", str(v)))
    def test_flagged_infinite(self, parent, n, p, term, method):
        d = kl_decompose(parent, n, p, method=method, budget=2_000, seed=3)
        assert d.diverged
        # k2 >= 0 always; f2's log density grows to +inf at u -> 0
        assert getattr(d, term) == math.inf
        assert d.total_decomposed == math.inf and d.total_direct == math.inf
        assert d.message

    @pytest.mark.parametrize("method", ["quadrature", "monte_carlo"])
    def test_thin_views(self, method):
        # the single-term views (by quadrature) report the decomposition's infinities
        k2 = kl_decompose(Cauchy(), 10, 0.15, method=method, budget=2_000).k2
        k3 = kl_decompose(F2(), 10, 0.05, method=method, budget=2_000).k3
        assert k2 == k2_term(Cauchy(), 10, 0.15) == math.inf
        assert k3 == k3_term(F2(), 10, 0.05) == math.inf
        assert kl_direct(Cauchy(), 10, 0.9) == math.inf
        assert kl_direct(F2(), 100, 0.005) == math.inf

    def test_finite_neighbours_stay_finite(self):
        # one rank further in, each expectation is finite again
        for parent, n, p in [(Cauchy(), 20, 0.15), (Cauchy(), 20, 0.9), (F2(), 10, 0.15)]:
            d = kl_decompose(parent, n, p)
            assert not d.diverged and d.message == ""
            assert abs(d.total_direct - d.total_decomposed) <= 1e-8

    def test_quantile_mse_bound_reports_infinite_value(self):
        from ordent.bounds import quantile_mse_bound

        rep = quantile_mse_bound(Cauchy(), 10, 0.15)
        assert rep.empirical_value == math.inf
        assert "infinite" in rep.message
