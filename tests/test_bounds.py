"""Analytic bound verifiers: tail bound dominance, quantile-MSE bound and its
tightness for the uniform parent, the log-density-ratio bound, the
Beta-normalizer constant, and the decay-rate check."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import betainc

import ordent.bounds as bounds_module
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
from ordent.order_stats import (OrderStatSpec, moment_bound_constant, round_rank,
                                 verify_moment_bound)


class TestEpsilonWindow:
    def test_default_inside_every_window(self):
        for p in (0.1, 0.5, 0.9):
            for n in (18, 100, 10_000):
                for q in (1.0, 2.0, 10.0):
                    win = EpsilonWindow.default(p, n)
                    win.validate_tail_mode()
                    win.validate_log_mode(q)

    def test_tail_mode_violations(self):
        with pytest.raises(ValueError, match="epsilon window"):
            EpsilonWindow(p=0.5, n=100, epsilon=0.6).validate_tail_mode()
        with pytest.raises(ValueError, match="epsilon window"):
            EpsilonWindow(p=0.5, n=100, epsilon=0.5 / 101 * 0.9).validate_tail_mode()

    def test_log_mode_floor(self):
        win = EpsilonWindow(p=0.5, n=100, epsilon=0.25)
        assert abs(win.log_mode_floor(2.0) - abs(-1.0) / (2 * 99 + 2)) <= 1e-15

    def test_bounds_reject_a_window_object(self):
        # a window carries its own (n, p); a bound checks epsilon against its own
        win = EpsilonWindow(p=0.5, n=10, epsilon=0.2)
        with pytest.raises(TypeError):
            quantile_mse_bound(Gaussian(), 1000, 0.05, epsilon=win)
        with pytest.raises(TypeError):
            k3_bound(Gaussian(), 1000, 0.05, q=2.0, epsilon=win)
        with pytest.raises(TypeError):
            beta_tail_bound(1000, 0.05, win)


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

    def test_hoelder_end(self):
        # at q = 1 the conjugate r is inf and the third term's norm^((r+1)/r)
        # is the norm itself, sup f; just above, ||f||_(r+1) at r + 1 ~ 1e7
        # must not underflow to 0
        at_one = k3_bound(Gaussian(), 100, 0.5, q=1.0)
        near = k3_bound(Gaussian(), 100, 0.5, q=1.0 + 1e-7)
        assert at_one.verdict == near.verdict == "pass"
        third = at_one.params["terms"][2], near.params["terms"][2]
        assert third[0] > 0.0 and abs(third[0] - third[1]) <= 1e-5 * third[0], third
        assert abs(at_one.analytic_value - near.analytic_value) <= 1e-8 * at_one.analytic_value

    def test_window_validation(self):
        # below the tail-mode floor p/(n+1) ~ 0.00495
        with pytest.raises(ValueError):
            k3_bound(Gaussian(), 100, 0.5, q=2.0, epsilon=0.004)


@pytest.mark.parametrize("bound, parent, n, p, kwargs, name, want", [
    (quantile_mse_bound, Gaussian(), 200, 0.3, {}, "curvature_const", 19.065046326985563),
    (quantile_mse_bound, Exponential(), 2000, 0.7, {}, "curvature_const", 44.44444444444443),
    (quantile_mse_bound, Uniform(), 200, 0.3, {}, "curvature_const", 0.0),
    (k3_bound, Gaussian(), 200, 0.3, {"q": 2.0}, "slope_const", 4.4451828517546685),
    (k3_bound, Exponential(), 2000, 0.5, {"q": 4.0}, "slope_const", 4.0),
    (k3_bound, Uniform(), 200, 0.3, {"q": 2.0}, "slope_const", 0.0),
], ids=["mse-gaussian", "mse-exponential", "mse-uniform", "k3-gaussian", "k3-exponential",
        "k3-uniform"])
def test_constants_read_along_the_quantile_flow(bound, parent, n, p, kwargs, name, want):
    # max |L'| f^(2 - power) over the central window, on the benchmark's verify
    # inputs, against values from the x-space form f'(x) at x = F^-1(t)
    got = bound(parent, n, p, **kwargs).params[name]
    assert abs(got - want) <= 1e-13 * abs(want), (got, want)


def test_one_formula_call_per_grid_level(monkeypatch):
    # the MSE curvature |L'|/f of each grid level reads L' and log f from one
    # pass of the family's formula; at p = 1/2 every level straddles 1/2
    levels, calls = [], []

    def grid_max(fn, lo, hi, _real=bounds_module._grid_max):
        def level(t):
            before = len(calls)
            out = fn(t)
            levels.append(len(calls) - before)
            return out

        return _real(level, lo, hi)

    def formula(self, s, upper, _real=Gaussian._tail):
        calls.append(np.size(s))
        return _real(self, s, upper)

    monkeypatch.setattr(bounds_module, "_grid_max", grid_max)
    monkeypatch.setattr(Gaussian, "_tail", formula)
    rep = quantile_mse_bound(Gaussian(), 200, 0.5)
    assert rep.verdict == "pass" and len(levels) >= 2
    assert levels == [1] * len(levels)


@pytest.mark.parametrize("call", [
    lambda: moment_bound_constant(100, 30, math.nan, 2),
    lambda: moment_bound_constant(100, 30, 2, math.nan),
    lambda: verify_moment_bound(Gaussian(), OrderStatSpec(100, 30), math.nan, 2.0, mc_count=100),
    lambda: stirling_constant_check(10, 10, math.nan),
    lambda: stirling_constant_check(math.nan, 10, 2.0),
    lambda: stirling_constant_check(10, math.nan, 2.0),
    lambda: holder_constant(math.nan),
    lambda: k3_bound(Gaussian(), 100, 0.5, q=math.nan),
], ids=["moment_constant-q", "moment_constant-r", "verify_moment_bound-q", "stirling-q",
        "stirling-alpha", "stirling-beta", "holder_constant", "k3_bound-q"])
def test_nan_orders_raise(call):
    # a NaN order passes a check written as q < 1 or q <= 0
    with pytest.raises(ValueError):
        call()


def test_k3_bound_at_one_draw_violates_the_window():
    # at n = 1 the q = inf floor (1 - p)/(n - 1) is its limit, +inf
    with pytest.raises(ValueError, match="epsilon window violated"):
        k3_bound(Gaussian(), 1, 0.5, q=math.inf, epsilon=0.3)


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
        # the claimed constant fails for a small cluster of cells at
        # (p=0.1, q=10, n = 20..32 in 60-digit mpmath); everywhere else the
        # sweep passes
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

    @pytest.mark.parametrize("alpha, beta, q", [
        (2.0, 19.0, 10.0), (50.0, 51.0, 2.0), (1_000.0, 9_001.0, 1.5),
        (5e6, 5e6 + 1.0, 2.0), (1e6, 9e6 + 1.0, 10.0), (1e6, 9e6 + 1.0, 1.5),
    ])
    def test_ratio_against_mpmath(self, alpha, beta, q):
        # composed from float64 log-gamma values it would err by 5.4e-9 at n = 1e7
        with mp.workdps(40):
            a, b, qq = mp.mpf(alpha), mp.mpf(beta), mp.mpf(q)
            want = mp.beta(qq * (a - 1) + 1, qq * (b - 1) + 1) ** (1 / qq) / mp.beta(a, b)
        rep = stirling_constant_check(alpha, beta, q)
        assert abs(rep.empirical_value / float(want) - 1.0) <= 1e-13


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
        with pytest.raises(ValueError, match="must be an integer"):
            corollary1_check(Uniform(), 0.5, 2.0, [100, 500.5, 1_000])

    @pytest.mark.parametrize("grid", [[10, 20, 1_000], [100, 200, 5_000], [10, 1_000, 1_000]])
    def test_top_decade_needs_two_points(self, grid):
        with pytest.raises(ValueError, match="top decade"):
            corollary1_check(Gaussian(), 0.5, 2.0, grid)


class TestDefaultEpsilon:
    def test_half_of_smaller_side(self):
        assert default_epsilon(0.3) == 0.15
        assert default_epsilon(0.8) == pytest.approx(0.1)


class TestUnconvergedQuadrature:
    def test_mse_value_flags_non_convergence(self):
        # Cauchy under Beta(9, 2.05): the MSE integrand decays like
        # (1 - u)^-0.95, finite but too slowly for the panel budget
        from ordent.distributions import Cauchy
        from ordent.entropy_kl import _term_detail, _term_results, gaussian_reference

        # Beta(9, 2.05) is the law of no integer rank: its k2 result comes
        # from the law itself
        ref = gaussian_reference(Cauchy(), 10, 0.9)
        (res,), _ = _term_results(("k2",), Cauchy(), [BetaLaw(9.0, 2.05)], [ref], 1e-10)
        value, error, diverged, message = _term_detail("k2", res["k2"], ref)
        assert math.isfinite(value) and not diverged
        assert "did not converge" in message

    def test_converged_bound_has_no_message(self):
        rep = quantile_mse_bound(Gaussian(), 200, 0.3)
        assert rep.message == ""

    @staticmethod
    def _unconverged_at(monkeypatch, n=None):
        """Mark every term result (or those of one n) unconverged, values kept."""
        import dataclasses

        import ordent.entropy_kl as ek

        real = ek._term_results

        def patched(terms, parent, laws, refs, *args, **kwargs):
            results, cost = real(terms, parent, laws, refs, *args, **kwargs)
            return [res if n is not None and ref.n != n else
                    {t: dataclasses.replace(r, converged=False, message="depth 60 reached")
                     for t, r in res.items()}
                    for ref, res in zip(refs, results)], cost

        monkeypatch.setattr(ek, "_term_results", patched)

    @pytest.mark.parametrize("parent", [Gaussian(), F2()])
    def test_mse_bound_names_an_unconverged_integral(self, monkeypatch, parent):
        before = quantile_mse_bound(parent, 1_000, 0.5)
        self._unconverged_at(monkeypatch)
        after = quantile_mse_bound(parent, 1_000, 0.5)
        assert (after.empirical_value, after.stderr, after.analytic_value, after.verdict) == (
            before.empirical_value, before.stderr, before.analytic_value, before.verdict)
        assert "k2 did not converge: depth 60 reached" in after.message
        assert before.message in after.message

    def test_k3_bound_reports_its_quadrature_error(self):
        from ordent.entropy_kl import _term_at

        rep = k3_bound(Gaussian(), 200, 0.3, q=2.0)
        value, error, diverged, message = _term_at("k3", Gaussian(), 200, 0.3)
        assert (rep.empirical_value, rep.stderr) == (value, error)
        assert 0.0 < rep.stderr < 1e-9 and not diverged and message == rep.message == ""

    @pytest.mark.parametrize("parent", [Gaussian(), F2()])
    def test_k3_bound_names_an_unconverged_integral(self, monkeypatch, parent):
        before = k3_bound(parent, 1_000, 0.5, q=2.0)
        self._unconverged_at(monkeypatch)
        after = k3_bound(parent, 1_000, 0.5, q=2.0)
        assert (after.empirical_value, after.stderr, after.analytic_value, after.verdict) == (
            before.empirical_value, before.stderr, before.analytic_value, before.verdict)
        assert "k3 did not converge: depth 60 reached" in after.message
        assert before.message in after.message

    def test_corollary1_names_each_unconverged_n(self, monkeypatch):
        grid = [100, 316, 1_000, 3_162, 10_000]
        before = corollary1_check(Gaussian(), 0.5, 2.0, grid)
        assert before.message == ""
        self._unconverged_at(monkeypatch, n=316)
        after = corollary1_check(Gaussian(), 0.5, 2.0, grid)
        assert after.params == before.params
        assert (after.empirical_value, after.verdict) == (before.empirical_value, before.verdict)
        assert after.message == "k2 did not converge at n = 316"


def test_corollary1_batch_matches_each_n_alone():
    from ordent.entropy_kl import _term_at

    for parent, p in ((Gaussian(), 0.5), (F2(), 0.9)):
        grid = [20, 100, 316, 1_000, 3_162, 10_000]
        rep = corollary1_check(parent, p, 2.0, grid)
        alone = [_term_at("k2", parent, n, p)[0] for n in grid]
        assert rep.params["k2_values"] == alone
