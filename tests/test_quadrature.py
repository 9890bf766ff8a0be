"""Integrator behavior: accuracy on known integrals, spike resolution,
endpoint singularities, and divergence reporting."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import betaln, digamma

from ordent.quadrature import (
    DIVERGENCE_THRESHOLD,
    QuadResults,
    adaptive_quad,
    beta_expectation,
)


class TestAdaptiveQuad:
    def test_polynomial_exact(self):
        res = adaptive_quad(lambda x: 3.0 * x**2, 0.0, 1.0)
        assert res.converged and not res.diverged
        assert abs(res.value - 1.0) <= 1e-12

    def test_log_endpoint_singularity(self):
        # int_0^1 log(x) dx = -1, integrable endpoint blow-up
        res = adaptive_quad(lambda x: np.log(x), 1e-300, 1.0, tol_abs=1e-10)
        assert abs(res.value + 1.0) <= 1e-9

    def test_inverse_sqrt_singularity(self):
        res = adaptive_quad(lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0, tol_abs=1e-9)
        assert abs(res.value - 2.0) <= 1e-7

    def test_slow_divergence_hits_depth_rule(self):
        # 1/x over (1e-300, 1) carries ~690 nats of mass spread down to the
        # left edge; the depth cap declares divergence long before the
        # running-sum threshold could
        res = adaptive_quad(lambda x: 1.0 / x, 1e-300, 1.0)
        assert res.diverged
        assert res.value == math.inf

    def test_negative_divergence_sign(self):
        res = adaptive_quad(lambda x: -1.0 / x, 1e-300, 1.0)
        assert res.diverged
        assert res.value == -math.inf

    def test_nonfinite_values_flagged(self):
        def f(x):
            out = np.zeros_like(x)
            out[x > 0.5] = np.inf
            return out

        res = adaptive_quad(f, 0.0, 1.0)
        assert res.diverged

    def test_check_raises_on_divergence(self):
        res = adaptive_quad(lambda x: 1.0 / x, 1e-300, 1.0)
        with pytest.raises(ArithmeticError):
            res.check()

    def test_breakpoints_resolve_narrow_spike(self):
        # Gaussian bump of width 1e-5 hidden at 0.37; oracle is the erf mass
        # of the bump restricted to [0, 1]
        sigma, center = 1e-5, 0.37
        f = lambda x: np.exp(-0.5 * ((x - center) / sigma) ** 2)
        root2 = math.sqrt(2.0)
        mass = (sigma * math.sqrt(2 * math.pi) * 0.5
                * (math.erf((1 - center) / (root2 * sigma)) - math.erf(-center / (root2 * sigma))))
        hints = [center + s * c * sigma for s in (-1, 1) for c in (1, 2, 4, 8, 16)]
        res = adaptive_quad(f, 0.0, 1.0, breakpoints=hints)
        assert abs(res.value - mass) <= 1e-12


class TestBetaExpectation:
    def test_mean_small_and_large(self):
        for a, b in [(2.0, 3.0), (500.0, 501.0), (50_000.0, 50_001.0)]:
            res = beta_expectation(lambda u: u, a, b)
            assert res.converged
            assert abs(res.value - a / (a + b)) <= 1e-12

    def test_second_moment_concentrated(self):
        a, b = 30_000.0, 70_001.0
        mean = a / (a + b)
        var = a * b / ((a + b) ** 2 * (a + b + 1.0))
        res = beta_expectation(lambda u: (u - mean) ** 2, a, b)
        assert abs(res.value - var) <= 1e-9 * var

    def test_integrable_inverse_moment(self):
        # E[1/U] = (a+b-1)/(a-1) for a > 1
        a, b = 50.0, 51.0
        res = beta_expectation(lambda u: 1.0 / u, a, b)
        assert abs(res.value - (a + b - 1.0) / (a - 1.0)) <= 1e-9

    def test_divergent_expectation_flagged(self):
        # E[exp(2/sqrt(1-U))] diverges for any Beta law
        def explosive(u):
            with np.errstate(over="ignore"):
                return np.exp(2.0 / np.sqrt(1.0 - u))

        res = beta_expectation(explosive, 50.0, 51.0)
        assert res.diverged
        assert res.value == math.inf

    def test_running_total_divergence_path(self):
        # milder blow-up at small parameters trips the running-sum threshold
        def explosive(u):
            with np.errstate(over="ignore"):
                return np.exp(1.0 / np.sqrt(1.0 - u))

        res = beta_expectation(explosive, 3.0, 3.0)
        assert res.diverged
        assert not res.converged

    def test_threshold_constant(self):
        assert DIVERGENCE_THRESHOLD == 1e12


class TestMultiColumn:
    """Stacked integrands: one node set, one QuadResult per column."""

    @staticmethod
    def columns(x):
        return np.stack([np.log(x), 1.0 / np.sqrt(x), 3.0 * x**2])

    def test_columns_match_one_column_calls(self):
        res = adaptive_quad(self.columns, 1e-300, 1.0, tol_abs=1e-10)
        assert isinstance(res, QuadResults) and len(res) == 3
        for j, col in enumerate(res):
            alone = adaptive_quad(lambda x: self.columns(x)[j], 1e-300, 1.0, tol_abs=1e-10)
            assert col.converged and alone.converged
            assert abs(col.value - alone.value) <= col.error + alone.error + 1e-15
        assert abs(res[0].value + 1.0) <= 1e-9
        assert abs(res[2].value - 1.0) <= 1e-12

    def test_per_column_tolerances(self):
        res = adaptive_quad(self.columns, 1e-300, 1.0, tol_abs=[1e-6, 1e-12, 1e-12])
        assert res.converged
        assert res[0].error <= 1e-6 and res[1].error <= 1e-12

    def test_nonfinite_column_frozen_while_sibling_converges(self):
        def f(x):
            blow = np.where(x > 0.5, -np.inf, 0.0)
            return np.stack([np.exp(x), blow, -blow])

        res = adaptive_quad(f, 0.0, 1.0)
        assert res[0].converged and not res[0].diverged
        assert abs(res[0].value - (math.e - 1.0)) <= 1e-12
        assert res[1].diverged and res[1].value == -math.inf
        assert res[2].diverged and res[2].value == math.inf
        assert res.diverged and not res.converged

    def test_depth_rule_in_one_column(self):
        res = adaptive_quad(lambda x: np.stack([1.0 / x, x]), 1e-300, 1.0)
        assert res[0].diverged and res[0].value == math.inf
        assert "depth" in res[0].message
        assert res[1].converged and abs(res[1].value - 0.5) <= 1e-12

    def test_threshold_rule_in_one_column(self):
        res = adaptive_quad(lambda x: np.stack([-1e20 * np.ones_like(x), x]), 0.0, 1.0)
        assert res[0].diverged and res[0].value == -math.inf
        assert "exceeded" in res[0].message
        assert res[1].converged

    def test_panel_budget_flags_unconverged(self):
        res = adaptive_quad(lambda x: np.sin(1.0 / x), 1e-6, 1.0, tol_abs=1e-14, max_panels=150)
        assert not res.converged and not res.diverged
        assert "budget" in res.message and math.isfinite(res.value)

    def test_stop_on_divergence(self):
        def f(x):
            return np.stack([np.where(x > 0.5, np.inf, 0.0), np.sin(1.0 / x)])

        res = adaptive_quad(f, 1e-6, 1.0, tol_abs=1e-14, stop_on_divergence=[False, True])
        assert res[0].diverged
        assert not res[1].diverged and not res[1].converged
        assert "another column diverged" in res[1].message

    def test_neval_deterministic(self):
        def f(x):
            return np.stack([np.log(x), np.sin(1.0 / x)])

        first = adaptive_quad(f, 1e-6, 1.0, tol_abs=1e-12)
        for _ in range(3):
            again = adaptive_quad(f, 1e-6, 1.0, tol_abs=1e-12)
            assert again.neval == first.neval
            assert [r.neval for r in again] == [r.neval for r in first]
            assert [r.value for r in again] == [r.value for r in first]

    def test_no_runtime_warning_escapes(self):
        def f(x):
            # +inf and -inf in one panel make the rule pair inf - inf
            out = np.zeros((2, x.size))
            out[0, x > 0.5] = np.inf
            out[0, (x > 0.25) & (x < 0.5)] = -np.inf
            out[1] = x
            return out

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = adaptive_quad(f, 0.0, 1.0)
            beta_expectation(lambda u: np.stack([u, 1.0 / (1.0 - u) ** 3]), 3.0, 2.0)
        assert res[0].diverged and res[1].converged

    def test_beta_expectation_columns_and_log_weight(self):
        a, b = 400.0, 601.0

        def g(u, logw):
            return np.stack([u, logw])

        res = beta_expectation(g, a, b, log_weight=True)
        assert abs(res[0].value - a / (a + b)) <= 1e-12
        # E[log density] = -entropy of Beta(a, b)
        entropy = (betaln(a, b) - (a - 1.0) * digamma(a) - (b - 1.0) * digamma(b)
                   + (a + b - 2.0) * digamma(a + b))
        assert abs(res[1].value + entropy) <= 1e-9
