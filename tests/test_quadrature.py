"""Integrator behavior: accuracy on known integrals, spike resolution,
endpoint singularities, and how columns that cannot converge end."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import betaln, digamma

from ordent import entropy_kl, quadrature
from ordent.distributions import make_parent
from ordent.quadrature import QuadResults, adaptive_quad, beta_expectation
from ordent.special import beta_log_density


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
        # left edge; the depth cap ends the column unconverged, and the engine
        # does not call that a divergence
        res = adaptive_quad(lambda x: 1.0 / x, 1e-300, 1.0)
        assert not res.converged and not res.diverged
        assert "depth" in res.message and math.isfinite(res.value)

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
        # E[exp(2/sqrt(1-U))] diverges for any Beta law; its nodes overflow to
        # inf, and a non-finite node leaves no value to report
        def explosive(u):
            with np.errstate(over="ignore"):
                return np.exp(2.0 / np.sqrt(1.0 - u))

        res = beta_expectation(explosive, 50.0, 51.0)
        assert res.diverged and not res.converged
        assert math.isnan(res.value) and res.error == math.inf


class TestZeroWeightPanels:
    """``beta_expectation`` skips the initial panels that weigh exactly 0."""

    LAWS = [(3.0, 98.0), (50.0, 51.0), (300.0, 701.0), (30_000.0, 70_001.0),
            (90_000.0, 10_001.0), (1.0, 1e5), (2.0, 1e4), (1e5, 1.0), (0.5, 3.0)]

    @staticmethod
    def evaluated_grids(monkeypatch):
        grids = []
        real = quadrature.adaptive_quad

        def spy(f, a, b, **kwargs):
            # the partition as adaptive_quad builds it from the raw edges
            assert kwargs["endpoint_levels"] == 0
            grids.append(quadrature._initial_grid(a, b, kwargs["breakpoints"], 0))
            return real(f, a, b, **kwargs)

        monkeypatch.setattr(quadrature, "adaptive_quad", spy)
        return grids

    def test_no_zero_weight_panel_beyond_the_mode(self, monkeypatch):
        grids = self.evaluated_grids(monkeypatch)
        for a, b in self.LAWS:
            res = beta_expectation(lambda u: u, a, b)
            # the trim to (1e-15, 1 - 1e-15) drops up to ~(a + b) 1e-15 of mass
            assert res.converged and abs(res.value - a / (a + b)) <= 1e-12 + (a + b) * 1e-15
            w = np.exp(beta_log_density(a, b, grids[-1]))
            lo, hi = grids[-1][:-1], grids[-1][1:]
            mode = (a - 1.0) / (a + b - 2.0) if a > 1.0 and b > 1.0 else (1.0 if a > 1.0 else 0.0)
            # the inner edge of every panel beyond the mode weighs more than 0
            if a > 1.0:
                assert np.all(w[1:][hi <= mode] > 0.0), (a, b)
            if b > 1.0:
                assert np.all(w[:-1][lo >= mode] > 0.0), (a, b)
        # and the concentrated laws lost most of their 46 endpoint levels a side
        assert grids[3].size < 60 and grids[4].size < 60

    # up to a + b = 2^53, beyond which n + 1 = a + b is no longer exact
    LARGE = [(3e8, 7e8 + 1), (5e12, 5e12 + 1), (9e14, 1e14 + 1),
             (2.0 ** 52, 2.0 ** 52), (0.3 * 2.0 ** 53, 0.7 * 2.0 ** 53)]

    def test_same_panels_as_loader_alone(self):
        # edges placed where the log weight crosses the float64 underflow,
        # the band in which the direct form defers to Loader's; the bounds
        # end the leading and trailing zero-weight runs of Loader's form
        rng = np.random.default_rng(7)
        for a, b in self.LAWS[:6] + self.LARGE:
            mean, sd = a / (a + b), math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
            u = np.linspace(max(mean - 60 * sd, 1e-15), min(mean + 60 * sd, 1 - 1e-15), 200_001)
            logw = beta_log_density(a, b, u)
            band = u[(logw > -745.6) & (logw < -744.6)]
            edges = np.concatenate([quadrature._initial_grid(1e-15, 1 - 1e-15, [mean]), band])
            grid = np.unique(edges)
            zero = np.exp(beta_log_density(a, b, grid)) == 0.0
            mode = (a - 1.0) / (a + b - 2.0) if b > 1.0 else 1.0
            below, above = zero & (grid <= mode), zero & (grid >= mode)
            start = np.argmin(below) - 1 if a > 1.0 and below[0] else 0
            stop = grid.size - (np.argmin(above[::-1]) - 1 if b > 1.0 and above[-1] else 0)
            # the helper takes the edges unsorted
            (low,), (high,) = quadrature._zero_weight_bounds(rng.permutation(edges)[None], [a], [b])
            assert (low, high) == (grid[max(start, 0)], grid[stop - 1]), (a, b)

    def test_one_partition_pass_per_call(self, monkeypatch):
        # the initial partitions are sorted, de-duplicated and clipped once,
        # inside adaptive_quad, for a lone law and for a batch of laws
        calls = []
        real = quadrature._initial_grid

        def counting(*args, **kwargs):
            calls.append(np.ndim(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(quadrature, "_initial_grid", counting)
        beta_expectation(lambda u: u, 30.0, 71.0)
        assert len(calls) == 1
        calls.clear()
        laws = self.LAWS + [(181.0, 182.0)]
        beta_expectation(lambda u, problem: u, [a for a, _ in laws], [b for _, b in laws])
        assert len(calls) == 1

    def test_kl_decompose_evaluations(self, monkeypatch):
        # the 5 parents x 4 n x 3 p of the benchmark's kl_grid workload
        nevals = []
        real = entropy_kl.beta_expectation

        def counting(*args, **kwargs):
            res = real(*args, **kwargs)
            nevals.append(res.neval)
            return res

        monkeypatch.setattr(entropy_kl, "beta_expectation", counting)
        for family in ("gaussian", "exponential", "uniform", "cauchy", "f2"):
            for n in (100, 1_000, 10_000, 100_000):
                for p in (0.3, 0.5, 0.9):
                    d = entropy_kl.kl_decompose(make_parent(family), n, p)
                    assert not d.diverged and d.message == ""
        assert len(nevals) == 60
        assert sum(nevals) / 60 <= 3843


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
        for col in res[1:]:
            assert col.diverged and math.isnan(col.value)
            assert "non-finite" in col.message
        assert res.diverged and not res.converged

    def test_depth_rule_in_one_column(self):
        res = adaptive_quad(lambda x: np.stack([1.0 / x, x]), 1e-300, 1.0)
        assert not res[0].converged and not res[0].diverged
        assert "depth" in res[0].message
        assert res[1].converged and abs(res[1].value - 0.5) <= 1e-12

    def test_large_constant_column_converges(self):
        # a large value is a value: the engine has no divergence threshold
        res = adaptive_quad(lambda x: np.stack([-1e20 * np.ones_like(x), x]), 0.0, 1.0)
        assert res[0].converged and res[0].value == -1e20
        assert res[1].converged

    def test_panel_budget_flags_unconverged(self):
        res = adaptive_quad(lambda x: np.sin(1.0 / x), 1e-6, 1.0, tol_abs=1e-14, max_panels=150)
        assert not res.converged and not res.diverged
        assert "budget" in res.message and math.isfinite(res.value)

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

        def g(x):
            # +inf and -inf at the first node (a G31-only node) of the first
            # two panels: their G31 values would sum to inf - inf
            out = np.zeros((2, x.size))
            out[0, 0] = np.inf
            out[0, 45] = -np.inf
            out[1] = x
            return out

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = adaptive_quad(f, 0.0, 1.0)
            mixed = adaptive_quad(g, 0.0, 1.0)
            beta_expectation(lambda u: np.stack([u, 1.0 / (1.0 - u) ** 3]), 3.0, 2.0)
        assert res[0].diverged and res[1].converged
        assert mixed[0].diverged and mixed[1].converged

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


class TestBatch:
    """A batch of problems shares integrand calls; each result is the lone one."""

    @staticmethod
    def lone_and_batch(funcs, intervals, **kwargs):
        lone = [adaptive_quad(f, a, b, **kwargs) for f, (a, b) in zip(funcs, intervals)]
        calls = []

        def batched(x, problem):
            calls.append(np.size(problem))
            idx = np.broadcast_to(problem, x.shape)
            out = np.empty((2, x.size))
            for i, f in enumerate(funcs):
                at = idx == i
                if at.any():
                    out[:, at] = f(x[at])
            return out

        batch = adaptive_quad(batched, [a for a, _ in intervals], [b for _, b in intervals],
                              **kwargs)
        return lone, batch, calls

    def test_bit_identical_to_lone_problems(self):
        # problems that stop on the first level, refine for several levels
        # (more than one call's worth of panels), hit the panel budget, and
        # diverge: each batch entry equals its lone run in every field
        funcs = [
            lambda x: np.stack([3.0 * x**2, np.exp(x)]),
            lambda x: np.stack([np.sin(1.0 / x), np.log(x)]),
            lambda x: np.stack([1.0 / np.sqrt(x), x]),
            lambda x: np.stack([np.where(x > 0.5, np.inf, x), x * x]),
            lambda x: np.stack([np.cos(40.0 / x), 1.0 / x]),
            lambda x: np.stack([np.sin(1.0 / x), x]),
        ]
        intervals = [(0.0, 1.0), (1e-4, 1.0), (1e-300, 1.0), (0.0, 1.0), (1e-3, 2.0), (1e-6, 1.0)]
        lone, batch, calls = self.lone_and_batch(funcs, intervals, tol_abs=1e-13,
                                                 max_panels=3_000)
        assert isinstance(batch, QuadResults) and len(batch) == len(funcs)
        assert batch.neval == sum(r.neval for r in lone)
        assert batch.levels > 3 and batch.calls == len(calls) > batch.levels
        for alone, res in zip(lone, batch):
            assert res.neval == alone.neval
            assert list(res) == list(alone)
        assert not lone[5].converged and "budget" in lone[5][0].message
        assert lone[3][0].diverged and lone[3][1].converged

    def test_problem_tolerances_and_budgets(self):
        f = lambda x, problem: np.sin(1.0 / x)  # noqa: E731
        batch = adaptive_quad(f, [1e-3, 1e-3, 1e-3], [1.0, 1.0, 1.0],
                              tol_abs=[[1e-4], [1e-12], [1e-12]], max_panels=[8192, 8192, 120])
        for res, (tol, budget) in zip(batch, [(1e-4, 8192), (1e-12, 8192), (1e-12, 120)]):
            alone = adaptive_quad(lambda x: np.sin(1.0 / x), 1e-3, 1.0, tol_abs=tol,
                                  max_panels=budget)
            assert res == alone
        assert batch[0].neval < batch[1].neval and not batch[2].converged

    def test_tolerance_shape_must_broadcast(self):
        f = lambda x, problem: np.sin(1.0 / x)  # noqa: E731
        with pytest.raises(ValueError):  # two tolerances for one column
            adaptive_quad(lambda x: np.sin(1.0 / x), 1e-3, 1.0, tol_abs=[1e-3, 1e-9])
        with pytest.raises(ValueError):  # one tolerance per problem is shape (3, 1)
            adaptive_quad(f, [1e-3] * 3, [1.0] * 3, tol_abs=[1e-4, 1e-12, 1e-12])
        with pytest.raises(ValueError):
            adaptive_quad(f, [1e-3] * 3, [1.0] * 3, max_panels=[8192, 120])

    def test_one_problem_per_call_gets_its_index(self):
        seen = []

        def f(x, problem):
            seen.append(problem)
            return x

        adaptive_quad(f, [0.0, 1.0], [1.0, 2.0], endpoint_levels=10)
        # 20 initial panels each: one call holds both problems
        assert len(seen) == 1 and np.array_equal(seen[0], np.repeat([0, 1], 20 * 45))
        seen.clear()
        adaptive_quad(f, [0.0, 1.0], [1.0, 2.0])
        # 93 each: the first call holds all of problem 0 and some of problem 1,
        # the second only problem 1
        assert len(seen) == 2 and seen[0][0] == 0 and seen[1] == 1

    def test_beta_expectation_batch(self):
        # Beta(2^52, 1.2) has bulk breakpoints at 1.0 and a mode that rounds to 1
        laws = [(3.0, 98.0), (1.0, 1e5), (0.5, 3.0), (30_000.0, 70_001.0), (2.0, 2.0),
                (1e5, 1.0), (0.7, 1.0), (2.0, 2.5), (2.0**52, 2.0**52), (2.0**52, 1.2)]

        def g(u, logw):
            return np.stack([u, logw, np.log(u)])

        lone = [beta_expectation(g, a, b, log_weight=True) for a, b in laws]
        batch = beta_expectation(lambda u, logw, problem: g(u, logw), [a for a, _ in laws],
                                 [b for _, b in laws], log_weight=True)
        for alone, res in zip(lone, batch):
            assert res.neval == alone.neval and list(res) == list(alone)

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            adaptive_quad(lambda x, problem: x, [0.0, 0.0], [1.0])
        with pytest.raises(ValueError):
            beta_expectation(lambda u, problem: u, [1.0, -1.0], [1.0, 1.0])
        # a non-finite parameter is an invalid law, not a divergent expectation
        for a, b in [(math.inf, 2.0), (2.0, math.inf), (math.nan, 2.0)]:
            with pytest.raises(ValueError):
                beta_expectation(lambda u: u, a, b)
            with pytest.raises(ValueError):
                beta_expectation(lambda u, problem: u, [3.0, a], [4.0, b])

    def test_beta_expectation_batch_partitions(self, monkeypatch):
        # the initial partition of each law of a batch, built in one pass
        # over all laws, equals that of its lone call
        laws = [(3.0, 98.0), (1.0, 1e5), (0.5, 3.0), (30_000.0, 70_001.0), (2.0, 2.0),
                (1e5, 1.0), (0.7, 1.0), (2.0, 2.5), (2.0**52, 2.0**52), (181.0, 182.0)]
        grids = []
        real = quadrature.adaptive_quad

        def spy(f, a, b, **kwargs):
            assert kwargs["endpoint_levels"] == 0
            rows = [kwargs["breakpoints"]] if np.ndim(a) == 0 else kwargs["breakpoints"]
            for lo, hi, row in zip(np.atleast_1d(a), np.atleast_1d(b), rows):
                row = np.asarray(row, dtype=float)
                grids.append(np.concatenate([[lo], row[(row > lo) & (row < hi)], [hi]]))
            return real(f, a, b, **kwargs)

        monkeypatch.setattr(quadrature, "adaptive_quad", spy)
        for a, b in laws:
            beta_expectation(lambda u: u, a, b)
        lone = grids[:]
        grids.clear()
        beta_expectation(lambda u, problem: u, [a for a, _ in laws], [b for _, b in laws])
        assert len(grids) == len(lone) == len(laws)
        for alone, got in zip(lone, grids):
            assert np.array_equal(got, alone)
