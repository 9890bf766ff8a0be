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
from ordent.special import beta_log_densities, beta_log_density


def lone(f, a, b, *, tol_abs=1e-9, tol_rel=0.0, breakpoints=None):
    """The per-column results of ``f(x)`` over (a, b), integrated as a batch
    of one problem; the initial partition is the geometric endpoint levels
    unless ``breakpoints`` (one row) are given."""
    levels = quadrature._geometric_levels([a], [b]) if breakpoints is None else [breakpoints]
    return adaptive_quad(lambda x, problem: f(x), [a], [b], tol_abs=tol_abs, tol_rel=tol_rel,
                         breakpoints=levels)[0]


def lone_beta(g, a, b, *, tol_abs=1e-12, tol_rel=1e-10):
    """The per-column results of E[g(U, log w)], U ~ Beta(a, b), as a batch
    of one law."""
    return beta_expectation(lambda u, logw, problem: g(u, logw), [a], [b], tol_abs=tol_abs,
                            tol_rel=tol_rel)[0]


class TestAdaptiveQuad:
    def test_polynomial_exact(self):
        (res,) = lone(lambda x: [3.0 * x**2], 0.0, 1.0)
        assert res.converged and not res.diverged
        assert abs(res.value - 1.0) <= 1e-12

    def test_log_endpoint_singularity(self):
        # int_0^1 log(x) dx = -1, integrable endpoint blow-up
        (res,) = lone(lambda x: [np.log(x)], 1e-300, 1.0, tol_abs=1e-10)
        assert abs(res.value + 1.0) <= 1e-9

    def test_inverse_sqrt_singularity(self):
        (res,) = lone(lambda x: [1.0 / np.sqrt(x)], 1e-300, 1.0, tol_abs=1e-9)
        assert abs(res.value - 2.0) <= 1e-7

    def test_slow_divergence_hits_depth_rule(self):
        # 1/x over (1e-300, 1) carries ~690 nats of mass spread down to the
        # left edge; the depth cap ends the column unconverged, and the engine
        # does not call that a divergence
        (res,) = lone(lambda x: [1.0 / x], 1e-300, 1.0)
        assert not res.converged and not res.diverged
        assert "depth" in res.message and math.isfinite(res.value)

    def test_nonfinite_values_flagged(self):
        def f(x):
            out = np.zeros_like(x)
            out[x > 0.5] = np.inf
            return [out]

        (res,) = lone(f, 0.0, 1.0)
        assert res.diverged

    def test_check_raises_on_divergence(self):
        (res,) = lone(lambda x: [1.0 / x], 1e-300, 1.0)
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
        (res,) = lone(lambda x: [f(x)], 0.0, 1.0, breakpoints=hints)
        assert abs(res.value - mass) <= 1e-12

    def test_breakpoints_are_the_whole_partition(self):
        # no endpoint levels join the breakpoints: G15 is exact on the cubic,
        # so the two panels (0, 0.3) and (0.3, 1) are all that is evaluated
        res = lone(lambda x: [x**3], 0.0, 1.0, breakpoints=[0.3])
        assert res.neval == 2 * quadrature._PANEL_NEVAL
        assert abs(res[0].value - 0.25) <= 1e-15
        # the 46 geometric levels toward each end as breakpoints, which share
        # the midpoint: 92 panels
        assert lone(lambda x: [x**3], 0.0, 1.0).neval == 92 * quadrature._PANEL_NEVAL


class TestBetaExpectation:
    def test_mean_small_and_large(self):
        for a, b in [(2.0, 3.0), (500.0, 501.0), (50_000.0, 50_001.0)]:
            (res,) = lone_beta(lambda u, logw: [u], a, b)
            assert res.converged
            assert abs(res.value - a / (a + b)) <= 1e-12

    def test_second_moment_concentrated(self):
        a, b = 30_000.0, 70_001.0
        mean = a / (a + b)
        var = a * b / ((a + b) ** 2 * (a + b + 1.0))
        (res,) = lone_beta(lambda u, logw: [(u - mean) ** 2], a, b)
        assert abs(res.value - var) <= 1e-9 * var

    def test_integrable_inverse_moment(self):
        # E[1/U] = (a+b-1)/(a-1) for a > 1
        a, b = 50.0, 51.0
        (res,) = lone_beta(lambda u, logw: [1.0 / u], a, b)
        assert abs(res.value - (a + b - 1.0) / (a - 1.0)) <= 1e-9

    def test_divergent_expectation_flagged(self):
        # E[exp(2/sqrt(1-U))] diverges for any Beta law; its nodes overflow to
        # inf, and a non-finite node leaves no value to report
        def explosive(u, logw):
            with np.errstate(over="ignore"):
                return [np.exp(2.0 / np.sqrt(1.0 - u))]

        (res,) = lone_beta(explosive, 50.0, 51.0)
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
            # the partition as adaptive_quad builds it from the raw edges,
            # which are all of it
            row = quadrature._initial_grid(a, b, np.reshape(kwargs["breakpoints"], (1, -1)))[0]
            grids.append(row[row == row])
            return real(f, a, b, **kwargs)

        monkeypatch.setattr(quadrature, "adaptive_quad", spy)
        return grids

    def test_no_zero_weight_panel_beyond_the_mode(self, monkeypatch):
        grids = self.evaluated_grids(monkeypatch)
        for a, b in self.LAWS:
            (res,) = lone_beta(lambda u, logw: [u], a, b)
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

    # laws the direct form weighs (min(a, b) <= 2), a k = n law among them
    DIRECT = [(1.0, 100.0), (2.0, 99.0), (100.0, 1.0)]

    def test_same_panels_as_loader_alone(self):
        # edges placed where the log weight crosses the float64 underflow;
        # the bounds end the leading and trailing zero-weight runs of the one
        # Beta log density that also weights the nodes (Loader's form for
        # a, b > 2, the direct form below)
        rng = np.random.default_rng(7)
        for a, b in self.LAWS[:6] + self.DIRECT + self.LARGE:
            mean, sd = a / (a + b), math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
            tails = np.geomspace(1e-15, 0.5, 20_001)
            u = np.concatenate([np.linspace(max(mean - 60 * sd, 1e-15),
                                            min(mean + 60 * sd, 1 - 1e-15), 200_001),
                                tails, 1.0 - tails])
            logw = beta_log_density(a, b, u)
            band = u[(logw > -745.6) & (logw < -744.6)]
            edges = np.concatenate([quadrature._TRIM_EDGES, [mean], band])
            grid = np.unique(edges)
            zero = np.exp(beta_log_density(a, b, grid)) == 0.0
            mode = (a - 1.0) / (a + b - 2.0) if b > 1.0 else 1.0
            below, above = zero & (grid <= mode), zero & (grid >= mode)
            start = np.argmin(below) - 1 if a > 1.0 and below[0] else 0
            stop = grid.size - (np.argmin(above[::-1]) - 1 if b > 1.0 and above[-1] else 0)
            # the helper takes the edges unsorted
            (low,), (high,) = quadrature._zero_weight_bounds(
                rng.permutation(edges)[None], beta_log_densities([a], [b]), [a], [b])
            assert (low, high) == (grid[max(start, 0)], grid[stop - 1]), (a, b)

    def test_batch_bounds_are_each_laws_alone(self):
        # one log density call over every law's edges, Loader's and direct
        # laws mixed, decides each law's bounds as its own call does
        laws = self.LAWS + self.DIRECT
        assert len(laws) == 12
        rows = []
        for a, b in laws:
            mean, sd = a / (a + b), math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
            rows.append(np.concatenate([quadrature._TRIM_EDGES, np.clip(
                mean + sd * np.linspace(-64.0, 64.0, 33), 1e-15, 1.0 - 1e-15)]))
        rows = np.array(rows)
        alphas, betas = [a for a, _ in laws], [b for _, b in laws]
        lows, highs = quadrature._zero_weight_bounds(
            rows, beta_log_densities(alphas, betas), alphas, betas)
        for i, (a, b) in enumerate(laws):
            alone = quadrature._zero_weight_bounds(rows[i:i + 1], beta_log_densities([a], [b]),
                                                   [a], [b])
            assert alone == ([lows[i]], [highs[i]]), (a, b)
        # and some law of each side lost an endpoint level to a zero weight
        assert max(lows) > 1e-15 and min(highs) < 1.0 - 1e-15

    def test_one_partition_pass_per_call(self, monkeypatch):
        # the initial partitions are sorted, de-duplicated and clipped once,
        # inside adaptive_quad, for a batch of one law and for a batch of laws
        calls = []
        real = quadrature._initial_grid

        def counting(*args, **kwargs):
            calls.append(np.ndim(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(quadrature, "_initial_grid", counting)
        lone_beta(lambda u, logw: [u], 30.0, 71.0)
        assert len(calls) == 1
        calls.clear()
        laws = self.LAWS + [(181.0, 182.0)]
        beta_expectation(lambda u, logw, problem: [u], [a for a, _ in laws],
                         [b for _, b in laws], tol_abs=1e-12, tol_rel=1e-10)
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
        res = lone(self.columns, 1e-300, 1.0, tol_abs=1e-10)
        assert isinstance(res, QuadResults) and len(res) == 3
        for j, col in enumerate(res):
            (alone,) = lone(lambda x: [self.columns(x)[j]], 1e-300, 1.0, tol_abs=1e-10)
            assert col.converged and alone.converged
            assert abs(col.value - alone.value) <= col.error + alone.error + 1e-15
        assert abs(res[0].value + 1.0) <= 1e-9
        assert abs(res[2].value - 1.0) <= 1e-12

    def test_per_column_tolerances(self):
        res = lone(self.columns, 1e-300, 1.0, tol_abs=[1e-6, 1e-12, 1e-12])
        assert res.converged
        assert res[0].error <= 1e-6 and res[1].error <= 1e-12

    def test_nonfinite_column_frozen_while_sibling_converges(self):
        def f(x):
            blow = np.where(x > 0.5, -np.inf, 0.0)
            return np.stack([np.exp(x), blow, -blow])

        res = lone(f, 0.0, 1.0)
        assert res[0].converged and not res[0].diverged
        assert abs(res[0].value - (math.e - 1.0)) <= 1e-12
        for col in res[1:]:
            assert col.diverged and math.isnan(col.value)
            assert "non-finite" in col.message
        assert res.diverged and not res.converged

    def test_depth_rule_in_one_column(self):
        res = lone(lambda x: np.stack([1.0 / x, x]), 1e-300, 1.0)
        assert not res[0].converged and not res[0].diverged
        assert "depth" in res[0].message
        assert res[1].converged and abs(res[1].value - 0.5) <= 1e-12

    def test_large_constant_column_converges(self):
        # a large value is a value: the engine has no divergence threshold
        res = lone(lambda x: np.stack([-1e20 * np.ones_like(x), x]), 0.0, 1.0)
        assert res[0].converged and res[0].value == -1e20
        assert res[1].converged

    def test_panel_budget_flags_unconverged(self):
        (res,) = lone(lambda x: [np.sin(1.0 / x)], 1e-6, 1.0, tol_abs=1e-14)
        assert not res.converged and not res.diverged
        assert "budget" in res.message and math.isfinite(res.value)

    def test_neval_deterministic(self):
        def f(x):
            return np.stack([np.log(x), np.sin(1.0 / x)])

        first = lone(f, 1e-6, 1.0, tol_abs=1e-12)
        for _ in range(3):
            again = lone(f, 1e-6, 1.0, tol_abs=1e-12)
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
            res = lone(f, 0.0, 1.0)
            mixed = lone(g, 0.0, 1.0)
            lone_beta(lambda u, logw: np.stack([u, 1.0 / (1.0 - u) ** 3]), 3.0, 2.0)
        assert res[0].diverged and res[1].converged
        assert mixed[0].diverged and mixed[1].converged

    def test_beta_expectation_columns_and_log_weight(self):
        a, b = 400.0, 601.0

        def g(u, logw):
            return np.stack([u, logw])

        res = lone_beta(g, a, b)
        assert abs(res[0].value - a / (a + b)) <= 1e-12
        # E[log density] = -entropy of Beta(a, b)
        entropy = (betaln(a, b) - (a - 1.0) * digamma(a) - (b - 1.0) * digamma(b)
                   + (a + b - 2.0) * digamma(a + b))
        assert abs(res[1].value + entropy) <= 1e-9


class TestBatch:
    """A batch of problems shares integrand calls; each result is the lone one."""

    @staticmethod
    def lone_and_batch(funcs, intervals, **kwargs):
        alone = [lone(f, a, b, **kwargs) for f, (a, b) in zip(funcs, intervals)]
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

        a, b = [a for a, _ in intervals], [b for _, b in intervals]
        batch = adaptive_quad(batched, a, b, tol_rel=0.0,
                              breakpoints=quadrature._geometric_levels(a, b), **kwargs)
        return alone, batch, calls

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
        alone, batch, calls = self.lone_and_batch(funcs, intervals, tol_abs=1e-13)
        assert isinstance(batch, QuadResults) and len(batch) == len(funcs)
        assert batch.neval == sum(r.neval for r in alone)
        assert batch.levels > 3 and batch.calls == len(calls) > batch.levels
        for one, res in zip(alone, batch):
            assert res.neval == one.neval
            assert list(res) == list(one)
        assert not alone[5].converged and "budget" in alone[5][0].message
        assert alone[3][0].diverged and alone[3][1].converged

    def test_problem_tolerances_and_budgets(self):
        f = lambda x, problem: [np.sin(1.0 / x)]  # noqa: E731
        # every problem shares one tolerance; the third spends its own panel
        # budget, and the others keep theirs
        a, b = [1e-3, 1e-3, 1e-6], [1.0, 1.0, 1.0]
        batch = adaptive_quad(f, a, b, tol_abs=1e-13, tol_rel=0.0,
                              breakpoints=quadrature._geometric_levels(a, b))
        batch = [res[0] for res in batch]
        for res, ai, bi in zip(batch, a, b):
            (alone,) = lone(lambda x: [np.sin(1.0 / x)], ai, bi, tol_abs=1e-13)
            assert res == alone
        assert batch[0] == batch[1] and batch[1].converged
        assert not batch[2].converged and "budget" in batch[2].message

    def test_tolerance_shape_must_broadcast(self):
        # a tolerance is one value or one per column, shared by every problem
        f = lambda x, problem: [np.sin(1.0 / x)]  # noqa: E731
        levels = quadrature._geometric_levels([1e-3] * 3, [1.0] * 3)
        with pytest.raises(ValueError, match="one per column"):  # two for one column
            lone(lambda x: [np.sin(1.0 / x)], 1e-3, 1.0, tol_abs=[1e-3, 1e-9])
        with pytest.raises(ValueError, match="one per column"):  # one per problem
            adaptive_quad(f, [1e-3] * 3, [1.0] * 3, tol_abs=[1e-4, 1e-12, 1e-12], tol_rel=0.0,
                          breakpoints=levels)
        with pytest.raises(ValueError, match="one per column"):  # a (problems, 1) column
            adaptive_quad(f, [1e-3] * 3, [1.0] * 3, tol_abs=[[1e-4], [1e-12], [1e-12]],
                          tol_rel=0.0, breakpoints=levels)

    def test_one_problem_per_call_gets_its_index(self):
        seen = []

        def f(x, problem):
            seen.append(problem)
            return [x]

        # 10 levels toward each end of each problem (one shared at the
        # midpoint): 20 initial panels each, so one call holds both problems
        levels = 2.0 ** -np.arange(1, 11)
        adaptive_quad(f, [0.0, 1.0], [1.0, 2.0], tol_abs=1e-9, tol_rel=0.0,
                      breakpoints=np.array([[*(a + levels), *(a + 1.0 - levels)] for a in (0.0, 1.0)]))
        assert len(seen) == 1 and np.array_equal(seen[0], np.repeat([0, 1], 20 * 45))
        seen.clear()
        adaptive_quad(f, [0.0, 1.0], [1.0, 2.0], tol_abs=1e-9, tol_rel=0.0,
                      breakpoints=quadrature._geometric_levels([0.0, 1.0], [1.0, 2.0]))
        # 93 each: the first call holds all of problem 0 and some of problem 1,
        # the second only problem 1
        assert len(seen) == 2 and seen[0][0] == 0 and seen[1] == 1

    def test_beta_expectation_batch(self):
        # Beta(2^52, 1.2) has bulk breakpoints at 1.0 and a mode that rounds to 1
        laws = [(3.0, 98.0), (1.0, 1e5), (0.5, 3.0), (30_000.0, 70_001.0), (2.0, 2.0),
                (1e5, 1.0), (0.7, 1.0), (2.0, 2.5), (2.0**52, 2.0**52), (2.0**52, 1.2)]

        def g(u, logw):
            return np.stack([u, logw, np.log(u)])

        alone = [lone_beta(g, a, b) for a, b in laws]
        batch = beta_expectation(lambda u, logw, problem: g(u, logw), [a for a, _ in laws],
                                 [b for _, b in laws], tol_abs=1e-12, tol_rel=1e-10)
        for one, res in zip(alone, batch):
            assert res.neval == one.neval and list(res) == list(one)

    def test_batch_validation(self):
        f = lambda x, problem: [x]  # noqa: E731
        with pytest.raises(ValueError):
            adaptive_quad(f, [0.0, 0.0], [1.0], tol_abs=1e-9, tol_rel=0.0,
                          breakpoints=[[0.5], [0.5]])
        with pytest.raises(ValueError):
            beta_expectation(lambda u, logw, problem: [u], [1.0, -1.0], [1.0, 1.0],
                             tol_abs=1e-12, tol_rel=1e-10)
        # a non-finite parameter is an invalid law, not a divergent expectation
        for a, b in [(math.inf, 2.0), (2.0, math.inf), (math.nan, 2.0)]:
            with pytest.raises(ValueError):
                lone_beta(lambda u, logw: [u], a, b)
            with pytest.raises(ValueError):
                beta_expectation(lambda u, logw, problem: [u], [3.0, a], [4.0, b],
                                 tol_abs=1e-12, tol_rel=1e-10)

    def test_beta_expectation_batch_partitions(self, monkeypatch):
        # the initial partition of each law of a batch, built in one pass
        # over all laws, equals that of its batch of one
        laws = [(3.0, 98.0), (1.0, 1e5), (0.5, 3.0), (30_000.0, 70_001.0), (2.0, 2.0),
                (1e5, 1.0), (0.7, 1.0), (2.0, 2.5), (2.0**52, 2.0**52), (181.0, 182.0)]
        grids = []
        real = quadrature.adaptive_quad

        def spy(f, a, b, **kwargs):
            # each law's partition as adaptive_quad builds it from its raw edges
            grids.extend(row[row == row]
                         for row in quadrature._initial_grid(a, b, kwargs["breakpoints"]))
            return real(f, a, b, **kwargs)

        monkeypatch.setattr(quadrature, "adaptive_quad", spy)
        for a, b in laws:
            lone_beta(lambda u, logw: [u], a, b)
        alone = grids[:]
        grids.clear()
        beta_expectation(lambda u, logw, problem: [u], [a for a, _ in laws],
                         [b for _, b in laws], tol_abs=1e-12, tol_rel=1e-10)
        assert len(grids) == len(alone) == len(laws)
        for one, got in zip(alone, grids):
            assert np.array_equal(got, one)


class TestOneConvention:
    """Every call is a batch; each rule of the convention raises ``ValueError``."""

    def test_scalar_interval_raises(self):
        f = lambda x, problem: [x]  # noqa: E731
        for a, b in [(0.0, [1.0]), ([0.0], 1.0), (0.0, 1.0), (np.float64(0.0), [1.0])]:
            with pytest.raises(ValueError, match="one value per problem"):
                adaptive_quad(f, a, b, tol_abs=1e-9, tol_rel=0.0, breakpoints=[[0.5]])

    def test_scalar_law_raises(self):
        g = lambda u, logw, problem: [u]  # noqa: E731
        for a, b in [(3.0, [4.0]), ([3.0], 4.0), (3.0, 4.0), (np.float64(3.0), [4.0])]:
            with pytest.raises(ValueError, match="one value per problem"):
                beta_expectation(g, a, b, tol_abs=1e-12, tol_rel=1e-10)

    def test_breakpoints_are_one_row_per_problem(self):
        f = lambda x, problem: [x]  # noqa: E731
        # one row for two problems, a flat row, and no breakpoints at all
        for breakpoints in ([[0.5]], [0.5, 0.5], [], np.empty((0, 3))):
            with pytest.raises(ValueError, match="one row per problem"):
                adaptive_quad(f, [0.0, 0.0], [1.0, 1.0], tol_abs=1e-9, tol_rel=0.0,
                              breakpoints=breakpoints)

    def test_integrand_returns_columns(self):
        # one value per node, a scalar and a 3-d array are not (columns, nodes)
        for out in (lambda x: x, lambda x: 1.0, lambda x: x[None, None]):
            with pytest.raises(ValueError, match="2-d array"):
                lone(out, 0.0, 1.0)
            with pytest.raises(ValueError, match="2-d array"):
                lone_beta(lambda u, logw: out(u), 3.0, 4.0)
        # a column of the wrong length
        with pytest.raises(ValueError, match="2-d array"):
            lone(lambda x: [x[1:]], 0.0, 1.0)
