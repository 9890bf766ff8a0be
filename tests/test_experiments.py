"""Experiment drivers: rate fitting, sweeps, condition checks, grids, reports."""

import io
import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ordent import quadrature, special
from ordent.distributions import F1, F2, Cauchy, Exponential, Gaussian, Uniform
from ordent.entropy_kl import kl_decompose
from ordent.experiments import (
    CSV_COLUMNS,
    ConditionCheck,
    condition_check,
    fit_rate,
    log_grid,
    parse_n_grid,
    rate_sweep,
)


class TestGrids:
    def test_log_grid_endpoints_and_dedup(self):
        grid = log_grid(100, 100_000, 12)
        assert grid[0] == 100 and grid[-1] == 100_000
        assert grid == sorted(set(grid))

    def test_parse_log(self):
        assert parse_n_grid("100:100000:12log") == log_grid(100, 100_000, 12)

    def test_parse_linear(self):
        assert parse_n_grid("10:50:5") == [10, 20, 30, 40, 50]

    def test_parse_errors(self):
        for bad in ("100:10:5log", "100:1000", "a:b:c", "100:1000:xlog"):
            with pytest.raises(ValueError):
                parse_n_grid(bad)


class TestFitRate:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_recovers_synthetic_power_law(self, a):
        ns = log_grid(100, 100_000, 12)
        values = [3.7 / n**a for n in ns]
        fit = fit_rate(ns, values)
        assert abs(fit.slope + a) <= 1e-6
        assert fit.r_squared >= 1.0 - 1e-9

    def test_window_is_top_half(self):
        ns = [10, 100, 1_000, 10_000]
        fit = fit_rate(ns, [1.0 / n for n in ns])
        assert fit.window == [1_000, 10_000]

    def test_exclusions_reported(self):
        ns = [10, 100, 1_000, 10_000]
        fit = fit_rate(ns, [math.inf, 0.0, 1e-3, 1e-4])
        assert (10, "non-finite value") in fit.excluded
        assert (100, "zero value") in fit.excluded
        # window falls back to all usable points when the top half is short
        assert math.isfinite(fit.slope)
        assert fit.window == [1_000, 10_000]

    def test_too_few_points_gives_nan(self):
        fit = fit_rate([10, 100], [math.inf, math.inf])
        assert math.isnan(fit.slope)


class TestRateSweep:
    def test_gaussian_sweep_slope(self):
        # even grid: odd n at p = 1/2 drops onto the faster symmetric branch
        # and zigzags the fit
        grid = log_grid(100, 10_000, 6, multiple_of=2)
        report = rate_sweep(Gaussian(), 0.5, grid)
        assert not report.any_diverged
        assert report.rate_fit.slope <= -0.5 + 0.1

    def test_mixed_parity_grid_zigzags(self):
        # documents why the even grid matters: the odd-n symmetric branch
        # sits orders of magnitude below the even-n branch
        from ordent.entropy_kl import kl_decompose

        even = kl_decompose(Gaussian(), 250, 0.5).total_decomposed
        odd = kl_decompose(Gaussian(), 251, 0.5).total_decomposed
        assert odd < even / 50.0

    def test_f1_sweep_divergence_flagged(self):
        report = rate_sweep(F1(), 0.5, [100, 316, 1_000])
        assert report.any_diverged
        assert all(d.diverged for d in report.decompositions)
        assert math.isnan(report.rate_fit.slope)
        assert len(report.rate_fit.excluded) == 3

    def test_reproducible_json(self):
        grid = [100, 200, 400]
        a = rate_sweep(Uniform(), 0.3, grid).to_dict()
        b = rate_sweep(Uniform(), 0.3, grid).to_dict()
        a.pop("wall_time"), b.pop("wall_time")
        assert json.dumps(a, default=str) == json.dumps(b, default=str)

    def test_jobs_do_not_change_numbers(self):
        # a caller spreading the sweep's points over threads gets the serial numbers
        grid = [100, 200, 400]
        a = rate_sweep(Gaussian(), 0.5, grid)
        with ThreadPoolExecutor(3) as pool:
            b = list(pool.map(lambda n: kl_decompose(Gaussian(), n, 0.5), grid))
        for da, db in zip(a.decompositions, b):
            assert da.to_dict() == db.to_dict()

    def test_non_integer_grid_raises(self):
        # [10.5, 20.2, 40.9] was truncated to [10, 20, 40]
        with pytest.raises(ValueError, match="must be an integer"):
            rate_sweep(Gaussian(), 0.5, [10.5, 20.2, 40.9])

    def test_slope_up_to_1e7(self):
        # the true slope is -1; the fit uses the top half of the grid, 1e5..1e7
        report = rate_sweep(Gaussian(), 0.5, log_grid(1000, 10**7, 12, multiple_of=2))
        assert abs(report.rate_fit.slope + 1.0) <= 0.002

    def test_csv_schema(self):
        report = rate_sweep(Uniform(), 0.5, [100, 200])
        buf = io.StringIO()
        report.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        assert lines[1].startswith('1,"uniform(a=0,b=1)",0.5,100,50,')

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            rate_sweep(Uniform(), 0.5, [100, 100, 200])
        with pytest.raises(ValueError):
            rate_sweep(Uniform(), 0.5, [5, 100])


class TestConditionCheck:
    def test_cauchy_all_hold(self):
        chk = condition_check(Cauchy(), 0.5, m=2.0, r=0.5)
        assert chk.norm_finite
        assert chk.density_positive
        assert chk.derivative_continuous
        assert chk.moment_finite
        assert chk.all_hold

    def test_f1_moment_fails_for_all_r(self):
        for r in (0.1, 0.5, 1.0, 2.0, 4.0):
            chk = condition_check(F1(), 0.5, m=2.0, r=r)
            assert not chk.moment_finite
            assert chk.norm_finite  # the density itself is tame

    def test_f2_norm_fails(self):
        chk = condition_check(F2(), 0.5, m=2.0, r=1.0)
        assert not chk.norm_finite
        assert chk.moment_finite
        assert chk.density_positive

    @pytest.mark.parametrize("parent", [Gaussian(), Exponential()], ids=lambda d: d.name)
    @pytest.mark.parametrize("p", [0.005, 0.995])
    def test_probes_stay_inside_the_unit_interval(self, parent, p):
        # the widest probe is min(p, 1 - p) / 2 away from p
        chk = condition_check(parent, p)
        assert chk.density_positive and chk.derivative_continuous
        assert len(chk.details["probe_gaps"]) == 4

    @pytest.mark.parametrize("parent, p, want", [
        (Gaussian(), 0.3, 0.1823301851513177), (Exponential(), 0.7, -0.30000000000000004),
        (Exponential(), 0.5, -0.5), (Uniform(), 0.3, 0.0), (Cauchy(), 0.3, 0.19813980991756336),
        (F1(), 0.3, -0.37654711810537395), (F2(), 0.3, -28.287791792187026)], ids=repr)
    def test_derivative_at_p(self, parent, p, want):
        # f'(F^-1(p)) = L'(p) f^2, against values from the x-space form f'(x)
        got = condition_check(parent, p).details["derivative_at_p"]
        assert abs(got - want) <= 1e-13 * abs(want), (got, want)

    def test_one_formula_call_per_probe_point(self, monkeypatch):
        # log f at p and each f'(F^-1(t)) = L' f^2 come from one pass of the
        # family's formula: p itself, then p -+ four widths
        calls = []

        def formula(self, s, upper, _real=Gaussian._tail):
            calls.append(float(s))
            return _real(self, s, upper)

        monkeypatch.setattr(Gaussian, "_tail", formula)
        chk = condition_check(Gaussian(), 0.3)
        assert chk.derivative_continuous
        assert len(calls) == 1 + 2 * len(chk.details["probe_gaps"]) == 9

    def test_serializable(self):
        chk = condition_check(Gaussian(), 0.3)
        d = chk.to_dict()
        assert d["all_hold"] is True
        json.dumps(d)


class TestOneBatchPerSweep:
    """A sweep is one ``kl_decompose`` call whose integrals share one
    quadrature pass; every row is still the decomposition its n gives alone."""

    @staticmethod
    def assert_rows_alone(report, parent, p):
        for d in report.decompositions:
            alone = kl_decompose(parent, d.n, p)
            assert d.to_dict() == alone.to_dict(), d.n

    @pytest.mark.parametrize("parent, p, grid, refines", [
        # every point converges on the first level
        (Gaussian(), 0.5, log_grid(104, 99_652, 12, multiple_of=2), False),
        # points refine, each to its own depth: near the unbounded upper
        # tail of f1's quantile, at small n
        (F1(), 0.99, [10, 11, 12, 13, 15, 17, 20, 25, 30, 40, 50, 100, 1_000], True),
        # Beta(alpha, beta) with beta <= 2: only k2 is declared divergent
        (Cauchy(), 0.9, [10, 11, 12, 20, 40, 100], False),
        # every point divergent: only k3 is integrated
        (F1(), 0.5, [100, 316, 1_000], False),
    ])
    def test_rows_equal_lone_decompositions(self, parent, p, grid, refines):
        report = rate_sweep(parent, p, grid)
        self.assert_rows_alone(report, parent, p)
        assert (report.quadrature_cost["levels"] > 1) == refines

    def test_cauchy_grid_mixes_divergent_and_finite_k2(self):
        report = rate_sweep(Cauchy(), 0.9, [10, 11, 12, 20, 40, 100])
        k2_div = [math.isinf(d.k2) for d in report.decompositions]
        assert any(k2_div) and not all(k2_div)
        assert all(math.isfinite(d.k3) for d in report.decompositions)

    def test_same_n_on_two_grids(self):
        a = rate_sweep(F2(), 0.3, [50, 400, 3_000])
        b = rate_sweep(F2(), 0.3, [20, 400, 90_000])
        assert a.decompositions[1].to_dict() == b.decompositions[1].to_dict()

    def test_one_engine_pass_and_its_cost(self, monkeypatch):
        from ordent import entropy_kl

        passes = []
        real = entropy_kl.beta_expectation

        def counting(*args, **kwargs):
            passes.append(real(*args, **kwargs))
            return passes[-1]

        monkeypatch.setattr(entropy_kl, "beta_expectation", counting)
        grid = log_grid(104, 99_652, 12, multiple_of=2)
        report = rate_sweep(Gaussian(), 0.5, grid)
        (batch,) = passes
        assert len(batch) == len(grid)
        cost = report.to_dict()["quadrature_cost"]
        assert cost == {"nodes": batch.neval, "integrand_calls": batch.calls,
                        "levels": batch.levels}
        assert cost["nodes"] == sum(r.neval for r in batch)
        assert cost["levels"] == 1 and cost["integrand_calls"] == math.ceil(cost["nodes"] / 8192)
        assert json.loads(report.to_json())["quadrature_cost"] == cost

    def test_csv_unchanged_by_cost(self):
        report = rate_sweep(Uniform(), 0.5, [100, 200])
        buf = io.StringIO()
        report.write_csv(buf)
        assert buf.getvalue().splitlines()[0] == ",".join(CSV_COLUMNS)
        assert all("cost" not in c for c in CSV_COLUMNS)

    def test_parent_calls_per_level(self):
        # node-array tail calls: ceil(nodes / 8192) per level; plus the one
        # scalar call for the reference at p
        class Counting(Gaussian):
            def __init__(self):
                super().__init__()
                self.sizes = []

            def tail(self, s, upper):
                self.sizes.append(np.size(s))
                return super().tail(s, upper)

        parent = Counting()
        report = rate_sweep(parent, 0.5, parse_n_grid("104:99652:12log"))
        cost = report.quadrature_cost
        assert cost["levels"] == 1
        assert parent.sizes.count(1) == 1
        assert len(parent.sizes) - 1 == math.ceil(cost["nodes"] / 8192) == 2
        assert sum(parent.sizes) - 1 == cost["nodes"]

    def test_loader_runs_per_level(self, monkeypatch):
        # one run of Loader's form per integrand call, whatever the number
        # of laws in it, plus exactly one over every law's partition edges,
        # whose weights decide the zero-weight bounds
        runs, trimming = [], []
        real_loader = special._loader
        real_bounds = quadrature._zero_weight_bounds

        def loader(*args):
            runs.append(args[-1].size)
            return real_loader(*args)

        def bounds(*args):
            before = len(runs)
            found = real_bounds(*args)
            trimming.append(len(runs) - before)
            return found

        monkeypatch.setattr(special, "_loader", loader)
        monkeypatch.setattr(quadrature, "_zero_weight_bounds", bounds)
        cost = rate_sweep(Gaussian(), 0.5, parse_n_grid("104:99652:12log")).quadrature_cost
        assert trimming == [1]
        assert len(runs) - 1 == cost["integrand_calls"] == 2
        assert sum(runs[1:]) == cost["nodes"]

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            kl_decompose(Gaussian(), [200, 100], 0.5)
        with pytest.raises(ValueError):
            kl_decompose(Gaussian(), [], 0.5)
        single = kl_decompose(Gaussian(), 200, 0.5)
        (listed,) = kl_decompose(Gaussian(), [200], 0.5)
        assert listed.to_dict() == single.to_dict()
