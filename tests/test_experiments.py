"""Experiment drivers: rate fitting, sweeps, condition checks, grids, reports."""

import io
import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ordent.distributions import F1, F2, Cauchy, Gaussian, Uniform
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
        report = rate_sweep(Gaussian(), 0.5, grid, tol=1e-9)
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
            b = list(pool.map(lambda n: kl_decompose(Gaussian(), n, 0.5, seed=n), grid))
        for da, db in zip(a.decompositions, b):
            assert da.to_dict() == db.to_dict()

    def test_jobs_do_not_change_monte_carlo_numbers(self):
        # Beta draws come from per-(seed, n) streams, whatever thread runs them
        grid = [100, 200, 400]
        a = rate_sweep(Gaussian(), 0.5, grid, method="monte_carlo", budget=2_000)
        with ThreadPoolExecutor(3) as pool:
            b = list(pool.map(lambda n: kl_decompose(
                Gaussian(), n, 0.5, method="monte_carlo", budget=2_000, seed=n), grid))
        for da, db in zip(a.decompositions, b):
            assert da.to_dict() == db.to_dict()

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

    def test_serializable(self):
        chk = condition_check(Gaussian(), 0.3)
        d = chk.to_dict()
        assert d["all_hold"] is True
        json.dumps(d)
