"""Command-line surface: subcommands, output formats, and exit codes."""

import json
import math

import mpmath as mp
import pytest

from ordent.cli import EXIT_BOUND_FAIL, EXIT_DIVERGENCE, EXIT_OK, EXIT_USAGE, cli_main


class TestEntropy:
    def test_trivial(self, capsys):
        assert cli_main(["entropy", "--n", "1", "--k", "1"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.0"

    def test_with_expansion(self, capsys):
        assert cli_main(["entropy", "--n", "1000", "--k", "500", "--expansion"]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert abs(rec["exact"] - rec["expansion"]) <= 1e-5
        assert rec["p"] == 0.5

    def test_large_n_against_mpmath(self, capsys):
        n, k = 10**9, 5 * 10**8
        assert cli_main(["entropy", "--n", str(n), "--k", str(k)]) == EXIT_OK
        t = lambda r: mp.loggamma(r + 1) - r * mp.harmonic(r)
        with mp.workdps(40):
            oracle = float(t(k - 1) + t(n - k) - t(n) - mp.harmonic(n))
        assert abs(float(capsys.readouterr().out) - oracle) <= 1e-14

    def test_bad_rank(self, capsys):
        assert cli_main(["entropy", "--n", "10", "--k", "11"]) == EXIT_USAGE


class TestKl:
    def test_uniform_k3_zero(self, capsys):
        code = cli_main(["kl", "--parent", "uniform()", "--n", "100", "--p", "0.5"])
        assert code == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["k3"] == 0.0
        assert abs(rec["total_decomposed"] - rec["total_direct"]) <= 1e-8

    def test_f1_divergence_exit_code(self, capsys):
        code = cli_main(["kl", "--parent", "f1()", "--n", "100", "--p", "0.5"])
        assert code == EXIT_DIVERGENCE
        rec = json.loads(capsys.readouterr().out)
        assert rec["diverged"] is True

    def test_bad_parent_spec(self, capsys):
        assert cli_main(["kl", "--parent", "nope()", "--n", "10", "--p", "0.5"]) == EXIT_USAGE

    def test_non_finite_parent_parameter(self, capsys):
        code = cli_main(["kl", "--parent", "gaussian(mu=inf)", "--n", "100", "--p", "0.5"])
        assert code == EXIT_USAGE
        assert "finite" in capsys.readouterr().err


class TestRateFit:
    def test_csv_to_stdout_and_determinism(self, capsys):
        args = ["rate-fit", "--parent", "uniform()", "--p", "0.5",
                "--n-grid", "100:400:3log"]
        assert cli_main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert cli_main(args) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        header = first.splitlines()[0]
        assert header.startswith("schema_version,parent,p,n,k,")

    def test_out_and_plot_data(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        plot = tmp_path / "plot.dat"
        code = cli_main(["rate-fit", "--parent", "gaussian(mu=0,sigma=1)",
                         "--p", "0.5", "--n-grid", "100:400:3log",
                         "--out", str(out), "--plot-data", str(plot)])
        assert code == EXIT_OK
        assert out.read_text().count("\n") == 4
        rows = [line.split() for line in plot.read_text().strip().splitlines()]
        assert len(rows) == 3 and all(len(r) == 2 for r in rows)

    def test_jobs_flag_is_a_no_op(self, capsys, tmp_path):
        args = ["rate-fit", "--parent", "gaussian()", "--p", "0.5", "--n-grid", "100:1000:4log"]
        assert cli_main([*args, "--out", str(tmp_path / "plain.csv")]) == EXIT_OK
        assert cli_main([*args, "--jobs", "2", "--out", str(tmp_path / "jobs.csv")]) == EXIT_OK
        assert (tmp_path / "jobs.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_divergent_parent_exit_code(self, capsys, tmp_path):
        code = cli_main(["rate-fit", "--parent", "f1()", "--p", "0.5",
                         "--n-grid", "100:200:2log",
                         "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_DIVERGENCE

    def test_malformed_grid(self, capsys):
        code = cli_main(["rate-fit", "--parent", "uniform()", "--p", "0.5",
                         "--n-grid", "abc"])
        assert code == EXIT_USAGE


class TestBoundCheck:
    def test_tail_value(self, capsys):
        code = cli_main(["bound-check", "--which", "tail", "--n", "100",
                         "--p", "0.5", "--epsilon", "0.2"])
        assert code == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        oracle = 2 * math.exp(-2 * 102 * (0.2 - 0.5 / 101) ** 2)
        assert abs(rec["analytic_value"] - oracle) <= 1e-12

    def test_stirling_pass(self, capsys):
        code = cli_main(["bound-check", "--which", "stirling",
                         "--alpha", "500", "--beta", "501", "--q", "2"])
        assert code == EXIT_OK
        recs = json.loads(capsys.readouterr().out)
        assert recs[0]["verdict"] == "pass"

    def test_mse_pass(self, capsys):
        code = cli_main(["bound-check", "--which", "mse", "--parent", "gaussian()",
                         "--n", "500", "--p", "0.5", "--epsilon", "0.1", "--r", "2"])
        assert code == EXIT_OK

    def test_corollary1_fail_exit(self, capsys):
        code = cli_main(["bound-check", "--which", "corollary1", "--parent", "f1()",
                         "--p", "0.5", "--r", "0.5", "--n-grid", "100:1000:3log"])
        assert code == EXIT_BOUND_FAIL

    def test_missing_options(self, capsys):
        code = cli_main(["bound-check", "--which", "mse", "--n", "100"])
        assert code == EXIT_USAGE


class TestSample:
    def test_stream_shape_and_determinism(self, capsys):
        args = ["sample", "--parent", "exponential(rate=1)", "--n", "50",
                "--k", "25", "--count", "5", "--seed", "11"]
        assert cli_main(args) == EXIT_OK
        first = capsys.readouterr().out.strip().splitlines()
        assert len(first) == 5
        assert cli_main(args) == EXIT_OK
        assert capsys.readouterr().out.strip().splitlines() == first


class TestUsage:
    def test_unknown_command_exits_3(self, capsys):
        assert cli_main(["frobnicate"]) == EXIT_USAGE

    def test_no_command_exits_3(self, capsys):
        assert cli_main([]) == EXIT_USAGE
