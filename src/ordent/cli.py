"""Command-line interface.

Subcommands: entropy, kl, rate-fit, bound-check, sample.  Exit codes:
0 success / all bounds pass, 1 a bound failed, 2 divergence detected,
3 usage or condition error, or an integral that did not converge.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import bounds as _bounds
from .distributions import DistributionSpecError, parse_distribution
from .entropy_kl import (
    ConditionViolation,
    kl_decompose,
    uniform_order_stat_entropy_exact,
    uniform_order_stat_entropy_expansion,
)
from .experiments import parse_n_grid, rate_sweep
from .order_stats import OrderStatSpec, sample_order_stat
from .quadrature import NotConvergedError
from .reports import VERDICT_FAIL

EXIT_OK = 0
EXIT_BOUND_FAIL = 1
EXIT_DIVERGENCE = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 means divergence here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_code_usage(message))

    @staticmethod
    def exit_code_usage(message):
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE


@functools.cache  # built once per process: ~1 ms, a tenth of an in-process rate-fit
def _build_parser() -> _Parser:
    parser = _Parser(prog="ordent",
                     description="Entropy and Gaussian-gap toolkit for central order statistics")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_ent = sub.add_parser("entropy", help="entropy of the k-th of n uniform order statistics")
    p_ent.add_argument("--n", type=int, required=True)
    p_ent.add_argument("--k", type=int, required=True)
    p_ent.add_argument("--expansion", action="store_true",
                       help="also print the large-n expansion at p = k/n")

    p_kl = sub.add_parser("kl", help="KL decomposition against the Gaussian reference")
    p_kl.add_argument("--parent", required=True, help='e.g. "gaussian(mu=0,sigma=1)"')
    p_kl.add_argument("--n", type=int, required=True)
    p_kl.add_argument("--p", type=float, required=True)

    p_rate = sub.add_parser("rate-fit", help="KL sweep over an n grid with a rate fit")
    p_rate.add_argument("--parent", required=True)
    p_rate.add_argument("--p", type=float, required=True)
    p_rate.add_argument("--n-grid", required=True, help="LO:HI:POINTS[log]")
    p_rate.add_argument("--jobs", type=int, default=None,
                        help="no effect: sweeps run in the calling thread "
                             "(kept for scripts that pass it; to be removed)")
    p_rate.add_argument("--out", default=None, help="write the per-n table as CSV")

    p_bound = sub.add_parser("bound-check", help="evaluate one analytic bound")
    p_bound.add_argument("--which", required=True,
                         choices=["tail", "mse", "k3", "stirling", "corollary1"])
    p_bound.add_argument("--parent", default=None)
    p_bound.add_argument("--n", type=int, default=None)
    p_bound.add_argument("--p", type=float, default=None)
    p_bound.add_argument("--epsilon", type=float, default=None)
    p_bound.add_argument("--q", type=float, default=2.0)
    p_bound.add_argument("--r", type=float, default=2.0)
    p_bound.add_argument("--alpha", type=float, default=None)
    p_bound.add_argument("--beta", type=float, default=None)
    p_bound.add_argument("--n-grid", default=None, help="LO:HI:POINTS[log], for corollary1")

    p_samp = sub.add_parser("sample", help="draw order-statistic samples")
    p_samp.add_argument("--parent", required=True)
    p_samp.add_argument("--n", type=int, required=True)
    p_samp.add_argument("--k", type=int, required=True)
    p_samp.add_argument("--count", type=int, required=True)
    p_samp.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_entropy(args) -> int:
    exact = uniform_order_stat_entropy_exact(args.n, args.k)
    if args.expansion:
        p = args.k / args.n
        exp_val = uniform_order_stat_entropy_expansion(args.n, p)
        print(json.dumps({"n": args.n, "k": args.k, "exact": exact,
                          "expansion": exp_val, "p": p}))
    else:
        print(exact)
    return EXIT_OK


def _cmd_kl(args) -> int:
    parent = parse_distribution(args.parent)
    dec = kl_decompose(parent, args.n, args.p)
    print(json.dumps(dec.to_dict(), default=str, indent=2))
    return EXIT_DIVERGENCE if dec.diverged else EXIT_OK


def _cmd_rate_fit(args) -> int:
    parent = parse_distribution(args.parent)
    grid = parse_n_grid(args.n_grid)
    report = rate_sweep(parent, args.p, grid)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            report.write_csv(fh)
    else:
        import io

        buf = io.StringIO()
        report.write_csv(buf)
        sys.stdout.write(buf.getvalue())
    fit = report.rate_fit
    if fit is not None and math.isfinite(fit.slope):
        print(f"# fitted slope {fit.slope:.4f} (r^2 {fit.r_squared:.4f}) "
              f"over n in {fit.window}", file=sys.stderr)
    if report.any_diverged:
        print("# divergence detected on the grid", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def _require(args, names) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"missing required options: {', '.join(missing)}")


def _cmd_bound_check(args) -> int:
    reports = []
    if args.which == "tail":
        _require(args, ["n", "p"])
        val = _bounds.beta_tail_bound(args.n, args.p, args.epsilon)
        print(json.dumps({"bound_name": "beta_tail", "analytic_value": val,
                          "n": args.n, "p": args.p, "epsilon": args.epsilon}))
        return EXIT_OK
    if args.which == "mse":
        _require(args, ["parent", "n", "p"])
        parent = parse_distribution(args.parent)
        reports.append(_bounds.quantile_mse_bound(parent, args.n, args.p,
                                                  args.epsilon, args.r))
    elif args.which == "k3":
        _require(args, ["parent", "n", "p"])
        parent = parse_distribution(args.parent)
        reports.append(_bounds.k3_bound(parent, args.n, args.p, args.q, args.epsilon))
    elif args.which == "stirling":
        _require(args, ["alpha", "beta"])
        reports.append(_bounds.stirling_constant_check(args.alpha, args.beta, args.q))
    elif args.which == "corollary1":
        _require(args, ["parent", "p", "n_grid"])
        parent = parse_distribution(args.parent)
        grid = parse_n_grid(args.n_grid)
        reports.append(_bounds.corollary1_check(parent, args.p, args.r, grid))
    print(json.dumps([r.to_dict() for r in reports], default=str, indent=2))
    if any(r.verdict == VERDICT_FAIL for r in reports):
        return EXIT_BOUND_FAIL
    return EXIT_OK


def _cmd_sample(args) -> int:
    parent = parse_distribution(args.parent)
    spec = OrderStatSpec(n=args.n, k=args.k)
    draws = sample_order_stat(parent, spec, args.count, args.seed)
    out = "\n".join(repr(float(v)) for v in np.asarray(draws))
    print(out)
    return EXIT_OK


_COMMANDS = {
    "entropy": _cmd_entropy,
    "kl": _cmd_kl,
    "rate-fit": _cmd_rate_fit,
    "bound-check": _cmd_bound_check,
    "sample": _cmd_sample,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (DistributionSpecError, ConditionViolation, ValueError, NotConvergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
