"""Benchmark for ordent: run one workload and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload kl_grid --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics (``ops_per_s``,
``op_p50_ms``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it wraps
ordent's public functions (see ``spans.py``) and reports the per-layer
metrics instead.  Every operation's output is checked after the timed loop;
the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run imports ordent from ``src/`` of the checkout and writes only under
``.bench_out/`` of the checkout.  Without ``src/ordent`` it exits with code 2.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads; the set-up probes inherit this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh processes timed for ``setup_s`` before the warm-up pass and again
#: after the timed loop, so the median spans the machine's state over the run.
SETUP_PROBES_EACH_SIDE = 3
PROBE_TIMEOUT_S = 60

#: uniform_order_stat_entropy_exact(ENTROPY_N, .) fills special's caches; the
#: traced run times the first such call and WARM_CALLS more.
ENTROPY_N = 100_000
WARM_CALLS = 1000


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("kl_grid", "divergence", "sweep_cli", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_times(workload: str, seed: int) -> list[float]:
    """Set-up times of SETUP_PROBES_EACH_SIDE fresh interpreters, run one after another."""
    times = []
    for _ in range(SETUP_PROBES_EACH_SIDE):
        out = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return times


class Runner:
    """Runs operations one after another and keeps each output for checking."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.outputs: list[tuple[object, object]] = []  # (op, output or raised exception)

    def one(self, op, phase: str) -> float:
        if self.tracer is not None:
            self.tracer.begin_op(phase, op.key)
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failing operation is a result to report, not a crash
            out = exc
            exc.trace_text = traceback.format_exc()
        dt = time.perf_counter() - t0
        self.outputs.append((op, out))
        return dt

    def one_pass(self, ops, phase: str, rng: random.Random) -> list[float]:
        order = list(ops)
        rng.shuffle(order)
        return [self.one(op, phase) for op in order]

    def loop(self, ops, seconds: float, rng: random.Random):
        """Whole passes until ``seconds`` have elapsed: (op times, wall seconds, passes)."""
        times: list[float] = []
        passes = 0
        t0 = time.perf_counter()
        while True:
            times += self.one_pass(ops, "loop", rng)
            passes += 1
            wall = time.perf_counter() - t0
            if wall >= seconds:
                return times, wall, passes


def check(outputs, timed: range):
    """(failed operations in ``timed``, unexpected failures, known faults) by key."""
    failed = 0
    unexpected: dict[str, str] = {}
    known: dict[str, str] = {}
    for i, (op, out) in enumerate(outputs):
        if isinstance(out, Exception):
            reason = f"raised {out!r}\n{getattr(out, 'trace_text', '')}"
        else:
            try:
                reason = op.check(out)
            except Exception:
                reason = "check raised\n" + traceback.format_exc()
        if reason is None:
            continue
        failed += i in timed
        (known if op.fault else unexpected).setdefault(op.key, reason)
    return failed, unexpected, known


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ordent" / "__init__.py").is_file():
        print(f"error: ordent sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ordent

    if Path(ordent.__file__).resolve().parent != SRC / "ordent":
        print(f"error: imported ordent from {ordent.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir()
    try:
        if args.trace:
            result = traced_run(args, scratch)
        else:
            result = timed_run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


def _summary(unexpected, known, attempted, failed) -> None:
    for key, reason in unexpected.items():
        print(f"WRONG {key}: {reason}", file=sys.stderr)
    for key, reason in known.items():
        print(f"known fault {key}: {reason}")
    print(f"attempted {attempted}, failed {failed}")


def timed_run(args, scratch: Path) -> dict:
    import workloads

    setups = setup_times(args.workload, args.seed)
    ops = workloads.build(args.workload, args.seed, scratch)
    rng = random.Random(args.seed)
    runner = Runner()
    runner.one_pass(ops, "warmup", rng)
    timed_from = len(runner.outputs)
    times, wall, _ = runner.loop(ops, args.seconds, rng)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += setup_times(args.workload, args.seed)
    failed, unexpected, known = check(runner.outputs, range(timed_from, len(runner.outputs)))
    _summary(unexpected, known, len(times), failed)
    return {
        "correct": not unexpected,
        "attempted": len(times),
        "failed": failed,
        "metrics": {
            "ops_per_s": {"value": len(times) / wall, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
    }


def traced_run(args, scratch: Path) -> dict:
    import ordent
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    # first, before anything else can fill the extended-precision caches
    tracer.begin_op("cold", "entropy_exact")
    ordent.uniform_order_stat_entropy_exact(ENTROPY_N, ENTROPY_N // 2)
    tracer.begin_op("warm", "entropy_exact")
    for _ in range(WARM_CALLS):
        ordent.uniform_order_stat_entropy_exact(ENTROPY_N, ENTROPY_N // 2)

    import workloads

    rng = random.Random(args.seed)
    runner = Runner(tracer)
    ops = workloads.build(args.workload, args.seed, scratch)
    runner.one_pass(ops, "warmup", rng)
    timed_from = len(runner.outputs)
    times, wall, passes = runner.loop(ops, args.seconds, rng)
    timed_to = len(runner.outputs)

    # layers the workload does not reach are measured on one pass of the
    # workload that does, after a warm-up pass of its own
    phases = {}
    for home in ("verify", "sweep_cli", "divergence"):
        if args.workload == home:
            phases[home] = ("loop", passes)
        else:
            home_ops = workloads.build(home, args.seed, scratch)
            runner.one_pass(home_ops, f"{home}-warmup", rng)
            runner.one_pass(home_ops, home, rng)
            phases[home] = (home, 1)
    for family, n, p in workloads.kl_grid_inputs():
        parent = ordent.make_parent(family)
        for name in ("k2_term", "k3_term", "kl_direct"):
            tracer.begin_op("terms", f"{name}:{family}:n={n}:p={p}")
            getattr(ordent, name)(parent, n, p)

    metrics = spans.per_layer_metrics(tracer, phases)
    tracer.save(OUT / f"trace-{args.workload}.npz")
    tracer.begin_op("check", "")
    failed, unexpected, known = check(runner.outputs, range(timed_from, timed_to))
    _summary(unexpected, known, len(times), failed)
    print(f"traced loop: {len(times) / wall:.6g} ops/s, "
          f"op_p50 {statistics.median(times) * 1e3:.6g} ms over {len(times)} ops")
    return {"correct": not unexpected, "attempted": len(times), "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
