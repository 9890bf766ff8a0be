"""Time one set-up in a fresh interpreter and print the seconds it took.

Set-up is what a run does before its first operation: import ordent, build
the workload's inputs and fill ordent's lazy caches.  ``run.py`` starts
this script several times per run and reports the median as ``setup_s``.

    python3 bench/setup_probe.py WORKLOAD SEED
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import ordent  # noqa: E402
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), BENCH.parent / ".bench_out")
# the extended-precision harmonic and log-factorial caches behind k1
ordent.uniform_order_stat_entropy_exact(100_000, 50_000)
print(repr(time.perf_counter() - T0))
