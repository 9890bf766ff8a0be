"""The traced benchmark as a smoke test: one short ``sweep_cli`` run of
``bench/run.py --trace 1`` on a copy of ``bench/`` and ``src/``.

The traced run wraps every function that ``bench/spans.py`` names and reads
each one's spans back; it also makes one pass of the ``verify`` and
``divergence`` workloads and runs the per-term probes.  A span that never
opened makes the harness itself raise (``spans._View.median_ms``), so every
function that ``spans.py`` names must stay in its module's ``__all__`` and be
called through its module global (``kl_decompose`` under ``rate_sweep``
included).  Working on a copy keeps ``.bench_out/`` out of the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_sweep_cli_run(tmp_path):
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_cli", "--seed", "0",
         "--seconds", "0.05", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-4000:]
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
