"""Spans and counters for the traced run, recorded from outside ordent.

``install`` wraps every public function of each layer module (the names in
its ``__all__``; ``cli_main`` and ``main`` for the cli) and puts the wrapper on
every name in the ``ordent`` package that refers to the original, so calls
through by-name imports (``entropy_kl.beta_expectation``,
``experiments.kl_decompose``, ...) are traced too.  Parent distributions are
wrapped in ``CountingParent``, which counts the array elements passed to
``quantile`` and ``log_pdf_at_quantile`` and times those calls.  ordent's
source is not touched.

A span is (name, start, end, parent span, operation).  Spans live in flat
arrays in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import threading
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("special", "quadrature", "distributions", "order_stats",
          "entropy_kl", "bounds", "experiments", "cli")

QUANTILE = "distributions.parent.quantile"
LOG_PDF = "distributions.parent.log_pdf_at_quantile"


class Tracer:
    """In-memory span and counter store; thread-safe for the sweep's pool."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.ops: list[tuple[str, str]] = []  # (phase, operation key) per op id
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.current_op = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, phase: str, key: str) -> None:
        self.current_op = len(self.ops)
        self.ops.append((phase, key))

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a pool thread's first span hangs under the span the main thread
            # is blocked in (rate_sweep waiting on its workers)
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = -1
        with self._lock:
            sid = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_op.append(self.current_op)
            self.span_end.append(0.0)
            self.span_start.append(perf_counter())
        stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = perf_counter()
        self._stack().pop()

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[(self.current_op, key)] += amount

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result)`` may count or replace the result."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            return after(result) if after else result

        return wrapper

    def save(self, path: Path) -> None:
        keys = sorted({k for _, k in self.counts})
        np.savez(
            path,
            names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            span_start=np.frombuffer(self.span_start),
            span_end=np.frombuffer(self.span_end),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int64),
            span_op=np.frombuffer(self.span_op, dtype=np.int64),
            op_phase=np.array([p for p, _ in self.ops]),
            op_key=np.array([k for _, k in self.ops]),
            count_keys=np.array(keys),
            counts=np.array([[self.counts.get((op, k), 0.0) for k in keys]
                             for op in range(len(self.ops))]).reshape(len(self.ops), len(keys)),
        )


class CountingParent:
    """A parent distribution whose ``quantile`` and ``log_pdf_at_quantile`` are counted."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self._q = tracer.span(QUANTILE, inner.quantile)
        self._lq = tracer.span(LOG_PDF, inner.log_pdf_at_quantile)

    def quantile(self, u):
        self._tracer.count("quantile_points", np.size(u))
        return self._q(u)

    def log_pdf_at_quantile(self, u):
        self._tracer.count("log_pdf_points", np.size(u))
        return self._lq(u)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer, under every name that refers to them."""
    def quad_result(res):
        tracer.count("quad_calls", 1)
        tracer.count("quad_neval", res.neval)
        if res.diverged:
            tracer.count("quad_diverged", 1)
        elif not res.converged:
            tracer.count("quad_unconverged", 1)
        return res

    def draws(x):
        tracer.count("beta_sample_draws", np.size(x))
        return x

    def counting_parent(parent):
        # parse_distribution returns what make_parent built: wrap it once
        return parent if isinstance(parent, CountingParent) else CountingParent(parent, tracer)

    after = {"adaptive_quad": quad_result, "beta_sample": draws,
             "make_parent": counting_parent, "parse_distribution": counting_parent}
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"ordent.{layer}")
        names = getattr(mod, "__all__", ("cli_main", "main"))
        for name in names:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrapped[fn] = tracer.span(f"{layer}.{name}", fn, after.get(name))
    for modname, mod in list(sys.modules.items()):
        if modname == "ordent" or modname.startswith("ordent."):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _union_length(starts, ends) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(zip(starts, ends)):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    return total + (cur_hi - cur_lo if cur_hi is not None else 0.0)


class _View:
    """Spans and counters of the operations of one phase."""

    def __init__(self, tracer: Tracer, phase: str):
        self.op_ids = [i for i, (p, _) in enumerate(tracer.ops) if p == phase]
        if not self.op_ids:
            raise ValueError(f"no traced operations in phase {phase!r}")
        names = np.frombuffer(tracer.span_name, dtype=np.int32)
        ops = np.frombuffer(tracer.span_op, dtype=np.int64)
        sel = np.isin(ops, self.op_ids)
        self._tracer = tracer
        self.index = np.flatnonzero(sel)
        self.name = names[sel]
        self.start = np.frombuffer(tracer.span_start)[sel]
        self.end = np.frombuffer(tracer.span_end)[sel]
        self.op = ops[sel]
        self.parent = np.frombuffer(tracer.span_parent, dtype=np.int64)[sel]

    @property
    def n_ops(self) -> int:
        return len(self.op_ids)

    def mask(self, name: str) -> np.ndarray:
        return self.name == self._tracer.name_id(name)

    def durations(self, name: str) -> np.ndarray:
        m = self.mask(name)
        return self.end[m] - self.start[m]

    def median_ms(self, name: str) -> float:
        d = self.durations(name)
        if d.size == 0:
            raise ValueError(f"no {name} spans")
        return float(np.median(d)) * 1e3

    def per_op(self, counter: str) -> float:
        return sum(self._tracer.counts.get((op, counter), 0.0) for op in self.op_ids) / self.n_ops

    def total(self, counter: str) -> float:
        return sum(self._tracer.counts.get((op, counter), 0.0) for op in self.op_ids)


def _quadrature_self_s(v: _View) -> float:
    """adaptive_quad time minus the parent evaluations made directly under it."""
    aq = v.mask("quadrature.adaptive_quad")
    aq_ids = v.index[aq]
    evals = v.mask(QUANTILE) | v.mask(LOG_PDF)
    under = evals & np.isin(v.parent, aq_ids)
    return float(np.sum(v.end[aq] - v.start[aq]) - np.sum(v.end[under] - v.start[under]))


def _per_sweep(v: _View):
    """(rate_sweep span, summed kl_decompose spans, their union, cli_main span) per op."""
    sweep, decompose, cli = (v.mask(n) for n in
                             ("experiments.rate_sweep", "entropy_kl.kl_decompose", "cli.cli_main"))
    rows = []
    for op in v.op_ids:
        in_op = v.op == op
        d = in_op & decompose
        rows.append((float(np.sum(v.end[in_op & sweep] - v.start[in_op & sweep])),
                     float(np.sum(v.end[d] - v.start[d])),
                     _union_length(v.start[d], v.end[d]),
                     float(np.sum(v.end[in_op & cli] - v.start[in_op & cli]))))
    return rows


def per_layer_metrics(tracer: Tracer, homes: dict[str, tuple[str, int]]) -> dict:
    """Compute the per-layer metrics.

    Phase ``loop`` is the traced workload's timed loop.  ``homes`` maps
    ``verify``, ``sweep_cli`` and ``divergence`` to (phase that ran that
    workload's operations, passes it made): the loop itself when it is the
    traced workload, else one extra pass.  Counts per run are per pass, so
    they do not depend on how many passes fit into the run.
    """
    lv = _View(tracer, "loop")
    vv = _View(tracer, homes["verify"][0])
    sv = _View(tracer, homes["sweep_cli"][0])
    dv = _View(tracer, homes["divergence"][0])
    div_passes = homes["divergence"][1]
    tv = _View(tracer, "terms")
    cold = _View(tracer, "cold").durations("entropy_kl.uniform_order_stat_entropy_exact")
    warm = _View(tracer, "warm").durations("entropy_kl.uniform_order_stat_entropy_exact")
    sweeps = _per_sweep(sv)
    evals_s = float(np.sum(lv.durations(QUANTILE)) + np.sum(lv.durations(LOG_PDF)))

    def ms(value):
        return {"value": value, "unit": "ms"}

    def us(value):
        return {"value": value, "unit": "us"}

    def count(value):
        return {"value": value, "unit": "count"}

    return {
        "special.entropy_exact_cold_ms": ms(float(cold[0]) * 1e3),
        "special.entropy_exact_warm_us": us(float(np.median(warm)) * 1e6),
        "quadrature.calls_per_op": count(lv.per_op("quad_calls")),
        "quadrature.neval_per_op": count(lv.per_op("quad_neval")),
        "quadrature.self_ms_per_op": ms(_quadrature_self_s(lv) * 1e3 / lv.n_ops),
        "quadrature.unconverged_per_run": count(dv.total("quad_unconverged") / div_passes),
        "quadrature.diverged_per_run": count(dv.total("quad_diverged") / div_passes),
        "distributions.quantile_points_per_op": count(lv.per_op("quantile_points")),
        "distributions.log_pdf_points_per_op": count(lv.per_op("log_pdf_points")),
        "distributions.eval_ms_per_op": ms(evals_s * 1e3 / lv.n_ops),
        "distributions.beta_sample_draws_per_op": count(vv.per_op("beta_sample_draws")),
        "distributions.beta_sample_ms_per_op": ms(
            float(np.sum(vv.durations("distributions.beta_sample"))) * 1e3 / vv.n_ops),
        "entropy_kl.kl_decompose_ms": ms(lv.median_ms("entropy_kl.kl_decompose")),
        "entropy_kl.k2_ms": ms(tv.median_ms("entropy_kl.k2_term")),
        "entropy_kl.k3_ms": ms(tv.median_ms("entropy_kl.k3_term")),
        "entropy_kl.direct_ms": ms(tv.median_ms("entropy_kl.kl_direct")),
        "order_stats.verify_moment_bound_ms": ms(vv.median_ms("order_stats.verify_moment_bound")),
        "bounds.quantile_mse_bound_ms": ms(vv.median_ms("bounds.quantile_mse_bound")),
        "bounds.k3_bound_ms": ms(vv.median_ms("bounds.k3_bound")),
        "bounds.corollary1_check_ms": ms(vv.median_ms("bounds.corollary1_check")),
        "bounds.stirling_constant_check_us": us(vv.median_ms("bounds.stirling_constant_check") * 1e3),
        "experiments.rate_sweep_ms": ms(statistics.median(r[0] for r in sweeps) * 1e3),
        "experiments.decompose_busy_ms": ms(statistics.median(r[1] for r in sweeps) * 1e3),
        "experiments.sweep_self_ms": ms(statistics.median(r[0] - r[2] for r in sweeps) * 1e3),
        "cli.self_ms_per_op": ms(sum(r[3] - r[0] for r in sweeps) * 1e3 / len(sweeps)),
    }
