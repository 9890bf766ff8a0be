"""Adaptive panel quadrature of finite integrals.

The integrators here serve expectations against sharply concentrated Beta
densities and KL integrands with integrable endpoint singularities.  Four
features drive the design:

* the initial partition is geometrically refined toward both endpoints (and
  toward caller-supplied breakpoints such as the Beta bulk), so that spikes
  and endpoint singularities are never invisible to the error estimator;
* the engine does not decide whether an integral is finite: callers decide
  that before integrating (see ``distributions.power_moment_finite``).  A
  column that cannot reach its tolerance ends ``converged=False`` with the
  reason, and only a non-finite node value ends it ``diverged=True``;
* the engine is batched: every panel of a refinement level is evaluated in
  one (chunked) integrand call, and the integrand may return stacked columns
  that share the nodes, each column with its own tolerances and its own
  ``QuadResult``;
* it also integrates a batch of independent problems (intervals, or Beta
  laws for ``beta_expectation``) in shared integrand calls of at most
  ``_CHUNK_NODES`` nodes.  Panels carry their problem's index, and every
  (problem, column) pair keeps its own sums, tolerance, panel budget,
  depths and stop reason, summed in the order a lone run keeps them, so
  each result is bit-identical to integrating its problem alone.  One
  problem is a batch of one.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .special import _direct, _direct_constant, beta_log_densities

__all__ = ["QuadResult", "QuadResults", "adaptive_quad", "beta_expectation"]

MAX_DEPTH = 60
_ENDPOINT_LEVELS = 46  # innermost panel width 2^-46 of the span

_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(15)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(31)
# The G31/G15 pair shares its midpoint node (exactly 0 in both rules), so a
# panel costs 45 evaluations.  Column 0 of _RULES is G31, column 1 is G15.
_NODES = np.concatenate([_NODES_HI, _NODES_LO[_NODES_LO != 0.0]])
_RULES = np.zeros((_NODES.size, 2))
_RULES[:31, 0] = _WEIGHTS_HI
_RULES[15, 1] = _WEIGHTS_LO[_NODES_LO == 0.0][0]
_RULES[31:, 1] = _WEIGHTS_LO[_NODES_LO != 0.0]
_PANEL_NEVAL = _NODES.size
# nodes per integrand call: bounds the temporaries of one call to a few MB
_CHUNK_NODES = 8192
# exp(x) rounds to 0 in float64 below about x = log(2^-1075)
_EXP_UNDERFLOW = -745.13
_EPS = float(np.finfo(float).eps)
# beta_expectation's bulk breakpoints: mean + s sd for these s
_BULK_SCALES = np.array([-1.0, 1.0, -2.0, 2.0, -4.0, 4.0, -8.0, 8.0, -16.0, 16.0,
                         -32.0, 32.0, -64.0, 64.0, 0.0])


@dataclass
class QuadResult:
    """Outcome of one adaptive integral, or of one sample mean
    (``distributions.beta_sample_mean``), whose ``error`` is its standard
    error and whose ``neval`` counts its draws."""

    value: float
    error: float
    neval: int
    diverged: bool = False
    converged: bool = True
    message: str = ""

    def check(self) -> float:
        """Return the value, raising if the integral did not converge."""
        if not self.converged:
            raise ArithmeticError(f"integral did not converge: {self.message}")
        return self.value


class QuadResults(tuple):
    """Per-column ``QuadResult``s of one multi-column integration, or the
    per-problem results of one batch.

    ``neval`` counts the shared nodes evaluated (a batch's total);
    ``diverged`` is true when any result diverged and ``converged`` when
    every result converged.  A batch's result also gives ``calls``, the
    integrand calls of the whole pass, and ``levels``, the refinement
    levels it evaluated (the initial partition is level 1).
    """

    def __new__(cls, results, neval: int, calls: int | None = None, levels: int | None = None):
        self = super().__new__(cls, results)
        self.neval = neval
        self.calls = calls
        self.levels = levels
        return self

    @property
    def diverged(self) -> bool:
        return any(r.diverged for r in self)

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self)


def _is_batch(x) -> bool:
    """Whether ``x`` holds one value per problem rather than one value."""
    return isinstance(x, (list, tuple)) or (not isinstance(x, (float, int)) and np.ndim(x) > 0)


def _eval_panels(f, los, his, problems):
    """The G31/G15 pair on every panel of each problem, in chunked calls of ``f``.

    ``los[j]`` and ``his[j]`` are the panels of problem ``problems[j]``.
    The panels of all problems are evaluated in calls of at most
    ``_CHUNK_NODES`` nodes, each call ``f(x, problem)``: ``problem`` is the
    problem index of every node, or one index when all of the call's nodes
    belong to one problem.  The rule pair is applied to each problem's
    panels in the runs of ``step`` panels that a lone evaluation of that
    problem would make, so every value is bit-identical to evaluating the
    problem alone (a BLAS product of a row depends on the rows around it).

    Returns (parts, stacked, calls): per problem, the G31 value and
    |G31 - G15|, each of shape (columns, panels); whether ``f`` returned
    columns; and the number of calls made.  A non-finite node value makes
    its panel's error non-finite.
    """
    step = max(1, _CHUNK_NODES // _PANEL_NEVAL)
    starts = [0, *itertools.accumulate(lo.size for lo in los)]
    total = starts[-1]
    lo, hi = np.concatenate(los), np.concatenate(his)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    # the runs: each problem's panels cut every ``step`` panels
    cuts = [c for s, e in zip(starts, starts[1:]) for c in range(s, e, step)] + [total]
    owner = None
    value = err = carry = None
    stacked = False
    run = 0
    for s in range(0, total, step):
        e = min(s + step, total)
        x = (mid[s:e, None] + half[s:e, None] * _NODES).ravel()
        first = bisect.bisect_right(starts, s) - 1
        if e <= starts[first + 1]:
            problem = problems[first]
        else:
            if owner is None:
                owner = np.repeat(problems, np.diff(starts))
            problem = np.repeat(owner[s:e], _PANEL_NEVAL)
        y = np.asarray(f(x, problem), dtype=float)
        stacked = y.ndim == 2
        if y.ndim not in (1, 2) or y.shape[-1] != x.size:
            raise ValueError(
                f"integrand returned shape {y.shape} for {x.size} nodes; "
                "expected (nodes,) or (columns, nodes)")
        y = y.reshape(-1, e - s, _PANEL_NEVAL)
        if value is None:
            value = np.empty((y.shape[0], total))
            err = np.empty_like(value)
        with np.errstate(invalid="ignore", over="ignore"):
            while cuts[run] < e:
                a, b = cuts[run], cuts[run + 1]
                part = y[:, max(a, s) - s:min(b, e) - s]
                if a < s:  # the run began in the previous call
                    part = np.concatenate([carry, part], axis=1)
                if b > e:  # and it continues in the next one
                    carry = part
                    break
                pair = (part @ _RULES) * half[a:b, None]
                err[:, a:b] = np.abs(pair[..., 0] - pair[..., 1])
                value[:, a:b] = pair[..., 0]
                run += 1
    parts = [(value[:, s:e], err[:, s:e]) for s, e in zip(starts, starts[1:])]
    return parts, stacked, -(-total // step)


def _initial_grid(a, b, breakpoints, levels: int = _ENDPOINT_LEVELS) -> np.ndarray:
    """Sorted distinct edges: a, b, a + span 2^-j and b - span 2^-j for
    j = 1..levels, and the breakpoints inside (a, b); NaN breakpoints and
    those outside are dropped.

    A 2-d ``breakpoints`` holds one row per problem, and ``a`` and ``b``
    one value per row: the result has one row of edges per problem, each
    followed by NaN up to the longest row.
    """
    bps = np.asarray(breakpoints, dtype=float)
    rows = bps.ndim == 2
    bps = bps.reshape(len(bps) if rows else 1, -1)
    a = np.asarray(a, dtype=float).reshape(-1, 1)
    b = np.asarray(b, dtype=float).reshape(-1, 1)
    parts = [a, b]
    if levels:
        steps = np.ldexp(b - a, np.arange(-1, -levels - 1, -1))
        parts += [a + steps, b - steps]
    edges = np.concatenate([*parts, np.where((bps > a) & (bps < b), bps, np.nan)], axis=1)
    edges.sort(axis=1)
    # np.unique's first use would import numpy.ma, ~1 MB resident
    repeat = edges[:, 1:] == edges[:, :-1]
    if np.count_nonzero(repeat):
        edges[:, 1:][repeat] = np.nan
        edges.sort(axis=1)
    return edges if rows else edges[0, :np.count_nonzero(edges == edges)]


# beta_expectation's domain (1e-15, 1 - 1e-15) and its geometric endpoint levels
_TRIM_EDGES = _initial_grid(1e-15, 1.0 - 1e-15, ())


def _padded(rows) -> np.ndarray:
    """The sequences ``rows`` as one 2-d array, each row NaN-padded to the longest."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        return rows
    rows = [np.asarray(r, dtype=float).ravel() for r in rows]
    out = np.empty((len(rows), max(r.size for r in rows)))
    out.fill(np.nan)
    for row, r in zip(out, rows):
        row[:r.size] = r
    return out


def _spread(x, shape: tuple) -> list:
    """``x`` broadcast to a 1-d or 2-d ``shape``, as nested lists; raises
    ``ValueError`` when its shape does not broadcast to ``shape``."""
    if isinstance(x, (int, float)):
        row = [x] * shape[-1]
        return row if len(shape) == 1 else [list(row) for _ in range(shape[0])]
    out = np.zeros(shape, dtype=int) + x
    if out.shape != shape:
        raise ValueError(f"shape {np.shape(x)} does not broadcast to {shape}")
    return out.tolist()


def _panels_to_split(err: np.ndarray, excess: float) -> np.ndarray:
    """Indices of the worst panels whose errors together reach ``excess``."""
    order = np.argsort(-err, kind="stable")
    count = int(np.searchsorted(np.cumsum(err[order]), excess)) + 1
    return order[:count]


def _refine(value, err, lo, depth, tol_abs, tol_rel, max_panels, results, neval):
    """One level of one problem: store a ``QuadResult`` in ``results`` for
    each column that stops here, and return the sorted indices of the panels
    to split, or None when every column has stopped."""
    chosen = {}
    err_sum = {}

    def done(c: int, **kwargs) -> None:
        results[c] = QuadResult(neval=neval, **kwargs)

    for c in [c for c in range(len(results)) if results[c] is None]:
        # only active columns are summed: others may hold inf and -inf panels
        err_sum[c] = float(err[c].sum())
        if not math.isfinite(err_sum[c]):
            x = lo[~np.isfinite(err[c])].min()
            done(c, value=math.nan, error=math.inf, diverged=True, converged=False,
                 message=f"non-finite integrand value at or above x = {x:.6g}")
            continue
        val_sum = float(value[c].sum())
        target = max(tol_abs[c], tol_rel[c] * abs(val_sum))
        if err_sum[c] <= target:
            done(c, value=val_sum, error=err_sum[c])
        elif lo.size >= max_panels:
            done(c, value=val_sum, error=err_sum[c], converged=False,
                 message="panel budget exhausted before reaching tolerance")
        else:
            panels = _panels_to_split(err[c], err_sum[c] - target)
            if depth[panels].max() >= MAX_DEPTH:
                done(c, value=val_sum, error=err_sum[c], converged=False,
                     message="maximum subdivision depth reached before reaching tolerance")
            else:
                chosen[c] = panels
    if not chosen:
        return None
    split = np.zeros(lo.size, dtype=bool)
    for panels in chosen.values():
        split[panels] = True
    idx = np.flatnonzero(split)
    room = max_panels - lo.size
    if idx.size > room:
        # keep the panels carrying the largest share of some column's error
        cols = list(chosen)
        share = np.max(err[np.ix_(cols, idx)]
                       / np.array([err_sum[c] for c in cols])[:, None], axis=0)
        idx = np.sort(idx[np.argsort(-share, kind="stable")[:room]])
    return idx


def adaptive_quad(
    f,
    a,
    b,
    *,
    tol_abs=1e-9,
    tol_rel=0.0,
    breakpoints=(),
    endpoint_levels: int = _ENDPOINT_LEVELS,
    max_panels=8192,
):
    """Globally adaptive Gauss-Legendre integration of ``f`` over (a, b).

    ``f`` takes a 1-d array of nodes and returns either one value per node
    (one column: the result is a ``QuadResult``) or an array of shape
    (columns, nodes) (the result is a ``QuadResults`` with one
    ``QuadResult`` per column; ``tol_abs`` and ``tol_rel`` may then be
    per-column sequences).

    For a batch of problems, ``a`` and ``b`` are equal-length sequences (one
    interval per problem), ``breakpoints`` is empty or holds one sequence per
    problem, and ``f`` is called as ``f(x, problem)``, where ``problem``
    gives each node's problem index.  The result is then a ``QuadResults``
    of the per-problem results, whose ``neval`` is the batch total.  The
    tolerances broadcast against (problems, columns) and ``max_panels``
    against (problems,), as numpy broadcasts: a 1-d tolerance holds one
    value per column, per-problem tolerances have shape (problems, 1), and
    a shape that does not broadcast raises ``ValueError``.  Each (problem,
    column) pair keeps its own sums, tolerance, panel budget, depths and
    stop reason, and its result is bit-identical to integrating that
    problem alone: only the integrand calls are shared.  An infinite
    tolerance accepts a column's first sums, for a column that some
    problems of a batch do not need.

    The initial panels lie between a, b, the breakpoints inside (a, b) and
    ``endpoint_levels`` geometric levels toward each endpoint; a caller that
    passes every edge of its own partition as breakpoints sets it to 0.
    NaN breakpoints are ignored, so a 2-d array of NaN-padded rows may hold
    a batch's breakpoints; the partitions of all problems are built in one
    padded pass.
    Each refinement level evaluates the panels of all problems at once.  A
    column stops when its summed error estimate drops below max(tol_abs,
    tol_rel * |integral|).  It ends unconverged, keeping its sums, when a
    panel it needs split has reached depth ``MAX_DEPTH`` or when
    ``max_panels`` panels exist; it ends diverged, with a NaN value, at a
    non-finite node value.  Otherwise the worst panels that together carry
    a column's excess error are split; the remaining columns keep refining.
    """
    batch = _is_batch(a)
    if not batch:
        # one problem is a batch of one
        one, a, b = f, [a], [b]
        breakpoints = np.asarray(breakpoints, dtype=float).reshape(1, -1)

        def f(x, problem):
            return one(x)
    elif len(breakpoints) == 0:
        breakpoints = [()] * len(a)
    if not len(a) == len(b) == len(breakpoints) > 0:
        raise ValueError("a batch needs one a, b and breakpoint sequence per problem")
    if not all(bi > ai for ai, bi in zip(a, b)):
        raise ValueError("adaptive_quad requires b > a")
    count = len(a)
    grid = _initial_grid(a, b, _padded(breakpoints), endpoint_levels)
    edges = (grid == grid).sum(axis=1).tolist()
    lo = [row[:e - 1] for row, e in zip(grid, edges)]
    hi = [row[1:e] for row, e in zip(grid, edges)]
    depth = [np.zeros(e - 1, dtype=int) for e in edges]
    budget = _spread(max_panels, (count,))
    value, err = [None] * count, [None] * count
    neval = [0] * count
    results = None
    calls = levels = 0
    new = list(zip(range(count), lo, hi))  # (problem, panels to evaluate)
    while new:
        problems, new_lo, new_hi = zip(*new)
        parts, stacked, made = _eval_panels(f, new_lo, new_hi, problems)
        calls += made
        levels += 1
        for i, (c_value, c_err) in zip(problems, parts):
            neval[i] += c_value.shape[1] * _PANEL_NEVAL
            if value[i] is None:
                value[i], err[i] = c_value, c_err
            else:
                value[i] = np.concatenate([value[i], c_value], axis=1)
                err[i] = np.concatenate([err[i], c_err], axis=1)
        if results is None:
            m = value[0].shape[0]
            tol_abs = _spread(tol_abs, (count, m))
            tol_rel = _spread(tol_rel, (count, m))
            results = [[None] * m for _ in range(count)]
        new = []
        for i in range(count):
            if all(r is not None for r in results[i]):
                continue
            idx = _refine(value[i], err[i], lo[i], depth[i], tol_abs[i], tol_rel[i],
                          budget[i], results[i], neval[i])
            if idx is None:
                continue
            mid = 0.5 * (lo[i][idx] + hi[i][idx])
            new.append((i, np.concatenate([lo[i][idx], mid]), np.concatenate([mid, hi[i][idx]])))
            keep = np.ones(lo[i].size, dtype=bool)
            keep[idx] = False
            lo[i] = np.concatenate([lo[i][keep], new[-1][1]])
            hi[i] = np.concatenate([hi[i][keep], new[-1][2]])
            depth[i] = np.concatenate([depth[i][keep], np.tile(depth[i][idx] + 1, 2)])
            value[i], err[i] = value[i][:, keep], err[i][:, keep]

    per_problem = [QuadResults(r, n) if stacked else r[0] for r, n in zip(results, neval)]
    return QuadResults(per_problem, sum(neval), calls, levels) if batch else per_problem[0]


def beta_expectation(
    g,
    alpha,
    beta,
    *,
    tol_abs=1e-12,
    tol_rel=1e-10,
    log_weight: bool = False,
):
    """E[g(U)] for U ~ Beta(alpha, beta) by adaptive quadrature on (0, 1).

    ``g`` returns one value per node or stacked columns, as in
    ``adaptive_quad``; with ``log_weight=True`` it is called as
    ``g(u, logw)``, where ``logw`` is the log Beta density at the nodes (the
    same values that weight them).

    A batch of expectations: ``alpha`` and ``beta`` are equal-length
    sequences, one law per problem, and ``g`` gets each node's problem index
    as its last argument, ``g(u, problem)`` or ``g(u, logw, problem)``.  The
    result is ``adaptive_quad``'s batch result: every expectation is
    integrated as if alone, in shared integrand calls.  The initial edges of
    all laws are one (laws x edges) array, which ``adaptive_quad`` sorts,
    de-duplicates and clips to each law's bounds in one pass, and each
    integrand call evaluates the log weights of all its laws in one pass
    (``special.beta_log_densities``); one law is a batch of one.

    The weight is evaluated in log space, and breakpoints at mean +- 2^j
    standard deviations keep the concentrated bulk resolved at any parameter
    size.  The domain is trimmed to (1e-15, 1 - 1e-15), which omits at most
    ~1e-15 of the Beta mass for alpha, beta >= 1.  The trim also turns a
    divergent expectation into a finite number, so callers decide finiteness
    before integrating (``distributions.power_moment_finite``).  On each side
    of the mode, the initial panels beyond the innermost edge that weighs
    exactly 0 in float64 are never evaluated: the weight is 0 at every node
    there.  Parameters that are not positive and finite raise ``ValueError``.
    """
    batch = _is_batch(alpha)
    if not batch:
        alpha, beta = [alpha], [beta]
    alphas, betas = [float(a) for a in alpha], [float(b) for b in beta]
    if not len(alphas) == len(betas) > 0:
        raise ValueError("a batch needs one alpha and one beta per problem")
    if not all(0.0 < v < math.inf for v in (*alphas, *betas)):
        raise ValueError("beta_expectation requires finite alpha, beta > 0")

    log_density = beta_log_densities(alphas, betas)

    def integrand(u, problem=0):
        # inf * 0 products surface as NaN, which ends the column diverged
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            # Loader's form keeps the log normalizer free of the (a+b) log(a+b)
            # cancellation that biases float64 log-gamma weights by ~1e-10
            # at parameters near 1e5
            logw = log_density(u, problem)
            args = (u, logw, problem) if log_weight else (u, problem)
            y = g(*args) if batch else g(*args[:-1])
            return np.exp(logw) * np.asarray(y, dtype=float)

    # each law's initial edges, in one row: the trimmed domain and its
    # endpoint levels, and the bulk breakpoints mean + s sd clipped to it
    mean_sd = np.array([(a / (a + b), math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0))))
                        for a, b in zip(alphas, betas)])
    edges = np.empty((len(alphas), _TRIM_EDGES.size + _BULK_SCALES.size))
    edges[:, :_TRIM_EDGES.size] = _TRIM_EDGES
    bulk = edges[:, _TRIM_EDGES.size:]
    np.multiply(mean_sd[:, 1:], _BULK_SCALES, out=bulk)
    bulk += mean_sd[:, :1]
    np.clip(bulk, _TRIM_EDGES[0], _TRIM_EDGES[-1], out=bulk)
    lows, highs = _zero_weight_bounds(edges, alphas, betas)
    if not batch:
        lows, highs, edges = lows[0], highs[0], edges[0]
    return adaptive_quad(integrand, lows, highs, tol_abs=tol_abs, tol_rel=tol_rel,
                         breakpoints=edges, endpoint_levels=0)


def _trim_constants(a: float, b: float) -> tuple:
    """Beta(a, b)'s direct form (x, y, c), its thresholds (below, above)
    and its bounds (lower, upper) for ``_zero_weight_bounds``.

    An edge whose direct form is below ``below`` weighs 0, and one up to
    ``above`` is checked against Loader's form.  The direct form is within
    eps (a + b) (2 log(a + b) + 40) of Loader's on the trimmed domain (at
    most 0.83 of it, measured for a + b from 1e2 to 2^53); the slack on
    either side of the underflow is four times that, plus 1.  Edges up to
    ``lower`` and from ``upper`` on lie beyond the mode, on a side where
    the density is monotone: -inf and inf where there is no such side.
    """
    slack = 1.0 + 4.0 * _EPS * (a + b) * (2.0 * math.log(a + b) + 40.0)
    if a > 1.0 and b > 1.0:
        mode = (a - 1.0) / (a + b - 2.0)
    else:
        mode = 1.0 if a > 1.0 else 0.0
    return (a - 1.0, b - 1.0, _direct_constant(a, b), _EXP_UNDERFLOW - slack,
            _EXP_UNDERFLOW + slack, mode if a > 1.0 else -math.inf, mode if b > 1.0 else math.inf)


def _zero_weight_bounds(edges: np.ndarray, alpha, beta) -> tuple:
    """(lows, highs): per law of the sequences ``alpha`` and ``beta``, the
    innermost of its edges ``edges[i]`` (one unsorted row per law, within
    the trimmed domain) that lies beyond the mode and has a float64 weight
    of exactly 0, below the mode and above it; else the domain's own ends.

    The density rises from 0 to the mode when alpha > 1 and falls from the
    mode to 1 when beta > 1, so every node beyond such an edge weighs 0 as
    well: the panels there add exactly 0 to any finite integrand.
    """
    # Loader's form has a fixed cost of ~60 numpy calls against ~10 for the
    # direct form, so the direct form screens the edges of every law in one
    # pass and Loader decides only those near the float64 underflow of exp,
    # in one gathered call
    # each quantity as a column of per-law values
    x, y, c, below, above, lower, upper = np.array(
        [_trim_constants(a, b) for a, b in zip(alpha, beta)]).T[..., None]
    direct = _direct(x, y, c, edges)
    zero = direct < below
    near = direct <= above
    near ^= zero
    if np.count_nonzero(near):
        # Loader's form over the laws with such edges, each edge indexed among them
        laws = near.any(axis=1)
        at = np.flatnonzero(laws).tolist()
        exact = beta_log_densities([alpha[i] for i in at], [beta[i] for i in at])
        with np.errstate(under="ignore"):
            zero[near] = np.exp(exact(edges[near], (laws.cumsum() - 1)[near.nonzero()[0]])) == 0.0
    lows = np.where(zero & (edges <= lower), edges, _TRIM_EDGES[0]).max(axis=1)
    highs = np.where(zero & (edges >= upper), edges, _TRIM_EDGES[-1]).min(axis=1)
    return lows.tolist(), highs.tolist()
