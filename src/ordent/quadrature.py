"""Adaptive panel quadrature of finite integrals.

The integrators here serve expectations against sharply concentrated Beta
densities and KL integrands with integrable endpoint singularities.  Four
features drive the design:

* the initial partition is the caller's own breakpoints (such as the Beta
  bulk and endpoint levels), so that spikes and endpoint singularities are
  never invisible to the error estimator;
* the engine does not decide whether an integral is finite: callers decide
  that before integrating (see ``distributions.power_moment_finite``).  A
  column that cannot reach its tolerance ends ``converged=False`` with the
  reason, and only a non-finite node value ends it ``diverged=True``;
* the engine is batched: every panel of a refinement level is evaluated in
  one (chunked) integrand call, and the integrand returns stacked columns
  that share the nodes, each column with its own tolerances and its own
  ``QuadResult``;
* every call integrates a batch of independent problems (intervals, or Beta
  laws for ``beta_expectation``) in shared integrand calls of at most
  ``_CHUNK_NODES`` nodes.  Panels carry their problem's index, every
  problem shares the columns' tolerances, and every (problem, column) pair
  keeps its own sums, panel budget, depths and stop reason, summed in the
  order a batch of that problem alone keeps them, so each result is
  bit-identical to integrating its problem alone.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .special import beta_log_densities

__all__ = ["NotConvergedError", "QuadResult", "QuadResults", "adaptive_quad", "beta_expectation"]

MAX_DEPTH = 60
MAX_PANELS = 8192  # the panel budget of each problem
_ENDPOINT_LEVELS = 46  # innermost panel width 2^-46 of the span

# The Gauss-Legendre rules G15 and G31 on [-1, 1], as (nodes, weights) of
# their half x >= 0 in increasing x: numpy's leggauss(15) and leggauss(31)
# to the bit, which are symmetric to the bit, so the other half mirrors them.
# They keep every result as it was; leggauss's G31 weights are up to 2426
# ulp off the exact ones at the end nodes (tests/test_quadrature.py).
_HALF_G15 = (
    [0.0, 0.20119409399743451, 0.3941513470775634, 0.5709721726085388,
     0.7244177313601701, 0.8482065834104272, 0.9372733924007058, 0.9879925180204854],
    [0.2025782419255613, 0.1984314853271116, 0.1861610000155622, 0.16626920581699398,
     0.13957067792615444, 0.10715922046717141, 0.0703660474881084, 0.030753241996117203],
)
_HALF_G31 = (
    [0.0, 0.09955531215234152, 0.19812119933557062, 0.29471806998170164,
     0.38838590160823294, 0.4781937820449025, 0.5632491614071492, 0.6427067229242603,
     0.7157767845868533, 0.781733148416625, 0.8399203201462674, 0.8897600299482711,
     0.9307569978966481, 0.9625039250929497, 0.9846859096651525, 0.997087481819477],
    [0.0997205447934261, 0.09922501122667202, 0.09774333538632848, 0.09529024291231925,
     0.09189011389364123, 0.08757674060847759, 0.08239299176158914, 0.07639038659877635,
     0.06962858323541009, 0.06217478656102821, 0.05410308242491654, 0.04549370752720094,
     0.03643227391238576, 0.027009019184978878, 0.017318620790311608, 0.00747083157925088],
)


def _full_rule(half):
    """The (nodes, weights) of a symmetric rule from those of its half x >= 0."""
    nodes, weights = np.array(half[0]), np.array(half[1])
    return (np.concatenate([-nodes[:0:-1], nodes]),
            np.concatenate([weights[:0:-1], weights]))


_NODES_LO, _WEIGHTS_LO = _full_rule(_HALF_G15)
_NODES_HI, _WEIGHTS_HI = _full_rule(_HALF_G31)
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
# beta_expectation's bulk breakpoints: mean + s sd for these s
_BULK_SCALES = np.array([-1.0, 1.0, -2.0, 2.0, -4.0, 4.0, -8.0, 8.0, -16.0, 16.0,
                         -32.0, 32.0, -64.0, 64.0, 0.0])


class NotConvergedError(ArithmeticError):
    """Raised by ``QuadResult.check`` for an integral that did not converge."""


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
            raise NotConvergedError(f"integral did not converge: {self.message}")
        return self.value


class QuadResults(tuple):
    """The results of one integration: per problem of a batch (each problem
    a ``QuadResults`` of its columns' ``QuadResult``s, as ``adaptive_quad``
    returns them), or per column of one problem.

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


def _per_problem(**named) -> None:
    """Raise ``ValueError`` unless each named argument is a sequence, one
    value per problem."""
    for name, x in named.items():
        if np.ndim(x) == 0:
            raise ValueError(f"{name} is a sequence with one value per problem, not a scalar")


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

    Returns (parts, calls): per problem, the G31 value and |G31 - G15|,
    each of shape (columns, panels), and the number of calls made.  ``f``
    returns an array of shape (columns, nodes); any other shape raises
    ``ValueError``.  A non-finite node value makes its panel's error
    non-finite.
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
        if y.ndim != 2 or y.shape[1] != x.size:
            raise ValueError(f"the integrand returns a 2-d array (columns, nodes); it returned "
                             f"shape {y.shape} for {x.size} nodes")
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
    return parts, -(-total // step)


def _geometric_levels(a, b) -> np.ndarray:
    """One row per problem: a + span 2^-j and b - span 2^-j for
    j = 1.._ENDPOINT_LEVELS."""
    a = np.asarray(a, dtype=float).reshape(-1, 1)
    b = np.asarray(b, dtype=float).reshape(-1, 1)
    steps = np.ldexp(b - a, np.arange(-1, -_ENDPOINT_LEVELS - 1, -1))
    return np.concatenate([a + steps, b - steps], axis=1)


def _initial_grid(a, b, breakpoints: np.ndarray) -> np.ndarray:
    """One row of sorted distinct edges per problem: ``a[i]``, ``b[i]`` and
    the breakpoints of row i inside (a[i], b[i]), NaN-padded to the longest
    row.  NaN breakpoints and those outside are dropped."""
    a = np.asarray(a, dtype=float).reshape(-1, 1)
    b = np.asarray(b, dtype=float).reshape(-1, 1)
    edges = np.concatenate([a, b, np.where((breakpoints > a) & (breakpoints < b), breakpoints,
                                           np.nan)], axis=1)
    edges.sort(axis=1)
    # np.unique's first use would import numpy.ma, ~1 MB resident
    repeat = edges[:, 1:] == edges[:, :-1]
    if np.count_nonzero(repeat):
        edges[:, 1:][repeat] = np.nan
        edges.sort(axis=1)
    return edges


# beta_expectation's domain (1e-15, 1 - 1e-15) and its geometric endpoint levels
_TRIM_EDGES = _initial_grid(1e-15, 1.0 - 1e-15, _geometric_levels(1e-15, 1.0 - 1e-15))
_TRIM_EDGES = _TRIM_EDGES[_TRIM_EDGES == _TRIM_EDGES]  # its one row, without NaN padding


def _panels_to_split(err: np.ndarray, excess: float) -> np.ndarray:
    """Indices of the worst panels whose errors together reach ``excess``."""
    order = np.argsort(-err, kind="stable")
    count = int(np.searchsorted(np.cumsum(err[order]), excess)) + 1
    return order[:count]


def _refine(value, err, lo, depth, tol_abs, tol_rel, results, neval):
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
        elif lo.size >= MAX_PANELS:
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
    room = MAX_PANELS - lo.size
    if idx.size > room:
        # keep the panels carrying the largest share of some column's error
        cols = list(chosen)
        share = np.max(err[np.ix_(cols, idx)]
                       / np.array([err_sum[c] for c in cols])[:, None], axis=0)
        idx = np.sort(idx[np.argsort(-share, kind="stable")[:room]])
    return idx


def adaptive_quad(f, a, b, *, tol_abs, tol_rel, breakpoints):
    """Globally adaptive Gauss-Legendre integration of ``f`` over each
    interval (a[i], b[i]) of a batch of problems.

    ``a`` and ``b`` are equal-length sequences, one interval per problem,
    and ``breakpoints`` is a 2-d array with one NaN-padded row per problem.
    ``f`` is called as ``f(x, problem)`` on a 1-d array of nodes, where
    ``problem`` gives each node's problem index, and returns an array of
    shape (columns, nodes).  ``tol_abs`` and ``tol_rel`` are each one value
    or one value per column, shared by every problem; any other length
    raises ``ValueError``, as do a scalar ``a`` or ``b``, breakpoints that
    are not one row per problem, and an integrand result that is not 2-d.

    The result is a ``QuadResults`` of per-problem ``QuadResults``, each
    with one ``QuadResult`` per column; the outer one's ``neval`` is the
    batch total.  Each (problem, column) pair keeps its own sums, panel
    budget, depths and stop reason, and its result is bit-identical to
    integrating that problem alone: only the integrand calls are shared.

    The initial panels of problem i lie between a[i], b[i] and the
    breakpoints of row i inside (a[i], b[i]), which are the whole
    partition; NaN breakpoints are ignored.  The partitions of all problems
    are built in one padded pass.
    Each refinement level evaluates the panels of all problems at once.  A
    column stops when its summed error estimate drops below max(tol_abs,
    tol_rel * |integral|).  It ends unconverged, keeping its sums, when a
    panel it needs split has reached depth ``MAX_DEPTH`` or when its problem
    has ``MAX_PANELS`` panels; it ends diverged, with a NaN value, at a
    non-finite node value.  Otherwise the worst panels that together carry
    a column's excess error are split; the remaining columns keep refining.
    """
    _per_problem(a=a, b=b)
    if not len(a) == len(b) > 0:
        raise ValueError("a batch needs one a and one b per problem")
    if not all(bi > ai for ai, bi in zip(a, b)):
        raise ValueError("adaptive_quad requires b > a")
    breakpoints = np.asarray(breakpoints, dtype=float)
    if breakpoints.ndim != 2 or len(breakpoints) != len(a):
        raise ValueError("breakpoints is a 2-d array with one row per problem")
    count = len(a)
    grid = _initial_grid(a, b, breakpoints)
    edges = (grid == grid).sum(axis=1).tolist()
    lo = [row[:e - 1] for row, e in zip(grid, edges)]
    hi = [row[1:e] for row, e in zip(grid, edges)]
    depth = [np.zeros(e - 1, dtype=int) for e in edges]
    value, err = [None] * count, [None] * count
    neval = [0] * count
    results = None
    calls = levels = 0
    new = list(zip(range(count), lo, hi))  # (problem, panels to evaluate)
    while new:
        problems, new_lo, new_hi = zip(*new)
        parts, made = _eval_panels(f, new_lo, new_hi, problems)
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
            try:
                tol_abs, tol_rel = (np.broadcast_to(t, m).tolist() for t in (tol_abs, tol_rel))
            except ValueError:
                raise ValueError(f"a tolerance is one value or one per column ({m})") from None
            results = [[None] * m for _ in range(count)]
        new = []
        for i in range(count):
            if all(r is not None for r in results[i]):
                continue
            idx = _refine(value[i], err[i], lo[i], depth[i], tol_abs, tol_rel, results[i],
                          neval[i])
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

    return QuadResults([QuadResults(r, n) for r, n in zip(results, neval)], sum(neval), calls,
                       levels)


def beta_expectation(g, alpha, beta, *, tol_abs, tol_rel):
    """E[g(U)] for each U ~ Beta(alpha[i], beta[i]) of a batch of laws, by
    adaptive quadrature on (0, 1).

    ``alpha`` and ``beta`` are equal-length sequences, one law per problem.
    ``g`` is called as ``g(u, logw, problem)``, where ``logw`` is the log
    Beta density at the nodes (the same values that weight them) and
    ``problem`` each node's problem index, and returns stacked columns, as
    in ``adaptive_quad``.  The result is ``adaptive_quad``'s: every
    expectation is integrated as if alone, in shared integrand calls.  Each
    law's initial partition is the trimmed domain's endpoint levels and its
    bulk breakpoints, passed as ``adaptive_quad``'s breakpoints: one (laws
    x edges) array, which ``adaptive_quad`` sorts, de-duplicates and clips
    to each law's bounds in one pass.  Each integrand call evaluates the
    log weights of all its laws in one pass (``special.beta_log_densities``).

    The weight is evaluated in log space, and breakpoints at mean +- 2^j
    standard deviations keep the concentrated bulk resolved at any parameter
    size.  The domain is trimmed to (1e-15, 1 - 1e-15), which omits at most
    ~1e-15 of the Beta mass for alpha, beta >= 1.  The trim also turns a
    divergent expectation into a finite number, so callers decide finiteness
    before integrating (``distributions.power_moment_finite``).  On each side
    of the mode, the initial panels beyond the innermost edge that weighs
    exactly 0 in float64 are never evaluated: the weight is 0 at every node
    there.  The weights of the edges come from the same log density as the
    nodes', in one call over every law's edges, so a panel is dropped only
    where the integrand's own weight is 0.  A scalar ``alpha`` or ``beta``,
    and parameters that are not positive and finite, raise ``ValueError``.
    """
    _per_problem(alpha=alpha, beta=beta)
    alphas, betas = [float(a) for a in alpha], [float(b) for b in beta]
    if not len(alphas) == len(betas) > 0:
        raise ValueError("a batch needs one alpha and one beta per problem")
    log_density = beta_log_densities(alphas, betas)

    def integrand(u, problem):
        # inf * 0 products surface as NaN, which ends the column diverged
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            # Loader's form keeps the log normalizer free of the (a+b) log(a+b)
            # cancellation that biases float64 log-gamma weights by ~1e-10
            # at parameters near 1e5
            logw = log_density(u, problem)
            return np.exp(logw) * np.asarray(g(u, logw, problem), dtype=float)

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
    lows, highs = _zero_weight_bounds(edges, log_density, alphas, betas)
    return adaptive_quad(integrand, lows, highs, tol_abs=tol_abs, tol_rel=tol_rel,
                         breakpoints=edges)


def _zero_weight_bounds(edges: np.ndarray, log_density, alpha, beta) -> tuple:
    """(lows, highs): per law of the sequences ``alpha`` and ``beta``, the
    innermost of its edges ``edges[i]`` (one unsorted row per law, within
    the trimmed domain) that lies beyond the mode and has a float64 weight
    of exactly 0, below the mode and above it; else the domain's own ends.

    The weights are those of the integrand, ``log_density`` from
    ``special.beta_log_densities`` for these laws, at every edge of every
    law in one call.  The density rises from 0 to the mode when alpha > 1
    and falls from the mode to 1 when beta > 1, so every node beyond such
    an edge weighs 0 as well: the panels there add exactly 0 to any finite
    integrand.
    """
    laws, size = edges.shape
    problem = np.repeat(np.arange(laws), size) if laws > 1 else 0
    with np.errstate(under="ignore"):
        zero = np.exp(log_density(edges.ravel(), problem)).reshape(edges.shape) == 0.0
    lower, upper = np.array([_monotone_sides(a, b) for a, b in zip(alpha, beta)]).T[..., None]
    lows = np.where(zero & (edges <= lower), edges, _TRIM_EDGES[0]).max(axis=1)
    highs = np.where(zero & (edges >= upper), edges, _TRIM_EDGES[-1]).min(axis=1)
    return lows.tolist(), highs.tolist()


def _monotone_sides(a: float, b: float) -> tuple:
    """(lower, upper): edges up to lower and from upper on lie beyond the
    mode of Beta(a, b), on a side where the density is monotone; -inf and
    inf where there is no such side."""
    mode = (a - 1.0) / (a + b - 2.0) if a > 1.0 and b > 1.0 else float(a > 1.0)
    return mode if a > 1.0 else -math.inf, mode if b > 1.0 else math.inf
