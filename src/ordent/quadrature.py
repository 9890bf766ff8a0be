"""Adaptive panel quadrature of finite integrals.

The integrators here serve expectations against sharply concentrated Beta
densities and KL integrands with integrable endpoint singularities.  Three
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
  ``QuadResult``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import beta_log_density, beta_log_density_direct

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
    """Per-column ``QuadResult``s of one multi-column integration.

    ``neval`` counts the shared nodes evaluated; ``diverged`` is true when any
    column diverged and ``converged`` when every column converged.
    """

    def __new__(cls, results, neval: int):
        self = super().__new__(cls, results)
        self.neval = neval
        return self

    @property
    def diverged(self) -> bool:
        return any(r.diverged for r in self)

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self)


def _eval_panels(f, lo: np.ndarray, hi: np.ndarray):
    """The G31/G15 pair on every panel (lo[i], hi[i]), in chunked calls of ``f``.

    Returns (value, error, stacked): the G31 value and |G31 - G15|, each of
    shape (columns, panels), and whether ``f`` returned columns.  A
    non-finite node value makes its panel's error non-finite.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    step = max(1, _CHUNK_NODES // _PANEL_NEVAL)
    parts = []
    stacked = False
    for s in range(0, lo.size, step):
        x = (mid[s:s + step, None] + half[s:s + step, None] * _NODES).ravel()
        y = np.asarray(f(x), dtype=float)
        stacked = y.ndim == 2
        if y.ndim not in (1, 2) or y.shape[-1] != x.size:
            raise ValueError(
                f"integrand returned shape {y.shape} for {x.size} nodes; "
                "expected (nodes,) or (columns, nodes)")
        y = y.reshape(-1, x.size // _PANEL_NEVAL, _PANEL_NEVAL)
        with np.errstate(invalid="ignore", over="ignore"):
            pair = (y @ _RULES) * half[s:s + step, None]
            err = np.abs(pair[..., 0] - pair[..., 1])
        parts.append((pair[..., 0], err))
    value, err = (np.concatenate(p, axis=1) for p in zip(*parts))
    return value, err, stacked


def _initial_grid(a: float, b: float, breakpoints, levels: int = _ENDPOINT_LEVELS) -> np.ndarray:
    """Sorted distinct edges: a, b, a + span 2^-j and b - span 2^-j for
    j = 1..levels, and the breakpoints inside (a, b)."""
    steps = (b - a) * 2.0 ** -np.arange(1, levels + 1)
    bps = np.asarray(breakpoints, dtype=float).ravel()
    return np.unique(np.concatenate([[a, b], a + steps, b - steps, bps[(bps > a) & (bps < b)]]))


def _panels_to_split(err: np.ndarray, excess: float) -> np.ndarray:
    """Indices of the worst panels whose errors together reach ``excess``."""
    order = np.argsort(-err, kind="stable")
    count = int(np.searchsorted(np.cumsum(err[order]), excess)) + 1
    return order[:count]


def adaptive_quad(
    f,
    a: float,
    b: float,
    *,
    tol_abs=1e-9,
    tol_rel=0.0,
    breakpoints=(),
    endpoint_levels: int = _ENDPOINT_LEVELS,
    max_panels: int = 8192,
):
    """Globally adaptive Gauss-Legendre integration of ``f`` over (a, b).

    ``f`` takes a 1-d array of nodes and returns either one value per node
    (one column: the result is a ``QuadResult``) or an array of shape
    (columns, nodes) (the result is a ``QuadResults`` with one
    ``QuadResult`` per column; ``tol_abs`` and ``tol_rel`` may then be
    per-column sequences).

    The initial panels lie between a, b, the breakpoints inside (a, b) and
    ``endpoint_levels`` geometric levels toward each endpoint; a caller that
    passes every edge of its own partition as breakpoints sets it to 0.
    Each refinement level evaluates all of its panels at once.  A column
    stops when its summed error estimate drops below max(tol_abs,
    tol_rel * |integral|).  It ends unconverged, keeping its sums, when a
    panel it needs split has reached depth ``MAX_DEPTH`` or when
    ``max_panels`` panels exist; it ends diverged, with a NaN value, at a
    non-finite node value.  Otherwise the worst panels that together carry
    a column's excess error are split; the remaining columns keep refining.
    """
    if not b > a:
        raise ValueError("adaptive_quad requires b > a")
    grid = _initial_grid(a, b, breakpoints, endpoint_levels)
    lo, hi = grid[:-1], grid[1:]
    depth = np.zeros(lo.size, dtype=int)
    value, err, stacked = _eval_panels(f, lo, hi)
    neval = lo.size * _PANEL_NEVAL
    m = value.shape[0]
    tol_abs = np.broadcast_to(np.asarray(tol_abs, dtype=float), (m,))
    tol_rel = np.broadcast_to(np.asarray(tol_rel, dtype=float), (m,))
    results: list[QuadResult | None] = [None] * m

    def done(c: int, **kwargs) -> None:
        results[c] = QuadResult(neval=neval, **kwargs)

    while True:
        chosen = {}
        err_sum = {}
        for c in [c for c in range(m) if results[c] is None]:
            # only active columns are summed: others may hold inf and -inf panels
            err_sum[c] = float(np.sum(err[c]))
            if not math.isfinite(err_sum[c]):
                x = lo[~np.isfinite(err[c])].min()
                done(c, value=math.nan, error=math.inf, diverged=True, converged=False,
                     message=f"non-finite integrand value at or above x = {x:.6g}")
                continue
            val_sum = float(np.sum(value[c]))
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
            break
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
        mid = 0.5 * (lo[idx] + hi[idx])
        new_lo = np.concatenate([lo[idx], mid])
        new_hi = np.concatenate([mid, hi[idx]])
        child_depth = np.tile(depth[idx] + 1, 2)
        c_value, c_err, _ = _eval_panels(f, new_lo, new_hi)
        neval += new_lo.size * _PANEL_NEVAL
        keep = np.ones(lo.size, dtype=bool)
        keep[idx] = False
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        depth = np.concatenate([depth[keep], child_depth])
        value = np.concatenate([value[:, keep], c_value], axis=1)
        err = np.concatenate([err[:, keep], c_err], axis=1)

    if stacked:
        return QuadResults(results, neval)
    return results[0]


def beta_expectation(
    g,
    alpha: float,
    beta: float,
    *,
    tol_abs=1e-12,
    tol_rel=1e-10,
    breakpoints=(),
    log_weight: bool = False,
):
    """E[g(U)] for U ~ Beta(alpha, beta) by adaptive quadrature on (0, 1).

    ``g`` returns one value per node or stacked columns, as in
    ``adaptive_quad``; with ``log_weight=True`` it is called as
    ``g(u, logw)``, where ``logw`` is the log Beta density at the nodes (the
    same values that weight them).

    The weight is evaluated in log space, and breakpoints at mean +- 2^j
    standard deviations keep the concentrated bulk resolved at any parameter
    size.  The domain is trimmed to (1e-15, 1 - 1e-15), which omits at most
    ~1e-15 of the Beta mass for alpha, beta >= 1.  The trim also turns a
    divergent expectation into a finite number, so callers decide finiteness
    before integrating (``distributions.power_moment_finite``).  Of the
    initial panels, those beyond the mode whose inner edge weighs exactly 0
    in float64 are never evaluated: the weight is 0 at every node there.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("beta_expectation requires alpha, beta > 0")

    def integrand(u):
        # inf * 0 products surface as NaN, which ends the column diverged
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            # Loader's form keeps the log normalizer free of the (a+b) log(a+b)
            # cancellation that biases float64 log-gamma weights by ~1e-10
            # at parameters near 1e5
            logw = beta_log_density(alpha, beta, u)
            y = g(u, logw) if log_weight else g(u)
            return np.exp(logw) * np.asarray(y, dtype=float)

    mean = alpha / (alpha + beta)
    sd = np.sqrt(alpha * beta / ((alpha + beta) ** 2 * (alpha + beta + 1.0)))
    bps = list(breakpoints)
    for scale in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
        bps.append(mean - scale * sd)
        bps.append(mean + scale * sd)
    bps.append(mean)
    eps = 1e-15
    grid = _drop_zero_weight_panels(_initial_grid(eps, 1.0 - eps, bps), alpha, beta)
    return adaptive_quad(integrand, grid[0], grid[-1], tol_abs=tol_abs, tol_rel=tol_rel,
                         breakpoints=grid[1:-1], endpoint_levels=0)


def _drop_zero_weight_panels(grid: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """``grid`` without its leading and trailing panels that lie beyond the
    Beta mode and whose inner edge has a float64 weight of exactly 0.

    The density rises from 0 to the mode when alpha > 1 and falls from the
    mode to 1 when beta > 1, so every node of such a panel weighs 0 as well:
    the panel adds exactly 0 to any finite integrand.
    """
    # Loader's form costs ~75 us on the ~100 edges against ~10 us for the
    # direct form, so the direct form sorts the edges first and Loader
    # decides only those within ``slack`` of the float64 underflow of exp.
    # The direct form is within eps (a + b) (2 log(a + b) + 40) of Loader's
    # on the trimmed domain (at most 0.83 of it, measured for a + b from 1e2
    # to 2^53); the slack is four times that, plus 1.
    m = alpha + beta
    slack = 1.0 + 4.0 * np.finfo(float).eps * m * (2.0 * math.log(m) + 40.0)
    direct = beta_log_density_direct(alpha, beta, grid)
    zero = direct < _EXP_UNDERFLOW - slack
    near = ~zero & (direct <= _EXP_UNDERFLOW + slack)
    if near.any():
        with np.errstate(under="ignore"):
            zero[near] = np.exp(beta_log_density(alpha, beta, grid[near])) == 0.0
    if alpha > 1.0 and beta > 1.0:
        mode = (alpha - 1.0) / (alpha + beta - 2.0)
    else:
        mode = 1.0 if alpha > 1.0 else 0.0
    start, stop = 0, grid.size
    if alpha > 1.0:
        start = max(_leading_run(zero & (grid <= mode)) - 1, 0)
    if beta > 1.0:
        stop = grid.size - max(_leading_run((zero & (grid >= mode))[::-1]) - 1, 0)
    return grid[start:stop] if stop - start >= 2 else grid


def _leading_run(flags: np.ndarray) -> int:
    """Number of leading True entries."""
    return flags.size if flags.all() else int(np.argmin(flags))
