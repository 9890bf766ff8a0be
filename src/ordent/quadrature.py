"""Adaptive panel quadrature with first-class divergence reporting.

The integrators here serve expectations against sharply concentrated Beta
densities and KL integrands with endpoint singularities.  Three features
drive the design:

* the initial partition is geometrically refined toward both endpoints (and
  toward caller-supplied breakpoints such as the Beta bulk), so that spikes
  and endpoint blow-ups are never invisible to the error estimator;
* divergence is a result, not an exception: an integrand that overflows at
  interior nodes, or whose running integral passes ``DIVERGENCE_THRESHOLD``,
  yields a ``QuadResult`` with ``diverged=True`` and a signed infinity;
* the engine is batched: every panel of a refinement level is evaluated in
  one (chunked) integrand call, and the integrand may return stacked columns
  that share the nodes, each column with its own tolerances and its own
  ``QuadResult``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .special import beta_log_density

__all__ = ["QuadResult", "QuadResults", "adaptive_quad", "beta_expectation",
           "DIVERGENCE_THRESHOLD"]

DIVERGENCE_THRESHOLD = 1e12
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


@dataclass
class QuadResult:
    """Outcome of one adaptive integration."""

    value: float
    error: float
    neval: int
    diverged: bool = False
    converged: bool = True
    message: str = ""

    def check(self) -> float:
        """Return the value, raising if the integral did not converge."""
        if self.diverged:
            raise ArithmeticError(f"integral diverged: {self.message}")
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

    Returns (value, error, finite, sign, stacked), the first four of shape
    (columns, panels): the G31 value, |G31 - G15|, whether every node value
    was finite, and the sign of a blow-up (-1 only when every infinity in
    the panel is negative; NaN from inf * 0 underflow products counts as a
    positive blow-up).  ``stacked`` tells whether ``f`` returned columns.
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
        finite = np.isfinite(y).all(axis=2)
        sign = np.ones(finite.shape)
        if not finite.all():
            negative = np.isneginf(y).any(axis=2) & ~np.isposinf(y).any(axis=2)
            sign[negative] = -1.0
        with np.errstate(invalid="ignore", over="ignore"):
            pair = (y @ _RULES) * half[s:s + step, None]
            err = np.abs(pair[..., 0] - pair[..., 1])
        parts.append((pair[..., 0], err, finite, sign))
    value, err, finite, sign = (np.concatenate(p, axis=1) for p in zip(*parts))
    return value, err, finite, sign, stacked


def _initial_grid(a: float, b: float, breakpoints) -> np.ndarray:
    """Sorted distinct edges: a, b, a + span 2^-j and b - span 2^-j for
    j = 1.._ENDPOINT_LEVELS, and the breakpoints inside (a, b)."""
    steps = (b - a) * 2.0 ** -np.arange(1, _ENDPOINT_LEVELS + 1)
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
    max_panels: int = 8192,
    stop_on_divergence=False,
):
    """Globally adaptive Gauss-Legendre integration of ``f`` over (a, b).

    ``f`` takes a 1-d array of nodes and returns either one value per node
    (one column: the result is a ``QuadResult``) or an array of shape
    (columns, nodes) (the result is a ``QuadResults`` with one
    ``QuadResult`` per column; ``tol_abs`` and ``tol_rel`` may then be
    per-column sequences).

    Each refinement level evaluates all of its panels at once.  A column
    stops when its summed error estimate drops below max(tol_abs,
    tol_rel * |integral|), when it blows up (a non-finite node value, or a
    running integral beyond ``DIVERGENCE_THRESHOLD``), or when a panel it
    needs split has reached depth ``MAX_DEPTH``; the remaining columns keep
    refining.  Otherwise the worst panels that together carry a column's
    excess error are split, until ``max_panels`` panels exist.

    Columns flagged in ``stop_on_divergence`` (one flag, or one per column)
    stop refining as soon as another column diverges, for callers that
    discard them in that case; they end unconverged with their current sums.
    """
    if not b > a:
        raise ValueError("adaptive_quad requires b > a")
    grid = _initial_grid(a, b, breakpoints)
    lo, hi = grid[:-1], grid[1:]
    depth = np.zeros(lo.size, dtype=int)
    value, err, finite, sign, stacked = _eval_panels(f, lo, hi)
    new_mid = 0.5 * (lo + hi)  # finite and sign describe the panels evaluated last
    neval = lo.size * _PANEL_NEVAL
    m = value.shape[0]
    tol_abs = np.broadcast_to(np.asarray(tol_abs, dtype=float), (m,))
    tol_rel = np.broadcast_to(np.asarray(tol_rel, dtype=float), (m,))
    stop_on_divergence = np.broadcast_to(np.asarray(stop_on_divergence, dtype=bool), (m,))
    results: list[QuadResult | None] = [None] * m

    def done(c: int, **kwargs) -> None:
        results[c] = QuadResult(neval=neval, **kwargs)

    def diverge(c: int, value: float, message: str) -> None:
        done(c, value=value, error=np.inf, diverged=True, converged=False, message=message)

    while True:
        active = [c for c in range(m) if results[c] is None]
        for c in active:
            if not finite[c].all():
                where = np.flatnonzero(~finite[c])
                j = where[np.argmin(new_mid[where])]
                diverge(c, sign[c, j] * np.inf,
                        f"integrand blow-up detected near x = {new_mid[j]:.6g}")
        active = [c for c in active if results[c] is None]
        # a column is summed only while it is active: frozen columns may
        # hold non-finite panel values
        val_sum = {c: float(np.sum(value[c])) for c in active}
        err_sum = {c: float(np.sum(err[c])) for c in active}
        for c in active:
            if abs(val_sum[c]) > DIVERGENCE_THRESHOLD:
                diverge(c, np.copysign(np.inf, val_sum[c]),
                        f"running integral exceeded {DIVERGENCE_THRESHOLD:.0e}")
            elif err_sum[c] <= max(tol_abs[c], tol_rel[c] * abs(val_sum[c])):
                done(c, value=val_sum[c], error=err_sum[c])
        active = [c for c in active if results[c] is None]
        if active and lo.size >= max_panels:
            for c in active:
                done(c, value=val_sum[c], error=err_sum[c], converged=False,
                     message="panel budget exhausted before reaching tolerance")
            active = []
        chosen = {}
        for c in active:
            target = max(tol_abs[c], tol_rel[c] * abs(val_sum[c]))
            panels = _panels_to_split(err[c], err_sum[c] - target)
            if depth[panels].max() >= MAX_DEPTH:
                # a panel that still carries the excess error after 60 splits
                # signals a non-integrable singularity (slow, log-type
                # divergences land here before the running-sum threshold does)
                diverge(c, np.copysign(np.inf, val_sum[c]) if val_sum[c] != 0.0 else np.inf,
                        "maximum subdivision depth reached; divergence declared")
            else:
                chosen[c] = panels
        if any(r is not None and r.diverged for r in results):
            for c in [c for c in chosen if stop_on_divergence[c]]:
                done(c, value=val_sum[c], error=err_sum[c], converged=False,
                     message="stopped after another column diverged")
                del chosen[c]
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
        c_value, c_err, finite, sign, _ = _eval_panels(f, new_lo, new_hi)
        neval += new_lo.size * _PANEL_NEVAL
        new_mid = 0.5 * (new_lo + new_hi)
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
    stop_on_divergence=False,
):
    """E[g(U)] for U ~ Beta(alpha, beta) by adaptive quadrature on (0, 1).

    ``g`` returns one value per node or stacked columns, as in
    ``adaptive_quad``; with ``log_weight=True`` it is called as
    ``g(u, logw)``, where ``logw`` is the log Beta density at the nodes (the
    same values that weight them).  ``stop_on_divergence`` is passed on to
    ``adaptive_quad``.

    The weight is evaluated in log space, and breakpoints at mean +- 2^j
    standard deviations keep the concentrated bulk resolved at any parameter
    size.  The domain is trimmed to (1e-15, 1 - 1e-15); the omitted mass is
    below any tolerance used here for alpha, beta >= 1, and trimming does not
    mask blow-ups, which are detected well before the trim points.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("beta_expectation requires alpha, beta > 0")

    def integrand(u):
        # inf * 0 products surface as nan and are treated as blow-up evidence
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
    return adaptive_quad(
        integrand, eps, 1.0 - eps,
        tol_abs=tol_abs, tol_rel=tol_rel, breakpoints=bps,
        stop_on_divergence=stop_on_divergence,
    )
