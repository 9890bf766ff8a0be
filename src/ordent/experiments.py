"""Batch experiment drivers: convergence sweeps, rate fits, condition checks.

A sweep evaluates the KL decomposition on an increasing n grid in one
``kl_decompose`` call, whose integrals share one batched quadrature pass,
fits a power-law decay rate on the finite totals over the top half of the
grid (asymptotic claims must not be biased by small-n transients), and
packages everything into a reproducible report, with the pass's
machine-independent cost.  Every point is the decomposition its n gives
alone: the batch shares integrand calls and tolerances, not sums, so every
n gets the same numbers whatever else is on the grid.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .distributions import ParentDistribution
from .entropy_kl import KlDecomposition, kl_decompose
from .special import _check_fraction

__all__ = [
    "RateFit",
    "ExperimentReport",
    "ConditionCheck",
    "fit_rate",
    "rate_sweep",
    "condition_check",
    "parse_n_grid",
    "log_grid",
    "CSV_SCHEMA_VERSION",
    "CSV_COLUMNS",
]

CSV_SCHEMA_VERSION = 1

#: Fixed column set and order of the per-n sweep table.
CSV_COLUMNS = (
    "schema_version", "parent", "p", "n", "k",
    "k1", "k2", "k3", "total_decomposed", "total_direct",
    "quad_error", "diverged",
)


def log_grid(lo: int, hi: int, points: int, multiple_of: int = 1) -> list[int]:
    """Log-spaced integer grid, deduplicated, endpoints included.

    ``multiple_of`` rounds every point to a multiple (minimum that multiple).
    Rate studies at p = 1/2 want even n: odd n centers the rank exactly on
    the median and drops the divergence to its second-order branch, so mixed
    parity zigzags between two decay laws and corrupts slope fits.
    """
    if lo < 1 or hi <= lo or points < 2:
        raise ValueError("need 1 <= lo < hi and points >= 2")
    if multiple_of < 1:
        raise ValueError("multiple_of must be >= 1")
    raw = np.logspace(math.log10(lo), math.log10(hi), points)
    m = multiple_of
    return sorted(set(max(m, int(round(v / m)) * m) for v in raw))


def parse_n_grid(text: str) -> list[int]:
    """Parse ``LO:HI:POINTS`` (linear) or ``LO:HI:POINTSlog`` (log-spaced)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be LO:HI:POINTS[log], got {text!r}")
    lo_s, hi_s, pts_s = parts
    logspaced = pts_s.lower().endswith("log")
    if logspaced:
        pts_s = pts_s[:-3]
    try:
        lo, hi, points = int(lo_s), int(hi_s), int(pts_s)
    except ValueError as exc:
        raise ValueError(f"grid spec must be LO:HI:POINTS[log], got {text!r}") from exc
    if logspaced:
        return log_grid(lo, hi, points)
    if lo < 1 or hi <= lo or points < 2:
        raise ValueError("need 1 <= lo < hi and points >= 2")
    return sorted(set(int(round(v)) for v in np.linspace(lo, hi, points)))


@dataclass
class RateFit:
    """Least-squares slope of log(value) against log(n) over a fit window."""

    n_grid: list[int]
    values: list[float]
    slope: float
    intercept: float
    r_squared: float
    window: list[int]
    excluded: list[tuple[int, str]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n_grid": list(self.n_grid),
            "values": list(self.values),
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "window": list(self.window),
            "excluded": [list(e) for e in self.excluded],
        }


def fit_rate(n_grid, values, window: str = "top_half") -> RateFit:
    """Fit log|value| ~ slope * log(n) + intercept.

    Zero and non-finite values are excluded (with reasons) before the
    window is applied, and negative values are fitted by their magnitude;
    ``window`` is "top_half" or "all".
    """
    n_grid = [int(n) for n in n_grid]
    values = [float(v) for v in values]
    if len(n_grid) != len(values):
        raise ValueError("n_grid and values must have equal length")
    usable = []
    excluded = []
    for n, v in zip(n_grid, values):
        if not math.isfinite(v):
            excluded.append((n, "non-finite value"))
        elif v == 0.0:
            excluded.append((n, "zero value"))
        else:
            usable.append((n, abs(v)))
    if window == "top_half":
        trimmed = usable[len(usable) // 2:]
        usable = trimmed if len(trimmed) >= 2 else usable
    elif window != "all":
        raise ValueError("window must be 'top_half' or 'all'")
    if len(usable) < 2:
        return RateFit(n_grid, values, math.nan, math.nan, math.nan,
                       [n for n, _ in usable], excluded)
    x = np.log([n for n, _ in usable])
    y = np.log([v for _, v in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_sq = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(n_grid, values, float(slope), float(intercept), r_sq,
                   [n for n, _ in usable], excluded)


@dataclass
class ExperimentReport:
    """One sweep: per-n decompositions, the fitted rate, and reproducibility data."""

    experiment_id: str
    parent_spec: str
    p: float
    n_grid: list[int]
    decompositions: list[KlDecomposition]
    rate_fit: RateFit | None
    wall_time: float = 0.0
    #: integrand nodes, integrand calls and refinement levels of the sweep's
    #: quadrature pass; unlike ``wall_time``, they do not depend on the machine
    quadrature_cost: dict = field(default_factory=dict)

    @property
    def any_diverged(self) -> bool:
        return any(d.diverged for d in self.decompositions)

    def to_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "parent": self.parent_spec,
            "p": self.p,
            "n_grid": list(self.n_grid),
            "decompositions": [d.to_dict() for d in self.decompositions],
            "rate_fit": self.rate_fit.to_dict() if self.rate_fit else None,
            "wall_time": self.wall_time,
            "quadrature_cost": dict(self.quadrature_cost),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write_csv(self, fh) -> None:
        """The per-n table, one row per decomposition in ``CSV_COLUMNS`` order;
        floats as their repr, so they read back bit for bit."""
        import csv

        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(
            [CSV_SCHEMA_VERSION, self.parent_spec, self.p, d.n, d.k, repr(d.k1), repr(d.k2),
             repr(d.k3), repr(d.total_decomposed), repr(d.total_direct), repr(d.quad_error),
             int(d.diverged)]
            for d in self.decompositions)


def rate_sweep(
    parent: ParentDistribution,
    p: float,
    n_grid,
) -> ExperimentReport:
    """KL decomposition across an n grid plus a decay-rate fit on the totals.

    One ``kl_decompose`` call covers the grid, so each row equals
    ``kl_decompose(parent, n, p)`` alone.  Divergent points are recorded per
    n and excluded from the fit; when any point diverges the fit carries
    that flag via the report.
    """
    t0 = time.monotonic()
    # kl_decompose checks n, p and that the grid is strictly increasing
    decomps = kl_decompose(parent, list(n_grid), p)
    n_grid = [d.n for d in decomps]
    if n_grid[0] < 10:
        raise ValueError("n_grid minimum must be >= 10")

    fit = fit_rate(n_grid, [d.total_decomposed for d in decomps])
    wall = time.monotonic() - t0
    return ExperimentReport(
        experiment_id=f"rate_sweep:{parent.spec_string()}:p={p:g}",
        parent_spec=parent.spec_string(),
        p=p,
        n_grid=n_grid,
        decompositions=decomps,
        rate_fit=fit,
        wall_time=wall,
        quadrature_cost=decomps.cost,
    )


@dataclass
class ConditionCheck:
    """Verdicts for the three sufficient conditions of the Gaussian KL limit."""

    parent_spec: str
    p: float
    m: float
    r: float
    norm_finite: bool
    density_positive: bool
    derivative_continuous: bool
    moment_finite: bool
    details: dict = field(default_factory=dict)

    @property
    def all_hold(self) -> bool:
        return (self.norm_finite and self.density_positive
                and self.derivative_continuous and self.moment_finite)

    def to_dict(self) -> dict:
        return {
            "parent": self.parent_spec, "p": self.p, "m": self.m, "r": self.r,
            "norm_finite": self.norm_finite,
            "density_positive": self.density_positive,
            "derivative_continuous": self.derivative_continuous,
            "moment_finite": self.moment_finite,
            "all_hold": self.all_hold,
            "details": self.details,
        }


def condition_check(parent: ParentDistribution, p: float, m: float = 2.0,
                    r: float = 2.0) -> ConditionCheck:
    """Evaluate the three sufficient conditions at (p, m, r).

    Condition 1: ||f||_m finite.  Condition 2: positive density at the
    p-quantile (a finite log density) and a numerically continuous
    t -> f'(F^{-1}(t)) near p; a probe whose values leave the float range
    reads not continuous, and ``details["reason"]`` says so.  Condition 3:
    E|X|^r finite.
    """
    _check_fraction(p)
    norm_finite = parent.norm_m_finite(m)
    moment_finite = parent.abs_moment_finite(r)

    def probe_at(t):
        """log f and f'(F^{-1}(t)) = L'(t) f^2 at F^{-1}(t), from one reading
        of the quantile flow."""
        _, log_f, slope = parent._at(min(t, 1.0 - t), t >= 0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            return float(log_f), float(slope * np.exp(2.0 * log_f))

    log_fq, d0 = probe_at(p)
    density_positive = math.isfinite(log_fq)
    try:
        fq = math.exp(log_fq)
    except OverflowError:  # positive, beyond the float range (f2 near 0)
        fq = math.inf

    derivative_continuous = False
    probe = {}
    if density_positive:
        # shrinking symmetric probe of f'(F^(-1)(t)) around t = p: for a
        # continuous composition the gaps scale down with the probe width,
        # while a jump leaves them pinned at the jump size; the widest probe
        # keeps p - h and p + h inside (0, 1)
        h = min(1e-2, min(p, 1.0 - p) / 2.0)
        deltas = [h / 10**j for j in range(4)]
        values = [probe_at(p + side * dlt)[1] for dlt in deltas for side in (-1.0, 1.0)]
        gaps = [max(abs(lo - d0), abs(hi - d0)) for lo, hi in zip(values[::2], values[1::2])]
        scale = abs(d0) + gaps[0]
        finite = all(map(math.isfinite, [d0, *values, *gaps]))
        derivative_continuous = finite and (
            gaps[0] <= 1e-9 * max(scale, 1e-12) or gaps[-1] <= 0.01 * gaps[0]
        )
        probe = {"derivative_at_p": d0, "probe_gaps": gaps}
        if not finite:
            probe["reason"] = "f'(F^-1(t)) leaves the float range near p"

    return ConditionCheck(
        parent_spec=parent.spec_string(),
        p=p, m=m, r=r,
        norm_finite=norm_finite,
        density_positive=density_positive,
        derivative_continuous=derivative_continuous,
        moment_finite=moment_finite,
        details={"density_at_quantile": fq, **probe},
    )
