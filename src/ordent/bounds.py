"""Analytic bounds on order-statistic behavior, each with an empirical verifier.

Every bound is assembled from explicit finite-n expressions (no asymptotic
placeholders) so that it can be evaluated and checked at any concrete n:

* ``beta_tail_bound``: sub-Gaussian two-sided tail of U_(np);
* ``quantile_mse_bound``: mean-squared error of X_(np) as an estimator of the
  p-quantile, split into a tail part, the main variance part, and Taylor
  remainder parts weighted by the curvature of the quantile flow;
* ``k3_bound``: the log-density-ratio expectation, bounded through a Holder
  split with the universal constant C_q;
* ``stirling_constant_check``: the Beta-normalizer ratio against
  C_q n^{(1-1/q)/2};
* ``corollary1_check``: decay-rate fit of the normalized quantile MSE term.

Each verifier returns one ``BoundReport``.  A bound whose condition fails
(an infinite parent moment or density norm) is vacuous: its analytic side is
+inf and its message gives the reason, joined with the quadrature message of
the term it checks.  ``epsilon``, the half-width of the central event, is a
number or None (``default_epsilon``) and is checked against the bound's own
(n, p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import BetaLaw, ParentDistribution, beta_fourth_central_moment, beta_mean_var
from .entropy_kl import _term_detail, _term_grid
from .experiments import fit_rate
from .order_stats import OrderStatSpec, moment_bound_constant
from .reports import BoundReport
from .special import _check_fraction, log_beta_remainder

__all__ = [
    "EpsilonWindow",
    "default_epsilon",
    "beta_tail_bound",
    "quantile_mse_bound",
    "k3_bound",
    "holder_constant",
    "stirling_constant_check",
    "corollary1_check",
]

#: corollary1_check passes when the fitted log-log slope of |k2| sqrt(n) is
#: at most this: no growth trend beyond fit noise
SLOPE_SLACK = 0.1


def default_epsilon(p: float) -> float:
    """min(p, 1-p)/2.

    Inside both windows once n >= 18 for p in [0.1, 0.9] and q in [1, 10]
    (the binding corner is small n with p near an edge and large q).
    """
    _check_fraction(p)
    return min(p, 1.0 - p) / 2.0


@dataclass(frozen=True)
class EpsilonWindow:
    """Half-width of the central event {|U_(np) - p| <= epsilon}.

    The tail-bound mode needs p/(n+1) < epsilon < p.  The log-ratio mode
    (used by the k3 bound, with Holder exponent q) additionally needs
    epsilon > |(q-2)p - q + 1| / (q(n-1) + 2).  n and p must pass ``OrderStatSpec``.
    """

    p: float
    n: int
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "n", OrderStatSpec.from_fraction(self.n, self.p).n)

    @classmethod
    def default(cls, p: float, n: int) -> "EpsilonWindow":
        return cls(p=p, n=n, epsilon=default_epsilon(p))

    def validate_tail_mode(self) -> None:
        lo = self.p / (self.n + 1.0)
        if not lo < self.epsilon < self.p:
            raise ValueError(
                f"epsilon window violated: need p/(n+1) = {lo:.3g} < epsilon "
                f"< p = {self.p:.3g}, got epsilon = {self.epsilon:.3g}")

    def log_mode_floor(self, q: float) -> float:
        if math.isinf(q):
            # at n = 1 the floor is its limit as n falls to 1: no epsilon clears it
            return (1.0 - self.p) / (self.n - 1.0) if self.n > 1 else math.inf
        return abs((q - 2.0) * self.p - q + 1.0) / (q * (self.n - 1.0) + 2.0)

    def validate_log_mode(self, q: float) -> None:
        self.validate_tail_mode()
        floor = self.log_mode_floor(q)
        if not self.epsilon > floor:
            raise ValueError(
                f"epsilon window violated: need epsilon > "
                f"|(q-2)p-q+1|/(q(n-1)+2) = {floor:.3g}, got {self.epsilon:.3g}")


def _as_window(n: int, p: float, epsilon: float | None) -> EpsilonWindow:
    """The bound's window at (n, p); ``epsilon`` is a number or None."""
    eps = default_epsilon(p) if epsilon is None else float(epsilon)
    return EpsilonWindow(p=p, n=n, epsilon=eps)


def _joined(*messages: str) -> str:
    """The non-empty messages, joined by "; "."""
    return "; ".join(m for m in messages if m)


def beta_tail_bound(n: int, p: float, epsilon: float | None = None) -> float:
    """Upper bound 2 exp(-2 (n+2) (eps - p/(n+1))^2) on P(|U_(np) - p| > eps)."""
    win = _as_window(n, p, epsilon)
    win.validate_tail_mode()
    return 2.0 * math.exp(-2.0 * (win.n + 2.0) * (win.epsilon - p / (win.n + 1.0)) ** 2)


def _grid_max(fn, lo: float, hi: float, rel_tol: float = 1e-6) -> float:
    """Maximize a smooth function by 65 -> 257 -> 1025 point grid refinement."""
    prev = None
    cur = 0.0
    for m in (65, 257, 1025):
        t = np.linspace(lo, hi, m)
        cur = float(np.max(fn(t)))
        if prev is not None and abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    return cur


def _density_ratio_max(parent: ParentDistribution, p: float, eps: float, power: int) -> float:
    """max over t in [p-eps, p+eps] of |f'/f^power| at F^{-1}(t), read along
    the quantile flow as |L'(t)| f^(2-power), L' = ``parent.slope``, with
    L' and log f from one call per grid.

    ``power`` 3 is the quantile curvature |(F^{-1})''| = |L'|/f; 2 is the
    slope |L'| of log f(F^{-1}(t)).
    """
    lo = max(p - eps, 1e-12)
    hi = min(p + eps, 1.0 - 1e-12)

    def fn(t):
        _, log_f, slope = parent._at(np.minimum(t, 1.0 - t), t >= 0.5)
        return np.abs(slope) if power == 2 else np.abs(slope) * np.exp((2 - power) * log_f)

    return _grid_max(fn, lo, hi)


def _beta_third_central_moment(law: BetaLaw) -> float:
    a, b = law.alpha, law.beta
    s = a + b
    return 2.0 * (b - a) * a * b / (s**3 * (s + 1.0) * (s + 2.0))


def quantile_mse_bound(
    parent: ParentDistribution,
    n: int,
    p: float,
    epsilon: float | None = None,
    r: float = 2.0,
) -> BoundReport:
    """Bound E[(F^{-1}(U_(np)) - F^{-1}(p))^2] and verify it by quadrature.

    The analytic side adds four explicit pieces: the off-event tail (closed
    by the order-statistic moment bound with parent moment order r), the
    main variance term Var(U)/f(F^{-1}(p))^2 including the exact mean bias,
    and the two Taylor remainder terms carrying the quantile curvature
    constant.  Vacuous when E|X|^r is infinite.  ``stderr`` is the
    quadrature error of the MSE integral, and ``message`` says when that
    integral, the k2 term's, did not converge.
    """
    win = _as_window(n, p, epsilon)
    win.validate_tail_mode()
    eps = win.epsilon
    # raises ConditionViolation if the density vanishes at the quantile
    spec = OrderStatSpec.from_fraction(n, p)
    (ref,), (res,), _ = _term_grid(("k2",), parent, [spec])
    n, k, law = spec.n, spec.k, spec.beta_law
    g1 = 1.0 / math.exp(ref.log_f_p)
    mu = ref.mu_p

    params = {"parent": parent.spec_string(), "n": spec.n, "p": p, "k": k,
              "epsilon": eps, "r": r}

    # the raw E[(F^{-1}(U) - F^{-1}(p))^2], with the k2 term's flag and message
    _, _, diverged, quad_message = _term_detail("k2", res["k2"], ref)
    empirical, stderr = (math.inf, math.inf) if diverged else (res["k2"].value, res["k2"].error)

    parent_moment = parent.abs_moment(r)
    analytic, reason = math.inf, "parent moment E|X|^r is infinite; bound vacuous"
    if math.isfinite(parent_moment):
        c_pe = _density_ratio_max(parent, p, eps, 3)
        mean_u, var_u = beta_mean_var(law)
        bias = mean_u - p
        mu4 = beta_fourth_central_moment(law)
        mu3 = _beta_third_central_moment(law)
        # E[(U - p)^4] from central moments; exact at any n
        e4 = mu4 + 4.0 * mu3 * bias + 6.0 * var_u * bias**2 + bias**4

        const = moment_bound_constant(n, k, 4.0, r)
        fourth_moment_bound = const.value * parent_moment ** (4.0 / r)
        tail = (4.0 * (math.sqrt(fourth_moment_bound) + mu * mu)
                * math.exp(-(n + 2.0) * (eps - p / (n + 1.0)) ** 2))
        main = g1 * g1 * (var_u + bias * bias)
        taylor_sq = 2.0 * c_pe**2 * (bias**4 + mu4)
        taylor_cross = 8.0**0.75 * c_pe * abs(g1) * e4**0.75
        analytic, reason = tail + main + taylor_sq + taylor_cross, ""
        params.update(curvature_const=c_pe, tail_term=tail, main_term=main,
                      taylor_terms=taylor_sq + taylor_cross)

    return BoundReport(bound_name="quantile_mse", analytic_value=analytic,
                       empirical_value=empirical, stderr=stderr, params=params,
                       message=_joined(reason, quad_message))


def holder_constant(q: float) -> float:
    """C_q = e^{1+2/q} (sqrt(2 pi))^{1/q - 1} q^{-1/(2q)}; C_inf = e/sqrt(2 pi)."""
    if not q >= 1:
        raise ValueError("q must be >= 1")
    if math.isinf(q):
        return math.e / math.sqrt(2.0 * math.pi)
    return (math.e ** (1.0 + 2.0 / q)
            * math.sqrt(2.0 * math.pi) ** (1.0 / q - 1.0)
            * q ** (-1.0 / (2.0 * q)))


def k3_bound(
    parent: ParentDistribution,
    n: int,
    p: float,
    q: float = 2.0,
    epsilon: float | None = None,
) -> BoundReport:
    """Bound the expected log density ratio and verify it by quadrature.

    Requires the conjugate norm ||f||_{r+1} with 1/q + 1/r = 1; when that
    norm is infinite (the unbounded-density parent for any q < inf member of
    the pair) the bound is vacuous and flagged.  ``stderr`` is the quadrature
    error of k3, and ``message`` says when that integral did not converge.
    """
    if not q >= 1:
        raise ValueError("q must lie in [1, inf]")
    win = _as_window(n, p, epsilon)
    win.validate_log_mode(q)
    eps = win.epsilon
    # raises ConditionViolation if the density vanishes at the quantile
    spec = OrderStatSpec.from_fraction(n, p)
    (ref,), (res,), _ = _term_grid(("k3",), parent, [spec])
    n, k, law = spec.n, spec.k, spec.beta_law
    log_fp = ref.log_f_p

    # the conjugate order, 1/q + 1/r = 1: inf at q = 1 and 1 at q = inf
    r = math.inf if q == 1.0 else 1.0 if math.isinf(q) else q / (q - 1.0)
    norm_order = r + 1.0
    norm = parent.norm_m(norm_order)

    empirical, stderr, _, quad_message = _term_detail("k3", res["k3"], ref)
    params = {"parent": parent.spec_string(), "n": spec.n, "p": p, "k": k,
              "epsilon": eps, "q": q, "norm_order": norm_order}

    analytic = math.inf
    reason = f"||f||_{norm_order:g} is infinite; finite-norm condition violated"
    if math.isfinite(norm):
        c_eps2 = _density_ratio_max(parent, p, eps, 2)
        mean_u, var_u = beta_mean_var(law)
        first = 2.0 * abs(log_fp) * math.exp(-2.0 * (n + 2.0) * (eps - p / (n + 1.0)) ** 2)
        middle = c_eps2 * math.sqrt(var_u + (mean_u - p) ** 2)
        growth = n ** (0.5 * (1.0 - 1.0 / q))
        norm_power = norm ** ((r + 1.0) / r) if r < math.inf else norm  # the limit at q = 1
        third = (2.0 * holder_constant(q) * norm_power * growth
                 * math.exp(-2.0 * (n + 2.0) * (eps - win.log_mode_floor(q)) ** 2))
        analytic, reason = first + middle + third, ""
        params.update(slope_const=c_eps2, terms=(first, middle, third))

    return BoundReport(bound_name="log_density_ratio", analytic_value=analytic,
                       empirical_value=empirical, stderr=stderr, params=params,
                       message=_joined(reason, quad_message))


def stirling_constant_check(alpha: float, beta: float, q: float) -> BoundReport:
    """Check the Beta-normalizer ratio against C_q n^{(1-1/q)/2}.

    empirical = B(alpha*, beta*)^{1/q} / B(alpha, beta) with
    alpha* = q(alpha-1)+1, beta* = q(beta-1)+1 and n = alpha + beta - 1.
    The O(n) parts of the two log normalizers cancel exactly (they scale by
    q), so only their Stirling remainders are evaluated.
    """
    if not (alpha >= 2.0 and beta >= 2.0):
        raise ValueError("stirling_constant_check requires alpha >= 2 and beta >= 2")
    if not q >= 1.0:
        raise ValueError("q must be >= 1")
    x, y = alpha - 1.0, beta - 1.0
    n = alpha + beta - 1.0
    log_emp = log_beta_remainder(q * x, q * y) / q - log_beta_remainder(x, y)
    empirical = float(np.exp(log_emp))
    analytic = holder_constant(q) * n ** (0.5 * (1.0 - 1.0 / q))
    return BoundReport(
        bound_name="beta_normalizer_ratio",
        analytic_value=analytic,
        empirical_value=empirical,
        stderr=0.0,
        params={"alpha": alpha, "beta": beta, "q": q, "n": n},
    )


def corollary1_check(parent: ParentDistribution, p: float, r: float, n_grid) -> BoundReport:
    """Test that the normalized quantile MSE term decays at least like 1/sqrt(n).

    Fits the log-log slope of |k2(n)| * sqrt(n) with ``fit_rate`` over the
    top decade of the grid (n >= max(n_grid)/10), which must hold at least
    two distinct grid points; pass means no growth trend (slope <=
    ``SLOPE_SLACK``).  A divergent k2 anywhere on the grid fails outright;
    ``message`` names each n whose k2 did not converge.  ``r`` is recorded in
    ``params`` and not used by the check.
    """
    specs = [OrderStatSpec.from_fraction(n, p) for n in n_grid]
    n_grid = [spec.n for spec in specs]
    if sorted(n_grid) != n_grid or len(n_grid) < 3:
        raise ValueError("n_grid must be increasing with at least 3 points")
    top = [n for n in n_grid if n >= n_grid[-1] / 10.0]
    if len(set(top)) < 2:
        raise ValueError(f"n_grid needs at least 2 distinct points in its top decade "
                         f"n >= {n_grid[-1] / 10.0:g}, got {top}")
    values, unconverged = [], []
    refs, results, _ = _term_grid(("k2",), parent, specs)
    for n, ref, res in zip(n_grid, refs, results):
        value, _, diverged, message = _term_detail("k2", res["k2"], ref)
        values.append(value)
        if message and not diverged:
            unconverged.append(n)
    quad_message = (f"k2 did not converge at n = {', '.join(map(str, unconverged))}"
                    if unconverged else "")
    values = np.asarray(values, dtype=float)
    params = {"parent": parent.spec_string(), "p": p, "r": r,
              "n_grid": list(n_grid), "k2_values": values.tolist()}
    slope, reason = math.inf, "k2 diverged on the grid"
    if np.isfinite(values).all():
        scaled = np.abs(values) * np.sqrt(np.asarray(n_grid, dtype=float))
        slope, reason = fit_rate(top, scaled[-len(top):], window="all").slope, ""
        params["scaled_values"] = scaled.tolist()
    return BoundReport(bound_name="quantile_mse_rate", analytic_value=SLOPE_SLACK,
                       empirical_value=slope, stderr=0.0, params=params,
                       message=_joined(reason, quad_message))
