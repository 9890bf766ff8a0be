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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .distributions import BetaLaw, ParentDistribution, beta_fourth_central_moment, beta_mean_var
from .entropy_kl import (
    ConditionViolation,
    _quadrature_terms,
    gaussian_reference,
    k2_term,
    k3_term,
)
from .order_stats import OrderStatSpec, moment_bound_constant, round_rank
from .reports import BoundReport

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


def default_epsilon(p: float) -> float:
    """min(p, 1-p)/2.

    Inside both windows once n >= 18 for p in [0.1, 0.9] and q in [1, 10]
    (the binding corner is small n with p near an edge and large q).
    """
    return min(p, 1.0 - p) / 2.0


@dataclass(frozen=True)
class EpsilonWindow:
    """Half-width of the central event {|U_(np) - p| <= epsilon}.

    The tail-bound mode needs p/(n+1) < epsilon < p.  The log-ratio mode
    (used by the k3 bound, with Holder exponent q) additionally needs
    epsilon > |(q-2)p - q + 1| / (q(n-1) + 2).
    """

    p: float
    n: int
    epsilon: float
    q: float | None = None

    @classmethod
    def default(cls, p: float, n: int, q: float | None = None) -> "EpsilonWindow":
        return cls(p=p, n=n, epsilon=default_epsilon(p), q=q)

    def validate_tail_mode(self) -> None:
        lo = self.p / (self.n + 1.0)
        if not lo < self.epsilon < self.p:
            raise ValueError(
                f"epsilon window violated: need p/(n+1) = {lo:.3g} < epsilon "
                f"< p = {self.p:.3g}, got epsilon = {self.epsilon:.3g}")

    def log_mode_floor(self, q: float) -> float:
        if math.isinf(q):
            return (1.0 - self.p) / (self.n - 1.0)
        return abs((q - 2.0) * self.p - q + 1.0) / (q * (self.n - 1.0) + 2.0)

    def validate_log_mode(self, q: float) -> None:
        self.validate_tail_mode()
        floor = self.log_mode_floor(q)
        if not self.epsilon > floor:
            raise ValueError(
                f"epsilon window violated: need epsilon > "
                f"|(q-2)p-q+1|/(q(n-1)+2) = {floor:.3g}, got {self.epsilon:.3g}")


def _as_window(n: int, p: float, epsilon, q: float | None = None) -> EpsilonWindow:
    if isinstance(epsilon, EpsilonWindow):
        return epsilon
    if epsilon is None:
        return EpsilonWindow.default(p, n, q)
    return EpsilonWindow(p=p, n=n, epsilon=float(epsilon), q=q)


def beta_tail_bound(n: int, p: float, epsilon=None) -> float:
    """Upper bound 2 exp(-2 (n+2) (eps - p/(n+1))^2) on P(|U_(np) - p| > eps)."""
    win = _as_window(n, p, epsilon)
    win.validate_tail_mode()
    return 2.0 * math.exp(-2.0 * (n + 2.0) * (win.epsilon - p / (n + 1.0)) ** 2)


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
    """max over [p-eps, p+eps] of |f'(F^{-1}(t)) / f(F^{-1}(t))^power|.

    ``power`` 3 is the quantile curvature |(F^{-1})''|; 2 is the slope of
    log f(F^{-1}(t)).
    """
    lo = max(p - eps, 1e-12)
    hi = min(p + eps, 1.0 - 1e-12)

    def fn(t):
        x = np.asarray(parent.quantile(t), dtype=float)
        dens = np.exp(np.asarray(parent.log_pdf(x), dtype=float))
        return np.abs(np.asarray(parent.pdf_derivative(x), dtype=float)) / dens**power

    return _grid_max(fn, lo, hi)


def _beta_third_central_moment(law: BetaLaw) -> float:
    a, b = law.alpha, law.beta
    s = a + b
    return 2.0 * (b - a) * a * b / (s**3 * (s + 1.0) * (s + 2.0))


def quantile_mse_bound(
    parent: ParentDistribution,
    n: int,
    p: float,
    epsilon=None,
    r: float = 2.0,
    *,
    tol: float = 1e-10,
) -> BoundReport:
    """Bound E[(F^{-1}(U_(np)) - F^{-1}(p))^2] and verify it by quadrature.

    The analytic side adds four explicit pieces: the off-event tail (closed
    by the order-statistic moment bound with parent moment order r), the
    main variance term Var(U)/f(F^{-1}(p))^2 including the exact mean bias,
    and the two Taylor remainder terms carrying the quantile curvature
    constant.  Vacuous when E|X|^r is infinite.
    """
    win = _as_window(n, p, epsilon)
    win.validate_tail_mode()
    eps = win.epsilon
    k = round_rank(n, p)
    spec = OrderStatSpec(n=n, k=k, p=p)
    law = spec.beta_law

    ref = gaussian_reference(parent, n, p)  # raises if density vanishes at the quantile
    g1 = 1.0 / math.exp(float(parent.log_pdf_at_quantile(p)))
    mu = ref.mu_p

    params = {"parent": parent.spec_string(), "n": n, "p": p, "k": k,
              "epsilon": eps, "r": r}

    parent_moment = parent.abs_moment(r)
    empirical, stderr, quad_message = _mse_quadrature_value(parent, law, ref, tol)
    if math.isinf(parent_moment):
        return BoundReport(
            bound_name="quantile_mse",
            analytic_value=math.inf,
            empirical_value=empirical,
            stderr=stderr,
            params=params,
            message="; ".join(m for m in (
                "parent moment E|X|^r is infinite; bound vacuous", quad_message) if m),
        )

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
    analytic = tail + main + taylor_sq + taylor_cross

    return BoundReport(
        bound_name="quantile_mse",
        analytic_value=analytic,
        empirical_value=empirical,
        stderr=stderr,
        params={**params, "curvature_const": c_pe, "tail_term": tail,
                "main_term": main, "taylor_terms": taylor_sq + taylor_cross},
        message=quad_message,
    )


def _mse_quadrature_value(parent, law, ref, tol) -> tuple[float, float, str]:
    """(value, error, message) of E[(F^{-1}(U) - F^{-1}(p))^2] by quadrature.

    The message is empty unless the integral diverged or did not converge;
    an unconverged value is kept and flagged.
    """
    q = _quadrature_terms(parent, law, ref, tol, ("k2",))["k2"]
    if q.diverged:
        return math.inf, math.inf, f"quadrature diverged: {q.message}"
    return q.value, q.error, "" if q.converged else f"quadrature did not converge: {q.message}"


def holder_constant(q: float) -> float:
    """C_q = e^{1+2/q} (sqrt(2 pi))^{1/q - 1} q^{-1/(2q)}; C_inf = e/sqrt(2 pi)."""
    if q < 1:
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
    epsilon=None,
    *,
    tol: float = 1e-10,
) -> BoundReport:
    """Bound the expected log density ratio and verify it by quadrature.

    Requires the conjugate norm ||f||_{r+1} with 1/q + 1/r = 1; when that
    norm is infinite (the unbounded-density parent for any q < inf member of
    the pair) the bound is vacuous and flagged.
    """
    if q < 1:
        raise ValueError("q must lie in [1, inf]")
    win = _as_window(n, p, epsilon, q)
    win.validate_log_mode(q)
    eps = win.epsilon
    k = round_rank(n, p)
    law = OrderStatSpec(n=n, k=k, p=p).beta_law

    log_fp = float(parent.log_pdf_at_quantile(p))
    if not math.isfinite(log_fp):
        raise ConditionViolation(
            f"{parent.spec_string()} has zero density at its {p:g}-quantile")

    r = math.inf if q == 1.0 else q / (q - 1.0)
    norm_order = 2.0 if math.isinf(q) else r + 1.0
    norm = parent.norm_m(norm_order)

    empirical = k3_term(parent, n, p, tol=tol)
    params = {"parent": parent.spec_string(), "n": n, "p": p, "k": k,
              "epsilon": eps, "q": q, "norm_order": norm_order}

    if math.isinf(norm):
        return BoundReport(
            bound_name="log_density_ratio",
            analytic_value=math.inf,
            empirical_value=empirical,
            stderr=0.0,
            params=params,
            message=f"||f||_{norm_order:g} is infinite; finite-norm condition violated",
        )

    c_eps2 = _density_ratio_max(parent, p, eps, 2)
    mean_u, var_u = beta_mean_var(law)
    first = 2.0 * abs(log_fp) * math.exp(-2.0 * (n + 2.0) * (eps - p / (n + 1.0)) ** 2)
    middle = c_eps2 * math.sqrt(var_u + (mean_u - p) ** 2)
    if math.isinf(q):
        growth = math.sqrt(n)
        norm_power = norm * norm  # (r+1)/r = 2 at r = 1
    else:
        growth = n ** (0.5 * (1.0 - 1.0 / q))
        norm_power = norm ** ((r + 1.0) / r)
    third = (2.0 * holder_constant(q) * norm_power * growth
             * math.exp(-2.0 * (n + 2.0) * (eps - win.log_mode_floor(q)) ** 2))
    analytic = first + middle + third

    return BoundReport(
        bound_name="log_density_ratio",
        analytic_value=analytic,
        empirical_value=empirical,
        stderr=0.0,
        params={**params, "slope_const": c_eps2, "terms": (first, middle, third)},
    )


def stirling_constant_check(alpha: float, beta: float, q: float) -> BoundReport:
    """Check the Beta-normalizer ratio against C_q n^{(1-1/q)/2}.

    empirical = B(alpha*, beta*)^{1/q} / B(alpha, beta) with
    alpha* = q(alpha-1)+1, beta* = q(beta-1)+1 and n = alpha + beta - 1.
    """
    if alpha < 2.0 or beta < 2.0:
        raise ValueError("stirling_constant_check requires alpha >= 2 and beta >= 2")
    if q < 1.0:
        raise ValueError("q must be >= 1")
    a_s = q * (alpha - 1.0) + 1.0
    b_s = q * (beta - 1.0) + 1.0
    n = alpha + beta - 1.0
    log_emp = ((gammaln(a_s) + gammaln(b_s) - gammaln(a_s + b_s)) / q
               - gammaln(alpha) - gammaln(beta) + gammaln(alpha + beta))
    empirical = float(np.exp(log_emp))
    analytic = holder_constant(q) * n ** (0.5 * (1.0 - 1.0 / q))
    return BoundReport(
        bound_name="beta_normalizer_ratio",
        analytic_value=analytic,
        empirical_value=empirical,
        stderr=0.0,
        params={"alpha": alpha, "beta": beta, "q": q, "n": n},
    )


def corollary1_check(
    parent: ParentDistribution,
    p: float,
    r: float,
    n_grid,
    *,
    tol: float = 1e-10,
    slope_slack: float = 0.1,
) -> BoundReport:
    """Test that the normalized quantile MSE term decays at least like 1/sqrt(n).

    Fits the log-log slope of |k2(n)| * sqrt(n) over the top decade of the
    grid; pass means no growth trend (slope <= slope_slack).  A divergent k2
    anywhere on the grid fails outright.
    """
    n_grid = [int(n) for n in n_grid]
    if sorted(n_grid) != n_grid or len(n_grid) < 3:
        raise ValueError("n_grid must be increasing with at least 3 points")
    values = []
    for n in n_grid:
        values.append(k2_term(parent, n, p, tol=tol))
    values = np.asarray(values, dtype=float)
    params = {"parent": parent.spec_string(), "p": p, "r": r,
              "n_grid": list(n_grid), "k2_values": values.tolist()}
    if not np.isfinite(values).all():
        return BoundReport(
            bound_name="quantile_mse_rate",
            analytic_value=slope_slack,
            empirical_value=math.inf,
            stderr=0.0,
            params=params,
            message="k2 diverged on the grid",
        )
    scaled = np.abs(values) * np.sqrt(np.asarray(n_grid, dtype=float))
    top = [i for i, n in enumerate(n_grid) if n >= max(n_grid) / 10.0]
    x = np.log(np.asarray([n_grid[i] for i in top], dtype=float))
    y = np.log(np.maximum(scaled[top], 1e-300))
    slope = float(np.polyfit(x, y, 1)[0]) if len(top) >= 2 else 0.0
    return BoundReport(
        bound_name="quantile_mse_rate",
        analytic_value=slope_slack,
        empirical_value=slope,
        stderr=0.0,
        params={**params, "scaled_values": scaled.tolist()},
    )
