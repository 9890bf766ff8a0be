"""The argument rule: n and k are whole numbers with 1 <= k <= n, and p lies
strictly inside (0, 1).  ``OrderStatSpec`` states the rule once; every public
entry point that takes n, k or p applies it, so they all accept and reject the
same values with the same messages.  Also the rule for a quadrature ``tol``,
the order rule of the parents' moments and norms, the float range of the
reference Gaussian and of the density at the p-quantile, and the count rule
of the samplers: every draw count is a whole number, as n and k are."""

import math
import re
from typing import Callable, NamedTuple

import mpmath as mp
import numpy as np
import pytest

from ordent.bounds import (
    EpsilonWindow,
    beta_tail_bound,
    corollary1_check,
    default_epsilon,
    k3_bound,
    quantile_mse_bound,
)
from ordent.cli import EXIT_USAGE, cli_main
from ordent.distributions import (F2, BetaLaw, Cauchy, Exponential, Gaussian, Uniform, beta_sample,
                                  beta_sample_mean)
from ordent.entropy_kl import (
    entropy_expansion_linear_coefficient,
    gaussian_reference,
    k1_term,
    k2_term,
    k3_term,
    kl_decompose,
    kl_direct,
    uniform_order_stat_entropy_exact,
    uniform_order_stat_entropy_expansion,
)
from ordent.experiments import condition_check, rate_sweep
from ordent.order_stats import (OrderStatSpec, moment_bound_constant, sample_order_stat,
                                 verify_moment_bound)

GAUSS = Gaussian()
VALID = {"n": 100, "k": 30, "p": 0.3}


class Entry(NamedTuple):
    name: str
    takes: str  # which of n, k and p it takes
    call: Callable  # call(n, k, p): a value whose repr shows every number it returns


def _grid(n):
    return [n, 2 * n, 4 * n]


ENTRIES = [
    Entry("OrderStatSpec", "nk", lambda n, k, p: OrderStatSpec(n, k)),
    Entry("OrderStatSpec.from_fraction", "np", lambda n, k, p: OrderStatSpec.from_fraction(n, p)),
    Entry("uniform_order_stat_entropy_exact", "nk",
          lambda n, k, p: uniform_order_stat_entropy_exact(n, k)),
    Entry("uniform_order_stat_entropy_expansion", "np",
          lambda n, k, p: uniform_order_stat_entropy_expansion(n, p)),
    Entry("entropy_expansion_linear_coefficient", "p",
          lambda n, k, p: entropy_expansion_linear_coefficient(p)),
    Entry("k1_term", "np", lambda n, k, p: k1_term(n, p)),
    Entry("gaussian_reference", "np", lambda n, k, p: gaussian_reference(GAUSS, n, p)),
    Entry("k2_term", "np", lambda n, k, p: k2_term(GAUSS, n, p)),
    Entry("k3_term", "np", lambda n, k, p: k3_term(GAUSS, n, p)),
    Entry("kl_direct", "np", lambda n, k, p: kl_direct(GAUSS, n, p)),
    Entry("kl_decompose", "np", lambda n, k, p: kl_decompose(GAUSS, n, p)),
    Entry("kl_decompose[grid]", "np", lambda n, k, p: list(kl_decompose(GAUSS, _grid(n), p))),
    Entry("rate_sweep", "np",
          lambda n, k, p: [d.to_dict() for d in rate_sweep(GAUSS, p, _grid(n)).decompositions]),
    Entry("moment_bound_constant", "nk", lambda n, k, p: moment_bound_constant(n, k, 2.0, 2.0)),
    Entry("EpsilonWindow", "np", lambda n, k, p: EpsilonWindow(p=p, n=n, epsilon=0.1)),
    Entry("EpsilonWindow.default", "np", lambda n, k, p: EpsilonWindow.default(p, n)),
    Entry("default_epsilon", "p", lambda n, k, p: default_epsilon(p)),
    Entry("beta_tail_bound", "np", lambda n, k, p: beta_tail_bound(n, p)),
    Entry("quantile_mse_bound", "np", lambda n, k, p: quantile_mse_bound(GAUSS, n, p).to_dict()),
    Entry("k3_bound", "np", lambda n, k, p: k3_bound(GAUSS, n, p).to_dict()),
    Entry("corollary1_check", "np",
          lambda n, k, p: corollary1_check(GAUSS, p, 2.0, _grid(n)).to_dict()),
    Entry("condition_check", "p", lambda n, k, p: condition_check(GAUSS, p).to_dict()),
]


def _cases(args: str) -> list:
    """(entry, argument) for each entry and each of ``args`` it takes."""
    return [pytest.param(e, a, id=f"{e.name}-{a}") for e in ENTRIES for a in args if a in e.takes]


def _at(entry: Entry, **given):
    args = {**VALID, **given}
    return entry.call(args["n"], args["k"], args["p"])


@pytest.mark.parametrize("entry,arg", _cases("nk"))
@pytest.mark.parametrize("whole", [float, np.int64], ids=["float", "int64"])
def test_whole_values_are_integers(entry, arg, whole):
    # the repr tells 100 from 100.0 and from np.int64(100): every n and k is stored as an int
    assert repr(_at(entry, **{arg: whole(VALID[arg])})) == repr(_at(entry))


@pytest.mark.parametrize("entry,arg", _cases("nk"))
@pytest.mark.parametrize("bad", [0.5, math.nan, math.inf, -math.inf],
                         ids=["fraction", "nan", "inf", "-inf"])
def test_non_integers_raise(entry, arg, bad):
    value = VALID[arg] + bad if bad == 0.5 else bad
    with pytest.raises(ValueError, match="must be an integer"):
        _at(entry, **{arg: value})


@pytest.mark.parametrize("entry,arg", _cases("n"))
@pytest.mark.parametrize("n", [0, -5])
def test_n_below_one_raises(entry, arg, n):
    # never a ZeroDivisionError, a negative variance or a number
    with pytest.raises(ValueError, match="n must be >= 1"):
        _at(entry, n=n)


@pytest.mark.parametrize("entry,arg", _cases("n"))
@pytest.mark.parametrize("n", [10**400, 2**53 + 2], ids=["1e400", "2**53+2"])
def test_n_beyond_2_53_raises(entry, arg, n):
    # above 2**53 ranks and n + 1.0 are no longer exact; beyond the float
    # range, never an OverflowError
    with pytest.raises(ValueError, match="n is too large"):
        _at(entry, n=n)


def test_cli_rejects_n_beyond_the_float_range(capsys):
    code = cli_main(["kl", "--parent", "gaussian()", "--n", str(10**400), "--p", "0.3"])
    assert code == EXIT_USAGE
    assert "n is too large" in capsys.readouterr().err


@pytest.mark.parametrize("entry,arg", _cases("p"))
@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_p_outside_the_unit_interval_raises(entry, arg, p):
    with pytest.raises(ValueError, match=re.escape("p must lie in (0, 1)")):
        _at(entry, p=p)


@pytest.mark.parametrize("parent", [GAUSS, Cauchy()], ids=["gaussian", "cauchy"])
@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, -math.inf], ids=["0", "-1", "nan", "-inf"])
def test_moment_order_must_be_positive(parent, r):
    # E|X|^-1 diverges at 0 even where every positive moment is finite
    for call in (parent.abs_moment_finite, parent.abs_moment):
        with pytest.raises(ValueError, match=re.escape("abs_moment requires r > 0")):
            call(r)


@pytest.mark.parametrize("parent", [GAUSS, Cauchy()], ids=["gaussian", "cauchy"])
@pytest.mark.parametrize("m", [0.5, 0.0, -1.0, math.nan, -math.inf], ids=["0.5", "0", "-1", "nan", "-inf"])
def test_norm_order_must_be_at_least_one(parent, m):
    # the Cauchy's int f^(1/2) dx diverges, as f^(1/2) ~ 1/(sqrt(pi) |x|)
    for call in (parent.norm_m_finite, parent.norm_m):
        with pytest.raises(ValueError, match=re.escape("norm_m requires m >= 1")):
            call(m)


@pytest.mark.parametrize("m, r", [(0.5, 2.0), (2.0, -1.0), (0.5, -1.0), (math.nan, 2.0), (2.0, math.nan)],
                         ids=["m=0.5", "r=-1", "both", "m=nan", "r=nan"])
def test_condition_check_takes_the_orders_of_the_methods(m, r):
    # the Cauchy's norm at m = 0.5 and moment at r = -1 both diverge: no verdict at such orders
    with pytest.raises(ValueError, match="requires"):
        condition_check(Cauchy(), 0.3, m=m, r=r)


#: (parent, p) where f(F^-1(p)) or v_np = p(1-p)/(n f^2) leaves the float
#: range at n = 100: f2 near 0, where f = e^(1/p) p^2, and scales far from 1
RANGE_CASES = [(F2(), 0.0013), (F2(), 0.001), (F2(), 0.0014), (F2(), 0.002),
               (Gaussian(sigma=1e200), 0.3), (Gaussian(sigma=1e-200), 0.3),
               (Exponential(rate=1e300), 0.3), (Uniform(a=0, b=1e-310), 0.3),
               (Cauchy(scale=1e-320), 0.3)]


@pytest.mark.parametrize("parent, p", RANGE_CASES, ids=lambda v: repr(v))
def test_reference_outside_the_float_range_raises(parent, p):
    # one ValueError naming v_np: never an OverflowError, a ZeroDivisionError
    # or "math domain error"
    for call in (gaussian_reference, k2_term, kl_decompose):
        with pytest.raises(ValueError, match=r"v_np = .* is outside the float range"):
            call(parent, 100, p)


def test_cli_reports_a_reference_outside_the_float_range(capsys):
    code = cli_main(["kl", "--parent", "f2()", "--n", "100", "--p", "0.001"])
    assert code == EXIT_USAGE
    assert "outside the float range" in capsys.readouterr().err


def test_reference_variance_where_n_f_squared_underflows():
    # v_np ~ 1.6e298 is a normal float while n f(F^-1(p))^2 ~ 2e-314 is subnormal
    ref = gaussian_reference(Gaussian(sigma=1e150), 2**53, 1e-16)
    p = mp.mpf(1e-16)
    with mp.workdps(30):
        want = float(p * (1 - p) / (2**53 * mp.exp(2 * mp.mpf(ref.log_f_p))))
    assert abs(ref.v_np - want) <= 1e-12 * want, (ref.v_np, want)


@pytest.mark.parametrize("parent, p", [(F2(), 0.001), (F2(), 0.0014), (Uniform(a=0, b=1e-310), 0.3)],
                         ids=lambda v: repr(v))
def test_condition_check_where_the_density_leaves_the_float_range(parent, p):
    # the density is positive (log f is finite), and f'(F^-1(t)) = L' f^2 overflows:
    # not continuous, with the reason, and no OverflowError
    chk = condition_check(parent, p)
    assert chk.density_positive and not chk.derivative_continuous
    assert "float range" in chk.details["reason"]
    assert chk.details["density_at_quantile"] > 1e300


# (entry, the name of its count, call(count)) for every entry point that draws
LAW, SPEC = BetaLaw(30.0, 71.0), OrderStatSpec(100, 30)
SAMPLERS = [
    ("beta_sample", "count", lambda c: beta_sample(LAW, c, seed=1).tolist()),
    ("beta_sample_mean", "count", lambda c: beta_sample_mean(lambda u: u, LAW, c, seed=1)),
    ("sample_order_stat", "count", lambda c: sample_order_stat(GAUSS, SPEC, c, seed=1).tolist()),
    ("kl_decompose[monte_carlo]", "budget",
     lambda c: kl_decompose(Exponential(), 200, 0.3, method="monte_carlo", budget=c, seed=1).to_dict()),
    ("verify_moment_bound", "mc_count",
     lambda c: verify_moment_bound(GAUSS, SPEC, 2.0, 4.0, mc_count=c, seed=1).to_dict()),
]


@pytest.mark.parametrize("name, arg, call", SAMPLERS, ids=[s[0] for s in SAMPLERS])
@pytest.mark.parametrize("whole", [float, np.int64], ids=["float", "int64"])
def test_whole_counts_are_integers(name, arg, call, whole):
    # 1e3 draws the same 1000 variates as 1000, and reports the count as an int
    assert repr(call(whole(1000))) == repr(call(1000))


@pytest.mark.parametrize("name, arg, call", SAMPLERS, ids=[s[0] for s in SAMPLERS])
@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, -math.inf],
                         ids=["fraction", "nan", "inf", "-inf"])
def test_non_integer_counts_raise(name, arg, call, bad):
    # never a silent int(2.5) = 2 draws, nor a TypeError from range()
    with pytest.raises(ValueError, match=f"{arg} must be an integer"):
        call(bad)
