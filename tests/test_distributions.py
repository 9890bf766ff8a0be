"""Parent-family contracts: normalization, quantile round-trips, the slope of
log f along the quantile flow, the edges the base class owns, moment/norm
finiteness flags, Beta moments and seeded sampling."""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.special import betaincinv, logit

from ordent.distributions import (
    F1,
    F2,
    BetaLaw,
    Cauchy,
    DistributionSpecError,
    EndpointGrowth,
    Exponential,
    Gaussian,
    ParentDistribution,
    Uniform,
    _beta_chunks,
    beta_fourth_central_moment,
    beta_log_pdf,
    beta_mean_var,
    beta_sample,
    beta_sample_mean,
    make_parent,
    parse_distribution,
    power_moment_finite,
    random_stream,
)
from ordent import special

ALL_PARENTS = [Uniform(), Gaussian(), Exponential(), Cauchy(), F1(), F2()]

# f2's quantile e^{-1/u} underflows below u ~ 1.4e-3 and its density overflows
# there too; test bands stay inside float range
_GRID_LO = {"f2": 2e-3}

# beta_sample_mean merges chunk statistics, so its mean and standard error
# differ from np.mean and np.std of the whole draw by the order of summation
# alone.  For columns whose |mean| is at most about ten standard deviations
# that is a few eps (the scale of the mean is mean |x|, of the error the
# error itself); 64 eps leaves room.
MC_RTOL = 64 * np.finfo(float).eps


def assert_sample_stats(res, col):
    """``res`` is the mean and standard error of ``col`` within ``MC_RTOL``."""
    se = float(np.std(col, ddof=1) / math.sqrt(col.size))
    assert abs(res.value - float(np.mean(col))) <= MC_RTOL * float(np.mean(np.abs(col)))
    assert abs(res.error - se) <= MC_RTOL * se


def central_grid(parent, lo=None, hi=1.0 - 1e-3, m=60):
    lo = _GRID_LO.get(parent.name, 5e-4) if lo is None else lo
    return np.asarray([parent.quantile(u) for u in np.linspace(lo, hi, m)])


class TestDensityNormalization:
    @pytest.mark.parametrize(
        "parent", [Uniform(), Gaussian(), Exponential()], ids=lambda p: p.name
    )
    def test_pdf_integrates_to_one_in_x_space(self, parent):
        lo, hi = parent.support
        lo = lo if math.isfinite(lo) else -40.0
        hi = hi if math.isfinite(hi) else 60.0
        val, err = quad(parent.pdf, lo, hi, limit=500,
                        points=[parent.quantile(t) for t in (0.1, 0.5, 0.9)])
        assert abs(val - 1.0) <= 1e-9

    @pytest.mark.parametrize("parent", ALL_PARENTS, ids=lambda p: p.name)
    def test_interval_mass_matches_cdf(self, parent):
        # int_a^b pdf dx must equal F(b) - F(a) on central intervals; this
        # pins normalization against the closed-form cdf even where the full
        # support cannot be covered in float (f1's tail, f2's origin)
        for u_lo, u_hi in [(0.1, 0.6), (0.3, 0.9), (0.05, 0.95)]:
            a = float(parent.quantile(_GRID_LO.get(parent.name, 0.0) + u_lo))
            b = float(parent.quantile(u_hi))
            val, err = quad(parent.pdf, a, b, limit=400)
            oracle = parent.cdf(b) - parent.cdf(a)
            assert abs(val - oracle) <= 1e-9


class TestQuantileCdfRoundTrip:
    @pytest.mark.parametrize("parent", ALL_PARENTS, ids=lambda p: p.name)
    def test_round_trip_central_band(self, parent):
        xs = central_grid(parent)
        back = np.asarray([parent.quantile(parent.cdf(x)) for x in xs])
        assert np.max(np.abs(back - xs) / np.maximum(1.0, np.abs(xs))) <= 1e-9

    @pytest.mark.parametrize("parent", ALL_PARENTS, ids=lambda p: p.name)
    def test_log_pdf_matches_pdf(self, parent):
        xs = central_grid(parent)
        dens = np.asarray([parent.pdf(x) for x in xs])
        logd = np.asarray([parent.log_pdf(x) for x in xs])
        assert np.max(np.abs(logd - np.log(dens))) <= 1e-12

    @pytest.mark.parametrize("parent", ALL_PARENTS, ids=lambda p: p.name)
    def test_log_pdf_at_quantile_consistent(self, parent):
        us = np.linspace(_GRID_LO.get(parent.name, 1e-3), 1 - 1e-3, 41)
        direct = np.asarray([parent.log_pdf(parent.quantile(u)) for u in us])
        composed = np.asarray([parent.log_pdf_at_quantile(u) for u in us])
        assert np.max(np.abs(direct - composed)) <= 1e-9

    def test_infinite_quantiles_are_exact(self):
        # u = 0 and 1 are taken as given: an unbounded support's quantile
        # there is infinite, not a finite number at a clamped u
        g, c = Gaussian(), Cauchy()
        assert (g.quantile(0.0), g.quantile(1.0)) == (-math.inf, math.inf)
        assert (c.quantile(0.0), c.quantile(1.0)) == (-math.inf, math.inf)
        assert np.array_equal(g.quantile(np.array([0.0, 0.5, 1.0])), [-math.inf, 0.0, math.inf])
        with pytest.raises(ValueError):
            g.quantile(1.5)

    @pytest.mark.parametrize("u", [math.nan, [0.3, math.nan]], ids=["scalar", "array"])
    def test_nan_argument_raises(self, u):
        # NaN is outside [0, 1], not one of its ends
        with pytest.raises(ValueError):
            Gaussian().quantile(u)

    def test_cauchy_upper_tail_from_tail_mass(self):
        # sin(pi u) loses digits above the median; 1 - u is exact there
        c = Cauchy()
        for j in (20, 33, 43):
            u = 1.0 - 2.0**-j
            with mp.workdps(40):
                want = mp.log(mp.sin(mp.pi * mp.mpf(u)) ** 2 / mp.pi)
            assert abs(c.log_pdf_at_quantile(u) - float(want)) <= 1e-14, j
            assert c.quantile(u) == -c.quantile(2.0**-j)

    def test_cauchy_quantile_near_the_median(self):
        # F^{-1}(s) = -cot(pi s) against 40-digit mpmath over (0, 1/2], the
        # switch at s = 1/4 included: rounding pi s against the zero of
        # cot(pi / 2) once cost up to 62% of the quantile above s = 0.2, and
        # the median was 6e-17 and its slope 4e-16
        c = Cauchy()
        assert c.quantile(0.5) == 0.0 and c.slope(0.5, False) == 0.0 == c.slope(0.5, True)
        s = np.concatenate([np.linspace(0.0, 0.5, 1001)[1:-1],
                            [1e-300, 1e-9, 0.2, np.nextafter(0.25, 0.0), 0.25, 0.3,
                             np.nextafter(0.5, 0.0)]])
        x, slope = c.tail(s, False)[0], c.slope(s, False)
        with mp.workdps(40):
            for si, xi, li in zip(s, x, slope):
                cot = mp.cot(mp.pi * mp.mpf(si))
                assert abs(xi + cot) <= 4e-16 * abs(cot), si
                assert abs(li - 2 * mp.pi * cot) <= 4e-16 * abs(2 * mp.pi * cot), si


def _mp_tail(parent, s, upper):
    """(x, log f(x)) at tail mass s in 40-digit mpmath, for the default
    parameters of each family."""
    with mp.workdps(40):
        s = mp.mpf(s)
        if parent.name == "uniform":
            x = 1 - s if upper else s
            return x, mp.mpf(0)
        if parent.name == "gaussian":
            # Phi^-1(s) <= 0 by the secant rule on log Phi, which erfc keeps
            # exact in the far tail
            z = mp.findroot(lambda t: mp.log(mp.ncdf(t)) - mp.log(s), -mp.sqrt(-2 * mp.log(s)))
            x = -z if upper else z
            return x, -x**2 / 2 - mp.log(2 * mp.pi) / 2
        if parent.name == "exponential":
            x = -mp.log(s) if upper else -mp.log1p(-s)
            return x, -x
        if parent.name == "cauchy":
            x = mp.cot(mp.pi * s) * (1 if upper else -1)
            return x, -mp.log(mp.pi * (1 + x**2))
        if parent.name == "f1":
            x = mp.exp((s if upper else 1 - s) ** mp.mpf(-0.5))
            return x, mp.log(2) - mp.log(x) - 3 * mp.log(mp.log(x))
        x = mp.exp(-1 / (1 - s if upper else s))  # f2
        return x, -mp.log(x) - 2 * mp.log(-mp.log(x))


def _agrees(got: float, want) -> bool:
    """``got`` within a few ulp of the float of ``want``, which overflows to
    +-inf or underflows to 0 with it."""
    w = float(want)
    if math.isinf(w):
        return got == w
    return abs(got - w) <= 1e-14 * abs(w) + 1e-16


class TestTail:
    """``tail(s, upper)``: the point and its log density at tail mass s."""

    @pytest.mark.parametrize("parent", ALL_PARENTS, ids=lambda p: p.name)
    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    @pytest.mark.parametrize("j", [1, 2, 10, 30, 52, 200, 1022])
    def test_against_mpmath(self, parent, upper, j):
        s = 2.0**-j
        x, log_f = parent.tail(s, upper)
        want_x, want_log_f = _mp_tail(parent, s, upper)
        assert _agrees(x, want_x), (x, want_x)
        # log f stays finite where x leaves the float range (f1's upper tail)
        assert math.isfinite(log_f) and _agrees(log_f, want_log_f), (log_f, want_log_f)

    @pytest.mark.parametrize("parent", ALL_PARENTS, ids=lambda p: p.name)
    @pytest.mark.parametrize("s", [0.6, -1.0, math.nan, [0.25, math.nan]],
                             ids=["0.6", "-1", "nan", "array-nan"])
    def test_tail_mass_outside_raises(self, parent, s):
        # slope shares tail's check
        for method in (parent.tail, parent.slope):
            with pytest.raises(ValueError, match="tail mass"):
                method(s, False)

    #: (x, log f, L') at s = 0: the limits at the lower end, then the upper
    LIMITS = {
        "uniform": ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        "gaussian": ((-math.inf, -math.inf, math.inf), (math.inf, -math.inf, -math.inf)),
        "exponential": ((0.0, 0.0, -1.0), (math.inf, -math.inf, -math.inf)),
        "cauchy": ((-math.inf, -math.inf, math.inf), (math.inf, -math.inf, -math.inf)),
        "f1": ((math.e, math.log(2.0) - 1.0, -2.0), (math.inf, -math.inf, -math.inf)),
        "f2": ((0.0, math.inf, -math.inf), (1.0 / math.e, 1.0, 1.0)),
    }

    @pytest.mark.parametrize("parent", ALL_PARENTS, ids=lambda p: p.name)
    def test_tail_mass_zero_is_the_limit(self, parent):
        # s = 0 gives the support's ends and the limits of log f and L',
        # without a warning (the suite makes every warning an error)
        for upper, limits in zip((False, True), self.LIMITS[parent.name]):
            x, log_f = parent.tail(0.0, upper)
            assert (x, log_f, parent.slope(0.0, upper)) == limits, (parent.name, upper)
            assert x == parent.support[upper]
        x, log_f = parent.tail(np.zeros(2), np.array([False, True]))
        assert np.array_equal(x, parent.support)

    def test_mixed_sides_match_each_side_alone(self):
        # tail and slope read one formula call, for both sides at once
        s = np.array([0.5, 1e-300, 0.25, 2.0**-40])
        upper = np.array([True, False, True, True])
        for parent in ALL_PARENTS:
            x, log_f = parent.tail(s, upper)
            slope = parent.slope(s, upper)
            for i in range(s.size):
                assert (x[i], log_f[i]) == parent.tail(s[i], bool(upper[i])), parent.name
                assert slope[i] == parent.slope(s[i], bool(upper[i])), parent.name
        for method in (Gaussian().tail, Gaussian().slope):
            with pytest.raises(ValueError, match="shape"):
                method(s, upper[:2])

    @pytest.mark.parametrize("parent", ALL_PARENTS, ids=lambda p: p.name)
    def test_one_formula_call_per_view_on_mixed_sides(self, parent, monkeypatch):
        calls = []

        def formula(self, s, upper, _real=type(parent)._tail):
            calls.append(np.shape(s))
            return _real(self, s, upper)

        monkeypatch.setattr(type(parent), "_tail", formula)
        s, upper = np.array([0.5, 1e-300, 0.25, 2.0**-40]), np.array([True, False, True, False])
        u = np.array([0.1, 0.5, 0.9, 2.0**-40])
        views = {"tail": lambda: parent.tail(s, upper), "slope": lambda: parent.slope(s, upper),
                 "quantile": lambda: parent.quantile(u),
                 "log_pdf_at_quantile": lambda: parent.log_pdf_at_quantile(u)}
        for name, view in views.items():
            calls.clear()
            view()
            assert calls == [(4,)], name


class TestFamiliesAreFormulas:
    """``ParentDistribution`` owns the arguments, the support and the ends."""

    PUBLIC = ("pdf", "log_pdf", "cdf", "tail", "slope", "quantile",
              "log_pdf_at_quantile", "abs_moment", "norm_m")
    # (outside below the support, outside above it) for each x-space method
    EDGES = {"pdf": (0.0, 0.0), "log_pdf": (-math.inf, -math.inf), "cdf": (0.0, 1.0)}

    def test_no_family_overrides_a_public_method(self):
        for parent in ALL_PARENTS:
            for name in self.PUBLIC:
                assert getattr(type(parent), name) is getattr(ParentDistribution, name), (parent, name)

    @pytest.mark.parametrize("parent", ALL_PARENTS, ids=lambda p: p.name)
    @pytest.mark.parametrize("u", [math.nan, 1.5, -0.2, [0.3, math.nan], [0.3, 1.5], [-0.2, 0.3]],
                             ids=["nan", "1.5", "-0.2", "array-nan", "array-1.5", "array--0.2"])
    def test_log_pdf_at_quantile_checks_its_range(self, parent, u):
        with pytest.raises(ValueError):
            parent.log_pdf_at_quantile(u)

    @pytest.mark.parametrize("parent", ALL_PARENTS, ids=lambda p: p.name)
    def test_log_pdf_at_quantile_ends_are_exact(self, parent):
        # u = 0 and u = 1 read tail at s = 0, as quantile does: the limits
        for u, upper in ((0.0, False), (1.0, True)):
            assert parent.log_pdf_at_quantile(u) == parent.tail(0.0, upper)[1]
            assert parent.quantile(u) == parent.tail(0.0, upper)[0] == parent.support[upper]

    @pytest.mark.parametrize("parent", ALL_PARENTS, ids=lambda p: p.name)
    def test_nan_and_infinite_points(self, parent):
        x = float(parent.quantile(0.5))
        for name, (below, above) in self.EDGES.items():
            f = getattr(parent, name)
            assert math.isnan(f(math.nan)), name
            assert (f(-math.inf), f(math.inf)) == (below, above), name
            got = f(np.array([-math.inf, math.nan, x, math.inf]))
            assert got[0] == below and math.isnan(got[1]) and got[3] == above, name
            assert got[2] == f(x), name

    def test_log_pdf_does_not_underflow(self):
        # log(pdf) is -inf at both points; mpmath: -log(pi (1 + 1e400))
        assert Exponential().log_pdf(800.0) == -800.0
        assert abs(Cauchy().log_pdf(1e200) + 922.17876708346767372) <= 1e-15 * 922.2


def _mp_formulas(parent):
    """(pdf, log_pdf, cdf) in mpmath, for the families whose support reaches
    huge |x|: gaussian, exponential, Cauchy and f1."""
    if isinstance(parent, Gaussian):
        s = mp.mpf(parent.sigma)
        z = lambda x: (x - mp.mpf(parent.mu)) / s  # noqa: E731
        pdf = lambda x: mp.npdf(z(x)) / s  # noqa: E731
        # mpmath's ncdf fails far out; below z = -40 the Mills ratio phi(z)/|z|
        # is within 1e-3 of the cdf, which underflows there anyway
        return (pdf, lambda x: -z(x) ** 2 / 2 - mp.log(s * mp.sqrt(2 * mp.pi)),
                lambda x: mp.ncdf(z(x)) if z(x) > -40 else mp.npdf(z(x)) / -z(x))
    if isinstance(parent, Exponential):
        r = mp.mpf(parent.rate)
        return (lambda x: r * mp.exp(-r * x), lambda x: mp.log(r) - r * x,
                lambda x: -mp.expm1(-r * x))
    if isinstance(parent, Cauchy):
        s = mp.mpf(parent.scale)
        z = lambda x: (x - mp.mpf(parent.loc)) / s  # noqa: E731
        return (lambda x: 1 / (mp.pi * s * (1 + z(x) ** 2)),
                lambda x: -mp.log(mp.pi * s * (1 + z(x) ** 2)),
                lambda x: mp.mpf(1) / 2 + mp.atan(z(x)) / mp.pi)
    assert isinstance(parent, F1), parent
    return (lambda x: 2 / (x * mp.log(x) ** 3),
            lambda x: mp.log(2) - mp.log(x) - 3 * mp.log(mp.log(x)),
            lambda x: 1 - 1 / mp.log(x) ** 2)


class TestHugeArguments:
    """x-space methods at |x| where the formulas overflow: the limits, no warning."""

    PARENTS = [Uniform(), Uniform(0.0, 1e-10), Gaussian(), Gaussian(sigma=1e-10),
               Exponential(), Exponential(rate=1e10), Cauchy(), Cauchy(scale=1e-10), F1(), F2()]
    METHODS = ("pdf", "log_pdf", "cdf")
    EDGES = TestFamiliesAreFormulas.EDGES

    @pytest.mark.parametrize("parent", PARENTS, ids=repr)
    @pytest.mark.parametrize("x", [1e100, -1e100, 1e200, -1e200, 1e300, -1e300])
    def test_against_mpmath(self, parent, x):
        # 1e100 lies where z^2 is finite but pdf = exp(log pdf) is far from 1
        lo, hi = parent.support
        with mp.workdps(50):
            for i, name in enumerate(self.METHODS):
                got = getattr(parent, name)(x)
                if lo < x < hi:
                    want = float(_mp_formulas(parent)[i](mp.mpf(x)))
                else:
                    want = self.EDGES[name][0 if x <= lo else 1]
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (name, got, want)

    @pytest.mark.parametrize("parent", PARENTS, ids=repr)
    def test_arrays_match_scalars(self, parent):
        xs = np.array([-1e300, -1e200, -1e100, 0.5, 1e100, 1e200, 1e300])
        for name in self.METHODS:
            f = getattr(parent, name)
            np.testing.assert_array_equal(f(xs), [f(float(x)) for x in xs])


@pytest.mark.parametrize("parent, method, x", [
    (Cauchy(), "pdf", 1e155), (Cauchy(), "pdf", -1e155), (Cauchy(scale=1e-10), "pdf", 1e150)],
    ids=str)
def test_subnormal_values_underflow_gradually(parent, method, x):
    # the true values are subnormal, not 0: within a few subnormal spacings of mpmath
    with mp.workdps(50):
        want = float(_mp_formulas(parent)[TestHugeArguments.METHODS.index(method)](mp.mpf(x)))
    assert 0.0 < abs(want) < np.finfo(float).tiny
    assert abs(getattr(parent, method)(x) - want) <= 2 * math.ulp(0.0)


def _mp_log_f_along_the_flow(name, u):
    """L(u) = log f(F^{-1}(u)) in mpmath, for the default parameters of each family."""
    if name == "uniform":
        return 0 * u
    if name == "gaussian":
        z = mp.sqrt(2) * mp.erfinv(2 * u - 1)
        return -z**2 / 2 - mp.log(2 * mp.pi) / 2
    if name == "exponential":
        return mp.log1p(-u)
    if name == "cauchy":
        return 2 * mp.log(mp.sin(mp.pi * u)) - mp.log(mp.pi)
    if name == "f1":
        t = (1 - u) ** mp.mpf(-0.5)
        return mp.log(2) - t - 3 * mp.log(t)
    return 1 / u + 2 * mp.log(u)  # f2


class TestSlope:
    """``slope(s, upper)``: L'(u) = d log f(F^{-1}(u)) / du at tail mass s."""

    @pytest.mark.parametrize("parent", ALL_PARENTS, ids=lambda p: p.name)
    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    @pytest.mark.parametrize("s", [1e-12, 1e-3, 0.1, 0.3, 0.5])
    def test_against_mpmath(self, parent, upper, s):
        with mp.workdps(40):
            u = 1 - mp.mpf(s) if upper else mp.mpf(s)
            want = float(mp.diff(lambda v: _mp_log_f_along_the_flow(parent.name, v), u))
        got = parent.slope(s, upper)
        # 1e-15 absolute where L' = 0: the uniform, and the gaussian and
        # Cauchy medians
        assert abs(got - want) <= (1e-13 * abs(want) if want else 1e-15), (got, want)

    @pytest.mark.parametrize("parent", ALL_PARENTS, ids=lambda p: p.name)
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(s=st.floats(min_value=-6.0, max_value=math.log10(0.49)).map(lambda e: 10.0**e),
           upper=st.booleans())
    def test_matches_central_differences(self, parent, s, upper):
        # log f at tail mass s is L(s) on the lower side and L(1 - s) on the
        # upper one, so its derivative in s is L' and -L'.  Where a family
        # reads u = 1 - s, rounding u moves the difference by up to eps/h
        # relative
        h = 1e-4 * s
        log_f = [parent.tail(t, upper)[1] for t in (s - h, s + h)]
        fd = (log_f[1] - log_f[0]) / (2 * h) * (-1.0 if upper else 1.0)
        tol = (1e-6 + 4.0 * np.finfo(float).eps / h) * abs(fd) + 1e-9
        assert abs(parent.slope(s, upper) - fd) <= tol, (fd, parent.slope(s, upper))

    def test_overflows_to_infinity_without_a_warning(self):
        s = 5e-324
        want = {"uniform": (0.0, 0.0), "gaussian": (math.inf, -math.inf),
                "exponential": (-1.0, -math.inf), "cauchy": (math.inf, -math.inf),
                "f1": (-2.0, -math.inf), "f2": (-math.inf, 1.0)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for parent in ALL_PARENTS:
                got = (parent.slope(s, False), parent.slope(s, True))
                assert got == want[parent.name], (parent, got)


class TestEndpointGrowth:
    """The declared growth exponents against each parent's own functions."""

    TAILS = np.array([1e-6, 1e-9, 1e-12])

    @staticmethod
    def log_size(parent, field, u):
        """log(1 + |g(u)|); the density's comes from its log, so it cannot overflow."""
        if field == "quantile":
            with np.errstate(over="ignore"):
                return np.log1p(np.abs(parent.quantile(u)))
        log_pdf = parent.log_pdf_at_quantile(u)
        return np.log1p(np.abs(log_pdf)) if field == "log_pdf" else np.logaddexp(0.0, log_pdf)

    @pytest.mark.parametrize("parent", ALL_PARENTS, ids=lambda d: d.name)
    def test_declared_exponents_match_log_log_slopes(self, parent):
        # |g(u)| ~ u^-a makes log(1 + |g|) rise by a per unit of log(1/u)
        run = np.diff(-np.log(self.TAILS))
        for field in EndpointGrowth._fields:
            for end, u in ((0, self.TAILS), (1, 1.0 - self.TAILS)):
                a = getattr(parent.growth, field)[end]
                size = self.log_size(parent, field, u)
                where = f"{field} at u -> {end}"
                if a == math.inf:
                    # faster than every power; an overflow to inf counts
                    assert np.all(size[1:] >= size[:-1] + 10.0 * run), where
                elif a == 0.0:
                    # bounded or logarithmic
                    assert np.all(size[1:] - size[:-1] <= 0.1 * run), where
                else:
                    assert np.all(np.abs((size[1:] - size[:-1]) / run - a) <= 0.05), where

    def test_flags_keep_the_answers_of_the_per_family_rules(self):
        # the flags take the orders their methods take: r > 0 and m >= 1
        # (test_arguments checks that the others raise)
        moment = {"uniform": lambda r: True, "gaussian": lambda r: True,
                  "exponential": lambda r: True, "cauchy": lambda r: r < 1.0,
                  "f1": lambda r: False, "f2": lambda r: True}
        norm = {name: (lambda m: m == 1.0) if name == "f2" else (lambda m: True)
                for name in moment}
        for parent in ALL_PARENTS:
            for v in (0.5, 0.99, 1.0, 1.5, 2.0, 4.0, math.inf):
                assert parent.abs_moment_finite(v) == moment[parent.name](v), (parent, v)
            for v in (1.0, 1.5, 2.0, 4.0, math.inf):
                assert parent.norm_m_finite(v) == norm[parent.name](v), (parent, v)

    def test_predicate_boundaries(self):
        # E|g(U)|^r under Beta(alpha, beta) for g ~ u^-1 at 0: finite iff r < alpha
        assert power_moment_finite((1.0, 0.0), 2.0, 2.5, 1.0)
        assert not power_moment_finite((1.0, 0.0), 2.0, 2.0, 1.0)
        assert not power_moment_finite((0.0, 0.5), 4.0, 50.0, 2.0)
        assert power_moment_finite((0.0, math.inf), 0.0)
        assert not power_moment_finite((0.0, math.inf), 1e-9, 1e9, 1e9)

    def test_undeclared_parent_raises(self):
        with pytest.raises(NotImplementedError):
            ParentDistribution().abs_moment_finite(1.0)


class TestMomentAndNormFlags:
    def test_f1_moments_all_infinite(self):
        f1 = F1()
        for r in (0.1, 0.5, 1.0, 2.0, 4.0):
            assert f1.abs_moment(r) == math.inf

    def test_f1_tail_integral_grows_without_bound(self):
        # E|X|^r restricted to (e, X]: in t = log x coordinates the integrand
        # is 2 e^{rt} e^{-t}... e^{t}/t^3 = 2 e^{rt}/t^3, growing without
        # bound; the partial integrals must exceed any fixed level
        r = 0.5
        partial = [quad(lambda t: 2.0 * math.exp(r * t) / t**3, 1.0, math.log(X),
                        limit=400)[0]
                   for X in (1e4, 1e8, 1e12, 1e16)]
        assert partial == sorted(partial)
        assert partial[3] > 1000 * partial[0]

    def test_f2_norms(self):
        f2 = F2()
        assert f2.norm_m(1.0) == 1.0
        for m in (1.5, 2.0, 3.0, 10.0, math.inf):
            assert f2.norm_m(m) == math.inf
        for r in (0.5, 1.0, 3.0):
            assert math.isfinite(f2.abs_moment(r))

    # (parent, method, order, closed form): E|X|^r of the exponential,
    # Gamma(r + 1) / rate^r, and of uniform(-1, 1), 1 / (r + 1); ||f||_m of
    # the exponential, rate^(1 - 1/m) m^(-1/m); all by the quantile-space
    # integral, whose tol_rel is 1e-10
    CLOSED_FORMS = [
        *[(Exponential(rate), "abs_moment", r, math.gamma(r + 1.0) / rate**r)
          for rate in (1.0, 2.0) for r in (0.5, 1.0, 2.0)],
        *[(Uniform(-1.0, 1.0), "abs_moment", r, 1.0 / (r + 1.0)) for r in (0.5, 1.0, 2.0)],
        *[(Exponential(2.0), "norm_m", m, 2.0 ** (1.0 - 1.0 / m) * m ** (-1.0 / m))
          for m in (1.5, 2.0, 3.0)],
    ]

    @pytest.mark.parametrize("parent,method,order,exact", CLOSED_FORMS,
                             ids=lambda v: v.spec_string() if isinstance(v, ParentDistribution) else None)
    def test_integrated_moments_match_closed_forms(self, parent, method, order, exact):
        assert abs(getattr(parent, method)(order) - exact) <= 1e-10 * exact

    def test_cauchy_moment_split(self):
        c = Cauchy()
        assert math.isfinite(c.abs_moment(0.5))
        assert c.abs_moment(0.3) < math.inf
        for r in (1.0, 1.5, 2.0):
            assert c.abs_moment(r) == math.inf

    def test_cauchy_fractional_moment_value(self):
        # E|X|^r = sec(pi r / 2) for the standard Cauchy, 0 < r < 1
        c = Cauchy()
        for r in (0.25, 0.5, 0.75, 0.9, 0.95):
            exact = 1.0 / math.cos(math.pi * r / 2)
            assert abs(c.abs_moment(r) - exact) <= 1e-10 * exact, r
        # near r = 1 the t^8 tail map cannot resolve the tail: an error, not
        # a plausible number (a cut at t = 1e-12 gave 56.65 against 63.66)
        with pytest.raises(ArithmeticError, match="did not converge"):
            c.abs_moment(0.99)

    def test_gaussian_moments_and_norms(self):
        g = Gaussian()
        # E|X|^r = 2^{r/2} Gamma((r+1)/2) / sqrt(pi), in closed form and by
        # the quantile-space quadrature that families without one use
        for r in (1.0, 2.0, 4.0):
            oracle = 2 ** (r / 2) * math.gamma((r + 1) / 2) / math.sqrt(math.pi)
            assert abs(g.abs_moment(r) - oracle) <= 1e-15 * oracle
            assert abs(ParentDistribution._abs_moment(g, r) - oracle) <= 1e-9 * oracle
        # off-centre: E X^2 = mu^2 + sigma^2, E X^4 = mu^4 + 6 mu^2 sigma^2 + 3 sigma^4
        shifted = Gaussian(mu=1.5, sigma=0.5)
        assert abs(shifted.abs_moment(2.0) - 2.5) <= 1e-9
        assert abs(shifted.abs_moment(4.0) - (1.5**4 + 6 * 1.5**2 * 0.25 + 3 * 0.5**4)) <= 1e-9
        # ||f||_m = ((2 pi)^{(1-m)/2} m^{-1/2})^{1/m}, in closed form and by
        # the quantile-space quadrature that families without one use
        for m in (2.0, 3.0):
            oracle = ((2 * math.pi) ** ((1 - m) / 2) / math.sqrt(m)) ** (1 / m)
            assert abs(g.norm_m(m) - oracle) <= 1e-15
            assert abs(Gaussian(mu=3.0, sigma=2.0).norm_m(m) - oracle * 2.0 ** (1 / m - 1)) <= 1e-15
            assert abs(ParentDistribution._norm_m(g, m) - oracle) <= 1e-9
        assert abs(g.norm_m(math.inf) - 1 / math.sqrt(2 * math.pi)) <= 1e-15

    @staticmethod
    def _mp_norm(name, m):
        """||f||_m of the standard family in 40-digit mpmath."""
        m = mp.mpf(m)
        if name == "gaussian":
            return ((2 * mp.pi) ** ((1 - m) / 2) / mp.sqrt(m)) ** (1 / m)
        if name == "cauchy":  # int (1 + z^2)^-m dz = sqrt(pi) Gamma(m - 1/2) / Gamma(m)
            return (mp.pi ** (-m) * mp.sqrt(mp.pi) * mp.gamma(m - 0.5) / mp.gamma(m)) ** (1 / m)
        if name == "exponential":
            return m ** (-1 / m)
        # f1: E[f(F^-1(U))^(m-1)] in t = (1 - u)^-1/2, peaked within ~1/m of t = 1
        g = lambda t: (2 * mp.exp(-t) / t**3) ** (m - 1) * 2 / t**3
        return mp.quad(g, [1] + [1 + mp.mpf(2) ** j / m for j in range(-6, 12)] + [mp.inf]) ** (1 / m)

    @pytest.mark.parametrize("parent", [Gaussian(), Cauchy(), Exponential(), F1()], ids=lambda p: p.name)
    @pytest.mark.parametrize("m", [2.0, 100.0, 1e3, 1e4])
    def test_norms_against_mpmath(self, parent, m):
        # int f^m dx underflows from m ~ 1000 while ||f||_m tends to sup f:
        # the closed form works in log space, the quadrature on f / sup f
        with mp.workdps(40):
            want = float(self._mp_norm(parent.name, m))
        assert abs(parent.norm_m(m) - want) <= 1e-13 * want, (parent.norm_m(m), want)

    def test_uniform_moment(self):
        u = Uniform()
        assert abs(u.abs_moment(1.0) - 0.5) <= 1e-10
        assert abs(u.abs_moment(2.0) - 1.0 / 3.0) <= 1e-10

    @pytest.mark.parametrize("parent,r,most", [(Uniform(), 2.0, 2205), (Exponential(), 1.0, 2205),
                                               (Gaussian(mu=1.0), 4.0, 2205), (Cauchy(), 0.5, 3735)],
                             ids=lambda v: getattr(v, "name", v))
    def test_abs_moment_refines_toward_zero_only(self, monkeypatch, parent, r, most):
        # geometric levels toward t = 1 of u = t^8 / 2 would double the nodes
        # (4140 per side) where every integrand is smooth; both sides are one
        # batched call, each side under the cap
        import ordent.distributions as dist

        results = []

        def spy(*args, **kwargs):
            res = engine(*args, **kwargs)
            results.append(res)
            return res

        engine = dist.adaptive_quad
        monkeypatch.setattr(dist, "adaptive_quad", spy)
        assert math.isfinite(ParentDistribution.abs_moment(parent, r))
        (sides,) = results
        nevals = [side.neval for side in sides]
        assert len(nevals) == 2 and max(nevals) <= most, nevals


class TestSpecExamples:
    def test_uniform_identity_quantile(self):
        assert make_parent("uniform").quantile(0.25) == 0.25

    def test_f1_cdf_at_e_squared(self):
        assert abs(make_parent("f1").cdf(math.e**2) - 0.75) <= 1e-14

    def test_f2_median(self):
        assert abs(make_parent("f2").quantile(0.5) - math.exp(-2.0)) <= 1e-15

    def test_f2_density_at_quantile_closed_form(self):
        # f(F^{-1}(p)) = p^2 e^{1/p}
        f2 = F2()
        for p in (0.25, 0.5, 0.9):
            oracle = p * p * math.exp(1.0 / p)
            assert abs(math.exp(f2.log_pdf_at_quantile(p)) - oracle) <= 1e-12 * oracle


class TestBetaLaw:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_parameters(self, bad):
        with pytest.raises(ValueError):
            BetaLaw(bad, 2.0)
        with pytest.raises(ValueError):
            BetaLaw(2.0, bad)

    def test_mean_var_uniform(self):
        mean, var = beta_mean_var(BetaLaw(1, 1))
        assert mean == 0.5
        assert abs(var - 1.0 / 12.0) <= 1e-16

    def test_mean_matches_rank_formula(self):
        # k-th of n uniforms: mean k/(n+1), here k=3, n=10
        mean, var = beta_mean_var(BetaLaw(3, 8))
        assert abs(mean - 3.0 / 11.0) <= 1e-15
        assert abs(var - 3.0 * 8.0 / (11.0**2 * 12.0)) <= 1e-16

    def test_mean_var_monte_carlo(self):
        law = BetaLaw(50, 51)
        mean, var = beta_mean_var(law)
        draws = beta_sample(law, 1_000_000, seed=123)
        se_mean = math.sqrt(var / len(draws))
        assert abs(draws.mean() - mean) <= 4 * se_mean

    def test_fourth_central_moment_uniform(self):
        # direct integral: int_0^1 (x - 1/2)^4 dx = 1/80
        assert abs(beta_fourth_central_moment(BetaLaw(1, 1)) - 1.0 / 80.0) <= 1e-16

    def test_fourth_central_moment_quadrature(self):
        law = BetaLaw(2, 2)
        val, err = quad(lambda x: (x - 0.5) ** 4 * 6 * x * (1 - x), 0, 1, epsabs=1e-14)
        assert abs(beta_fourth_central_moment(law) - val) <= 1e-12

    def test_fourth_central_moment_exact_rational(self):
        # raw moments E[W^j] = prod_{i<j} (a+i)/(a+b+i); binomial expansion
        # around the mean, all in exact rational arithmetic
        for a, b in [(1, 1), (2, 3), (3, 2), (5, 7), (11, 4)]:
            raw = [Fraction(1)]
            for j in range(4):
                raw.append(raw[-1] * Fraction(a + j, a + b + j))
            m = raw[1]
            mu4 = (raw[4] - 4 * m * raw[3] + 6 * m**2 * raw[2]
                   - 4 * m**3 * raw[1] + m**4)
            got = Fraction(beta_fourth_central_moment(BetaLaw(a, b))).limit_denominator(10**12)
            assert got == mu4

    def test_fourth_moment_scales_inverse_square(self):
        p = 0.5
        vals = []
        for n in (100, 1_000, 10_000):
            k = round(n * p)
            vals.append(beta_fourth_central_moment(BetaLaw(k, n + 1 - k)) * n * n)
        # n^2-scaled values settle to a constant
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])
        assert 0.1 < vals[2] < 10.0


class TestBetaSampling:
    def test_uniform_ks(self):
        draws = beta_sample(BetaLaw(1, 1), 100_000, seed=42)
        stat = stats.kstest(draws, "uniform").statistic
        assert stat < 1.628 / math.sqrt(len(draws))  # 1% critical value

    def test_determinism(self):
        a = beta_sample(BetaLaw(5, 5), 1000, seed=7)
        b = beta_sample(BetaLaw(5, 5), 1000, seed=7)
        assert np.array_equal(a, b)
        c = beta_sample(BetaLaw(5, 5), 1000, seed=8)
        assert not np.array_equal(a, c)

    def test_stream_independence(self):
        a = beta_sample(BetaLaw(2, 2), 1000, seed=7, stream=0)
        b = beta_sample(BetaLaw(2, 2), 1000, seed=7, stream=1)
        assert not np.array_equal(a, b)

    def test_order_stat_variance(self):
        n, p = 100, 0.3
        k = round(n * p)
        law = BetaLaw(k, n + 1 - k)
        _, var = beta_mean_var(law)
        draws = beta_sample(law, 1_000_000, seed=11)
        assert abs(draws.var() - var) / var <= 0.05

    def test_samples_in_open_interval(self):
        draws = beta_sample(BetaLaw(0.5, 0.5), 10_000, seed=0)
        assert np.all(draws > 0.0) and np.all(draws < 1.0)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            beta_sample(BetaLaw(1, 1), 0, seed=0)

    @pytest.mark.parametrize("alpha, beta", [
        (1, 1), (2, 2), (5, 5), (30, 71), (60, 141), (140, 1861), (1, 100), (2, 99),
        (100, 1), (3, 2.1), (5e4, 5e4 + 1), (3e6, 7e6 + 1), (0.5, 0.5), (0.1, 3), (0.1, 0.1),
    ])
    def test_table_accuracy_contract(self, alpha, beta):
        # within 1e-12 min(x, 1 - x) + 2^-52 of the exact inversion (1e-10 with
        # a parameter below 1), nondecreasing in u, and prefix-stable
        law, count = BetaLaw(alpha, beta), 100_000
        x = beta_sample(law, count, seed=29, stream=4)
        u = random_stream(29, 4).random(count)
        ref = betaincinv(alpha, beta, u)
        rel = 1e-10 if min(alpha, beta) < 1 else 1e-12
        assert np.all(np.abs(x - ref) <= rel * np.minimum(ref, 1.0 - ref) + 2.0**-52)
        assert np.all(np.diff(x[np.argsort(u)]) >= 0.0)
        assert np.array_equal(beta_sample(law, 100, seed=29, stream=4),
                              beta_sample(law, 20_000, seed=29, stream=4)[:100])

    @pytest.mark.parametrize("alpha, beta, seed", [(100, 1, 1), (1, 100, 17), (2, 99, 17)])
    def test_tail_heavy_laws_meet_the_contract(self, alpha, beta, seed):
        # laws whose quantile lies far from 1/2 on the other side of the
        # median of u, where inverting a rounded u near 1 missed the contract
        # by up to 15x at these seeds
        count = 100_000
        x = beta_sample(BetaLaw(alpha, beta), count, seed=seed)
        ref = betaincinv(alpha, beta, random_stream(seed, 0).random(count))
        assert np.all(np.abs(x - ref) <= 1e-12 * np.minimum(ref, 1.0 - ref) + 2.0**-52)

    @pytest.mark.parametrize("alpha, beta", [(6.96e6, 1.17e6), (7.66e5, 1.82e5)])
    def test_contract_against_the_true_quantile(self, alpha, beta):
        # skewed laws above 1e5, where scipy's betaincinv is itself up to
        # 2.3e-12 relative off: the draws against the in-house inverse at
        # every u, whose nodes tests/test_special.py holds to 40-digit
        # mpmath roots on these laws
        count, seed, stream = 20_000, 4242687944, 46
        x = beta_sample(BetaLaw(alpha, beta), count, seed, stream)
        u = random_stream(seed, stream).random(count)
        y = special.beta_logit_quantile(alpha, beta, np.log(u) - np.log1p(-u))
        ref = 1.0 / (1.0 + np.exp(-y))
        small = 1.0 / (1.0 + np.exp(np.abs(y)))
        assert np.all(np.abs(x - ref) <= 1e-12 * small + 2.0**-52)

    @pytest.mark.parametrize("count", [1_000, 100_000])
    def test_inverts_only_at_table_nodes(self, monkeypatch, count):
        # the inverse runs at the table's nodes and at draws beyond |logit(u)| < 37.5
        import ordent.distributions as dist

        inverted = []
        real = dist.beta_logit_quantile

        def spy(a, b, w):
            inverted.append(np.size(w))
            return real(a, b, w)

        monkeypatch.setattr(dist, "beta_logit_quantile", spy)
        beta_sample(BetaLaw(30, 71), count, seed=3, stream=1)
        beyond = int(np.sum(~(np.abs(logit(random_stream(3, 1).random(count))) < dist._TABLE_W)))
        assert sum(inverted) <= dist._TABLE_STEPS + 1 + beyond

    def test_inverts_only_where_draws_land(self, monkeypatch):
        # 100 draws reach at most 100 cells, so at most 200 nodes are inverted
        import ordent.distributions as dist

        count, inverted = 100, []
        real = dist.beta_logit_quantile

        def spy(a, b, w):
            inverted.append(np.size(w))
            return real(a, b, w)

        monkeypatch.setattr(dist, "beta_logit_quantile", spy)
        beta_sample(BetaLaw(30, 71), count, seed=3, stream=1)
        beyond = int(np.sum(~(np.abs(logit(random_stream(3, 1).random(count))) < dist._TABLE_W)))
        assert 0 < sum(inverted) <= 2 * count + beyond

    def test_sample_mean_is_the_mean_of_one_draw(self):
        # 20000 draws span three chunks; the stacked columns share the draw
        law, count = BetaLaw(30.0, 71.0), 20_000
        calls = []

        def g(u):
            calls.append(u.size)
            return np.stack([u, np.log(u)])

        res = beta_sample_mean(g, law, count, seed=5, stream=3)
        u = beta_sample(law, count, seed=5, stream=3)
        assert max(calls) <= 8192 and sum(calls) == count
        assert len(res) == 2 and res.neval == count
        for r, col in zip(res, (u, np.log(u))):
            assert r.neval == count
            assert_sample_stats(r, col)
        one = beta_sample_mean(lambda u: u, law, count, seed=5, stream=3)
        assert (one.value, one.error) == (res[0].value, res[0].error)

    @pytest.mark.parametrize("count", [2, 8191, 8192, 8193, 3 * 8192 + 5])
    def test_chunks_at_every_boundary(self, count):
        # the chunk source's draws are beta_sample's bit for bit, in chunks of
        # 8192, and a prefix of a longer draw; the merged mean and standard
        # error are the whole draw's
        law = BetaLaw(30.0, 71.0)
        chunks = list(_beta_chunks(law, count, 13, 2))
        x = beta_sample(law, count, 13, 2)
        assert [c.size for c in chunks] == [min(8192, count - s) for s in range(0, count, 8192)]
        assert np.array_equal(np.concatenate(chunks), x)
        assert np.array_equal(beta_sample(law, 3 * 8192 + 5, 13, 2)[:count], x)
        res = beta_sample_mean(lambda u: np.stack([u, np.log(u)]), law, count, 13, 2)
        for r, col in zip(res, (x, np.log(x))):
            assert_sample_stats(r, col)

    def test_sample_mean_keeps_an_infinite_mean(self):
        # an infinite value in one chunk makes the mean +inf, as np.mean of
        # the whole draw does, and the standard error NaN, as np.std does
        res = beta_sample_mean(lambda u: np.where(u == u.max(), np.inf, u), BetaLaw(2, 2),
                               3 * 8192, seed=1)
        assert res.value == math.inf and math.isnan(res.error)

    def test_sample_mean_needs_two_draws(self):
        for count in (0, 1):
            with pytest.raises(ValueError, match="count >= 2"):
                beta_sample_mean(lambda u: u, BetaLaw(2, 2), count, seed=0)
        with pytest.raises(ValueError, match="shape"):
            beta_sample_mean(lambda u: u[:-1], BetaLaw(2, 2), 10, seed=0)

    def test_random_stream_reproducible(self):
        g1 = random_stream(3, 5).random(4)
        g2 = random_stream(3, 5).random(4)
        assert np.array_equal(g1, g2)


_M64 = 2**64 - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


class _SplitMix64:
    """Vigna's splitmix64.c in Python integers: next() adds gamma to the
    state and returns the finalizer of the new state."""

    def __init__(self, state):
        self.state = state & _M64

    def next(self):
        self.state = (self.state + _GOLDEN_GAMMA) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)


def _mix64(z):
    """The finalizer alone: the output of a SplitMix64 at state z - gamma."""
    return _SplitMix64(z - _GOLDEN_GAMMA).next()


def _reference_stream(seed, stream, count):
    """random_stream(seed, stream).random(count): the key is output stream + 1
    of a SplitMix64 started at mix64(seed), and draw i is output i + 1 of a
    SplitMix64 started at the key, its top 53 bits times 2^-53."""
    keys = _SplitMix64(_mix64(seed))
    for _ in range(stream + 1):
        key = keys.next()
    draws = _SplitMix64(key)
    return [(draws.next() >> 11) * 2.0**-53 for _ in range(count)]


class TestRandomStream:
    """The SplitMix64 counter stream that every Monte Carlo draw takes."""

    def test_reference_splitmix64(self):
        # the reference itself, against splitmix64.c's published first outputs for seed 1234567
        g = _SplitMix64(1234567)
        assert [g.next() for _ in range(5)] == [
            6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821]

    @pytest.mark.parametrize("seed, stream", [(0, 0), (0, 1), (1, 0), (3, 5), (29, 4),
                                              (1234567, 46), (2**63, 3), (2**64 - 1, 9)])
    def test_matches_reference(self, seed, stream):
        assert random_stream(seed, stream).random(300).tolist() == _reference_stream(seed, stream, 300)

    def test_far_stream_key(self):
        # the key in closed form for a stream too far to step to
        seed, stream = 7, 2**64 - 1
        key = _mix64((_mix64(seed) + (stream + 1) * _GOLDEN_GAMMA) & _M64)
        want = [(_mix64((key + i * _GOLDEN_GAMMA) & _M64) >> 11) * 2.0**-53 for i in range(1, 17)]
        assert random_stream(seed, stream).random(16).tolist() == want

    def test_continues_across_chunks_and_calls(self):
        # one call of 20000 spans three chunks of 8192; the same draws come
        # from calls that cut the chunk boundaries elsewhere
        whole = random_stream(11, 2).random(20_000)
        g = random_stream(11, 2)
        parts = [g.random(m) for m in (8191, 2, 0, 1, 11_000, 806)]
        assert np.array_equal(np.concatenate(parts), whole)
        assert whole[8190:8194].tolist() == _reference_stream(11, 2, 8194)[8190:]

    def test_range_and_granularity(self):
        u = random_stream(5, 0).random(100_000)
        assert u.dtype == np.float64 and u.shape == (100_000,)
        assert np.all((u >= 0.0) & (u < 1.0))
        scaled = u * 2.0**53
        assert np.array_equal(scaled, np.floor(scaled))
        # the low bits are used: a 53-bit multiple is odd half the time
        assert 0.45 < float(np.mean(scaled % 2.0)) < 0.55

    @pytest.mark.parametrize("seed, stream", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64),
                                              (1.0, 0), (0, 0.5), ("3", 0), (None, 0)])
    def test_rejects_seeds_outside_uint64(self, seed, stream):
        with pytest.raises(ValueError):
            random_stream(seed, stream)

    def test_numpy_integers_are_seeds(self):
        assert np.array_equal(random_stream(np.int64(3), np.uint64(5)).random(8),
                              random_stream(3, 5).random(8))

    def test_fixed_seed_statistics(self):
        # 2^20 draws: chi-square over 1024 equal bins within 6 sd of its
        # 1023 degrees of freedom, and correlations within 6 / sqrt(N) of 0
        # at lag 1, between streams 0 and 1 of a seed and between seeds 8 and 9
        count, bins = 2**20, 1024
        u = random_stream(8, 0).random(count)
        counts = np.bincount((u * bins).astype(np.intp), minlength=bins)
        chi2 = float(np.sum((counts - count / bins) ** 2) / (count / bins))
        assert abs(chi2 - (bins - 1)) <= 6.0 * math.sqrt(2.0 * (bins - 1)), chi2
        limit = 6.0 / math.sqrt(count)

        def corr(a, b):
            return float(np.corrcoef(a, b)[0, 1])

        assert abs(corr(u[:-1], u[1:])) <= limit
        assert abs(corr(u, random_stream(8, 1).random(count))) <= limit
        assert abs(corr(u, random_stream(9, 0).random(count))) <= limit


class TestBetaLogPdf:
    def test_against_scipy(self):
        law = BetaLaw(7, 3)
        us = np.linspace(0.05, 0.95, 19)
        mine = beta_log_pdf(law, us)
        ref = stats.beta(7, 3).logpdf(us)
        assert np.max(np.abs(mine - ref)) <= 1e-11


class TestSpecGrammar:
    def test_parse_with_params(self):
        g = parse_distribution("gaussian(mu=2,sigma=3)")
        assert g.mu == 2.0 and g.sigma == 3.0

    def test_parse_bare_and_empty_parens(self):
        assert parse_distribution("f2").name == "f2"
        assert parse_distribution("f2()").name == "f2"
        assert parse_distribution(" cauchy( loc=1, scale=2 ) ").scale == 2.0

    def test_spec_string_round_trip(self):
        for text in ["uniform(a=0,b=1)", "gaussian(mu=0,sigma=1)", "f1()"]:
            parent = parse_distribution(text)
            again = parse_distribution(parent.spec_string())
            assert again.spec_string() == parent.spec_string()

    def test_errors(self):
        with pytest.raises(DistributionSpecError):
            parse_distribution("lognormal()")
        with pytest.raises(DistributionSpecError):
            parse_distribution("gaussian(sigma=-1)")
        with pytest.raises(DistributionSpecError):
            parse_distribution("gaussian(sigma=abc)")
        with pytest.raises(DistributionSpecError):
            parse_distribution("gaussian(1,2)")
        with pytest.raises(DistributionSpecError):
            make_parent("gaussian", nu=3)

    @pytest.mark.parametrize("text", [
        "gaussian(mu=inf)", "gaussian(sigma=inf)", "gaussian(mu=nan)", "exponential(rate=nan)",
        "exponential(rate=inf)", "cauchy(loc=-inf)", "cauchy(scale=nan)", "uniform(b=inf)",
        "uniform(a=-inf)",
    ])
    def test_non_finite_parameters(self, text):
        with pytest.raises(DistributionSpecError):
            parse_distribution(text)

    def test_uniform_width_must_be_finite(self):
        # b - a overflows although a and b are finite
        with pytest.raises(DistributionSpecError, match="finite width"):
            make_parent("uniform", a=-1e308, b=1e308)
        # the density is exp(log density): within a few ulp of 1 / width
        assert Uniform(-1e307, 1e307).pdf(0.0) == pytest.approx(1.0 / 2e307, rel=1e-13)
