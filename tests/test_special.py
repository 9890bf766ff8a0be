"""Special-function contracts against independent oracles.

Oracles: direct summation (math.fsum), arbitrary precision (mpmath), closed
forms, and scipy's digamma, Beta terms and normal quantile; none shares code
with the implementation under test.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import betaln, digamma, xlog1py, xlogy
from scipy.special import ndtri as scipy_ndtri
from scipy.stats import norm

from ordent import special
from ordent.distributions import Gaussian

mp.mp.dps = 40

EULER_GAMMA = special.EULER_GAMMA


class TestHarmonic:
    def test_first_values(self):
        assert special.harmonic(1) == 1.0
        assert special.harmonic(2) == 1.5

    def test_against_direct_sum_grid(self):
        for r in [3, 7, 10, 15, 16, 17, 97, 1024, 9999, 10_000]:
            oracle = math.fsum(1.0 / j for j in range(1, r + 1))
            assert abs(special.harmonic(r) - oracle) <= 1e-12

    def test_large_r_uses_series_and_matches_summation(self):
        r = 10**6
        oracle = math.fsum(1.0 / j for j in range(1, r + 1))
        assert abs(special.harmonic(r) - oracle) <= 1e-12

    def test_strictly_increasing_with_unit_steps(self):
        rs = np.arange(1, 2000)
        vals = np.array([special.harmonic(int(r)) for r in rs])
        steps = np.diff(vals)
        assert np.all(steps > 0)
        assert np.max(np.abs(steps - 1.0 / rs[1:])) <= 1e-13

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            special.harmonic(0)
        with pytest.raises(ValueError):
            special.harmonic(-3)


class TestTSequence:
    def test_first_values(self):
        assert special.t_sequence(0) == 0.0
        assert special.t_sequence(1) == -1.0

    def test_expansion_at_500(self):
        # 1/2 log(2 pi r / e) - (1+gamma) r + 1/(6r) - 1/(90 r^3)
        r = 500
        expansion = (0.5 * math.log(2 * math.pi * r / math.e)
                     - (1 + EULER_GAMMA) * r + 1.0 / (6 * r) - 1.0 / (90 * r**3))
        assert abs(special.t_sequence(r) - expansion) <= 1e-10

    def test_recurrence_in_log_space(self):
        # T_r - T_{r-1} = log(r) - r H_r + (r-1) H_{r-1}
        for r in [1, 2, 5, 33, 501, 9_999]:
            lhs = special.t_sequence(r) - special.t_sequence(r - 1)
            rhs = (math.log(r) if r > 0 else 0.0) \
                - r * special.harmonic(r) \
                + ((r - 1) * special.harmonic(r - 1) if r > 1 else 0.0)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_against_mpmath(self):
        # a few ulp of T_r at every r
        for r in [10, 15, 16, 100, 10_000, 100_001, 200_000, 10**7, 10**9]:
            oracle = float(mp.loggamma(r + 1) - r * mp.harmonic(r))
            assert abs(special.t_sequence(r) - oracle) <= 4e-16 * abs(oracle)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            special.t_sequence(-1)


class TestDigamma:
    def test_integer_identity_with_harmonic(self):
        for k in [2, 3, 10, 16, 17, 500, 10_000]:
            assert abs(digamma(k) - (special.harmonic(k - 1) - EULER_GAMMA)) <= 1e-11


def _mp_beta_log_density(a, b, u):
    a, b, u = mp.mpf(a), mp.mpf(b), mp.mpf(u)
    return float((a - 1) * mp.log(u) + (b - 1) * mp.log1p(-u) - mp.log(mp.beta(a, b)))


def _bulk(a, b):
    """Float64 points mean + z sd, z = -8..8, that lie inside (0, 1)."""
    mean = a / (a + b)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    u = mean + sd * np.linspace(-8.0, 8.0, 33)
    return u[(u > 0.0) & (u < 1.0)]


class TestLogBeta:
    """``special.beta_log_density``, the package's one Beta log density."""

    def test_trivial_values(self):
        u = np.linspace(0.05, 0.95, 19)
        assert np.all(special.beta_log_density(1.0, 1.0, u) == 0.0)
        # Beta(2, 3): 1 / B(2, 3) = 12
        closed = np.log(12.0 * u * (1.0 - u) ** 2)
        assert np.max(np.abs(special.beta_log_density(2.0, 3.0, u) - closed)) <= 1e-14

    def test_high_precision_reference(self):
        # non-integer parameters, on both sides of the switch to Loader's form
        for a, b in [(1.5, 2.5), (2.5, 7.25), (300.5, 700.25), (3.5, 1e6 + 0.5)]:
            u = _bulk(a, b)
            ref = np.array([_mp_beta_log_density(a, b, x) for x in u])
            assert np.max(np.abs(special.beta_log_density(a, b, u) - ref)) <= 1e-13

    def test_integer_arguments_against_mpmath(self):
        # the weight of every quadrature node, in the bulk of Beta(k, n+1-k),
        # at n up to 1e9
        for a, b in [(1, 1), (30, 35), (3000, 7001), (30000, 70001),
                     (50000, 50001), (90000, 10001), (500_000, 500_001),
                     (3_000_000, 7_000_001), (500_000_000, 500_000_001)]:
            u = _bulk(a, b)
            ref = np.array([_mp_beta_log_density(a, b, x) for x in u])
            assert np.max(np.abs(special.beta_log_density(a, b, u) - ref)) <= 1e-13

    def test_domain_error(self):
        with pytest.raises(ValueError):
            special.beta_log_density(0.0, 1.0, 0.5)
        for a, b in [(math.inf, 2.0), (2.0, math.inf), (math.nan, 2.0)]:
            with pytest.raises(ValueError):
                special.beta_log_density(a, b, 0.5)

    def test_small_parameters_against_mpmath(self):
        # min(a, b) <= 2: lgamma of the small one less log_gamma_ratio, with
        # no betaln; through the bulk and out to 1e-10 of either end
        for a, b in [(1, 1e5), (2, 1e4), (0.5, 0.5), (1.5, 3), (2, 2.05), (1e5, 1), (0.3, 1e6)]:
            u = np.unique(np.concatenate([np.clip(_bulk(a, b), 1e-10, 1 - 1e-10),
                                          [1e-10, 0.25, 0.5, 0.75, 1 - 1e-10]]))
            ref = np.array([_mp_beta_log_density(a, b, x) for x in u])
            got = special.beta_log_density(a, b, u)
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13, (a, b)

    def test_zero_exponent_at_the_ends(self):
        # 0 log 0 = 0 where a = 1 or b = 1, as scipy's xlogy and xlog1py give
        ends = np.array([0.0, 1.0])
        for a, b in [(1, 3), (3, 1), (1, 1), (1, 0.5), (0.5, 1), (2, 1), (1, 2)]:
            with np.errstate(divide="ignore"):
                want = xlogy(a - 1, ends) + xlog1py(b - 1, -ends) - betaln(a, b)
            got = special.beta_log_density(a, b, ends)
            assert not np.isnan(got).any(), (a, b)
            assert np.allclose(got, want, rtol=1e-15, atol=0.0), (a, b)


def _mp_ndtri(p: float) -> float:
    """Phi^{-1}(p) to 40 digits: Newton on mpmath's normal CDF from scipy's value."""
    lower = p <= 0.5
    t = mp.mpf(p) if lower else 1 - mp.mpf(p)
    z = mp.mpf(scipy_ndtri(float(t)))
    for _ in range(4):
        z -= (mp.ncdf(z) - t) / mp.npdf(z)
    return float(z if lower else -z)


class TestNdtri:
    """``special.ndtri``: Wichura's AS241 in numpy."""

    # log-spaced p down to 1e-300 and the mirror 1 - 2^-j
    P = np.concatenate([np.logspace(-300, math.log10(0.5), 3000), 1.0 - 2.0 ** -np.arange(1, 54)])

    def test_against_mpmath(self):
        ref = np.array([_mp_ndtri(p) for p in self.P])
        ulps = np.abs(special.ndtri(self.P) - ref) / np.spacing(np.abs(ref))
        # 3 ulp at worst on this grid; plain Horner in the far tail read 6,
        # as does CPython's statistics.NormalDist.inv_cdf there
        assert ulps.max() <= 4.0
        assert np.median(ulps) <= 1.0

    def test_scalar_equals_vector(self):
        rng = np.random.default_rng(0)
        p = np.concatenate([rng.random(8000), 10.0 ** rng.uniform(-320, -1, 8000),
                            [0.075, 0.925, math.exp(-25.0), np.nextafter(0.075, 0.0),
                             np.nextafter(math.exp(-25.0), 1.0), 0.5, 5e-324]])
        vector = special.ndtri(p)  # more than one chunk, every branch in each
        for i in np.r_[rng.choice(p.size - 7, 200, replace=False), p.size - 7:p.size]:
            assert special.ndtri(float(p[i])) == special.ndtri(p[i:i + 1])[0] == vector[i], p[i]

    def test_edges(self):
        assert special.ndtri(0.0) == -math.inf and special.ndtri(1.0) == math.inf
        assert special.ndtri(0.5) == 0.0
        for bad in (-1e-300, -0.5, 1.0 + 2e-16, 2.0, math.nan, math.inf):
            assert math.isnan(special.ndtri(bad))
        got = special.ndtri(np.array([[0.0, 1.0, -0.5], [1.5, math.nan, 0.5]]))
        assert got.shape == (2, 3)
        assert got[0, 0] == -math.inf and got[0, 1] == math.inf and got[1, 2] == 0.0
        assert np.isnan(got[0, 2]) and np.isnan(got[1, 0]) and np.isnan(got[1, 1])
        assert special.ndtri(np.empty(0)).shape == (0,)

    def test_gaussian_quantile_against_scipy(self):
        p = np.logspace(-15, math.log10(0.5), 2000)
        p = np.concatenate([p, 1.0 - p])
        want = norm.ppf(p)
        got = Gaussian().quantile(p)
        assert np.max(np.abs(got - want) / np.spacing(np.abs(want))) <= 8.0


def test_beta_log_densities_match_each_law():
    """Many laws at once, each node bit-identical to its law's own call."""
    rng = np.random.default_rng(5)
    a = [3.0, 1.0, 5e4, 0.5, 2.0, 7e5, 1.5, 1e5, 0.7, 2.0, 2.0**52]
    b = [98.0, 1e5, 5e4 + 1.0, 3.0, 2.0, 3e5 + 1.0, 0.7, 1.0, 1.0, 2.5, 2.0**52]
    problem = np.repeat(np.arange(len(a)), rng.integers(1, 400, len(a)))
    mean = (np.array(a) / (np.array(a) + np.array(b)))[problem]
    u = np.clip(mean + rng.normal(0.0, 0.05, problem.size), 1e-15, 1.0 - 1e-15)
    got = special.beta_log_densities(a, b)(u, problem)
    for i in range(len(a)):
        at = problem == i
        assert np.array_equal(got[at], special.beta_log_density(a[i], b[i], u[at]))
    assert np.array_equal(special.beta_log_densities(a, b)(u, 3),
                          special.beta_log_density(a[3], b[3], u))


EPS = 2.0**-52


def _ulp_error(got: float, ref) -> float:
    """|got - ref| in ulps of ref, the ulp of a subnormal being 2^-1074."""
    return float(abs(mp.mpf(got) - ref) / np.spacing(float(ref)))


class TestNdtr:
    def test_against_mpmath(self):
        # x in +-[0, 38]: within 4 ulp (3.7 at x = -3.5), down to the
        # subnormal lower tail
        x = np.concatenate([np.linspace(0.0, 38.0, 381), np.geomspace(1e-8, 38.0, 60)])
        x = np.concatenate([x, -x])
        got = special.ndtr(x)
        worst = max(_ulp_error(g, mp.ncdf(v)) for v, g in zip(x.tolist(), got.tolist()))
        assert worst <= 4.0

    def test_edges_and_scalars(self):
        got = special.ndtr(np.array([-np.inf, np.inf, np.nan, 0.0]))
        assert got[0] == 0.0 and got[1] == 1.0 and np.isnan(got[2]) and got[3] == 0.5
        assert special.ndtr(-1.5) == special.ndtr([-1.5])[0] and isinstance(special.ndtr(0.3), float)

    def test_gaussian_cdf(self):
        x = np.linspace(-4.0, 4.0, 17)
        assert np.array_equal(Gaussian(1.0, 2.0).cdf(1.0 + 2.0 * x), special.ndtr(x))


def _mp_tail(a, b, x, upper):
    """I_x(a, b), or 1 - I_x(a, b) if upper, from the positive series x^a (1 -
    x)^b / (a B(a, b)) 2F1(a + b, 1; a + 1; x) on the side of x below the
    mean (mpmath's betainc does not converge for parameters near 1e7)."""
    a, b, x = mp.mpf(a), mp.mpf(b), mp.mpf(x)
    if x > a / (a + b):
        a, b, x, upper = b, a, 1 - x, not upper
    v = mp.exp(a * mp.log(x) + b * mp.log1p(-x) - mp.log(a) - mp.log(mp.beta(a, b))) \
        * mp.hyp2f1(a + b, 1, a + 1, x, maxterms=10**7)
    return 1 - v if upper else v


def _points(a, b, sds):
    mean = a / (a + b)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    x = np.clip(mean + sd * np.asarray(sds, dtype=float), 1e-300, 1.0 - 2.0**-53)
    return np.unique(np.concatenate([x, np.geomspace(1e-200, 0.49, 5)]))


class TestBetainc:
    @pytest.mark.parametrize("a, b", [(30, 71), (60, 141), (2, 19), (0.5, 3), (0.1, 0.1), (1, 1)])
    def test_both_tails_against_mpmath(self, a, b):
        # each tail relative to itself, within 8 eps (1 + |log T|): the
        # prefactor is exp of a log density
        x = _points(a, b, np.linspace(-12.0, 12.0, 9))
        for upper in (False, True):
            got = special.betainc(a, b, x, upper)
            for v, g in zip(x.tolist(), got.tolist()):
                ref = _mp_tail(a, b, v, upper)
                if ref < mp.mpf("1e-300"):
                    continue
                assert abs(g - ref) / ref <= 8 * EPS * (1 + abs(mp.log(ref))), (v, upper)

    @pytest.mark.parametrize("a, b", [(3e6, 7e6 + 1), (1e5, 2), (7.69572e6, 1.04527),
                                      (4.47656, 5.52423e6), (0.2845737908030374, 9181069.509543553)])
    def test_large_parameters(self, a, b):
        # near the mean the fraction's own rounding reaches ~1.5e-13 relative;
        # on the skewed laws the fraction's argument is within ~1e-6 of 1,
        # where its rounding would cost up to ~6e-10
        x = _points(a, b, [-8.0, -1.0, 0.0, 1.0, 8.0])
        for upper in (False, True):
            got = special.betainc(a, b, x, upper)
            for v, g in zip(x.tolist(), got.tolist()):
                ref = _mp_tail(a, b, v, upper)
                if ref < mp.mpf("1e-300"):
                    continue
                assert abs(g - ref) / ref <= 5e-13, (v, upper)

    def test_ends_and_scalars(self):
        got = special.betainc(2.0, 3.0, np.array([0.0, 1.0, np.nan, -0.5, 1.5]))
        assert got[0] == 0.0 and got[1] == 1.0 and np.isnan(got[2:]).all()
        assert special.betainc(2.0, 3.0, 0.0, upper=True) == 1.0
        assert special.betainc(2.0, 3.0, 0.25) == special.betainc(2.0, 3.0, [0.25])[0]
        with pytest.raises(ValueError):
            special.betainc(0.0, 1.0, 0.5)

    def test_tails_add_to_one(self):
        x = np.linspace(0.01, 0.99, 99)
        total = special.betainc(30, 71, x) + special.betainc(30, 71, x, upper=True)
        assert np.max(np.abs(total - 1.0)) <= 4 * EPS


# y = logit(x) of the Beta quantile at u = expit(w), 40-digit mpmath roots
# (Newton in y on the series of ``_mp_tail``, summed term by term, on the side
# x <= 1/2 of the law or of its mirror), at these nodes of the sampler's table
_QUANTILE_W = [-35.99853515625, -7.9833984375, -0.98876953125, 0.0, 0.98876953125,
               7.9833984375, 35.99853515625]
_QUANTILE_Y = {
    (30, 71): ['-2.996076516490006369050518', '-1.65712267314028659568002',
               '-1.002343187022740150876991', '-0.8679294700776515292451161',
               '-0.7359243470988829793378435', '-0.1545439882757551036079343',
               '0.8016522428392899233872567'],
    (60, 141): ['-2.26487604417023640151736', '-1.403920533693837358066685',
                '-0.9523163680644994908455699', '-0.8576144794203953339234257',
                '-0.7641040795048507881460584', '-0.3485749082147170743853047',
                '0.3301493146317832708918618'],
    (2, 19): ['-20.62277960646528428317291', '-6.6059314988948400718249',
              '-2.925104594580970196964055', '-2.408726673826053703051376',
              '-1.954843784694472661541367', '-0.3458634692481416127391359',
              '1.90694463860857218473061'],
    (0.1, 0.1): ['-353.1975876820641656230712', '-73.04963069619748426323445',
                 '-6.262529470764743583562782', '9.183549615799121156005754e-41',
                 '6.262529470764743583562782', '73.04963069619748426323445',
                 '353.1975876820641656230712'],
    (1e5, 2): ['7.831257751575771539111483', '9.169245404038246865920854',
               '10.56489866376180374332853', '10.99511269871355480335066',
               '11.49430433882476465153491', '15.1494548746223763489794',
               '29.16562444560540659382048'],
    (3e6, 7e6 + 1): ['-0.8529037841483206636304762', '-0.8496424102861391285342348',
                     '-0.8477185513382326677564197', '-0.847298066736409620820884',
                     '-0.846877605707575989764438', '-0.8449544557506624016997796',
                     '-0.8416965360697166542715851'],
    # two skewed laws on which scipy's betaincinv is up to 2.3e-12 relative off
    (6.96e6, 1.17e6): ['1.775069930210889102247894', '1.779783337374513690259137',
                       '1.782567177539616981189661', '1.783175962544252673090577',
                       '1.783784835543774201336224', '1.786571322279870804486342',
                       '1.791297623461988102453672'],
    (7.66e5, 1.82e5): ['1.416047242789653527547247', '1.428327292016445215985736',
                       '1.435588218524492514124629', '1.437176879005594078520812',
                       '1.438766057913255224063935', '1.446042576860414898730813',
                       '1.458398592700164709848137'],
}


class TestBetaLogitQuantile:
    @pytest.mark.parametrize("law", list(_QUANTILE_Y))
    def test_against_mpmath_roots(self, law):
        # within 1e-14 relative of min(x, 1 - x) on the laws behind the
        # verify benchmark, and within the sampler's contract 1e-12 min(x,
        # 1 - x) + 2^-52 on every law
        y = special.beta_logit_quantile(*law, np.array(_QUANTILE_W))
        for got, ref in zip(y.tolist(), _QUANTILE_Y[law]):
            ref = mp.mpf(ref)
            small = 1 / (1 + mp.exp(abs(ref)))
            err = float(small * (1 - small) * abs(got - ref))  # |x - x_ref| to first order
            assert err <= 1e-12 * float(small) + 2.0**-52
            if law in ((30, 71), (60, 141)):
                assert err <= 1e-14 * float(small)

    def test_edges_and_scalars(self):
        got = special.beta_logit_quantile(2.0, 3.0, np.array([-np.inf, np.inf, np.nan]))
        assert got[0] == -np.inf and got[1] == np.inf and np.isnan(got[2])
        assert special.beta_logit_quantile(2.0, 3.0, -1.0) == special.beta_logit_quantile(2.0, 3.0, [-1.0])[0]
