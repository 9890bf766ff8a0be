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
