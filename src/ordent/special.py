"""Scalar special functions behind the entropy and bound formulas, and the Beta log density.

All logarithms are natural: every entropy produced downstream is in nats.
Everything is plain float64 and valid at any n.  The large cancellations
that a naive evaluation would suffer are taken out analytically:

* T_r = log(r!) - r H_r is -(1 + gamma) r plus an O(log r) remainder given
  by the Stirling series (DLMF 5.11), so the order-statistic entropy
  T_{k-1} + T_{n-k} - T_n - H_n adds up O(log n) terms only;
* the Beta log density is Loader's saddle-point form (C. Loader, "Fast and
  Accurate Computation of Binomial Probabilities", 2000): a constant made of
  Stirling remainders, minus a deviance term on each side of the mode.

Below r = 16 the sums run term by term.

The normal quantile ``ndtri`` is Wichura's AS241 and the normal CDF ``ndtr``
Cody's rational approximations.  The regularized incomplete Beta ``betainc``
(either tail, each to a relative accuracy) is the continued fraction of
DiDonato and Morris ("Algorithm 708", ACM TOMS 18, 1992) times the prefactor
x^a (1 - x)^b / B(a, b) = x (1 - x) f(x), with f Loader's Beta density; its
inverse ``beta_logit_quantile`` is a safeguarded Halley iteration on the log
tail in y = logit(x).  The package uses no scipy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "beta_logit_quantile",
    "betainc",
    "harmonic",
    "ndtr",
    "ndtri",
    "t_sequence",
]

EULER_GAMMA = float(np.euler_gamma)

# From this index on, the asymptotic series below, truncated after B_16,
# err by less than 1e-19; below it, sums run term by term.
_SERIES_FROM = 16
_LOG_2PI = math.log(2.0 * math.pi)

# Bernoulli numbers B_2, B_4, ..., B_16 and the series they give:
#   log Gamma(z + 1) - (z + 1/2) log z + z - 1/2 log 2 pi = sum B_2j / (2j (2j-1) z^(2j-1))
#   H_r - log r - gamma - 1/(2r)                           = -sum B_2j / (2j r^2j)
#   T_r + (1 + gamma) r - 1/2 log(2 pi r) + 1/2             = sum B_2j / ((2j-1) r^(2j-1))
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_STIRLING = tuple(b / ((2 * j) * (2 * j - 1)) for j, b in enumerate(_BERNOULLI, 1))
_HARMONIC = tuple(-b / (2 * j) for j, b in enumerate(_BERNOULLI, 1))
_T_SERIES = tuple(b / (2 * j - 1) for j, b in enumerate(_BERNOULLI, 1))

# Loader's form applies from this Beta parameter on (both sides); below it the
# density is summed directly, where no term is large enough to cancel.
_LOADER_FROM = 2.0


def _odd_series(z: float, coef) -> float:
    """sum_j coef[j] / z^(2j+1), for j = 0, 1, ..."""
    w = 1.0 / (z * z)
    s = 0.0
    for c in reversed(coef):
        s = s * w + c
    return s / z


def _check_integer(r, name: str) -> int:
    """r as an int if it is a whole number, which NaN and +-inf are not; else ``ValueError``."""
    try:
        whole = math.isfinite(r) and r == int(r)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{name} is too large: it exceeds the float range") from None
    if not whole:
        raise ValueError(f"{name} must be an integer, got {r!r}")
    return int(r)


def _check_count(count, name: str, least: int) -> int:
    """``count`` as an int by ``_check_integer`` (1e5 is 100000), if it is at
    least ``least``; else ``ValueError``."""
    count = _check_integer(count, name)
    if count < least:
        raise ValueError(f"need {name} >= {least}, got {count}")
    return count


def _check_fraction(p) -> None:
    """Raises ``ValueError`` unless p lies strictly inside (0, 1) (NaN does not)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")


def _harmonic_exact(r: int) -> float:
    """H_r rounded once, from integer arithmetic; for small r."""
    f = math.factorial(r)
    return sum(f // j for j in range(1, r + 1)) / f


def _harmonic_minus_gamma(r: int) -> float:
    """H_r - gamma, which is psi(r + 1)."""
    if r < _SERIES_FROM:
        return _harmonic_exact(r) - EULER_GAMMA
    return math.log(r) + 0.5 / r + _odd_series(r, _HARMONIC) / r


def harmonic(r: int) -> float:
    """H_r = sum_{k=1}^r 1/k.

    Exact up to one rounding for r < 16; beyond, the asymptotic series
    log r + gamma + 1/(2r) - 1/(12 r^2) + 1/(120 r^4) - ... through the
    r^-16 term.
    """
    r = _check_integer(r, "r")
    if r < 1:
        raise ValueError(f"harmonic requires r >= 1, got {r}")
    if r < _SERIES_FROM:
        return _harmonic_exact(r)
    return _harmonic_minus_gamma(r) + EULER_GAMMA


def _t_small_terms(r: int) -> list[float]:
    """Float terms that sum to T_r = log(r!) - r H_r; for small r."""
    return [*map(math.log, range(2, r + 1)), -r * _harmonic_exact(r)]


def _t_terms(r: int) -> list[float]:
    """Float terms that sum to T_r + (1 + gamma) r, which is O(log r)."""
    if r < _SERIES_FROM:
        return [*_t_small_terms(r), r, EULER_GAMMA * r]
    return [0.5 * (_LOG_2PI + math.log(r)) - 0.5, _odd_series(r, _T_SERIES)]


def t_sequence(r: int) -> float:
    """T_r = log(r!) - r * H_r, evaluated in log space (no factorial overflow)."""
    r = _check_integer(r, "r")
    if r < 0:
        raise ValueError(f"t_sequence requires r >= 0, got {r}")
    if r < _SERIES_FROM:
        return math.fsum(_t_small_terms(r))
    return math.fsum([*_t_terms(r), -r, -EULER_GAMMA * r])


def order_stat_entropy(n: int, k: int) -> float:
    """T_{k-1} + T_{n-k} - T_n - H_n for integers 1 <= k <= n (no checks).

    The linear parts -(1 + gamma) r of the three T's add up to 1 + gamma,
    and gamma cancels against H_n, so only O(log n) terms are summed.
    """
    return math.fsum([*_t_terms(k - 1), *_t_terms(n - k), *(-t for t in _t_terms(n)),
                      1.0, -_harmonic_minus_gamma(n)])


def _stirlerr(z: float) -> float:
    """log Gamma(z + 1) - (z + 1/2) log z + z - 1/2 log 2 pi, for z > 0.

    Below 8 the recurrence stirlerr(z) = stirlerr(z + 1) + (z + 1/2) log(1 + 1/z) - 1
    carries z up to where the series is accurate.
    """
    shift = 0.0
    while z < 8.0:
        shift += (z + 0.5) * math.log1p(1.0 / z) - 1.0
        z += 1.0
    return shift + _odd_series(z, _STIRLING)


def log_gamma_ratio(x: float, a: float) -> float:
    """log Gamma(x + a) - log Gamma(x) for x, x + a > 0, from Stirling
    remainders: no two large log-gamma values cancel."""
    return (_stirlerr(x + a) - _stirlerr(x) + a * math.log(x)
            + (x + a - 0.5) * math.log1p(a / x) - a)


def log_beta_remainder(x: float, y: float) -> float:
    """log B(x + 1, y + 1) - (x log x + y log y - m log m), m = x + y, for x, y > 0.

    The part taken out scales exactly by q under (x, y) -> (q x, q y); the
    O(log m) rest is the negated constant of Loader's Beta log density.
    """
    m = x + y
    return -(math.log(m + 1.0) + _stirlerr(m) - _stirlerr(x) - _stirlerr(y)
             + 0.5 * (math.log(m / (x * y)) - _LOG_2PI))


def _split(a):
    """Veltkamp's split of a into hi + lo, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _deviance(x, mu: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Loader's bd0, x log(x / mu) + mu - x, for x > 0 and d = mu - x, by its
    plain expression x log(x / mu) + d; x is one value or one per node.
    Computed in place, so few node-sized temporaries live."""
    with np.errstate(divide="ignore"):
        out = np.divide(x, mu)
        np.log(out, out=out)
    out *= x
    out += d
    return out


def _deviance_series(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """bd0 where |d| < x / 5, one x per entry: the series in v = d / (2x + d),
    -x v (2 sum_{j>=1} v^2j / (2j+1) - d / x), free of the cancellation
    between the two leading terms of the plain expression."""
    t = d / x
    v = t + 2.0
    np.divide(t, v, out=v)
    w = v * v
    # x v (t - 2 w s) with s = sum_{j=1..8} w^(j-1) / (2j + 1) by Horner's rule
    s = np.full(w.shape, 1.0 / 17.0)
    for j in range(7, 0, -1):
        s *= w
        s += 1.0 / (2 * j + 1)
    w *= 2.0
    s *= w
    np.subtract(t, s, out=s)
    v *= x
    s *= v
    return s


def _loader(x, y, c, u: np.ndarray) -> np.ndarray:
    """Loader's form c - bd0(x, m u) - bd0(y, m (1 - u)) at the 1-d nodes u,
    for m = x + y and the constant c = -log_beta_remainder(x, y); x, y and c
    are one law's values or one value per node.

    d = m u - x is exact up to one rounding (Dekker's product): rounding
    m u first would cost d an absolute error of order eps * x.  The series
    nodes of both deviances (|d| < x / 5 and |d| < y / 5) go through one
    ``_deviance_series`` pass, before the plain expressions.
    """
    m = x + y
    mu = m * u
    m_hi, m_lo = _split(m)
    u_hi, u_lo = _split(u)
    d = m_hi * u_hi
    d -= mu
    d += m_hi * u_lo
    d += m_lo * u_hi
    d += m_lo * u_lo
    del u_hi, u_lo
    d += mu - x
    dist = np.abs(d)
    near_x, near_y = dist < 0.2 * x, dist < 0.2 * y
    del dist
    kx = np.count_nonzero(near_x)
    series = np.concatenate([d[near_x], -d[near_y]])
    if series.size:
        side = np.empty(series.size)
        side[:kx] = x[near_x] if isinstance(x, np.ndarray) else x
        side[kx:] = y[near_y] if isinstance(y, np.ndarray) else y
        series = _deviance_series(side, series)
    out = _deviance(x, mu, d)
    del mu
    out[near_x] = series[:kx]
    np.subtract(c, out, out=out)
    mu = np.subtract(1.0, u)
    mu *= m
    np.negative(d, out=d)
    other = _deviance(y, mu, d)
    other[near_y] = series[kx:]
    out -= other
    return out


def _direct(x, y, c, u: np.ndarray) -> np.ndarray:
    """The direct form c + x log u + y log(1 - u) of the Beta(x + 1, y + 1)
    log density, c = -log B(x + 1, y + 1) from ``_direct_constant``; x, y
    and c broadcast against u, whose shape is the result's.

    A zero exponent drops its term, so 0 log 0 = 0 at the ends where
    a = 1 or b = 1.  Within 1e-13 relative while min(a, b) <= 2, where
    ``beta_log_density`` uses it; beyond, its large terms cancel, and the
    error grows like eps (a + b) |log u|.
    """
    out = np.empty(u.shape)
    out[...] = c
    with np.errstate(divide="ignore", invalid="ignore"):
        for e, of_one_minus in ((x, False), (y, True)):
            keep = _nonzero(e)
            if keep is False:
                continue
            t = np.log1p(-u) if of_one_minus else np.log(u)
            t *= e
            np.add(out, t, out=out, where=keep)
    return out


def _nonzero(e):
    """Where the exponent e is nonzero: a mask, or one bool when e is one
    value or is nowhere zero."""
    if not isinstance(e, np.ndarray):
        return bool(e != 0.0)
    return bool(np.count_nonzero(e) == e.size) or e != 0.0


def _direct_constant(a: float, b: float) -> float:
    """-log B(a, b) as lgamma(s) - log_gamma_ratio(l, s), s = min(a, b) and
    l = max(a, b): no two large log-gammas cancel while s <= 2."""
    small, large = min(a, b), max(a, b)
    return log_gamma_ratio(large, small) - math.lgamma(small)


def _law(a: float, b: float) -> tuple:
    """(form, x, y, c): the form of the Beta(a, b) log density, ``_loader``
    for a, b > 2 and ``_direct`` otherwise, and its x = a - 1, y = b - 1 and
    constant c; raises ``ValueError`` unless a and b are positive and finite."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"Beta parameters must be positive and finite, got ({a!r}, {b!r})")
    x, y = a - 1.0, b - 1.0
    if a > _LOADER_FROM and b > _LOADER_FROM:
        return _loader, x, y, -log_beta_remainder(x, y)
    return _direct, x, y, _direct_constant(a, b)


def beta_log_density(a: float, b: float, u) -> np.ndarray:
    """log of the Beta(a, b) density at u in [0, 1], in float64.

    The one Beta log density of the package: quadrature weights,
    ``distributions.beta_log_pdf`` and ``order_stats.order_stat_pdf`` all
    come from here.  For a, b > 2 it is Loader's form with x = a - 1,
    y = b - 1, m = x + y and d = m u - x:

        log(m + 1) + stirlerr(m) - stirlerr(x) - stirlerr(y) + 1/2 log(m / (2 pi x y))
            - bd0(x, m u) - bd0(y, m (1 - u))

    whose large parts cancel analytically, so it stays accurate to a few
    ulp of the deviance at any a + b.  If a or b is at most 2 it is the
    direct form (a - 1) log u + (b - 1) log(1 - u) - log B(a, b), whose
    normalizer lgamma(s) - log_gamma_ratio(l, s) for s = min(a, b) and
    l = max(a, b) then has no two large log-gammas to cancel.
    Parameters that are not positive and finite raise ``ValueError``.
    """
    form, *law = _law(a, b)
    u = np.asarray(u, dtype=float)
    return form(*law, u.ravel()).reshape(u.shape)


def beta_log_densities(a, b):
    """The function ``(u, problem) -> logw`` with ``logw[j] =
    beta_log_density(a[i], b[i], u[j])`` for i = ``problem[j]``, for
    sequences of positive, finite a and b; ``u`` is 1-d and ``problem`` is
    one index per node, or one index for all nodes.

    Each law's constant is computed once, here.  A call with one index
    evaluates that law's form on scalars, as ``beta_log_density`` does; a
    call with one index per node gathers x, y and the constant by node and
    evaluates every node of Loader's form in one pass and every node of the
    direct form in another, each bit-identical to its law's own call.
    """
    laws = [_law(float(p), float(q)) for p, q in zip(a, b)]
    by_law = []  # Loader's flag, x, y and c as arrays, made by the first call that gathers

    def log_density(u: np.ndarray, problem) -> np.ndarray:
        if not isinstance(problem, np.ndarray):
            form, *law = laws[problem]
            return form(*law, u)
        if not by_law:
            by_law.append(np.array([law[0] is _loader for law in laws]))
            by_law.extend(np.array([law[1:] for law in laws]).T)
        at, *by_node = [v[problem] for v in by_law]
        if at.all():
            return _loader(*by_node, u)
        if not at.any():
            return _direct(*by_node, u)
        out = np.empty(u.shape)
        for form, part in ((_loader, at), (_direct, ~at)):
            out[part] = form(*(v[part] for v in by_node), u[part])
        return out

    return log_density


# Wichura's AS241 (PPND16; Applied Statistics 37, 1988): for each of its
# three rational functions, the numerator and denominator coefficients,
# highest power first: in x = r - 5 where r = sqrt(-log s) > 5 for
# s = min(p, 1 - p), in x = r - 1.6 where r <= 5 and s < 0.075, and in
# x = 0.180625 - (p - 1/2)^2 where s >= 0.075, that is |p - 1/2| <= 0.425.
_FAR, _TAIL, _CENTRAL = 0, 1, 2
_AS241 = (
    ((2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
      2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
      5.4637849111641143699e+0, 6.6579046435011037772e+0),
     (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
      7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
      5.9983220655588793769e-1, 1.0)),
    ((7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
      1.2704582524523683826e+0, 3.6478483247632045281e+0, 5.7694972214606914055e+0,
      4.6303378461565452959e+0, 1.4234371107496835773e+0),
     (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
      1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
      2.0531916266377588219e+0, 1.0)),
    ((2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
      4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
      1.3314166789178437745e+2, 3.3871328727963666080e+0),
     (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
      2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
      4.2313330701600911252e+1, 1.0)),
)
# nodes per pass: bounds the temporaries whatever the input size
_NDTRI_CHUNK = 8192


def _horner(coef, x: np.ndarray) -> np.ndarray:
    """sum coef[i] x^(7 - i) by Horner's rule."""
    acc = coef[0] * x
    for c in coef[1:-1]:
        acc += c
        acc *= x
    acc += coef[-1]
    return acc


def _horner_compensated(coef, x: np.ndarray) -> np.ndarray:
    """``_horner`` as if in twice the working precision (Graillat, Langlois
    and Louvet, 2005): the rounding error of every product (Dekker's, on
    ``_split`` halves) and of every sum (Knuth's TwoSum) is carried in a
    second Horner sum and added at the end."""
    x_hi, x_lo = _split(x)
    s = np.full_like(x, coef[0])
    e = np.zeros_like(x)
    for c in coef[1:]:
        prod = s * x
        s_hi, s_lo = _split(s)
        prod_err = ((s_hi * x_hi - prod) + s_hi * x_lo + s_lo * x_hi) + s_lo * x_lo
        s = prod + c
        z = s - prod
        sum_err = (prod - (s - z)) + (c - z)
        e *= x
        e += prod_err + sum_err
    return s + e


def _as241_rational(branch: int, x: np.ndarray) -> np.ndarray:
    """num(x) / den(x) of one AS241 branch.

    The far branch, where x reaches 22, sums by compensated Horner: plain
    Horner loses up to 6 ulp of the quantile there, and 3 elsewhere.
    """
    num, den = _AS241[branch]
    if branch == _FAR:
        return _horner_compensated(num, x) / _horner_compensated(den, x)
    n = _horner(num, x)
    return np.divide(n, _horner(den, x), out=n)


def _ndtri_chunk(p: np.ndarray, out: np.ndarray) -> None:
    """AS241 on a 1-d chunk, written into ``out``: each branch on its own nodes."""
    s = np.subtract(1.0, p)
    np.minimum(p, s, out=s)  # min(p, 1 - p), exact
    bad = None
    if not s.min() > 0.0:  # p = 0, p = 1, p outside [0, 1] or NaN
        bad = ~(s > 0.0)
        given = p[bad]
        p = np.where(bad, 0.5, p)
        s[bad] = 0.5
    q = p - 0.5
    tail = s < 0.075
    if tail.any():
        central = np.flatnonzero(~tail)
        tail = np.flatnonzero(tail)
        qc = q[central]
        out[central] = _as241_rational(_CENTRAL, 0.180625 - qc * qc) * qc
        r = np.sqrt(-np.log(s[tail]))
        far = r > 5.0
        i = tail[~far]
        out[i] = np.copysign(_as241_rational(_TAIL, r[~far] - 1.6), q[i])
        if far.any():
            i = tail[far]
            out[i] = np.copysign(_as241_rational(_FAR, r[far] - 5.0), q[i])
    else:
        np.multiply(_as241_rational(_CENTRAL, 0.180625 - q * q), q, out=out)
    if bad is not None:
        out[bad] = np.where(given == 0.0, -np.inf, np.where(given == 1.0, np.inf, np.nan))


def ndtri(p):
    """Standard normal quantile Phi^{-1}(p), elementwise in float64.

    Wichura's AS241, with the far tail (p or 1 - p below e^-25) summed by
    compensated Horner.  p = 0 and p = 1 give -inf and +inf; p outside
    [0, 1] or NaN gives NaN.  Arrays are done in fixed-size chunks, so the
    temporaries do not grow with the input; a scalar is a one-node chunk.
    """
    arr = np.asarray(p, dtype=float)
    flat = arr.ravel()
    out = np.empty(flat.size)
    for s in range(0, flat.size, _NDTRI_CHUNK):
        _ndtri_chunk(flat[s:s + _NDTRI_CHUNK], out[s:s + _NDTRI_CHUNK])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# Cody's rational approximations to the normal CDF (W. J. Cody, "Rational
# Chebyshev approximations for the error function", Math. Comp. 23, 1969; as
# in his ANORM): numerator and denominator coefficients of each branch, in
# x^2 where |x| <= 0.67448975, in |x| where |x| <= sqrt(32), and in 1/x^2
# beyond.
_CODY_CENTRAL = (
    (2.2352520354606839287e+00, 1.6102823106855587881e+02, 1.0676894854603709582e+03,
     1.8154981253343561249e+04, 6.5682337918207449113e-02),
    (4.7202581904688241870e+01, 9.7609855173777669322e+02, 1.0260932208618978205e+04,
     4.5507789335026729956e+04))
_CODY_MIDDLE = (
    (3.9894151208813466764e-01, 8.8831497943883759412e+00, 9.3506656132177855979e+01,
     5.9727027639480026226e+02, 2.4945375852903726711e+03, 6.8481904505362823326e+03,
     1.1602651437647350124e+04, 9.8427148383839780218e+03, 1.0765576773720192317e-08),
    (2.2266688044328115691e+01, 2.3538790178262499861e+02, 1.5193775994075548050e+03,
     6.4855582982667607550e+03, 1.8615571640885098091e+04, 3.4900952721145977266e+04,
     3.8912003286093271411e+04, 1.9685429676859990727e+04))
_CODY_FAR = (
    (2.1589853405795699e-01, 1.274011611602473639e-01, 2.2235277870649807e-02,
     1.421619193227893466e-03, 2.9112874951168792e-05, 2.307344176494017303e-02),
    (1.28426009614491121e+00, 4.68238212480865118e-01, 6.59881378689285515e-02,
     3.78239633202758244e-03, 7.29751555083966205e-05))


def _cody(coef, t: np.ndarray) -> np.ndarray:
    """Cody's ratio of numerator and denominator in t, summed in the order of
    his ANORM."""
    num, den = coef
    xnum, xden = num[-1] * t, t.copy()
    for cn, cd in zip(num[:-2], den[:-1]):
        xnum += cn
        xnum *= t
        xden += cd
        xden *= t
    return (xnum + num[-2]) / (xden + den[-1])


def ndtr(x):
    """Standard normal CDF Phi(x), elementwise in float64.

    Cody's three rational approximations: Phi(x) = 1/2 + x R(x^2) for
    |x| <= 0.67448975; beyond, the smaller tail is exp(-x^2/2) R(|x|) up to
    sqrt(32) and exp(-x^2/2) (1/sqrt(2 pi) - R(1/x^2)/x^2)/|x| further out,
    and the larger is one minus it.  x^2/2 is split at |x| rounded down to a
    multiple of 1/16, whose square is exact, so the Gaussian factor carries
    no error that grows with |x|: within 4 ulp of the true value over
    +-[0, 38], subnormal tails included.  -inf, inf and NaN give 0, 1 and
    NaN.
    """
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    out = np.empty(flat.size)
    central = np.abs(flat) <= 0.67448975
    xc = flat[central]
    out[central] = 0.5 + xc * _cody(_CODY_CENTRAL, xc * xc)
    y = np.abs(flat[~central])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = 1.0 / (y * y)
        ratio = np.where(y <= math.sqrt(32.0), _cody(_CODY_MIDDLE, y),
                         (1.0 / math.sqrt(2.0 * math.pi) - t * _cody(_CODY_FAR, t)) / y)
        whole = np.trunc(y * 16.0) / 16.0
        tail = np.exp(-0.5 * whole * whole) * np.exp(-0.5 * (y - whole) * (y + whole)) * ratio
    tail[np.isinf(y)] = 0.0
    out[~central] = np.where(flat[~central] > 0.0, 1.0 - tail, tail)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# The continued fraction of I_x(a, b) (DiDonato and Morris's BFRAC, in the
# even/odd form of Numerical Recipes' betacf):
#   I_x(a, b) = P / (a (1 + d_1 / (1 + d_2 / (1 + ...)))),  P = x^a (1 - x)^b / B(a, b),
#   d_1 = -(a + b) x / (a + 1),  d_2m = m (b - m) x / ((a + 2m - 1)(a + 2m)),
#   d_2m+1 = -(a + m)(a + b + m) x / ((a + 2m)(a + 2m + 1)),
# used below the split x = (a + 1) / (a + b + 2), where it converges
# fastest; beyond, the same fraction of the mirrored law at 1 - x gives
# 1 - I_x(a, b).  Each side's fraction converges slowest at the split, so
# Lentz's scalar pass there, stopped once a double step changes the value by
# a factor within _CF_TOL of 1 (or after _CF_MAX double steps), gives the
# length of every node's fraction on that side, evaluated bottom-up.
_CF_TOL = 2.0**-53
_CF_MAX = 10**6
_CF_BLOCK = 64  # levels per block of coefficient rows, so the block stays small
_TINY = 1e-300


def _fraction_length(a: float, b: float, x: float, x1: float) -> int:
    """The number m of double steps that Lentz's method takes on the
    fraction 1 / (1 + d_1 / (1 + ...)) at a scalar x, given x1 = 1 - x.

    Where x > 1/2 each odd level's 1 + d_2j+1 is e_j + c_j x1, as in
    ``_reciprocal``, and Lentz's D and C enter it as 1 - D and C - 1, which
    the even level before gives without cancellation: otherwise the
    rounding of x makes the steps stall at ~1e-11 on skewed laws and stop
    at a chance exact step."""
    near = x > 0.5

    def odd(j: int) -> float:  # 1 + d_2j+1
        den = (a + 2 * j) * (a + 2 * j + 1.0)
        c = (a + j) * (a + b + j) / den
        return (a * (2 * j + 1.0 - b) + j * (3 * j + 2.0 - b)) / den + c * x1 if near else 1.0 - c * x

    v = odd(0)
    d_odd, c_odd = 1.0 / (v if abs(v) > _TINY else _TINY), 1.0
    m = 0
    while m < _CF_MAX:
        m += 1
        dj = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        v = 1.0 + dj * d_odd
        d_even = 1.0 / (v if abs(v) > _TINY else _TINY)
        d_even_1 = dj * d_odd * d_even  # 1 - D
        c_even_1 = dj / c_odd  # C - 1
        c_even = 1.0 + c_even_1
        c_even = c_even if abs(c_even) > _TINY else _TINY
        v = odd(m)
        d_odd = d_even_1 + d_even * v
        d_odd = 1.0 / (d_odd if abs(d_odd) > _TINY else _TINY)
        c_odd = (c_even_1 + v) / c_even
        c_odd = c_odd if abs(c_odd) > _TINY else _TINY
        if not abs(d_even * c_even * d_odd * c_odd - 1.0) >= _CF_TOL:  # NaN stops too
            break
    return m


def _coefficients(a: float, b: float, m: int) -> tuple:
    """(c, e, g), j = 0..m: the fraction after m double steps has d_2j+1 =
    -c_j x and d_2j = g_j x (g_0 = 0, unused), and e_j = 1 - c_j, formed
    from its numerator a (2j + 1 - b) + j (3j + 2 - b) without cancellation."""
    j = np.arange(m + 1.0)
    den = (a + 2.0 * j) * (a + 2.0 * j + 1.0)
    g = np.zeros_like(j)
    g[1:] = j[1:] * (b - j[1:]) / ((a + 2.0 * j[1:] - 1.0) * (a + 2.0 * j[1:]))
    return ((a + j) * (a + b + j) / den, (a * (2.0 * j + 1.0 - b) + j * (3.0 * j + 2.0 - b)) / den, g)


def _fractions(a: float, b: float) -> tuple:
    """(split, ((a, coefficients), (b, coefficients))): the split and, below
    and above it, the first parameter and the coefficients of the fraction
    run there."""
    split = (a + 1.0) / (a + b + 2.0)
    return split, ((a, _coefficients(a, b, _fraction_length(a, b, split, 1.0 - split))),
                   (b, _coefficients(b, a, _fraction_length(b, a, 1.0 - split, split))))


def _reciprocal(coefficients: tuple, x: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """1 + d_1 / (1 + d_2 / (... / (1 + d_2m+1))) at each of x, given x1 = 1 -
    x: the reciprocal of the fraction, bottom-up.

    Each odd level is (1 + d_2j+1 + s) / (1 + s), with s = d_2j+2 over the
    level below.  Where x > 1/2, 1 + d_2j+1 = 1 - c_j x is taken as e_j +
    c_j x1: c_j x is then near 1 on skewed laws, and the rounding of x
    would cancel to a relative error ~2^-53 / (1 - x) in the tail."""
    c, e, g = coefficients
    near = x > 0.5
    s, t = np.zeros_like(x), np.empty_like(x)
    for end in range(c.size, 0, -_CF_BLOCK):
        rows = slice(max(0, end - _CF_BLOCK), end)
        odd = np.where(near, np.multiply.outer(c[rows], x1) + e[rows, None],
                       1.0 - np.multiply.outer(c[rows], x))
        even = np.multiply.outer(g[rows], x)
        for odd_j, even_j in zip(odd[::-1], even[::-1]):
            np.add(odd_j, s, out=t)
            s += 1.0
            t /= s
            np.divide(even_j, t, out=s)
    return t


def _log_tail(x: np.ndarray, x1: np.ndarray, log_p: np.ndarray, upper: np.ndarray,
              fractions: tuple) -> np.ndarray:
    """log T at each of x in (0, 1), given 1 - x and log P, P = x^a (1 -
    x)^b / B(a, b): T is the upper tail 1 - I_x(a, b) where ``upper`` and
    the lower tail I_x(a, b) elsewhere.  The fraction runs on the side of
    the split that x lies on, and the other tail is one minus that side's.
    """
    split, sides = fractions
    below = x < split
    log_t = np.empty_like(x)
    for at, v, v1, flip, (p, c) in zip((below, ~below), (x, x1), (x1, x), (False, True),
                                         sides):
        if not at.any():
            continue
        t = log_p[at] - math.log(p) - np.log(_reciprocal(c, v[at], v1[at]))
        log_t[at] = np.where(upper[at] != flip, np.log(-np.expm1(t)), t)
    return log_t


def betainc(a: float, b: float, x, upper: bool = False):
    """The regularized incomplete Beta I_x(a, b), or 1 - I_x(a, b) if
    ``upper``, elementwise in x, for positive finite a and b.

    Each tail is accurate relative to itself: the continued fraction runs on
    the side of the mean where it converges, so a small tail is never one
    minus a rounded larger one.  Its prefactor is exp(log x + log(1 - x) +
    log f(x)) with f Loader's Beta density, so for moderate a and b the
    relative error grows like eps |log T| in a tail T; near the mean of laws
    with a + b ~ 1e7 the fraction's own rounding reaches ~1.5e-13, skewed
    laws such as Beta(2, 1e7) included.  x = 0 and x = 1 give the exact
    ends; x outside [0, 1] or NaN gives NaN.
    """
    _law(a, b)
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    out = np.where(flat == 0.0, float(upper), np.where(flat == 1.0, float(not upper), np.nan))
    inside = (flat > 0.0) & (flat < 1.0)
    if inside.any():
        xi = flat[inside]
        log_p = np.log(xi) + np.log1p(-xi) + beta_log_density(a, b, xi)
        out[inside] = np.exp(_log_tail(xi, 1.0 - xi, log_p, np.full(xi.shape, bool(upper)),
                                       _fractions(a, b)))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# Halley's step ends a node once the log tail is within _HALLEY_DONE of its
# target: the step then leaves an error of order _HALLEY_DONE^3.  Every node
# is bracketed in |y| <= _Y_LIMIT, where min(x, 1 - x) = 5e-324.
_HALLEY_DONE = 2.0**-20
_Y_LIMIT = 745.0
_MAX_STEPS = 100


def _start(a: float, b: float, log_t: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """A start y for ``_logit_quantile``: the normal approximation of
    Abramowitz and Stegun 26.5.22 where a, b >= 1, the power tails of
    Numerical Recipes' ``invbetai`` otherwise, and where a tail is small,
    its power tail I_x ~ x^a / (a B(a, b)) or 1 - I_x ~ (1 - x)^b / (b B(a, b))."""
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    with np.errstate(divide="ignore", invalid="ignore"):
        if a >= 1.0 and b >= 1.0:
            z = ndtri(np.exp(log_t))
            z = np.where(upper, z, -z)
            lam = (z * z - 3.0) / 6.0
            h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
            w = (z * np.sqrt(h + lam) / h
                 - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h)))
            y = math.log(a / b) - 2.0 * w
        else:
            log_a_mass = a * math.log(a / (a + b)) - math.log(a)
            log_mass = np.logaddexp(log_a_mass, b * math.log(b / (a + b)) - math.log(b))
            log_lower = np.where(upper, np.log(-np.expm1(log_t)), log_t)
            log_upper = np.where(upper, log_t, np.log(-np.expm1(log_t)))
            log_x = (log_mass + math.log(a) + log_lower) / a
            log_1mx = (log_mass + math.log(b) + log_upper) / b
            y = np.where(log_lower < log_a_mass - log_mass, log_x - np.log(-np.expm1(log_x)),
                         np.log(-np.expm1(log_1mx)) - log_1mx)
        log_x = (log_t + math.log(a) + log_beta) / a
        log_1mx = (log_t + math.log(b) + log_beta) / b
        y = np.where(~upper & (log_x < math.log(0.1 / (b + 1.0))), log_x - np.log1p(-np.exp(log_x)), y)
        y = np.where(upper & (log_1mx < math.log(0.1 / (a + 1.0))), np.log1p(-np.exp(log_1mx)) - log_1mx, y)
    return np.clip(np.nan_to_num(y, nan=0.0), -_Y_LIMIT, _Y_LIMIT)


def _at_logit(a: float, b: float, y: np.ndarray) -> tuple:
    """(x, 1 - x, log P) at y = logit(x): each of x and 1 - x from the smaller
    one, and the density of the mirrored law at 1 - x where x > 1/2."""
    e = np.exp(-np.abs(y))
    small = e / (1.0 + e)
    log_p = -2.0 * np.log1p(e) - np.abs(y)  # log x + log(1 - x)
    low = y <= 0.0
    if low.all():
        log_p += beta_log_density(a, b, small)
        return small, 1.0 - small, log_p
    log_p[low] += beta_log_density(a, b, small[low])
    log_p[~low] += beta_log_density(b, a, small[~low])
    return np.where(low, small, 1.0 - small), np.where(low, 1.0 - small, small), log_p


def _logit_quantile(a: float, b: float, w: np.ndarray) -> np.ndarray:
    """y = logit(x) of the Beta(a, b) quantile x at u = expit(w), for finite w.

    The target is the smaller of u and 1 - u, log expit(-|w|), exact from w;
    it is the lower tail where w <= 0 and the upper beyond.  In y the log
    tail is concave (the Beta law in logit coordinates is log-concave), with
    derivative D = +-P / T and second derivative D (a (1 - x) - b x - D), so
    Newton steps from any start converge; each node takes Halley's step
    once it is close, and a step that leaves the node's bracket bisects it.
    """
    upper = w > 0.0
    log_t = -np.abs(w) - np.log1p(np.exp(-np.abs(w)))
    y = _start(a, b, log_t, upper)
    fractions = _fractions(a, b)
    # the nodes still iterating: their indices, iterates, brackets, targets and tails
    at, ya, up, target = np.arange(y.size), y.copy(), upper, log_t
    lo, hi = np.full_like(y, -_Y_LIMIT), np.full_like(y, _Y_LIMIT)
    for _ in range(_MAX_STEPS):
        x, x1, log_p = _at_logit(a, b, ya)
        tail = _log_tail(x, x1, log_p, up, fractions)
        g = tail - target
        d = np.exp(log_p - tail)
        d = np.where(up, -d, d)
        # the root lies above y where the tail is below its target on the rising (lower) tail
        rising = (g < 0.0) == (d > 0.0)
        lo, hi = np.where(rising, ya, lo), np.where(rising, hi, ya)
        ratio = 0.5 * g * (a * x1 - b * x - d) / d
        halley = np.abs(ratio) < 0.5
        new = ya - g / (d * np.where(halley, 1.0 - ratio, 1.0))
        done = halley & (np.abs(g) <= _HALLEY_DONE)
        ya = np.where(done | ((new >= lo) & (new <= hi)), new, 0.5 * (lo + hi))
        y[at] = ya
        if done.all():
            break
        if done.any():
            keep = ~done
            at, ya, up, target, lo, hi = at[keep], ya[keep], up[keep], target[keep], lo[keep], hi[keep]
    return y


def beta_logit_quantile(a: float, b: float, w):
    """logit of the Beta(a, b) quantile at u = expit(w), elementwise in w.

    Working in w = logit(u) and y = logit(x) keeps both tails of u and of x
    exact: beyond x = 1/2 the iteration reads 1 - x and the density from
    the mirrored law Beta(b, a); see ``_logit_quantile``.  w = -inf and inf
    give -inf and inf, NaN gives NaN; a and b must be positive and finite.
    """
    _law(a, b)
    arr = np.asarray(w, dtype=float)
    flat = arr.ravel()
    out = np.where(np.isinf(flat), flat, np.nan)
    finite = np.isfinite(flat)
    if finite.any():
        out[finite] = _logit_quantile(a, b, flat[finite])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)
