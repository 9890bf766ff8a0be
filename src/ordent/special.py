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

Below r = 16 the sums run term by term.  The normal quantile ``ndtri`` is
Wichura's AS241, so the package needs no scipy to start.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "harmonic",
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
