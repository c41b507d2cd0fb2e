"""Non-central chi-square machinery used by the closed-form pricers.

Four layers:

* regularised incomplete gamma ratios P(a, x) = ``gammainc(a, x)`` and
  Q(a, x) = ``gammaincc(a, x)``, numpy only, broadcasting like scipy's.
  Both rest on D(a, x) = x^a e^-x / Gamma(a + 1).  Below shape 1, D is a
  product of ``pow``, ``exp`` and one Gamma(a + 1) per distinct shape;
  from 1 on, it is exp(-a rlog(x / a) - theta(a)) / sqrt(2 pi a), with
  rlog(l) = l - 1 - log l summed without cancellation from x - a and
  theta the Stirling remainder, the form of DiDonato & Morris (1986) and
  Temme (1987): near its peak its exponent is small and keeps its
  rounding, where a log x - x - lgamma(a + 1) loses a ulp's worth per
  unit of shape.  Below x = a + 1 + 3 sqrt(a), P = sum_n D(a + n, x), a
  series whose length is certified in advance, and Q = 1 - P; above, Q
  comes from a 40-node Gauss-Laguerre rule for the integral form of
  Gamma(a, x) and P = 1 - Q.  Against 30-digit mpmath on shapes 1e-3 to
  1e3 and arguments 1e-4 to 1e4 the absolute error stays below 1e-15
  (1.5e-15 where x lies within 5 sqrt(a) of a) and the relative error
  below 1e-12.  For shapes below about 1e-3 a small Q from the series is
  good to about 1e-16 absolute, not relative;
* non-central chi-square CDF/SF as a Poisson-weighted series of central
  chi-square (regularized incomplete gamma) terms over a window around
  the modal Poisson index, closed when a geometric bound on the
  remaining Poisson weights certifies the truncation error.  One gamma
  ratio per point at one end of the window gives every other shape by
  the recurrence Q(a + 1, x) = Q(a, x) + D(a, x), run upward for Q and
  downward for P so that only positive terms are added; consecutive D
  follow by the ratio x / (a + 1), re-anchored on a direct D every few
  rows so that no chain of roundings grows long;
* the location-scale extension LSNC-chi2(mu, sigma, nu, alpha):
  (Y - mu) / sigma is non-central chi-square with nu degrees of freedom
  and non-centrality alpha.  Its cumulant generating function is

      kappa(u) = -(nu/2) log(1 - 2 sigma u)
                 + alpha sigma u / (1 - 2 sigma u) + mu u,

  finite for u < 1/(2 sigma) when sigma > 0, and exponential tilting by
  theta maps the family onto itself with (sigma, alpha) / zeta,
  zeta = 1 - 2 sigma theta;
* positive linear combinations sum_j sigma_j Y_j of independent
  non-central chi-squares, evaluated by numerical inversion of the
  characteristic function (Imhof's integral) with a certified truncation
  bound on the tail of the integrand modulus; all evaluation points of
  one mixture share one vector-valued integral.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DomainViolation, InvalidParameter
from .quadrature import adaptive_gauss_kronrod

_SERIES_TOL = 1e-13
_MAX_SERIES_TERMS = 200_000
# Cap on the one-period starting panels of Imhof's integral.
_IMHOF_PANELS = 2048

_LOG_HALF_ULP = math.log(0.5 * np.finfo(float).eps)
# Shapes below this take D(a, x) from pow and exp, where Gamma(a + 1)
# is good to a few ulps; from it on, from the Stirling form.
_DIRECT_SHAPE = 1.0
# exp(-x) leaves the normal range of doubles above this argument.
_EXP_ARG_MAX = 700.0
# Longest chains of ratios D(a + 1, x) / D(a, x) taken before D is
# evaluated afresh: from the pow-and-exp form, and from the Stirling form.
_DIRECT_LADDER = 64
_LADDER = 16
# Stirling series of theta(a) = lgamma(a + 1) - (a + 1/2) log a + a
# - log(2 pi) / 2: B_2k / (2k (2k - 1)), k = 1..8; its error is below
# 1e-17 relative for a >= 10.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
             1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0)
# 40-node Gauss-Laguerre rule (weight e^-u on [0, inf)): the roots of L_40,
# Newton-refined at 40 digits, and their weights u / (41 L_41(u))^2.
_LAGUERRE_NODES = np.array([
    0.035700394308888383, 0.1881622831586985, 0.46269428131457646,
    0.8597729639729349, 1.3800108205273371, 2.0242091359228267,
    2.7933693535068165, 3.68870267790827, 4.711641146554973, 5.863850878343718,
    7.147247908102289, 8.564017017586163, 10.116634048451939,
    11.807892294004585, 13.640933712537088, 15.619285893339073,
    17.746905950095663, 20.02823283457489, 22.468249983498417,
    25.072560772426204, 27.847480009168862, 30.800145739445462,
    33.93865708491372, 37.27224588047601, 40.81149282388692, 44.56860317533446,
    48.55776353305999, 52.795611187216934, 57.301863323393626,
    62.10017907277511, 67.219370927127, 72.69515884761246, 78.57280291157132,
    84.91123113570498, 91.78987467123638, 99.32080871744681,
    107.67244063938827, 117.12230951269069, 128.20184198825564,
    142.28004446916])
_LAGUERRE_WEIGHTS = np.array([
    0.08841210619034244, 0.1768147390957223, 0.21136311701596244,
    0.1940811953186018, 0.14643428242412512, 0.09332679843577088,
    0.05093220436104424, 0.023976193015684842, 0.00977462524671446,
    0.003457939993018487, 0.0010622468938968719, 0.0002832716853243247,
    6.55094050032463e-05, 1.3116069073267784e-05, 2.268452878779365e-06,
    3.379626482200679e-07, 4.3228213222820884e-08, 4.72849377099078e-09,
    4.403174104232849e-10, 3.472441484803822e-11, 2.305381544916822e-12,
    1.2797725976766356e-13, 5.894177172351153e-15, 2.2322175799045774e-16,
    6.8803364842843024e-18, 1.7056037368180868e-19, 3.353711940666183e-21,
    5.146199560136679e-23, 6.044762511587664e-25, 5.3105847773213305e-27,
    3.392528053280522e-29, 1.521735493181457e-31, 4.585291614502687e-34,
    8.762158657486249e-37, 9.827415725147933e-40, 5.8011520191697795e-43,
    1.5309086846066869e-46, 1.381986305649328e-50, 2.5666336050123722e-55,
    2.7003609402170338e-61])


def _stirling_remainder(a):
    """theta(a) = lgamma(a + 1) - (a + 1/2) log a + a - log(2 pi) / 2 for
    shapes a >= 1 (a float or an array).

    From 10 on it is the Stirling series.  Below, it steps up by
    theta(b) = theta(b + 1) + f(b) with f(b) = (b + 1/2) log(1 + 1/b) - 1
    = sum_k s^(2k) / (2k + 1), s = 1 / (2b + 1) <= 1/3: positive terms,
    so theta keeps an absolute error of a few ulps where lgamma, or a
    Gamma function evaluated directly, would lose several more.
    """
    scalar = isinstance(a, float)
    steps = max(0, math.ceil(10.0 - (a if scalar else float(a.min()))))
    b = a + steps
    r = 1.0 / (b * b)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * r + c
    theta = series / b
    if steps:
        bs = np.arange(steps) + (a if scalar else a[:, None])
        k = np.arange(1, 18)
        s2 = (1.0 / (2.0 * bs + 1.0)) ** 2
        theta = theta + (np.power.outer(s2, k) @ (1.0 / (2 * k + 1))).sum(
            axis=-1)
    return theta


def _rlog(x, a):
    """l - 1 - log(l) for l = x / a, without cancellation near l = 1.

    Near l = 1, u = l - 1 is formed as (x - a) / a, exact but for one
    relative rounding, and with t = u / (2 + u), log l = 2 atanh t, so the
    value is 2 t^2 / (1 - t) - 2 sum_k t^(2k+3) / (2k+3): nearly
    one-signed terms, 17 of which reach double precision for |t| < 1/4.
    """
    u = (x - a) / a
    out = u - np.log(x / a)
    t = u / (2.0 + u)
    near = np.abs(t) < 0.25
    if np.count_nonzero(near):
        t = t[near]
        t2 = t * t
        k = np.arange(17)
        tail = np.power.outer(t2, k) @ (1.0 / (2 * k + 3))
        out[near] = 2.0 * t2 / (1.0 - t) - 2.0 * t * t2 * tail
    return out


def _gamma_prefactor(a, x, x_max=None):
    """D(a, x) = x^a e^-x / Gamma(a + 1) for x > 0; ``a`` is a float or
    an array aligned with ``x``, ``x_max`` the largest x if known.

    Below shape 1, while e^-x is a normal double, D is a product of pow
    and exp with one Gamma(a + 1) per distinct shape; from shape 1 on, it
    is exp(-a rlog(x / a) - theta(a)) / sqrt(2 pi a).
    """
    if isinstance(a, float):
        if a >= _DIRECT_SHAPE:
            return (np.exp(-a * _rlog(x, a) - _stirling_remainder(a))
                    / math.sqrt(2.0 * math.pi * a))
        if x_max is None:
            x_max = np.maximum.reduce(x)
        if x_max < _EXP_ARG_MAX:
            return np.power(x, a) * np.exp(-x) / math.gamma(a + 1.0)
        a = np.full(x.shape, a)
    d = np.empty_like(x)
    direct = a < _DIRECT_SHAPE
    if np.count_nonzero(direct):
        ad, xd = a[direct], x[direct]
        shapes, inverse = np.unique(ad, return_inverse=True)
        inv_gamma = 1.0 / np.array([math.gamma(v + 1.0) for v in shapes])
        near = np.minimum(xd, _EXP_ARG_MAX)
        d[direct] = np.where(xd < _EXP_ARG_MAX,
                             np.power(near, ad) * np.exp(-near),
                             np.exp(ad * np.log(xd) - xd)) * inv_gamma[inverse]
    big = ~direct
    if np.count_nonzero(big):
        ab = a[big]
        shapes, inverse = np.unique(ab, return_inverse=True)
        theta = _stirling_remainder(shapes)[inverse]
        d[big] = (np.exp(-ab * _rlog(x[big], ab) - theta)
                  / np.sqrt(2.0 * math.pi * ab))
    return d


def _series_length(a_min: float, x_max: float) -> int:
    """Terms n of the P series after which, for every shape a >= a_min
    and argument x <= x_max, the geometric bound t_n x / (a + n + 1 - x)
    on the rest is below half an ulp of the sum (which is at least one);
    t_n = prod_{k<=n} x / (a + k) is largest at (a_min, x_max)."""
    log = math.log
    log_t = 0.0
    n = 0
    while True:
        n += 1
        log_t += log(x_max / (a_min + n))
        gap = a_min + n + 1.0 - x_max
        if gap > 0.0 and log_t + log(x_max / gap) <= _LOG_HALF_ULP:
            return n


# Lengths certified at shape 0, and so at every shape, for arguments up
# to each of a few small bounds: most calls need no search.
_SHORT_SERIES_ARGS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
_SHORT_SERIES_TERMS = tuple(_series_length(0.0, x) for x in _SHORT_SERIES_ARGS)


def _prefactor_ladder(a, x, count: int, first):
    """D(a + i, x) for i < count as a (count, len(x)) array, ``first``
    being D(a, x).

    Rows follow each other by D(a + i, x) = D(a + i - 1, x) x / (a + i),
    each ratio adding about one rounding.  A chain that starts from the
    pow-and-exp form, exact to a few ulps, runs up to _DIRECT_LADDER
    rows.  The Stirling form's error grows with its exponent
    a rlog(x / a), about (i - (x - a))^2 / (2a) at row i, so from it D is
    evaluated afresh every sqrt(a) rows (2 to _LADDER): the chain feeding
    any row near the peak of D then starts where the exponent is small.
    """
    scalar = isinstance(a, float)
    a_row = a if scalar else a[None, :]
    a_min, a_max = (a, a) if scalar else (float(a.min()), float(a.max()))
    direct = a_max < _DIRECT_SHAPE
    step = int(min(_LADDER, max(2.0, math.sqrt(
        a_min + (_DIRECT_LADDER if direct else 0.0)))))
    head = min(_DIRECT_LADDER if direct else step, count)
    rows = head + -(-(count - head) // step) * step
    d = np.empty((rows, x.size))
    d[0] = first
    # a + i with i exact: an arange starting at a would step by a rounded 1
    np.divide(x, np.arange(1.0, rows)[:, None] + a_row, out=d[1:])
    if rows > head:
        starts = np.arange(head, rows, step)
        shapes = np.broadcast_to(starts[:, None] + a_row,
                                 (starts.size, x.size))
        d[starts] = _gamma_prefactor(shapes.ravel(),
                                     np.tile(x, starts.size)).reshape(
                                         shapes.shape)
        tail = d[head:].reshape(-1, step, x.size)
        np.multiply.accumulate(tail, axis=1, out=tail)
    chain = d[:head]
    np.multiply.accumulate(chain, axis=0, out=chain)
    return d[:count]


def _lower_series(a, x, d, x_max: float):
    """P(a, x) = sum_{n>=0} D(a + n, x), with as many terms as certify
    every point up to ``x_max``; ``d`` is D(a, x)."""
    i = bisect.bisect_left(_SHORT_SERIES_ARGS, x_max)
    if i < len(_SHORT_SERIES_ARGS):
        n = _SHORT_SERIES_TERMS[i]
    else:
        n = _series_length(a if isinstance(a, float) else float(a.min()),
                           x_max)
    return np.add.reduce(_prefactor_ladder(a, x, n + 1, d), axis=0)


def _upper_quadrature(a, x, d):
    """Q(a, x) for x >= a + 1 + 3 sqrt(a) by Gauss-Laguerre.

    Gamma(a, x) = x^(a-1) e^-x int_0^inf e^-s (1 + s/x)^(a-1) ds; with
    s = u x h, h = 1 / (x - a + 1), the integrand becomes
    e^-u exp((a - 1)(log1p(u h) - u h)), smooth on [0, inf) with its
    branch point at u = -1/h <= -2, so Q = a D h sum_j w_j g(u_j).
    Capping h at 1/2 changes nothing there and keeps the value finite
    at any other point.
    """
    h = 1.0 / np.maximum(x + (1.0 - a), 2.0)
    t = np.multiply.outer(h, _LAGUERRE_NODES)
    g = np.log1p(t)
    g -= t
    g *= (a if isinstance(a, float) else a[:, None]) - 1.0
    np.exp(g, out=g)
    return (a * d) * (h * (g @ _LAGUERRE_WEIGHTS))


def _live_ratio(a, x, upper: bool, x_max: float):
    """P(a, x), or Q(a, x) with ``upper``, for a, x > 0 and finite, where
    ``x_max`` is the largest x.

    Points below x = a + 1 + 3 sqrt(a) take the series, the rest the
    quadrature.  When both kinds occur, both forms run on every point
    (the series with x capped at that bound, where its length stays
    short) and the result picks per point: two vector passes cost less
    than splitting and reassembling the points.
    """
    scalar = isinstance(a, float)
    d = _gamma_prefactor(a, x, x_max)
    bound = a + 1.0 + 3.0 * (math.sqrt(a) if scalar else np.sqrt(a))
    if scalar and x_max < bound:  # every point below: no mask needed
        n_lower = x.size
    else:
        lower = x < bound
        n_lower = np.count_nonzero(lower)
    if n_lower == x.size:
        p = _lower_series(a, x, d, x_max)
        return 1.0 - p if upper else p
    q = _upper_quadrature(a, x, d)
    if not n_lower:
        return q if upper else 1.0 - q
    x_low = np.minimum(x, bound)
    p = _lower_series(a, x_low, d,
                      min(x_max, bound) if scalar else float(x_low.max()))
    if upper:
        return np.where(lower, 1.0 - p, q)
    return np.where(lower, p, 1.0 - q)


def _gamma_ratio(a, x, upper: bool):
    """P(a, x) or, with ``upper``, Q(a, x), broadcast over a and x.

    NaN where a <= 0 or x < 0 (or either is NaN); P(a, 0) = 0 and
    P(a, inf) = 1.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(a, float) or np.ndim(a) == 0:
        a = float(a)
        # one shape over a vector of ordinary points: no masks needed
        if 0.0 < a < math.inf and x.ndim == 1 and x.size:
            x_max = float(np.maximum.reduce(x))
            if np.minimum.reduce(x) > 0.0 and x_max < math.inf:
                return _live_ratio(a, x, upper, x_max)
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), x)
    shape = x.shape
    a, x = a.ravel(), x.ravel()
    valid_a = (a > 0.0) & (a < math.inf)
    live = valid_a & (x > 0.0) & (x < math.inf)
    out = np.full(x.shape, math.nan)
    out[valid_a & (x == 0.0)] = 1.0 if upper else 0.0
    out[valid_a & (x == math.inf)] = 0.0 if upper else 1.0
    if np.count_nonzero(live):
        x_live = x[live]
        out[live] = _live_ratio(a[live], x_live, upper, float(x_live.max()))
    out = out.reshape(shape)
    return float(out) if out.ndim == 0 else out


def gammainc(a, x):
    """Regularised lower incomplete gamma ratio gamma(a, x) / Gamma(a)."""
    return _gamma_ratio(a, x, upper=False)


def gammaincc(a, x):
    """Regularised upper incomplete gamma ratio Q(a, x) = 1 - P(a, x)."""
    return _gamma_ratio(a, x, upper=True)


def _poisson_window(alpha_nc: float, tol: float):
    """Lowest Poisson(alpha/2) index of a window around the mode covering
    all but at most tol of the mass, and the window's weights.

    Weights are summed relative to the modal one: the absolute modal
    weight exp(-a + j0 log a - lgamma(j0 + 1)) carries a rounding error
    that exceeds tol once alpha reaches the thousands.  Away from the
    mode consecutive weights fall by ratios that keep falling, so each
    side's remaining weight is bounded by a geometric series in its next
    ratio.  The window stops once both bounds together are below tol
    times the running sum, and the weights are then normalised.
    """
    a2 = 0.5 * alpha_nc
    j_lo = j_hi = int(a2)
    lo_w, hi_w = [], [1.0]
    w_lo = w_hi = total = 1.0
    q_up = a2 / (j_hi + 1)  # below one: j_hi + 1 > a2
    q_down = j_lo / a2
    rest_up = w_hi * q_up / (1.0 - q_up)
    rest_down = w_lo * q_down / (1.0 - q_down) if q_down < 1.0 else math.inf
    for _ in range(_MAX_SERIES_TERMS):
        if rest_up + rest_down <= tol * total:
            return j_lo, np.array(lo_w[::-1] + hi_w) / total
        w_up, w_down = w_hi * q_up, w_lo * q_down
        if w_up >= w_down:  # extend the side with the larger next weight
            j_hi += 1
            w_hi = w_up
            hi_w.append(w_hi)
            total += w_hi
            q_up = a2 / (j_hi + 1)
            rest_up = w_hi * q_up / (1.0 - q_up)
        else:
            j_lo -= 1
            w_lo = w_down
            lo_w.append(w_lo)
            total += w_lo
            q_down = j_lo / a2
            rest_down = w_lo * q_down / (1.0 - q_down)
    raise ConvergenceFailure("Poisson window for the non-central chi-square "
                             f"did not converge (alpha={alpha_nc})")


def _poisson_gamma_series(x, nu: float, alpha_nc: float, upper: bool,
                          tol: float):
    """sum_j Poisson(j; alpha/2) * R(nu/2 + j, x/2) with R = Q if ``upper``
    else P, truncated so the residual Poisson mass is below tol (R is
    bounded by one).

    One module-level ``gammaincc`` call at the lowest shape a_0 (or
    ``gammainc`` at the highest) serves the whole window: with D_i =
    D(a_0 + i, x/2) from :func:`_prefactor_ladder`,
    Q(a_0 + k) = Q(a_0) + sum_{i<k} D_i and P(a_0 + k) = P(a_end)
    + sum_{k<=i<end} D_i, so the weighted sum is the end value times the
    total weight plus one vector of partial weight sums against D.  ``x``
    is positive and finite.
    """
    half_x = 0.5 * x
    if alpha_nc == 0.0:
        return (gammaincc if upper else gammainc)(0.5 * nu, half_x)
    j0, ws = _poisson_window(alpha_nc, tol)
    a0 = 0.5 * float(nu) + j0
    # Partial sums of the weights run in extended precision where the
    # platform has it: summed in doubles, a few hundred of them drift by
    # several ulps.
    if upper:
        end = gammaincc(a0, half_x)
        cum = np.add.accumulate(ws[::-1], dtype=np.longdouble)[::-1].astype(
            float)
        total, partial = cum[0], cum[1:]  # weight above each i
    else:
        end = gammainc(a0 + (ws.size - 1), half_x)
        cum = np.add.accumulate(ws, dtype=np.longdouble).astype(float)
        total, partial = cum[-1], cum[:-1]  # weight at or below each i
    if ws.size == 1:
        return total * end
    d = _prefactor_ladder(a0, half_x, ws.size - 1,
                          _gamma_prefactor(a0, half_x))
    return total * end + partial @ d


def _check_ncchi2_args(nu, alpha_nc):
    if nu <= 0.0:
        raise InvalidParameter(f"degrees of freedom must be positive, got {nu}")
    if alpha_nc < 0.0:
        raise InvalidParameter(
            f"non-centrality must be non-negative, got {alpha_nc}")


def ncchi2_cdf(x, nu: float, alpha_nc: float, tol: float = _SERIES_TOL):
    """CDF of the non-central chi-square law, absolute error <= tol."""
    _check_ncchi2_args(nu, alpha_nc)
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    out[x == math.inf] = 1.0
    pos = (x > 0.0) & (x < math.inf)
    if np.count_nonzero(pos):
        out[pos] = _poisson_gamma_series(x[pos], nu, alpha_nc, False, tol)
    return float(out[0]) if scalar else out


def ncchi2_sf(x, nu: float, alpha_nc: float, tol: float = _SERIES_TOL):
    """Survival function 1 - CDF, computed directly for tail accuracy."""
    _check_ncchi2_args(nu, alpha_nc)
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.ones_like(x)
    out[x == math.inf] = 0.0
    pos = (x > 0.0) & (x < math.inf)
    if np.count_nonzero(pos):
        out[pos] = _poisson_gamma_series(x[pos], nu, alpha_nc, True, tol)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class LsncChi2Params:
    """Location-scale non-central chi-square: (Y - mu)/sigma ~ chi2(nu, alpha).

    sigma may be negative (a reflected variate); evaluation routines
    handle the reflection, sigma = 0 is rejected.
    """

    mu: float
    sigma: float
    nu: float
    alpha_nc: float

    def __post_init__(self):
        if self.sigma == 0.0:
            raise InvalidParameter("scale must be nonzero")
        _check_ncchi2_args(self.nu, self.alpha_nc)

    def mean(self) -> float:
        return self.mu + self.sigma * (self.nu + self.alpha_nc)


def lsnc_cdf(x, p: LsncChi2Params):
    """P(Y <= x); reflection handles negative scale."""
    z = (np.asarray(x, dtype=float) - p.mu) / p.sigma
    if p.sigma > 0.0:
        return ncchi2_cdf(z, p.nu, p.alpha_nc)
    return ncchi2_sf(z, p.nu, p.alpha_nc)


def lsnc_sf(x, p: LsncChi2Params):
    """P(Y > x), the tail the pricing formulas consume."""
    z = (np.asarray(x, dtype=float) - p.mu) / p.sigma
    if p.sigma > 0.0:
        return ncchi2_sf(z, p.nu, p.alpha_nc)
    return ncchi2_cdf(z, p.nu, p.alpha_nc)


def lsnc_cgf(u, p: LsncChi2Params):
    """Cumulant generating function of Y at u."""
    u = np.asarray(u, dtype=float)
    bound = 1.0 / (2.0 * p.sigma)
    if p.sigma > 0.0:
        ok = u < bound
    else:
        ok = u > bound
    if not np.all(ok):
        raise DomainViolation(f"CGF requires u on the finite side of {bound}")
    w = 1.0 - 2.0 * p.sigma * u
    val = (-0.5 * p.nu * np.log(w) + p.alpha_nc * p.sigma * u / w + p.mu * u)
    return float(val) if np.isscalar(u) or val.ndim == 0 else val


def lsnc_tilt(p: LsncChi2Params, theta: float) -> LsncChi2Params:
    """Exponential change of measure dF_theta/dF = exp(x theta - kappa(theta)).

    The family is closed under tilting: scale and non-centrality divide
    by zeta = 1 - 2 sigma theta.
    """
    zeta = 1.0 - 2.0 * p.sigma * theta
    if zeta <= 0.0:
        raise DomainViolation(
            f"tilt parameter {theta} outside the CGF domain (zeta={zeta})")
    return LsncChi2Params(p.mu, p.sigma / zeta, p.nu, p.alpha_nc / zeta)


@dataclass(frozen=True)
class ChiSqMixSpec:
    """shift + sum_j sigma_j Y_j with independent Y_j ~ chi2(nu_j, alpha_j)."""

    sigmas: np.ndarray
    nus: np.ndarray
    alphas: np.ndarray
    shift: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "sigmas", np.atleast_1d(
            np.asarray(self.sigmas, dtype=float)))
        object.__setattr__(self, "nus", np.atleast_1d(
            np.asarray(self.nus, dtype=float)))
        object.__setattr__(self, "alphas", np.atleast_1d(
            np.asarray(self.alphas, dtype=float)))
        n = self.sigmas.size
        if n < 1 or self.nus.size != n or self.alphas.size != n:
            raise InvalidParameter("sigma, nu, alpha vectors must share "
                                   "one length >= 1")
        if np.any(self.sigmas <= 0.0):
            raise InvalidParameter("mixture scales must be strictly positive")
        if np.any(self.nus <= 0.0) or np.any(self.alphas < 0.0):
            raise InvalidParameter("need nu > 0 and alpha >= 0 per component")

    def mean(self) -> float:
        return self.shift + float(np.sum(self.sigmas * (self.nus + self.alphas)))


def _imhof_integrand(ys: np.ndarray, m: ChiSqMixSpec):
    """Imhof's integrand sin(theta_y(u)) / (u rho(u)), one column per y.

    Only the phase term -y u / 2 depends on y, so the arctangent and
    logarithm sums are evaluated once per node for every y.
    """
    s, nus, al = m.sigmas, m.nus, m.alphas
    slope0 = 0.5 * (float(np.sum(nus * s) + np.sum(al * s)) - ys)

    def g(u):
        u = np.asarray(u, dtype=float)
        uu = u[:, None]
        s2u2 = (s[None, :] * uu) ** 2
        theta = 0.5 * (np.sum(nus * np.arctan(s * uu), axis=1)
                       + np.sum(al * s * uu / (1.0 + s2u2), axis=1))
        log_rho = (0.25 * np.sum(nus * np.log1p(s2u2), axis=1)
                   + 0.5 * np.sum(al * s2u2 / (1.0 + s2u2), axis=1))
        # one (nodes, points) buffer, updated in place
        out = np.multiply.outer(u, -0.5 * ys)
        out += theta[:, None]
        np.sin(out, out=out)
        with np.errstate(divide="ignore", invalid="ignore"):
            out *= (np.exp(-log_rho) / u)[:, None]
        out[u == 0.0] = slope0  # the limit of sin(theta) / u
        return out

    return g


def _imhof_truncation(m: ChiSqMixSpec, tol: float) -> float:
    """Smallest panel-doubled U with a certified tail bound <= tol.

    For u >= U the integrand modulus is at most
    u^(-1 - K/2) * exp(-s(U)) / prod sigma_j^(nu_j/2) with K = sum nu_j
    and s(U) the (increasing) exponential damping, so the tail integral
    is bounded by (2/K) U^(-K/2) exp(-s(U)) / prod sigma_j^(nu_j/2).
    """
    K = float(np.sum(m.nus))
    log_c = float(np.sum(0.5 * m.nus * np.log(m.sigmas)))

    def bound(U):
        s2u2 = (m.sigmas * U) ** 2
        damp = 0.5 * float(np.sum(m.alphas * s2u2 / (1.0 + s2u2)))
        log_b = (math.log(2.0 / K) - 0.5 * K * math.log(U) - damp - log_c
                 - math.log(math.pi))
        return math.exp(min(log_b, 700.0))

    U = 8.0
    while bound(U) > tol:
        U *= 2.0
        if U > 1e7:
            raise ConvergenceFailure(
                "Imhof truncation bound cannot reach the tolerance "
                f"(sum of degrees of freedom {K} too small)")
    return U


def _imhof_integral(xs: np.ndarray, m: ChiSqMixSpec, tol: float):
    """Imhof's integral / pi for every x in ``xs`` (all above the shift),
    as one vector-valued quadrature with absolute error <= tol each."""
    ys = xs - m.shift
    U = _imhof_truncation(m, 0.5 * tol)
    # A panel holding many periods of the phase samples the sinusoid at
    # aliased points, where the 7- and 15-point rules can agree while both
    # are wrong.  Panels therefore start one period of the fastest phase
    # wide (|theta'| <= omega), at most _IMHOF_PANELS of them, plus
    # geometric breakpoints 2^i / max(sigma) where the amplitude falls.
    omega = 0.5 * (float(np.sum((m.nus + m.alphas) * m.sigmas))
                   + float(np.max(ys)))
    periods = min(math.ceil(U * omega / (2.0 * math.pi)), _IMHOF_PANELS)
    scale = 1.0 / float(np.max(m.sigmas))
    octaves = max(math.ceil(math.log2(U / scale)), 0)
    breaks = np.concatenate([scale * 2.0 ** np.arange(octaves),
                             np.linspace(0.0, U, periods + 1)[1:-1]])
    # The integrand oscillates with frequency ~ y/2, so far-tail arguments
    # over a heavy-tailed (small sum-of-dof) window need many panels; the
    # budget covers all moderate cases and the error check stays honest.
    integral, err = adaptive_gauss_kronrod(
        _imhof_integrand(ys, m), 0.0, U, abs_tol=0.5 * tol * math.pi,
        max_panels=20_000, breakpoints=breaks)
    if np.max(err) / math.pi > tol:
        raise ConvergenceFailure(
            f"Imhof quadrature error {np.max(err) / math.pi:.2e} above "
            f"tol {tol}")
    return integral / math.pi


def chisq_mix_cdf(x, m: ChiSqMixSpec, tol: float = 1e-10):
    """P(shift + sum_j sigma_j Y_j <= x), absolute error <= tol.

    Single-component mixtures reduce exactly to the series-based CDF; the
    general case inverts the characteristic function.
    """
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if m.sigmas.size == 1:
        p = LsncChi2Params(m.shift, float(m.sigmas[0]), float(m.nus[0]),
                           float(m.alphas[0]))
        out = np.atleast_1d(lsnc_cdf(xs, p))
    else:
        out = np.zeros_like(xs)
        above = xs > m.shift
        if above.any():
            out[above] = np.clip(0.5 - _imhof_integral(xs[above], m, tol),
                                 0.0, 1.0)
    return float(out[0]) if scalar else out


def chisq_mix_sf(x, m: ChiSqMixSpec, tol: float = 1e-10):
    """P(shift + sum_j sigma_j Y_j > x)."""
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if m.sigmas.size == 1:
        p = LsncChi2Params(m.shift, float(m.sigmas[0]), float(m.nus[0]),
                           float(m.alphas[0]))
        out = np.atleast_1d(lsnc_sf(xs, p))
    else:
        out = np.ones_like(xs)
        above = xs > m.shift
        if above.any():
            out[above] = np.clip(0.5 + _imhof_integral(xs[above], m, tol),
                                 0.0, 1.0)
    return float(out[0]) if scalar else out
