"""Non-central chi-square machinery used by the closed-form pricers.

Three layers:

* non-central chi-square CDF/SF as a Poisson-weighted series of central
  chi-square (regularized incomplete gamma) terms, expanded outward from
  the modal Poisson index until a geometric bound on the remaining
  Poisson weights certifies the truncation error;
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

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc

from .errors import ConvergenceFailure, DomainViolation, InvalidParameter
from .quadrature import adaptive_gauss_kronrod

_SERIES_TOL = 1e-13
_MAX_SERIES_TERMS = 200_000
# Cap on the one-period starting panels of Imhof's integral.
_IMHOF_PANELS = 2048


def _poisson_window(alpha_nc: float, tol: float):
    """Poisson(alpha/2) indices and weights around the mode covering all
    but at most tol of the mass.

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
    for _ in range(_MAX_SERIES_TERMS):
        q_up = a2 / (j_hi + 1)  # below one: j_hi + 1 > a2
        q_down = j_lo / a2
        rest = w_hi * q_up / (1.0 - q_up) + (
            w_lo * q_down / (1.0 - q_down) if q_down < 1.0 else math.inf)
        if rest <= tol * total:
            js = np.arange(j_lo, j_hi + 1)
            return js, np.array(lo_w[::-1] + hi_w) / total
        w_up, w_down = w_hi * q_up, w_lo * q_down
        if w_up >= w_down:
            j_hi += 1
            w_hi = w_up
            hi_w.append(w_hi)
            total += w_hi
        else:
            j_lo -= 1
            w_lo = w_down
            lo_w.append(w_lo)
            total += w_lo
    raise ConvergenceFailure("Poisson window for the non-central chi-square "
                             f"did not converge (alpha={alpha_nc})")


def _poisson_gamma_series(x, nu: float, alpha_nc: float, reg, tol: float):
    """sum_j Poisson(j; alpha/2) * reg(nu/2 + j, x/2), truncated so the
    residual Poisson mass is below tol (reg is bounded by one)."""
    half_x = 0.5 * np.asarray(x, dtype=float)
    if alpha_nc == 0.0:
        return reg(0.5 * nu, half_x)
    js, ws = _poisson_window(alpha_nc, tol)
    shapes = 0.5 * nu + js
    if half_x.ndim == 0:
        return float(ws @ reg(shapes, half_x))
    return ws @ reg(shapes[:, None], half_x[None, :])


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
    pos = x > 0.0
    if pos.any():
        out[pos] = _poisson_gamma_series(x[pos], nu, alpha_nc, gammainc, tol)
    return float(out[0]) if scalar else out


def ncchi2_sf(x, nu: float, alpha_nc: float, tol: float = _SERIES_TOL):
    """Survival function 1 - CDF, computed directly for tail accuracy."""
    _check_ncchi2_args(nu, alpha_nc)
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.ones_like(x)
    pos = x > 0.0
    if pos.any():
        out[pos] = _poisson_gamma_series(x[pos], nu, alpha_nc, gammaincc, tol)
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
