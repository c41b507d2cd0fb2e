"""Caplet, floorlet and swaption valuation plus implied-vol surfaces.

Every pricer takes its forward-measure tilts psi_{T_N - t}(u_k) from the
model's one kernel, :func:`affine_libor.model.tilt_exponents`.

Fourier route (any supported driver): a caplet is a call on the forward
bond-price quotient exp(A_k + <B_k, X_{T_k}>), priced as

    C = (B(0,T_{k+1}) K' / 2 pi)
        * int_R K'^{-(R-iv)} E[(e^Z)^{R-iv}] / ((R-iv)(R-1-iv)) dv,

with K' = 1 + delta K, damping R > 1 inside the strip where the
forward-price moment generating function is finite.  E[(e^Z)^z] is the
model's forward-price MGF (:func:`affine_libor.model.forward_log_mgf`).
Only the factor K'^{-(R-iv)} depends on the strike, so the caplets of one
expiry are one vector-valued integral with one damping
(:func:`vol_surface`); a single caplet is the one-strike case.  Cap-floor
parity is model-free, so on either route a floorlet is its caplet less
the period's forward value (:func:`_floorlet`).  A payer swaption on
[T_i, T_m] is a put on a coupon bond; its payoff transform has a closed
form in terms of the unique zero of the exercise function
(:func:`swaption_root`).

Chi-square route (products of square-root factors, a lone factor being a
product of one): each factor, tilted to a forward measure, follows a
scaled non-central chi-square law, so P(sum_j b_j X_j > y) under each
forward measure is the survival function of a positive linear
combination of non-central chi-squares (:func:`_tilted_tails`, the
route's one call of ``chisq_mix_sf``).  A closed-form row
(:func:`_closed_row`) prices the caplets of an expiry from two such
tails, and the one-factor swaption one per date T_i .. T_m, with b = 1
and y the exercise root.  With one live factor a tail is the exact
Poisson series; Imhof's integral runs only when two or more factors are
live.

Implied volatilities invert Black's futures formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ChiSqMixSpec, chisq_mix_sf
from .errors import (AffineLiborError, ConvergenceFailure, DampingOutOfStrip,
                     DomainViolation, InvalidParameter, ModelMismatch,
                     NoSignChange, OutOfBounds, QuadratureFailure)
from .model import (CalibratedModel, forward_log_mgf, phi_psi_batch,
                    tilt_exponents)
from .processes import CirParams, ProductProcess
from .quadrature import semi_infinite_oscillatory

_SQRT2 = math.sqrt(2.0)


def _check_strike(strike: float):
    if not 0.0 <= strike < math.inf:
        raise InvalidParameter(
            f"strike rate must be finite and non-negative, got {strike}")


@dataclass(frozen=True)
class CapletSpec:
    """Call on the period-k simple rate; its floorlet (the put) follows
    by cap-floor parity."""

    period_index: int
    strike: float

    def __post_init__(self):
        _check_strike(self.strike)

    def with_model(self, m: CalibratedModel) -> float:
        """The bold strike 1 + delta * strike on the model's tenor, once
        the period index is checked against it."""
        if not 1 <= self.period_index <= m.n_periods - 1:
            raise InvalidParameter(f"caplet index {self.period_index} "
                                   f"outside 1..{m.n_periods - 1}")
        return 1.0 + m.delta * self.strike


@dataclass(frozen=True)
class SwaptionSpec:
    """Payer swaption: option at T_i on a swap running to T_m."""

    start_index: int
    end_index: int
    strike: float

    def __post_init__(self):
        if self.start_index >= self.end_index:
            raise InvalidParameter("need start_index < end_index")
        _check_strike(self.strike)

    def coupons(self, delta: float) -> np.ndarray:
        """c_k = delta K for k < m, plus the unit redemption at k = m."""
        c = np.full(self.end_index - self.start_index, delta * self.strike)
        c[-1] += 1.0
        return c


@dataclass(frozen=True)
class PriceResult:
    """Price with quadrature diagnostics (and the exercise root for swaptions)."""

    price: float
    error_estimate: float
    damping: float | None
    root: float | None = None


def _strip_upper_end(psi_low: np.ndarray, psi_diff: np.ndarray,
                     sup: np.ndarray) -> float:
    """Supremum of the real v with psi_low + v * psi_diff < sup."""
    hi = math.inf
    for j in range(psi_low.size):
        room = sup[j] - psi_low[j]
        d = psi_diff[j]
        if d > 0.0:
            hi = min(hi, room / d)
        elif d == 0.0 and room <= 0.0:
            # the tilt itself lies outside the domain: only rounding at the
            # edge of a fit gets here
            raise DomainViolation("transform argument pinned outside domain")
    return hi


# Least distance of a damping from either end of its strip.  On CIR fits
# whose u_k lay 2 to 256 ulps below the moment domain's supremum,
# dampings 2e-16 to 3e-14 above 1 mispriced caplets by 1e-5 to 8e-3
# relative while the error estimate claimed 4e-8; from 4e-13 on they met
# the closed form within the estimate.
_MIN_ROOM = 1e-12


def _choose_damping(hi: float, magnitudes):
    """The contour's damping: the candidate in (1, hi), the strip above
    1, whose worst |integrand(0)| over the strike row is smallest.

    ``magnitudes`` maps candidates to |integrand(0)|, one row per
    candidate and one column per strike.  A contour whose dampened
    integrand is large at the origin only recovers a small price through
    massive cancellation (Lord & Kahl 2007), so the damping minimises that
    magnitude for the worst strike (a finite strip's midpoint is always
    among the candidates).  Every candidate keeps _MIN_ROOM from both
    ends of the strip: nearer, the pole at z = 1 or the transform's
    singularity at ``hi`` cancels the price away while the quadrature's
    error estimate stays small.  A strip too narrow for that, as a fit at
    the edge of the moment domain leaves, or one where no candidate has a
    finite magnitude is DampingOutOfStrip.
    """
    # The fixed dampings are offered whatever the strip's width: a driver
    # that barely moves has a strip reaching 1e6 or more, where the
    # relative grid alone starts at dampings in the thousands and an
    # in-the-money strike recovers its price only through massive
    # cancellation.
    candidates = [2.0, 5.0, 25.0, 125.0]
    if math.isfinite(hi):
        grid = [1.0 + (hi - 1.0) * g for g in
                (0.5, 0.25, 0.1, 0.04, 0.015, 0.006, 0.0025, 0.001)]
        candidates = [r for r in grid + candidates + [0.5 * (1.0 + hi)]
                      if 1.0 + _MIN_ROOM < r < hi - _MIN_ROOM]
    if not candidates:
        raise DampingOutOfStrip(
            f"the strip (1, {hi:.17g}) leaves no damping {_MIN_ROOM:g} "
            "from both ends")
    mags = magnitudes(np.array(candidates))
    worst = np.where(np.isfinite(mags), mags, math.inf).max(axis=1)
    if not np.isfinite(worst).any():
        raise DampingOutOfStrip(
            f"no damping in the strip (1, {hi:.17g}) gives a finite "
            "integrand")
    return candidates[int(np.argmin(worst))]


def _fourier_row(m: CalibratedModel, k: int, bold: np.ndarray,
                 rel_tol: float):
    """Caplets at expiry T_k for the bold strikes ``bold`` (floorlets
    follow from them by parity, :func:`_floorlet`).

    Only the factor K'^{-z} of the integrand depends on the strike, so the
    whole row is one vector-valued integral: the transform is evaluated
    once per node, and each strike is one component with its own error
    budget.  Returns (prices, error estimates, damping).
    """
    t_fix = m.tenor.date(k)
    phi, psi = tilt_exponents(m, t_fix, (k, k + 1))
    # phi of u_k is rebuilt as A_k + phi of u_{k+1}: the recorded Fourier
    # prices depend on this order of operations.
    phi_k1 = float(phi[1])
    phi = (phi[0] - phi[1] + phi_k1, phi_k1)
    sup = np.atleast_1d(m.process.domain_sup(t_fix)) if t_fix > 0.0 else \
        np.full(m.process.dim, np.inf)
    # Re(z) is constant along the contour, so the strip bounds decide
    # admissibility once and for all nodes.
    hi = _strip_upper_end(psi[1], psi[0] - psi[1], sup)
    log_bold = np.log(bold)

    def strike_integrands(z):
        """Integrand at contour points z (rows) for every strike (columns)."""
        # one (nodes, strikes) buffer, updated in place: a refinement
        # round can evaluate thousands of nodes at once
        out = z[:, None] * -log_bold[None, :]
        out += forward_log_mgf(m, t_fix, phi, psi, z)[:, None]
        np.exp(out, out=out)
        return np.divide(out, (z * (z - 1.0))[:, None], out=out)

    def magnitudes(candidates):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.abs(strike_integrands(candidates + 0j))

    damping = _choose_damping(hi, magnitudes)
    integral, err = semi_infinite_oscillatory(
        lambda v: strike_integrands(damping - 1j * v), rel_tol=rel_tol)
    pref = m.bond0(m.n_periods) * bold / (2.0 * math.pi)
    return pref * 2.0 * np.real(integral), pref * 2.0 * np.abs(err), damping


def _checked(what: str, price: float, err: float, damping, root=None):
    """PriceResult of a Fourier quote whose error estimate is in control."""
    if not err <= 1e-3 * max(abs(price), 1e-6):
        raise QuadratureFailure(
            f"{what} quadrature error {err:.2e} out of control")
    return PriceResult(max(float(price), 0.0), float(err), damping, root=root)


def _floorlet(m: CalibratedModel, c: CapletSpec,
              cap: PriceResult) -> PriceResult:
    """Floorlet by cap-floor parity, cap - (B(0,T_k) - K' B(0,T_{k+1})),
    on the model's own bonds B(0,T_N) M_0^{u_k}, which both caplet routes
    price off (the curve's miss them by the fit residual).  Its error is
    the caplet's plus the rounding of the parity sum."""
    k = c.period_index
    phi, psi = tilt_exponents(m, 0.0, (k, k + 1))
    bond, fixed = m.bond0(m.n_periods) * np.exp(phi + psi @ m.x0) \
        * np.array([1.0, c.with_model(m)])
    err = cap.error_estimate + 4.0 * math.ulp(bond + fixed)
    return _checked("floorlet", cap.price - (bond - fixed), err, cap.damping)


def caplet_fourier(m: CalibratedModel, c: CapletSpec,
                   rel_tol: float = 1e-9) -> PriceResult:
    """Caplet price by Fourier inversion of the forward-price MGF."""
    prices, errs, damping = _fourier_row(
        m, c.period_index, np.array([c.with_model(m)]), rel_tol)
    return _checked("caplet", prices[0], errs[0], damping)


def floorlet_fourier(m: CalibratedModel, c: CapletSpec,
                     rel_tol: float = 1e-9) -> PriceResult:
    """Floorlet price by parity on the Fourier caplet (:func:`_floorlet`)."""
    return _floorlet(m, c, caplet_fourier(m, c, rel_tol))


def _square_root_factors(process, count=None) -> tuple:
    """The driver's square-root factors (a lone one is a product of one),
    which must number ``count`` when it is given."""
    factors = process.factors if isinstance(process, ProductProcess) \
        else (process,)
    if not all(isinstance(f, CirParams) for f in factors):
        raise ModelMismatch("no closed-form caplet for "
                            f"{type(process).__name__}")
    if count is not None and len(factors) != count:
        raise ModelMismatch(f"closed form needs {count} square-root "
                            f"factor(s), got {len(factors)}")
    return factors


def _require_positive_dof(f: CirParams, j: int):
    """A square-root factor's chi-square law needs eta > 0 and
    lam * theta > 0 (positive degrees of freedom)."""
    if f.eta <= 0.0 or f.lam * f.theta <= 0.0:
        raise ModelMismatch(f"factor {j} needs eta > 0 and lam * theta > 0 "
                            "(positive degrees of freedom)")


def _factor_laws(factors, x0, t: float, thetas):
    """Laws of the square-root factors X_j at t, started at x0_j, under
    the measures that tilt X_t by the rows of ``thetas``: arrays
    (sigma, nu, alpha) with X_j / sigma_j non-central chi-square with nu_j
    degrees of freedom and non-centrality alpha_j; sigma and alpha have
    one row per measure and one column per factor.

    Under the terminal measure X_t / (eta^2 b(t)) is non-central
    chi-square with nu = lam theta / eta^2 and non-centrality
    x a(t) / (eta^2 b(t)).  Tilting by theta (the T_k-forward measure
    tilts by theta = psi_{T_N - t}(u_k)) keeps the family: scale and
    non-centrality divide by zeta = 1 - 2 eta^2 b(t) theta.
    """
    eb = np.array([f.eta ** 2 * f.b(t) for f in factors])
    nu = np.array([f.lam * f.theta / f.eta ** 2 for f in factors])
    alpha = np.array([x * f.a(t) for f, x in zip(factors, x0)]) / eb
    zeta = 1.0 - 2.0 * eb * thetas
    if not np.all(zeta > 0.0):
        raise DomainViolation("forward-measure tilt outside the moment "
                              "domain of a square-root factor")
    return eb / zeta, nu, alpha / zeta


def _tilted_tails(factors, x0, t: float, thetas, b, y) -> list:
    """P(sum_j b_j X_j > y) for the square-root factors X_j at t, started
    at x0_j, under each measure that tilts X_t by a row of ``thetas``.

    Each live factor contributes its tilted law (:func:`_factor_laws`)
    scaled by b_j; a factor with b_j = 0, or one pinned at zero, is a
    point mass and drops out.
    """
    live = [j for j, f in enumerate(factors)
            if b[j] != 0.0 and (f.lam * f.theta > 0.0 or x0[j] > 0.0)]
    for j in live:
        _require_positive_dof(factors[j], j)
    if not live:
        return [np.where(y < 0.0, 1.0, 0.0)] * len(thetas)
    sigma, nu, alpha = _factor_laws([factors[j] for j in live], x0[live],
                                    t, thetas[:, live])
    return [chisq_mix_sf(y, ChiSqMixSpec(b[live] * s_row, nu, a_row))
            for s_row, a_row in zip(sigma, alpha)]


def _closed_row(m: CalibratedModel, k: int, bold: np.ndarray):
    """Closed-form caplets at expiry T_k for a product of square-root
    factors, one price per bold strike.

    The caplet pays when sum_j B_kj X_j exceeds y = log K' - A_k, a
    tail (:func:`_tilted_tails`) under each adjacent forward measure that
    takes one survival-function evaluation over the whole strike row.
    """
    factors = _square_root_factors(m.process)
    t_fix = m.tenor.date(k)
    phi, psi = tilt_exponents(m, t_fix, (k, k + 1))
    # one tail each for the T_k- and the T_{k+1}-forward measure
    tails = _tilted_tails(factors, m.x0, t_fix, psi, psi[0] - psi[1],
                          np.log(bold) - float(phi[0] - phi[1]))
    return np.maximum(m.bond0(k) * tails[0]
                      - bold * m.bond0(k + 1) * tails[1], 0.0)


def caplet_closed(m: CalibratedModel, c: CapletSpec) -> PriceResult:
    """Closed-form caplet for any product of square-root factors (see
    :func:`_closed_row`)."""
    price = _closed_row(m, c.period_index, np.array([c.with_model(m)]))[0]
    return PriceResult(float(price), 0.0, None)


def caplet_cir_closed(m: CalibratedModel, c: CapletSpec) -> PriceResult:
    """Closed-form caplet for the one-factor square-root driver."""
    _square_root_factors(m.process, 1)
    return caplet_closed(m, c)


def floorlet_cir_closed(m: CalibratedModel, c: CapletSpec) -> PriceResult:
    """Floorlet by parity on the closed-form caplet (:func:`_floorlet`)."""
    return _floorlet(m, c, caplet_cir_closed(m, c))


def caplet_cir2f_closed(m: CalibratedModel, c: CapletSpec) -> PriceResult:
    """Closed-form caplet for two independent square-root factors."""
    _square_root_factors(m.process, 2)
    return caplet_closed(m, c)


def _rising_concave_root(f_slope):
    """Zero of an increasing concave function, given as x -> (f(x), f'(x)).

    Doubles x from -1 until f(x) < 0, then takes Newton steps.  By
    concavity every tangent lies above f, so each step lands left of the
    root again and the iterates rise monotonically to it; they stop on
    f >= 0, on a step of at most four ulps, or after 100 steps.  Returns
    the last iterate and f there.
    """
    x = -1.0
    for _ in range(200):
        fx, slope = f_slope(x)
        if fx < 0.0:
            break
        x *= 2.0
    else:
        raise NoSignChange("no sign change: f stays positive")
    for _ in range(100):
        step = -fx / slope
        x += step
        fx, slope = f_slope(x)
        if not (fx < 0.0 and abs(step) > 4.0 * math.ulp(x)):
            break
    return x, fx


def _exercise(m: CalibratedModel, s: SwaptionSpec):
    """Exercise date T_i, the tilts psi of u_i, ..., u_m at T_N - T_i, the
    coefficients (A_k, B_k) of the exercise function for k = i+1..m, the
    coupons and the root of :func:`swaption_root`, for a one-dimensional
    driver."""
    if m.process.dim != 1:
        raise ModelMismatch("swaption exercise needs a one-dimensional "
                            "driver")
    if not 1 <= s.start_index < s.end_index <= m.n_periods:
        raise InvalidParameter(
            f"swaption indices {s.start_index}..{s.end_index} outside "
            f"1..{m.n_periods}")
    t_ex = m.tenor.date(s.start_index)
    phi, psi = tilt_exponents(m, t_ex,
                              range(s.start_index, s.end_index + 1))
    psi = psi[:, 0]
    A, B = phi[1:] - phi[0], psi[1:] - psi[0]
    coup = s.coupons(m.delta)
    flat = B == 0.0
    if flat.all():
        raise NoSignChange("degenerate swaption: exercise function is "
                           "constant in the state")
    if 1.0 - float(coup[flat] @ np.exp(A[flat])) <= 0.0:
        raise NoSignChange("no sign change: f stays negative")

    def f_slope(x):
        terms = coup * np.exp(A + B * x)
        return 1.0 - float(terms.sum()), -float(B @ terms)

    root, fx = _rising_concave_root(f_slope)
    if not abs(fx) <= 1e-13:
        raise ConvergenceFailure(
            f"swaption root residual {abs(fx):.2e} above 1e-13")
    return t_ex, psi, A, B, coup, float(root)


def swaption_root(m: CalibratedModel, s: SwaptionSpec) -> float:
    """Unique zero of the exercise function f(x) = 1 - sum c_k e^{A_k + B_k x}.

    The coefficients B_k are non-positive (one strictly, whenever some
    initial rate is positive), so f is strictly increasing and concave,
    and it has a zero exactly when it is positive far to the right, where
    only the terms with B_k = 0 are left.  Newton steps from a point
    where f < 0 rise monotonically to the zero
    (:func:`_rising_concave_root`); the result has |f| <= 1e-13.
    """
    return _exercise(m, s)[-1]


def swaption_fourier(m: CalibratedModel, s: SwaptionSpec,
                     rel_tol: float = 1e-9) -> PriceResult:
    """Payer swaption by Fourier inversion under the T_i-forward measure.

    Uses the payoff transform

        fhat(z) = e^{iz Y} sum_k c_k e^{A_k + B_k Y} (-B_k) / (iz (B_k + iz)),

    an algebraically equivalent form of the textbook expression in which
    the two O(1/z) terms have been cancelled explicitly (the sum of
    exercise-boundary coupon values is one by definition of the root Y),
    so the integrand decays like 1/z^2 without catastrophic cancellation.
    """
    t_ex, psi, A, B, coup, root = _exercise(m, s)
    w = float(psi[0])
    i = s.start_index
    process, x0 = m.process, m.x0
    # a tilt w outside the domain, which only rounding at the edge of a
    # fit could produce, is the transform's DomainViolation
    phi0, psi0 = phi_psi_batch(process, t_ex, np.full((1, 1), w + 0j))
    base = phi0[0] + psi0[0] @ x0.astype(complex)
    damping = 0.5 * min(1.0, float(process.domain_sup(t_ex)[0]) - w)
    boundary = coup * np.exp(A + B * root)

    def integrand(v):
        z_mgf = (damping - 1j * v)[:, None]  # argument of the tilted MGF
        phi1, psi1 = phi_psi_batch(process, t_ex, w + z_mgf)
        log_mgf = phi1 + psi1 @ x0.astype(complex) - base
        iz = 1j * v - damping  # iz for z = v + i*damping
        fhat = np.exp(iz * root) * (
            (boundary[None, :] * (-B)[None, :])
            / (iz[:, None] * (B[None, :] + iz[:, None]))).sum(axis=1)
        return np.exp(log_mgf) * fhat

    integral, err = semi_infinite_oscillatory(integrand, rel_tol=rel_tol)
    pref = m.bond0(i) / (2.0 * math.pi)
    return _checked("swaption", pref * 2.0 * float(np.real(integral)),
                    pref * 2.0 * float(abs(err)), damping, root=root)


def swaption_cir_closed(m: CalibratedModel, s: SwaptionSpec) -> PriceResult:
    """Closed-form payer swaption for the one-factor square-root driver.

    Decomposes the payoff over the exercise region {X_{T_i} >= Y} and
    evaluates each probability P_{T_k}(X_{T_i} > Y) as the tail of the
    factor tilted to the T_k-forward measure (:func:`_tilted_tails` with
    b = 1 and y = Y), the law the caplet rows use.
    """
    (p,) = _square_root_factors(m.process, 1)
    _require_positive_dof(p, 0)
    t_ex, psi, _, _, coup, root = _exercise(m, s)
    tails = _tilted_tails((p,), m.x0, t_ex, psi[:, None], np.ones(1), root)
    price = m.bond0(s.start_index) * tails[0]
    for pos, k in enumerate(range(s.start_index + 1, s.end_index + 1)):
        price -= coup[pos] * m.bond0(k) * tails[pos + 1]
    return PriceResult(max(price, 0.0), 0.0, None, root=root)


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def black76_price(forward: float, strike: float, expiry: float, vol: float,
                  annuity: float) -> float:
    """Black's futures formula for a caplet: the forward-measure
    expectation of the call payoff times ``annuity``."""
    if vol <= 0.0 or expiry <= 0.0 or strike <= 0.0 or forward <= 0.0:
        return annuity * max(forward - strike, 0.0)
    total = vol * math.sqrt(expiry)
    d1 = (math.log(forward / strike) + 0.5 * total * total) / total
    d2 = d1 - total
    return annuity * (forward * _norm_cdf(d1) - strike * _norm_cdf(d2))


# Slack of the static bounds that black76_implied_vol checks a price
# against.
_VOL_BOUND_SLACK = 1e-10


def black76_implied_vol(price: float, forward_rate: float, strike: float,
                        expiry: float, annuity: float) -> float:
    """Volatility reproducing ``price`` in Black's formula.

    Newton iteration safeguarded by a maintained bracket.  It stops when a
    Newton step moves the vol by at most 1e-12 relative, when the price
    residual is within a few ulps of the price, or when the bracket has
    shrunk to 1e-12 relative; so the vol is resolved however small the
    vega.  Prices outside [intrinsic, annuity * forward] by more than
    ``_VOL_BOUND_SLACK`` raise OutOfBounds, and a time value below a
    hundredth of it gives vol zero.
    """
    if annuity <= 0.0 or forward_rate <= 0.0 or strike <= 0.0:
        raise OutOfBounds("need positive annuity, forward and strike")
    intrinsic = annuity * max(forward_rate - strike, 0.0)
    upper = annuity * forward_rate
    tol = _VOL_BOUND_SLACK
    if price < intrinsic - tol or price > upper + tol:
        raise OutOfBounds(
            f"price {price} outside [{intrinsic}, {upper}]")
    if price <= intrinsic + tol * 1e-2 or expiry <= 0.0:
        if expiry <= 0.0 and price > intrinsic + tol:
            raise OutOfBounds("positive time value at zero expiry")
        return 0.0

    def value(v):
        return black76_price(forward_rate, strike, expiry, v, annuity)

    lo, hi = 0.0, 1.0
    for _ in range(200):
        if value(hi) >= price:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise ConvergenceFailure("implied vol bracket expansion failed")
    vol = 0.5 * (lo + hi)
    sqrt_t = math.sqrt(expiry)
    for _ in range(100):
        diff = value(vol) - price
        if abs(diff) <= 4.0 * math.ulp(price):
            return vol
        if diff > 0.0:
            hi = vol
        else:
            lo = vol
        total = vol * sqrt_t
        d1 = (math.log(forward_rate / strike) + 0.5 * total * total) / total
        vega = annuity * forward_rate * sqrt_t * \
            math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)
        step = vol - diff / vega if vega > 1e-300 else math.nan
        if lo < step < hi:
            if abs(step - vol) <= 1e-12 * vol:
                return step
            vol = step
        else:
            vol = 0.5 * (lo + hi)
        if hi - lo <= 1e-12 * hi:
            return vol
    raise ConvergenceFailure("implied vol iteration did not settle")


@dataclass(frozen=True)
class SurfaceCell:
    """One (expiry, strike) entry of a caplet vol surface.

    ``error_estimate`` bounds the price's quadrature error (zero for the
    closed forms); a failed cell has NaN entries and the error category.
    """

    expiry: float
    strike: float
    price: float
    implied_vol: float
    error: str | None = None
    error_estimate: float = 0.0


def _row_quotes(row, m: CalibratedModel, k: int, strikes) -> dict:
    """Per strike of expiry T_k: its PriceResult, or the error that
    stopped it.  Invalid strikes fail alone; a failure of the shared row
    (transform, damping) fails every strike of the row."""
    quotes, priced, bolds = {}, [], []
    for strike in strikes:
        try:
            bolds.append(CapletSpec(k, strike).with_model(m))
            priced.append(strike)
        except AffineLiborError as exc:
            quotes[strike] = exc
    if not priced:
        return quotes
    try:
        prices, errs, damping = row(k, np.array(bolds))
    except AffineLiborError as exc:
        quotes.update((strike, exc) for strike in priced)
        return quotes
    for strike, price, err in zip(priced, prices, errs):
        try:
            quotes[strike] = _checked("caplet", price, err, damping)
        except QuadratureFailure as exc:
            quotes[strike] = exc
    return quotes


def _surface_cell(expiry: float, strike: float, fwd: float, annuity: float,
                  quote) -> SurfaceCell:
    if isinstance(quote, PriceResult):
        intrinsic = annuity * max(fwd - strike, 0.0)
        try:
            # Time value below the quadrature resolution is genuinely zero
            # (drivers with rare jumps floor the rate, making low strikes
            # intrinsic); inverting the noise would fabricate a vol, so
            # such cells are snapped to zero instead.
            if quote.price <= intrinsic + max(3.0 * quote.error_estimate,
                                              1e-12):
                vol = 0.0
            else:
                vol = black76_implied_vol(quote.price, fwd, strike, expiry,
                                          annuity)
            return SurfaceCell(expiry, strike, quote.price, vol,
                               error_estimate=quote.error_estimate)
        except AffineLiborError as exc:
            quote = exc
    return SurfaceCell(expiry, strike, math.nan, math.nan,
                       error=type(quote).__name__, error_estimate=math.nan)


def vol_surface(m: CalibratedModel, strikes, method: str = "fourier",
                rel_tol: float = 1e-9):
    """Caplet prices and Black-76 implied vols over expiries x strikes.

    One row per caplet expiry T_k (k = 1 .. N-1, expiry-major) and strike
    (ascending).  Each expiry row is priced at once: the Fourier route
    evaluates one vector-valued integral whose damping is chosen once per
    expiry (least worst-strike magnitude at the origin), so a row's
    prices depend on which strikes share it, within their error
    estimates; the closed forms evaluate each forward measure's series
    once over the strike row.  Rows are independent of each other.
    Cells where pricing or inversion fails are emitted with NaN entries
    and the error category, never silently clamped.
    """
    strikes = sorted(float(s) for s in np.atleast_1d(strikes))
    if method == "fourier":
        def row(k, bold):
            return _fourier_row(m, k, bold, rel_tol)
    elif method == "closed":
        _square_root_factors(m.process)

        def row(k, bold):
            return _closed_row(m, k, bold), np.zeros(bold.size), None
    else:
        raise InvalidParameter(f"unknown method {method!r}")
    cells = []
    for k in range(1, m.n_periods):
        expiry = m.tenor.date(k)
        fwd = m.tenor.initial_libor(k)
        annuity = m.delta * m.bond0(k + 1)
        quotes = _row_quotes(row, m, k, strikes)
        cells.extend(_surface_cell(expiry, strike, fwd, annuity,
                                   quotes[strike]) for strike in strikes)
    return cells
