"""Caplet, floorlet and swaption valuation plus implied-vol surfaces.

Every pricer takes its forward-measure tilts psi_{T_N - t}(u_k) from the
model's one kernel, :func:`affine_libor.model.tilt_exponents`.

Fourier route (any supported driver): a caplet is a call on the forward
bond-price quotient exp(A_k + <B_k, X_{T_k}>), priced as

    C = (B(0,T_{k+1}) K' / 2 pi)
        * int_R K'^{-(R-iv)} E[(e^Z)^{R-iv}] / ((R-iv)(R-1-iv)) dv,

with K' = 1 + delta K, damping R > 1 inside the strip where the
forward-price moment generating function is finite.  The same integrand
with R < 0 prices the floorlet.  E[(e^Z)^z] is the model's forward-price
MGF (:func:`affine_libor.model.forward_log_mgf`).  Only the factor
K'^{-(R-iv)} depends on the strike, so the caplets of one expiry are one
vector-valued integral with one damping (:func:`vol_surface`); a single
caplet is the one-strike case.  A payer swaption on [T_i, T_m] is a put
on a coupon bond; its payoff transform has a closed form in terms of the
unique zero of the exercise function (:func:`swaption_root`).

Chi-square route (products of square-root factors, a lone factor being a
product of one): each factor, tilted to a forward measure, follows a
scaled non-central chi-square law, so one closed-form row
(:func:`_closed_row`) prices the caplets of an expiry through the
survival function of a positive linear combination of non-central
chi-squares.  With one live factor that is the exact Poisson series;
Imhof's integral runs only when two or more factors are live.  The
one-factor swaption reuses the same tilted factor law.

Implied volatilities invert Black's futures formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (ChiSqMixSpec, LsncChi2Params, chisq_mix_sf,
                            lsnc_sf, lsnc_tilt)
from .errors import (AffineLiborError, ConvergenceFailure, DampingOutOfStrip,
                     InvalidParameter, ModelMismatch, NoSignChange,
                     OutOfBounds, QuadratureFailure)
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
    """Call (or, for floorlets, put) on the period-k simple rate.

    ``bold_strike`` is 1 + delta * strike; it is filled in from the model
    tenor when left unset.
    """

    period_index: int
    strike: float
    bold_strike: float | None = None

    def __post_init__(self):
        _check_strike(self.strike)
        if self.bold_strike is not None and \
                not 1.0 <= self.bold_strike < math.inf:
            raise InvalidParameter("bold strike must be finite and at least "
                                   f"one, got {self.bold_strike}")

    def with_model(self, m: CalibratedModel) -> "CapletSpec":
        if not 1 <= self.period_index <= m.n_periods - 1:
            raise InvalidParameter(f"caplet index {self.period_index} "
                                   f"outside 1..{m.n_periods - 1}")
        bold = 1.0 + m.delta * self.strike
        if self.bold_strike is not None and \
                abs(self.bold_strike - bold) > 1e-12:
            raise InvalidParameter("bold strike inconsistent with tenor")
        return replace(self, bold_strike=bold)


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
class QuadratureSettings:
    """Contour and accuracy knobs for the Fourier pricers.

    damping = None picks the documented default inside the admissible
    strip, once per expiry row of a surface; truncation widens (or
    shrinks) the first integration panel.  A damping must be finite,
    truncation and rel_tol finite and positive.
    """

    damping: float | None = None
    truncation: float | None = None
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.damping is not None and not math.isfinite(self.damping):
            raise InvalidParameter(
                f"quadrature damping must be finite, got {self.damping}")
        if self.truncation is not None and \
                not 0.0 < self.truncation < math.inf:
            raise InvalidParameter("quadrature truncation must be finite and "
                                   f"positive, got {self.truncation}")
        if not 0.0 < self.rel_tol < math.inf:
            raise InvalidParameter("quadrature rel_tol must be finite and "
                                   f"positive, got {self.rel_tol}")


DEFAULT_QUADRATURE = QuadratureSettings()


@dataclass(frozen=True)
class PriceResult:
    """Price with quadrature diagnostics (and the exercise root for swaptions)."""

    price: float
    error_estimate: float
    damping: float | None
    root: float | None = None


def _damping_strip(psi_low: np.ndarray, psi_diff: np.ndarray,
                   sup: np.ndarray):
    """Admissible real interval for v in psi_low + v * psi_diff < sup."""
    lo, hi = -math.inf, math.inf
    for j in range(psi_low.size):
        room = sup[j] - psi_low[j]
        d = psi_diff[j]
        if d > 0.0:
            hi = min(hi, room / d)
        elif d < 0.0:
            lo = max(lo, room / d)
        elif room <= 0.0:
            raise DampingOutOfStrip("transform argument pinned outside domain")
    return lo, hi


def _call_damping_candidates(hi: float):
    # The fixed dampings are offered whatever the strip's width: a driver
    # that barely moves has a strip reaching 1e6 or more, where the
    # relative grid alone starts at dampings in the thousands and an
    # in-the-money strike recovers its price only through massive
    # cancellation.
    fixed = [2.0, 5.0, 25.0, 125.0]
    if not math.isfinite(hi):
        return fixed
    span = hi - 1.0
    grid = [1.0 + span * g for g in
            (0.5, 0.25, 0.1, 0.04, 0.015, 0.006, 0.0025, 0.001)] + fixed
    return [r for r in grid if 1.0 < r < hi] + [0.5 * (1.0 + hi)]


def _put_damping_candidates(lo: float):
    if not math.isfinite(lo):
        return [-0.5, -1.0, -2.0, -8.0, -32.0]
    return [g * lo for g in (0.5, 0.25, 0.1, 0.04, 0.015, 0.006)]


def _choose_damping(q: QuadratureSettings, lo: float, hi: float,
                    want_call: bool, magnitudes):
    """The contour's damping: ``q.damping`` checked against the strip, or
    the candidate whose worst |integrand(0)| over the strike row is
    smallest.

    ``magnitudes`` maps candidates to |integrand(0)|, one row per
    candidate and one column per strike.  A contour whose dampened
    integrand is large at the origin only recovers a small price through
    massive cancellation (Lord & Kahl 2007), so the damping minimises that
    magnitude for the worst strike (the strip midpoint is always among
    the call candidates).
    """
    if want_call:
        if hi <= 1.0:
            raise DampingOutOfStrip(
                f"strip upper end {hi} leaves no damping above 1")
        lo = 1.0
    else:
        if lo >= 0.0:
            raise DampingOutOfStrip("strip does not extend below 0")
        hi = 0.0
    if q.damping is not None:
        if not lo < q.damping < hi:
            raise DampingOutOfStrip(
                f"damping {q.damping} outside ({lo}, {hi})")
        return q.damping
    candidates = _call_damping_candidates(hi) if want_call \
        else _put_damping_candidates(lo)
    mags = magnitudes(np.array(candidates))
    worst = np.where(np.isfinite(mags), mags, math.inf).max(axis=1)
    if not np.isfinite(worst).any():
        raise DampingOutOfStrip("no usable damping candidate in the strip")
    return candidates[int(np.argmin(worst))]


def _fourier_row(m: CalibratedModel, k: int, bold: np.ndarray,
                 q: QuadratureSettings, want_call: bool):
    """Caplets (or floorlets) at expiry T_k for the bold strikes ``bold``.

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
    lo, hi = _damping_strip(psi[1], psi[0] - psi[1], sup)
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

    damping = _choose_damping(q, lo, hi, want_call, magnitudes)
    width = q.truncation if q.truncation is not None else 64.0
    integral, err = semi_infinite_oscillatory(
        lambda v: strike_integrands(damping - 1j * v),
        initial_width=width, rel_tol=q.rel_tol)
    pref = m.bond0(m.n_periods) * bold / (2.0 * math.pi)
    return pref * 2.0 * np.real(integral), pref * 2.0 * np.abs(err), damping


def _checked(what: str, price: float, err: float, damping, root=None):
    """PriceResult of a Fourier quote whose error estimate is in control."""
    if not err <= 1e-3 * max(abs(price), 1e-6):
        raise QuadratureFailure(
            f"{what} quadrature error {err:.2e} out of control")
    return PriceResult(max(float(price), 0.0), float(err), damping, root=root)


def _fourier_caplet(m, c, q, want_call: bool) -> PriceResult:
    c = c.with_model(m)
    prices, errs, damping = _fourier_row(
        m, c.period_index, np.array([c.bold_strike]), q, want_call)
    return _checked("caplet" if want_call else "floorlet", prices[0],
                    errs[0], damping)


def caplet_fourier(m: CalibratedModel, c: CapletSpec,
                   q: QuadratureSettings = DEFAULT_QUADRATURE) -> PriceResult:
    """Caplet price by Fourier inversion of the forward-price MGF."""
    return _fourier_caplet(m, c, q, want_call=True)


def floorlet_fourier(m: CalibratedModel, c: CapletSpec,
                     q: QuadratureSettings = DEFAULT_QUADRATURE
                     ) -> PriceResult:
    """Floorlet price: same transform kernel, damping below zero."""
    return _fourier_caplet(m, c, q, want_call=False)


def _require_cir(m: CalibratedModel) -> CirParams:
    if not isinstance(m.process, CirParams):
        raise ModelMismatch("closed form requires a one-factor square-root "
                            f"driver, got {type(m.process).__name__}")
    p = m.process
    if p.eta <= 0.0 or p.lam * p.theta <= 0.0:
        raise ModelMismatch("closed form needs eta > 0 and lam * theta > 0 "
                            "(positive degrees of freedom)")
    return p


def _square_root_factors(process) -> tuple:
    """The driver's square-root factors; a lone one is a product of one."""
    if isinstance(process, CirParams):
        return (process,)
    if isinstance(process, ProductProcess) and \
            all(isinstance(f, CirParams) for f in process.factors):
        return process.factors
    raise ModelMismatch("no closed-form caplet for "
                        f"{type(process).__name__}")


def _factor_law(f: CirParams, x: float, t: float, scale: float,
                theta: float) -> LsncChi2Params:
    """Law of scale * X_t for the square-root factor X started at x,
    under the measure that tilts X_t by theta.

    Under the terminal measure X_t / (eta^2 b(t)) is non-central
    chi-square with nu = lam theta / eta^2 degrees of freedom and
    non-centrality x a(t) / (eta^2 b(t)).  The T_k-forward measure tilts
    it by theta = psi_{T_N - t}(u_k) (:func:`lsnc_tilt`).
    """
    eb = f.eta ** 2 * f.b(t)
    law = lsnc_tilt(LsncChi2Params(0.0, eb, f.lam * f.theta / f.eta ** 2,
                                   x * f.a(t) / eb), theta)
    return replace(law, sigma=scale * law.sigma)


def _closed_row(m: CalibratedModel, k: int, bold: np.ndarray):
    """Closed-form caplets at expiry T_k for a product of square-root
    factors, one price per bold strike.

    The log-forward price A_k + sum_j B_kj X_j is a shifted positive
    linear combination of independent non-central chi-squares under both
    adjacent forward measures; each live factor contributes its tilted
    law (:func:`_factor_law`) scaled by B_kj.  A factor with B_kj = 0, or
    one pinned at zero, is a point mass and drops out.  None of this
    depends on the strike, so each measure takes one survival-function
    evaluation over the whole strike row; with one live factor that is
    the exact Poisson series.
    """
    factors = _square_root_factors(m.process)
    t_fix = m.tenor.date(k)
    phi, psi = tilt_exponents(m, t_fix, (k, k + 1))
    b = psi[0] - psi[1]
    y = np.log(bold) - float(phi[0] - phi[1])
    live = [j for j, f in enumerate(factors)
            if b[j] != 0.0 and (f.lam * f.theta > 0.0 or m.x0[j] > 0.0)]
    for j in live:
        f = factors[j]
        if f.eta <= 0.0 or f.lam * f.theta <= 0.0:
            raise ModelMismatch(
                f"factor {j} needs eta > 0 and lam * theta > 0")
    tails = []
    for tilt in psi:  # the T_k- and the T_{k+1}-forward measure
        if not live:
            tails.append(np.where(y < 0.0, 1.0, 0.0))
            continue
        laws = [_factor_law(factors[j], m.x0[j], t_fix, b[j], tilt[j])
                for j in live]
        tails.append(chisq_mix_sf(y, ChiSqMixSpec(
            [law.sigma for law in laws], [law.nu for law in laws],
            [law.alpha_nc for law in laws])))
    return np.maximum(m.bond0(k) * tails[0]
                      - bold * m.bond0(k + 1) * tails[1], 0.0)


def caplet_closed(m: CalibratedModel, c: CapletSpec) -> PriceResult:
    """Closed-form caplet for any product of square-root factors (see
    :func:`_closed_row`)."""
    c = c.with_model(m)
    price = _closed_row(m, c.period_index, np.array([c.bold_strike]))[0]
    return PriceResult(float(price), 0.0, None)


def caplet_cir_closed(m: CalibratedModel, c: CapletSpec) -> PriceResult:
    """Closed-form caplet for the one-factor square-root driver."""
    _require_cir(m)
    return caplet_closed(m, c)


def floorlet_cir_closed(m: CalibratedModel, c: CapletSpec) -> PriceResult:
    """Closed-form floorlet via cap-floor parity on the closed-form caplet."""
    cap = caplet_cir_closed(m, c)
    c = c.with_model(m)
    k = c.period_index
    parity = m.bond0(k) - c.bold_strike * m.bond0(k + 1)
    return PriceResult(max(cap.price - parity, 0.0), cap.error_estimate, None)


def caplet_cir2f_closed(m: CalibratedModel, c: CapletSpec) -> PriceResult:
    """Closed-form caplet for independent square-root factors."""
    if not isinstance(m.process, ProductProcess):
        raise ModelMismatch("2-factor closed form requires independent "
                            "square-root factors")
    return caplet_closed(m, c)


def _swaption_tilts(m: CalibratedModel, s: SwaptionSpec):
    """Exercise date T_i and the tilts (phi, psi) of u_i, ..., u_m at
    T_N - T_i, for a one-dimensional driver."""
    if not 1 <= s.start_index < s.end_index <= m.n_periods:
        raise InvalidParameter(
            f"swaption indices {s.start_index}..{s.end_index} outside "
            f"1..{m.n_periods}")
    t_ex = m.tenor.date(s.start_index)
    phi, psi = tilt_exponents(m, t_ex,
                              range(s.start_index, s.end_index + 1))
    return t_ex, phi, psi[:, 0]


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


def swaption_root(m: CalibratedModel, s: SwaptionSpec) -> float:
    """Unique zero of the exercise function f(x) = 1 - sum c_k e^{A_k + B_k x}.

    The coefficients B_k are non-positive (one strictly, whenever some
    initial rate is positive), so f is strictly increasing and concave,
    and it has a zero exactly when it is positive far to the right, where
    only the terms with B_k = 0 are left.  Newton steps from a point
    where f < 0 rise monotonically to the zero
    (:func:`_rising_concave_root`); the result has |f| <= 1e-13.
    """
    if m.process.dim != 1:
        raise ModelMismatch("swaption exercise root needs a one-dimensional "
                            "driver")
    _, phi, psi = _swaption_tilts(m, s)
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
    return float(root)


def swaption_fourier(m: CalibratedModel, s: SwaptionSpec,
                     q: QuadratureSettings = DEFAULT_QUADRATURE
                     ) -> PriceResult:
    """Payer swaption by Fourier inversion under the T_i-forward measure.

    Uses the payoff transform

        fhat(z) = e^{iz Y} sum_k c_k e^{A_k + B_k Y} (-B_k) / (iz (B_k + iz)),

    an algebraically equivalent form of the textbook expression in which
    the two O(1/z) terms have been cancelled explicitly (the sum of
    exercise-boundary coupon values is one by definition of the root Y),
    so the integrand decays like 1/z^2 without catastrophic cancellation.
    """
    if m.process.dim != 1:
        raise ModelMismatch("Fourier swaption pricing needs a "
                            "one-dimensional driver")
    root = swaption_root(m, s)
    t_ex, phi, psi = _swaption_tilts(m, s)
    A, B, w = phi[1:] - phi[0], psi[1:] - psi[0], float(psi[0])
    coup = s.coupons(m.delta)
    i = s.start_index
    sup = float(m.process.domain_sup(t_ex)[0]) if t_ex > 0.0 else math.inf
    strip_hi = sup - w
    if strip_hi <= 0.0:
        raise DampingOutOfStrip("tilted domain is empty")
    damping = q.damping if q.damping is not None else \
        0.5 * min(1.0, strip_hi)
    if not 0.0 < damping < strip_hi:
        raise DampingOutOfStrip(f"damping {damping} outside (0, {strip_hi})")

    process, x0 = m.process, m.x0
    boundary = coup * np.exp(A + B * root)
    phi0, psi0 = phi_psi_batch(process, t_ex, np.full((1, 1), w + 0j))
    base = phi0[0] + psi0[0] @ x0.astype(complex)

    def integrand(v):
        z_mgf = (damping - 1j * v)[:, None]  # argument of the tilted MGF
        phi1, psi1 = phi_psi_batch(process, t_ex, w + z_mgf)
        log_mgf = phi1 + psi1 @ x0.astype(complex) - base
        iz = 1j * v - damping  # iz for z = v + i*damping
        fhat = np.exp(iz * root) * (
            (boundary[None, :] * (-B)[None, :])
            / (iz[:, None] * (B[None, :] + iz[:, None]))).sum(axis=1)
        return np.exp(log_mgf) * fhat

    width = q.truncation if q.truncation is not None else 64.0
    integral, err = semi_infinite_oscillatory(
        integrand, initial_width=width, rel_tol=q.rel_tol)
    pref = m.bond0(i) / (2.0 * math.pi)
    return _checked("swaption", pref * 2.0 * float(np.real(integral)),
                    pref * 2.0 * float(abs(err)), damping, root=root)


def swaption_cir_closed(m: CalibratedModel, s: SwaptionSpec) -> PriceResult:
    """Closed-form payer swaption for the one-factor square-root driver.

    Decomposes the payoff over the exercise region {X_{T_i} >= Y} and
    evaluates each probability P_{T_k}(X_{T_i} > Y) through the survival
    function of the factor's law tilted to the T_k-forward measure
    (:func:`_factor_law`).
    """
    p = _require_cir(m)
    root = swaption_root(m, s)
    t_ex, _, psi = _swaption_tilts(m, s)
    x = float(m.x0[0])
    tails = [lsnc_sf(root, _factor_law(p, x, t_ex, 1.0, theta))
             for theta in psi]
    coup = s.coupons(m.delta)
    price = m.bond0(s.start_index) * tails[0]
    for pos, k in enumerate(range(s.start_index + 1, s.end_index + 1)):
        price -= coup[pos] * m.bond0(k) * tails[pos + 1]
    return PriceResult(max(price, 0.0), 0.0, None, root=root)


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def black76_price(forward: float, strike: float, expiry: float, vol: float,
                  annuity: float, call: bool = True) -> float:
    """Black's futures formula for a caplet-style payoff, undiscounted
    forward measure expectation times ``annuity``."""
    intrinsic = max(forward - strike, 0.0) if call \
        else max(strike - forward, 0.0)
    if vol <= 0.0 or expiry <= 0.0 or strike <= 0.0 or forward <= 0.0:
        return annuity * intrinsic
    total = vol * math.sqrt(expiry)
    d1 = (math.log(forward / strike) + 0.5 * total * total) / total
    d2 = d1 - total
    if call:
        return annuity * (forward * _norm_cdf(d1) - strike * _norm_cdf(d2))
    return annuity * (strike * _norm_cdf(-d2) - forward * _norm_cdf(-d1))


def black76_implied_vol(price: float, forward_rate: float, strike: float,
                        expiry: float, annuity: float,
                        tol: float = 1e-10) -> float:
    """Volatility reproducing ``price`` in Black's formula.

    Newton iteration safeguarded by a maintained bracket.  It stops when a
    Newton step moves the vol by at most 1e-12 relative, when the price
    residual is within a few ulps of the price, or when the bracket has
    shrunk to 1e-12 relative; so the vol is resolved however small the
    vega.  ``tol`` is the slack of the static bounds: prices outside
    [intrinsic, annuity * forward] by more than ``tol`` raise OutOfBounds,
    and a time value below ``tol / 100`` gives vol zero.
    """
    if annuity <= 0.0 or forward_rate <= 0.0 or strike <= 0.0:
        raise OutOfBounds("need positive annuity, forward and strike")
    intrinsic = annuity * max(forward_rate - strike, 0.0)
    upper = annuity * forward_rate
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
    quotes, specs = {}, []
    for strike in strikes:
        try:
            specs.append(CapletSpec(k, strike).with_model(m))
        except AffineLiborError as exc:
            quotes[strike] = exc
    if not specs:
        return quotes
    try:
        prices, errs, damping = row(k, np.array([c.bold_strike
                                                 for c in specs]))
    except AffineLiborError as exc:
        quotes.update((c.strike, exc) for c in specs)
        return quotes
    for c, price, err in zip(specs, prices, errs):
        try:
            quotes[c.strike] = _checked("caplet", price, err, damping)
        except QuadratureFailure as exc:
            quotes[c.strike] = exc
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
                q: QuadratureSettings = DEFAULT_QUADRATURE):
    """Caplet prices and Black-76 implied vols over expiries x strikes.

    One row per caplet expiry T_k (k = 1 .. N-1, expiry-major) and strike
    (ascending).  Each expiry row is priced at once: the Fourier route
    evaluates one vector-valued integral whose damping is chosen once per
    expiry (least worst-strike magnitude at the origin, or ``q.damping``),
    so a row's prices depend on which strikes share it, within their
    error estimates; the closed forms evaluate each forward measure's
    series once over the strike row.  Rows are independent of each other.
    Cells where pricing or inversion fails are emitted with NaN entries
    and the error category, never silently clamped.
    """
    strikes = sorted(float(s) for s in np.atleast_1d(strikes))
    if method == "fourier":
        def row(k, bold):
            return _fourier_row(m, k, bold, q, want_call=True)
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
