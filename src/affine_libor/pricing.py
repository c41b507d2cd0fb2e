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
Only the factor K'^{-(R-iv)} depends on the strike, so a vol surface is
one vector-valued integral with one component per (expiry, strike) cell,
each expiry on its own contour (:func:`_fourier_cells`); a single caplet
is the one-cell case.  Cap-floor
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
route's one call of ``chisq_mix_sf``).  A closed-form caplet takes two
such tails, one per adjacent forward measure, and a surface evaluates the
laws of all its expiries as one batch (:func:`_closed_cells`); the
one-factor swaption takes one tail per date T_i .. T_m, each alone, with
b = 1 and y the exercise root.  With one live factor a tail is the exact
Poisson series; Imhof's integral runs only when two or more factors are
live.

Implied volatilities invert Black's futures formula, all cells of a
surface at once as numpy lanes (:func:`_implied_vols`).
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


def _integrands(m: CalibratedModel, rows, log_bold: np.ndarray, z):
    """Caplet integrands K'^{-z} E[(e^Z)^z] / (z (z - 1)) at contour points
    z, one row of nodes and one column per expiry, for every strike:
    shape (nodes, expiries, strikes).

    ``rows`` holds (t_fix, phi, psi) per expiry.  Only the factor K'^{-z}
    depends on the strike, so each expiry takes one forward-price MGF
    evaluation per node; those are done, and their temporaries freed,
    before the one (nodes, expiries, strikes) buffer is allocated and
    updated in place.
    """
    log_mgf = np.empty(z.shape, dtype=complex)
    for e, (t_fix, phi, psi) in enumerate(rows):
        log_mgf[:, e] = forward_log_mgf(m, t_fix, phi, psi, z[:, e])
    out = np.multiply.outer(z, -log_bold.astype(complex))
    out += log_mgf[:, :, None]
    np.exp(out, out=out)
    return np.divide(out, (z * (z - 1.0))[:, :, None], out=out)


def _contour(m: CalibratedModel, k: int, log_bold: np.ndarray):
    """The Fourier contour of the caplets at expiry T_k for the log bold
    strikes ``log_bold``: (t_fix, phi, psi, damping), with the tilts of
    u_k and u_{k+1} at T_N - T_k and the damping of
    :func:`_choose_damping`."""
    t_fix = m.tenor.date(k)
    phi, psi = tilt_exponents(m, t_fix, (k, k + 1))
    # phi of u_k is rebuilt as A_k + phi of u_{k+1}: the recorded Fourier
    # prices depend on this order of operations.
    phi_k1 = float(phi[1])
    row = (t_fix, (phi[0] - phi[1] + phi_k1, phi_k1), psi)
    sup = np.atleast_1d(m.process.domain_sup(t_fix)) if t_fix > 0.0 else \
        np.full(m.process.dim, np.inf)
    # Re(z) is constant along the contour, so the strip bounds decide
    # admissibility once and for all nodes.
    hi = _strip_upper_end(psi[1], psi[0] - psi[1], sup)

    def magnitudes(candidates):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.abs(_integrands(m, [row], log_bold,
                                      candidates[:, None] + 0j)[:, 0])

    return row + (_choose_damping(hi, magnitudes),)


def _fourier_cells(m: CalibratedModel, contours, bold: np.ndarray,
                   rel_tol: float):
    """Caplets on the given contours (one per expiry, from
    :func:`_contour`) for the bold strikes ``bold``; floorlets follow
    from them by parity (:func:`_floorlet`).

    Every (expiry, strike) cell is one component of a single
    vector-valued integral, with its own error budget; each expiry keeps
    its own damping.  Returns prices and error estimates, one row per
    expiry and one column per strike.
    """
    rows = [c[:3] for c in contours]
    dampings = np.array([c[3] for c in contours])
    log_bold = np.log(bold)
    integral, err = semi_infinite_oscillatory(
        lambda v: _integrands(m, rows, log_bold,
                              dampings - 1j * v[:, None]).reshape(v.size, -1),
        rel_tol=rel_tol)
    shape = (len(contours), bold.size)
    pref = m.bond0(m.n_periods) * bold / (2.0 * math.pi)
    return (pref * 2.0 * np.real(integral).reshape(shape),
            pref * 2.0 * np.abs(err).reshape(shape))


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
    """Caplet price by Fourier inversion of the forward-price MGF: the
    one-cell case of :func:`_fourier_cells`."""
    bold = np.array([c.with_model(m)])
    contour = _contour(m, c.period_index, np.log(bold))
    prices, errs = _fourier_cells(m, [contour], bold, rel_tol)
    return _checked("caplet", prices[0, 0], errs[0, 0], contour[3])


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


def _factor_laws(factors, x0, t, thetas):
    """Laws of the square-root factors X_j at t, started at x0_j, under
    the measures that tilt X_t by the rows of ``thetas``: arrays
    (sigma, nu, alpha) with X_j / sigma_j non-central chi-square with nu_j
    degrees of freedom and non-centrality alpha_j; sigma and alpha have
    one row per measure and one column per factor.  ``t`` is one time, or
    one per measure.

    Under the terminal measure X_t / (eta^2 b(t)) is non-central
    chi-square with nu = lam theta / eta^2 and non-centrality
    x a(t) / (eta^2 b(t)).  Tilting by theta (the T_k-forward measure
    tilts by theta = psi_{T_N - t}(u_k)) keeps the family: scale and
    non-centrality divide by zeta = 1 - 2 eta^2 b(t) theta.
    """
    times = [t] * len(thetas) if np.ndim(t) == 0 else t
    eb = np.array([[f.eta ** 2 * f.b(s) for f in factors] for s in times])
    nu = np.array([f.lam * f.theta / f.eta ** 2 for f in factors])
    alpha = np.array([[x * f.a(s) for f, x in zip(factors, x0)]
                      for s in times]) / eb
    zeta = 1.0 - 2.0 * eb * thetas
    if not np.all(zeta > 0.0):
        raise DomainViolation("forward-measure tilt outside the moment "
                              "domain of a square-root factor")
    return eb / zeta, nu, alpha / zeta


def _tilted_tails(factors, x0, times, thetas, b, y,
                  alone: bool = False) -> np.ndarray:
    """P(sum_j b_lj X_j > y_l) for the square-root factors X_j at
    ``times[l]``, started at x0_j, under the measure that tilts X_t by
    ``thetas[l]``: one row per law l, one column per point of ``y[l]``.

    Each live factor contributes its tilted law (:func:`_factor_laws`)
    scaled by b_lj; a factor with b_lj = 0, or one pinned at zero, is a
    point mass and drops out.  Laws with the same live factors are one
    batch of ``chisq_mix_sf``, or with ``alone`` one call each: a single
    quote's few laws are faster that way, since one law's series keeps
    float shapes and needs no masks.
    """
    batches = {}  # live factors -> laws
    for law, row in enumerate(b.tolist()):
        live = tuple(j for j, f in enumerate(factors) if row[j] != 0.0
                     and (f.lam * f.theta > 0.0 or x0[j] > 0.0))
        batches.setdefault(live, []).append(law)
    for j in sorted(set().union(*batches)):
        _require_positive_dof(factors[j], j)
    tails = np.where(y < 0.0, 1.0, 0.0)
    for live, laws in batches.items():
        if not live:
            continue
        cols = list(live)
        sigma, nu, alpha = _factor_laws(
            [factors[j] for j in cols], x0[cols], times[laws],
            thetas[laws][:, cols])
        sigma *= b[laws][:, cols]
        if alone:
            for i, law in enumerate(laws):
                tails[law:law + 1] = chisq_mix_sf(y[law:law + 1], ChiSqMixSpec(
                    sigma[i:i + 1], nu[None, :], alpha[i:i + 1]))
        else:
            tails[laws] = chisq_mix_sf(y[laws],
                                       ChiSqMixSpec(sigma, nu, alpha))
    return tails


def _closed_cells(m: CalibratedModel, ks, bold: np.ndarray):
    """Closed-form caplets at the expiries T_k, k in ``ks``, for a product
    of square-root factors: one row of prices per expiry, one column per
    bold strike.

    The caplet pays when sum_j B_kj X_j exceeds y = log K' - A_k, a tail
    (:func:`_tilted_tails`) under each adjacent forward measure.  Each
    expiry takes one tilt, and one tail evaluation serves the two laws of
    every expiry (a lone expiry, a single quote, evaluates its two laws
    one by one).
    """
    factors = _square_root_factors(m.process)
    times, thetas, b, y = [], [], [], []
    for k in ks:
        t_fix = m.tenor.date(k)
        phi, psi = tilt_exponents(m, t_fix, (k, k + 1))
        # one law each for the T_k- and the T_{k+1}-forward measure
        times += [t_fix, t_fix]
        thetas.append(psi)
        b += [psi[0] - psi[1]] * 2
        y += [np.log(bold) - float(phi[0] - phi[1])] * 2
    tails = _tilted_tails(factors, m.x0, np.array(times), np.vstack(thetas),
                          np.array(b), np.array(y),
                          alone=len(ks) == 1).reshape(len(ks), 2, -1)
    below = np.array([m.bond0(k) for k in ks])[:, None]
    above = np.array([m.bond0(k + 1) for k in ks])[:, None]
    return np.maximum(below * tails[:, 0] - bold * above * tails[:, 1], 0.0)


def caplet_closed(m: CalibratedModel, c: CapletSpec) -> PriceResult:
    """Closed-form caplet for any product of square-root factors: the
    one-cell case of :func:`_closed_cells`."""
    price = _closed_cells(m, [c.period_index],
                          np.array([c.with_model(m)]))[0, 0]
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
    b = 1 and y = Y), the law the caplets use.
    """
    (p,) = _square_root_factors(m.process, 1)
    _require_positive_dof(p, 0)
    t_ex, psi, _, _, coup, root = _exercise(m, s)
    # one law per forward measure, each tail the series of that law alone
    n = psi.size
    tails = _tilted_tails((p,), m.x0, np.full(n, t_ex), psi[:, None],
                          np.ones((n, 1)), np.full((n, 1), root),
                          alone=True)[:, 0].tolist()
    price = m.bond0(s.start_index) * tails[0]
    for pos, k in enumerate(range(s.start_index + 1, s.end_index + 1)):
        price -= coup[pos] * m.bond0(k) * tails[pos + 1]
    return PriceResult(max(price, 0.0), 0.0, None, root=root)


# Python's math log, exp and erf as numpy ufuncs (over object arrays):
# numpy has no erf, and its own log and exp can round differently from
# the C library's in the last bit, which would move recorded vols.
_LOG, _EXP, _ERF = (np.frompyfunc(f, 1, 1)
                    for f in (math.log, math.exp, math.erf))


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _ERF(x / _SQRT2).astype(float))


def _black_call(forward, strike, log_moneyness, total, annuity):
    """Black's call value as numpy lanes at total vol ``total`` =
    vol sqrt(T) > 0, with ``log_moneyness`` = log(forward / strike), and
    its d1."""
    d1 = (log_moneyness + 0.5 * total * total) / total
    return annuity * (forward * _norm_cdf(d1)
                      - strike * _norm_cdf(d1 - total)), d1


def black76_price(forward, strike, expiry, vol, annuity):
    """Black's futures formula for a caplet: the forward-measure
    expectation of the call payoff times ``annuity``.  The arguments
    broadcast as numpy lanes; scalars give a float."""
    lanes = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in
                                  (forward, strike, expiry, vol, annuity)))
    f, k, t, v, a = (np.atleast_1d(x) for x in lanes)
    out = a * np.maximum(f - k, 0.0)
    live = ~((v <= 0.0) | (t <= 0.0) | (k <= 0.0) | (f <= 0.0))
    f, k = f[live], k[live]
    out[live] = _black_call(f, k, _LOG(f / k).astype(float),
                            v[live] * np.sqrt(t[live]), a[live])[0]
    return float(out[0]) if lanes[0].ndim == 0 else out


# Slack of the static bounds that black76_implied_vol checks a price
# against.
_VOL_BOUND_SLACK = 1e-10


def _implied_vols(price, forward, strike, expiry, annuity):
    """Black-76 implied vols of numpy lanes (1-d arrays of one length):
    the vols, NaN where a lane failed, and {lane: its error}.

    Every lane takes the steps of :func:`black76_implied_vol` with its
    stop tests in the same order, on the same arithmetic; the arrays of
    the lanes still iterating shrink as lanes stop.
    """
    vols = np.full(price.size, math.nan)
    errors = {}
    for i in np.flatnonzero((annuity <= 0.0) | (forward <= 0.0)
                            | (strike <= 0.0)):
        errors[i] = OutOfBounds("need positive annuity, forward and strike")
    intrinsic = annuity * np.maximum(forward - strike, 0.0)
    upper = annuity * forward
    tol = _VOL_BOUND_SLACK
    for i in np.flatnonzero((price < intrinsic - tol) | (price > upper + tol)):
        errors.setdefault(i, OutOfBounds(
            f"price {float(price[i])} outside [{float(intrinsic[i])}, "
            f"{float(upper[i])}]"))
    flat = (price <= intrinsic + tol * 1e-2) | (expiry <= 0.0)
    late = flat & (expiry <= 0.0) & (price > intrinsic + tol)
    for i in np.flatnonzero(late):
        errors.setdefault(i, OutOfBounds("positive time value at zero "
                                         "expiry"))
    pending = np.ones(price.size, dtype=bool)
    pending[list(errors)] = False
    vols[pending & flat] = 0.0
    lane = np.flatnonzero(pending & ~flat)
    p, f, k, a, t = (x[lane] for x in (price, forward, strike, annuity,
                                       expiry))
    hi = np.ones(lane.size)
    lo = np.zeros(lane.size)
    for _ in range(200):
        short = ~(black76_price(f, k, t, hi, a) >= p)
        if not short.any():
            break
        lo = np.where(short, hi, lo)
        hi = np.where(short, 2.0 * hi, hi)
    else:
        for i in lane[short]:
            errors[i] = ConvergenceFailure("implied vol bracket expansion "
                                           "failed")
    # per lane: the price residual that stops it, and the vega's factor
    # annuity * forward * sqrt(T) (the scalar code's order of products)
    sqrt_t = np.sqrt(t)
    state = [x[~short] for x in (lane, p, f, k, a, sqrt_t,
                                 _LOG(f / k).astype(float), lo, hi,
                                 4.0 * np.spacing(p), a * f * sqrt_t)]
    vol = 0.5 * (state[7] + state[8])
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            lane, p, f, k, a, sqrt_t, log_fk, lo, hi, resolved, scale = state
            if not lane.size:
                break
            value, d1 = _black_call(f, k, log_fk, vol * sqrt_t, a)
            diff = value - p
            stop = np.abs(diff) <= resolved
            above = diff > 0.0
            lo, hi = np.where(above, lo, vol), np.where(above, vol, hi)
            state[7:9] = lo, hi
            vega = scale * _EXP(-0.5 * d1 * d1).astype(float) \
                / math.sqrt(2.0 * math.pi)
            step = np.where(vega > 1e-300, vol - diff / vega, math.nan)
            inside = (lo < step) & (step < hi)
            new = np.where(inside, step, 0.5 * (lo + hi))
            done = stop | (inside & (np.abs(step - vol) <= 1e-12 * vol)) \
                | (hi - lo <= 1e-12 * hi)
            if done.any():
                # a lane stopped by its residual keeps the vol it tried
                vols[lane[done]] = np.where(stop, vol, new)[done]
                state = [x[~done] for x in state]
                new = new[~done]
            vol = new
    for i in state[0]:
        errors[i] = ConvergenceFailure("implied vol iteration did not settle")
    return vols, errors


def black76_implied_vol(price: float, forward_rate: float, strike: float,
                        expiry: float, annuity: float) -> float:
    """Volatility reproducing ``price`` in Black's formula: the one-lane
    case of the surfaces' inversion.

    Newton iteration safeguarded by a maintained bracket, found by
    doubling from [0, 1].  It stops when the price residual is within
    four ulps of the price, when a Newton step moves the vol by at most
    1e-12 relative, or when the bracket has shrunk to 1e-12 relative,
    tested in that order; so the vol is resolved however small the vega.
    Prices outside [intrinsic, annuity * forward] by more than
    ``_VOL_BOUND_SLACK`` raise OutOfBounds, and a time value below a
    hundredth of it gives vol zero.
    """
    vols, errors = _implied_vols(*(np.array([v], dtype=float) for v in (
        price, forward_rate, strike, expiry, annuity)))
    if errors:
        raise errors[0]
    return float(vols[0])


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


def _by_expiry(price, ks) -> dict:
    """{k: (prices, error estimates)} over the strikes of each expiry k in
    ``ks``, or {k: the error that stopped it}.

    ``price(group)`` prices a group of expiries at once.  All of ``ks``
    are one group; should that raise, or leave a cell without a finite
    price or error estimate, each expiry is priced alone, so that a
    failure stays with its own expiry's cells.
    """
    if len(ks) > 1:
        try:
            prices, errs = price(ks)
            if np.isfinite(prices).all() and np.isfinite(errs).all():
                return dict(zip(ks, zip(prices, errs)))
        except AffineLiborError:
            pass
    rows = {}
    for k in ks:
        try:
            prices, errs = price([k])
            rows[k] = prices[0], errs[0]
        except AffineLiborError as exc:
            rows[k] = exc
    return rows


def vol_surface(m: CalibratedModel, strikes, method: str = "fourier",
                rel_tol: float = 1e-9):
    """Caplet prices and Black-76 implied vols over expiries x strikes.

    One cell per caplet expiry T_k (k = 1 .. N-1, expiry-major) and strike
    (ascending).  The whole surface is one batch per route: the Fourier
    route evaluates one vector-valued integral over all cells, each
    expiry on its own contour whose damping is chosen for its strikes
    (least worst-strike magnitude at the origin), so a cell's price
    depends on which cells share the surface, within their error
    estimates; the closed forms evaluate the tails of every (expiry,
    forward measure) law in one pass.  All cells are then inverted at
    once, as numpy lanes.  Invalid strikes fail alone, and a failure of
    an expiry (transform, damping) fails that expiry's cells; failed
    cells are emitted with NaN entries and the error category, never
    silently clamped.
    """
    strikes = np.array(sorted(float(s) for s in np.atleast_1d(strikes)))
    ks = list(range(1, m.n_periods))
    valid = (strikes >= 0.0) & (strikes < math.inf)
    bold = 1.0 + m.delta * strikes[valid]
    if method == "fourier":
        rows, contours = {}, {}
        for k in ks if bold.size else ():
            try:
                contours[k] = _contour(m, k, np.log(bold))
            except AffineLiborError as exc:
                rows[k] = exc
        rows.update(_by_expiry(lambda group: _fourier_cells(
            m, [contours[k] for k in group], bold, rel_tol), list(contours)))
    elif method == "closed":
        _square_root_factors(m.process)
        rows = _by_expiry(lambda group: (
            _closed_cells(m, group, bold), np.zeros((len(group), bold.size))),
            ks if bold.size else [])
    else:
        raise InvalidParameter(f"unknown method {method!r}")
    shape = (len(ks), strikes.size)
    price, err = np.full(shape, math.nan), np.full(shape, math.nan)
    priced = np.zeros(shape, dtype=bool)
    failed = {}  # (row, column) -> error category
    for r, k in enumerate(ks):
        row = rows.get(k)
        for c in range(strikes.size):
            if not valid[c]:
                failed[r, c] = InvalidParameter.__name__
            elif isinstance(row, AffineLiborError):
                failed[r, c] = type(row).__name__
        if isinstance(row, tuple):
            price[r, valid], err[r, valid] = row
            priced[r, valid] = True
    # the rule of _checked on every priced cell
    bad = priced & ~(err <= 1e-3 * np.maximum(np.abs(price), 1e-6))
    failed.update(((r, c), QuadratureFailure.__name__)
                  for r, c in zip(*np.nonzero(bad)))
    price = np.maximum(price, 0.0)
    expiry, fwd, annuity, strike = np.broadcast_arrays(*(
        np.array([value(k) for k in ks]).reshape(-1, 1) for value in (
            m.tenor.date, m.tenor.initial_libor,
            lambda k: m.delta * m.bond0(k + 1))), strikes)
    # Time value below the quadrature resolution is genuinely zero
    # (drivers with rare jumps floor the rate, making low strikes
    # intrinsic); inverting the noise would fabricate a vol, so such
    # cells are snapped to zero instead.
    snap = price <= annuity * np.maximum(fwd - strike, 0.0) \
        + np.maximum(3.0 * err, 1e-12)
    vol = np.where(snap, 0.0, math.nan)
    lanes = priced & ~bad & ~snap
    vol[lanes], errors = _implied_vols(price[lanes], fwd[lanes],
                                       strike[lanes], expiry[lanes],
                                       annuity[lanes])
    cells = list(zip(*np.nonzero(lanes)))
    failed.update((cells[i], type(exc).__name__) for i, exc in errors.items())
    rows = zip(expiry[:, 0].tolist(), price.tolist(), vol.tolist(),
               err.tolist())
    return [SurfaceCell(t, s, math.nan, math.nan, error=failed[r, c],
                        error_estimate=math.nan) if (r, c) in failed else
            SurfaceCell(t, s, p_row[c], v_row[c], error_estimate=e_row[c])
            for r, (t, p_row, v_row, e_row) in enumerate(rows)
            for c, s in enumerate(strikes.tolist())]
