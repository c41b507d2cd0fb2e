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
Only the factor K'^{-(R-iv)} depends on the strike.  Against a reference
strike K_ref (the middle one of a surface) it splits as

    K'^{-(R-iv)} = K_ref'^{-(R-iv)} e^{-R dL} e^{i v dL},
    dL = log K' - log K_ref',

so a vol surface is one vector-valued integral with one component per
(expiry, strike) cell, each expiry on its own contour, whose integrand
takes one complex exponential per (node, expiry), one per (node, strike)
and one real one per (expiry, strike), and two products per cell
(:func:`_integrands`); each integrand call is one transform call for all
nodes and expiries (:func:`_fourier_cells`).  A single caplet is the
one-cell case, its strike its own reference.  Cap-floor parity is
model-free, so on either route a floorlet is its caplet less the
period's forward value (:func:`_floorlet`).  A payer swaption on
[T_i, T_m] is a put on a coupon bond; its payoff transform has a closed
form in terms of the unique zero of the exercise function
(:func:`swaption_root`).

Chi-square route (products of square-root factors, a lone factor being a
product of one): each factor, tilted to a forward measure, follows a
scaled non-central chi-square law, so P(sum_j b_j X_j > y) under each
forward measure is the survival function of a positive linear
combination of non-central chi-squares (:func:`_tilted_tails`, the
route's one call of ``chisq_mix_sf``).  A closed-form caplet takes two
such tails, one per adjacent forward measure, and a surface takes the
tilts of all its expiries in one call and their laws as one batch
(:func:`_closed_cells`); the one-factor swaption takes one tail per date
T_i .. T_m, each alone, with b = 1 and y the exercise root.  With one
live factor a tail is the exact Poisson series; Imhof's integral runs
only when two or more factors are live.

Implied volatilities invert Black's futures formula, all cells of a
surface in one call: the static checks run on arrays, and each cell left
iterates on Python floats (:func:`_implied_vols`).
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
_SQRT_2PI = math.sqrt(2.0 * math.pi)


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


def _integrands(m: CalibratedModel, t, phi, psi, log_bold: np.ndarray):
    """Caplet integrands K'^{-z} E[(e^Z)^z] / (z (z - 1)) on the contours
    z = R - iv, as a function of (v, R) with a strike axis appended to
    their broadcast shape.  v holds the nodes (a row of them; 0 for the
    damping probe) and R the dampings: one, one per probe candidate, or,
    when ``t`` holds one fixing time per expiry (and ``phi``, ``psi`` one
    pair of tilts per expiry), one per expiry, a column each.

    The strike enters only through K'^{-z}, and with
    dL = log K' - log K_ref' against a reference strike K_ref (the middle
    bold strike) it factors as

        K'^{-z} = K_ref'^{-z} * exp(-R dL) * exp(i v dL),

    so a = K_ref'^{-z} E[(e^Z)^z] / (z (z - 1)) is one complex exponential
    per (node, lane), exp(i v dL) one per (node, strike) and exp(-R dL)
    one real one per (lane, strike); the cells cost two products into
    the one output buffer.  Folding K_ref'^{-z} into a keeps the factors
    near the cells' own size: |dL| is at most the spread of log K', a few
    hundredths on a rate surface, so exp(-R dL) overflows only once
    R |dL| passes 709, at dampings whose integrands are out of range
    anyway, and the probe chooses the direct form's dampings.  One strike
    is its own reference (dL = 0) and takes a alone, the direct form bit
    for bit.  One forward-price MGF call serves all lanes and strikes,
    and its temporaries are freed before the output buffer is
    allocated."""
    log_mgf = forward_log_mgf(m, t, phi, psi)
    ref = float(log_bold[log_bold.size // 2])
    d_log = log_bold - ref

    def integrands(v, dampings):
        z = dampings - 1j * v
        a = log_mgf(z)
        a -= z * ref
        np.exp(a, out=a)
        a /= z * (z - 1.0)
        if log_bold.size == 1:
            return a[..., None]
        out = np.multiply(a[..., None],
                          np.exp(1j * np.multiply.outer(v, d_log)))
        out *= np.exp(np.multiply.outer(dampings, -d_log))
        return out

    return integrands


def _contours(m: CalibratedModel, ks, log_bold: np.ndarray) -> dict:
    """{k: (t_fix, phi, psi, damping) or the error that stopped it}: the
    Fourier contours at the expiries T_k, k in ``ks``, for the log bold
    strikes, with the tilts of u_k and u_{k+1} at T_N - T_k from one call
    (should it raise, one per expiry) and :func:`_choose_damping`'s
    damping, whose probe is one transform call per expiry."""
    dates = [m.tenor.date(k) for k in ks]
    try:
        phi, psi = tilt_exponents(m, dates, [ks, [k + 1 for k in ks]])
    except AffineLiborError as exc:
        return {ks[0]: exc} if len(ks) == 1 else {
            k: _contours(m, [k], log_bold)[k] for k in ks}
    contours = {}
    for k, t_fix, phi_e, psi_e in zip(ks, dates, phi.T, psi.swapaxes(0, 1)):
        # phi of u_k is rebuilt as A_k + phi of u_{k+1}: the recorded
        # Fourier prices depend on this order of operations.
        phi_e = np.array([phi_e[0] - phi_e[1] + float(phi_e[1]), phi_e[1]])
        sup = m.process.domain_sup(t_fix) if t_fix > 0.0 \
            else np.full(m.process.dim, np.inf)
        probe = _integrands(m, t_fix, phi_e, psi_e, log_bold)
        try:
            # Re(z) is constant along the contour, so the strip bounds
            # decide admissibility once and for all nodes.
            hi = _strip_upper_end(psi_e[1], psi_e[0] - psi_e[1], sup)
            with np.errstate(over="ignore", invalid="ignore"):
                contours[k] = (t_fix, phi_e, psi_e, _choose_damping(
                    hi, lambda c: np.abs(probe(0.0, c))))
        except AffineLiborError as exc:
            contours[k] = exc
    return contours


def _fourier_cells(m: CalibratedModel, contours, bold: np.ndarray,
                   rel_tol: float):
    """Caplets on the given contours (one per expiry, from
    :func:`_contours`) for the bold strikes ``bold``; floorlets follow
    from them by parity (:func:`_floorlet`).

    Every (expiry, strike) cell is one component of a single
    vector-valued integral, with its own error budget; each expiry keeps
    its own damping.  Returns prices and error estimates, one row per
    expiry and one column per strike.
    """
    # A lone expiry (a single quote) takes no expiry axis: its transform
    # calls then see two-dimensional lane arrays, which numpy runs faster.
    t, phi, psi, dampings = contours[0] if len(contours) == 1 else (
        np.array(x) for x in zip(*contours))
    integrands = _integrands(m, t, phi, psi, np.log(bold))
    lanes = (-1,) + (1,) * np.ndim(dampings)  # a column per expiry, if any
    integral, err = semi_infinite_oscillatory(
        lambda v: integrands(v.reshape(lanes), dampings).reshape(v.size, -1),
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
    contour = _contours(m, [c.period_index], np.log(bold))[c.period_index]
    if isinstance(contour, AffineLiborError):
        raise contour
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
    times = np.full(len(thetas), t, dtype=float) if np.ndim(t) == 0 \
        else np.asarray(t, dtype=float)
    eb = np.array([f.eta ** 2 * f.b(times) for f in factors]).T
    nu = np.array([f.lam * f.theta / f.eta ** 2 for f in factors])
    alpha = np.array([x * f.a(times) for f, x in zip(factors, x0)]).T / eb
    zeta = 1.0 - 2.0 * eb * thetas
    if not (zeta > 0.0).all():
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
    live = (b != 0.0) & [f.lam * f.theta > 0.0 or x > 0.0
                         for f, x in zip(factors, x0)]
    batches = {}  # which factors are live -> laws
    for law, row in enumerate(map(tuple, live.tolist())):
        batches.setdefault(row, []).append(law)
    for j in np.flatnonzero(live.any(axis=0)).tolist():
        _require_positive_dof(factors[j], j)
    tails = np.where(y < 0.0, 1.0, 0.0)
    for row, laws in batches.items():
        cols = [j for j, on in enumerate(row) if on]
        if not cols:
            continue
        pick = slice(None) if len(laws) == len(y) else laws  # rows, as views
        sigma, nu, alpha = _factor_laws(
            [factors[j] for j in cols], x0[cols], times[pick],
            thetas[pick][:, cols])
        sigma *= b[pick][:, cols]
        if alone:
            for i, law in enumerate(laws):
                tails[law:law + 1] = chisq_mix_sf(y[law:law + 1], ChiSqMixSpec(
                    sigma[i:i + 1], nu[None, :], alpha[i:i + 1]))
        else:
            tails[pick] = chisq_mix_sf(y[pick], ChiSqMixSpec(
                sigma, np.broadcast_to(nu, sigma.shape), alpha))
    return tails


def _closed_cells(m: CalibratedModel, ks, bold: np.ndarray):
    """Closed-form caplets at the expiries T_k, k in ``ks``, for a product
    of square-root factors: one row of prices per expiry, one column per
    bold strike.

    The caplet pays when sum_j B_kj X_j exceeds y = log K' - A_k, a tail
    (:func:`_tilted_tails`) under each adjacent forward measure.  One tilt
    call serves every expiry, and one tail evaluation the two laws of
    every expiry (a lone expiry, a single quote, evaluates its two laws
    one by one).
    """
    factors = _square_root_factors(m.process)
    ks = np.array(ks)
    dates = m.tenor.dates[ks]
    phi, psi = tilt_exponents(m, dates, [ks, ks + 1])
    # one law each for the T_k- and the T_{k+1}-forward measure
    b = (psi[0] - psi[1]).repeat(2, axis=0)
    y = (np.log(bold) - (phi[0] - phi[1])[:, None]).repeat(2, axis=0)
    tails = _tilted_tails(factors, m.x0, dates.repeat(2),
                          psi.swapaxes(0, 1).reshape(b.shape), b, y,
                          alone=len(ks) == 1).reshape(len(ks), 2, -1)
    bonds = m.tenor.discounts[:, None]  # B(0, T_k) in row k - 1
    return np.maximum(bonds[ks - 1] * tails[:, 0]
                      - bold * bonds[ks] * tails[:, 1], 0.0)


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


# Slack of the static bounds that black76_implied_vol checks a price
# against.
_VOL_BOUND_SLACK = 1e-10


def _implied_vols(price, forward, strike, expiry, annuity):
    """Black-76 implied vols of numpy lanes (1-d arrays of one length):
    the vols, NaN where a lane failed, and {lane: its error}.

    The static checks run on the arrays; every lane left iterates on
    Python floats (:func:`_settle`), taking the steps of
    :func:`black76_implied_vol` whatever lanes share the batch.
    """
    vols = np.full(price.size, math.nan)
    errors = {}
    intrinsic = annuity * np.maximum(forward - strike, 0.0)
    upper = annuity * forward
    tol = _VOL_BOUND_SLACK
    unusable = (annuity <= 0.0) | (forward <= 0.0) | (strike <= 0.0)
    outside = (price < intrinsic - tol) | (price > upper + tol)
    expired = expiry <= 0.0
    flat = (price <= intrinsic + tol * 1e-2) | expired
    late = flat & expired & (price > intrinsic + tol)
    decided = unusable | outside | late  # lanes that need no iteration
    if np.count_nonzero(decided):
        for i in np.flatnonzero(unusable):
            errors[i] = OutOfBounds("need positive annuity, forward and "
                                    "strike")
        for i in np.flatnonzero(outside):
            errors.setdefault(i, OutOfBounds(
                f"price {float(price[i])} outside [{float(intrinsic[i])}, "
                f"{float(upper[i])}]"))
        for i in np.flatnonzero(late):
            errors.setdefault(i, OutOfBounds("positive time value at zero "
                                             "expiry"))
        flat &= ~decided
    if np.count_nonzero(flat):
        vols[flat] = 0.0
        decided |= flat
    if np.count_nonzero(decided):
        lane = np.flatnonzero(~decided)
        price, forward, strike, annuity, expiry = (
            x[lane] for x in (price, forward, strike, annuity, expiry))
    else:
        lane = np.arange(price.size)
    _settle(zip(price.tolist(), forward.tolist(), strike.tolist(),
                annuity.tolist(), np.sqrt(expiry).tolist(),
                map(math.log, (forward / strike).tolist()), lane.tolist()),
            vols, errors)
    return vols, errors


def _settle(rows, vols, errors):
    """Lanes of :func:`_implied_vols` one by one on Python floats: writes
    each lane's vol into ``vols``, or its error into ``errors``.

    A row is (price, forward, strike, annuity, sqrt(T), log(F/K), lane).
    The lane first doubles hi from the bracket [lo, hi] = [0, 1] until
    Black's value there reaches the price; then it takes up to 100 Newton
    steps from the bracket's midpoint.
    """
    erf, exp, ulp, root2, root2pi = (math.erf, math.exp, math.ulp, _SQRT2,
                                     _SQRT_2PI)
    settled, settled_vols = [], []
    for p, f, k, a, sqrt_t, log_fk, i in rows:
        lo, hi = 0.0, 1.0
        for _ in range(200):
            total = hi * sqrt_t
            d1 = (log_fk + 0.5 * total * total) / total
            if a * (f * (0.5 * (1.0 + erf(d1 / root2)))
                    - k * (0.5 * (1.0 + erf((d1 - total) / root2)))) >= p:
                break
            lo, hi = hi, 2.0 * hi
        else:
            errors[i] = ConvergenceFailure("implied vol bracket expansion "
                                           "failed")
            continue
        vol = 0.5 * (lo + hi)
        resolved, scale = 4.0 * ulp(p), a * f * sqrt_t
        for _ in range(100):
            total = vol * sqrt_t
            d1 = (log_fk + 0.5 * total * total) / total
            diff = a * (f * (0.5 * (1.0 + erf(d1 / root2)))
                        - k * (0.5 * (1.0 + erf((d1 - total) / root2)))) - p
            if abs(diff) <= resolved:  # it keeps the vol it tried
                break
            if diff > 0.0:
                hi = vol
            else:
                lo = vol
            vega = scale * exp(-0.5 * d1 * d1) / root2pi
            step = vol - diff / vega if vega > 1e-300 else math.nan
            if lo < step < hi:
                if abs(step - vol) <= 1e-12 * vol:
                    vol = step
                    break
                vol = step
            else:
                vol = 0.5 * (lo + hi)
            if hi - lo <= 1e-12 * hi:
                break
        else:
            errors[i] = ConvergenceFailure("implied vol iteration did not "
                                           "settle")
            continue
        settled.append(i)
        settled_vols.append(vol)
    vols[settled] = settled_vols


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


@dataclass(slots=True)
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
    forward measure) law in one pass.  All cells are then inverted in
    one call (:func:`_implied_vols`).  Invalid strikes fail alone, and a
    failure of an expiry (transform, damping) fails that expiry's cells;
    failed cells are emitted with NaN entries and the error category,
    never silently clamped.
    """
    strikes = np.array(sorted(float(s) for s in np.atleast_1d(strikes)))
    ks = list(range(1, m.n_periods))
    valid = (strikes >= 0.0) & (strikes < math.inf)
    bold = 1.0 + m.delta * strikes[valid]
    if method == "fourier":
        # each expiry's contour, or its error, until priced
        rows = _contours(m, ks, np.log(bold)) if bold.size and ks else {}
        rows.update(_by_expiry(lambda group: _fourier_cells(
            m, [rows[k] for k in group], bold, rel_tol),
            [k for k, c in rows.items() if isinstance(c, tuple)]))
    elif method == "closed":
        _square_root_factors(m.process)
        rows = _by_expiry(lambda group: (
            _closed_cells(m, group, bold), np.zeros((len(group), bold.size))),
            ks if bold.size else [])
    else:
        raise InvalidParameter(f"unknown method {method!r}")
    shape = (len(ks), strikes.size)
    failed = np.full(shape, None)  # error category per cell
    failed[:, ~valid] = InvalidParameter.__name__
    # prices and error estimates of the valid strikes, one row per expiry
    price_v, err_v = np.full((2, len(ks), bold.size), math.nan)
    for r, k in enumerate(ks):
        row = rows.get(k)
        if isinstance(row, AffineLiborError):
            failed[r, valid] = type(row).__name__
        elif row is not None:
            price_v[r], err_v[r] = row
    price, err = np.full((2,) + shape, math.nan)
    price[:, valid], err[:, valid] = price_v, err_v
    priced = np.equal(failed, None)
    # the rule of _checked on every priced cell
    bad = priced & ~(err <= 1e-3 * np.maximum(np.abs(price), 1e-6))
    failed[bad] = QuadratureFailure.__name__
    price = np.maximum(price, 0.0)
    # T_k, the initial rate of period k and delta B(0, T_{k+1}), one row
    # per expiry k, as TenorStructure computes them
    disc, expiry = m.tenor.discounts[:, None], m.tenor.dates[1:-1, None]
    fwd, annuity = (disc[:-1] / disc[1:] - 1.0) / m.delta, m.delta * disc[1:]
    # Time value below the quadrature resolution is genuinely zero
    # (drivers with rare jumps floor the rate, making low strikes
    # intrinsic); inverting the noise would fabricate a vol, so such
    # cells are snapped to zero instead.
    snap = price <= annuity * np.maximum(fwd - strikes, 0.0) \
        + np.maximum(3.0 * err, 1e-12)
    vol = np.where(snap, 0.0, math.nan)
    lanes = priced & ~bad & ~snap
    r, c = np.nonzero(lanes)
    vol[lanes], errors = _implied_vols(price[lanes], fwd[r, 0], strikes[c],
                                       expiry[r, 0], annuity[r, 0])
    for i, exc in errors.items():
        failed[r[i], c[i]] = type(exc).__name__
    dead = ~np.equal(failed, None)
    price[dead] = vol[dead] = err[dead] = math.nan
    return list(map(SurfaceCell, expiry.repeat(strikes.size).tolist(),
                    strikes.tolist() * len(ks), price.ravel().tolist(),
                    vol.ravel().tolist(), failed.ravel().tolist(),
                    err.ravel().tolist()))
