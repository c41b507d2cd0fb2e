"""Bond-ratio term-structure model driven by an affine factor process.

Quotients of zero-coupon bonds are modelled by the exponential
martingales

    M_t^u = exp(phi_{T_N - t}(u) + <psi_{T_N - t}(u), X_t>),

one parameter vector u_k per tenor date, decreasing in k with u_N = 0:

    B(t, T_k) / B(t, T_N) = M_t^{u_k}.

Because psi is order-preserving this produces non-negative simple forward
rates, and under the terminal measure the driving process stays
time-homogeneous.  Calibration reduces to one increasing scalar equation
per tenor date along a common direction in the transform domain; all of
them share the horizon T_N, so one vectorised, bracketed secant solves
them together (:func:`fit_term_structure`).  The change to the
T_k-forward measure is an exponential tilt by psi_{T_N - t}(u_k), so the
model stays affine under every forward measure.  One kernel,
:func:`tilt_exponents`, evaluates these tilts for tenor indices, each at
its own time, with one batched transform; the forward-price exponents,
the forward-price MGF of the Fourier caplets (:func:`forward_log_mgf`)
and every pricer and Monte Carlo weight take their tilts from it.  Every
batched transform is one call of
:func:`~affine_libor.affine_core.phi_psi_batch` (one horizon per expiry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .affine_core import phi_psi_batch, transform
from .errors import (AffineLiborError, ConvergenceFailure, DomainViolation,
                     HorizonViolation, InfeasibleCurve, InvalidParameter,
                     NonMonotoneCurve)

_RATIO_SLACK = 1e-13


@dataclass(frozen=True)
class TenorStructure:
    """Tenor dates T_0 < ... < T_N with discounts B(0, T_k), k = 1..N.

    ``dates`` has length N + 1 (it includes T_0), ``discounts`` length N.
    Spacing must equal ``delta`` throughout.
    """

    dates: np.ndarray
    delta: float
    discounts: np.ndarray

    def __post_init__(self):
        dates = np.asarray(self.dates, dtype=float)
        disc = np.asarray(self.discounts, dtype=float)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "discounts", disc)
        # written so that a NaN anywhere fails it
        if not (0.0 < self.delta < math.inf and np.all(np.isfinite(dates))
                and np.all((disc > 0.0) & (disc <= 1.0))):
            raise InvalidParameter(
                "need finite tenor dates, a finite positive accrual delta "
                "and discount factors in (0, 1]")
        if dates.ndim != 1 or dates.size != disc.size + 1:
            raise InvalidParameter(
                "need len(dates) == len(discounts) + 1 (dates include T_0)")
        gaps = np.diff(dates)
        if np.any(gaps <= 0.0):
            raise InvalidParameter("tenor dates must be strictly increasing")
        if np.any(np.abs(gaps - self.delta) > 1e-9 * max(1.0, self.delta)):
            raise InvalidParameter("tenor dates must be spaced by delta")

    @classmethod
    def from_curve(cls, maturities, discounts, delta: float | None = None):
        """Build from dated discounts only; T_0 = first maturity - delta."""
        maturities = np.asarray(maturities, dtype=float)
        if maturities.size < 2:
            raise InvalidParameter("need at least two tenor dates")
        if delta is None:
            delta = float(maturities[1] - maturities[0])
        dates = np.concatenate([[maturities[0] - delta], maturities])
        return cls(dates, delta, np.asarray(discounts, dtype=float))

    @property
    def n_periods(self) -> int:
        return self.discounts.size

    def date(self, k: int) -> float:
        """T_k for k = 0..N."""
        if not 0 <= k <= self.n_periods:
            raise IndexError(f"tenor index {k} outside 0..{self.n_periods}")
        return float(self.dates[k])

    def bond(self, k: int) -> float:
        """B(0, T_k) for k = 1..N."""
        if not 1 <= k <= self.n_periods:
            raise IndexError(f"bond index {k} outside 1..{self.n_periods}")
        return float(self.discounts[k - 1])

    def ratios(self) -> np.ndarray:
        """B(0, T_k) / B(0, T_N) for k = 1..N."""
        return self.discounts / self.discounts[-1]

    def initial_libor(self, k: int) -> float:
        """Simple forward rate fixed at T_k, k = 1..N-1."""
        return (self.bond(k) / self.bond(k + 1) - 1.0) / self.delta


@dataclass(frozen=True)
class ForwardExponents:
    """Log-affine representation exp(A + <B, x>) of a bond-price quotient."""

    A: float
    B: np.ndarray


def _initial_state(x0, dim: int) -> np.ndarray:
    """``x0`` as a float array of one finite, non-negative value per
    factor, not all zero.

    The canonical choice is strictly positive (it resolves the scaling
    ambiguity of the martingale parameters); a zero component is only
    admitted so that degenerate factors can be represented exactly.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (dim,) or not np.all((x0 >= 0.0) & (x0 < math.inf)) \
            or not np.any(x0 > 0.0):
        raise InvalidParameter(f"initial state must be {dim} finite, "
                               f"non-negative values, not all zero, got {x0}")
    return x0


@dataclass(frozen=True)
class CalibratedModel:
    """Driving process, initial state and the fitted u-sequence."""

    process: object
    x0: np.ndarray
    tenor: TenorStructure
    us: np.ndarray  # shape (N, d), row k-1 holds u_k; last row is zero
    # Fit diagnostics per tenor date k = 1..N (index k-1): the residual
    # |M_0^{u_k} - B(0,T_k)/B(0,T_N)| and the root-finding steps (batched
    # transform evaluations) spent on it.
    # Dates fitted exactly by u_k = 0 record |1 - ratio| and zero steps.
    residuals: np.ndarray | None = None
    steps: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "x0",
                           _initial_state(self.x0, self.process.dim))
        object.__setattr__(self, "us", np.asarray(self.us, dtype=float))
        if self.us.shape != (self.tenor.n_periods, self.process.dim):
            raise InvalidParameter("u-sequence shape does not match tenor")

    @property
    def horizon(self) -> float:
        return self.tenor.date(self.tenor.n_periods)

    @property
    def n_periods(self) -> int:
        return self.tenor.n_periods

    @property
    def delta(self) -> float:
        return self.tenor.delta

    def u(self, k: int) -> np.ndarray:
        """Fitted parameter u_k, k = 1..N."""
        if not 1 <= k <= self.n_periods:
            raise IndexError(f"index {k} outside 1..{self.n_periods}")
        return self.us[k - 1]

    def bond0(self, k: int) -> float:
        return self.tenor.bond(k)


def martingale_value(m: CalibratedModel, t: float, x, u) -> float:
    """M_t^u = exp(phi_{T_N - t}(u) + <psi_{T_N - t}(u), x>).

    At least one for u >= 0 and x >= 0, and a martingale in t under the
    terminal measure whenever u lies in the terminal-horizon domain.
    """
    if t < 0.0 or t > m.horizon + 1e-12:
        raise HorizonViolation(f"t={t} outside [0, {m.horizon}]")
    u = np.atleast_1d(np.asarray(u))
    if np.any(np.real(u) >= m.process.domain_sup(m.horizon)):
        raise DomainViolation("u outside the terminal-horizon domain")
    pair = transform(m.process, m.horizon - t, u, horizon=m.horizon)
    return float(np.exp(pair.exponent(x)))


def estimate_gamma_x(process, horizon: float) -> float:
    """Supremum of E[exp(<u, X_T>)] over the positive part of the domain,
    from the all-ones initial state.

    Probes the martingale exponent along a geometric approach to the
    domain boundary (doubling when the domain is unbounded); returns
    ``inf`` when the exponent keeps growing, else the boundary limit.
    """
    x0 = np.full(process.dim, 1.0)
    sup = np.atleast_1d(process.domain_sup(horizon))
    last = None
    for i in range(1, 51):
        u = np.where(np.isfinite(sup), sup * (1.0 - 2.0 ** -i),
                     float(2 ** min(i, 40)))
        try:
            g = float(np.real(
                transform(process, horizon, u, horizon=horizon).exponent(x0)))
        except AffineLiborError:
            break
        if g > math.log(1e12):
            return math.inf
        if last is not None and abs(g - last) <= 1e-10 * max(1.0, abs(g)):
            return math.exp(g)
        last = g
    return math.inf if last is None else math.exp(last)


def _exponent_at_scale(process, horizon, x0, direction, c: float) -> float:
    pair = transform(process, horizon, c * direction, horizon=horizon)
    return float(np.real(pair.exponent(x0)))


def _find_direction_scale(process, horizon, x0, direction,
                          log_target: float):
    """Scale c with martingale exponent at c*direction above log_target,
    and that exponent.

    Approaches a finite domain boundary by halving the gap, doubles
    outward when the domain is unbounded.
    """
    sup = np.atleast_1d(process.domain_sup(horizon))
    cap = float(np.min(sup / direction))
    for i in range(1, 61):
        c = cap * (1.0 - 2.0 ** -i) if math.isfinite(cap) else float(2 ** i)
        try:
            g = _exponent_at_scale(process, horizon, x0, direction, c)
        except AffineLiborError:
            break
        if g > log_target + 1e-9:
            return c, g
        if i >= 40 and not math.isfinite(cap):
            break
    raise InfeasibleCurve(
        "driver cannot reach the largest discount ratio: "
        "sup E[exp(<u, X_T>)] too small for this curve")


def fit_term_structure(tenor: TenorStructure, process, x0=None,
                       tol: float = 1e-12) -> CalibratedModel:
    """Fit the u-sequence to the initial discount curve.

    Picks one point u_+ on the diagonal (all components equal) whose
    martingale value exceeds the largest ratio B(0,T_1)/B(0,T_N), then
    solves the strictly increasing scalar equations M_0^{xi_k u_+} =
    B(0,T_k)/B(0,T_N) for xi_k in (0, 1), in log form.  The equations share
    the horizon T_N, so one vectorised secant runs them all: each step
    evaluates the transform once, on the tenor dates that have not
    converged yet.  Each date keeps a bracket and takes the Anderson-Bjorck
    (modified regula falsi) point inside it (Anderson & Bjorck 1973, BIT
    13), or the midpoint when that point leaves the bracket or when two
    steps have halved neither the bracket nor the residual, so no date is
    slower than bisection by more than a constant factor.  A date stops
    when its residual is at most tol / 2, when its bracket holds two
    adjacent floats, or after 200 steps.  u_N = 0 always; for a
    one-dimensional driver the result is the unique fitting sequence, and
    the diagonal breaks the tie for several factors.

    Raises
    ------
    InvalidParameter
        if tol is not a finite positive number, or x0 is not one finite,
        non-negative value per factor (not all zero).
    ConvergenceFailure
        naming the first tenor date whose residual stays above tol.
    """
    if not 0.0 < tol < math.inf:
        raise InvalidParameter(
            f"calibration tol must be finite and positive, got {tol}")
    x0 = _initial_state(process.initial_state() if x0 is None else x0,
                        process.dim)
    ratios = tenor.ratios()
    if np.any(np.diff(ratios) > _RATIO_SLACK) or ratios[0] < 1.0 - _RATIO_SLACK:
        raise NonMonotoneCurve(
            "discount ratios must be non-increasing and >= 1 "
            "(non-negative initial forward rates)")
    n, d = tenor.n_periods, process.dim
    us = np.zeros((n, d))
    residuals = np.abs(1.0 - ratios)
    steps = np.zeros(n, dtype=int)
    lanes = np.flatnonzero(residuals[:-1] > _RATIO_SLACK)
    if lanes.size == 0:
        return CalibratedModel(process, x0, tenor, us, residuals, steps)

    direction = np.full(d, 1.0)
    horizon = tenor.date(n)
    c_plus, g_plus = _find_direction_scale(process, horizon, x0, direction,
                                           math.log(ratios[0]))

    # One lane per date solves f(xi) = exponent(xi c_+ u_+) - log target,
    # increasing in xi, negative at xi = 0 (exponent 0) and positive at
    # xi = 1 (the probe above): [lo, hi] = [0, 1] brackets every root.
    target = ratios[lanes]
    log_target = np.log(target)
    m = lanes.size
    lo, hi = np.zeros(m), np.ones(m)
    f_lo, f_hi = -log_target, g_plus - log_target
    last = np.zeros(m, dtype=int)  # bracket side the previous step replaced
    bisect = np.zeros(m, dtype=bool)
    # bracket width and |f| at the iterate, one and two steps back
    width_1, width_2 = np.ones(m), np.full(m, np.inf)
    fabs_1, fabs_2 = np.full(m, np.inf), np.full(m, np.inf)
    xi, resid = np.zeros(m), np.full(m, np.inf)  # best point so far
    live = np.arange(m)
    for step in range(1, 201):
        a, b, fa, fb = lo[live], hi[live], f_lo[live], f_hi[live]
        x = a - fa * (b - a) / (fb - fa)
        x = np.where(bisect[live] | ~((a < x) & (x < b)), 0.5 * (a + b), x)
        # a lane whose bracket holds two adjacent floats stops here
        inside = (a < x) & (x < b)
        live, x, a, b, fa, fb = (v[inside] for v in (live, x, a, b, fa, fb))
        if live.size == 0:
            break
        phi, psi = phi_psi_batch(process, horizon,
                                 (x * c_plus)[:, None] * direction)
        g = np.real(phi) + np.vecdot(np.real(psi), x0)
        r = np.abs(np.exp(g) - target[live])
        better = r < resid[live]
        xi[live[better]], resid[live[better]] = x[better], r[better]
        steps[lanes[live]] = step
        # Anderson-Bjorck: a step that replaces the same side as the step
        # before scales down the value kept at the other end, so that the
        # next secant point moves towards it.
        fx = g - log_target[live]
        below = fx < 0.0
        side = np.where(below, -1, 1)
        scale = 1.0 - fx / np.where(below, fa, fb)
        scale = np.where(last[live] != side, 1.0,
                         np.where(scale > 0.0, scale, 0.5))
        lo[live], f_lo[live] = np.where(below, x, a), \
            np.where(below, fx, fa * scale)
        hi[live], f_hi[live] = np.where(below, b, x), \
            np.where(below, fb * scale, fx)
        last[live] = side
        # Bisect next when two steps have halved neither the bracket nor
        # |f|.  A secant converging from one side leaves the far end of the
        # bracket in place, so the bracket alone would misjudge it.
        width, fabs = hi[live] - lo[live], np.abs(fx)
        bisect[live] = (width > 0.5 * width_2[live]) \
            & (fabs > 0.5 * fabs_2[live])
        width_2[live], width_1[live] = width_1[live], width
        fabs_2[live], fabs_1[live] = fabs_1[live], fabs
        live = live[r > 0.5 * tol]
        if live.size == 0:
            break
    failed = np.flatnonzero(resid > tol)
    if failed.size:
        j = failed[0]
        raise ConvergenceFailure(
            f"calibration residual {resid[j]:.3e} above "
            f"tolerance at index {lanes[j] + 1}")
    us[lanes] = (xi * c_plus)[:, None] * direction
    residuals[lanes] = resid
    return CalibratedModel(process, x0, tenor, us, residuals, steps)


def tilt_exponents(m: CalibratedModel, t, ks):
    """(phi, psi) of the martingale parameters u_k at horizon T_N - t.

    These are the exponents of M_t^{u_k}, and psi is the exponential tilt
    that moves the terminal measure to the T_k-forward measure.  ``ks``
    is an array of tenor indices and ``t`` one time, or one per entry of
    its last axis; one ``phi_psi_batch`` call serves every index.  The
    results are real: phi has the shape of ``ks``, psi a last axis of d.

    Raises
    ------
    IndexError
        for an index outside 1..N.
    HorizonViolation
        if a time lies outside [0, T_N].
    """
    ks, n, t_n = np.asarray(ks), m.n_periods, m.horizon
    idx = ks.ravel().tolist()
    if not 1 <= min(idx) <= max(idx) <= n:
        raise IndexError(f"index outside 1..{n} in {idx}")
    hrz = t_n - np.asarray(t, dtype=float)
    each = hrz.ravel().tolist()
    if not 0.0 <= min(each) <= max(each) <= t_n + 1e-12:
        raise HorizonViolation(f"t={t} outside [0, {t_n}]")
    phi, psi = phi_psi_batch(m.process, hrz if hrz.ndim else each[0],
                             m.us[ks - 1])
    return np.real(phi), np.real(psi)


def forward_exponents(m: CalibratedModel, k: int, i: int,
                      t: float) -> ForwardExponents:
    """Exponents of B-ratio quotients: M_t^{u_k} / M_t^{u_i} = exp(A + <B, x>).

    With i = k + 1 this is the forward-price pair for period k; with
    i < k it is the swaption-payoff pair.
    """
    phi, psi = tilt_exponents(m, t, (k, i))
    if t < 0.0 or t > min(m.tenor.date(k), m.tenor.date(i)) + 1e-12:
        raise HorizonViolation(
            f"t={t} beyond the quotient's horizon T_{min(i, k)}")
    return ForwardExponents(float(phi[0] - phi[1]), psi[0] - psi[1])


def libor_rate(m: CalibratedModel, k: int, t: float, x) -> float:
    """Simple forward rate for period k at time t in state x; >= 0 always."""
    if not 1 <= k <= m.n_periods - 1:
        raise IndexError(f"LIBOR index {k} outside 1..{m.n_periods - 1}")
    fe = forward_exponents(m, k, k + 1, t)
    return (math.exp(fe.A + float(np.dot(fe.B, np.atleast_1d(x)))) - 1.0) \
        / m.delta


def forward_log_mgf(m: CalibratedModel, t, phi, psi):
    """Exponent of the forward-price MGF, as a function of an array v.

    E under P_{T_{k+1}} of exp(v * (A_k + <B_k, X_t>)) is

        (B(0,T_N)/B(0,T_{k+1})) * exp( v phi_{T_N-t}(u_k)
            + (1-v) phi_{T_N-t}(u_{k+1}) + phi_t(w(v)) + <psi_t(w(v)), x0> ),

    with w(v) = v psi_{T_N-t}(u_k) + (1-v) psi_{T_N-t}(u_{k+1}); this is
    the exponent, without the prefactor's log.  ``phi`` and ``psi`` hold
    the tilts of u_k and u_{k+1} at T_N - t (axis -1 of phi, -2 of psi),
    one pair per expiry when ``t`` holds one time per expiry, v then one
    column per expiry.  v may be complex; each call is one
    ``phi_psi_batch`` call.

    w(v) is formed as psi(u_{k+1}) + v (psi(u_k) - psi(u_{k+1})): when the
    two tilts are equal (a zero-rate period) it is then exactly that tilt,
    where the weighted sum could round above the domain's supremum.
    """
    low, slope = psi[..., 1, :], psi[..., 0, :] - psi[..., 1, :]
    phi_k, phi_k1, x0 = phi[..., 0], phi[..., 1], m.x0

    def log_mgf(v):
        phi_in, psi_in = phi_psi_batch(m.process, t,
                                       low + v[..., None] * slope)
        state = psi_in.reshape(-1, x0.size) @ x0.astype(psi_in.dtype)
        return (v * phi_k + (1.0 - v) * phi_k1 + phi_in
                + state.reshape(phi_in.shape))

    return log_mgf
