"""Transform machinery for affine processes on the positive orthant.

An affine process X on R_{>=0}^d has conditional moment generating
function

    E_x[exp(<u, X_t>)] = exp(phi_t(u) + <psi_t(u), x>),

with (phi, psi) solving the generalized Riccati system

    d/dt phi_t(u) = F(psi_t(u)),   phi_0(u) = 0,
    d/dt psi_t(u) = R(psi_t(u)),   psi_0(u) = u.

One evaluator, :func:`phi_psi_batch`, takes a batch of arguments at one
horizon or one per expiry: it checks horizons and domain, then uses the
family's closed form when one exists, else a batched :func:`riccati_solve`
per horizon, an embedded Dormand-Prince 5(4) integrator with blow-up
detection.  :func:`transform` is a batch of one.  Complex u with
admissible real part is supported throughout (the Fourier pricers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (BlowUp, DomainViolation, HorizonViolation,
                     InvalidParameter, StepUnderflow)

DEFAULT_ODE_TOL = 1e-12


@dataclass(frozen=True)
class TransformPair:
    """Value of (phi_t(u), psi_t(u)); psi has one entry per factor."""

    phi: complex
    psi: np.ndarray

    def exponent(self, x) -> complex:
        """phi + <psi, x>, the log of the moment generating function."""
        return self.phi + np.dot(self.psi, np.asarray(x))


@dataclass(frozen=True)
class RiccatiRhs:
    """Right-hand side (F, R) of the generalized Riccati equations.

    F maps a length-d vector to a scalar, R to a length-d vector; both
    must vanish at zero and accept complex input with admissible real
    part.  Vectorised evaluation over a leading batch axis is assumed.
    """

    F: Callable[[np.ndarray], np.ndarray]
    R: Callable[[np.ndarray], np.ndarray]
    dim: int = 1

    def __post_init__(self):
        zero = np.zeros(self.dim)
        f0 = complex(np.asarray(self.F(zero)).reshape(()))
        r0 = np.max(np.abs(np.asarray(self.R(zero))))
        if abs(f0) > 1e-12 or r0 > 1e-12:
            raise InvalidParameter("Riccati right-hand side must satisfy "
                                   "F(0) = 0 and R(0) = 0")


def phi_psi_batch(process, t, u_batch) -> tuple:
    """(phi_t(u), psi_t(u)) over a batch of arguments of shape (..., d).

    The one transform evaluator (:func:`transform` is a batch of one).
    ``t`` is one horizon, or one per slot of the expiry axis (axis -2 of
    ``u_batch``), each slot getting the bits of its own one-horizon call.
    Every argument is checked against the domain at its horizon, then
    the batch goes to the family's closed form, else to one batched
    Riccati solve per horizon; a zero horizon is the identity (0, u).
    phi has shape (...), psi that of ``u_batch``.

    Raises
    ------
    HorizonViolation
        if a horizon is negative.
    InvalidParameter
        if a domain supremum is not positive in every factor.
    DomainViolation
        if some Re(u) is not below the supremum at its horizon, naming the
        first such lane (counted over positive horizons), factor and horizon.
    """
    u_batch = np.asarray(u_batch)
    # the horizons
    each = np.atleast_1d(t).tolist() if isinstance(t, np.ndarray) else [t]
    if min(each) < 0.0:
        raise HorizonViolation(f"t={t} is negative")
    if 0.0 in each:
        live = np.array(each) > 0.0
        u_batch = u_batch.astype(np.result_type(u_batch, float))
        phi = np.zeros(u_batch.shape[:-1], u_batch.dtype)
        if live.any():
            phi[..., live], u_batch[..., live, :] = phi_psi_batch(
                process, np.array(each)[live], u_batch[..., live, :])
        return phi, u_batch
    # slots that share one horizon take the families' one-horizon form
    t = each[0] if each.count(each[0]) == len(each) else np.array(each)
    sup = process.domain_sup(t)
    if sup.min() <= 0.0:
        raise InvalidParameter(
            "domain must contain 0 in its interior (positive upper bound)")
    outside = u_batch.real >= sup
    if outside.any():
        lane, j = divmod(int(np.argmax(outside)), process.dim)
        slot = lane % len(each)
        raise DomainViolation(
            f"lane {lane}, factor {j}: Re(u)="
            f"{np.real(u_batch.reshape(-1, process.dim)[lane, j])} not "
            f"inside domain sup {sup.reshape(-1, process.dim)[slot, j]} "
            f"for horizon {each[slot]}")
    if getattr(process, "has_closed_form", False):
        return process.phi_psi(t, u_batch)
    if not isinstance(t, np.ndarray):
        return riccati_solve(process.riccati_rhs(), t, u_batch,
                             domain_sup=process.domain_sup)
    phi, psi = zip(*(phi_psi_batch(process, s, u_batch[..., e:e + 1, :])
                     for e, s in enumerate(each)))
    return np.concatenate(phi, axis=-1), np.concatenate(psi, axis=-2)


def transform(process, t: float, u, horizon: float | None = None
              ) -> TransformPair:
    """(phi_t(u), psi_t(u)) at one argument: row 0 of :func:`phi_psi_batch`.

    ``horizon`` optionally caps t (the model layer passes its terminal
    date).

    Raises
    ------
    HorizonViolation
        if t < 0 or beyond ``horizon``.
    InvalidParameter
        if u does not have one entry per factor.
    DomainViolation
        as :func:`phi_psi_batch`.
    """
    if horizon is not None and t > horizon + 1e-12:
        raise HorizonViolation(f"t={t} outside [0, {horizon}]")
    u = np.atleast_1d(np.asarray(u))
    if u.shape != (process.dim,):
        raise InvalidParameter(f"argument has shape {u.shape}, process has "
                               f"{process.dim} factor(s)")
    phi, psi = phi_psi_batch(process, t, u[None, :])
    return TransformPair(phi[0], psi[0])


def riccati_solve(rhs: RiccatiRhs, t: float, u, tol: float = DEFAULT_ODE_TOL,
                  domain_sup=None):
    """Integrate the generalized Riccati equations from 0 to t.

    ``u`` has shape (..., d), as for the families' ``phi_psi``.  Embedded
    Dormand-Prince 5(4) pair with PI-free step control: a step is accepted
    when the scaled local error is at most one, where the scale is
    ``tol + tol * |y|`` per component.  All lanes are integrated together
    and share every right-hand-side evaluation, but each keeps its own
    step: a lane takes exactly the steps it takes alone, so its result
    does not depend on the rest of the batch.

    Returns a :class:`TransformPair` for a single argument of shape (d,)
    (or a scalar when d = 1), else ``(phi, psi)`` of shapes (...) and
    (..., d).

    Parameters
    ----------
    domain_sup : None, array or callable
        Upper bound that Re(psi) must never cross.  A callable receives
        the *remaining* horizon ``t - tau`` (families whose domain widens
        as the horizon shrinks, such as the square-root diffusion, need
        the time-dependent form).

    Raises
    ------
    BlowUp
        when psi crosses the bound or grows beyond 1e10 before time t
        (the initial condition was outside the domain of finiteness); the
        message names the first lane that left.
    StepUnderflow
        if the adaptive step collapses below 1e-14 * max(t, 1).
    """
    if tol <= 0.0:
        raise InvalidParameter("tol must be positive")
    u = np.asarray(u)
    single = u.ndim <= 1
    u = np.atleast_1d(u)
    if u.shape[-1] != rhs.dim:
        raise InvalidParameter(
            f"u has shape {u.shape}, expected (..., {rhs.dim})")
    dtype = complex if np.iscomplexobj(u) else float
    lanes = u.reshape(-1, rhs.dim)
    y = np.concatenate([np.zeros((lanes.shape[0], 1)), lanes],
                       axis=1).astype(dtype)
    if t > 0.0 and y.size:
        y = _dormand_prince(rhs, t, y, tol, domain_sup)
    phi, psi = y[:, 0].reshape(u.shape[:-1]), y[:, 1:].reshape(u.shape)
    return TransformPair(phi[()], psi) if single else (phi, psi)


# Dormand-Prince coefficients, shaped (stage, 1, 1) to scale stage slopes;
# _E weighs the embedded error estimate (fifth minus fourth order).
_A = [np.array(row).reshape(-1, 1, 1) for row in (
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
)]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                11 / 84, 0.0]).reshape(-1, 1, 1)
_E = _B5 - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                     -92097 / 339200, 187 / 2100, 1 / 40]).reshape(-1, 1, 1)


def _dormand_prince(rhs: RiccatiRhs, t: float, y: np.ndarray, tol: float,
                    domain_sup) -> np.ndarray:
    """Carry the state (phi, psi) of every lane (row of ``y``) from 0 to t."""

    def fun(y_):
        out = np.empty_like(y_)
        out[:, 0] = rhs.F(y_[:, 1:])
        out[:, 1:] = rhs.R(y_[:, 1:])
        return out

    def mix(coef, k):
        # accumulate adds the stages in order, whatever the number of lanes
        return np.add.accumulate(coef * k[:len(coef)])[-1]

    out = np.empty_like(y)
    lane = np.arange(len(y))  # row of ``out`` for each live row
    tau = np.zeros(len(y))
    h = np.full(len(y), min(t, 0.1 * t + 1e-3))
    h_floor = 1e-14 * max(t, 1.0)
    k = np.empty((7,) + y.shape, dtype=y.dtype)
    k[0] = fun(y)
    bound_at = domain_sup if callable(domain_sup) else lambda _: domain_sup
    bound_t = bound_at(t)
    while lane.size:
        h = np.minimum(h, t - tau)
        if np.any(h < h_floor):
            i = int(np.argmax(h < h_floor))
            raise StepUnderflow(f"lane {lane[i]}: step size {h[i]} below "
                                f"floor at tau={tau[i]}")
        hc = h[:, None]
        for stage in range(1, 7):
            k[stage] = fun(y + hc * mix(_A[stage - 1], k))
        y5 = y + hc * mix(_B5, k)
        err = hc * mix(_E, k)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y5))
        err_norm = np.max(np.abs(err) / scale, axis=1)
        ok = err_norm <= 1.0
        tau = np.where(ok, tau + h, tau)
        y = np.where(ok[:, None], y5, y)
        k[0] = np.where(ok[:, None], k[6], k[0])  # first-same-as-last
        psi = y[:, 1:]
        left = ok & np.any(np.abs(psi) > 1e10, axis=1)
        if domain_sup is not None:
            # The domain shrinks as the horizon grows (a solution that
            # exists up to t exists before t), so only a lane past the
            # bound at horizon t can be past its own, at t - tau.
            near = ok & np.any(np.real(psi) >= bound_t, axis=1)
            for i in np.flatnonzero(near):
                left[i] |= np.any(np.real(psi[i]) >= bound_at(t - tau[i]))
        if np.any(left):
            i = int(np.argmax(left))
            raise BlowUp(f"lane {lane[i]}: psi left the domain at "
                         f"tau={tau[i]} (u outside I_t)")
        # err_norm 0 grows the step fivefold; NaN shrinks it fivefold
        with np.errstate(divide="ignore"):
            h = h * np.fmin(5.0, np.fmax(0.2, 0.9 * err_norm ** -0.2))
        done = tau >= t
        if np.any(done):
            out[lane[done]] = y[done]
            lane, tau, h, y, k = (lane[~done], tau[~done], h[~done],
                                  y[~done], k[:, ~done])
    return out


def check_semiflow(process, t: float, s: float, u) -> float:
    """Maximum deviation from the semi-flow identity at (t, s, u).

    The identity phi_{t+s}(u) = phi_t(u) + phi_s(psi_t(u)) and
    psi_{t+s}(u) = psi_s(psi_t(u)) holds exactly for every affine
    process; the returned number is a pure floating-point diagnostic used
    by the validation suite.
    """
    full = transform(process, t + s, u)
    inner = transform(process, t, u)
    outer = transform(process, s, inner.psi)
    dev_phi = abs(full.phi - (inner.phi + outer.phi))
    dev_psi = float(np.max(np.abs(full.psi - outer.psi)))
    return max(dev_phi, dev_psi)
