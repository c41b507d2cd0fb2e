"""Transform machinery for affine processes on the positive orthant.

An affine process X on R_{>=0}^d has conditional moment generating
function

    E_x[exp(<u, X_t>)] = exp(phi_t(u) + <psi_t(u), x>),

with (phi, psi) solving the generalized Riccati system

    d/dt phi_t(u) = F(psi_t(u)),   phi_0(u) = 0,
    d/dt psi_t(u) = R(psi_t(u)),   psi_0(u) = u.

:func:`transform` evaluates the pair through a family's closed form when
one exists and falls back to :func:`riccati_solve`, an embedded
Dormand-Prince 5(4) integrator with domain-crossing (blow-up) detection.
Complex u with admissible real part is supported throughout; this is what
the Fourier pricers consume.
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


@dataclass(frozen=True)
class DomainSpec:
    """Componentwise supremum of the exponential-moment domain at a horizon."""

    upper_bound: np.ndarray
    horizon: float

    def __post_init__(self):
        if np.any(np.asarray(self.upper_bound) <= 0.0):
            raise InvalidParameter(
                "domain must contain 0 in its interior (positive upper bound)")

    def contains(self, u) -> bool:
        """Strict componentwise check on the real part of u."""
        return bool(np.all(np.real(np.atleast_1d(u)) < self.upper_bound))


def domain_spec(process, horizon: float) -> DomainSpec:
    """Domain of the transform of ``process`` at the given horizon."""
    return DomainSpec(np.atleast_1d(process.domain_sup(horizon)),
                      float(horizon))


def _as_state(process, u) -> np.ndarray:
    u = np.atleast_1d(np.asarray(u))
    if u.shape != (process.dim,):
        raise InvalidParameter(
            f"argument has shape {u.shape}, process has {process.dim} factor(s)")
    return u


def transform(process, t: float, u, horizon: float | None = None,
              tol: float = DEFAULT_ODE_TOL) -> TransformPair:
    """Evaluate (phi_t(u), psi_t(u)) for one of the supported processes.

    Dispatches to the family's closed form when available, otherwise
    integrates the Riccati system.  ``horizon`` optionally caps t (the
    model layer passes its terminal date).

    Raises
    ------
    HorizonViolation
        if t < 0 or beyond ``horizon``.
    DomainViolation
        if Re(u) is not strictly below the domain supremum at horizon t;
        the message names the first factor outside it.
    """
    if t < 0.0 or (horizon is not None and t > horizon + 1e-12):
        raise HorizonViolation(f"t={t} outside [0, {horizon}]")
    u = _as_state(process, u)
    if t == 0.0:
        return TransformPair(0.0 * u[0], u.copy())
    spec = domain_spec(process, t)
    if not spec.contains(u):
        j = int(np.argmin(np.real(u) < spec.upper_bound))  # first outside
        raise DomainViolation(
            f"factor {j}: Re(u)={np.real(u[j])} not inside domain sup "
            f"{spec.upper_bound[j]} for horizon {t}")
    if getattr(process, "has_closed_form", False):
        phi, psi = process.phi_psi(t, u[None, :])
        return TransformPair(phi[0], psi[0])
    return riccati_solve(process.riccati_rhs(), t, u, tol,
                         domain_sup=process.domain_sup)


def riccati_solve(rhs: RiccatiRhs, t: float, u, tol: float = DEFAULT_ODE_TOL,
                  domain_sup=None) -> TransformPair:
    """Integrate the generalized Riccati equations from 0 to t.

    Embedded Dormand-Prince 5(4) pair with PI-free step control: a step is
    accepted when the scaled local error is at most one, where the scale
    is ``tol + tol * |y|`` per component.

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
        (the initial condition was outside the domain of finiteness).
    StepUnderflow
        if the adaptive step collapses below 1e-14 * max(t, 1).
    """
    if tol <= 0.0:
        raise InvalidParameter("tol must be positive")
    u = np.atleast_1d(np.asarray(u))
    if u.shape != (rhs.dim,):
        raise InvalidParameter(f"u has shape {u.shape}, expected ({rhs.dim},)")
    dtype = complex if np.iscomplexobj(u) else float
    y = np.concatenate([[0.0], u]).astype(dtype)
    if t == 0.0:
        return TransformPair(y[0], y[1:])

    def fun(y_):
        psi = y_[1:]
        out = np.empty_like(y_)
        out[0] = np.asarray(rhs.F(psi[None, :])).reshape(())
        out[1:] = np.asarray(rhs.R(psi[None, :])).reshape(rhs.dim)
        return out

    def bound_at(remaining):
        if domain_sup is None:
            return None
        if callable(domain_sup):
            return np.atleast_1d(domain_sup(remaining))
        return np.atleast_1d(domain_sup)

    # Dormand-Prince coefficients.
    A = [
        np.array([1 / 5]),
        np.array([3 / 40, 9 / 40]),
        np.array([44 / 45, -56 / 15, 32 / 9]),
        np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
        np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                  -5103 / 18656]),
        np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                  11 / 84]),
    ]
    B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                   11 / 84, 0.0])
    B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])

    tau = 0.0
    h = min(t, 0.1 * t + 1e-3)
    h_floor = 1e-14 * max(t, 1.0)
    k = np.empty((7, y.size), dtype=dtype)
    k[0] = fun(y)
    while tau < t:
        h = min(h, t - tau)
        if h < h_floor:
            raise StepUnderflow(f"step size {h} below floor at tau={tau}")
        for stage in range(1, 7):
            k[stage] = fun(y + h * (A[stage - 1] @ k[:stage]))
        y5 = y + h * (B5 @ k)
        err = h * ((B5 - B4) @ k)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y5))
        err_norm = float(np.max(np.abs(err) / scale))
        if err_norm <= 1.0:
            tau += h
            y = y5
            k[0] = k[6]  # first-same-as-last
            bound = bound_at(t - tau)
            psi_re = np.real(y[1:])
            if np.any(np.abs(y[1:]) > 1e10) or (
                    bound is not None and np.any(psi_re >= bound)):
                raise BlowUp(
                    f"psi left the domain at tau={tau} (u outside I_t)")
        factor = 0.9 * err_norm ** -0.2 if err_norm > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return TransformPair(y[0], y[1:])


def check_semiflow(process, t: float, s: float, u,
                   horizon: float | None = None) -> float:
    """Maximum deviation from the semi-flow identity at (t, s, u).

    The identity phi_{t+s}(u) = phi_t(u) + phi_s(psi_t(u)) and
    psi_{t+s}(u) = psi_s(psi_t(u)) holds exactly for every affine
    process; the returned number is a pure floating-point diagnostic used
    by the validation suite.
    """
    full = transform(process, t + s, u, horizon)
    inner = transform(process, t, u, horizon)
    outer = transform(process, s, inner.psi, horizon)
    dev_phi = abs(full.phi - (inner.phi + outer.phi))
    dev_psi = float(np.max(np.abs(full.psi - outer.psi)))
    return max(dev_phi, dev_psi)
