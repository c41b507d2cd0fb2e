"""Concrete affine process families on the positive orthant.

Each family carries its closed-form transform pair, its Riccati
right-hand side (used only for cross-validation and for families without
a closed form), and the componentwise supremum of its exponential-moment
domain:

* :class:`CirParams` -- square-root diffusion
  ``dX = -lam (X - theta) dt + 2 eta sqrt(X) dW``; transform domain
  ``u < 1 / (2 eta^2 b(t))``.
* :class:`GammaOuParams` -- OU process driven by a compound Poisson
  subordinator with exponential jumps; its stationary law is
  Gamma(alpha, beta) and the transform domain is ``u < alpha``.
* :class:`LevySubordinatorSpec` -- any subordinator given through its
  cumulant generating function kappa: phi_t(u) = t * kappa(u),
  psi_t(u) = u.
* :class:`ProductProcess` -- independent one-dimensional factors stacked
  into a vector process; phi adds up, psi acts componentwise.
* :class:`RiccatiProcess` -- a family defined only through (F, R); all
  transforms go through the ODE integrator.

``phi_psi(t, u)`` is vectorised: ``u`` has shape (..., d) and may be
complex with admissible real part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .affine_core import RiccatiRhs
from .errors import InvalidParameter


@dataclass(frozen=True)
class CirParams:
    """Square-root diffusion dX = -lam (X - theta) dt + 2 eta sqrt(X) dW."""

    lam: float
    theta: float
    eta: float
    x0: float = 1.0

    dim = 1
    has_closed_form = True

    def __post_init__(self):
        if min(self.lam, self.theta, self.eta, self.x0) < 0.0:
            raise InvalidParameter("CIR parameters must be non-negative")

    def a(self, t: float) -> float:
        return math.exp(-self.lam * t)

    def b(self, t: float) -> float:
        # expm1 keeps (1 - exp(-lam t)) / lam accurate for lam*t -> 0;
        # the lam == 0 branch is an exact parameter test.
        if self.lam == 0.0:
            return t
        return -math.expm1(-self.lam * t) / self.lam

    def initial_state(self) -> np.ndarray:
        return np.array([self.x0])

    def domain_sup(self, t: float) -> np.ndarray:
        denom = 2.0 * self.eta ** 2 * self.b(t)
        return np.array([np.inf if denom == 0.0 else 1.0 / denom])

    def phi_psi(self, t: float, u: np.ndarray):
        v = u[..., 0]
        a, b = self.a(t), self.b(t)
        if self.eta == 0.0:
            return self.lam * self.theta * b * v, (a * v)[..., None]
        w = 1.0 - 2.0 * self.eta ** 2 * b * v
        phi = -(self.lam * self.theta / (2.0 * self.eta ** 2)) * np.log(w)
        return phi, (a * v / w)[..., None]

    def riccati_rhs(self) -> RiccatiRhs:
        lam, theta, eta = self.lam, self.theta, self.eta

        def F(u):
            return lam * theta * u[..., 0]

        def R(u):
            v = u[..., 0]
            return (2.0 * eta ** 2 * v * v - lam * v)[..., None]

        return RiccatiRhs(F, R, dim=1)


@dataclass(frozen=True)
class GammaOuParams:
    """OU process dX = -lam X dt + dH with Gamma(alpha, beta) limit law.

    H is a compound Poisson subordinator with jump intensity lam * beta
    and Exp(alpha) jump sizes.
    """

    lam: float
    alpha: float
    beta: float
    x0: float = 1.0

    dim = 1
    has_closed_form = True

    def __post_init__(self):
        # beta = 0 is the degenerate no-jump case (pure decay); it loses
        # the Gamma stationary law but keeps every formula well defined.
        if self.lam <= 0.0 or self.alpha <= 0.0 or self.beta < 0.0:
            raise InvalidParameter(
                "gamma-OU requires lam > 0, alpha > 0, beta >= 0")
        if self.x0 < 0.0:
            raise InvalidParameter("initial state must be non-negative")

    def initial_state(self) -> np.ndarray:
        return np.array([self.x0])

    def domain_sup(self, t: float) -> np.ndarray:
        return np.array([self.alpha])

    def stationary_cumulant(self, u):
        """Cumulant of the Gamma(alpha, beta) limit law."""
        return self.beta * np.log(self.alpha / (self.alpha - u))

    def driver_cumulant(self, u):
        """Cumulant of the compound Poisson driver, lam*beta*u/(alpha-u)."""
        return self.lam * self.beta * u / (self.alpha - u)

    def phi_psi(self, t: float, u: np.ndarray):
        v = u[..., 0]
        s = math.exp(-self.lam * t)
        # Both alpha - s v and alpha - v stay in the right half-plane for
        # Re v < alpha, so the principal logs are branch-safe.
        phi = self.beta * (np.log(self.alpha - s * v) - np.log(self.alpha - v))
        return phi, (s * v)[..., None]

    def riccati_rhs(self) -> RiccatiRhs:
        lam, alpha, beta = self.lam, self.alpha, self.beta

        def F(u):
            v = u[..., 0]
            return lam * beta * v / (alpha - v)

        def R(u):
            return -lam * u

        return RiccatiRhs(F, R, dim=1)


@dataclass(frozen=True)
class LevySubordinatorSpec:
    """Subordinator with cumulant kappa, finite on (-inf, domain_sup).

    kappa must satisfy kappa(0) = 0, be non-decreasing and convex, and
    accept numpy (possibly complex) arguments; complex support is what the
    Fourier pricers need.
    """

    kappa: Callable[[np.ndarray], np.ndarray]
    domain_sup_value: float = np.inf
    x0: float = 1.0

    dim = 1
    has_closed_form = True

    def __post_init__(self):
        k0 = complex(np.asarray(self.kappa(np.array([0.0])))[0])
        if abs(k0) > 1e-12:
            raise InvalidParameter("cumulant must vanish at 0")

    @classmethod
    def compound_poisson_exponential(cls, intensity: float, jump_rate: float,
                                     x0: float = 1.0):
        """Compound Poisson subordinator with Exp(jump_rate) jumps."""
        if intensity < 0.0 or jump_rate <= 0.0:
            raise InvalidParameter("need intensity >= 0 and jump_rate > 0")

        def kappa(u):
            return intensity * u / (jump_rate - u)

        return cls(kappa, domain_sup_value=jump_rate, x0=x0)

    def initial_state(self) -> np.ndarray:
        return np.array([self.x0])

    def domain_sup(self, t: float) -> np.ndarray:
        return np.array([self.domain_sup_value])

    def phi_psi(self, t: float, u: np.ndarray):
        v = u[..., 0]
        return t * self.kappa(v), u.copy()

    def riccati_rhs(self) -> RiccatiRhs:
        kappa = self.kappa

        def F(u):
            return kappa(u[..., 0])

        def R(u):
            return np.zeros_like(u)

        return RiccatiRhs(F, R, dim=1)


@dataclass(frozen=True)
class RiccatiProcess:
    """Affine family given only through (F, R); no closed form.

    Covers e.g. OU processes driven by a general subordinator, where the
    literature provides F(u) = kappa(u), R(u) = -lam u but no explicit
    phi.  All transform evaluations integrate the Riccati system.
    """

    rhs: RiccatiRhs
    domain_sup_fn: Callable[[float], np.ndarray] | None = None
    x0_value: float | Sequence[float] = 1.0

    has_closed_form = False

    @property
    def dim(self) -> int:
        return self.rhs.dim

    def initial_state(self) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.x0_value, dtype=float),
                               (self.dim,)).copy()

    def domain_sup(self, t: float) -> np.ndarray:
        if self.domain_sup_fn is None:
            return np.full(self.dim, np.inf)
        return np.atleast_1d(self.domain_sup_fn(t))

    def riccati_rhs(self) -> RiccatiRhs:
        return self.rhs


@dataclass(frozen=True)
class ProductProcess:
    """Independent one-dimensional factors stacked into one affine process.

    phi_t(u) = sum_j phi^j_t(u^j) and psi^j_t(u) depends on u^j only, so
    every transform assembles componentwise from the factors.
    """

    factors: tuple

    has_closed_form = True

    def __init__(self, factors: Sequence):
        object.__setattr__(self, "factors", tuple(factors))
        if not self.factors:
            raise InvalidParameter("product needs at least one factor")
        for j, f in enumerate(self.factors):
            if getattr(f, "dim", None) != 1:
                raise InvalidParameter(f"factor {j} is not one-dimensional")
            if not getattr(f, "has_closed_form", False):
                raise InvalidParameter(
                    f"factor {j} has no closed-form transform")

    @property
    def dim(self) -> int:
        return len(self.factors)

    def initial_state(self) -> np.ndarray:
        return np.concatenate([f.initial_state() for f in self.factors])

    def domain_sup(self, t: float) -> np.ndarray:
        return np.concatenate([f.domain_sup(t) for f in self.factors])

    def phi_psi(self, t: float, u: np.ndarray):
        phi = 0.0
        psi = np.empty_like(u)
        for j, f in enumerate(self.factors):
            pj, sj = f.phi_psi(t, u[..., j:j + 1])
            phi = phi + pj
            psi[..., j:j + 1] = sj
        return phi, psi

    def riccati_rhs(self) -> RiccatiRhs:
        rhss = [f.riccati_rhs() for f in self.factors]

        def F(u):
            return sum(r.F(u[..., j:j + 1]) for j, r in enumerate(rhss))

        def R(u):
            return np.concatenate(
                [r.R(u[..., j:j + 1]) for j, r in enumerate(rhss)], axis=-1)

        return RiccatiRhs(F, R, dim=self.dim)


def two_factor_cir(lam1, theta1, eta1, lam2, theta2, eta2,
                   x1: float = 1.0, x2: float = 1.0) -> ProductProcess:
    """Two independent square-root factors as one 2-d affine process."""
    return ProductProcess([CirParams(lam1, theta1, eta1, x1),
                           CirParams(lam2, theta2, eta2, x2)])
