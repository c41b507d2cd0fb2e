import math

import numpy as np
import pytest
from scipy.integrate import quad

from affine_libor.affine_core import check_semiflow, riccati_solve, transform
from affine_libor.errors import DomainViolation, InvalidParameter
from affine_libor.processes import (CirParams, GammaOuParams,
                                    LevySubordinatorSpec, ProductProcess,
                                    two_factor_cir)


def compound_poisson_subordinator(intensity, rate):
    """Compound Poisson subordinator with Exp(rate) jumps arriving at
    ``intensity``: kappa(u) = intensity u / (rate - u)."""
    return LevySubordinatorSpec(lambda u: intensity * u / (rate - u),
                                domain_sup_value=rate)


class TestCir:
    def test_zero_argument(self, cir_process):
        pair = transform(cir_process, 2.0, 0.0)
        assert pair.phi == 0.0 and pair.psi[0] == 0.0

    def test_lambda_zero_branch(self):
        p = CirParams(0.0, 0.5, 0.59)
        assert p.b(2.0) == 2.0
        pair = transform(p, 2.0, 0.1)
        assert pair.psi[0] == pytest.approx(
            0.1 / (1.0 - 2.0 * 0.59 ** 2 * 2.0 * 0.1), rel=1e-14)
        assert pair.phi == 0.0  # lam * theta = 0 kills the log term

    def test_small_lambda_t_no_cancellation(self):
        # b(t) must agree with the series t - lam t^2/2 + lam^2 t^3/6 - ...
        p = CirParams(1e-9, 0.5, 0.59)
        t = 0.75
        series = t - p.lam * t * t / 2.0 + p.lam ** 2 * t ** 3 / 6.0
        assert p.b(t) == pytest.approx(series, rel=1e-13)

    def test_matches_riccati(self, cir_process):
        closed = transform(cir_process, 1.0, 0.2)
        ode = riccati_solve(cir_process.riccati_rhs(), 1.0, 0.2, tol=1e-12)
        assert abs(closed.phi - ode.phi) < 1e-8
        assert abs(closed.psi[0] - ode.psi[0]) < 1e-8

    def test_domain_violation(self, cir_process):
        sup = cir_process.domain_sup(3.0)[0]
        with pytest.raises(DomainViolation):
            transform(cir_process, 3.0, sup)

    def test_rhs_is_the_square_root_form(self):
        # F(u) = lam theta u and R(u) = 2 eta^2 u^2 - lam u; with lam = 0,
        # 2 eta^2 = 2 this is the squared-Bessel pair (0, 2u^2).
        rhs = CirParams(0.0, 0.5, 1.0).riccati_rhs()
        u = np.array([[0.3]])
        assert rhs.F(u)[0] == 0.0
        assert rhs.R(u)[0, 0] == pytest.approx(2.0 * 0.3 ** 2)
        rhs = CirParams(0.8, 0.5, 0.3).riccati_rhs()
        assert rhs.F(u)[0] == pytest.approx(0.8 * 0.5 * 0.3)
        assert rhs.R(u)[0, 0] == pytest.approx(
            2.0 * 0.09 * 0.09 - 0.8 * 0.3)

    def test_eta_zero_is_deterministic_exponent(self):
        p = CirParams(0.5, 0.4, 0.0)
        pair = transform(p, 2.0, 0.3)
        assert pair.phi == pytest.approx(0.5 * 0.4 * p.b(2.0) * 0.3)
        assert pair.psi[0] == pytest.approx(p.a(2.0) * 0.3)

    def test_negative_parameters_rejected(self):
        with pytest.raises(InvalidParameter):
            CirParams(-0.1, 0.5, 0.59)

    @pytest.mark.parametrize("field", ["lam", "theta", "eta", "x0"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, field, bad):
        args = dict(lam=0.5, theta=0.4, eta=0.3, x0=1.0)
        args[field] = bad
        with pytest.raises(InvalidParameter):
            CirParams(**args)

    # 1e-156 squares to a subnormal: phi_psi's lam theta / (2 eta^2)
    # overflowed and the curve read as InfeasibleCurve
    @pytest.mark.parametrize("eta", [1e-300, 1e-156, 1e300])
    def test_eta_needs_a_finite_normal_square(self, eta):
        with pytest.raises(InvalidParameter):
            CirParams(0.5, 0.4, eta)
        CirParams(0.5, 0.4, 0.0)  # the deterministic limit stays legal


class TestGammaOu:
    def test_trivial_points(self, gou_process):
        assert transform(gou_process, 3.0, 0.0).phi == 0.0
        pair = transform(gou_process, 0.0, 0.7)
        assert pair.phi == 0.0 and pair.psi[0] == 0.7

    def test_matches_riccati(self, gou_process):
        closed = transform(gou_process, 1.0, 0.5)
        ode = riccati_solve(gou_process.riccati_rhs(), 1.0, 0.5, tol=1e-12)
        assert abs(closed.phi - ode.phi) < 1e-8
        assert abs(closed.psi[0] - ode.psi[0]) < 1e-8

    def test_domain_violation_at_alpha(self, gou_process):
        with pytest.raises(DomainViolation):
            transform(gou_process, 1.0, gou_process.alpha)

    def test_long_horizon_reaches_stationary_cumulant(self, gou_process):
        t = 1e4 / gou_process.lam
        u = 0.5
        pair = transform(gou_process, t, u)
        # cumulant of the Gamma(alpha, beta) limit law
        alpha, beta = gou_process.alpha, gou_process.beta
        stationary = beta * np.log(alpha / (alpha - u))
        assert abs(pair.phi - stationary) <= 1e-10
        assert abs(pair.psi[0]) <= 1e-10

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            GammaOuParams(0.0, 2.0, 1.0)
        with pytest.raises(InvalidParameter):
            GammaOuParams(0.01, -1.0, 1.0)
        GammaOuParams(0.01, 2.0, 0.0)  # no-jump degenerate case is allowed

    @pytest.mark.parametrize("field", ["lam", "alpha", "beta", "x0"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, field, bad):
        args = dict(lam=0.01, alpha=2.0, beta=1.0, x0=1.25)
        args[field] = bad
        with pytest.raises(InvalidParameter):
            GammaOuParams(**args)


class TestSubordinator:
    def test_compound_poisson_point(self):
        # kappa(u) = lam beta u / (alpha - u) with lam = beta = 1, alpha = 2
        spec = compound_poisson_subordinator(1.0, 2.0)
        pair = transform(spec, 1.0, 1.0)
        assert pair.phi == pytest.approx(1.0, rel=1e-14)
        assert pair.psi[0] == 1.0

    def test_cumulant_against_jump_measure_quadrature(self):
        # kappa(u) = intensity * int (e^{ux} - 1) rate e^{-rate x} dx
        intensity, rate, u = 1.3, 2.0, 0.9
        spec = compound_poisson_subordinator(intensity, rate)
        oracle, _ = quad(lambda x: intensity * (math.exp(u * x) - 1.0)
                         * rate * math.exp(-rate * x), 0.0, 60.0,
                         epsabs=1e-13, limit=200)
        assert spec.kappa(u) == pytest.approx(oracle, rel=1e-9)

    def test_trivial_points(self):
        spec = compound_poisson_subordinator(1.0, 2.0)
        pair = transform(spec, 3.0, 0.0)
        assert pair.phi == 0.0 and pair.psi[0] == 0.0
        pair = transform(spec, 0.0, 0.8)
        assert pair.phi == 0.0 and pair.psi[0] == 0.8

    def test_nonvanishing_cumulant_rejected(self):
        with pytest.raises(InvalidParameter):
            LevySubordinatorSpec(lambda u: u + 1.0)


class TestProduct:
    def test_zero_vector(self, cir_process):
        p = ProductProcess([cir_process, cir_process])
        pair = transform(p, 1.0, np.zeros(2))
        assert pair.phi == 0.0 and np.all(pair.psi == 0.0)

    def test_identical_factors_double_phi(self, cir_process):
        p = ProductProcess([cir_process, cir_process])
        v = 0.15
        pair = transform(p, 2.0, np.array([v, v]))
        single = transform(cir_process, 2.0, v)
        assert pair.phi == pytest.approx(2.0 * single.phi, rel=1e-14)
        assert pair.psi[0] == pair.psi[1] == single.psi[0]

    def test_single_factor_is_identity(self, gou_process):
        p = ProductProcess([gou_process])
        pair = transform(p, 1.3, np.array([0.4]))
        single = transform(gou_process, 1.3, 0.4)
        assert pair.phi == single.phi and pair.psi[0] == single.psi[0]

    def test_mixed_factors_match_stacked_riccati(self, cir_process,
                                                 gou_process):
        p = ProductProcess([cir_process, gou_process])
        u = np.array([0.1, 0.3])
        closed = transform(p, 1.0, u)
        ode = riccati_solve(p.riccati_rhs(), 1.0, u, tol=1e-12,
                            domain_sup=p.domain_sup)
        assert abs(closed.phi - ode.phi) < 1e-8
        assert np.max(np.abs(closed.psi - ode.psi)) < 1e-8

    def test_factor_error_carries_index(self, cir_process, gou_process):
        p = ProductProcess([cir_process, gou_process])
        with pytest.raises(DomainViolation, match="factor 1"):
            transform(p, 1.0, np.array([0.1, 5.0]))

    def test_two_factor_cir_constructor(self):
        p = two_factor_cir(0.5, 0.6, 0.25, 1.2, 0.4, 0.3)
        assert p.dim == 2
        assert np.all(p.initial_state() == 1.0)


class TestClosedFormSemiflow:
    def test_each_family(self, cir_process, gou_process):
        rng = np.random.default_rng(3)
        sub = compound_poisson_subordinator(1.0, 2.0)
        prod = ProductProcess([cir_process, gou_process])
        for proc in (cir_process, gou_process, sub):
            for _ in range(50):
                t, s = rng.uniform(0.05, 2.0, 2)
                u = rng.uniform(0.0, 0.6) * min(proc.domain_sup(t + s)[0], 2.0)
                assert check_semiflow(proc, t, s, u) <= 1e-12
        for _ in range(50):
            t, s = rng.uniform(0.05, 2.0, 2)
            u = rng.uniform(0.0, 0.6, 2) * np.minimum(
                prod.domain_sup(t + s), 2.0)
            assert check_semiflow(prod, t, s, u) <= 1e-12
