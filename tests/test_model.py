import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from affine_libor.affine_core import transform
from affine_libor.errors import (ConvergenceFailure, DomainViolation,
                                 HorizonViolation, InfeasibleCurve,
                                 InvalidParameter, NonMonotoneCurve)
from affine_libor.model import (CalibratedModel, TenorStructure,
                                estimate_gamma_x, fit_term_structure,
                                forward_exponents, forward_log_mgf,
                                libor_rate, martingale_value,
                                tilt_exponents)
from affine_libor.montecarlo import RngStream, forward_measure_weights, \
    simulate_process
from affine_libor.processes import (CirParams, GammaOuParams,
                                    LevySubordinatorSpec, RiccatiProcess,
                                    two_factor_cir)


# Admissible cir, gamma-OU and cir-2f drivers (admissible_driver).
DRIVER_ARGS = dict(
    family=st.sampled_from(["cir", "gamma_ou", "cir_2f"]),
    a=st.floats(0.001, 2.0), b=st.floats(0.05, 1.0),
    c=st.floats(0.05, 1.0), x0=st.floats(0.2, 2.0),
    second=st.tuples(st.floats(0.001, 2.0), st.floats(0.05, 1.0),
                     st.floats(0.05, 1.0), st.floats(0.2, 2.0)))


def admissible_driver(family, a, b, c, x0, second):
    if family == "cir":
        return CirParams(a, b, c, x0)
    if family == "gamma_ou":
        # alpha in [0.7, 5], beta in [0.1, 2]
        return GammaOuParams(a, 0.5 + 4.5 * b, 2.0 * c, x0)
    return two_factor_cir(a, b, c, *second[:3], x0, second[3])


def bounded_subordinator(scale=1.0, sup=0.5):
    """Inverse-Gaussian-type cumulant, finite at the domain boundary."""

    def kappa(u):
        return scale * (1.0 - np.sqrt(1.0 - u / sup))

    return LevySubordinatorSpec(kappa, domain_sup_value=sup)


class TestTenorStructure:
    def test_from_table(self, tenor):
        assert tenor.n_periods == 10
        assert tenor.delta == pytest.approx(0.5)
        assert tenor.date(0) == pytest.approx(0.0)
        assert tenor.date(10) == pytest.approx(5.0)
        assert tenor.bond(1) == 0.9833630

    def test_ratios_monotone(self, tenor):
        r = tenor.ratios()
        assert np.all(np.diff(r) < 0.0) and r[-1] == 1.0 and r[0] > 1.0

    def test_initial_libor_from_table(self, tenor):
        expected = (0.9833630 / 0.9647388 - 1.0) / 0.5
        assert tenor.initial_libor(1) == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidParameter):
            TenorStructure(np.array([0.0, 0.5, 0.5]), 0.5,
                           np.array([0.99, 0.98]))
        with pytest.raises(InvalidParameter):
            TenorStructure(np.array([0.0, 0.5, 1.2]), 0.5,
                           np.array([0.99, 0.98]))
        with pytest.raises(InvalidParameter):
            TenorStructure.from_curve([0.5, 1.0], [1.01, 0.9])
        with pytest.raises(InvalidParameter):
            TenorStructure.from_curve([0.5], [0.99])

    @pytest.mark.parametrize("dates, delta, discounts", [
        ([0.0, 0.5, 1.0], math.nan, [0.99, 0.98]),
        ([0.0, 0.5, 1.0], math.inf, [0.99, 0.98]),
        ([0.0, math.nan, 1.0], 0.5, [0.99, 0.98]),
        ([0.0, 0.5, 1.0], 0.5, [0.99, math.nan]),
    ])
    def test_rejects_non_finite_input(self, dates, delta, discounts):
        # NaN passes every <= and > comparison, so each must be caught
        with pytest.raises(InvalidParameter):
            TenorStructure(np.array(dates), delta, np.array(discounts))

    def test_from_curve_rejects_nan_delta(self):
        with pytest.raises(InvalidParameter):
            TenorStructure.from_curve([0.5, 1.0], [0.99, 0.98], math.nan)


class TestMartingaleValue:
    def test_u_zero_is_one(self, cir_model):
        for t in (0.0, 1.0, 4.9):
            assert martingale_value(cir_model, t, [2.0], [0.0]) == 1.0

    def test_terminal_identity(self, cir_model):
        u, x = 0.05, 1.7
        val = martingale_value(cir_model, cir_model.horizon, [x], [u])
        assert val == pytest.approx(math.exp(u * x), rel=1e-14)

    def test_table1_initial_value(self, cir_model):
        # time-zero values must reproduce the quoted discount ratio
        val = martingale_value(cir_model, 0.0, cir_model.x0, cir_model.u(1))
        assert val == pytest.approx(0.9833630 / 0.7920573, abs=1.3e-12)

    def test_at_least_one_for_positive_u(self, cir_model):
        rng = np.random.default_rng(0)
        for _ in range(100):
            t = rng.uniform(0.0, 5.0)
            x = rng.uniform(0.0, 4.0)
            u = rng.uniform(0.0, 0.2)
            assert martingale_value(cir_model, t, [x], [u]) >= 1.0

    def test_domain_and_horizon_errors(self, cir_model):
        with pytest.raises(DomainViolation):
            martingale_value(cir_model, 1.0, [1.0], [5.0])
        with pytest.raises(HorizonViolation):
            martingale_value(cir_model, 5.5, [1.0], [0.1])


class TestGammaX:
    def test_cir_diverges(self, cir_process):
        assert estimate_gamma_x(cir_process, 5.0) == math.inf

    def test_gamma_ou_diverges(self, gou_process):
        assert estimate_gamma_x(gou_process, 5.0) == math.inf

    def test_bounded_cumulant_gives_finite_limit(self):
        spec = bounded_subordinator(scale=1.0, sup=0.5)
        expected = math.exp(5.0 * 1.0 + 0.5)  # exp(T kappa(sup) + sup * x0)
        est = estimate_gamma_x(spec, 5.0)
        assert est == pytest.approx(expected, rel=1e-6)


class TestFitTermStructure:
    def test_flat_curve_gives_zero_us(self, flat_model):
        assert np.all(flat_model.us == 0.0)

    def test_table1_cir(self, cir_model, tenor):
        us = cir_model.us[:, 0]
        assert us[-1] == 0.0
        assert np.all(np.diff(us) < 0.0)
        for k in range(1, 11):
            resid = abs(martingale_value(cir_model, 0.0, cir_model.x0,
                                         cir_model.u(k))
                        - tenor.ratios()[k - 1])
            assert resid <= 1e-12

    def test_against_brentq_oracle(self, cir_model, tenor, cir_process):
        # independent root-finder on the same scalar equation
        horizon = tenor.date(10)

        def m0(u):
            pair = transform(cir_process, horizon, u)
            return math.exp(pair.phi + pair.psi[0] * 1.25)

        for k in (1, 4, 9):
            target = tenor.ratios()[k - 1]
            oracle = brentq(lambda u: m0(u) - target, 0.0, 0.2,
                            xtol=1e-15, rtol=8.9e-16)
            assert cir_model.u(k)[0] == pytest.approx(oracle, abs=1e-10)

    def test_table1_gamma_ou(self, gou_model, tenor, gou_process):
        us = gou_model.us[:, 0]
        assert np.all(np.diff(us) < 0.0)
        assert np.all(us < gou_process.alpha)
        for k in range(1, 11):
            resid = abs(martingale_value(gou_model, 0.0, gou_model.x0,
                                         gou_model.u(k))
                        - tenor.ratios()[k - 1])
            assert resid <= 1e-12

    def test_two_factor_diagonal(self, cir2f_model, tenor):
        assert np.all(np.diff(cir2f_model.us, axis=0) <= 0.0)
        # diagonal tie-break: both components equal
        assert np.allclose(cir2f_model.us[:, 0], cir2f_model.us[:, 1])
        for k in range(1, 11):
            resid = abs(martingale_value(cir2f_model, 0.0, cir2f_model.x0,
                                         cir2f_model.u(k))
                        - tenor.ratios()[k - 1])
            assert resid <= 1e-12

    def test_non_monotone_curve_rejected(self, cir_process):
        bad = TenorStructure.from_curve([0.5, 1.0, 1.5],
                                        [0.97, 0.98, 0.96])
        with pytest.raises(NonMonotoneCurve):
            fit_term_structure(bad, cir_process)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, tenor, cir_process,
                                                   tol):
        with pytest.raises(InvalidParameter):
            fit_term_structure(tenor, cir_process, tol=tol)

    @pytest.mark.parametrize("x0", [[math.nan, 1.0], [1.0, math.inf],
                                    [-0.5, 1.0], [0.0, 0.0], [1.0],
                                    [1.0, 1.0, 1.0]])
    def test_initial_state_is_one_finite_value_per_factor(self, tenor,
                                                          cir2f_model, x0):
        # a wrong length used to end in a numpy ValueError, a NaN in
        # InfeasibleCurve, and the model took [nan, 1.0]
        with pytest.raises(InvalidParameter):
            fit_term_structure(tenor, cir2f_model.process, x0=x0)
        with pytest.raises(InvalidParameter):
            CalibratedModel(cir2f_model.process, x0, tenor, cir2f_model.us)

    def test_infeasible_curve(self, tenor):
        # gamma_X = exp(T * 0.01 + 0.05) ~ 1.105 < B(0,T_1)/B(0,T_N) ~ 1.24
        spec = LevySubordinatorSpec(
            lambda u: 0.01 * (1.0 - np.sqrt(1.0 - u / 0.05)),
            domain_sup_value=0.05)
        with pytest.raises(InfeasibleCurve):
            fit_term_structure(tenor, spec)


def riccati_copy(process):
    """The same driver with every transform going through the ODE solver."""
    return RiccatiProcess(process.riccati_rhs(), process.domain_sup,
                          process.x0)


class TestVectorFit:
    @pytest.mark.parametrize("case", ["cir", "gamma_ou", "cir_2f",
                                      "riccati_cir"])
    def test_matches_brentq_oracle(self, tenor, cir_process, gou_process,
                                   cir2f_model, case):
        process = {
            "cir": cir_process,
            "gamma_ou": gou_process,
            "cir_2f": cir2f_model.process,
            "riccati_cir": riccati_copy(cir_process),
        }[case]
        fitted = fit_term_structure(tenor, process)
        x0 = process.initial_state()
        direction = np.ones(process.dim)
        horizon = tenor.date(10)

        def m0(s):
            pair = transform(process, horizon, s * direction, horizon=horizon)
            return math.exp(float(np.real(pair.exponent(x0))))

        # the fit moves along the diagonal u = s * (1, ..., 1); the oracle
        # solves for s
        scales = fitted.us[:, 0]
        assert np.array_equal(fitted.us, scales[:, None] * direction)
        for k in range(1, 10):
            target = tenor.ratios()[k - 1]
            oracle = brentq(lambda s: m0(s) - target, 0.0, 1.01 * scales[0],
                            xtol=1e-15)
            assert scales[k - 1] == pytest.approx(oracle, rel=1e-13, abs=0.0)

    def test_bundled_drivers_take_few_steps(self, cir_model, gou_model,
                                            cir2f_model):
        for m in (cir_model, gou_model, cir2f_model):
            assert np.all((m.steps[:-1] >= 1) & (m.steps[:-1] <= 10))

    def test_diagnostics(self, cir_model, tenor):
        ratios = tenor.ratios()
        for k in range(1, 11):
            direct = abs(martingale_value(cir_model, 0.0, cir_model.x0,
                                          cir_model.u(k)) - ratios[k - 1])
            assert cir_model.residuals[k - 1] == direct
        assert np.all(cir_model.residuals <= 0.5e-12)
        assert np.all((cir_model.steps[:-1] >= 1)
                      & (cir_model.steps[:-1] <= 200))
        assert cir_model.steps[-1] == 0

    def test_dates_at_the_terminal_discount_are_skipped(self, cir_process):
        tenor = TenorStructure.from_curve(
            0.5 * np.arange(1, 6), [0.97, 0.96, 0.95, 0.95 * (1 + 5e-14),
                                    0.95])
        m = fit_term_structure(tenor, cir_process)
        assert np.all(m.us[2:] == 0.0) and np.all(m.us[:2] > 0.0)
        assert np.array_equal(m.residuals[2:],
                              np.abs(1.0 - tenor.ratios()[2:]))
        assert m.residuals[3] > 0.0
        assert np.all(m.steps[2:] == 0) and np.all(m.steps[:2] > 0)

    def test_unreachable_tolerance_names_first_date(self, tenor,
                                                    cir2f_model):
        # One-factor fits can land on the target exactly; the two-factor
        # exponent cannot get closer than one rounding step at index 1.
        with pytest.raises(ConvergenceFailure, match="at index 1$"):
            fit_term_structure(tenor, cir2f_model.process, tol=1e-18)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(**DRIVER_ARGS)
    def test_round_trip_over_admissible_parameters(self, tenor, family, a, b,
                                                   c, x0, second):
        m = fit_term_structure(tenor, admissible_driver(family, a, b, c, x0,
                                                        second))
        assert np.all(m.residuals <= 0.5e-12)
        assert np.all(m.steps <= 16)
        assert np.all(np.diff(m.us, axis=0) < 0.0)
        assert np.all(m.us[-1] == 0.0)


def forward_price_mgf(m, k, t, v):
    """E under P_{T_{k+1}} of exp(v (A_k + <B_k, X_t>)) at each v: the
    prefactor B(0,T_N)/B(0,T_{k+1}) times exp of ``forward_log_mgf``."""
    phi, psi = tilt_exponents(m, t, (k, k + 1))
    return (m.bond0(m.n_periods) / m.bond0(k + 1)) \
        * np.exp(forward_log_mgf(m, t, phi, psi)(np.atleast_1d(v)))


class TestTiltKernel:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(**DRIVER_ARGS, k=st.integers(1, 9), frac=st.floats(0.0, 1.0))
    def test_matches_scalar_transforms(self, tenor, family, a, b, c, x0,
                                       second, k, frac):
        # t in [0, T_k]; the kernel is one batch of the scalar transforms
        m = fit_term_structure(tenor, admissible_driver(family, a, b, c, x0,
                                                        second))
        t = frac * m.tenor.date(k)
        ks = range(1, m.n_periods + 1)
        phi, psi = tilt_exponents(m, t, ks)
        for row, j in enumerate(ks):
            pair = transform(m.process, m.horizon - t, m.u(j),
                             horizon=m.horizon)
            assert phi[row] == np.real(pair.phi)
            assert np.array_equal(psi[row], np.real(pair.psi))
        assert forward_price_mgf(m, k, t, 0.0)[0] == pytest.approx(1.0,
                                                                   abs=1e-12)

    def test_index_and_horizon_checks(self, cir_model):
        with pytest.raises(IndexError):
            tilt_exponents(cir_model, 0.0, (1, 11))
        with pytest.raises(HorizonViolation):
            tilt_exponents(cir_model, cir_model.horizon + 1e-9, (1,))
        with pytest.raises(HorizonViolation):
            tilt_exponents(cir_model, -1e-9, (1,))


class TestForwardExponents:
    def test_same_index_is_zero(self, cir_model):
        fe = forward_exponents(cir_model, 3, 3, 1.0)
        assert fe.A == 0.0 and np.all(fe.B == 0.0)

    def test_initial_forward_price(self, cir_model):
        for k in range(1, 10):
            fe = forward_exponents(cir_model, k, k + 1, 0.0)
            value = math.exp(fe.A + float(fe.B @ cir_model.x0))
            expected = cir_model.bond0(k) / cir_model.bond0(k + 1)
            assert value == pytest.approx(expected, abs=5e-12)

    def test_matches_direct_transform_differences(self, cir_model):
        fe = forward_exponents(cir_model, 3, 4, 0.5)
        hrz = cir_model.horizon - 0.5
        p3 = transform(cir_model.process, hrz, cir_model.u(3))
        p4 = transform(cir_model.process, hrz, cir_model.u(4))
        assert fe.A == pytest.approx(p3.phi - p4.phi, rel=1e-14)
        assert fe.B[0] == pytest.approx(p3.psi[0] - p4.psi[0], rel=1e-14)

    def test_telescoping_product(self, cir_model):
        # prod_k exp(A_k + B_k x) over k..N-1 equals M_t^{u_k}; t must stay
        # inside the earliest quotient's horizon T_k
        t, x = 0.3, np.array([1.6])
        for k in (1, 4, 8):
            log_prod = 0.0
            for step in range(k, 10):
                fe = forward_exponents(cir_model, step, step + 1, t)
                log_prod += fe.A + float(fe.B @ x)
            direct = martingale_value(cir_model, t, x, cir_model.u(k))
            assert math.exp(log_prod) == pytest.approx(direct, rel=1e-12)

    def test_index_errors(self, cir_model):
        with pytest.raises(IndexError):
            forward_exponents(cir_model, 0, 1, 0.0)
        with pytest.raises(IndexError):
            forward_exponents(cir_model, 1, 11, 0.0)
        with pytest.raises(HorizonViolation):
            forward_exponents(cir_model, 1, 2, 1.0)  # beyond T_1


class TestLiborRate:
    def test_flat_model_rate_is_zero(self, flat_model):
        assert libor_rate(flat_model, 2, 0.5, [1.3]) == 0.0

    def test_initial_rates_match_table(self, cir_model, tenor):
        for k in range(1, 10):
            rate = libor_rate(cir_model, k, 0.0, cir_model.x0)
            assert rate == pytest.approx(tenor.initial_libor(k), abs=1e-11)

    def test_non_negative_on_random_states(self, cir_model):
        rng = np.random.default_rng(1)
        for _ in range(500):
            k = int(rng.integers(1, 10))
            t = rng.uniform(0.0, cir_model.tenor.date(k))
            x = rng.uniform(0.0, 5.0)
            assert libor_rate(cir_model, k, t, [x]) >= 0.0

    def test_lower_bound_diagnostic(self, cir_model):
        for k in (1, 5, 9):
            # the state-independent floor (e^A - 1)/delta
            fe = forward_exponents(cir_model, k, k + 1, 0.3)
            bound = (math.exp(fe.A) - 1.0) / cir_model.delta
            assert bound >= 0.0
            assert libor_rate(cir_model, k, 0.3, [0.0]) == \
                pytest.approx(bound, rel=1e-12)


class TestForwardPriceMgf:
    def test_v_zero_is_one(self, cir_model):
        # normalisation holds up to the calibration residual
        assert forward_price_mgf(cir_model, 3, 0.7, 0.0)[0] == \
            pytest.approx(1.0, abs=1e-12)

    def test_v_one_gives_initial_forward_price(self, cir_model):
        for k in (1, 5, 9):
            t_fix = cir_model.tenor.date(k)
            val = forward_price_mgf(cir_model, k, t_fix, 1.0)[0]
            expected = cir_model.bond0(k) / cir_model.bond0(k + 1)
            assert val == pytest.approx(expected, abs=5e-12)

    def test_against_weighted_monte_carlo(self, cir_model):
        k, v = 3, 1.7
        t_fix = cir_model.tenor.date(k)
        exact = forward_price_mgf(cir_model, k, t_fix, v)[0]
        fe = forward_exponents(cir_model, k, k + 1, t_fix)
        batch = simulate_process(cir_model.process, [t_fix], 400_000,
                                 RngStream(99, 5))
        x = batch.at(t_fix)
        w = forward_measure_weights(cir_model, k + 1, t_fix, x)
        samples = w * np.exp(v * (fe.A + x @ fe.B))
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - exact) <= 3.0 * se

    def test_complex_argument_vectorised(self, cir_model):
        z = np.array([0.5 + 1.0j, 2.0 - 3.0j])
        vals = forward_price_mgf(cir_model, 2, 1.0, z)
        assert vals.shape == (2,)
        single = forward_price_mgf(cir_model, 2, 1.0, z[0])[0]
        assert vals[0] == pytest.approx(single, rel=1e-13)

    def test_domain_violation_outside_strip(self, cir_model):
        with pytest.raises(DomainViolation):
            forward_price_mgf(cir_model, 2, 1.0, 500.0)
