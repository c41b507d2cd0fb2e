import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_libor import pricing
from affine_libor.cli import RunConfig
from affine_libor.errors import (DampingOutOfStrip, InvalidParameter,
                                 ModelMismatch, NoSignChange, OutOfBounds)
from affine_libor.model import fit_term_structure, martingale_value
from affine_libor.montecarlo import RngStream, mc_caplet, mc_swaption
from affine_libor.pricing import (CapletSpec, QuadratureSettings,
                                  SwaptionSpec, black76_implied_vol,
                                  black76_price, caplet_cir2f_closed,
                                  caplet_cir_closed, caplet_closed,
                                  caplet_fourier,
                                  floorlet_cir_closed, floorlet_fourier,
                                  swaption_cir_closed, swaption_fourier,
                                  swaption_root, vol_surface)
from affine_libor.processes import CirParams, RiccatiProcess

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# The bundled surface grids (configs/cir.cfg, configs/gamma_ou.cfg).
CIR_GRID = 0.01 + 0.005 * np.arange(11)
GOU_GRID = 0.025 + 0.005 * np.arange(10)


def parity_gap(model, k, strike):
    cap = caplet_fourier(model, CapletSpec(k, strike)).price
    floor = floorlet_fourier(model, CapletSpec(k, strike)).price
    bold = 1.0 + model.delta * strike
    return abs(cap - floor
               - (model.bond0(k) - bold * model.bond0(k + 1)))


class TestCapletFourier:
    def test_flat_model_caplet_is_zero(self, flat_model):
        res = caplet_fourier(flat_model, CapletSpec(2, 0.02))
        assert res.price == pytest.approx(0.0, abs=1e-10)

    def test_matches_closed_form(self, cir_model):
        four = caplet_fourier(cir_model, CapletSpec(2, 0.03))
        closed = caplet_cir_closed(cir_model, CapletSpec(2, 0.03))
        assert four.price == pytest.approx(closed.price, rel=1e-6)

    def test_gamma_ou_brackets_monte_carlo(self, gou_model):
        res = caplet_fourier(gou_model, CapletSpec(2, 0.04))
        est, se = mc_caplet(gou_model, 2, 0.04, 1_000_000, RngStream(53))
        assert abs(res.price - est) <= 3.0 * se

    def test_damping_strip_enforced(self, cir_model):
        with pytest.raises(DampingOutOfStrip):
            caplet_fourier(cir_model, CapletSpec(2, 0.03),
                           QuadratureSettings(damping=0.5))
        with pytest.raises(DampingOutOfStrip):
            caplet_fourier(cir_model, CapletSpec(2, 0.03),
                           QuadratureSettings(damping=1e6))

    def test_quadrature_convergence(self, cir_model):
        loose = caplet_fourier(cir_model, CapletSpec(3, 0.025),
                               QuadratureSettings(rel_tol=1e-7))
        tight = caplet_fourier(cir_model, CapletSpec(3, 0.025),
                               QuadratureSettings(rel_tol=5e-11))
        assert abs(loose.price - tight.price) <= max(loose.error_estimate,
                                                     1e-12)

    def test_diagnostics_populated(self, cir_model):
        res = caplet_fourier(cir_model, CapletSpec(2, 0.03))
        assert res.damping > 1.0
        assert res.error_estimate >= 0.0
        assert res.root is None

    def test_invalid_strike(self):
        with pytest.raises(InvalidParameter):
            CapletSpec(2, -0.01)

    @pytest.mark.parametrize("strike", [math.nan, math.inf])
    def test_non_finite_strike(self, strike):
        with pytest.raises(InvalidParameter):
            CapletSpec(2, strike)
        with pytest.raises(InvalidParameter):
            SwaptionSpec(2, 6, strike)

    @pytest.mark.parametrize("bold", [0.5, math.nan, math.inf])
    def test_invalid_bold_strike(self, bold):
        with pytest.raises(InvalidParameter):
            CapletSpec(2, 0.03, bold)

    @pytest.mark.parametrize("setting", [
        dict(truncation=0.0), dict(truncation=-5.0),
        dict(truncation=math.nan), dict(truncation=math.inf),
        dict(rel_tol=0.0), dict(rel_tol=-1.0), dict(rel_tol=math.nan),
        dict(rel_tol=math.inf), dict(damping=math.nan),
        dict(damping=-math.inf)])
    def test_invalid_quadrature_settings(self, setting):
        with pytest.raises(InvalidParameter):
            QuadratureSettings(**setting)

    # Integrand calls of the bundled caplet of each config
    # (configs/*.cfg): one fused call per step plus the head's refinement
    # rounds and probe-only calls.
    @pytest.mark.parametrize("family, most", [("cir", 11), ("gamma_ou", 14),
                                              ("cir_2f", 10)])
    def test_bundled_caplet_integrand_calls(self, monkeypatch, family,
                                            most):
        calls = []
        inner = pricing.semi_infinite_oscillatory

        def counted(f, **kwargs):
            def g(v):
                calls.append(v.size)
                return f(v)
            return inner(g, **kwargs)

        monkeypatch.setattr(pricing, "semi_infinite_oscillatory", counted)
        cfg = RunConfig.from_file(str(CONFIGS / f"{family}.cfg"))
        spec = CapletSpec(int(cfg.raw["caplet.index"]),
                          float(cfg.raw["caplet.strike"]))
        caplet_fourier(cfg.calibrate(), spec, cfg.quadrature)
        assert 0 < len(calls) <= most

    @pytest.mark.parametrize("damping", [None, 989.3])
    def test_strongly_damped_contour_stays_in_control(self, tenor, damping):
        # An admissible driver whose strip reaches Re z = 1e6.  On the
        # contour at Re z = 989.3 the integral's imaginary part is 2000x
        # the real part the price needs, and its tail closes only past
        # V = 2e5; a tail frequency measured with a 0.1 rad phase step
        # left an error of 1e-2 there and raised QuadratureFailure.
        m = fit_term_structure(tenor, CirParams(
            1.9233527301339097, 0.738550443734857, 0.5641655127700625,
            0.6984041672816674))
        closed = caplet_cir_closed(m, CapletSpec(1, 0.01)).price
        res = caplet_fourier(m, CapletSpec(1, 0.01),
                             QuadratureSettings(damping=damping))
        assert res.price == pytest.approx(closed, rel=1e-6)
        assert res.error_estimate <= 1e-6 * res.price

    def test_riccati_only_driver_prices(self, tenor, gou_model):
        # a family defined purely through (F, R) must calibrate and price
        # through the ODE route; cross-check against the closed-form twin
        from affine_libor.model import fit_term_structure
        from affine_libor.processes import GammaOuParams, RiccatiProcess
        twin = GammaOuParams(0.01, 2.0, 1.0, 1.25)
        proc = RiccatiProcess(twin.riccati_rhs(),
                              domain_sup_fn=twin.domain_sup, x0_value=1.25)
        model = fit_term_structure(tenor, proc, tol=1e-10)
        assert np.max(np.abs(model.us - gou_model.us)) < 1e-8
        ode = caplet_fourier(model, CapletSpec(2, 0.05),
                             QuadratureSettings(rel_tol=1e-6))
        ref = caplet_fourier(gou_model, CapletSpec(2, 0.05))
        assert ode.price == pytest.approx(ref.price, rel=1e-4)

    def test_riccati_only_bundled_cir_at_default_tolerance(self):
        # Every transform of the copy is a batched Riccati solve; the
        # closed form prices the original within the reported error.
        cfg = RunConfig.from_file(str(CONFIGS / "cir.cfg"))
        twin = cfg.process
        proc = RiccatiProcess(twin.riccati_rhs(), twin.domain_sup, twin.x0)
        model = fit_term_structure(cfg.tenor, proc, x0=cfg.x0,
                                   tol=cfg.calibration_tol)
        spec = CapletSpec(2, 0.03)
        ode = caplet_fourier(model, spec)
        closed = caplet_closed(cfg.calibrate(), spec)
        assert abs(ode.price - closed.price) <= ode.error_estimate + 1e-13


class TestFloorlet:
    def test_parity_across_grid(self, cir_model, gou_model):
        for model, strikes in ((cir_model, (0.01, 0.03, 0.06)),
                               (gou_model, (0.03, 0.05))):
            for k in (1, 5, 9):
                for strike in strikes:
                    assert parity_gap(model, k, strike) <= 1e-8

    def test_zero_strike_floorlet_worthless(self, cir_model):
        res = floorlet_fourier(cir_model, CapletSpec(4, 0.0))
        assert res.price == pytest.approx(0.0, abs=1e-10)

    def test_closed_form_counterpart(self, cir_model):
        spec = CapletSpec(2, 0.03)
        closed = floorlet_cir_closed(cir_model, spec)
        four = floorlet_fourier(cir_model, spec)
        assert four.price == pytest.approx(closed.price, rel=1e-6, abs=1e-12)

    def test_floorlet_damping_must_be_negative(self, cir_model):
        with pytest.raises(DampingOutOfStrip):
            floorlet_fourier(cir_model, CapletSpec(2, 0.03),
                             QuadratureSettings(damping=0.5))


class TestCapletCirClosed:
    def test_deep_in_the_money_approaches_intrinsic(self, cir_model):
        spec = CapletSpec(5, 1e-6)
        res = caplet_cir_closed(cir_model, spec)
        bold = 1.0 + cir_model.delta * 1e-6
        intrinsic = cir_model.bond0(5) - bold * cir_model.bond0(6)
        assert res.price == pytest.approx(intrinsic, rel=1e-7)

    def test_monotone_decreasing_in_strike(self, cir_model):
        prices = [caplet_cir_closed(cir_model, CapletSpec(2, k)).price
                  for k in (0.01, 0.02, 0.04, 0.06)]
        assert all(a > b for a, b in zip(prices, prices[1:]))

    def test_convex_in_strike(self, cir_model):
        ks = np.linspace(0.01, 0.06, 11)
        prices = np.array([caplet_cir_closed(cir_model, CapletSpec(3, k)).price
                           for k in ks])
        assert np.all(np.diff(prices, 2) >= -1e-12)

    def test_model_mismatch(self, gou_model):
        with pytest.raises(ModelMismatch):
            caplet_cir_closed(gou_model, CapletSpec(2, 0.03))

    def test_flat_period_degenerates_to_intrinsic(self, flat_model):
        res = caplet_cir_closed(flat_model, CapletSpec(2, 0.02))
        assert res.price == 0.0


class TestCaplet2fClosed:
    def test_matches_fourier(self, cir2f_model):
        for k, strike in ((2, 0.03), (5, 0.02), (8, 0.045)):
            closed = caplet_cir2f_closed(cir2f_model, CapletSpec(k, strike))
            four = caplet_fourier(cir2f_model, CapletSpec(k, strike))
            assert four.price == pytest.approx(closed.price, rel=1e-5)

    @pytest.mark.parametrize("k, strike", [
        (7, 0.060405),  # one panel [0, U]: error read 4.6e-11, was 3.4e-8
        (1, 0.045196),  # panels of ~15 periods alias the 7- and 15-point
        (2, 0.050196),  # rules alike: error read 3e-12, was 1.3e-9
        (3, 0.060152),
    ])
    def test_imhof_cells_match_fourier(self, cir2f_model, k, strike):
        spec = CapletSpec(k, strike)
        closed = caplet_cir2f_closed(cir2f_model, spec)
        four = caplet_fourier(cir2f_model, spec)
        assert abs(closed.price - four.price) <= 1e-10

    def test_brackets_monte_carlo(self, cir2f_model):
        closed = caplet_cir2f_closed(cir2f_model, CapletSpec(3, 0.03))
        est, se = mc_caplet(cir2f_model, 3, 0.03, 1_000_000, RngStream(59))
        assert abs(closed.price - est) <= 3.0 * se

    def test_single_factor_degeneration(self, tenor):
        from affine_libor.model import fit_term_structure
        from affine_libor.processes import CirParams, ProductProcess
        degenerate = ProductProcess([CirParams(0.5, 0.6, 0.25, 1.25),
                                     CirParams(1.2, 0.0, 0.3, 0.0)])
        m2 = fit_term_structure(tenor, degenerate)
        m1 = fit_term_structure(tenor, CirParams(0.5, 0.6, 0.25, 1.25))
        for k, strike in ((2, 0.03), (6, 0.05)):
            two = caplet_cir2f_closed(m2, CapletSpec(k, strike))
            one = caplet_cir_closed(m1, CapletSpec(k, strike))
            assert abs(two.price - one.price) <= 1e-8

    def test_model_mismatch(self, cir_model):
        with pytest.raises(ModelMismatch):
            caplet_cir2f_closed(cir_model, CapletSpec(2, 0.03))


class TestSwaptionRoot:
    def test_single_period_analytic(self, cir_model):
        from affine_libor.model import forward_exponents
        s = SwaptionSpec(3, 4, 0.03)
        root = swaption_root(cir_model, s)
        fe = forward_exponents(cir_model, 4, 3, cir_model.tenor.date(3))
        c_m = 1.0 + cir_model.delta * 0.03
        analytic = (-math.log(c_m) - fe.A) / fe.B[0]
        assert root == pytest.approx(analytic, rel=1e-10)

    def test_residual_below_tolerance(self, cir_model):
        from affine_libor.model import forward_exponents
        s = SwaptionSpec(2, 6, 0.03)
        root = swaption_root(cir_model, s)
        t_ex = cir_model.tenor.date(2)
        coup = s.coupons(cir_model.delta)
        val = 1.0 - sum(
            c * math.exp(forward_exponents(cir_model, k, 2, t_ex).A
                         + forward_exponents(cir_model, k, 2, t_ex).B[0]
                         * root)
            for c, k in zip(coup, range(3, 7)))
        assert abs(val) <= 1e-13

    def test_exercise_function_increasing(self, cir_model):
        from affine_libor.model import forward_exponents
        s = SwaptionSpec(2, 6, 0.03)
        t_ex = cir_model.tenor.date(2)
        coup = s.coupons(cir_model.delta)
        pairs = [forward_exponents(cir_model, k, 2, t_ex)
                 for k in range(3, 7)]

        def f(x):
            return 1.0 - sum(c * math.exp(fe.A + fe.B[0] * x)
                             for c, fe in zip(coup, pairs))

        xs = np.linspace(-3.0, 4.0, 50)
        vals = [f(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_degenerate_flat_model(self, flat_model):
        with pytest.raises(NoSignChange):
            swaption_root(flat_model, SwaptionSpec(2, 5, 0.02))

    @staticmethod
    def tilted(monkeypatch, a_flat):
        """Tilts of SwaptionSpec(1, 3, 0.03) with A = (0, a_flat) and
        B = (-1, 0): far to the right f tends to 1 - c_3 e^{a_flat}."""
        monkeypatch.setattr(
            pricing, "_swaption_tilts",
            lambda m, s: (0.0, np.array([0.0, 0.0, a_flat]),
                          np.array([0.0, -1.0, 0.0])))
        return SwaptionSpec(1, 3, 0.03)

    def test_flat_terms_at_or_above_one_give_no_root(self, monkeypatch,
                                                     cir_model):
        c_last = 1.0 + cir_model.delta * 0.03
        for a_flat in (0.0, -math.log(c_last) + 1e-12):
            s = self.tilted(monkeypatch, a_flat)
            with pytest.raises(NoSignChange, match="stays negative"):
                swaption_root(cir_model, s)

    def test_flat_terms_just_below_one_leave_a_root(self, monkeypatch,
                                                    cir_model):
        c_first, c_last = SwaptionSpec(1, 3, 0.03).coupons(cir_model.delta)
        a_flat = math.log((1.0 - 1e-6) / c_last)
        root = swaption_root(cir_model, self.tilted(monkeypatch, a_flat))
        limit = 1.0 - c_last * math.exp(a_flat)
        # f(x) = limit - c_first e^{-x}
        assert root == pytest.approx(math.log(c_first / limit), rel=1e-9)

    # (start, end) pairs of the benchmark's cli-commands swaptions, each
    # over a strike range of its config.
    DESIGN = ((1, 2), (1, 4), (2, 6), (3, 10), (4, 6), (5, 8), (6, 10),
              (7, 9), (8, 10), (2, 4), (4, 10), (1, 10))

    @pytest.mark.parametrize("family, lo, hi", [("cir", 0.02, 0.05),
                                                ("gamma_ou", 0.03, 0.06)])
    def test_newton_root_matches_brentq(self, monkeypatch, family, lo, hi):
        from scipy.optimize import brentq
        evals = []
        inner = pricing._rising_concave_root

        def counted(f_slope):
            def g(x):
                evals[-1] += 1
                return f_slope(x)
            return inner(g)

        monkeypatch.setattr(pricing, "_rising_concave_root", counted)
        m = RunConfig.from_file(str(CONFIGS / f"{family}.cfg")).calibrate()
        for start, end in self.DESIGN:
            for strike in np.linspace(lo, hi, 7):
                s = SwaptionSpec(start, end, float(strike))
                evals.append(0)
                root = swaption_root(m, s)
                _, phi, psi = pricing._swaption_tilts(m, s)
                a, b, coup = phi[1:] - phi[0], psi[1:] - psi[0], \
                    s.coupons(m.delta)

                def f(x):
                    return 1.0 - math.fsum(coup * np.exp(a + b * x))

                left, right = -1.0, 1.0
                while f(left) >= 0.0:
                    left *= 2.0
                while f(right) <= 0.0:
                    right *= 2.0
                oracle = brentq(f, left, right, xtol=1e-300, rtol=8.9e-16,
                                maxiter=500)
                assert abs(root - oracle) <= 4e-14 * abs(oracle)
        assert 0 < max(evals) <= 10

    def test_requires_one_factor(self, cir2f_model):
        with pytest.raises(ModelMismatch):
            swaption_root(cir2f_model, SwaptionSpec(2, 6, 0.03))


class TestSwaptionPricing:
    def test_fourier_matches_closed(self, cir_model):
        for spec in (SwaptionSpec(2, 6, 0.03), SwaptionSpec(1, 10, 0.04),
                     SwaptionSpec(5, 8, 0.02)):
            four = swaption_fourier(cir_model, spec)
            closed = swaption_cir_closed(cir_model, spec)
            assert four.price == pytest.approx(closed.price, rel=1e-6)

    def test_huge_strike_nearly_worthless(self, cir_model):
        res = swaption_fourier(cir_model, SwaptionSpec(2, 6, 1.5))
        assert 0.0 <= res.price <= 1e-4 * cir_model.bond0(2)

    def test_bounded_by_option_on_unit(self, cir_model):
        for strike in (0.0, 0.02, 0.05):
            res = swaption_cir_closed(cir_model, SwaptionSpec(2, 7, strike))
            coup = SwaptionSpec(2, 7, strike).coupons(cir_model.delta)
            intrinsic = max(
                cir_model.bond0(2)
                - sum(c * cir_model.bond0(k)
                      for c, k in zip(coup, range(3, 8))), 0.0)
            assert intrinsic - 1e-12 <= res.price <= cir_model.bond0(2)

    def test_single_period_swaption_equals_caplet(self, cir_model):
        # payer swaption over one period is a call on the forward price
        k, strike = 3, 0.03
        swp = swaption_fourier(cir_model, SwaptionSpec(k, k + 1, strike))
        cap_f = caplet_fourier(cir_model, CapletSpec(k, strike))
        cap_c = caplet_cir_closed(cir_model, CapletSpec(k, strike))
        assert swp.price == pytest.approx(cap_f.price, rel=1e-6)
        assert swp.price == pytest.approx(cap_c.price, rel=1e-6)

    def test_brackets_monte_carlo(self, cir_model):
        spec = SwaptionSpec(2, 6, 0.03)
        closed = swaption_cir_closed(cir_model, spec)
        est, se = mc_swaption(cir_model, 2, 6, 0.03, 1_000_000,
                              RngStream(61))
        assert abs(closed.price - est) <= 3.0 * se

    def test_gamma_ou_swaption_brackets_monte_carlo(self, gou_model):
        res = swaption_fourier(gou_model, SwaptionSpec(2, 6, 0.04))
        est, se = mc_swaption(gou_model, 2, 6, 0.04, 400_000, RngStream(71))
        assert abs(res.price - est) <= 3.0 * se

    def test_atom_strike_regression(self, gou_model):
        # the rare-jump driver puts an atom at the decayed initial state;
        # striking exactly there kills the integrand's oscillation and
        # must not destabilise the tail closure
        from affine_libor.model import forward_exponents
        k = 2
        fe = forward_exponents(gou_model, k, k + 1, gou_model.tenor.date(k))
        x_atom = 1.25 * math.exp(-0.01 * gou_model.tenor.date(k))
        strike = (math.exp(fe.A + fe.B[0] * x_atom) - 1.0) / gou_model.delta
        res = caplet_fourier(gou_model, CapletSpec(k, strike))
        assert res.error_estimate <= 1e-9
        est, se = mc_caplet(gou_model, k, strike, 400_000, RngStream(99))
        assert abs(res.price - est) <= 3.0 * se

    def test_truncation_override_consistent(self, gou_model):
        base = caplet_fourier(gou_model, CapletSpec(2, 0.04))
        wide = caplet_fourier(gou_model, CapletSpec(2, 0.04),
                              QuadratureSettings(truncation=128.0))
        assert wide.price == pytest.approx(
            base.price, abs=max(base.error_estimate, 1e-12))

    def test_damping_checked(self, cir_model):
        with pytest.raises(DampingOutOfStrip):
            swaption_fourier(cir_model, SwaptionSpec(2, 6, 0.03),
                             QuadratureSettings(damping=-0.5))

    def test_root_reported(self, cir_model):
        res = swaption_fourier(cir_model, SwaptionSpec(2, 6, 0.03))
        assert res.root == pytest.approx(
            swaption_root(cir_model, SwaptionSpec(2, 6, 0.03)), rel=1e-12)


class TestBlack76:
    def test_intrinsic_price_gives_zero_vol(self):
        assert black76_implied_vol(0.01 * 0.48, 0.04, 0.03, 2.0,
                                   0.48) == 0.0

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            fwd = rng.uniform(0.005, 0.08)
            strike = rng.uniform(0.005, 0.08)
            expiry = rng.uniform(0.1, 5.0)
            vol = rng.uniform(0.05, 1.5)
            annuity = rng.uniform(0.3, 0.5)
            price = black76_price(fwd, strike, expiry, vol, annuity)
            if price <= annuity * max(fwd - strike, 0.0) + 1e-13:
                continue  # numerically indistinguishable from intrinsic
            implied = black76_implied_vol(price, fwd, strike, expiry, annuity)
            back = black76_price(fwd, strike, expiry, implied, annuity)
            assert abs(back - price) <= 1e-10

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(fwd=st.floats(0.001, 0.1), strike=st.floats(0.001, 0.1),
           expiry=st.floats(0.05, 10.0), vol=st.floats(0.01, 3.0),
           annuity=st.floats(0.1, 1.0))
    def test_price_vol_price_round_trip(self, fwd, strike, expiry, vol,
                                        annuity):
        # The vol is resolved to about 1e-12 relative whatever the vega,
        # so the price comes back to within the rounding of Black's
        # formula, not to within the bound-check slack of 1e-10.
        price = black76_price(fwd, strike, expiry, vol, annuity)
        implied = black76_implied_vol(price, fwd, strike, expiry, annuity)
        back = black76_price(fwd, strike, expiry, implied, annuity)
        total = vol * math.sqrt(expiry)
        d1 = (math.log(fwd / strike) + 0.5 * total * total) / total
        vega = annuity * fwd * math.sqrt(expiry) \
            * math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)
        rounding = 8.0 * math.ulp(price) + 2e-15 * annuity * fwd
        if implied == 0.0:  # time value below the snap to zero
            rounding += 1e-12
        assert abs(back - price) <= rounding + 1e-11 * vega * vol
        if vega * vol > 1e-6 * annuity * fwd:  # well above the rounding
            assert implied == pytest.approx(vol, rel=1e-9)

    def test_out_of_bounds(self):
        with pytest.raises(OutOfBounds):
            black76_implied_vol(0.5, 0.04, 0.03, 2.0, 0.48)
        with pytest.raises(OutOfBounds):
            black76_implied_vol(0.001, 0.04, 0.05, 2.0, -1.0)

    def test_put_call_parity(self):
        call = black76_price(0.03, 0.035, 1.5, 0.3, 0.47, call=True)
        put = black76_price(0.03, 0.035, 1.5, 0.3, 0.47, call=False)
        assert call - put == pytest.approx(0.47 * (0.03 - 0.035), abs=1e-15)


class TestVolSurface:
    def test_cir_grid_finite_positive(self, cir_model):
        strikes = 0.01 + 0.005 * np.arange(11)
        cells = vol_surface(cir_model, strikes, method="closed")
        assert len(cells) == 9 * 11
        assert all(c.error is None for c in cells)
        assert all(math.isfinite(c.implied_vol) and c.implied_vol > 0.0
                   for c in cells)

    def test_methods_agree(self, cir_model):
        strikes = (0.01, 0.03, 0.06)
        closed = vol_surface(cir_model, strikes, method="closed")
        fourier = vol_surface(cir_model, strikes, method="fourier")
        for a, b in zip(fourier, closed):
            assert a.price == pytest.approx(b.price, rel=1e-6)

    def test_row_ordering(self, cir_model):
        cells = vol_surface(cir_model, (0.03, 0.01), method="closed")
        assert cells[0].expiry == cells[1].expiry == 0.5
        assert cells[0].strike < cells[1].strike
        assert cells[2].expiry == 1.0

    def test_failed_cells_marked_not_clamped(self, cir_model):
        cells = vol_surface(cir_model, (-0.01, 0.03), method="closed")
        bad = [c for c in cells if c.strike == -0.01]
        assert all(c.error == "InvalidParameter" for c in bad)
        assert all(math.isnan(c.implied_vol) and math.isnan(c.price)
                   for c in bad)
        good = [c for c in cells if c.strike == 0.03]
        assert all(c.error is None for c in good)

    def test_zero_strike_cell_prices_at_intrinsic(self, cir_model):
        # model-free: a zero-strike caplet is worth B(0,T_k) - B(0,T_{k+1});
        # the degenerate inversion reports zero vol rather than a failure
        cells = vol_surface(cir_model, (0.0,), method="closed")
        for c in cells:
            k = round(c.expiry / cir_model.delta)
            assert c.error is None
            assert c.implied_vol == 0.0
            assert c.price == pytest.approx(
                cir_model.bond0(k) - cir_model.bond0(k + 1), abs=1e-10)

    def test_gamma_ou_surface(self, gou_model):
        # Rare jumps (intensity lam*beta = 0.01) floor every forward rate at
        # its decayed initial state, so strikes below the floor carry no
        # time value: those vols are exactly zero, the rest are positive.
        strikes = 0.025 + 0.005 * np.arange(10)
        cells = vol_surface(gou_model, strikes, method="fourier")
        assert len(cells) == 9 * 10
        assert all(c.error is None for c in cells)
        assert all(math.isfinite(c.implied_vol) and c.implied_vol >= 0.0
                   for c in cells)
        positive = [c for c in cells if c.implied_vol > 0.0]
        assert positive  # the jump tail prices the high strikes
        for c in cells:
            k = round(c.expiry / gou_model.delta)
            intrinsic = gou_model.delta * gou_model.bond0(k + 1) * max(
                gou_model.tenor.initial_libor(k) - c.strike, 0.0)
            if c.price > intrinsic + 1e-8:
                assert c.implied_vol > 0.0

    def test_closed_rows_match_single_strike(self, cir_model, cir2f_model):
        strikes = (0.0, 0.01, 0.035, 0.06)
        for model, single in ((cir_model, caplet_cir_closed),
                              (cir2f_model, caplet_cir2f_closed)):
            for cell in vol_surface(model, strikes, method="closed"):
                k = round(cell.expiry / model.delta)
                ref = single(model, CapletSpec(k, cell.strike)).price
                # the price is a difference of two O(1) terms: a few ulps
                assert abs(cell.price - ref) <= 1e-15

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(family=st.sampled_from(["cir", "gamma_ou"]),
           picks=st.lists(st.integers(0, 10), min_size=1, max_size=4,
                          unique=True))
    def test_fourier_rows_match_single_strike(self, cir_model, gou_model,
                                              family, picks):
        # Strike subsets of the bundled grids (configs/*.cfg): sharing a
        # row changes the damping and the panels, not the price beyond
        # the error estimates.
        model, lo, n = (cir_model, 0.01, 11) if family == "cir" \
            else (gou_model, 0.025, 10)
        strikes = sorted({lo + 0.005 * (i % n) for i in picks})
        cells = vol_surface(model, strikes, method="fourier")
        assert all(c.error is None for c in cells)
        for row in range(model.n_periods - 1):
            quotes = cells[row * len(strikes):(row + 1) * len(strikes)]
            k = row + 1
            tol = []
            for c in quotes:
                ref = caplet_fourier(model, CapletSpec(k, c.strike))
                assert abs(c.price - ref.price) <= 1e-8 * ref.price \
                    + 3.0 * (c.error_estimate + ref.error_estimate)
                tol.append(3.0 * c.error_estimate + 1e-15)
            prices, ks = [c.price for c in quotes], [c.strike for c in quotes]
            for i in range(len(quotes) - 1):
                assert prices[i + 1] <= prices[i] + tol[i] + tol[i + 1]
            for i in range(len(quotes) - 2):
                left = (prices[i + 1] - prices[i]) / (ks[i + 1] - ks[i])
                right = (prices[i + 2] - prices[i + 1]) / (ks[i + 2]
                                                           - ks[i + 1])
                slack = 2.0 * (tol[i] + 2.0 * tol[i + 1] + tol[i + 2]) \
                    / min(ks[i + 1] - ks[i], ks[i + 2] - ks[i + 1])
                assert right >= left - slack

    def test_fourier_error_estimates_meet_the_target(self, cir_model,
                                                     gou_model):
        # every strike of a row settles on its own budget, so no cell
        # reports the error of a slower strike's tail
        for model, grid in ((cir_model, CIR_GRID), (gou_model, GOU_GRID)):
            cells = vol_surface(model, grid, method="fourier")
            assert all(c.error is None for c in cells)
            for c in cells:
                assert c.error_estimate <= 1e-6 * c.price + 1e-14

    def test_barely_moving_driver_prices_every_cell(self, tenor):
        # eta = 0.055 stretches the damping strip to Re z = 2e6, where the
        # relative candidate grid alone starts at 1999: the in-the-money
        # cells of the first expiry then cancelled to their price from
        # 1e7 and K = 0.01 raised QuadratureFailure
        m = fit_term_structure(tenor, CirParams(1.0, 1.0, 0.0546875, 1.0))
        fourier = vol_surface(m, CIR_GRID, method="fourier")
        closed = vol_surface(m, CIR_GRID, method="closed")
        for a, b in zip(fourier, closed):
            assert a.error is None
            assert abs(a.price - b.price) <= 1e-6 * b.price + 1e-13

    def test_closed_method_requires_square_root_family(self, gou_model):
        with pytest.raises(ModelMismatch):
            vol_surface(gou_model, (0.03,), method="closed")

    def test_unknown_method(self, cir_model):
        with pytest.raises(InvalidParameter):
            vol_surface(cir_model, (0.03,), method="midpoint")


class TestAdmissibleCir:
    """Fourier against closed forms over admissible square-root drivers
    (the ranges of the calibration round trip in tests/test_model.py)."""

    def test_large_non_centrality_prices_every_closed_cell(self, tenor):
        # eta = 0.05 puts the non-centralities of the early expiries near
        # 1500-1600, where the Poisson window once failed to close: 22 of
        # these 99 closed cells raised ConvergenceFailure.
        m = fit_term_structure(tenor, CirParams(0.001, 1.0, 0.05, 2.0))
        closed = vol_surface(m, CIR_GRID, method="closed")
        fourier = vol_surface(m, CIR_GRID, method="fourier")
        assert all(c.error is None for c in closed)
        for a, b in zip(fourier, closed):
            assert abs(a.price - b.price) <= 1e-6 * a.price + 1e-13

    def test_tiny_closed_price_meets_its_absolute_floor(self, tenor):
        # The modal Poisson weight, taken from the absolute pmf, once put
        # this 2.7e-9 caplet 2.0e-13 below the Fourier price.
        m = fit_term_structure(tenor, CirParams(0.001, 0.2861412845485337,
                                                0.05, 1.220700473093712))
        spec = CapletSpec(1, 0.05)
        closed = caplet_cir_closed(m, spec).price
        fourier = caplet_fourier(m, spec).price
        assert abs(closed - fourier) <= 1e-6 * fourier + 1e-13

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(lam=st.floats(0.001, 2.0), theta=st.floats(0.05, 1.0),
           eta=st.floats(0.05, 1.0), x0=st.floats(0.2, 2.0),
           pick=st.integers(0, 10))
    def test_fourier_matches_closed_and_parity(self, tenor, lam, theta, eta,
                                               x0, pick):
        m = fit_term_structure(tenor, CirParams(lam, theta, eta, x0))
        fourier = vol_surface(m, CIR_GRID, method="fourier")
        closed = vol_surface(m, CIR_GRID, method="closed")
        assert all(c.error is None for c in fourier)
        for a, b in zip(fourier, closed):
            assert abs(a.price - b.price) <= 1e-6 * b.price + 1e-13
        # parity against the model's own bond prices, which match the
        # curve only to the fit residual (up to ~5e-13 here)
        strike = float(CIR_GRID[pick])
        bond = {k: m.bond0(m.n_periods) * martingale_value(m, 0.0, m.x0,
                                                           m.u(k))
                for k in range(1, m.n_periods + 1)}
        for k in range(1, m.n_periods):
            cap = caplet_fourier(m, CapletSpec(k, strike))
            floor = floorlet_fourier(m, CapletSpec(k, strike))
            forward = bond[k] - (1.0 + m.delta * strike) * bond[k + 1]
            assert abs(cap.price - floor.price - forward) <= 3.0 * (
                cap.error_estimate + floor.error_estimate) + 1e-13
