import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_model import DRIVER_ARGS, admissible_driver

from affine_libor import affine_core, model, pricing
from affine_libor.cli import RunConfig
from affine_libor.distributions import ncchi2_sf
from affine_libor.errors import (AffineLiborError, DampingOutOfStrip,
                                 InvalidParameter, ModelMismatch,
                                 NoSignChange, OutOfBounds)
from affine_libor.model import (TenorStructure, fit_term_structure,
                                forward_log_mgf, tilt_exponents)
from affine_libor.montecarlo import RngStream, mc_caplet, mc_swaption
from affine_libor.pricing import (CapletSpec, SwaptionSpec,
                                  black76_implied_vol,
                                  caplet_cir2f_closed, caplet_cir_closed,
                                  caplet_closed, caplet_fourier,
                                  floorlet_cir_closed, floorlet_fourier,
                                  swaption_cir_closed, swaption_fourier,
                                  swaption_root, vol_surface)
from affine_libor.processes import CirParams, GammaOuParams, RiccatiProcess
from affine_libor.quadrature import semi_infinite_oscillatory

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# The bundled surface grids (configs/cir.cfg, configs/gamma_ou.cfg).
CIR_GRID = 0.01 + 0.005 * np.arange(11)
GOU_GRID = 0.025 + 0.005 * np.arange(10)
# A wide grid, 0.5% to 8% in steps of 0.25%: 279 cells on the bundled
# tenor, every one of them inverted on the cir driver.
WIDE_GRID = 0.005 + 0.0025 * np.arange(31)


def contour_caplet(model, k, strike, damping):
    """Caplet price and error estimate from the Fourier integral on the
    contour Re z = ``damping``, built from the forward-price MGF as the
    module docstring of ``pricing`` writes it.  A contour left of the pole
    at z = 0 prices the floorlet (the put) instead."""
    t = model.tenor.date(k)
    phi, psi = tilt_exponents(model, t, (k, k + 1))
    bold = 1.0 + model.delta * strike

    def integrand(v):
        z = damping - 1j * v
        return np.exp(forward_log_mgf(model, t, phi, psi)(z)
                      - z * math.log(bold)) / (z * (z - 1.0))

    integral, err = semi_infinite_oscillatory(integrand, rel_tol=1e-9)
    scale = model.bond0(model.n_periods) * bold / math.pi
    return scale * integral.real, scale * abs(err)


# The put contour's damping: left of the poles at z = 0 and z = 1, and
# inside the strip of every square-root and gamma-OU driver, whose
# forward-price MGF is finite for all Re z < 0.
PUT_DAMPING = -32.0


def assert_falls_and_is_convex(cells):
    """Static no-arbitrage along each expiry's row of a surface on
    WIDE_GRID: each cell may miss by its error estimate plus 1e-13,
    weighted by its coefficient in the first or second difference."""
    assert all(cell.error is None for cell in cells)
    price = np.array([cell.price for cell in cells]).reshape(
        -1, WIDE_GRID.size)
    slack = np.array([cell.error_estimate for cell in cells]).reshape(
        price.shape) + 1e-13
    assert (np.diff(price) <= slack[:, 1:] + slack[:, :-1]).all()
    convexity = price[:, 2:] - 2.0 * price[:, 1:-1] + price[:, :-2]
    assert (convexity >= -(slack[:, 2:] + 2.0 * slack[:, 1:-1]
                           + slack[:, :-2])).all()


def put_contour_gap(model, k, strike):
    """Gap between the library's floorlet, which comes from its caplet by
    cap-floor parity, and the independent put contour."""
    floor = floorlet_fourier(model, CapletSpec(k, strike)).price
    return abs(floor - contour_caplet(model, k, strike, PUT_DAMPING)[0])


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

    def test_quadrature_convergence(self, cir_model):
        loose = caplet_fourier(cir_model, CapletSpec(3, 0.025), rel_tol=1e-7)
        tight = caplet_fourier(cir_model, CapletSpec(3, 0.025), rel_tol=5e-11)
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

    # Integrand calls of the bundled caplet of each config
    # (configs/*.cfg): one fused call per step plus the head's refinement
    # rounds and probe-only calls.
    @pytest.mark.parametrize("family, most", [("cir", 10), ("gamma_ou", 12),
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
        caplet_fourier(cfg.calibrate(), spec, rel_tol=cfg.rel_tol)
        assert 0 < len(calls) <= most

    # Integrand calls and nodes of the bundled surfaces (configs/*.cfg,
    # Fourier route): every cell is one component of one integral, whose
    # steps are one call each unless the call would return more than
    # quadrature._CALL_VALUES values.  Every expiry is a slot of one
    # transform call per integrand call; besides those, each expiry's
    # damping probe is one call and the tilts of all expiries one more.
    @pytest.mark.parametrize("family, calls_most, nodes_most", [
        ("cir", 20, 1155), ("gamma_ou", 32, 2184), ("cir_2f", 35, 2136)])
    def test_bundled_surface_integrand_calls(self, monkeypatch, family,
                                             calls_most, nodes_most):
        integrals, calls, transforms = [], [], []
        inner = pricing.semi_infinite_oscillatory

        def counted(f, **kwargs):
            integrals.append(1)

            def g(v):
                calls.append(v.size)
                return f(v)
            return inner(g, **kwargs)

        cfg = RunConfig.from_file(str(CONFIGS / f"{family}.cfg"),
                                  method="fourier")
        m = cfg.calibrate()
        monkeypatch.setattr(pricing, "semi_infinite_oscillatory", counted)
        monkeypatch.setattr(model, "phi_psi_batch", lambda *args: (
            transforms.append(1), affine_core.phi_psi_batch(*args))[1])
        cells = vol_surface(m, cfg.strikes, method="fourier",
                            rel_tol=cfg.rel_tol)
        assert all(c.error is None for c in cells)
        assert len(integrals) == 1
        assert 0 < len(calls) <= calls_most
        assert sum(calls) <= nodes_most
        assert len(transforms) <= len(calls) + (m.n_periods - 1) + 1

    @pytest.mark.parametrize("family", ["cir", "cir_2f"])
    def test_bundled_closed_surface_takes_one_tilt_call(self, monkeypatch,
                                                        family):
        tilts = []
        cfg = RunConfig.from_file(str(CONFIGS / f"{family}.cfg"),
                                  method="closed")
        m = cfg.calibrate()
        monkeypatch.setattr(pricing, "tilt_exponents", lambda *args: (
            tilts.append(1), tilt_exponents(*args))[1])
        cells = vol_surface(m, cfg.strikes, method="closed")
        assert all(c.error is None for c in cells)
        assert len(tilts) == 1

    @pytest.mark.parametrize("damping", [None, 989.3])
    def test_strongly_damped_contour_stays_in_control(self, tenor, damping):
        # An admissible driver whose strip reaches Re z = 1e6.  On the
        # contour at Re z = 989.3 the integral's imaginary part is 2000x
        # the real part the price needs, and its tail closes only past
        # V = 2e5; a tail frequency measured with a 0.1 rad phase step
        # left an error of 1e-2 there and raised QuadratureFailure.
        # damping None is the pricer's own choice of contour.
        m = fit_term_structure(tenor, CirParams(
            1.9233527301339097, 0.738550443734857, 0.5641655127700625,
            0.6984041672816674))
        closed = caplet_cir_closed(m, CapletSpec(1, 0.01)).price
        if damping is None:
            res = caplet_fourier(m, CapletSpec(1, 0.01))
            price, err = res.price, res.error_estimate
        else:
            price, err = contour_caplet(m, 1, 0.01, damping)
        assert price == pytest.approx(closed, rel=1e-6)
        assert err <= 1e-6 * price

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
        ode = caplet_fourier(model, CapletSpec(2, 0.05), rel_tol=1e-6)
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


class TestDampingStrip:
    """A fit at the edge of the moment domain leaves the Fourier contour
    too little room: the strip above 1 is a few ulps wide, where the pole
    at z = 1 cancels the price away under a small error estimate."""

    # Zero forward rates up to T_9, then one positive rate: u_1 .. u_9 are
    # equal, and theta puts them ``ulps`` below the domain supremum of a
    # square-root driver started at x0 = 1e-300.
    EDGE_CURVE = [0.98] * 9 + [0.97]

    @pytest.mark.parametrize("lam, theta, eta, ulps", [
        (1e-3, 0.022764618350893055, 0.2, 2),
        (0.1, 0.00022764618350893054, 0.2, 2),
        # these two priced with damping 1 + 2e-16 and 1 + 2e-14, 0.8% and
        # 0.009% from the closed form, under an error estimate of 4e-8
        (0.1, 0.0005122039128950935, 0.3, 2),
        (0.1, 0.00026500659326639763, 0.2, 256)])
    def test_edge_of_domain_fit_has_no_damping(self, lam, theta, eta, ulps):
        tenor = TenorStructure.from_curve(0.5 * np.arange(1, 11),
                                          self.EDGE_CURVE)
        m = fit_term_structure(tenor, CirParams(lam, theta, eta, 1e-300))
        sup = m.process.domain_sup(m.horizon)[0]
        assert sup - m.u(9)[0] == ulps * np.spacing(sup)
        with pytest.raises(DampingOutOfStrip,
                           match=r"strip \(1, 1\.0000000000000\d+\) leaves "
                                 r"no damping 1e-12 from both ends"):
            caplet_fourier(m, CapletSpec(9, 0.01))
        assert [c.error for c in vol_surface(m, [0.01, 0.02])][-2:] == \
            ["DampingOutOfStrip"] * 2
        # the caplet itself exists: the closed form prices it
        assert caplet_closed(m, CapletSpec(9, 0.01)).price > 0.0

    def test_zero_rate_periods_price_by_fourier(self):
        # The forward rates of periods 1 .. 8 are zero, so u_k = u_{k+1}
        # and the forward-price MGF's tilt is that one value for every v.
        # Blended as v psi_k + (1 - v) psi_{k+1}, it rounded above the
        # domain's supremum and these caplets raised DomainViolation
        # ("Re(u)=11.39120360725883 not inside domain sup
        # 11.391203607258827"); the closed form prices them at 0.
        tenor = TenorStructure.from_curve(0.5 * np.arange(1, 11),
                                          self.EDGE_CURVE)
        m = fit_term_structure(tenor, CirParams(0.1, 0.0005122039128950935,
                                                0.3, 1e-300))
        for k in range(1, 9):
            res = caplet_fourier(m, CapletSpec(k, 0.01))
            assert res.price == caplet_closed(m, CapletSpec(k, 0.01)).price \
                == 0.0
            assert res.error_estimate <= 2e-13
        # the last expiry's strip is still too narrow, and fails alone:
        # every other cell of the surface is priced
        cells = vol_surface(m, [0.01, 0.02])
        assert [c.error for c in cells] == [None] * 16 \
            + ["DampingOutOfStrip"] * 2
        assert all(c.price == 0.0 and c.implied_vol == 0.0
                   for c in cells[:16])


def direct_integrands(m, t, phi, psi, log_bold):
    """K'^{-z} E[(e^Z)^z] / (z (z - 1)) cell by cell, on the contours
    z = R - iv as ``pricing._integrands`` takes them, in the order of
    operations of the direct form that the factored one replaced; and
    1 + |log E[(e^Z)^z]| + |z| max |log K'|, the size of the exponent
    whose rounding bounds both forms' relative error in units of eps."""
    log_mgf = forward_log_mgf(m, t, phi, psi)

    def integrands(v, dampings):
        z = dampings - 1j * v
        exponent = log_mgf(z)
        out = np.multiply.outer(z, -log_bold.astype(complex))
        out += exponent[..., None]
        np.exp(out, out=out)
        scale = 1.0 + np.abs(exponent) + np.abs(z) * np.abs(log_bold).max()
        return (np.divide(out, (z * (z - 1.0))[..., None], out=out),
                scale[..., None])

    return integrands


# Nodes spanning the head and the doubled segments of a contour integral.
NODES = np.concatenate([[0.0], np.geomspace(1e-3, 3e4, 40)])


def surface_contours(m, log_bold):
    """(t, phi, psi, dampings) of every expiry whose contour exists, one
    entry per expiry, as ``pricing._fourier_cells`` stacks them."""
    contours = pricing._contours(m, list(range(1, m.n_periods)), log_bold)
    return [np.array(x) for x in zip(*(c for c in contours.values()
                                         if isinstance(c, tuple)))]


def listed_factor_laws(factors, x0, t, thetas):
    """``pricing._factor_laws`` as it was written before it evaluated
    a(t) and b(t) once per factor over all times: one list entry per
    time and factor."""
    times = [t] * len(thetas) if np.ndim(t) == 0 else t
    eb = np.array([[f.eta ** 2 * f.b(s) for f in factors] for s in times])
    nu = np.array([f.lam * f.theta / f.eta ** 2 for f in factors])
    alpha = np.array([[x * f.a(s) for f, x in zip(factors, x0)]
                      for s in times]) / eb
    zeta = 1.0 - 2.0 * eb * thetas
    return eb / zeta, nu, alpha / zeta


class TestFactorLaws:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(params=st.lists(st.tuples(*(DRIVER_ARGS[key] for key in
                                        ("a", "b", "c", "x0"))),
                           min_size=1, max_size=2),
           times=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6),
           one_time=st.booleans(), tilt=st.floats(-2.0, 0.0))
    def test_bit_for_bit_the_listed_form(self, params, times, one_time,
                                         tilt):
        factors = [CirParams(lam, theta, eta, x) for lam, theta, eta, x
                   in params]
        x0 = np.array([p[3] for p in params])
        thetas = np.full((len(times), len(factors)), tilt)
        t = times[0] if one_time else np.array(times)
        with np.errstate(divide="ignore", invalid="ignore"):  # t = 0
            pairs = zip(pricing._factor_laws(factors, x0, t, thetas),
                        listed_factor_laws(factors, x0, t, thetas))
        for got, want in pairs:
            assert np.array_equal(got, want, equal_nan=True)


class TestFactoredIntegrand:
    """The strike enters the caplet integrand only through K'^{-z}, which
    ``pricing._integrands`` factors against a reference strike."""

    @staticmethod
    def assert_close(factored, direct, scale):
        # a few eps of the exponent's size, wherever the direct form is a
        # normal nonzero double
        live = np.isfinite(direct) & (np.abs(direct) > 1e-290)
        assert np.isfinite(factored[live]).all()
        gap = np.abs(factored - direct)[live]
        assert (gap <= 8.0 * np.finfo(float).eps
                * np.broadcast_to(scale, direct.shape)[live]
                * np.abs(direct[live])).all()

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(**DRIVER_ARGS)
    def test_matches_the_direct_form(self, tenor, family, a, b, c, x0,
                                     second):
        m = fit_term_structure(tenor, admissible_driver(family, a, b, c, x0,
                                                        second))
        for grid in (CIR_GRID, GOU_GRID):
            log_bold = np.log(1.0 + m.delta * grid)
            t, phi, psi, dampings = surface_contours(m, log_bold)
            args = (m, t, phi, psi, log_bold)
            with np.errstate(over="ignore", invalid="ignore"):
                # the surface: a column per expiry
                self.assert_close(
                    pricing._integrands(*args)(NODES[:, None], dampings),
                    *direct_integrands(*args)(NODES[:, None], dampings))
                # the damping probe of one expiry: v = 0, a lane per
                # candidate
                one = (m, t[0], phi[0], psi[0], log_bold)
                candidates = 1.0 + (dampings[0] - 1.0) * np.array(
                    [0.1, 0.25, 0.5, 1.0])  # inside the strip
                self.assert_close(
                    pricing._integrands(*one)(0.0, candidates),
                    *direct_integrands(*one)(0.0, candidates))
                # a lone expiry's surface row: one damping, no expiry axis
                self.assert_close(
                    pricing._integrands(*one)(NODES, dampings[0]),
                    *direct_integrands(*one)(NODES, dampings[0]))

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(**DRIVER_ARGS, strike=st.floats(0.0, 0.1))
    def test_one_strike_is_the_direct_form_bit_for_bit(
            self, tenor, family, a, b, c, x0, second, strike):
        # a single caplet's strike is its own reference: no quote moves
        m = fit_term_structure(tenor, admissible_driver(family, a, b, c, x0,
                                                        second))
        log_bold = np.log(1.0 + m.delta * np.array([strike]))
        t, phi, psi, dampings = surface_contours(m, log_bold)
        one = (m, t[0], phi[0], psi[0], log_bold)
        candidates = 1.0 + (dampings[0] - 1.0) * np.array([0.25, 0.5, 1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            for factored, direct in [
                    (pricing._integrands(*one)(NODES, dampings[0]),
                     direct_integrands(*one)(NODES, dampings[0])[0]),
                    (pricing._integrands(*one)(0.0, candidates),
                     direct_integrands(*one)(0.0, candidates)[0]),
                    (pricing._integrands(m, t, phi, psi, log_bold)(
                        NODES[:, None], dampings),
                     direct_integrands(m, t, phi, psi, log_bold)(
                        NODES[:, None], dampings)[0])]:
                assert np.array_equal(factored, direct, equal_nan=True)

    @pytest.mark.parametrize("driver", [
        CirParams(0.001, 0.5, 1e-3, 1.25), CirParams(0.001, 0.5, 1e-5, 1.25),
        CirParams(50.0, 0.5, 0.59, 1.25), GammaOuParams(0.01, 2.0, 0.01, 1.25),
        CirParams(0.001, 0.5, 0.59, 1.25),
        GammaOuParams(0.01, 2.0, 1.0, 1.25)])
    def test_dampings_are_the_direct_forms(self, tenor, monkeypatch, driver):
        # each expiry's damping minimises the worst |integrand(0)| over its
        # strikes; the factored integrand must pick what the direct one did
        m = fit_term_structure(tenor, driver)
        ks = list(range(1, m.n_periods))
        for grid in (CIR_GRID, GOU_GRID, [0.0, 0.2]):
            log_bold = np.log(1.0 + m.delta * np.asarray(grid))
            factored = pricing._contours(m, ks, log_bold)
            with monkeypatch.context() as patch:
                patch.setattr(pricing, "_integrands", lambda *args: (
                    lambda v, r: direct_integrands(*args)(v, r)[0]))
                direct = pricing._contours(m, ks, log_bold)
            assert [c[3] for c in factored.values()] == \
                [c[3] for c in direct.values()]


class TestFloorlet:
    def test_parity_across_grid(self, cir_model, gou_model):
        for model, strikes in ((cir_model, (0.01, 0.03, 0.06)),
                               (gou_model, (0.03, 0.05))):
            for k in (1, 5, 9):
                for strike in strikes:
                    assert put_contour_gap(model, k, strike) <= 1e-8

    def test_zero_strike_floorlet_worthless(self, cir_model):
        res = floorlet_fourier(cir_model, CapletSpec(4, 0.0))
        assert res.price == pytest.approx(0.0, abs=1e-10)

    def test_closed_form_counterpart(self, cir_model):
        spec = CapletSpec(2, 0.03)
        closed = floorlet_cir_closed(cir_model, spec)
        put, _ = contour_caplet(cir_model, 2, 0.03, PUT_DAMPING)
        assert put == pytest.approx(closed.price, rel=1e-6, abs=1e-12)


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

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(**{key: DRIVER_ARGS[key] for key in ("a", "b", "c", "x0")})
    def test_single_caplets_are_one_batch_of_two_laws(self, tenor, a, b, c,
                                                      x0):
        # A single closed caplet takes its two tails, one per adjacent
        # forward measure, from one batched series pass: bit for bit the
        # batch below.  Batching moves bits only inside the series' 1e-13
        # per tail, so each price lies within 1e-13 (B_k + K' B_{k+1}) of
        # the same caplet priced from two one-law series calls.
        m = fit_term_structure(tenor, CirParams(a, b, c, x0))
        bonds = m.tenor.discounts
        for k in range(1, m.n_periods):
            ks = np.array([k])
            dates = m.tenor.dates[ks]
            phi, psi = tilt_exponents(m, dates, [ks, ks + 1])
            sigma, nu, alpha = pricing._factor_laws(
                (m.process,), m.x0, dates.repeat(2), psi[:, 0])
            sigma *= (psi[0] - psi[1]).repeat(2, axis=0)
            for strike in CIR_GRID:
                bold = np.array([1.0 + m.delta * strike])
                y = (np.log(bold) - (phi[0] - phi[1])[:, None]).repeat(
                    2, axis=0)
                batch = ncchi2_sf(y / sigma, np.broadcast_to(nu, sigma.shape),
                                  alpha)[:, 0]
                alone = [ncchi2_sf(y_l / s_l, float(nu[0]), float(a_l))
                         for y_l, s_l, a_l in zip(y[:, 0], sigma[:, 0],
                                                  alpha[:, 0])]
                price, ref = (max(bonds[k - 1] * t[0]
                                  - bold[0] * bonds[k] * t[1], 0.0)
                              for t in (batch, alone))
                res = caplet_closed(m, CapletSpec(k, strike))
                assert res.price == price
                assert abs(price - ref) <= 1e-13 * (bonds[k - 1]
                                                    + bold[0] * bonds[k])

    @pytest.mark.parametrize("k, strike, price", [
        (1, 0.03, 0.007356949675861535), (2, 0.05, 0.007374167862653658),
        (5, 0.03, 0.01538178137028895), (9, 0.06, 0.01480617332943951)])
    def test_prices_of_per_law_series_calls(self, cir_model, k, strike,
                                            price):
        # Prices recorded when a single caplet made one series call per
        # law: the batched tails may move them by 1e-13 per tail only.
        bonds = cir_model.tenor.discounts
        bold = 1.0 + cir_model.delta * strike
        got = caplet_closed(cir_model, CapletSpec(k, strike)).price
        assert abs(got - price) <= 1e-13 * (bonds[k - 1] + bold * bonds[k])

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
            pricing, "tilt_exponents",
            lambda m, t, ks: (np.array([0.0, 0.0, a_flat]),
                              np.array([[0.0], [-1.0], [0.0]])))
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
                phi, psi = tilt_exponents(m, m.tenor.date(start),
                                          range(start, end + 1))
                a, b, coup = phi[1:] - phi[0], psi[1:, 0] - psi[0, 0], \
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

    def test_root_reported(self, cir_model):
        res = swaption_fourier(cir_model, SwaptionSpec(2, 6, 0.03))
        assert res.root == pytest.approx(
            swaption_root(cir_model, SwaptionSpec(2, 6, 0.03)), rel=1e-12)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(**{key: DRIVER_ARGS[key] for key in ("a", "b", "c", "x0")},
           start=st.integers(1, 9), length=st.integers(1, 9),
           strike=st.floats(0.0, 0.08))
    def test_closed_tails_are_the_per_measure_series(self, tenor, a, b, c,
                                                     x0, start, length,
                                                     strike):
        # The closed swaption takes its tails from the caplet rows' mixture
        # survival function with b = 1 and y = Y.  They must be, bit for
        # bit, one batched non-central chi-square series over the factor's
        # tilted laws at Y / sigma_k, one law per forward measure, and
        # each within the series' 1e-13 of its law's own series.
        m = fit_term_structure(tenor, CirParams(a, b, c, x0))
        spec = SwaptionSpec(start, min(start + length, m.n_periods), strike)
        t_ex, psi, _, _, coup, root = pricing._exercise(m, spec)
        sigma, nu, alpha = pricing._factor_laws((m.process,), m.x0, t_ex,
                                                psi[:, None])
        tails = ncchi2_sf(root / sigma, np.broadcast_to(nu, sigma.shape),
                          alpha)[:, 0].tolist()
        for tail, s_k, a_k in zip(tails, sigma[:, 0], alpha[:, 0]):
            assert abs(tail - ncchi2_sf(root / s_k, float(nu[0]),
                                        float(a_k))) <= 1e-13
        price = m.bond0(spec.start_index) * tails[0]
        for pos, k in enumerate(range(spec.start_index + 1,
                                      spec.end_index + 1)):
            price -= coup[pos] * m.bond0(k) * tails[pos + 1]
        res = swaption_cir_closed(m, spec)
        assert (res.price, res.root) == (max(price, 0.0), root)

    @pytest.mark.parametrize("start, end, price", [
        (2, 6, 0.04338443003267167), (1, 10, 0.08174215419776049)])
    def test_prices_of_per_measure_series_calls(self, cir_model, start, end,
                                                price):
        # Prices recorded when the closed swaption made one series call per
        # forward measure: the batched tails may move them by 1e-13 per
        # tail, weighted by its bond and coupon.
        strike = 0.035
        coupons = np.full(end - start, cir_model.delta * strike)
        coupons[-1] += 1.0
        weight = cir_model.bond0(start) + sum(
            c * cir_model.bond0(k) for c, k in zip(coupons,
                                                   range(start + 1, end + 1)))
        got = swaption_cir_closed(cir_model,
                                  SwaptionSpec(start, end, strike)).price
        assert abs(got - price) <= 1e-13 * weight

    @pytest.mark.parametrize("driver", ["gou", "cir_2f", "theta_zero"])
    def test_driver_errors_come_before_the_exercise_root(
            self, tenor, gou_model, cir2f_model, driver):
        # the end index lies past T_N = T_10, which the exercise root
        # would report as InvalidParameter; the family, the factor count
        # and the degrees of freedom are checked first
        m, message = {
            "gou": (gou_model, "no closed-form caplet for GammaOuParams"),
            "cir_2f": (cir2f_model, "closed form needs 1 square-root "
                                    "factor(s), got 2"),
            "theta_zero": (fit_term_structure(
                tenor, CirParams(0.5, 0.0, 0.25, 1.25)),
                "factor 0 needs eta > 0 and lam * theta > 0")}[driver]
        with pytest.raises(ModelMismatch, match=re.escape(message)):
            swaption_cir_closed(m, SwaptionSpec(3, 12, 0.03))

    def test_underflowing_dof_fails_as_the_caplet_does(self, tenor):
        # lam * theta > 0, yet nu = lam theta / eta^2 underflows to 0: the
        # swaption's tails and the caplet's come from one law record, so
        # both report its error
        m = fit_term_structure(tenor, CirParams(0.001, 1e-320, 3.0, 1.25))
        with pytest.raises(InvalidParameter) as caplet:
            caplet_cir_closed(m, CapletSpec(2, 0.03))
        with pytest.raises(InvalidParameter) as swaption:
            swaption_cir_closed(m, SwaptionSpec(2, 6, 0.03))
        assert str(caplet.value) == str(swaption.value) == \
            "need nu > 0 and alpha >= 0 per component"


def black_price(fwd, strike, expiry, vol, annuity):
    """Black's futures formula for a caplet on Python floats and the math
    module, in the library's order of operations; intrinsic at vol 0."""
    if vol <= 0.0:
        return annuity * max(fwd - strike, 0.0)

    def norm_cdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    total = vol * math.sqrt(expiry)
    d1 = (math.log(fwd / strike) + 0.5 * total * total) / total
    return annuity * (fwd * norm_cdf(d1) - strike * norm_cdf(d1 - total))


def scalar_implied_vol(price, fwd, strike, expiry, annuity):
    """Reference: the scalar safeguarded Newton loop that the lanes
    replaced, on Python floats and the math module."""
    def value(v):
        return black_price(fwd, strike, expiry, v, annuity)

    lo, hi = 0.0, 1.0
    while value(hi) < price:
        lo, hi = hi, 2.0 * hi
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
        d1 = (math.log(fwd / strike) + 0.5 * total * total) / total
        vega = annuity * fwd * sqrt_t * \
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
    raise AssertionError("reference did not settle")


class TestBlack76:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(lanes=st.lists(st.tuples(
        st.floats(0.001, 0.1), st.floats(0.001, 0.1), st.floats(0.05, 10.0),
        st.floats(0.01, 3.0), st.floats(0.1, 1.0)), min_size=1, max_size=40))
    def test_lanes_are_the_scalar_loop(self, lanes):
        # the arithmetic is the scalar loop's, so every lane's vol is its
        # result bit for bit, whatever lanes share the inversion
        self.assert_lanes_are_the_scalar_loop(lanes)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(lanes=st.lists(st.tuples(
        st.floats(0.001, 0.1), st.floats(0.001, 0.1), st.floats(0.05, 10.0),
        st.floats(0.01, 3.0), st.floats(0.1, 1.0)), min_size=30,
        max_size=50))
    def test_many_lanes_are_the_scalar_loop(self, lanes):
        # a large batch takes each lane's own steps, as a small one does;
        # eight copies of the drawn lanes at vols 1% apart make 240-400
        self.assert_lanes_are_the_scalar_loop([
            (f, k, t, v * (1.0 + 0.01 * j), a)
            for j in range(8) for f, k, t, v, a in lanes])

    @pytest.mark.parametrize("count", [1, 256])
    def test_bracket_failure_in_small_and_large_batches(self, count):
        # a price just above annuity * forward but inside the bounds'
        # slack: Black's value never reaches it, however far the bracket
        # doubles
        good_lane = [0.006, 0.04, 0.03, 2.0, 0.48]
        lanes = np.tile([good_lane], (count, 1))
        lanes[count // 2, 0] = 0.48 * 0.04 + 5e-11
        vols, errors = pricing._implied_vols(*lanes.T.copy())
        assert list(errors) == [count // 2]
        assert str(errors[count // 2]) == \
            "implied vol bracket expansion failed"
        assert np.isnan(vols[count // 2])
        good = np.delete(vols, count // 2)
        assert (good == black76_implied_vol(*good_lane)).all()

    @staticmethod
    def assert_lanes_are_the_scalar_loop(lanes):
        fwd, strike, expiry, vol, annuity = np.array(lanes).T.copy()
        price = np.array([black_price(*map(float, args)) for args in
                          zip(fwd, strike, expiry, vol, annuity)])
        intrinsic = annuity * np.maximum(fwd - strike, 0.0)
        keep = price > intrinsic + 1e-12
        vols, errors = pricing._implied_vols(
            price[keep], fwd[keep], strike[keep], expiry[keep],
            annuity[keep])
        assert not errors
        for got, args in zip(vols, zip(price[keep], fwd[keep], strike[keep],
                                       expiry[keep], annuity[keep])):
            assert got == scalar_implied_vol(*map(float, args))

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
            price = black_price(fwd, strike, expiry, vol, annuity)
            if price <= annuity * max(fwd - strike, 0.0) + 1e-13:
                continue  # numerically indistinguishable from intrinsic
            implied = black76_implied_vol(price, fwd, strike, expiry, annuity)
            back = black_price(fwd, strike, expiry, implied, annuity)
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
        price = black_price(fwd, strike, expiry, vol, annuity)
        implied = black76_implied_vol(price, fwd, strike, expiry, annuity)
        back = black_price(fwd, strike, expiry, implied, annuity)
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

    @staticmethod
    def assert_cells_match_expiries_alone(m, strikes, rel_tol=1e-9):
        """Each Fourier surface cell against its expiry priced alone (the
        same integral over that expiry's cells only), within the sum of
        the two error estimates."""
        strikes = np.sort(np.asarray(strikes, dtype=float))
        cells = vol_surface(m, strikes, method="fourier", rel_tol=rel_tol)
        bold = 1.0 + m.delta * strikes
        for k in range(1, m.n_periods):
            contour = pricing._contours(m, [k], np.log(bold))[k]
            prices, errs = pricing._fourier_cells(m, [contour], bold, rel_tol)
            row = cells[(k - 1) * strikes.size:k * strikes.size]
            for cell, price, err in zip(row, prices[0], errs[0]):
                assert cell.error is None
                assert abs(cell.price - max(price, 0.0)) <= \
                    cell.error_estimate + err

    @pytest.mark.parametrize("family", ["cir", "gamma_ou", "cir_2f"])
    def test_bundled_cells_match_their_expiry_alone(self, family):
        cfg = RunConfig.from_file(str(CONFIGS / f"{family}.cfg"),
                                  method="fourier")
        self.assert_cells_match_expiries_alone(cfg.calibrate(), cfg.strikes,
                                               cfg.rel_tol)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(**DRIVER_ARGS)
    def test_cells_match_their_expiry_alone(self, tenor, family, a, b, c, x0,
                                            second):
        m = fit_term_structure(tenor, admissible_driver(family, a, b, c, x0,
                                                        second))
        self.assert_cells_match_expiries_alone(m, CIR_GRID)

    @pytest.mark.parametrize("fault", ["raises", "nan"])
    def test_a_failing_expiry_fails_alone(self, fault):
        # the whole surface is one batch; should it raise, or leave a cell
        # without a finite price, each expiry is priced alone
        def price(group):
            out = np.ones((len(group), 2))
            if 3 in group and fault == "raises":
                raise DampingOutOfStrip("expiry 3")
            if 3 in group and len(group) > 1:
                out[group.index(3), 0] = math.nan
            return out, np.zeros((len(group), 2))

        rows = pricing._by_expiry(price, [1, 2, 3, 4])
        if fault == "raises":
            assert isinstance(rows.pop(3), DampingOutOfStrip)
        assert {k: r[0].tolist() for k, r in rows.items()} == \
            dict.fromkeys(rows, [1.0, 1.0])

    @pytest.mark.parametrize("method", ["fourier", "closed"])
    def test_lane_vols_are_the_one_lane_inversion(self, cir_model, gou_model,
                                                  cir2f_model, method):
        models = [(cir_model, CIR_GRID), (cir2f_model, CIR_GRID)]
        if method == "fourier":
            models.append((gou_model, GOU_GRID))
        for model, grid in models:
            inverted = 0
            for c in vol_surface(model, grid, method=method):
                k = round(c.expiry / model.delta)
                fwd = model.tenor.initial_libor(k)
                annuity = model.delta * model.bond0(k + 1)
                intrinsic = annuity * max(fwd - c.strike, 0.0)
                if c.price <= intrinsic + max(3.0 * c.error_estimate, 1e-12):
                    assert c.implied_vol == 0.0  # snapped, not inverted
                    continue
                inverted += 1
                assert c.implied_vol == black76_implied_vol(
                    c.price, fwd, c.strike, c.expiry, annuity)
            assert inverted

    def test_wide_surface_vols_are_the_scalar_loop(self, cir_model):
        # 279 lanes share one inversion call; each is the reference loop's
        # vol bit for bit
        cells = vol_surface(cir_model, WIDE_GRID, method="closed")
        assert len(cells) == 279
        for c in cells:
            k = round(c.expiry / cir_model.delta)
            fwd = cir_model.tenor.initial_libor(k)
            annuity = cir_model.delta * cir_model.bond0(k + 1)
            assert c.error is None and c.implied_vol > 0.0
            assert c.implied_vol == scalar_implied_vol(
                c.price, fwd, c.strike, c.expiry, annuity)

    def test_lanes_fail_alone_as_the_one_lane_case_does(self):
        # price, forward, strike, expiry, annuity per lane: a good lane,
        # a price above its bound, one below intrinsic, a zero expiry with
        # time value, a zero annuity, an intrinsic price, a tiny vega
        lanes = np.array([
            [0.006, 0.04, 0.03, 2.0, 0.48],
            [0.5, 0.04, 0.03, 2.0, 0.48],
            [0.001, 0.04, 0.01, 2.0, 0.48],
            [0.01, 0.04, 0.03, 0.0, 0.48],
            [0.001, 0.04, 0.05, 2.0, 0.0],
            [0.0048, 0.04, 0.03, 2.0, 0.48],
            [1e-9, 0.04, 0.09, 0.5, 0.48],
            [0.02, 0.05, 0.045, 9.0, 0.45]])
        vols, errors = pricing._implied_vols(*lanes.T.copy())
        for i, lane in enumerate(lanes):
            try:
                alone = black76_implied_vol(*lane)
            except AffineLiborError as exc:
                assert type(errors[i]) is type(exc)
                assert str(errors[i]) == str(exc)
                assert math.isnan(vols[i])
            else:
                assert i not in errors
                assert vols[i] == alone
        assert sorted(errors) == [1, 2, 3, 4]
        # the checks come in the scalar code's order: the zero annuity's
        # price is also above its bound, and the zero expiry's above
        # intrinsic
        assert str(errors[4]) == "need positive annuity, forward and strike"
        assert str(errors[3]) == "positive time value at zero expiry"

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

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(**{key: DRIVER_ARGS[key] for key in ("a", "b", "c", "x0")})
    def test_fourier_certificate_covers_the_closed_gap(self, tenor, a, b, c,
                                                       x0):
        # The Fourier error estimate certifies the quadrature only.  The
        # closed form is exact to 1e-13 in each of its two O(1) bond
        # terms, and both routes price off the fitted u-sequence, whose
        # martingale values miss the curve by the residual r; a 2e-13 gap
        # of that origin does not shrink as rel_tol falls.
        m = fit_term_structure(tenor, CirParams(a, b, c, x0))
        strikes = 0.005 * np.arange(1, 17)
        fourier = vol_surface(m, strikes, method="fourier")
        closed = vol_surface(m, strikes, method="closed")
        r, bond_n = m.residuals, m.bond0(m.n_periods)
        for f, cl in zip(fourier, closed):
            assert f.error is None and cl.error is None
            k = round(f.expiry / m.delta)
            bold = 1.0 + m.delta * f.strike
            bound = f.error_estimate \
                + 1e-13 * (m.bond0(k) + bold * m.bond0(k + 1)) \
                + bond_n * (r[k - 1] + bold * r[k])
            assert abs(f.price - cl.price) <= bound

    @pytest.mark.parametrize("family, method", [
        ("cir", "fourier"), ("cir", "closed"), ("gamma_ou", "fourier"),
        ("cir_2f", "fourier")], ids=["fourier", "closed", "gamma_ou-fourier",
                                     "cir_2f-fourier"])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(**{key: DRIVER_ARGS[key]
              for key in ("a", "b", "c", "x0", "second")})
    def test_prices_fall_and_are_convex_in_the_strike(self, tenor, family,
                                                       method, a, b, c, x0,
                                                       second):
        m = fit_term_structure(tenor, admissible_driver(family, a, b, c, x0,
                                                        second))
        assert_falls_and_is_convex(vol_surface(m, WIDE_GRID, method=method))

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "semi_infinite_oscillatory can settle a component on two tail "
        "closures that err together (ROADMAP item 12)"))
    def test_wrong_tail_closure_breaks_convexity(self, tenor):
        # Cell (k = 6, K = 3.75%) settles on a wrong tail: 8.3e-12 below
        # the closed price with an error estimate of 1.6e-12, so its row's
        # second difference falls below the slack.  Mending the settling
        # rule makes this pass, and strict xfail then reports it.
        m = fit_term_structure(tenor, CirParams(1.3359375, 0.5, 0.05, 0.5))
        assert_falls_and_is_convex(vol_surface(m, WIDE_GRID,
                                               method="fourier"))

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
        # the floorlet comes from its caplet by parity on the model's own
        # bonds, which match the curve only to the fit residual (up to
        # ~5e-13 here); the put contour prices it independently
        strike = float(CIR_GRID[pick])
        for k in range(1, m.n_periods):
            floor = floorlet_fourier(m, CapletSpec(k, strike))
            put, put_err = contour_caplet(m, k, strike, PUT_DAMPING)
            assert abs(floor.price - put) <= 3.0 * (
                floor.error_estimate + put_err) + 1e-13
