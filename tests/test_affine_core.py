import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from affine_libor.affine_core import (RiccatiRhs, TransformPair,
                                      check_semiflow, phi_psi_batch,
                                      riccati_solve, transform)
from affine_libor.errors import (BlowUp, DomainViolation, HorizonViolation,
                                 InvalidParameter, StepUnderflow)
from affine_libor.processes import (CirParams, GammaOuParams,
                                    RiccatiProcess, two_factor_cir)
from test_model import DRIVER_ARGS, admissible_driver, bounded_subordinator


def scipy_riccati_oracle(rhs, t, u, dim=1):
    """Independent integrator (scipy RK45) for the same Riccati system."""

    def fun(_, y):
        psi = y[1:].reshape(1, dim)
        return np.concatenate([[np.asarray(rhs.F(psi)).reshape(())],
                               np.asarray(rhs.R(psi)).reshape(dim)])

    sol = solve_ivp(fun, [0.0, t], np.concatenate([[0.0], np.atleast_1d(u)]),
                    rtol=1e-12, atol=1e-14)
    return sol.y[0, -1], sol.y[1:, -1]


class TestTransform:
    def test_t_zero_returns_identity(self, cir_process, gou_process):
        for proc in (cir_process, gou_process):
            pair = transform(proc, 0.0, 0.37)
            assert pair.phi == 0.0
            assert pair.psi[0] == 0.37

    def test_u_zero_maps_to_zero(self, cir_process, gou_process):
        for proc in (cir_process, gou_process):
            for t in (0.1, 1.0, 4.6):
                pair = transform(proc, t, 0.0)
                assert pair.phi == 0.0
                assert pair.psi[0] == 0.0

    def test_cir_spec_point_matches_ode_oracle(self, cir_process):
        # scipy RK45 oracle values for t=0.5, u=0.3 (frozen from a
        # rtol=1e-12 run).
        pair = transform(cir_process, 0.5, 0.3)
        assert pair.phi == pytest.approx(7.919114146311631e-05, abs=1e-8)
        assert pair.psi[0] == pytest.approx(0.33480498233451744, abs=1e-8)

    def test_domain_violation(self, cir_process):
        sup = cir_process.domain_sup(1.0)[0]
        with pytest.raises(DomainViolation):
            transform(cir_process, 1.0, sup * 1.0001)

    def test_horizon_violation(self, cir_process):
        with pytest.raises(HorizonViolation):
            transform(cir_process, -0.1, 0.1)
        with pytest.raises(HorizonViolation):
            transform(cir_process, 6.0, 0.1, horizon=5.0)

    def test_exponent_helper(self, cir_process):
        pair = transform(cir_process, 1.0, 0.1)
        assert pair.exponent([2.0]) == pytest.approx(
            pair.phi + 2.0 * pair.psi[0])


# dpsi/dt = psi^2: psi_t(u) = u / (1 - u t) explodes at t = 1/u
SQUARE = RiccatiRhs(lambda u: 0.0 * u[..., 0], lambda u: u * u, dim=1)


class TestRiccatiSolve:
    def test_cir_matches_closed_form(self, cir_process):
        closed = transform(cir_process, 1.0, 0.1)
        ode = riccati_solve(cir_process.riccati_rhs(), 1.0, 0.1, tol=1e-10,
                            domain_sup=cir_process.domain_sup)
        assert abs(ode.phi - closed.phi) < 1e-8
        assert abs(ode.psi[0] - closed.psi[0]) < 1e-8

    def test_gamma_ou_matches_closed_form(self, gou_process):
        closed = transform(gou_process, 2.0, 0.5)
        ode = riccati_solve(gou_process.riccati_rhs(), 2.0, 0.5, tol=1e-10)
        assert abs(ode.phi - closed.phi) < 1e-8
        assert abs(ode.psi[0] - closed.psi[0]) < 1e-8
        # frozen scipy RK45 oracle for the same point
        assert ode.phi == pytest.approx(0.006578754691519726, abs=1e-9)
        assert ode.psi[0] == pytest.approx(0.49009933665337785, abs=1e-9)

    def test_t_zero(self, cir_process):
        pair = riccati_solve(cir_process.riccati_rhs(), 0.0, 0.25)
        assert pair.phi == 0.0 and pair.psi[0] == 0.25

    def test_matches_scipy_on_grid(self, cir_process, gou_process):
        for proc in (cir_process, gou_process):
            rhs = proc.riccati_rhs()
            for t in (0.25, 1.5, 4.0):
                for u in (0.05, 0.2):
                    mine = riccati_solve(rhs, t, u, tol=1e-12)
                    phi, psi = scipy_riccati_oracle(rhs, t, u)
                    assert abs(mine.phi - phi) < 1e-9
                    assert abs(mine.psi[0] - psi[0]) < 1e-9

    def test_complex_argument(self, cir_process):
        u = np.array([0.1 + 0.4j])
        closed = transform(cir_process, 1.5, u)
        ode = riccati_solve(cir_process.riccati_rhs(), 1.5, u, tol=1e-12)
        assert abs(ode.phi - closed.phi) < 1e-8
        assert abs(ode.psi[0] - closed.psi[0]) < 1e-8

    def test_blow_up_outside_domain(self, cir_process):
        sup5 = cir_process.domain_sup(5.0)[0]
        # inside the horizon-1 domain but outside the horizon-5 domain
        with pytest.raises(BlowUp):
            riccati_solve(cir_process.riccati_rhs(), 5.0, sup5 * 1.05,
                          domain_sup=cir_process.domain_sup)

    def test_blow_up_without_bound_via_growth_guard(self):
        with pytest.raises(BlowUp):
            riccati_solve(SQUARE, 3.0, 1.0)  # dpsi/dt = psi^2 explodes at t=1

    def test_invalid_tol(self, cir_process):
        with pytest.raises(InvalidParameter):
            riccati_solve(cir_process.riccati_rhs(), 1.0, 0.1, tol=0.0)

    def test_step_underflow_on_a_nan_field(self):
        # The field vanishes at 0, as RiccatiRhs requires, and is NaN
        # elsewhere: every error estimate is NaN, so each rejected step
        # shrinks fivefold until it falls below the floor.
        nan_away = RiccatiRhs(
            lambda u: np.where(u[..., 0] == 0.0, 0.0, np.nan),
            lambda u: np.where(u == 0.0, 0.0, np.nan), dim=1)
        with pytest.raises(StepUnderflow, match="below floor"):
            riccati_solve(nan_away, 1.0, 0.1)


class TestBatch:
    """``riccati_solve`` over many lanes; the checks of ``phi_psi_batch``."""

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(**DRIVER_ARGS, t=st.floats(0.05, 5.0),
           lanes=st.lists(st.tuples(st.floats(-1.0, 0.8),
                                    st.floats(-30.0, 30.0)),
                          min_size=1, max_size=4))
    def test_lanes_match_closed_form_and_own_solve(self, family, a, b, c,
                                                   x0, second, t, lanes):
        proc = admissible_driver(family, a, b, c, x0, second)
        sup = proc.domain_sup(t)
        # lane i takes Re u = frac * sup in every factor, Im u rolled
        re = np.array([frac for frac, _ in lanes])[:, None] * sup
        im = np.array([[lanes[(i + j) % len(lanes)][1]
                        for j in range(proc.dim)]
                       for i in range(len(lanes))])
        u = re + 1j * im
        rhs = proc.riccati_rhs()
        phi, psi = riccati_solve(rhs, t, u, domain_sup=proc.domain_sup)
        assert phi.shape == (len(lanes),) and psi.shape == u.shape
        ref_phi, ref_psi = proc.phi_psi(t, u)
        for i in range(len(lanes)):
            # each lane keeps its own step: the batch changes no bit
            alone = riccati_solve(rhs, t, u[i], domain_sup=proc.domain_sup)
            assert phi[i] == alone.phi and np.array_equal(psi[i], alone.psi)
            for got, want in ((phi[i], ref_phi[i]), (psi[i], ref_psi[i])):
                assert np.max(np.abs(got - want)) <= \
                    1e-10 * (1.0 + np.max(np.abs(want)))

    def test_single_lane_is_a_transform_pair(self, cir_process):
        rhs = cir_process.riccati_rhs()
        pair = riccati_solve(rhs, 1.2, np.array([0.1 + 2.0j]))
        phi, psi = riccati_solve(rhs, 1.2, np.array([[0.1 + 2.0j]]))
        assert isinstance(pair, TransformPair)
        assert pair.phi == phi[0] and np.array_equal(pair.psi, psi[0])

    def test_blow_up_names_the_lane(self):
        with pytest.raises(BlowUp, match="^lane 1: "):
            riccati_solve(SQUARE, 3.0, np.array([[0.1], [1.0]]))
        phi, psi = riccati_solve(SQUARE, 3.0, np.array([[0.1], [0.2]]))
        assert psi[:, 0] == pytest.approx([0.1 / 0.7, 0.2 / 0.4], rel=1e-10)

    def test_negative_horizon(self, cir_process):
        with pytest.raises(HorizonViolation):
            phi_psi_batch(cir_process, -0.5, np.array([[0.1], [0.2]]))

    def test_domain_violation_names_lane_and_factor(self):
        proc = two_factor_cir(0.5, 0.6, 0.25, 1.2, 0.4, 0.3)
        u = np.array([[0.1, 0.1], [0.1, 0.1], [0.1, 50.0]])
        with pytest.raises(DomainViolation, match="^lane 2, factor 1: "):
            phi_psi_batch(proc, 1.0, u)

    def test_one_riccati_solve_per_batch(self, cir_process, monkeypatch):
        from affine_libor import affine_core
        calls = []
        solve = affine_core.riccati_solve
        monkeypatch.setattr(affine_core, "riccati_solve",
                            lambda *a, **k: calls.append(1) or solve(*a, **k))
        proc = RiccatiProcess(cir_process.riccati_rhs(),
                              cir_process.domain_sup)
        u = np.array([[0.1], [-0.3 + 4.0j], [0.05 - 1.0j]])
        phi, psi = phi_psi_batch(proc, 2.0, u)
        assert len(calls) == 1
        ref_phi, ref_psi = cir_process.phi_psi(2.0, u)
        assert np.max(np.abs(psi - ref_psi)) < 1e-11
        assert np.max(np.abs(phi - ref_phi)) < 1e-11


def horizon_batch_driver(kind, family, a, b, c, x0, second):
    """A driver of the sweep: an admissible driver of ``family``, a
    degenerate closed form (eta = 0, beta = 0), a subordinator, or the
    Riccati-only copy of the admissible driver."""
    proc = admissible_driver(family, a, b, c, x0, second)
    return {"closed form": proc,
            "cir eta = 0": CirParams(a, b, 0.0, x0),
            "gamma-OU beta = 0": GammaOuParams(a, 0.5 + 4.5 * b, 0.0, x0),
            "subordinator": bounded_subordinator(2.0 * c, 0.2 + b),
            "riccati": RiccatiProcess(proc.riccati_rhs(), proc.domain_sup,
                                      proc.initial_state())}[kind]


class TestHorizonBatch:
    """``phi_psi_batch`` with one horizon per slot of the expiry axis."""

    @pytest.mark.parametrize("kind", ["closed form", "cir eta = 0",
                                      "gamma-OU beta = 0", "subordinator",
                                      "riccati"])
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(**DRIVER_ARGS,
           horizons=st.lists(st.one_of(st.just(0.0), st.floats(0.05, 5.0)),
                             min_size=1, max_size=6),
           lanes=st.lists(st.tuples(st.floats(-1.0, 0.8),
                                    st.floats(-20.0, 20.0)),
                          min_size=1, max_size=3))
    def test_slots_are_their_own_horizon_calls(self, family, a, b, c, x0,
                                               second, kind, horizons,
                                               lanes):
        proc = horizon_batch_driver(kind, family, a, b, c, x0, second)
        t = np.array(horizons)
        # lane i, slot e: Re u = frac_i * min(sup at horizon e, 1.5) in
        # every factor, Im u rolled across the factors
        cap = np.stack([np.minimum(proc.domain_sup(s), 1.5) if s > 0.0
                        else np.full(proc.dim, 1.5) for s in horizons])
        re = np.array([frac for frac, _ in lanes])[:, None, None] * cap
        im = np.array([[lanes[(i + j) % len(lanes)][1]
                        for j in range(proc.dim)]
                       for i in range(len(lanes))])[:, None, :]
        u = re + 1j * im
        phi, psi = phi_psi_batch(proc, t, u)
        assert phi.shape == u.shape[:-1] and psi.shape == u.shape
        for e, s in enumerate(horizons):
            ref_phi, ref_psi = phi_psi_batch(proc, s, u[:, e])
            assert np.array_equal(phi[:, e], ref_phi)
            assert np.array_equal(psi[:, e], ref_psi)
            if s == 0.0:
                assert np.all(phi[:, e] == 0.0)
                assert np.array_equal(psi[:, e], u[:, e])

    def test_scalar_horizon_keeps_the_shapes(self, cir_process):
        u = np.array([[0.1], [0.2 - 3.0j]])
        phi, psi = phi_psi_batch(cir_process, 1.5, u)
        assert phi.shape == (2,) and psi.shape == (2, 1)
        phi, psi = phi_psi_batch(cir_process, 1.5, np.stack([u, u], axis=1))
        assert phi.shape == (2, 2) and psi.shape == (2, 2, 1)
        phi, psi = phi_psi_batch(cir_process, 0.0, u)
        assert np.all(phi == 0.0) and np.array_equal(psi, u)

    def test_domain_violation_names_lane_factor_and_horizon(self):
        proc = two_factor_cir(0.5, 0.6, 0.25, 1.2, 0.4, 0.3)
        u = np.full((2, 3, 2), 0.1)
        u[1, 2, 1] = 50.0  # lane 5: node 1 at the slot of horizon 2.5
        with pytest.raises(DomainViolation,
                           match=r"^lane 5, factor 1: .* horizon 2\.5$"):
            phi_psi_batch(proc, np.array([0.5, 1.0, 2.5]), u)

    def test_negative_horizon_in_a_slot(self, cir_process):
        with pytest.raises(HorizonViolation):
            phi_psi_batch(cir_process, np.array([1.0, -0.5]),
                          np.full((1, 2, 1), 0.1))


class TestSemiflow:
    def test_spec_points(self, cir_process, gou_process):
        assert check_semiflow(cir_process, 0.7, 1.3, 0.2) <= 1e-12
        assert check_semiflow(gou_process, 1.0, 1.0, 0.5) <= 1e-12

    def test_t_zero_is_exact(self, cir_process):
        assert check_semiflow(cir_process, 0.0, 1.7, 0.2) == 0.0

    def test_randomized(self, cir_process, gou_process):
        rng = np.random.default_rng(7)
        for proc in (cir_process, gou_process):
            for _ in range(200):
                t, s = rng.uniform(0.05, 2.0, 2)
                u = rng.uniform(0.0, 0.7) * proc.domain_sup(t + s)[0]
                u = min(u, 1.4)  # keep gamma-OU comfortably inside u < alpha
                assert check_semiflow(proc, t, s, u) <= 1e-12


class TestOrderAndConvexity:
    def test_order_preservation(self, cir_process, gou_process):
        rng = np.random.default_rng(11)
        for proc in (cir_process, gou_process):
            for _ in range(200):
                t = rng.uniform(0.05, 4.5)
                cap = min(0.8 * proc.domain_sup(t)[0], 1.5)
                u, v = np.sort(rng.uniform(0.0, cap, 2))
                pu, pv = transform(proc, t, u), transform(proc, t, v)
                assert pu.phi <= pv.phi + 1e-15
                assert pu.psi[0] <= pv.psi[0] + 1e-15
                if u < v:
                    assert pu.psi[0] < pv.psi[0]

    def test_midpoint_convexity(self, cir_process, gou_process):
        rng = np.random.default_rng(13)
        for proc in (cir_process, gou_process):
            for _ in range(200):
                t = rng.uniform(0.05, 4.5)
                cap = min(0.8 * proc.domain_sup(t)[0], 1.5)
                u, v = rng.uniform(0.0, cap, 2)
                mid = transform(proc, t, 0.5 * (u + v))
                pu, pv = transform(proc, t, u), transform(proc, t, v)
                assert mid.phi <= 0.5 * (pu.phi + pv.phi) + 1e-12
                assert mid.psi[0] <= 0.5 * (pu.psi[0] + pv.psi[0]) + 1e-12


class TestTypes:
    def test_riccati_rhs_must_vanish_at_zero(self):
        with pytest.raises(InvalidParameter):
            RiccatiRhs(lambda u: u[..., 0] + 1.0, lambda u: u, dim=1)

    def test_domain_spec_needs_interior_zero(self):
        # a domain bound of 0 leaves no neighbourhood of u = 0
        decay = RiccatiRhs(lambda u: 0.0 * u[..., 0], lambda u: -u, dim=1)
        flat = RiccatiProcess(decay, lambda t: np.array([0.0]))
        with pytest.raises(InvalidParameter):
            transform(flat, 1.0, -0.1)
        with pytest.raises(InvalidParameter):
            phi_psi_batch(flat, 1.0, np.array([[-0.1], [-0.2]]))
        half = RiccatiProcess(decay, lambda t: np.array([0.5]))
        assert transform(half, 1.0, 0.4).psi[0] == \
            pytest.approx(0.4 * np.exp(-1.0), rel=1e-10)
        with pytest.raises(DomainViolation):
            transform(half, 1.0, 0.5)

    def test_transform_pair_is_frozen(self):
        pair = TransformPair(0.0, np.zeros(1))
        with pytest.raises(AttributeError):
            pair.phi = 1.0
