import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_libor.affine_core import transform
from affine_libor.errors import InvalidGrid, InvalidParameter
from affine_libor.model import fit_term_structure, libor_rate
from affine_libor.montecarlo import (MartingaleReport, PathBatch, RngStream,
                                     agrees, forward_measure_weights,
                                     martingale_check, martingale_checks,
                                     mc_caplet, mc_price,
                                     mc_swaption, simulate_cir,
                                     simulate_gamma_ou, simulate_process)
from affine_libor.processes import (CirParams, GammaOuParams,
                                    ProductProcess, two_factor_cir)
from test_model import DRIVER_ARGS, admissible_driver
from test_processes import compound_poisson_subordinator


class TestRngStream:
    def test_reproducible(self, cir_process):
        a = simulate_cir(cir_process, [1.0, 2.0], 1000, RngStream(42, 0))
        b = simulate_cir(cir_process, [1.0, 2.0], 1000, RngStream(42, 0))
        assert np.array_equal(a.states, b.states)

    def test_streams_differ(self, cir_process):
        a = simulate_cir(cir_process, [1.0], 1000, RngStream(42, 0))
        b = simulate_cir(cir_process, [1.0], 1000, RngStream(42, 1))
        assert not np.array_equal(a.states, b.states)

    @pytest.mark.parametrize("seed, stream_id", [(-3, 0), (1, -1), (1.5, 0),
                                                 (1, 0.5), ("7", 0)])
    def test_rejects_bad_seed_or_stream(self, seed, stream_id):
        with pytest.raises(InvalidParameter):
            RngStream(seed, stream_id)

    def test_numpy_integer_seed(self, cir_process):
        a = simulate_cir(cir_process, [1.0], 10, RngStream(np.int64(42)))
        b = simulate_cir(cir_process, [1.0], 10, RngStream(42))
        assert np.array_equal(a.states, b.states)


class TestSimulateCir:
    def test_eta_zero_deterministic(self):
        p = CirParams(0.8, 0.4, 0.0, x0=2.0)
        batch = simulate_cir(p, [1.0, 3.0], 7, RngStream(1))
        for t_idx, t in enumerate((1.0, 3.0)):
            expected = 2.0 * math.exp(-0.8 * t) + 0.4 * (1 - math.exp(-0.8 * t))
            assert np.allclose(batch.states[:, t_idx, 0], expected)

    def test_mean_matches_mgf_derivative(self, cir_process):
        # d/du log MGF at 0 equals a(t) x0 + theta (1 - a(t))
        t = 1.0
        batch = simulate_cir(cir_process, [t], 400_000, RngStream(3))
        x = batch.at(t)[:, 0]
        h = 1e-6
        up = transform(cir_process, t, h)
        mean_exact = (up.phi + up.psi[0] * cir_process.x0) / h
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - mean_exact) <= 3.0 * se + 1e-5

    def test_empirical_mgf(self, cir_process):
        t, u = 1.0, 0.2
        batch = simulate_cir(cir_process, [t], 1_000_000, RngStream(7))
        samples = np.exp(u * batch.at(t)[:, 0])
        pair = transform(cir_process, t, u)
        exact = math.exp(pair.phi + pair.psi[0] * cir_process.x0)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - exact) <= 3.0 * se

    def test_states_non_negative(self, cir_process):
        batch = simulate_cir(cir_process, [0.5, 1.0, 5.0], 50_000,
                             RngStream(11))
        assert np.all(batch.states >= 0.0)

    def test_invalid_grid(self, cir_process):
        with pytest.raises(InvalidGrid):
            simulate_cir(cir_process, [1.0, 0.5], 10, RngStream(0))
        with pytest.raises(InvalidGrid):
            simulate_cir(cir_process, [-1.0], 10, RngStream(0))


class TestSimulateGammaOu:
    def test_no_jumps_pure_decay(self):
        p = GammaOuParams(0.4, 2.0, 0.0, x0=1.5)
        batch = simulate_gamma_ou(p, [2.0], 5, RngStream(2))
        assert np.allclose(batch.at(2.0)[:, 0], 1.5 * math.exp(-0.8))

    def test_empirical_mgf(self, gou_process):
        t, u = 2.0, 0.5
        batch = simulate_gamma_ou(gou_process, [t], 1_000_000, RngStream(5))
        samples = np.exp(u * batch.at(t)[:, 0])
        pair = transform(gou_process, t, u)
        exact = math.exp(pair.phi + pair.psi[0] * gou_process.x0)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - exact) <= 3.0 * se

    def test_long_horizon_stationary_moments(self):
        # limit law is Gamma(alpha, beta): mean beta/alpha, var beta/alpha^2
        p = GammaOuParams(1.0, 2.0, 1.0, x0=1.25)
        batch = simulate_gamma_ou(p, [25.0], 400_000, RngStream(9))
        x = batch.at(25.0)[:, 0]
        se_mean = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 0.5) <= 3.0 * se_mean
        var_samples = (x - x.mean()) ** 2
        se_var = var_samples.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.var(ddof=1) - 0.25) <= 3.0 * se_var


def reference_paths(process, times, n_paths, rng):
    """The samplers as they were written before they worked in place:
    fresh arrays at every step, product factors concatenated."""
    if isinstance(process, ProductProcess):
        return np.concatenate(
            [reference_paths(f, times, n_paths,
                             RngStream(rng.seed, rng.stream_id * 997 + j))
             for j, f in enumerate(process.factors)], axis=2)
    p, gen = process, rng.generator()
    x = np.full(n_paths, p.x0)
    states = np.empty((n_paths, len(times), 1))
    prev = 0.0
    for j, t in enumerate(times):
        dt = t - prev
        if dt > 0.0 and isinstance(p, CirParams):
            a, b = p.a(dt), p.b(dt)
            if p.eta == 0.0:
                x = x * a + p.theta * (1.0 - a)
            else:
                nu = p.lam * p.theta / p.eta ** 2
                scale = p.eta ** 2 * b
                noncent = x * a / scale
                shapes = 0.5 * nu + gen.poisson(0.5 * noncent)
                x = scale * gen.gamma(shapes, 2.0)
        elif dt > 0.0:
            x = x * math.exp(-p.lam * dt)
            counts = gen.poisson(p.lam * p.beta * dt, n_paths)
            total = int(counts.sum())
            if total:
                sizes = gen.exponential(1.0 / p.alpha, total)
                arrivals = gen.uniform(0.0, dt, total)
                owner = np.repeat(np.arange(n_paths), counts)
                x = x + np.bincount(
                    owner, weights=sizes * np.exp(-p.lam * (dt - arrivals)),
                    minlength=n_paths)
        states[:, j, 0] = x
        prev = t
    return states


class TestSimulateProcess:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(**DRIVER_ARGS, start=st.sampled_from([0.0, 0.25]),
           steps=st.lists(st.floats(0.05, 2.0), min_size=2, max_size=4),
           seed=st.integers(0, 2 ** 32), stream=st.integers(0, 20))
    def test_lean_samplers_draw_the_same_paths(self, family, a, b, c, x0,
                                               second, start, steps, seed,
                                               stream):
        process = admissible_driver(family, a, b, c, x0, second)
        times = start + np.cumsum(steps)
        if start == 0.0:
            times = np.concatenate([[0.0], times])
        rng = RngStream(seed, stream)
        got = simulate_process(process, times, 300, rng).states
        assert np.array_equal(got, reference_paths(process, times, 300, rng))

    @pytest.mark.parametrize("process", [
        CirParams(0.8, 0.4, 0.0, 2.0), GammaOuParams(0.4, 2.0, 0.0, 1.5),
        ProductProcess([GammaOuParams(1.0, 2.0, 1.0, 0.3),
                        CirParams(1.5, 0.3, 0.2, 0.5)])])
    def test_degenerate_and_mixed_drivers_draw_the_same_paths(self, process):
        times = [0.5, 1.0, 3.0]
        got = simulate_process(process, times, 300, RngStream(8, 2)).states
        assert np.array_equal(
            got, reference_paths(process, times, 300, RngStream(8, 2)))

    def test_product_stacks_factors(self):
        p = two_factor_cir(0.5, 0.6, 0.25, 1.2, 0.4, 0.3)
        batch = simulate_process(p, [1.0, 2.0], 1000, RngStream(4))
        assert batch.states.shape == (1000, 2, 2)
        assert np.all(batch.states >= 0.0)

    def test_unsupported_process(self):
        spec = compound_poisson_subordinator(1.0, 2.0)
        with pytest.raises(InvalidParameter):
            simulate_process(spec, [1.0], 10, RngStream(0))


class TestMcPrice:
    def test_unit_payoff_recovers_discount(self, cir_model):
        for k in (2, 7):
            t = cir_model.tenor.date(k)
            est, se = mc_price(cir_model, lambda x: np.ones(len(x)), t, k,
                               200_000, RngStream(31, k))
            assert abs(est - cir_model.bond0(k)) <= 3.0 * se

    def test_weights_average_one(self, cir_model):
        t = 2.5
        batch = simulate_process(cir_model.process, [t], 200_000,
                                 RngStream(13))
        x = batch.at(t)
        for k in range(1, 11):
            w = forward_measure_weights(cir_model, k, t, x)
            se = w.std(ddof=1) / math.sqrt(w.size)
            assert abs(w.mean() - 1.0) <= 3.0 * se + 1e-12

    def test_estimates_scale_consistently(self, cir_model):
        # exact sampler: 1e5- and 1e6-path estimates agree within joint bars
        small, se_small = mc_caplet(cir_model, 2, 0.03, 100_000,
                                    RngStream(17, 0))
        large, se_large = mc_caplet(cir_model, 2, 0.03, 1_000_000,
                                    RngStream(17, 1))
        assert abs(small - large) <= 3.0 * math.hypot(se_small, se_large)

    def test_pathwise_libor_non_negative(self, cir_model, gou_model):
        for model in (cir_model, gou_model):
            t = model.tenor.date(3)
            batch = simulate_process(model.process, [t], 20_000,
                                     RngStream(19))
            x = batch.at(t)
            rates = [libor_rate(model, 3, t, xi) for xi in x[:200]]
            assert min(rates) >= 0.0


class TestMartingaleCheck:
    def test_terminal_parameter_is_trivial(self, cir_model):
        rep = martingale_check(cir_model, 10, 2.5, 10_000, RngStream(23))
        assert rep.sample_mean == 1.0
        assert rep.min_value == 1.0
        assert rep.z_score == 0.0
        assert rep.passed()

    def test_cir_all_indices(self, cir_model):
        for k in (1, 5, 9):
            rep = martingale_check(cir_model, k, 2.5, 200_000,
                                   RngStream(29, k))
            assert abs(rep.z_score) <= 3.0
            assert rep.min_value >= 1.0

    def test_gamma_ou(self, gou_model):
        rep = martingale_check(gou_model, 1, gou_model.tenor.date(1),
                               200_000, RngStream(37))
        assert abs(rep.z_score) <= 3.0
        assert rep.min_value >= 1.0

    def test_report_fields(self, cir_model):
        rep = martingale_check(cir_model, 3, 1.0, 1000, RngStream(41))
        assert isinstance(rep, MartingaleReport)
        assert rep.n_paths == 1000
        assert rep.expected == pytest.approx(
            cir_model.bond0(3) / cir_model.bond0(10), abs=1e-12)

    @pytest.mark.parametrize("name", ["cir_model", "gou_model",
                                      "cir2f_model"])
    def test_shared_simulation_matches_single_checks(self, request, name):
        model = request.getfixturevalue(name)
        for t in (model.tenor.date(1), 0.5 * model.horizon):
            reports = martingale_checks(model, range(1, 11), t, 5000,
                                        RngStream(53, 2))
            assert [r.index for r in reports] == list(range(1, 11))
            for k, rep in zip(range(1, 11), reports):
                assert rep == martingale_check(model, k, t, 5000,
                                               RngStream(53, 2))

    def test_needs_two_paths(self, cir_model):
        with pytest.raises(InvalidParameter):
            martingale_checks(cir_model, [1], 1.0, 1, RngStream(0))
        with pytest.raises(InvalidParameter):
            mc_price(cir_model, lambda x: np.ones(len(x)), 1.0, 2, 1,
                     RngStream(0))

    def test_deterministic_driver_passes_within_rounding(self, tenor):
        # eta = 0: every path is the same curve, so the standard error is
        # (nearly) zero and the gap is rounding noise.
        model = fit_term_structure(tenor, CirParams(0.001, 0.5, 0.0, 1.25))
        for k in range(1, 11):
            rep = martingale_check(model, k, 2.5, 1000, RngStream(59))
            assert abs(rep.sample_mean - rep.expected) <= 1e-14
            assert rep.passed()

    def test_agreement_floor(self):
        assert agrees(1.0 + 3e-3, 1.0, 1e-3)
        assert not agrees(1.0 + 3.1e-3, 1.0, 1e-3)
        assert agrees(1.0 + 1e-13, 1.0, 0.0)
        assert not agrees(1.0 + 1e-9, 1.0, 0.0)


class TestMcInstruments:
    def test_caplet_brackets_closed_form(self, cir_model):
        from affine_libor.pricing import CapletSpec, caplet_cir_closed
        exact = caplet_cir_closed(cir_model, CapletSpec(2, 0.03)).price
        est, se = mc_caplet(cir_model, 2, 0.03, 400_000, RngStream(43))
        assert abs(est - exact) <= 3.0 * se

    @pytest.mark.parametrize("process, x0", [
        (CirParams(0.001, 0.5, 0.59, 1.25), [2.0]),
        (two_factor_cir(0.5, 0.6, 0.25, 1.2, 0.4, 0.3), [2.0, 0.5])])
    def test_caplet_starts_at_the_model_state(self, tenor, process, x0):
        # fitted at an x0 other than the driver record's own: the paths
        # start where every pricer does, at the model's x0
        from affine_libor.pricing import CapletSpec, caplet_closed
        m = fit_term_structure(tenor, process, x0=np.array(x0))
        exact = caplet_closed(m, CapletSpec(2, 0.03)).price
        est, se = mc_caplet(m, 2, 0.03, 200_000, RngStream(53))
        assert abs(est - exact) <= 3.0 * se
        assert all(r.passed() for r in martingale_checks(
            m, range(1, m.n_periods + 1), 2.0, 200_000, RngStream(59)))

    def test_swaption_brackets_closed_form(self, cir_model):
        from affine_libor.pricing import SwaptionSpec, swaption_cir_closed
        exact = swaption_cir_closed(cir_model,
                                    SwaptionSpec(2, 6, 0.03)).price
        est, se = mc_swaption(cir_model, 2, 6, 0.03, 400_000, RngStream(47))
        assert abs(est - exact) <= 3.0 * se

    def test_path_batch_at_missing_time(self, cir_process):
        batch = simulate_cir(cir_process, [1.0], 10, RngStream(0))
        with pytest.raises(InvalidGrid):
            batch.at(2.0)
        assert isinstance(batch, PathBatch)
