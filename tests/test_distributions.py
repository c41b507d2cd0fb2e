import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc
from scipy.stats import ncx2

from affine_libor import distributions
from affine_libor.distributions import (ChiSqMixSpec, LsncChi2Params,
                                        chisq_mix_cdf, chisq_mix_sf, lsnc_cdf,
                                        lsnc_cgf, lsnc_sf, lsnc_tilt,
                                        ncchi2_cdf, ncchi2_sf)
from affine_libor.errors import (ConvergenceFailure, DomainViolation,
                                 InvalidParameter)

# Frozen oracle values: Poisson-weighted quadrature of central chi-square
# densities (scipy.integrate.quad at epsabs 1e-15, weights by recurrence),
# evaluated near the bulk x = nu + alpha.
QUADRATURE_ORACLE = [
    (0.5, 0.0, 0.5, 0.7436779447314634),
    (2.0, 1.0, 3.0, 0.6206436532195438),
    (3.0, 0.5, 3.5, 0.6064493336094775),
    (5.0, 20.0, 25.0, 0.5407136081145838),
    (7.0, 2.2, 9.2, 0.5669560582312693),
]


def _mp_gamma_ratio(a, x, upper):
    """Regularised incomplete gamma ratio by mpmath at 30 digits."""
    with mpmath.workdps(30):
        a, x = mpmath.mpf(float(a)), mpmath.mpf(float(x))
        if upper:
            return float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
        return float(mpmath.gammainc(a, 0, x, regularized=True))


class TestGammaRatios:
    """``distributions.gammainc``/``gammaincc`` against independent oracles."""

    @pytest.fixture(scope="class", params=["log-uniform", "transition"])
    def grid(self, request):
        # log-uniform shapes 1e-3..1e3 with log-uniform arguments
        # 1e-4..1e4, or with arguments within 5 sqrt(a) of a, where P and
        # Q are both far from 0 and 1 and every term of the sums counts
        rng = np.random.default_rng(20261018)
        if request.param == "log-uniform":
            a = 10.0 ** rng.uniform(-3.0, 3.0, 400)
            x = 10.0 ** rng.uniform(-4.0, 4.0, 400)
        else:
            # half the shapes in 1..20, where Gamma(a + 1) evaluated
            # directly would cost several ulps
            a = np.concatenate([10.0 ** rng.uniform(-3.0, 3.0, 200),
                                10.0 ** rng.uniform(0.0, math.log10(20.0),
                                                    200)])
            x = np.maximum(a + np.sqrt(a) * rng.uniform(-5.0, 5.0, 400),
                           1e-4)
        refs = {upper: np.array([_mp_gamma_ratio(ai, xi, upper)
                                 for ai, xi in zip(a, x)])
                for upper in (False, True)}
        return a, x, refs

    @pytest.mark.parametrize("upper", [False, True])
    def test_against_mpmath(self, grid, upper):
        a, x, refs = grid
        ref = refs[upper]
        ratio = distributions.gammaincc if upper else distributions.gammainc
        # one call over all points, and one call per point (one shape)
        for got in (ratio(a, x),
                    np.array([ratio(ai, np.array([xi]))[0]
                              for ai, xi in zip(a, x)])):
            assert np.max(np.abs(got - ref)) <= 2e-15
            tiny = ref < 1e-290
            assert np.max(np.abs(got[~tiny] - ref[~tiny])
                          / ref[~tiny]) <= 1e-11

    def test_broadcasting_and_edges_like_scipy(self):
        a = np.array([[0.5], [2.0], [30.0]])
        x = np.array([0.0, 0.3, 4.0, 40.0, np.inf])
        for ours, theirs in ((distributions.gammainc, scipy.special.gammainc),
                             (distributions.gammaincc,
                              scipy.special.gammaincc)):
            got = ours(a, x)
            assert got.shape == (3, 5)
            np.testing.assert_allclose(got, theirs(a, x), rtol=1e-13,
                                       atol=1e-15)
            assert isinstance(ours(2.5, 1.0), float)
            assert np.isnan(ours(-1.0, 1.0)) and np.isnan(ours(1.0, -1.0))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(nu_steps=st.integers(1, 50 * 1024),
           alpha=st.floats(1e-3, 3000.0),
           zs=st.lists(st.floats(-10.0, 12.0), min_size=1, max_size=5),
           upper=st.booleans())
    def test_window_recurrence_matches_per_shape(self, nu_steps, alpha, zs,
                                                 upper):
        # nu on a 1/1024 grid makes every shape nu/2 + j exact, so the
        # recurrence and the per-shape sum see the same shapes
        nu = nu_steps / 1024.0
        sd = math.sqrt(2.0 * (nu + 2.0 * alpha))
        x = np.maximum(nu + alpha + sd * np.array(zs), 1e-3)
        j0, ws = distributions._poisson_window(alpha, 1e-13)
        shapes = 0.5 * nu + j0 + np.arange(ws.size)
        ratio = distributions.gammaincc if upper else distributions.gammainc
        per_shape = ws @ ratio(shapes[:, None], 0.5 * x[None, :])
        by_recurrence = distributions._poisson_gamma_series(
            x, nu, alpha, upper, 1e-13)
        assert np.max(np.abs(by_recurrence - per_shape)) <= 2e-15

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(nu=st.floats(1e-3, 50.0), alpha=st.floats(0.0, 3000.0),
           zs=st.lists(st.floats(-12.0, 14.0), min_size=1, max_size=4),
           left=st.floats(0.0, 8.0))
    def test_ncchi2_against_scipy_ncx2(self, nu, alpha, zs, left):
        # bulk and right tail by standard deviations, left tail by decades
        mean = nu + alpha
        sd = math.sqrt(2.0 * (nu + 2.0 * alpha))
        x = np.append(np.maximum(mean + sd * np.array(zs), 1e-300),
                      mean * 10.0 ** -left)
        assert np.max(np.abs(ncchi2_sf(x, nu, alpha)
                             - ncx2.sf(x, nu, alpha))) <= 1e-13
        assert np.max(np.abs(ncchi2_cdf(x, nu, alpha)
                             - ncx2.cdf(x, nu, alpha))) <= 1e-13


class TestNcChi2:
    def test_against_quadrature_oracle(self):
        for nu, alpha, x, expected in QUADRATURE_ORACLE:
            assert ncchi2_cdf(x, nu, alpha) == pytest.approx(expected,
                                                             abs=1e-12)

    def test_tiny_degrees_of_freedom(self):
        # integrable x^(nu/2 - 1) singularity at zero; scipy cross-check
        assert ncchi2_cdf(9.0, 0.0014363, 7.5) == pytest.approx(
            ncx2.cdf(9.0, 0.0014363, 7.5), abs=1e-11)

    def test_support_and_limits(self):
        assert ncchi2_cdf(0.0, 2.0, 1.0) == 0.0
        assert ncchi2_cdf(-3.0, 2.0, 1.0) == 0.0
        assert ncchi2_cdf(1e4, 2.0, 1.0) == pytest.approx(1.0, abs=1e-13)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 40.0, 200)
        vals = ncchi2_cdf(xs, 3.0, 4.0)
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_sf_complements_cdf(self):
        for nu, alpha, x, _ in QUADRATURE_ORACLE:
            total = ncchi2_cdf(x, nu, alpha) + ncchi2_sf(x, nu, alpha)
            assert total == pytest.approx(1.0, abs=1e-13)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            ncchi2_cdf(1.0, 0.0, 1.0)
        with pytest.raises(InvalidParameter):
            ncchi2_cdf(1.0, 2.0, -0.5)

    def test_long_window_off_the_shape_grid(self):
        # 532-term window from the non-dyadic shape 1022.19...: a
        # shape ladder stepping by a rounded 1 instead of exact integers
        # drifted by 2.8e-13 here
        nu, alpha, x = 6.387779663826532, 2552.1118815943655, 2831.075476355937
        assert abs(ncchi2_cdf(x, nu, alpha) - ncx2.cdf(x, nu, alpha)) <= 1e-13
        assert abs(ncchi2_sf(x, nu, alpha) - ncx2.sf(x, nu, alpha)) <= 1e-13

    def test_large_noncentrality(self):
        assert ncchi2_cdf(1100.0, 1.5, 1000.0) == pytest.approx(
            ncx2.cdf(1100.0, 1.5, 1000.0), abs=1e-11)

    @pytest.mark.parametrize("alpha", [1500.3, 1599.99])
    def test_poisson_window_closes_near_1600(self, alpha):
        # The absolute modal Poisson weight is off by ~6e-13 relative
        # here, so a window that waited for its mass to reach 1 - 1e-13
        # never closed and raised ConvergenceFailure after 200k terms.
        nu = 0.4
        xs = alpha + nu + math.sqrt(2.0 * (nu + 2.0 * alpha)) \
            * np.linspace(-4.0, 4.0, 9)
        assert np.max(np.abs(ncchi2_sf(xs, nu, alpha)
                             - ncx2.sf(xs, nu, alpha))) <= 2e-13
        assert np.max(np.abs(ncchi2_cdf(xs, nu, alpha)
                             - ncx2.cdf(xs, nu, alpha))) <= 2e-13


class TestLsnc:
    def test_mass_starts_at_location(self):
        p = LsncChi2Params(mu=2.0, sigma=0.5, nu=1.5, alpha_nc=0.3)
        assert lsnc_cdf(2.0, p) == 0.0
        assert lsnc_cdf(1.9, p) == 0.0

    def test_identity_case(self):
        p = LsncChi2Params(0.0, 1.0, 2.5, 0.7)
        assert lsnc_cdf(3.1, p) == pytest.approx(ncchi2_cdf(3.1, 2.5, 0.7),
                                                 abs=1e-14)

    def test_affine_reparameterisation(self):
        p = LsncChi2Params(1.0, 2.0, 3.0, 0.5)
        assert lsnc_cdf(5.0, p) == pytest.approx(ncchi2_cdf(2.0, 3.0, 0.5),
                                                 abs=1e-14)

    def test_negative_scale_reflection(self):
        p = LsncChi2Params(0.0, -1.0, 2.0, 1.0)
        # P(-W <= -x) = P(W >= x)
        assert lsnc_cdf(-3.0, p) == pytest.approx(ncchi2_sf(3.0, 2.0, 1.0),
                                                  abs=1e-13)
        assert lsnc_sf(-3.0, p) == pytest.approx(ncchi2_cdf(3.0, 2.0, 1.0),
                                                 abs=1e-13)

    def test_zero_scale_rejected(self):
        with pytest.raises(InvalidParameter):
            LsncChi2Params(0.0, 0.0, 2.0, 1.0)

    def test_cgf_at_zero_and_spec_point(self):
        p = LsncChi2Params(0.0, 1.0, 2.0, 1.0)
        assert lsnc_cgf(0.0, p) == 0.0
        assert lsnc_cgf(0.1, p) == pytest.approx(-math.log(0.8) + 0.1 / 0.8,
                                                 rel=1e-14)

    def test_cgf_derivative_is_the_mean(self):
        p = LsncChi2Params(0.4, 0.7, 2.3, 1.9)
        h = 1e-6
        deriv = (lsnc_cgf(h, p) - lsnc_cgf(-h, p)) / (2.0 * h)
        assert deriv == pytest.approx(p.mean(), rel=1e-8)

    def test_cgf_matches_sampled_expectation(self):
        p = LsncChi2Params(0.0, 0.5, 2.0, 1.5)
        rng = np.random.default_rng(5)
        y = 0.5 * rng.noncentral_chisquare(2.0, 1.5, size=400_000)
        u = 0.3
        samples = np.exp(u * y)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - math.exp(lsnc_cgf(u, p))) <= 3.0 * se

    def test_cgf_domain(self):
        p = LsncChi2Params(0.0, 1.0, 2.0, 1.0)
        with pytest.raises(DomainViolation):
            lsnc_cgf(0.5, p)


class TestTilt:
    def test_zero_tilt_is_identity(self):
        p = LsncChi2Params(0.3, 0.8, 2.0, 1.5)
        assert lsnc_tilt(p, 0.0) == p

    def test_spec_point(self):
        p = LsncChi2Params(0.0, 1.0, 2.0, 1.5)
        tilted = lsnc_tilt(p, 0.25)
        assert tilted.sigma == pytest.approx(2.0)
        assert tilted.alpha_nc == pytest.approx(3.0)

    def test_cgf_identity_randomized(self):
        # kappa_theta(u) = kappa(u + theta) - kappa(theta)
        rng = np.random.default_rng(17)
        p = LsncChi2Params(0.2, 0.6, 1.7, 2.4)
        bound = 1.0 / (2.0 * p.sigma)
        for _ in range(100):
            theta = rng.uniform(-1.0, 0.9 * bound)
            tilted = lsnc_tilt(p, theta)
            u = rng.uniform(-1.0, 0.9 / (2.0 * tilted.sigma))
            lhs = lsnc_cgf(u, tilted)
            rhs = lsnc_cgf(u + theta, p) - lsnc_cgf(theta, p)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)

    def test_tilt_composition_via_cgf(self):
        p = LsncChi2Params(0.0, 0.5, 2.0, 1.0)
        once = lsnc_tilt(lsnc_tilt(p, 0.3), 0.2)
        # composed tilts must equal the single tilt by 0.5 on the CGF level
        direct = lsnc_tilt(p, 0.5)
        for u in (-0.5, 0.0, 0.3):
            assert lsnc_cgf(u, once) == pytest.approx(lsnc_cgf(u, direct),
                                                      rel=1e-12, abs=1e-13)

    def test_out_of_domain(self):
        p = LsncChi2Params(0.0, 1.0, 2.0, 1.0)
        with pytest.raises(DomainViolation):
            lsnc_tilt(p, 0.5)


class TestChiSqMix:
    def test_single_term_reduces_to_lsnc(self):
        mix = ChiSqMixSpec([0.7], [2.0], [1.3])
        p = LsncChi2Params(0.0, 0.7, 2.0, 1.3)
        for x in (0.1, 1.0, 5.0):
            assert chisq_mix_cdf(x, mix) == pytest.approx(lsnc_cdf(x, p),
                                                          abs=1e-13)

    def test_below_shift_is_zero(self):
        mix = ChiSqMixSpec([1.0, 2.0], [2.0, 3.0], [0.5, 1.0], shift=1.5)
        assert chisq_mix_cdf(1.4, mix) == 0.0
        assert chisq_mix_sf(1.4, mix) == 1.0

    def test_against_monte_carlo(self):
        mix = ChiSqMixSpec([1.0, 2.0], [2.0, 3.0], [0.5, 1.0])
        rng = np.random.default_rng(23)
        n = 10_000_000
        q = (rng.noncentral_chisquare(2.0, 0.5, n)
             + 2.0 * rng.noncentral_chisquare(3.0, 1.0, n))
        for x in (3.0, 8.0, 14.0, 25.0):
            p_hat = float(np.mean(q <= x))
            p = chisq_mix_cdf(x, mix)
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(p_hat - p) <= 3.0 * se

    def test_central_equal_scale_reduction(self):
        # all alpha = 0, common sigma: scaled central chi-square with
        # sum(nu) degrees of freedom
        mix = ChiSqMixSpec([0.5, 0.5], [2.0, 3.0], [0.0, 0.0])
        for x in (0.5, 2.0, 6.0):
            expected = gammainc(2.5, x / (2.0 * 0.5))
            assert chisq_mix_cdf(x, mix) == pytest.approx(expected, abs=1e-10)

    def test_cdf_sf_complement_and_monotone(self):
        mix = ChiSqMixSpec([1.0, 1.5], [2.5, 1.0], [0.4, 2.0], shift=0.3)
        xs = np.linspace(0.3, 10.0, 30)
        vals = chisq_mix_cdf(xs, mix)
        assert np.all(np.diff(vals) >= -1e-12)
        for x in xs[::6]:
            assert chisq_mix_cdf(float(x), mix) + chisq_mix_sf(float(x), mix) \
                == pytest.approx(1.0, abs=1e-9)

    def test_truncation_failure_for_tiny_dof(self):
        mix = ChiSqMixSpec([1.0, 1.0], [1e-3, 1e-3], [0.0, 0.0])
        with pytest.raises(ConvergenceFailure):
            chisq_mix_cdf(5.0, mix)

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            ChiSqMixSpec([1.0, -1.0], [2.0, 2.0], [0.0, 0.0])
        with pytest.raises(InvalidParameter):
            ChiSqMixSpec([1.0], [2.0, 2.0], [0.0])
