import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc
from scipy.stats import ncx2
from test_model import DRIVER_ARGS

from affine_libor import distributions
from affine_libor.distributions import (ChiSqMixSpec, chisq_mix_cdf,
                                        chisq_mix_sf, ncchi2_cdf, ncchi2_sf)
from affine_libor.errors import (ConvergenceFailure, DomainViolation,
                                 InvalidParameter)
from affine_libor.model import fit_term_structure, tilt_exponents
from affine_libor.pricing import _factor_laws
from affine_libor.processes import CirParams

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


def mix_cgf(u, m: ChiSqMixSpec) -> float:
    """Cumulant generating function of sum_j sigma_j Y_j at u, for
    u < 1 / (2 max sigma_j): per component
    -(nu/2) log(1 - 2 sigma u) + alpha sigma u / (1 - 2 sigma u)."""
    w = 1.0 - 2.0 * m.sigmas * u
    assert np.all(w > 0.0), "u outside the CGF domain"
    return float(np.sum(-0.5 * m.nus * np.log(w)
                        + m.alphas * m.sigmas * u / w))


def forward_law(f: CirParams, x: float, t: float,
                theta: float) -> ChiSqMixSpec:
    """Law of the square-root factor X_t, started at x, under the measure
    that tilts X_t by theta, as the pricers build it."""
    sigma, nu, alpha = _factor_laws((f,), np.array([x]), t,
                                    np.array([[theta]]))
    return ChiSqMixSpec(sigma[0], nu, alpha[0])


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
           zs=st.lists(st.floats(-10.0, 12.0), min_size=1, max_size=5))
    def test_window_recurrence_matches_per_shape(self, nu_steps, alpha, zs):
        # nu on a 1/1024 grid makes every shape nu/2 + j exact, so the
        # recurrence and the per-shape sum see the same shapes
        nu = nu_steps / 1024.0
        sd = math.sqrt(2.0 * (nu + 2.0 * alpha))
        x = np.maximum(nu + alpha + sd * np.array(zs), 1e-3)
        j0, ws, total = distributions._poisson_window(alpha)
        ws = np.array(ws) / total
        shapes = 0.5 * nu + j0 + np.arange(ws.size)
        per_shape = ws @ distributions.gammaincc(shapes[:, None],
                                                 0.5 * x[None, :])
        by_recurrence = distributions._poisson_gamma_series(
            x, np.array([nu]), np.array([alpha]), np.zeros(x.size, int))
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


class TestBatchedSeries:
    """Several non-central chi-square laws as one series pass: each law's
    Poisson window padded with zero weights to the longest."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(laws=st.lists(st.tuples(
        st.floats(1e-3, 50.0),
        st.one_of(st.sampled_from([0.0, 1e-14]), st.floats(0.0, 3000.0))),
        min_size=1, max_size=6),
        zs=st.lists(st.floats(-12.0, 14.0), min_size=1, max_size=4),
        upper=st.booleans())
    # alpha = 0 and alpha = 1e-14 have windows of length one
    @example(laws=[(2.0, 0.0), (3.0, 1e-14), (0.5, 40.0), (7.0, 2500.0)],
             zs=[-1.0, 0.0, 3.0], upper=True)
    def test_laws_match_each_law_alone(self, laws, zs, upper):
        nu = np.array([law[0] for law in laws])
        alpha = np.array([law[1] for law in laws])
        sd = np.sqrt(2.0 * (nu + 2.0 * alpha))
        x = np.maximum((nu + alpha)[:, None] + sd[:, None] * np.array(zs),
                       1e-300)
        ratio = ncchi2_sf if upper else ncchi2_cdf
        batch = ratio(x, nu[:, None], alpha[:, None])
        for i, (n, a) in enumerate(zip(nu, alpha)):
            alone = ratio(x[i], float(n), float(a))
            assert np.max(np.abs(batch[i] - alone)) <= 1e-13
        # the one law record carries a batch too: one row per law
        mix = (chisq_mix_sf if upper else chisq_mix_cdf)(
            2.0 * x, ChiSqMixSpec(np.full((nu.size, 1), 2.0), nu[:, None],
                                  alpha[:, None]))
        assert np.max(np.abs(mix - batch)) <= 1e-13


def direct_prefactor(a, x):
    """D(a, x) for shapes a < 1 as the prefactor computed it before its
    fast path: both branches at every point, the normal one picked."""
    shapes, inverse = np.unique(a, return_inverse=True)
    inv_gamma = 1.0 / np.array([math.gamma(v + 1.0) for v in shapes])
    near = np.minimum(x, 700.0)
    return np.where(x < 700.0, np.power(near, a) * np.exp(-near),
                    np.exp(a * np.log(x) - x)) * inv_gamma[inverse]


class TestSharedSeriesWork:
    """Work the series shares or skips, pinned bit for bit against the
    separate computation it replaced."""

    POINTS = dict(
        shapes=st.lists(st.one_of(st.floats(1e-4, 0.99),
                                  st.floats(1.0, 400.0)),
                        min_size=1, max_size=3),
        xs=st.lists(st.floats(1e-3, 900.0), min_size=1, max_size=40))

    @staticmethod
    def points(shapes, xs):
        x = np.array(xs)
        return np.resize(np.array(shapes), x.size), x

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(**POINTS, rows=st.integers(1, 80), upper=st.booleans())
    @example(shapes=[7.2e-4], xs=[0.07, 0.5, 1.0, 3.0, 5.9], rows=25,
             upper=True)
    # Stirling-form shapes re-anchor every few rows, where a point's value
    # depends on the others': sharing the ladder there moved bits
    @example(shapes=[50.71, 39.37, 20.08],
             xs=[98.52, 41.47, 19.16, 93.94, 84.44, 63.38, 41.0, 111.99],
             rows=65, upper=True)
    def test_series_and_window_share_one_ladder(self, shapes, xs, rows,
                                                upper):
        a, x = self.points(shapes, xs)
        # the window's ladder, whose leading rows the series may read
        d = distributions._gamma_prefactor(a, x)
        ladder = distributions._prefactor_ladder(a, x, rows, d)
        shared = distributions._live_ratio(a, x, upper, float(x.max()), d,
                                           ladder)
        alone = distributions._live_ratio(a, x, upper, float(x.max()), d)
        assert np.array_equal(shared, alone)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**POINTS, picks=st.lists(st.booleans(), min_size=1))
    def test_quadrature_of_needed_points_is_the_full_pass(self, shapes, xs,
                                                          picks):
        a, x = self.points(shapes, xs)
        needed = np.resize(np.array(picks), x.size)
        d = distributions._gamma_prefactor(a, x)
        full = distributions._upper_quadrature(a, x, d)
        some = distributions._upper_quadrature(a, x, d, needed)
        assert np.array_equal(some[needed], full[needed])
        assert not some[~needed].any()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(shapes=st.lists(st.floats(1e-4, 0.99), min_size=1, max_size=3),
           xs=st.lists(st.floats(1e-3, 1500.0), min_size=1, max_size=40))
    def test_small_shape_prefactor_is_the_two_branch_form(self, shapes, xs):
        a = np.resize(np.array(shapes), len(xs))
        x = np.array(xs)
        assert np.array_equal(distributions._gamma_prefactor(a, x),
                              direct_prefactor(a, x))
        # one Stirling-form point among them leaves the others as they were
        mixed = distributions._gamma_prefactor(np.append(a, 5.0),
                                               np.append(x, 1.0))
        assert np.array_equal(mixed[:-1], direct_prefactor(a, x))


def looped_poisson_window(alpha_nc):
    """``distributions._poisson_window`` as it was written before it kept
    each side's next weight: both next weights and the remaining-weight
    bounds recomputed at every step."""
    if alpha_nc == 0.0:
        return 0, [1.0], 1.0
    a2 = 0.5 * alpha_nc
    j_lo = j_hi = int(a2)
    lo_w, hi_w = [], [1.0]
    w_lo = w_hi = total = 1.0
    q_up = a2 / (j_hi + 1)
    if q_up >= 1.0:
        raise ConvergenceFailure(
            "Poisson window for the non-central chi-square cannot close: "
            f"non-centrality alpha={alpha_nc} is beyond double precision")
    q_down = j_lo / a2
    rest_up = w_hi * q_up / (1.0 - q_up)
    rest_down = w_lo * q_down / (1.0 - q_down) if q_down < 1.0 else math.inf
    for _ in range(distributions._MAX_SERIES_TERMS):
        if rest_up + rest_down <= distributions._SERIES_TOL * total:
            return j_lo, lo_w[::-1] + hi_w, total
        w_up, w_down = w_hi * q_up, w_lo * q_down
        if w_up >= w_down:
            j_hi += 1
            w_hi = w_up
            hi_w.append(w_hi)
            total += w_hi
            q_up = a2 / (j_hi + 1)
            rest_up = w_hi * q_up / (1.0 - q_up)
        else:
            j_lo -= 1
            w_lo = w_down
            lo_w.append(w_lo)
            total += w_lo
            q_down = j_lo / a2
            rest_down = w_lo * q_down / (1.0 - q_down)
    raise ConvergenceFailure("Poisson window for the non-central chi-square "
                             f"did not converge (alpha={alpha_nc})")


class TestPoissonWindow:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(alpha=st.one_of(st.floats(0.0, 20.0), st.floats(0.0, 5000.0),
                           st.floats(5e-324, 1e-3),
                           st.integers(0, 4000).map(float)))
    @example(alpha=0.0)
    @example(alpha=5e-324)  # alpha / 2 rounds to 0
    @example(alpha=2.0 ** 54)  # past 2**53: the window cannot close
    @example(alpha=2.0 ** 53 - 2.0)  # 2**52 - 1: 200k terms do not close it
    def test_bit_for_bit_the_looped_form(self, alpha):
        if 0.5 * alpha == 0.0 < alpha:
            # the looped form divided by alpha / 2 = 0 here
            assert distributions._poisson_window(alpha) == (0, [1.0], 1.0)
            return
        try:
            want = looped_poisson_window(alpha)
        except ConvergenceFailure as exc:
            with pytest.raises(ConvergenceFailure) as got:
                distributions._poisson_window(alpha)
            assert str(got.value) == str(exc)
        else:
            assert distributions._poisson_window(alpha) == want


class TestNcChi2:
    def test_empty_batch_of_laws(self):
        # no point: nothing to evaluate, for one law or several
        for f in (ncchi2_sf, ncchi2_cdf):
            for nu, alpha in ((1.0, 0.1), ([1.0, 2.0], [0.1, 0.2])):
                out = f(np.empty((0, np.size(nu))), nu, alpha)
                assert out.shape == (0, np.size(nu))

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

    def test_nan_point_gives_nan(self):
        # as gammaincc and scipy's ncx2.sf do: a NaN point is not a point
        # outside the support (SF 1, CDF 0)
        assert math.isnan(ncchi2_sf(math.nan, 2.0, 1.0))
        assert math.isnan(ncchi2_cdf(math.nan, 2.0, 1.0))
        xs = np.array([0.5, 3.0, 7.0, 20.0])
        for nu, alpha in ((2.0, 1.0), ([[2.0], [3.5]], [[1.0], [40.0]])):
            clean = ncchi2_sf(xs, nu, alpha)
            with_nan = ncchi2_sf(np.insert(xs, 2, math.nan), nu, alpha)
            assert np.isnan(with_nan[..., 2]).all()
            assert np.array_equal(np.delete(with_nan, 2, axis=-1), clean)

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
        # an infinite non-centrality once passed, and x = inf returned 1
        with pytest.raises(InvalidParameter):
            ncchi2_cdf(math.inf, 2.0, math.inf)

    def test_window_beyond_double_precision(self):
        # a2 / (j0 + 1) rounds to one past a2 = 2**53
        with pytest.raises(ConvergenceFailure, match="alpha=1e\\+20"):
            ncchi2_sf(1e20, 2.0, 1e20)

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
    """The scaled law: a one-component mixture."""

    def test_mass_starts_at_location(self):
        m = ChiSqMixSpec([0.5], [1.5], [0.3])
        assert chisq_mix_cdf(0.0, m) == 0.0
        assert chisq_mix_cdf(-0.1, m) == 0.0
        assert chisq_mix_sf(-0.1, m) == 1.0

    def test_identity_case(self):
        m = ChiSqMixSpec([1.0], [2.5], [0.7])
        assert chisq_mix_cdf(3.1, m) == pytest.approx(
            ncchi2_cdf(3.1, 2.5, 0.7), abs=1e-14)

    def test_affine_reparameterisation(self):
        m = ChiSqMixSpec([2.0], [3.0], [0.5])
        assert chisq_mix_cdf(4.0, m) == pytest.approx(
            ncchi2_cdf(2.0, 3.0, 0.5), abs=1e-14)
        assert chisq_mix_sf(4.0, m) == pytest.approx(
            ncchi2_sf(2.0, 3.0, 0.5), abs=1e-14)

    def test_zero_scale_rejected(self):
        with pytest.raises(InvalidParameter):
            ChiSqMixSpec([0.0], [2.0], [1.0])

    def test_cgf_at_zero_and_spec_point(self):
        m = ChiSqMixSpec([1.0], [2.0], [1.0])
        assert mix_cgf(0.0, m) == 0.0
        assert mix_cgf(0.1, m) == pytest.approx(-math.log(0.8) + 0.1 / 0.8,
                                                rel=1e-14)

    def test_cgf_derivative_is_the_mean(self):
        # the mean int_0^inf SF, from the survival function
        m = ChiSqMixSpec([0.7], [2.3], [1.9])
        h = 1e-6
        deriv = (mix_cgf(h, m) - mix_cgf(-h, m)) / (2.0 * h)
        area, _ = quad(lambda y: chisq_mix_sf(y, m), 0.0, math.inf,
                       epsabs=1e-12, epsrel=1e-12)
        assert deriv == pytest.approx(area, rel=1e-8)
        assert deriv == pytest.approx(0.7 * (2.3 + 1.9), rel=1e-8)

    def test_cgf_matches_sampled_expectation(self):
        m = ChiSqMixSpec([0.5], [2.0], [1.5])
        rng = np.random.default_rng(5)
        y = 0.5 * rng.noncentral_chisquare(2.0, 1.5, size=400_000)
        u = 0.3
        samples = np.exp(u * y)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - math.exp(mix_cgf(u, m))) <= 3.0 * se
        # E[e^{uY}] = 1 + u int_0^inf e^{uy} SF(y) dy, from the series;
        # beyond y = 200 the integrand is below e^-200
        area, _ = quad(lambda z: math.exp(u * z) * chisq_mix_sf(z, m), 0.0,
                       200.0, epsabs=1e-12, epsrel=1e-12, limit=200)
        assert 1.0 + u * area == pytest.approx(math.exp(mix_cgf(u, m)),
                                               rel=1e-8)

    def test_cgf_domain(self):
        # the CGF of a factor's law ends where the driver's moment
        # domain does
        f = CirParams(0.4, 0.6, 0.3)
        for t in (0.5, 2.0, 4.5):
            m = forward_law(f, 1.1, t, 0.0)
            assert 1.0 / (2.0 * m.sigmas[0]) == pytest.approx(
                f.domain_sup(t)[0], rel=1e-14)


class TestTilt:
    """Exponential tilting of a square-root factor's law
    (``pricing._factor_laws``) keeps the family: scale and
    non-centrality divide by zeta = 1 - 2 sigma theta."""

    def test_zero_tilt_is_identity(self):
        f, x, t = CirParams(0.4, 0.6, 0.3), 1.1, 1.5
        m = forward_law(f, x, t, 0.0)
        eb = f.eta ** 2 * f.b(t)
        assert m.sigmas[0] == eb
        assert m.nus[0] == f.lam * f.theta / f.eta ** 2
        assert m.alphas[0] == x * f.a(t) / eb

    def test_spec_point(self):
        # lam = 0, eta = 1: terminal scale b(1) = 1, non-centrality 1.5
        sigma, _, alpha = _factor_laws((CirParams(0.0, 1.0, 1.0),),
                                       np.array([1.5]), 1.0,
                                       np.array([[0.25]]))
        assert sigma[0, 0] == pytest.approx(2.0)
        assert alpha[0, 0] == pytest.approx(3.0)

    def test_cgf_identity_randomized(self):
        # kappa_theta(u) = kappa(u + theta) - kappa(theta)
        rng = np.random.default_rng(17)
        f, x, t = CirParams(0.6, 0.8, 0.5), 1.3, 1.2
        p = forward_law(f, x, t, 0.0)
        bound = 1.0 / (2.0 * p.sigmas[0])
        for _ in range(100):
            theta = rng.uniform(-1.0, 0.9 * bound)
            tilted = forward_law(f, x, t, theta)
            u = rng.uniform(-1.0, 0.9 / (2.0 * tilted.sigmas[0]))
            lhs = mix_cgf(u, tilted)
            rhs = mix_cgf(u + theta, p) - mix_cgf(theta, p)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)

    def test_tilt_composition_via_cgf(self):
        # the tilt by 0.5 is the tilt by 0.3 tilted again by 0.2
        f, x, t = CirParams(0.5, 0.7, 0.4), 1.0, 2.0
        once = forward_law(f, x, t, 0.3)
        direct = forward_law(f, x, t, 0.5)
        for u in (-0.5, 0.0, 0.3):
            assert mix_cgf(u, direct) == pytest.approx(
                mix_cgf(u + 0.2, once) - mix_cgf(0.2, once),
                rel=1e-12, abs=1e-13)

    def test_out_of_domain(self):
        # terminal scale 1: the CGF ends at theta = 1/2
        f = CirParams(0.0, 1.0, 1.0)
        with pytest.raises(DomainViolation):
            _factor_laws((f,), np.array([1.0]), 1.0, np.array([[0.5]]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(a=DRIVER_ARGS["a"], b=DRIVER_ARGS["b"], c=DRIVER_ARGS["c"],
           x0=DRIVER_ARGS["x0"], k=st.integers(1, 9),
           frac=st.floats(0.05, 1.0), us=st.lists(
               st.floats(-2.0, 0.9), min_size=1, max_size=4))
    def test_forward_law_cgf_matches_driver_transform(self, tenor, a, b, c,
                                                      x0, k, frac, us):
        # log E_{T_k}[e^{u X_t}] = kappa_t(theta + u) - kappa_t(theta), with
        # kappa_t(w) = phi_t(w) + psi_t(w) x0 the driver's log-MGF under
        # the terminal measure and theta = psi_{T_N - t}(u_k) the tilt
        f = CirParams(a, b, c, x0)
        model = fit_term_structure(tenor, f)
        t = frac * model.tenor.date(k)
        _, psi = tilt_exponents(model, t, (k,))
        theta = float(psi[0, 0])
        law = forward_law(f, x0, t, theta)

        def kappa(w):
            phi_w, psi_w = f.phi_psi(t, np.array([[w]]))
            return float(phi_w[0] + psi_w[0, 0] * x0)

        # u of the list is a fraction of the law's CGF bound
        bound = 1.0 / (2.0 * law.sigmas[0])
        for frac_u in us:
            u = frac_u * bound
            assert mix_cgf(u, law) == pytest.approx(
                kappa(theta + u) - kappa(theta), rel=1e-10, abs=1e-12)


class TestChiSqMix:
    def test_single_term_reduces_to_lsnc(self):
        # one component: the series at x / sigma, no Imhof
        mix = ChiSqMixSpec([0.7], [2.0], [1.3])
        for x in (0.1, 1.0, 5.0):
            z = x / 0.7
            assert chisq_mix_cdf(x, mix) == pytest.approx(
                ncchi2_cdf(z, 2.0, 1.3), abs=1e-13)
            assert chisq_mix_sf(x, mix) == pytest.approx(
                ncchi2_sf(z, 2.0, 1.3), abs=1e-13)

    def test_no_mass_at_or_below_zero(self):
        mix = ChiSqMixSpec([1.0, 2.0], [2.0, 3.0], [0.5, 1.0])
        assert chisq_mix_cdf(0.0, mix) == 0.0
        assert chisq_mix_cdf(-0.1, mix) == 0.0
        assert chisq_mix_sf(-0.1, mix) == 1.0

    def test_nan_point_gives_nan(self):
        for mix in (ChiSqMixSpec([0.7], [2.0], [1.3]),
                    ChiSqMixSpec([1.0, 2.0], [2.0, 3.0], [0.5, 1.0])):
            assert math.isnan(chisq_mix_sf(math.nan, mix))
            assert math.isnan(chisq_mix_cdf(math.nan, mix))
            out = chisq_mix_sf(np.array([1.0, math.nan, 5.0]), mix)
            assert math.isnan(out[1])
            assert np.array_equal(out[[0, 2]],
                                  chisq_mix_sf(np.array([1.0, 5.0]), mix))

    def test_no_mass_at_infinity(self):
        # all the mass lies below x = inf, outside Imhof's integral
        mix = ChiSqMixSpec([1.0, 2.0], [2.0, 3.0], [0.5, 1.0])
        assert chisq_mix_sf(math.inf, mix) == 0.0
        assert chisq_mix_cdf(math.inf, mix) == 1.0

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
        mix = ChiSqMixSpec([1.0, 1.5], [2.5, 1.0], [0.4, 2.0])
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
