import math

import numpy as np
import pytest
from scipy.special import exp1

from affine_libor.errors import InvalidParameter
from affine_libor.quadrature import (adaptive_gauss_kronrod,
                                     semi_infinite_oscillatory)

# Components on [0, pi] with closed-form integrals.  The first is large
# and smooth, so a budget shared across components would be far too loose
# for the narrow peak of the third; the second integrates to zero, so
# only its absolute tolerance can be met.
EXACT = np.array([1e6 * (1.0 - math.exp(-math.pi)), 0.0,
                  1e3 * (math.atan(1e3 * (math.pi - 1.0)) + math.atan(1e3))])


def three_components(x):
    return np.stack([1e6 * np.exp(-x), np.cos(20.0 * x),
                     1.0 / (1e-6 + (x - 1.0) ** 2)], axis=1)


class TestVectorGaussKronrod:
    def test_each_component_meets_its_own_budget(self):
        abs_tol = np.array([0.0, 1e-9, 0.0])
        value, err = adaptive_gauss_kronrod(three_components, 0.0, math.pi,
                                            abs_tol=abs_tol, rel_tol=1e-11)
        assert value.shape == err.shape == (3,)
        budget = np.maximum(abs_tol, 1e-11 * np.abs(value))
        assert np.all(err <= budget)
        # plus rounding in summing the panels, a few ulps of each integral
        assert np.all(np.abs(value - EXACT) <= err + 1e-14 * np.abs(EXACT))

    def test_scalar_integrand_is_a_batch_of_one(self):
        vector, vector_err = adaptive_gauss_kronrod(
            lambda x: three_components(x)[:, 2:], 0.0, math.pi)
        scalar, scalar_err = adaptive_gauss_kronrod(
            lambda x: 1.0 / (1e-6 + (x - 1.0) ** 2), 0.0, math.pi)
        assert np.ndim(scalar) == 0 and vector.shape == (1,)
        assert scalar == pytest.approx(vector[0], rel=1e-15)
        assert scalar_err == pytest.approx(vector_err[0], rel=1e-12)

    def test_breakpoints_start_the_panels(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.exp(-x)

        value, err = adaptive_gauss_kronrod(f, 0.0, 8.0, breakpoints=[
            -1.0, 1.0, 2.0, 4.0, 8.0, 9.0])
        assert calls[0] == 4 * 15  # only breakpoints inside (a, b) count
        assert value == pytest.approx(1.0 - math.exp(-8.0), abs=err + 1e-15)

    def test_one_call_when_the_first_evaluation_meets_every_budget(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.stack([np.exp(-x), np.cos(x)], axis=1)

        value, err = adaptive_gauss_kronrod(f, 0.0, 1.0, rel_tol=1e-12,
                                            breakpoints=[0.5])
        assert calls == [2 * 15]
        assert np.all(err <= 1e-12 * np.abs(value))
        assert np.all(np.abs(value - [1.0 - math.exp(-1.0), math.sin(1.0)])
                      <= err + 1e-15)

    def test_panel_cap_reports_honest_error(self):
        def f(x):
            return np.stack([np.cos(200.0 * x), np.exp(-x)], axis=1)

        exact = np.array([math.sin(200.0) / 200.0, 1.0 - math.exp(-1.0)])
        value, err = adaptive_gauss_kronrod(f, 0.0, 1.0, rel_tol=1e-12,
                                            max_panels=6)
        budget = 1e-12 * np.abs(value)
        assert err[0] > budget[0]  # the cap is visible, not hidden
        assert np.all(np.abs(value - exact) <= err)


class TestVectorSemiInfinite:
    def test_components_match_scalar_runs(self):
        rates = np.array([0.0, 2.0, 10.0])

        def f(v):
            return np.exp((-1.0 + 1j * rates[None, :]) * v[:, None]) \
                / (1.0 + v[:, None])

        value, err = semi_infinite_oscillatory(f, rel_tol=1e-10)
        for j, a in enumerate(rates):
            alone, alone_err = semi_infinite_oscillatory(
                lambda v, a=a: np.exp((-1.0 + 1j * a) * v) / (1.0 + v),
                rel_tol=1e-10)
            assert err[j] <= 1e-10 * abs(value[j])
            assert abs(value[j] - alone) <= err[j] + alone_err

    def test_known_values(self):
        rates = np.array([0.5, 3.0])

        def f(v):
            return np.exp((-1.0 + 1j * rates[None, :]) * v[:, None])

        value, err = semi_infinite_oscillatory(f, rel_tol=1e-11)
        exact = 1.0 / (1.0 - 1j * rates)
        assert np.all(np.abs(value - exact) <= err + 1e-15)

    @pytest.mark.parametrize("rel_tol", [0.0, -5.0, math.nan, math.inf])
    def test_rel_tol_must_be_finite_and_positive(self, rel_tol):
        with pytest.raises(InvalidParameter):
            semi_infinite_oscillatory(lambda v: np.exp(-v), rel_tol=rel_tol)


# int_0^inf exp(i*w*v) / (1 + v)^2 dv in closed form: the amplitude decays
# like a power, so the tail closure carries the whole far field.
POWER_OMEGAS = np.array([0.01, 0.1, 1.0, 10.0])


def power_law_exact(w):
    return 1.0 + 1j * w * np.exp(-1j * w) * exp1(-1j * w)


class TestPowerLawTail:
    def test_vector_integrand(self):
        def f(v):
            return np.exp(1j * POWER_OMEGAS[None, :] * v[:, None]) \
                / (1.0 + v[:, None]) ** 2

        value, err = semi_infinite_oscillatory(f, rel_tol=1e-10)
        true_err = np.abs(value - power_law_exact(POWER_OMEGAS))
        assert np.all(true_err <= err)
        assert np.all(err <= 1e-10 * np.abs(value))

    @pytest.mark.parametrize("w", POWER_OMEGAS)
    def test_scalar_integrand(self, w):
        value, err = semi_infinite_oscillatory(
            lambda v: np.exp(1j * w * v) / (1.0 + v) ** 2, rel_tol=1e-10)
        assert abs(value - power_law_exact(w)) <= err <= 1e-10 * abs(value)

    @pytest.mark.parametrize("w", POWER_OMEGAS)
    def test_tight_tolerance_keeps_its_certificate(self, w):
        # Near the rounding floor the tail's frequency must be read without
        # bias: a central difference is off by (omega h)^2 / 6 ~ 2e-7
        # relative, which let w = 0.1 report less than its true error and
        # kept w = 10 doubling to the cap with a 1e-4 relative error.
        value, err = semi_infinite_oscillatory(
            lambda v: np.exp(1j * w * v) / (1.0 + v) ** 2, rel_tol=1e-12)
        assert abs(value - power_law_exact(w)) <= err <= 1e-10 * abs(value)


class TestTailProbes:
    """A steady phase needs no probe-only integrand call after the head:
    each tail probe rides along its segment's first call."""

    @staticmethod
    def calls(f, **kwargs):
        """Value, error, and the sizes of the integrand calls before and
        after the first one that reaches past the head."""
        sizes, reach = [], []

        def counted(v):
            sizes.append(v.size)
            reach.append(v.max())
            return f(v)

        value, err = semi_infinite_oscillatory(counted, **kwargs)
        # the head is [0, 64]
        first = next(i for i, r in enumerate(reach) if r > 1.5 * 64.0)
        return value, err, sizes[:first], sizes[first:]

    @classmethod
    def calls_after_head(cls, f, **kwargs):
        value, err, _, later = cls.calls(f, **kwargs)
        return value, err, later

    def test_each_doubling_is_one_call(self):
        # the head's first call holds its seven geometric panels and the
        # probe at V; at this tolerance each doubling's one-period panels
        # meet the budget, so each costs one call: panels plus probe
        # (a slow phase, so that the tail takes several doublings to close)
        value, err, head, later = self.calls(
            lambda v: np.exp(0.1j * v) / (1.0 + v) ** 2, rel_tol=1e-8)
        assert head[0] == 7 * 15 + 3
        assert len(later) >= 3
        assert all(size % 15 == 3 for size in later)
        assert abs(value - power_law_exact(0.1)) <= err <= 1e-8 * abs(value)

    def test_vector_integrand(self):
        def f(v):
            return np.exp(1j * POWER_OMEGAS[None, :] * v[:, None]) \
                / (1.0 + v[:, None]) ** 2

        value, err, later = self.calls_after_head(f, rel_tol=1e-10)
        # several doublings, each probing its tail in its first call
        assert sum(size % 15 == 3 for size in later) >= 3
        assert 3 not in later
        assert np.all(np.abs(value - power_law_exact(POWER_OMEGAS)) <= err)

    @pytest.mark.parametrize("w", [1.0, 0.1])
    def test_scalar_integrand(self, w):
        value, err, later = self.calls_after_head(
            lambda v: np.exp(1j * w * v) / (1.0 + v) ** 2, rel_tol=1e-10)
        assert sum(size % 15 == 3 for size in later) >= 3
        assert 3 not in later
        assert abs(value - power_law_exact(w)) <= err
