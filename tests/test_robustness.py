import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from segments import acceleration_profile, covered_length, elapsed_time
from ecodrive import (
    DivergenceRiskError,
    FrozenDynamics,
    InvalidProfileError,
    PowerModel,
    SpeedProfile,
    SpeedSegment,
    VehicleParams,
    mean_speed,
    perturbation_series,
    proportional_invariance_check,
    ratio_statistics,
)
from ecodrive.quadrature import adaptive_quadrature


@pytest.fixture(scope="module")
def accel_profile():
    frozen = FrozenDynamics.from_conditions(VehicleParams(), PowerModel())
    return acceleration_profile(frozen, True, 6.1, 7.94)


def _quadratic_bump(g, magnitude):
    """Perturbation with a nonconstant ratio: magnitude * ((s-lo)/(hi-lo))^2."""
    lo, hi = g.lo, g.hi
    return SpeedProfile(lo, hi, lambda s: magnitude * g(s) * ((s - lo) / (hi - lo)) ** 2)


class TestMeanSpeed:
    def test_constant_profile_gives_the_midpoint(self):
        g = SpeedProfile(6.1, 7.94, lambda s: np.full_like(s, 2.5))
        assert mean_speed(g) == pytest.approx(0.5 * (6.1 + 7.94), rel=1e-10)

    def test_acceleration_profile_matches_segment_ratio(self, accel_profile, flat_slice):
        seg = SpeedSegment(flat_slice, True, 6.1, 7.94)
        expected = covered_length(seg) / elapsed_time(seg)
        assert mean_speed(accel_profile) == pytest.approx(expected, rel=1e-10)
        assert mean_speed(accel_profile) == pytest.approx(
            oracles.dist_up(6.1, 7.94) / oracles.time_up(6.1, 7.94), rel=1e-8
        )

    def test_scaling_cancels(self, accel_profile):
        assert mean_speed(accel_profile.scaled(3.0)) == pytest.approx(
            mean_speed(accel_profile), rel=1e-12
        )

    @given(factor=st.floats(min_value=0.05, max_value=20.0))
    def test_scale_invariance_property(self, factor):
        frozen = FrozenDynamics.from_conditions(VehicleParams(), PowerModel())
        g = acceleration_profile(frozen, True, 6.1, 7.94)
        assert abs(mean_speed(g.scaled(factor)) - mean_speed(g)) <= 1e-10

    def test_vanishing_profile_rejected(self):
        g = SpeedProfile(6.1, 7.94, lambda s: s - 7.0)
        with pytest.raises(InvalidProfileError):
            mean_speed(g)

    def test_sampled_profile_interpolates_accurately(self, accel_profile):
        s = np.linspace(6.1, 7.94, 50)
        table = SpeedProfile.from_samples(s, accel_profile(s))
        assert mean_speed(table) == pytest.approx(mean_speed(accel_profile), rel=1e-6)

    def test_sample_validation(self):
        with pytest.raises(InvalidProfileError):
            SpeedProfile.from_samples([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])


class TestProportionalInvariance:
    @pytest.mark.parametrize("eps", [-0.5, -0.1, 0.3, 0.9])
    def test_residual_within_quadrature_precision(self, accel_profile, eps):
        assert proportional_invariance_check(accel_profile, eps) <= 1e-10

    def test_zero_is_exact(self, accel_profile):
        assert proportional_invariance_check(accel_profile, 0.0) == 0.0

    def test_eps_bound(self, accel_profile):
        with pytest.raises(ValueError):
            proportional_invariance_check(accel_profile, 1.0)


class TestPerturbationSeries:
    def test_zero_perturbation(self, accel_profile):
        dg = SpeedProfile(6.1, 7.94, lambda s: np.zeros_like(s))
        assert perturbation_series(accel_profile, dg) == pytest.approx(0.0, abs=1e-12)

    def test_proportional_perturbation_gives_zero_every_depth(self, accel_profile):
        dg = accel_profile.scaled(0.25)
        for n in (1, 2, 4, 8):
            assert perturbation_series(accel_profile, dg, n) == pytest.approx(0.0, abs=1e-9)

    def test_partial_sums_converge_to_the_direct_difference(self, accel_profile):
        dg = _quadratic_bump(accel_profile, 0.3)
        direct = mean_speed(accel_profile.plus(dg)) - mean_speed(accel_profile)
        residuals = [
            abs(perturbation_series(accel_profile, dg, n) - direct) for n in (1, 2, 4, 8)
        ]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] < 1e-5

    def test_residual_scales_with_perturbation_size(self, accel_profile):
        tails = []
        for magnitude in (0.1, 0.2, 0.3):
            dg = _quadratic_bump(accel_profile, magnitude)
            direct = mean_speed(accel_profile.plus(dg)) - mean_speed(accel_profile)
            tails.append(abs(perturbation_series(accel_profile, dg, 3) - direct))
        assert tails[0] < tails[1] < tails[2]
        # residual after n terms is O(sup^(n+1)): tripling sup at n=3 should
        # scale the tail by roughly 3^4
        assert tails[2] / tails[0] > 20.0

    def test_divergence_risk_rejected(self, accel_profile):
        dg = accel_profile.scaled(1.05)
        with pytest.raises(DivergenceRiskError):
            perturbation_series(accel_profile, dg)

    def test_mismatched_bands_rejected(self, accel_profile):
        dg = SpeedProfile(6.0, 7.94, lambda s: 0.1 * np.ones_like(s))
        with pytest.raises(InvalidProfileError):
            perturbation_series(accel_profile, dg)


class TestFirstTermStructure:
    def test_centered_integrand_has_zero_mass(self, accel_profile):
        # int (s - F(g))/g ds = L - F T = 0: the identity behind proportional
        # invariance
        f_mean = mean_speed(accel_profile)
        integral = adaptive_quadrature(
            lambda s: (s - f_mean) / accel_profile(s), 6.1, 7.94
        )
        scale = adaptive_quadrature(lambda s: np.abs(s - f_mean) / accel_profile(s), 6.1, 7.94)
        assert abs(integral) <= 1e-10 * scale

    def test_ratio_statistics_report(self, accel_profile):
        dg = _quadratic_bump(accel_profile, 0.3)
        mean, var = ratio_statistics(accel_profile, dg)
        assert 0.0 < mean < 0.3
        assert var > 0.0
        dg_prop = accel_profile.scaled(0.3)
        _, var_prop = ratio_statistics(accel_profile, dg_prop)
        assert var_prop == pytest.approx(0.0, abs=1e-15)
