import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

import oracles
from segments import (
    SpeedSegment,
    acceleration_profile,
    covered_length,
    elapsed_time,
    proportional_invariance_check,
    scaled,
)
from ecodrive import (
    DivergenceRiskError,
    FrozenDynamics,
    InvalidProfileError,
    PowerModel,
    SpeedProfile,
    VehicleParams,
    mean_speed,
    perturbation_series,
    ratio_statistics,
)
from ecodrive import robustness
from ecodrive.quadrature import adaptive_quadrature


@pytest.fixture(scope="module")
def accel_profile():
    frozen = FrozenDynamics.from_conditions(VehicleParams(), PowerModel())
    return acceleration_profile(frozen, True, 6.1, 7.94)


def series_term_by_term(g, dg, n_terms, knots):
    """The series with one adaptive pass per term, each summed over the pieces between knots.

    Splitting at a sampled profile's knots keeps every piece's integrand smooth,
    so each piece is integrated to the loop's rule; knots (lo, hi) give one pass.
    """

    def integral(fn):
        return sum(adaptive_quadrature(fn, a, b) for a, b in zip(knots, knots[1:]))

    mean = mean_speed(g)
    perturbed_duration = integral(lambda s: 1.0 / (g(s) + dg(s)))
    total = 0.0
    for n in range(1, n_terms + 1):
        term = integral(lambda s: (s - mean) / g(s) * (dg(s) / g(s)) ** n)
        total += term if n % 2 == 0 else -term
    return total / perturbed_duration


@st.composite
def sampled_pairs(draw):
    """33-point monotone-cubic g on a random band and a non-proportional dg, |dg/g| <= 0.3."""
    lo = draw(st.floats(0.5, 15.0))
    width = draw(st.floats(0.2, 8.0))
    speeds = np.linspace(lo, lo + width, 33)
    x = (speeds - lo) / width
    level = draw(st.floats(0.02, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
    slope, curve = draw(st.floats(-0.6, 0.6)), draw(st.floats(-0.3, 0.3))
    g = level * (1.0 + slope * x + curve * x * x)
    amp = draw(st.floats(0.01, 0.3))
    cycles, phase = draw(st.floats(0.3, 2.0)), draw(st.floats(0.0, 2.0 * np.pi))
    dg = g * amp * np.sin(2.0 * np.pi * cycles * x + phase)
    return speeds, SpeedProfile.from_samples(speeds, g), SpeedProfile.from_samples(speeds, dg)


@st.composite
def sample_tables(draw):
    """2 to 12 samples: uneven spacing, flat runs and slope sign changes."""
    n = draw(st.sampled_from([2, 3]) | st.integers(4, 12))
    gaps = draw(st.lists(st.floats(0.01, 3.0), min_size=n - 1, max_size=n - 1))
    speeds = draw(st.floats(0.0, 20.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    level = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-10.0, 10.0)
    values = np.array(draw(st.lists(level, min_size=n, max_size=n)))
    return speeds, values


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
        assert mean_speed(scaled(accel_profile, 3.0)) == pytest.approx(
            mean_speed(accel_profile), rel=1e-12
        )

    @given(factor=st.floats(min_value=0.05, max_value=20.0))
    def test_scale_invariance_property(self, factor):
        frozen = FrozenDynamics.from_conditions(VehicleParams(), PowerModel())
        g = acceleration_profile(frozen, True, 6.1, 7.94)
        assert abs(mean_speed(scaled(g, factor)) - mean_speed(g)) <= 1e-10

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

    @settings(max_examples=30, deadline=None)
    @given(sample=sampled_pairs())
    def test_sampled_mean_matches_quad_knot_by_knot(self, sample):
        knots, g, dg = sample

        def reference(profile):
            pieces = list(zip(knots, knots[1:]))
            duration = sum(quad(lambda s: 1.0 / profile(s), a, b, epsabs=0.0, epsrel=1e-13)[0]
                           for a, b in pieces)
            distance = sum(quad(lambda s: s / profile(s), a, b, epsabs=0.0, epsrel=1e-13)[0]
                           for a, b in pieces)
            return distance / duration

        for profile in (g, g.plus(dg)):
            assert mean_speed(profile) == pytest.approx(reference(profile), rel=1e-10)


class TestMonotoneCubic:
    @given(table=sample_tables())
    def test_matches_scipy_pchip(self, table):
        speeds, values = table
        ours = SpeedProfile.from_samples(speeds, values)
        with np.errstate(over="ignore"):  # scipy overflows dividing by subnormal secants
            reference = PchipInterpolator(speeds, values, extrapolate=False)
        s = np.concatenate([np.linspace(speeds[0], speeds[-1], 301), speeds])
        scale = max(float(np.max(np.abs(values))), 1.0)
        assert np.max(np.abs(ours(s) - reference(s))) <= 1e-14 * scale
        assert (ours.lo, ours.hi) == (speeds[0], speeds[-1])

    def test_nan_off_the_band(self):
        profile = SpeedProfile.from_samples([6.0, 7.0, 8.0], [0.1, 0.08, 0.05])
        inside = profile(np.array([6.0, 7.0, 8.0]))
        assert inside.tolist() == pytest.approx([0.1, 0.08, 0.05], rel=1e-15)
        assert np.isnan(profile(np.array([6.0 - 1e-12, 8.0 + 1e-12, np.nan]))).all()

    def test_knots_are_kept_and_merged(self):
        g = SpeedProfile.from_samples([6.0, 6.5, 7.0, 8.0], [0.1, 0.09, 0.08, 0.05])
        dg = SpeedProfile.from_samples([6.0, 7.5, 8.0], [0.01, 0.0, -0.01])
        smooth = SpeedProfile(6.0, 8.0, lambda s: 0.01 * s)
        assert g.knots == (6.0, 6.5, 7.0, 8.0)
        assert smooth.knots == (6.0, 8.0)
        assert scaled(g, 2.0).knots == g.knots
        assert g.plus(dg).knots == (6.0, 6.5, 7.0, 7.5, 8.0)
        assert g.plus(smooth).knots == g.knots
        assert smooth.plus(dg).knots == dg.knots


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
        dg = scaled(accel_profile, 0.25)
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

    def test_shared_panels_match_one_pass_per_term(self, accel_profile):
        dg = _quadratic_bump(accel_profile, 0.3)
        knots = (accel_profile.lo, accel_profile.hi)
        for n in (1, 2, 4, 8):
            assert perturbation_series(accel_profile, dg, n) == pytest.approx(
                series_term_by_term(accel_profile, dg, n, knots), rel=1e-8, abs=1e-12
            )

    # The cubic's second derivative jumps at the knots, where the Gauss-7
    # error estimate can miss a panel's error; the shared pass starts its
    # panels on the knots, so it meets the piecewise passes on random profiles.
    @settings(max_examples=30, deadline=None)
    @given(sample=sampled_pairs())
    def test_shared_panels_match_piecewise_passes_on_sampled_profiles(self, sample):
        knots, g, dg = sample
        for n in (1, 2, 4, 8):
            assert perturbation_series(g, dg, n) == pytest.approx(
                series_term_by_term(g, dg, n, knots), rel=1e-8, abs=1e-12
            )

    def test_one_quadrature_pass_for_every_term(self, accel_profile, monkeypatch):
        calls = []
        inner = robustness.adaptive_quadrature

        def counted(fn, lo, hi, knots=()):
            calls.append((lo, hi, knots))
            return inner(fn, lo, hi, knots)

        mean = mean_speed(accel_profile)
        monkeypatch.setattr(robustness, "adaptive_quadrature", counted)
        perturbation_series(accel_profile, _quadratic_bump(accel_profile, 0.3), 8, mean=mean)
        band = (accel_profile.lo, accel_profile.hi)
        assert calls == [(*band, band)]

    def test_robustness_command_makes_three_passes(self, accel_profile, monkeypatch):
        calls = []
        inner = robustness.adaptive_quadrature

        def counted(fn, lo, hi, knots=()):
            calls.append(knots)
            return inner(fn, lo, hi, knots)

        monkeypatch.setattr(robustness, "adaptive_quadrature", counted)
        g, dg = accel_profile, _quadratic_bump(accel_profile, 0.3)
        # the calls of ``ecodrive robustness``: both means, then the series
        base = mean_speed(g)
        mean_speed(g.plus(dg))
        perturbation_series(g, dg, mean=base)
        assert len(calls) == 3

    def test_given_mean_is_not_computed_again(self, accel_profile, monkeypatch):
        dg = _quadratic_bump(accel_profile, 0.3)
        mean = mean_speed(accel_profile)
        expected = perturbation_series(accel_profile, dg)

        def refused(g):
            raise AssertionError("mean_speed called although the mean was given")

        monkeypatch.setattr(robustness, "mean_speed", refused)
        assert perturbation_series(accel_profile, dg, mean=mean) == expected

    def test_each_profile_is_validated_once(self, accel_profile):
        g_sizes, dg_sizes = [], []

        def counted(profile, sizes):
            def fn(s):
                sizes.append(s.size)
                return profile(s)

            return SpeedProfile(profile.lo, profile.hi, fn)

        g = counted(accel_profile, g_sizes)
        dg = counted(_quadratic_bump(accel_profile, 0.3), dg_sizes)
        # the robustness command's calls, the series computing its own mean
        mean_speed(g)
        mean_speed(g.plus(dg))
        perturbation_series(g, dg)
        ratio_statistics(g, dg)
        # g on its own grid and inside g + dg; dg inside g + dg and once for
        # the ratios of both the series and the statistics
        assert g_sizes.count(robustness._VALIDATION_GRID) == 2
        assert dg_sizes.count(robustness._VALIDATION_GRID) == 2

    def test_divergence_risk_rejected(self, accel_profile):
        dg = scaled(accel_profile, 1.05)
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
        dg_prop = scaled(accel_profile, 0.3)
        _, var_prop = ratio_statistics(accel_profile, dg_prop)
        assert var_prop == pytest.approx(0.0, abs=1e-15)

    def test_ratio_statistics_refuse_a_sign_change_between_grid_points(self):
        # g crosses zero between grid points, where dg/g is unbounded
        g = SpeedProfile(6.1, 7.94, lambda s: s - 7.0001)
        assert not np.any(g(np.linspace(6.1, 7.94, robustness._VALIDATION_GRID)) == 0.0)
        with pytest.raises(InvalidProfileError):
            ratio_statistics(g, scaled(g, 0.1))
