from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

import oracles
from robustness_reference import polyval_cubic, pow_series
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
    InfeasibleSliceError,
    InvalidProfileError,
    InvalidSegmentError,
    PowerModel,
    VehicleParams,
    band_from_limits,
)
from ecodrive import robustness
from ecodrive.robustness import SpeedProfile, mean_speed, perturbation_series, ratio_statistics
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


def _fresh(profile):
    """The same profile as a new object, so nothing it has cached carries over."""
    return SpeedProfile(profile.lo, profile.hi, profile.fn, profile.knots)


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

    @given(table=sample_tables())
    def test_horner_matches_polyval_bit_for_bit(self, table):
        speeds, values = table
        width = speeds[-1] - speeds[0]
        s = np.concatenate([np.linspace(speeds[0] - 0.1 * width, speeds[-1] + 0.1 * width, 301),
                            speeds])
        ours = SpeedProfile.from_samples(speeds, values)(s)
        assert ours.tobytes() == polyval_cubic(speeds, values)(s).tobytes()

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

    # the running product of the powers of dg/g rounds differently from pow;
    # the estimate's alternating sum cancels from the size of its terms, so
    # the two are compared on that scale
    @settings(max_examples=30, deadline=None)
    @given(sample=sampled_pairs())
    def test_running_product_matches_pow_powers(self, sample):
        _, g, dg = sample
        for n in (1, 2, 8):
            reference, magnitude = pow_series(g, dg, n, mean_speed(g))
            assert abs(perturbation_series(g, dg, n) - reference) <= 1e-13 * magnitude

    def test_one_quadrature_pass_for_every_term(self, accel_profile, monkeypatch):
        calls = []
        inner = robustness.adaptive_quadrature

        def counted(fn, lo, hi, knots=()):
            calls.append((lo, hi, knots))
            return inner(fn, lo, hi, knots)

        g = _fresh(accel_profile)
        mean_speed(g)
        monkeypatch.setattr(robustness, "adaptive_quadrature", counted)
        perturbation_series(g, _quadratic_bump(g, 0.3), 8)
        band = (g.lo, g.hi)
        # the knots of both profiles, which the quadrature de-duplicates
        assert calls == [(*band, band + band)]

    def test_robustness_command_makes_three_passes(self, accel_profile, monkeypatch):
        calls = []
        inner = robustness.adaptive_quadrature

        def counted(fn, lo, hi, knots=()):
            calls.append(knots)
            return inner(fn, lo, hi, knots)

        monkeypatch.setattr(robustness, "adaptive_quadrature", counted)
        g = _fresh(accel_profile)
        dg = _quadratic_bump(g, 0.3)
        # the calls of ``ecodrive robustness``: both means, then the series
        mean_speed(g)
        mean_speed(g.plus(dg))
        perturbation_series(g, dg)
        assert len(calls) == 3

    def test_mean_is_integrated_once_per_profile(self, accel_profile, monkeypatch):
        calls = []
        inner = robustness.adaptive_quadrature

        def counted(fn, lo, hi, knots=()):
            calls.append(fn)
            return inner(fn, lo, hi, knots)

        monkeypatch.setattr(robustness, "adaptive_quadrature", counted)
        g = _fresh(accel_profile)
        mean = mean_speed(g)
        assert len(calls) == 1
        perturbation_series(g, _quadratic_bump(g, 0.3))
        perturbation_series(g, _quadratic_bump(g, 0.1), 4)
        # one pass for each series, none for the mean again
        assert len(calls) == 3
        assert mean_speed(g) == mean and len(calls) == 3
        # a profile with the same fields is a new profile, integrated again
        assert mean_speed(_fresh(g)) == mean and len(calls) == 4

    def test_benchmark_call_order_makes_three_passes(self, monkeypatch):
        # the robustness request of perfbench: sampled profiles, every name
        # looked up on the module, and the series left to find the mean itself
        counts = {"adaptive_quadrature": 0, "mean_speed": 0, "perturbation_series": 0}
        for name in counts:
            def counted(*args, _inner=getattr(robustness, name), _name=name):
                counts[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(robustness, name, counted)
        s = np.linspace(6.0, 8.0, 33)
        g_values = 0.5 - 0.005 * s * s
        g = robustness.SpeedProfile.from_samples(s, g_values)
        dg = robustness.SpeedProfile.from_samples(s, 0.2 * g_values * ((s - 6.0) / 2.0) ** 2)
        robustness.mean_speed(g)
        robustness.mean_speed(g.plus(dg))
        robustness.perturbation_series(g, dg, 8)
        robustness.ratio_statistics(g, dg)
        assert counts == {"adaptive_quadrature": 3, "mean_speed": 3, "perturbation_series": 1}

    @pytest.mark.parametrize("n_terms", [0, -1, 2.5, 3.0, True, False, "8", None])
    def test_n_terms_must_be_an_integer_of_at_least_one(self, accel_profile, n_terms):
        dg = _quadratic_bump(accel_profile, 0.3)
        with pytest.raises(ValueError, match="n_terms"):
            perturbation_series(accel_profile, dg, n_terms)

    def test_each_profile_is_validated_once(self, accel_profile):
        g_sizes, dg_sizes = [], []

        def counted(profile, sizes):
            def fn(s):
                sizes.append(s.size)
                return profile(s)

            return SpeedProfile(profile.lo, profile.hi, fn)

        g = counted(accel_profile, g_sizes)
        dg = counted(_quadratic_bump(accel_profile, 0.3), dg_sizes)
        # the robustness command's calls, the series reading g's cached mean
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


class TestBandCycle:
    """A band's cycle is one speed profile: up at f_on and down at f_off, dt = ds/f_on -
    ds/f_off = ds/g with g = -f_on f_off / f1, so ``mean_speed(g)`` is the band's average,
    which ``band_from_limits`` gives in closed form.

    The slopes stop at 0.015, where the top equilibrium is 6 m/s or more above the wind, and
    the band's ends keep 5 % of the room from either rest speed: on a crawl slice and near
    the top, the closed form's own legs round to 1e-13 relative and beyond.
    """

    SLICES = dict(
        signed=st.booleans(),
        wind=st.floats(-2.0, 2.0),
        slope=st.floats(-0.02, 0.015),
        u_a=st.floats(0.05, 0.95),
        u_b=st.floats(0.05, 0.95),
    )

    @staticmethod
    def band(signed, wind, slope, u_a, u_b, drag=1.0):
        """The band between the fractions u_a and u_b of the room on a slice, in either order,
        and the same band on the slice whose drag coefficient is ``drag`` times the default."""
        u_a, u_b = sorted((u_a, u_b))
        assume(u_a < u_b)
        try:
            frozen, wrong = (
                FrozenDynamics.from_conditions(
                    VehicleParams(drag_coeff=k * VehicleParams().drag_coeff, signed_drag=signed),
                    PowerModel(), slope, wind,
                )
                for k in (1.0, drag)
            )
            v_a, v_b = (frozen.v_low + u * (frozen.v_high - frozen.v_low) for u in (u_a, u_b))
            bands = band_from_limits(frozen, v_a, v_b), band_from_limits(wrong, v_a, v_b)
        except (InfeasibleSliceError, InvalidSegmentError):
            assume(False)
        return frozen, wrong, bands

    @staticmethod
    def cycle(frozen, v_a, v_b):
        """The cycle's profile g on [v_a, v_b], with a knot at the kink v = w of signed drag."""
        on, off = (acceleration_profile(frozen, mode, v_a, v_b) for mode in (True, False))
        w, f1 = frozen.wind_speed, frozen.params.traction
        knots = (v_a, w, v_b) if frozen.params.signed_drag and v_a < w < v_b else ()
        return SpeedProfile(v_a, v_b, lambda s: -on(s) * off(s) / f1, knots)

    @settings(max_examples=200, deadline=None)
    @given(**SLICES)
    def test_mean_speed_of_the_cycle_is_the_band_average(self, signed, wind, slope, u_a, u_b):
        frozen, _, (band, _) = self.band(signed, wind, slope, u_a, u_b)
        g = self.cycle(frozen, band.lower, band.upper)
        assert mean_speed(g) == pytest.approx(band.avg_speed, rel=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(**SLICES, drag=st.floats(0.8, 1.2))
    def test_series_under_a_drag_error_is_within_its_remainder(
        self, signed, wind, slope, u_a, u_b, drag
    ):
        # the series of depth n misses the shift by its remainder, at most
        # (v_b - v_a) r^(n+1) / (1 - r) with r = sup|dg/g|
        frozen, wrong, (band, shifted) = self.band(signed, wind, slope, u_a, u_b, drag)
        v_a, v_b = band.lower, band.upper
        g, g_wrong = self.cycle(frozen, v_a, v_b), self.cycle(wrong, v_a, v_b)
        dg = replace(g, fn=lambda s: g_wrong(s) - g(s))
        grid = np.linspace(v_a, v_b, 4097)
        r = float(np.max(np.abs(dg(grid) / g(grid))))
        assume(r < 0.95)
        bound = (v_b - v_a) * r**13 / (1.0 - r) + 1e-13 * band.avg_speed
        exact = shifted.avg_speed - band.avg_speed
        assert abs(perturbation_series(g, dg, 12) - exact) <= bound
