import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ecodrive import (
    DomainError,
    FrozenDynamics,
    InfeasibleSliceError,
    NumericError,
    PowerModel,
    RaceState,
    ScenarioError,
    TrackProfile,
    VehicleParams,
    WindField,
    acceleration,
    check_assumptions,
    engine_power,
    freeze,
    integrate,
    optimal_band,
)
from ecodrive.dynamics import SPEED_BRACKET_MAX, SPEED_ROOT_TOL


class TestVehicleParams:
    def test_defaults_are_reference_constants(self, params):
        assert params.drag_coeff == 6e-4
        assert params.solid_friction == 0.03
        assert params.gravity == 9.81
        assert params.traction == 0.20
        assert params.mass == 93.0
        assert params.switch_cost == 10.0

    @pytest.mark.parametrize(
        "field", ["drag_coeff", "solid_friction", "gravity", "traction", "mass", "switch_cost"]
    )
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            VehicleParams(**{field: -1.0})

    def test_rejects_traction_below_friction(self):
        with pytest.raises(ValueError, match="traction"):
            VehicleParams(traction=0.02, solid_friction=0.03)


class TestAcceleration:
    def test_flat_engine_on_from_rest(self, params, long_flat_track, zero_wind):
        # just above zero speed the full friction applies: f1 - c
        a = acceleration(0.0, 1e-9, 0.0, True, params, long_flat_track, zero_wind)
        assert a == pytest.approx(0.17, abs=1e-9)

    def test_flat_rest_engine_off_is_sticking_point(self, params, long_flat_track, zero_wind):
        # sign(0) = 0: every term vanishes exactly at rest on a flat track
        assert acceleration(0.0, 0.0, 0.0, False, params, long_flat_track, zero_wind) == 0.0

    def test_flat_coast_at_seven(self, params, long_flat_track, zero_wind):
        a = acceleration(0.0, 7.0, 0.0, False, params, long_flat_track, zero_wind)
        assert a == pytest.approx(-(6e-4 * 49.0 + 0.03), rel=1e-12)

    def test_position_outside_track_rejected(self, params, long_flat_track, zero_wind):
        with pytest.raises(DomainError):
            acceleration(-1.0, 5.0, 0.0, True, params, long_flat_track, zero_wind)
        with pytest.raises(DomainError):
            acceleration(1e9, 5.0, 0.0, True, params, long_flat_track, zero_wind)

    def test_signed_drag_flips_tailwind_push(self, long_flat_track):
        literal = VehicleParams()
        signed = VehicleParams(signed_drag=True)
        gale = WindField((0.0,), (0.0,), ((10.0,),))
        # overtaking tailwind: the literal quadratic still brakes, the signed
        # form pushes the vehicle forward
        a_lit = acceleration(0.0, 3.0, 0.0, False, literal, long_flat_track, gale)
        a_sgn = acceleration(0.0, 3.0, 0.0, False, signed, long_flat_track, gale)
        drag_mag = 6e-4 * 49.0
        assert a_lit == pytest.approx(-drag_mag - 0.03, rel=1e-12)
        assert a_sgn == pytest.approx(drag_mag - 0.03, rel=1e-12)


class TestEnginePower:
    def test_engine_off_draws_nothing(self, params, const_power, wheel_power):
        for model in (const_power, wheel_power):
            for speed in (0.0, 3.0, 7.0, 16.0):
                assert engine_power(speed, False, model, params) == 0.0

    def test_constant_electrical(self, params, const_power):
        assert engine_power(7.0, True, const_power, params) == 161.0
        assert engine_power(0.5, True, const_power, params) == 161.0

    def test_wheel_power_product(self, params, wheel_power):
        assert engine_power(7.0, True, wheel_power, params) == pytest.approx(
            7.0 * 93.0 * 0.20, rel=1e-12
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PowerModel(kind="free_energy")


class TestTrackAndWind:
    def test_flat_track_properties(self):
        track = TrackProfile.flat(1000.0, safe_speed=9.0)
        assert track.length == 1000.0
        assert track.slope_at(500.0) == 0.0
        assert track.safe_speed_at(123.0) == 9.0
        assert track.next_boundary(0.0) == 1000.0
        assert math.isinf(track.next_boundary(1000.0))

    def test_piecewise_constant_slope_and_linear_safety(self):
        track = TrackProfile((0.0, 100.0, 300.0), (0.01, -0.02, 0.0), (10.0, 20.0, 20.0))
        assert track.slope_at(0.0) == 0.01
        assert track.slope_at(99.999) == 0.01
        assert track.slope_at(100.0) == -0.02
        assert track.safe_speed_at(50.0) == pytest.approx(15.0)
        assert track.safe_speed_at(200.0) == pytest.approx(20.0)

    def test_track_validation(self):
        with pytest.raises(ScenarioError, match="no breakpoints"):
            TrackProfile((), (), ())
        with pytest.raises(ScenarioError, match="increasing"):
            TrackProfile((0.0, 50.0, 50.0), (0.0, 0.0, 0.0), (5.0, 5.0, 5.0))
        with pytest.raises(ScenarioError, match="start at arclength 0"):
            TrackProfile((1.0, 50.0), (0.0, 0.0), (5.0, 5.0))
        with pytest.raises(ScenarioError, match="positive"):
            TrackProfile((0.0, 50.0), (0.0, 0.0), (5.0, 0.0))

    def test_wind_grid_lookup_is_piecewise_constant(self):
        wind = WindField((0.0, 100.0), (0.0, 10.0), ((1.0, 2.0), (3.0, 4.0)))
        assert wind.at(0.0, 0.0) == 1.0
        assert wind.at(99.0, 9.99) == 1.0
        assert wind.at(100.0, 0.0) == 3.0
        assert wind.at(150.0, 50.0) == 4.0  # held beyond the grid
        assert wind.next_boundary_s(0.0) == 100.0
        assert wind.next_boundary_t(0.0) == 10.0

    def test_wind_validation(self):
        with pytest.raises(ScenarioError, match="rectangular"):
            WindField((0.0, 1.0), (0.0,), ((1.0,),))
        with pytest.raises(ScenarioError, match="increasing"):
            WindField((0.0, 0.0), (0.0,), ((1.0,), (2.0,)))


# -- numeric reference for the closed-form rest speeds: a sign scan for the
# last down-crossing of each mode's acceleration, refined by bisection


def _scan_last_downcrossing(fn, lo: float, hi: float, n: int = 2000):
    """Bracket of the last +/- sign change of ``fn`` on (lo, hi]."""
    xs = [lo + (hi - lo) * i / n for i in range(n + 1)]
    vals = [fn(x) for x in xs]
    bracket = None
    for a, b, fa, fb in zip(xs, xs[1:], vals, vals[1:]):
        if fa > 0.0 >= fb:
            bracket = (a, b)
    return bracket


def _bisect_down(fn, lo: float, hi: float, tol: float = SPEED_ROOT_TOL) -> float:
    """Root of ``fn`` in [lo, hi] given fn(lo) > 0 >= fn(hi)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_rest_speeds(params, slope: float, wind_speed: float) -> tuple[float, float, bool]:
    """``(v_low, v_high, v_low_is_root)`` of a slice by scan and bisection.

    Raises InfeasibleSliceError on the same rules as the slice freezer.
    """
    probe = FrozenDynamics(params, PowerModel(), slope, wind_speed, 0.0, 0.0, False)
    eps = 1e-12  # evaluate the 0+ side of the friction sign

    def f_on(x: float) -> float:
        return probe.accel(x, True)

    def f_off(x: float) -> float:
        return probe.accel(x, False)

    if f_on(SPEED_BRACKET_MAX) > 0.0:
        raise InfeasibleSliceError("engine-on acceleration has no root below the bracket")
    bracket = _scan_last_downcrossing(f_on, eps, SPEED_BRACKET_MAX)
    if bracket is None:
        raise InfeasibleSliceError("no engine-on equilibrium")
    v_high = _bisect_down(f_on, *bracket)
    if abs(f_off(eps)) <= 1e-12:
        v_low, is_root = 0.0, True
    else:
        bracket = _scan_last_downcrossing(f_off, eps, SPEED_BRACKET_MAX)
        if bracket is None:
            v_low, is_root = 0.0, False
        else:
            v_low, is_root = _bisect_down(f_off, *bracket), True
    if v_low >= v_high - SPEED_ROOT_TOL:
        raise InfeasibleSliceError("engine-off rest speed not below the equilibrium")
    return v_low, v_high, is_root


class TestFreeze:
    def test_flat_equilibria(self, flat_slice):
        assert flat_slice.v_low == 0.0
        assert not flat_slice.v_low_is_root
        assert flat_slice.v_high == pytest.approx(oracles.V_TOP, abs=1e-8)

    def test_freeze_samples_track_and_wind(self, params, const_power):
        track = TrackProfile((0.0, 100.0, 200.0), (0.0, 0.005, 0.005), (12.0, 12.0, 12.0))
        wind = WindField((0.0,), (0.0, 50.0), ((0.0, -2.0),))
        frozen = freeze(track, wind, params, const_power, 150.0, 60.0)
        assert frozen.slope == 0.005
        assert frozen.wind_speed == -2.0

    def test_headwind_lowers_top_equilibrium(self, params, const_power, flat_slice):
        windy = FrozenDynamics.from_conditions(params, const_power, wind_speed=-2.0)
        assert windy.v_high < flat_slice.v_high
        # root of -a (x + 2)^2 - c + f1: shifted by exactly the wind speed
        assert windy.v_high == pytest.approx(oracles.V_TOP - 2.0, abs=1e-8)

    def test_downhill_gives_engine_off_root(self, params, const_power):
        slope = -math.asin(0.05 / params.gravity)  # g sin(theta) = -0.05
        frozen = FrozenDynamics.from_conditions(params, const_power, slope=slope)
        assert frozen.v_low_is_root
        assert frozen.v_low == pytest.approx(math.sqrt(0.02 / 6e-4), abs=1e-8)

    def test_too_steep_climb_is_infeasible(self, params, const_power):
        slope = math.asin(0.25 / params.gravity)  # gravity beats traction
        with pytest.raises(InfeasibleSliceError):
            FrozenDynamics.from_conditions(params, const_power, slope=slope)

    def test_freeze_is_deterministic(self, params, const_power, long_flat_track, zero_wind):
        a = freeze(long_flat_track, zero_wind, params, const_power, 10.0, 5.0)
        b = freeze(long_flat_track, zero_wind, params, const_power, 10.0, 5.0)
        assert (a.v_low, a.v_high) == (b.v_low, b.v_high)

    def test_tailwind_descent_has_a_second_rest_speed(self, params, const_power):
        # unsigned drag: friction wins at 0+ because a w^2 > b_off, yet coasting
        # from the top settles where a (v - w)^2 = b_off, above the wind speed
        slope = -math.asin(0.035 / params.gravity)  # g sin(theta) = -0.035
        frozen = FrozenDynamics.from_conditions(params, const_power, slope=slope, wind_speed=4.0)
        assert frozen.accel(1e-12, False) < 0.0
        assert frozen.v_low_is_root
        assert frozen.v_low == pytest.approx(4.0 + math.sqrt(0.005 / 6e-4), abs=1e-9)
        report = check_assumptions(frozen)
        assert math.isfinite(report.inequality_lhs)
        assert math.isfinite(report.inequality_rhs)
        # two engine-off sign changes, positive acceleration below v_low
        assert report.item("forward_uniqueness").passed is False
        assert report.item("engine_off_equilibrium").passed is False
        # a target below the rest speed is reached by coasting
        band = optimal_band(frozen, 5.0)
        assert band.is_coast
        assert band.upper == 5.0

    @settings(max_examples=150, deadline=None)
    @given(
        signed=st.booleans(),
        wind=st.floats(min_value=-12.0, max_value=12.0),
        slope=st.floats(min_value=-0.04, max_value=0.04),
        traction=st.floats(min_value=0.05, max_value=0.5),
    )
    # rare under random draws: a second engine-off rest speed above the wind
    @example(signed=False, wind=4.0, slope=-0.0036, traction=0.2)
    @example(signed=False, wind=12.0, slope=-0.01, traction=0.3)
    def test_closed_form_matches_scan_reference(self, signed, wind, slope, traction):
        params = VehicleParams(traction=traction, signed_drag=signed)
        try:
            v_low, v_high, is_root = reference_rest_speeds(params, slope, wind)
        except InfeasibleSliceError:
            with pytest.raises(InfeasibleSliceError):
                FrozenDynamics.from_conditions(params, PowerModel(), slope, wind)
            return
        frozen = FrozenDynamics.from_conditions(params, PowerModel(), slope, wind)
        assert frozen.v_low_is_root == is_root
        assert abs(frozen.v_low - v_low) <= 1e-9
        assert abs(frozen.v_high - v_high) <= 1e-9

class TestCheckAssumptions:
    def test_reference_slice_passes_everything(self, flat_slice):
        report = check_assumptions(flat_slice)
        assert report.passed
        assert all(item.passed for item in report.items)
        assert report.convexity_verdict == "strictly_concave"

    def test_switching_inequality_sides(self, flat_slice):
        # constant power makes the left integral vanish: lhs is just alpha
        report = check_assumptions(flat_slice)
        assert report.inequality_lhs == pytest.approx(10.0, abs=1e-6)
        up, down = oracles.expansion_moments()
        assert report.inequality_rhs == pytest.approx(
            (161.0 / oracles.V_TOP) * (up + down), rel=1e-6
        )

    def test_concavity_matches_closed_form(self, flat_slice):
        # F(x) = 161 (-a x^2 - c) / f1 has second derivative -2*161*a/f1 < 0
        second = -2.0 * 161.0 * 6e-4 / 0.20
        assert second < 0.0
        assert check_assumptions(flat_slice).convexity_verdict == "strictly_concave"

    def test_affine_tradeoff_is_neither(self, params, const_power, flat_slice):
        class AffineTradeoffSlice(FrozenDynamics):
            # h(x,1) = (2 + x)/(a x^2 + c) makes F(x) = -(2 + x)/f1 affine
            def power_grid(self, x2):
                return (2.0 + x2) / (6e-4 * x2 * x2 + 0.03)

            def engine_power_at(self, x2):
                return (2.0 + x2) / (6e-4 * x2 * x2 + 0.03)

        slice_ = AffineTradeoffSlice(
            params, const_power, 0.0, 0.0, flat_slice.v_low, flat_slice.v_high, False
        )
        assert check_assumptions(slice_).convexity_verdict == "neither"


class TestIntegrate:
    def test_sticking_is_a_fixed_point(self, params, const_power, long_flat_track, zero_wind):
        state = RaceState(0.0, 10.0, 0.0, False, 0, 0.0)
        out = integrate(state, False, 1.0, long_flat_track, zero_wind, params, const_power)
        assert out.speed == 0.0
        assert out.position == 10.0
        assert out.energy == 0.0

    def test_acceleration_time_matches_closed_form(
        self, params, const_power, long_flat_track, zero_wind
    ):
        state = RaceState(0.0, 0.0, 0.0, True, 0, 0.0)
        prev = state
        while state.speed < 7.0:
            prev = state
            state = integrate(state, True, 1e-3, long_flat_track, zero_wind, params, const_power)
        frac = (7.0 - prev.speed) / (state.speed - prev.speed)
        t_cross = prev.t + frac * 1e-3
        assert t_cross == pytest.approx(oracles.time_up(0.0, 7.0), rel=1e-3)

    def test_coast_time_matches_closed_form(
        self, params, const_power, long_flat_track, zero_wind
    ):
        state = RaceState(0.0, 0.0, 7.94, False, 0, 0.0)
        prev = state
        while state.speed > 6.1:
            prev = state
            state = integrate(state, False, 1e-3, long_flat_track, zero_wind, params, const_power)
        frac = (6.1 - prev.speed) / (state.speed - prev.speed)
        assert prev.t + frac * 1e-3 == pytest.approx(oracles.time_down(7.94, 6.1), rel=1e-3)
        x_cross = prev.position + frac * (state.position - prev.position)
        assert x_cross == pytest.approx(oracles.dist_down(7.94, 6.1), rel=1e-3)

    def test_energy_accumulates_constant_power(
        self, params, const_power, long_flat_track, zero_wind
    ):
        state = RaceState(0.0, 0.0, 2.0, True, 0, 0.0)
        out = integrate(state, True, 5.0, long_flat_track, zero_wind, params, const_power)
        assert out.energy == pytest.approx(161.0 * 5.0, rel=1e-9)

    def test_non_finite_state_raises(self, params, const_power, long_flat_track, zero_wind):
        bad = RaceState(0.0, 0.0, math.nan, True, 0, 0.0)
        with pytest.raises(NumericError):
            integrate(bad, True, 1e-3, long_flat_track, zero_wind, params, const_power)

    def test_step_splits_at_slope_change(self, params, const_power, zero_wind):
        # crossing onto a climb mid-step must apply the new slope after the
        # breakpoint: compare against a fine-stepped reference
        track = TrackProfile((0.0, 10.0, 1000.0), (0.0, 0.01, 0.01), (50.0, 50.0, 50.0))
        state = RaceState(0.0, 9.9995, 7.0, True, 0, 0.0)
        coarse = integrate(state, True, 0.1, track, zero_wind, params, const_power)
        fine = state
        for _ in range(1000):
            fine = integrate(fine, True, 1e-4, track, zero_wind, params, const_power)
        assert coarse.speed == pytest.approx(fine.speed, abs=1e-6)
        assert coarse.position == pytest.approx(fine.position, abs=1e-6)

    def test_dt_must_be_positive(self, params, const_power, long_flat_track, zero_wind):
        state = RaceState(0.0, 0.0, 1.0, True, 0, 0.0)
        with pytest.raises(ValueError):
            integrate(state, True, 0.0, long_flat_track, zero_wind, params, const_power)


class TestModeStructure:
    @given(speed=st.floats(min_value=0.0, max_value=16.8))
    def test_engine_on_accelerates_harder(self, speed):
        frozen = FrozenDynamics.from_conditions(VehicleParams(), PowerModel())
        assert frozen.accel(speed, True) > frozen.accel(speed, False)

    def test_mode_ordering_on_dense_grid(self, flat_slice):
        xs = np.linspace(flat_slice.v_low, flat_slice.v_high, 500)
        gap = flat_slice.accel_grid(xs, True) - flat_slice.accel_grid(xs, False)
        assert np.all(gap > 0.0)

    @settings(max_examples=20, deadline=None)
    @given(start=st.floats(min_value=0.5, max_value=16.0))
    def test_monotone_approach_to_equilibria(self, start):
        params = VehicleParams()
        power = PowerModel()
        track = TrackProfile.flat(1e6, 50.0)
        wind = WindField.zero()
        frozen = FrozenDynamics.from_conditions(params, power)
        state = RaceState(0.0, 0.0, start, True, 0, 0.0)
        speeds = [start]
        for _ in range(200):
            state = integrate(state, True, 0.05, track, wind, params, power)
            speeds.append(state.speed)
        assert all(b > a for a, b in zip(speeds, speeds[1:]))
        assert speeds[-1] < frozen.v_high
        state = RaceState(0.0, 0.0, start, False, 0, 0.0)
        speeds = [start]
        for _ in range(200):
            state = integrate(state, False, 0.05, track, wind, params, power)
            speeds.append(state.speed)
        assert all(b <= a for a, b in zip(speeds, speeds[1:]))
        assert speeds[-1] >= frozen.v_low

    def test_energy_is_nondecreasing_along_mixed_trajectory(
        self, params, const_power, long_flat_track, zero_wind
    ):
        state = RaceState(0.0, 0.0, 0.0, True, 0, 0.0)
        energies = [0.0]
        for k in range(300):
            on = (k // 50) % 2 == 0
            state = integrate(state, on, 0.1, long_flat_track, zero_wind, params, const_power)
            energies.append(state.energy)
        assert all(b >= a for a, b in zip(energies, energies[1:]))
