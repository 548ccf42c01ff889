import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import oracles
import quadrature_legs
import stepper
from ecodrive import (
    CONSTANT_ELECTRICAL,
    WHEEL_POWER,
    DomainError,
    ExpansionInapplicableError,
    FrozenDynamics,
    InfeasibleSliceError,
    Leg,
    NumericError,
    PowerModel,
    RaceState,
    ScenarioError,
    TrackProfile,
    VehicleParams,
    WindField,
    asymptotic_average_cost,
    band_from_limits,
    check_assumptions,
    engine_power,
    freeze,
    optimal_band,
)
from ecodrive.dynamics import (
    ENDPOINT_MATCH_TOL,
    SPEED_BRACKET_MAX,
    SPEED_ROOT_TOL,
    engine_energy,
    increasing_root,
)


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


def _accel(x1, x2, t, engine_on, params, track, wind):
    """Acceleration at position x1, speed x2 and time t, through the frozen slice."""
    return freeze(track, wind, params, PowerModel(), x1, t).accel(x2, engine_on)


class TestAcceleration:
    def test_flat_engine_on_from_rest(self, params, long_flat_track, zero_wind):
        # just above zero speed the full friction applies: f1 - c
        a = _accel(0.0, 1e-9, 0.0, True, params, long_flat_track, zero_wind)
        assert a == pytest.approx(0.17, abs=1e-9)

    def test_flat_rest_engine_off_is_sticking_point(self, params, long_flat_track, zero_wind):
        # sign(0) = 0: every term vanishes exactly at rest on a flat track
        assert _accel(0.0, 0.0, 0.0, False, params, long_flat_track, zero_wind) == 0.0

    def test_flat_coast_at_seven(self, params, long_flat_track, zero_wind):
        a = _accel(0.0, 7.0, 0.0, False, params, long_flat_track, zero_wind)
        assert a == pytest.approx(-(6e-4 * 49.0 + 0.03), rel=1e-12)

    def test_position_outside_track_rejected(self, params, long_flat_track, zero_wind):
        with pytest.raises(DomainError):
            _accel(-1.0, 5.0, 0.0, True, params, long_flat_track, zero_wind)
        with pytest.raises(DomainError):
            _accel(1e9, 5.0, 0.0, True, params, long_flat_track, zero_wind)

    def test_signed_drag_flips_tailwind_push(self, long_flat_track):
        literal = VehicleParams()
        signed = VehicleParams(signed_drag=True)
        gale = WindField((0.0,), (0.0,), ((10.0,),))
        # overtaking tailwind: the literal quadratic still brakes, the signed
        # form pushes the vehicle forward
        a_lit = _accel(0.0, 3.0, 0.0, False, literal, long_flat_track, gale)
        a_sgn = _accel(0.0, 3.0, 0.0, False, signed, long_flat_track, gale)
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
    bracket = _scan_last_downcrossing(f_off, eps, SPEED_BRACKET_MAX)
    if bracket is not None:
        v_low, is_root = _bisect_down(f_off, *bracket), True
    else:
        v_low, is_root = 0.0, abs(f_off(eps)) <= 1e-12
    if v_low >= v_high - SPEED_ROOT_TOL:
        raise InfeasibleSliceError("engine-off rest speed not below the equilibrium")
    return v_low, v_high, is_root


# (slope, wind) of an unsigned-drag slice whose engine-off acceleration
# b_off - a (v - w)^2 has the roots 0 and 2w: b_off = 0.005 = a w^2
REST_AT_ZERO_AND_2W = (math.asin(-0.035 / 9.81), math.sqrt(0.005 / 6e-4))


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

    def test_rest_speed_above_a_zero_at_rest_wins(self, params, const_power):
        # unsigned drag with a w^2 = b_off: the engine-off acceleration
        # vanishes at 0+, is positive up to 2w and settles there
        frozen = FrozenDynamics.from_conditions(params, const_power, *REST_AT_ZERO_AND_2W)
        wind = REST_AT_ZERO_AND_2W[1]
        assert frozen.accel(1.0, False) > 0.0
        assert frozen.v_low_is_root
        assert frozen.v_low == pytest.approx(2.0 * wind, abs=1e-9)
        report = check_assumptions(frozen)
        assert report.passed
        assert report.inequality_lhs == 10.0
        assert report.inequality_rhs == pytest.approx(13087.217137, rel=1e-9)

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
    @example(
        signed=False, wind=REST_AT_ZERO_AND_2W[1], slope=REST_AT_ZERO_AND_2W[0], traction=0.2
    )
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


def _model_slice(signed, wind, slope, traction, wheel):
    power = PowerModel(kind=WHEEL_POWER if wheel else CONSTANT_ELECTRICAL)
    try:
        return FrozenDynamics.from_conditions(
            VehicleParams(traction=traction, signed_drag=signed), power, slope, wind
        )
    except InfeasibleSliceError:
        assume(False)


_SLICES = dict(
    signed=st.booleans(),
    wind=st.floats(min_value=-12.0, max_value=12.0),
    slope=st.floats(min_value=-0.04, max_value=0.04),
    traction=st.floats(min_value=0.05, max_value=0.5),
    wheel=st.booleans(),
)
# a climb into a tailwind: the engine-on acceleration is negative below the
# up-crossing w - k = 1.83 m/s, inside the band (0, 14.17) of a sticking slice
INTERIOR_ROOT = dict(signed=False, wind=8.0, slope=0.015, traction=0.2, wheel=False)
# signed drag with bands across the wind speed: a sticking slice, and one
# whose engine-off rest speed lies below the wind speed
SIGNED_ACROSS_WIND = dict(signed=True, wind=4.6, slope=0.014, traction=0.2, wheel=True)
SIGNED_REST_BELOW_WIND = dict(signed=True, wind=8.0, slope=0.0, traction=0.2, wheel=False)
REST_SPEED_SLICE = dict(
    signed=False,
    wind=REST_AT_ZERO_AND_2W[1],
    slope=REST_AT_ZERO_AND_2W[0],
    traction=0.2,
    wheel=False,
)
# F'' has the sign of -sgn(v - w) under signed drag and constant power: convex
# on the band (0, 3.394) below the wind speed
STRICTLY_CONVEX = dict(signed=True, wind=10.0, slope=0.02, traction=0.2, wheel=False)
# under wheel power F'' has the sign of -(3v - 2w): it changes at 2 m/s
WHEEL_TWO_THIRDS_WIND = dict(signed=False, wind=3.0, slope=0.0, traction=0.2, wheel=True)
# the signed-drag kink at w = 0.05 lies within one step of the 200-point scan
# of the band's low end
SCAN_MISS = dict(signed=True, wind=0.05, slope=0.0, traction=0.2, wheel=False)

# the flat fixture's vehicle under wheel power on a 0.01 rad descent, where
# finite periods beat the time-sharing limit: T (cost - lead) tends to -16,022
WHEEL_DESCENT = dict(signed=False, wind=0.0, slope=-0.01, traction=0.2, wheel=True)


def near_limit_coefficient(frozen, eps=1e-7):
    """T (avg_cost - lead) of the band ``eps`` of the width inside (v_low, v_high).

    ``lead = h* (avg_speed - v_low)/(v_high - v_low)`` is the time-sharing
    cost at the band's average.  As eps -> 0 this tends to alpha + X - h* (U +
    D)/(v_high - v_low), with X, U and D the slice's moment integrals.
    """
    width = frozen.v_high - frozen.v_low
    band = band_from_limits(frozen, frozen.v_low + eps * width, frozen.v_high - eps * width)
    lead = frozen.engine_power_at(frozen.v_high) * (band.avg_speed - frozen.v_low) / width
    return band.period * (band.avg_cost - lead)


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
            (161.0 / oracles.V_TOP) * (up + down), rel=1e-9
        )

    def test_concavity_matches_closed_form(self, flat_slice):
        # F(x) = 161 (-a x^2 - c) / f1 has second derivative -2*161*a/f1 < 0
        second = -2.0 * 161.0 * 6e-4 / 0.20
        assert second < 0.0
        assert check_assumptions(flat_slice).convexity_verdict == "strictly_concave"

    def test_affine_tradeoff_is_neither(self, params, const_power, flat_slice):
        # on the model F'' never vanishes on a whole band, so the grid scan's
        # verdict is pinned on a consumption law outside it
        class AffineTradeoffSlice(quadrature_legs.GeneralLawSlice):
            # h(x,1) = (2 + x)/(a x^2 + c) makes F(x) = -(2 + x)/f1 affine
            def power_grid(self, x2):
                return (2.0 + x2) / (6e-4 * x2 * x2 + 0.03)

            def engine_power_at(self, x2):
                return (2.0 + x2) / (6e-4 * x2 * x2 + 0.03)

        slice_ = AffineTradeoffSlice(
            params, const_power, 0.0, 0.0, flat_slice.v_low, flat_slice.v_high, False
        )
        report = quadrature_legs.scan_check_assumptions(slice_)
        assert report.convexity_verdict == "neither"

    @pytest.mark.parametrize(
        "slice_kwargs,verdict",
        [
            (STRICTLY_CONVEX, "strictly_convex"),
            (SIGNED_ACROSS_WIND, "neither"),
            (WHEEL_TWO_THIRDS_WIND, "neither"),
            (SCAN_MISS, "neither"),
        ],
    )
    def test_verdicts_on_model_slices(self, slice_kwargs, verdict):
        report = check_assumptions(_model_slice(**slice_kwargs))
        assert report.convexity_verdict == verdict
        assert report.item("tradeoff_curvature").passed is (verdict != "neither")

    def test_scan_miss_fails_overall(self):
        # F is convex on (v_low + margin, w), a sliver the 200-point scan steps over
        frozen = _model_slice(**SCAN_MISS)
        assert quadrature_legs.scan_check_assumptions(frozen).passed
        report = check_assumptions(frozen)
        assert [item.name for item in report.items if not item.passed] == ["tradeoff_curvature"]

    @settings(max_examples=200, deadline=None)
    @given(**{**_SLICES, "wheel": st.just(True)})
    @example(**WHEEL_DESCENT)
    @example(**{**WHEEL_DESCENT, "slope": 0.0})
    def test_switching_inequality_has_the_sign_of_the_band_expansion(
        self, signed, wind, slope, traction, wheel
    ):
        # under wheel power the excess energy X = m f1 U is negative, and
        # lhs - rhs is the 1/T coefficient of the large-period cost
        frozen = _model_slice(signed, wind, slope, traction, wheel)
        report = check_assumptions(frozen)
        lhs, rhs = report.inequality_lhs, report.inequality_rhs
        assume(math.isfinite(lhs) and math.isfinite(rhs))
        # legs that end this close to a rest speed count as reaching it
        assume(1e-7 * (frozen.v_high - frozen.v_low) > ENDPOINT_MATCH_TOL)
        coefficient = near_limit_coefficient(frozen)
        alpha = frozen.params.switch_cost
        scale = alpha + abs(lhs - alpha) + abs(rhs)
        assert coefficient == pytest.approx(lhs - rhs, abs=1e-5 * scale)
        # lhs < rhs exactly when finite periods beat the time-sharing limit
        assume(abs(lhs - rhs) > 1e-4 * scale)
        assert (coefficient < 0.0) == (lhs < rhs)
        assert report.item("switching_cost_small").passed == (lhs < rhs)

    def test_wheel_power_on_the_flat_fixture_passes(self):
        report = check_assumptions(_model_slice(**{**WHEEL_DESCENT, "slope": 0.0}))
        assert report.inequality_lhs == pytest.approx(-21477.56, abs=0.01)
        assert report.inequality_rhs == pytest.approx(7917.797, abs=0.001)
        assert report.passed

    def test_coasting_that_balances_at_zero_plus(self, params, const_power):
        # g sin(theta) = -c and no wind: f_off(0+) = 0, and coasting only
        # approaches 0, so the down moment diverges
        for signed in (False, True):
            frozen = FrozenDynamics.from_conditions(
                replace(params, signed_drag=signed), const_power, math.asin(-0.03 / 9.81), 0.0
            )
            assert (frozen.v_low, frozen.v_low_is_root) == (0.0, True)
            report = check_assumptions(frozen)
            item = report.item("engine_off_equilibrium")
            assert item.passed is True
            assert item.witness["kind"] == "root"
            assert abs(item.witness["residual"]) <= 1e-12
            assert report.item("switching_cost_small").passed is None
            scan = quadrature_legs.scan_check_assumptions(frozen)
            assert scan.item("engine_off_equilibrium").passed is True

    @settings(max_examples=300, deadline=None)
    @given(**_SLICES)
    @example(**STRICTLY_CONVEX)
    @example(**SIGNED_ACROSS_WIND)
    @example(**WHEEL_TWO_THIRDS_WIND)
    @example(**SCAN_MISS)
    @example(**INTERIOR_ROOT)
    @example(**REST_SPEED_SLICE)
    def test_closed_form_matches_scan(self, signed, wind, slope, traction, wheel):
        frozen = _model_slice(signed, wind, slope, traction, wheel)
        closed = check_assumptions(frozen)
        scan = quadrature_legs.scan_check_assumptions(frozen)
        assert [item.name for item in closed.items] == [item.name for item in scan.items]
        for got, want in zip(closed.items, scan.items):
            if got.name == "tradeoff_curvature" and got.passed != want.passed:
                # the scan's documented miss: it reports strict curvature where
                # F'' changes sign within 3 of its steps of a band end
                assert got.witness["verdict"] == "neither" and want.passed
                assert _curvature_sign_change_near_end(frozen, steps=3.0)
                continue
            assert got.passed == want.passed, got.name
            for key, value in got.witness.items():
                assert want.witness[key] == pytest.approx(value, rel=1e-12, abs=1e-15), key
        assert (closed.inequality_lhs, closed.inequality_rhs) == (
            scan.inequality_lhs,
            scan.inequality_rhs,
        )


def _curvature_sign_change_near_end(frozen, steps):
    """Whether F'' changes sign within ``steps`` scan steps of an end of the scanned band."""
    margin = 1e-4 * (frozen.v_high - frozen.v_low)
    lo, hi = frozen.v_low + margin, frozen.v_high - margin
    step = (hi - lo) / (quadrature_legs.SCAN_POINTS - 1)
    w = frozen.wind_speed
    changes = [w] if frozen.params.signed_drag else []
    if frozen.power.kind == WHEEL_POWER:
        changes.append(2.0 * w / 3.0)
    return any(lo < v < hi and min(v - lo, hi - v) <= steps * step for v in changes)


class TestClosedFormSlice:
    """Sign changes and moment integrals in closed form, against the numerical references."""

    @settings(max_examples=200, deadline=None)
    @given(**_SLICES)
    @example(**SIGNED_ACROSS_WIND)
    @example(**SIGNED_REST_BELOW_WIND)
    @example(**INTERIOR_ROOT)
    @example(**REST_SPEED_SLICE)
    def test_moments_match_quadrature(self, signed, wind, slope, traction, wheel):
        frozen = _model_slice(signed, wind, slope, traction, wheel)
        closed = frozen.moment_integrals()
        try:
            ref = quadrature_legs.moment_integrals(frozen)
        except NumericError:  # a node lands on a root of f inside the band
            ref = None
        if not math.isfinite(closed[1]):
            assert ref is None or not math.isfinite(ref[1])
            return
        assert ref is not None
        for got, want in zip(closed, ref):
            assert got == pytest.approx(want, rel=1e-8)

    @settings(max_examples=300, deadline=None)
    @given(
        **_SLICES,
        engine_on=st.booleans(),
        u0=st.floats(min_value=0.0, max_value=1.0),
        u1=st.floats(min_value=0.0, max_value=1.0),
    )
    @example(**INTERIOR_ROOT, engine_on=True, u0=0.0, u1=0.5)
    @example(**SIGNED_ACROSS_WIND, engine_on=True, u0=0.1, u1=0.9)
    @example(**REST_SPEED_SLICE, engine_on=False, u0=0.0, u1=1.0)
    def test_sign_test_matches_scan(self, signed, wind, slope, traction, wheel, engine_on, u0, u1):
        frozen = _model_slice(signed, wind, slope, traction, wheel)
        width = frozen.v_high - frozen.v_low
        lo, hi = sorted((frozen.v_low + u0 * width, frozen.v_low + u1 * width))
        assume(hi - lo > 1e-3 * width)
        assert frozen.mode_changes_sign(engine_on, lo, hi) == (
            quadrature_legs.scan_mode_changes_sign(frozen, engine_on, lo, hi)
        )

    def test_divergent_down_moment_is_positive(self, params, const_power):
        # windless coasting that balances at 0+: f_off = -a s^2, so the down
        # moment -int s / f_off ds = int ds / (a s) diverges to +inf, as the
        # coast leg's distance from the top down to eps grows without bound
        slope = -math.asin(params.solid_friction / params.gravity)
        frozen = FrozenDynamics.from_conditions(params, const_power, slope)
        assert frozen.v_low == 0.0 and frozen.v_low_is_root
        assert frozen.moment_integrals()[2] == math.inf
        tails = [frozen.leg_time_distance(False, frozen.v_high, eps)[1] for eps in (1e-3, 1e-6)]
        assert 0.0 < tails[0] < tails[1]
        item = check_assumptions(frozen).item("switching_cost_small")
        assert item.passed is None
        assert item.witness["rhs"] == math.inf

    def test_interior_engine_on_root_diverges(self, params, const_power):
        frozen = FrozenDynamics.from_conditions(params, const_power, 0.015, 8.0)
        assert frozen.mode_changes_sign(True, 1.0, 3.0)
        assert not frozen.mode_changes_sign(True, 2.0, 3.0)
        assert math.isinf(frozen.moment_integrals()[1])
        item = check_assumptions(frozen).item("switching_cost_small")
        assert item.passed is None
        assert item.witness["diagnostic"] == "divergent integral"
        with pytest.raises(ExpansionInapplicableError):
            asymptotic_average_cost(frozen, 5.0, 400.0)


class TestIntegrate:
    """The exact leg primitive on the flat windless slice, against the oracle."""

    def test_sticking_is_a_fixed_point(self, params):
        rest = Leg.start(params, 0.0, 0.0, False, 0.0)
        assert rest.speed(1.0) == 0.0
        assert rest.distance(1.0) == 0.0
        assert rest.time_to(1.0) == math.inf
        # coasting reaches zero in finite time and sticks there
        coast = Leg.start(params, 0.0, 0.0, False, 7.94)
        assert coast.end_speed == 0.0
        assert coast.end_time == pytest.approx(oracles.time_down(7.94, 0.0), rel=1e-9)
        assert coast.speed(coast.end_time) == pytest.approx(0.0, abs=1e-9)
        assert _stuck(Leg.start(params, 0.0, 0.0, False, coast.end_speed))

    def test_acceleration_time_matches_closed_form(self, params):
        leg = Leg.start(params, 0.0, 0.0, True, 0.0)
        tau = leg.time_to(7.0)
        assert tau == pytest.approx(oracles.time_up(0.0, 7.0), rel=1e-9)
        assert leg.speed(tau) == pytest.approx(7.0, rel=1e-9)
        assert leg.distance(tau) == pytest.approx(oracles.dist_up(0.0, 7.0), rel=1e-9)
        assert leg.speed(10.0) == pytest.approx(oracles.speed_up_after_time(0.0, 10.0), rel=1e-9)
        # the equilibrium is only approached
        assert leg.time_to(oracles.V_TOP) == math.inf
        assert leg.end_time == math.inf

    def test_coast_time_matches_closed_form(self, params):
        leg = Leg.start(params, 0.0, 0.0, False, 7.94)
        tau = leg.time_to(6.1)
        assert tau == pytest.approx(oracles.time_down(7.94, 6.1), rel=1e-9)
        assert leg.distance(tau) == pytest.approx(oracles.dist_down(7.94, 6.1), rel=1e-9)
        assert leg.speed(10.0) == pytest.approx(
            oracles.speed_down_after_time(7.94, 10.0), rel=1e-9
        )
        assert leg.time_to(8.0) == math.inf  # behind the motion

    def test_energy_accumulates_constant_power(self, params, const_power, wheel_power):
        leg = Leg.start(params, 0.0, 0.0, True, 2.0)
        d = leg.distance(5.0)
        assert engine_energy(5.0, d, True, const_power, params) == pytest.approx(
            161.0 * 5.0, rel=1e-12
        )
        assert engine_energy(5.0, d, True, wheel_power, params) == pytest.approx(
            93.0 * 0.20 * d, rel=1e-12
        )
        assert engine_energy(5.0, d, False, const_power, params) == 0.0

    def test_non_finite_state_raises(self, params):
        with pytest.raises(NumericError):
            Leg.start(params, 0.0, 0.0, True, math.nan)

    def test_step_splits_at_slope_change(self, params, const_power, zero_wind):
        # a leg ends at the breakpoint, and the next one carries the climb's
        # law: compare with the fine-stepped midpoint reference
        track = TrackProfile((0.0, 10.0, 1000.0), (0.0, 0.01, 0.01), (50.0, 50.0, 50.0))
        flat = Leg.start(params, 0.0, 0.0, True, 7.0)
        tau = brentq(lambda h: 9.9995 + flat.distance(h) - 10.0, 0.0, 0.1)
        climb = Leg.start(params, 0.01, 0.0, True, flat.speed(tau))
        fine = RaceState(0.0, 9.9995, 7.0, True, 0, 0.0)
        for _ in range(1000):
            fine = stepper.integrate(fine, True, 1e-4, track, zero_wind, params, const_power)
        assert climb.speed(0.1 - tau) == pytest.approx(fine.speed, abs=1e-9)
        assert 10.0 + climb.distance(0.1 - tau) == pytest.approx(fine.position, abs=1e-9)

    def test_start_below_the_resolution_of_the_wind_is_rest(self, params):
        assert _stuck(Leg.start(params, 0.0, 1.0, False, 1e-300))
        # a subnormal speed still reaches rest instead of running backwards
        leg = Leg.start(params, 0.0, 0.0, False, 5e-324)
        assert leg.end_speed == 0.0 and leg.end_time < 1e-300

    def test_event_times_are_strictly_positive(self, params):
        leg = Leg.start(params, 0.0, 0.0, True, 3.0)
        assert leg.time_to(3.0) == math.inf  # an edge at the start is not ahead
        assert leg.time_to(2.0) == math.inf
        assert leg.time_to(3.0 + 1e-9) > 0.0


def _stuck(leg):
    """Whether the leg rests at zero speed for good."""
    # a leg that lifts off only up to a tiny tailwind ends there: not stuck
    return leg.v0 == 0.0 and leg.speed(1e3) == 0.0 and leg.end_time == math.inf


def _leg_conditions():
    return st.tuples(
        st.booleans(),  # signed drag
        st.sampled_from(["constant_electrical", "wheel_power"]),
        st.floats(min_value=-0.02, max_value=0.02),  # slope
        st.floats(min_value=-6.0, max_value=6.0),  # wind
        st.booleans(),  # engine on
        st.floats(min_value=0.0, max_value=16.0),  # start speed
        st.floats(min_value=0.5, max_value=8.0),  # duration
    )


def _chain(params, slope, wind, engine_on, v0, duration):
    """Legs in sequence across the v = w and sticking ends: (speed, distance, moving time)."""
    v, d, t = v0, 0.0, 0.0
    while t < duration:
        leg = Leg.start(params, slope, wind, engine_on, v)
        if _stuck(leg):
            return 0.0, d, t
        h = min(duration - t, leg.end_time)
        v = leg.end_speed if h == leg.end_time else leg.speed(h)
        d += leg.distance(h)
        t += h
    return v, d, t


class TestMidpointReference:
    """The time-stepping reference sticks at rest instead of bouncing off it."""

    @pytest.mark.parametrize("v0", [1e-6, 1e-5])
    def test_coast_from_near_rest_sticks_and_never_moves_back(self, params, const_power, v0):
        # both starts lie within 0.5 dt c of rest, so the midpoint is past it
        track = TrackProfile.flat(1e3, 50.0)
        state = RaceState(0.0, 1.0, v0, False, 0, 0.0)
        for _ in range(5):
            prev = state
            state = stepper.integrate(
                state, False, 1e-3, track, WindField.zero(), params, const_power
            )
            assert state.position >= prev.position
        assert state.speed == 0.0
        # coasting to rest from v0 covers v0^2 / (2c) to first order
        assert state.position - 1.0 == pytest.approx(
            v0 * v0 / (2.0 * params.solid_friction), rel=1e-6
        )


class TestLegAgainstReferences:
    """Chained exact legs against the midpoint stepper and the Gauss-Kronrod leg."""

    @settings(max_examples=40, deadline=None)
    @given(_leg_conditions())
    @example((True, "wheel_power", 0.0, 6.0, True, 0.0, 8.0))  # crosses v = w upward
    @example((True, "constant_electrical", 0.01, 5.0, False, 9.0, 8.0))  # down through v = w
    @example((False, "constant_electrical", 0.0, 0.0, False, 1.0, 8.0))  # ends stuck
    @example((True, "wheel_power", -0.02, 6.0, False, 0.5, 8.0))  # tailwind lifts from rest
    def test_chain_matches_references(self, conditions):
        signed, kind, slope, wind, engine_on, v0, duration = conditions
        steps = round(duration / 1e-3)
        duration = steps * 1e-3
        params = VehicleParams(signed_drag=signed)
        power = PowerModel(kind=kind)
        v, d, moving = _chain(params, slope, wind, engine_on, v0, duration)
        assert v >= 0.0 and d >= 0.0

        track = TrackProfile((0.0, 1e6), (slope, slope), (50.0, 50.0))
        steady = WindField((0.0,), (0.0,), ((wind,),))
        state = RaceState(0.0, 1.0, v0, engine_on, 0, 0.0)
        for _ in range(steps):
            state = stepper.integrate(state, engine_on, 1e-3, track, steady, params, power)
        assert v == pytest.approx(state.speed, abs=1e-6)
        assert d == pytest.approx(state.position - 1.0, abs=1e-5)
        energy = engine_energy(duration, d, engine_on, power, params)
        assert energy == pytest.approx(
            state.energy, rel=1e-6, abs=params.mass * params.traction * 1e-5
        )

        if abs(v - v0) > 1e-3:
            frozen = FrozenDynamics(params, power, slope, wind, 0.0, 1.0, False)
            t_ref, d_ref = quadrature_legs.leg_time_distance(frozen, engine_on, v0, v)
            assert moving == pytest.approx(t_ref, rel=1e-8)
            assert d == pytest.approx(d_ref, rel=1e-8)


class TestModeStructure:
    @given(speed=st.floats(min_value=0.0, max_value=16.8))
    def test_engine_on_accelerates_harder(self, speed):
        frozen = FrozenDynamics.from_conditions(VehicleParams(), PowerModel())
        assert frozen.accel(speed, True) > frozen.accel(speed, False)

    def test_mode_ordering_on_dense_grid(self, flat_slice):
        xs = np.linspace(flat_slice.v_low, flat_slice.v_high, 500)
        law = quadrature_legs.general_law(flat_slice)
        gap = law.accel_grid(xs, True) - law.accel_grid(xs, False)
        assert np.all(gap > 0.0)

    @settings(max_examples=20, deadline=None)
    @given(start=st.floats(min_value=0.5, max_value=16.0))
    def test_monotone_approach_to_equilibria(self, start):
        params = VehicleParams()
        frozen = FrozenDynamics.from_conditions(params, PowerModel())
        on = Leg.start(params, 0.0, 0.0, True, start)
        speeds = [on.speed(0.05 * k) for k in range(201)]
        assert all(b > a for a, b in zip(speeds, speeds[1:]))
        assert speeds[-1] < frozen.v_high
        off = Leg.start(params, 0.0, 0.0, False, start)
        speeds = [off.speed(min(0.05 * k, off.end_time)) for k in range(201)]
        assert all(b <= a for a, b in zip(speeds, speeds[1:]))
        assert speeds[-1] >= frozen.v_low

    def test_energy_is_nondecreasing_along_mixed_trajectory(self, params, const_power):
        speed, energy = 0.0, 0.0
        energies = [0.0]
        for k in range(6):
            on = k % 2 == 0
            leg = Leg.start(params, 0.0, 0.0, on, speed)
            energy += engine_energy(5.0, leg.distance(5.0), on, const_power, params)
            speed = leg.speed(5.0)
            energies.append(energy)
        assert all(b >= a for a, b in zip(energies, energies[1:]))
        assert energies[-1] == pytest.approx(3 * 161.0 * 5.0, rel=1e-12)


def _bisection_root(value, lo: float, hi: float) -> float:
    """Root of an increasing ``value`` by halving [lo, hi] down to adjacent floats."""
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if value(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestIncreasingRoot:
    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(min_value=0.01, max_value=10.0),
        b=st.floats(min_value=0.0, max_value=5.0),
        c=st.floats(min_value=0.0, max_value=10.0),
        shift=st.floats(min_value=-50.0, max_value=50.0),
        lo=st.floats(min_value=-6.0, max_value=6.0),
        width=st.floats(min_value=1e-6, max_value=12.0),
        start=st.floats(min_value=-20.0, max_value=20.0),
    )
    # a start below the bracket and the root above it: both ends evaluated
    @example(1.0, 0.0, 0.0, 3.0, 0.0, 1.0, -5.0)
    # a start above the bracket and the root below it
    @example(1.0, 1.0, 1.0, -30.0, 0.0, 2.0, 9.0)
    # Newton's steps on x + 2.9 tanh(x) from 3 alternate about the root at 0
    # and hardly shrink: unguarded, 100 iterations end near +-2.416
    @example(0.796875, 0.0, 2.3125, 0.0, -3.0, 6.0, 3.0)
    def test_matches_bisection(self, a, b, c, shift, lo, width, start):
        hi = lo + width

        def value(x):
            return a * x + b * x**3 + c * math.tanh(x) - shift

        def fn(x):
            return value(x), a + 3.0 * b * x * x + c / math.cosh(x) ** 2

        calls = []

        def recording(x):
            calls.append(x)
            return fn(x)

        root = _bisection_root(value, -(abs(shift) / a + 1.0), abs(shift) / a + 1.0)
        x = increasing_root(recording, lo, hi, start)
        # the root, or the end of the bracket nearest to it
        assert lo <= x <= hi
        assert x == pytest.approx(min(max(root, lo), hi), abs=1e-9 * (1.0 + abs(root)))
        if x in (lo, hi) and not lo < root < hi:
            assert x in calls
        # an end is evaluated only as the clipped start or where a Newton
        # step from the previous iterate would leave through it
        for k, end in enumerate(calls):
            if end not in (lo, hi) or k == 0:
                continue
            v, slope = fn(calls[k - 1])
            step = calls[k - 1] - v / slope
            assert step <= lo if end == lo else step >= hi
        if not lo <= start <= hi:
            assert calls[0] == (lo if start < lo else hi)

    def test_newton_inside_the_bracket_never_evaluates_an_end(self):
        calls = []

        def fn(x):
            calls.append(x)
            return x**3 + x - 1.0, 3.0 * x * x + 1.0

        x = increasing_root(fn, 0.0, 2.0, 1.0)
        assert x == pytest.approx(0.6823278038280193, abs=1e-15)
        assert 0.0 not in calls and 2.0 not in calls
        assert len(calls) <= 6

    def test_end_beyond_which_the_root_lies_is_returned(self):
        assert increasing_root(lambda x: (x - 3.0, 1.0), 0.0, 1.0, 0.5) == 1.0
        assert increasing_root(lambda x: (x + 3.0, 1.0), 0.0, 1.0, 0.5) == 0.0
        assert increasing_root(lambda x: (x - 1.0, 1.0), 0.0, 1.0, 5.0) == 1.0

    def test_flat_slope_bisects(self):
        x = increasing_root(lambda x: (math.copysign(1.0, x - 0.3), 0.0), 0.0, 1.0, 0.5)
        assert x == pytest.approx(0.3, abs=1e-11)

    def test_iteration_cap(self):
        # bisection would need about 106 halvings to reach the tolerance
        with pytest.raises(NumericError, match="100 iterations"):
            increasing_root(lambda x: (x - 1e-3, 0.0), -1e20, 1e20, 0.0)
        with pytest.raises(NumericError, match="NaN"):
            increasing_root(lambda x: (math.nan, 1.0), 0.0, 1.0, 0.5)
