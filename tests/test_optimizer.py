import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

import newton_reference
import oracles
import quadrature_legs
from quadrature_legs import GeneralLawSlice, bisection_upper_limit
from ecodrive import (
    FrozenDynamics,
    GridSpec,
    InfeasibleCandidateError,
    InfeasibleSliceError,
    InfeasibleTargetError,
    PowerModel,
    VehicleParams,
    band_cost,
    band_from_limits,
    check_assumptions,
    optimal_band,
)
from ecodrive.dynamics import tradeoff_curvature
from ecodrive.errors import (
    EcodriveError,
    InvalidSegmentError,
    NumericError,
)
from ecodrive import optimizer
from ecodrive.optimizer import OscillationBand, coast_band, leg_time_distance, safety_band


class TestUpperLimit:
    """The upper limit of ``band_cost``'s band."""

    def test_reference_candidate(self, flat_slice):
        band = band_cost(flat_slice, 6.1, 7.0)
        v_b = band.upper
        assert v_b == pytest.approx(oracles.upper_for_target(6.1, 7.0), abs=1e-5)
        assert v_b == pytest.approx(7.94, abs=0.05)

    def test_collapsing_band(self, flat_slice):
        v_b = band_cost(flat_slice, 6.999, 7.0).upper
        assert 7.0 < v_b < 7.02

    def test_wider_gap_forces_higher_upper(self, flat_slice):
        v_b_low = band_cost(flat_slice, 5.0, 7.0).upper
        v_b_ref = band_cost(flat_slice, 6.1, 7.0).upper
        assert v_b_low == pytest.approx(oracles.upper_for_target(5.0, 7.0), abs=1e-5)
        assert v_b_low > v_b_ref

    def test_average_constraint_met(self, flat_slice):
        for v_a in (4.5, 5.5, 6.5):
            v_b = band_cost(flat_slice, v_a, 7.0).upper
            assert oracles.band_average(v_a, v_b) == pytest.approx(7.0, abs=1e-4)

    @pytest.mark.parametrize("v_a", [6.1, 5.0, 6.999])
    def test_newton_budget(self, flat_slice, monkeypatch, v_a):
        # Newton on the exact slope, and the band built from the legs of its
        # last iterate: at most 5 period averages of two legs each
        calls = []

        def counting(*args):
            calls.append(args)
            return leg_time_distance(*args)

        monkeypatch.setattr(optimizer, "leg_time_distance", counting)
        v_b = band_cost(flat_slice, v_a, 7.0).upper
        assert len(calls) <= 10
        assert calls[-2:] == [(flat_slice, True, v_a, v_b), (flat_slice, False, v_b, v_a)]
        assert oracles.band_average(v_a, v_b) == pytest.approx(7.0, abs=1e-6)

    def test_preconditions(self, flat_slice):
        with pytest.raises(InfeasibleCandidateError):
            band_cost(flat_slice, 7.5, 7.0)
        with pytest.raises(InfeasibleCandidateError):
            band_cost(flat_slice, -1.0, 7.0)


class TestUpperLimitOnRandomSlices:
    """The bracketed root against the Gauss-Kronrod bisection and scipy's quad."""

    SLICES = dict(
        signed=st.booleans(),
        wind=st.floats(min_value=-6.0, max_value=6.0),
        slope=st.floats(min_value=-0.02, max_value=0.02),
        wheel=st.booleans(),
        u_a=st.floats(min_value=0.02, max_value=0.98),
        u_t=st.floats(min_value=0.02, max_value=0.98),
    )
    # engine off where gravity cancels friction: b_off = 0, the rational branch
    RATIONAL_BRANCH = (False, 0.0, -math.asin(0.03 / 9.81), False, 0.3, 0.5)
    # signed drag: both legs cross the wind speed
    ACROSS_THE_WIND = (True, 4.0, 0.0, True, 0.1, 0.4)
    # the tailwind climb, with the engine-on root near 1.83 just 5e-5 above v_a
    ROOT_ABOVE_V_A = (False, 8.0, 0.015, False, 0.12899000780260775, 0.1)

    @staticmethod
    def candidate(signed, wind, slope, wheel, u_a, u_t):
        """A feasible slice, a lower speed and a target above it, from unit fractions."""
        power = PowerModel(kind="wheel_power" if wheel else "constant_electrical")
        try:
            frozen = FrozenDynamics.from_conditions(
                VehicleParams(signed_drag=signed), power, slope, wind
            )
        except InfeasibleSliceError:
            assume(False)
        v_a = frozen.v_low + u_a * (frozen.v_high - frozen.v_low)
        v_target = v_a + u_t * (frozen.v_high - v_a)
        return frozen, v_a, v_target

    @settings(max_examples=40, deadline=None)
    @given(**SLICES)
    @example(*RATIONAL_BRANCH)
    @example(*ACROSS_THE_WIND)
    @example(*ROOT_ABOVE_V_A)
    def test_meets_target_and_matches_bisection(self, signed, wind, slope, wheel, u_a, u_t):
        frozen, v_a, v_target = self.candidate(signed, wind, slope, wheel, u_a, u_t)
        tol = GridSpec().tol
        try:
            band = band_cost(frozen, v_a, v_target, tol)
        except InfeasibleCandidateError:
            with pytest.raises(InfeasibleCandidateError):
                bisection_upper_limit(frozen, v_a, v_target, tol)
            return
        v_b = band.upper
        assert abs(band_from_limits(frozen, v_a, v_b).avg_speed - v_target) <= 0.01 * tol
        assert v_b == pytest.approx(bisection_upper_limit(frozen, v_a, v_target, tol), abs=tol)
        for engine_on, v0, v1 in ((True, v_a, v_b), (False, v_b, v_a)):
            kink = [frozen.wind_speed] if signed and v_a < frozen.wind_speed < v_b else None

            def ref(weight):
                value, _ = quad(
                    lambda s: weight(s) / frozen.accel(s, engine_on),
                    v_a, v_b, points=kink, epsabs=0.0, epsrel=1e-13, limit=200,
                )
                return value if engine_on else -value

            # both lose digits to the blow-up of 1/f when v_b nears the top
            t, d = frozen.leg_time_distance(engine_on, v0, v1)
            assert t == pytest.approx(ref(lambda s: 1.0), rel=1e-10)
            assert d == pytest.approx(ref(lambda s: s), rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(**SLICES)
    @example(*RATIONAL_BRANCH)
    @example(*ACROSS_THE_WIND)
    def test_band_is_the_period_of_its_limits(self, signed, wind, slope, wheel, u_a, u_t):
        # the one pass of band_cost returns the band its root was checked on
        frozen, v_a, v_target = self.candidate(signed, wind, slope, wheel, u_a, u_t)
        try:
            band = band_cost(frozen, v_a, v_target)
        except InfeasibleCandidateError:
            assume(False)
        again = band_from_limits(frozen, v_a, band.upper)
        assert band == again  # field for field

    @settings(max_examples=60, deadline=None)
    @given(**SLICES)
    @example(False, 0.0, 0.0, False, 0.3, 0.5)  # the flat windless slice
    # the tailwind climb: the engine-on root near 1.83 lies between v_a and the target
    @example(False, 8.0, 0.015, False, 0.1, 0.1)
    @example(*ROOT_ABOVE_V_A)  # inside the closed-form test's margin
    def test_legs_reject_where_the_sign_reference_did(
        self, signed, wind, slope, wheel, u_a, u_t
    ):
        # the legs of the band (v_a, target) are infinite, or the closed-form test finds a
        # root of a mode between v_a and the top, with the margin of that band: exactly
        # there the band is infeasible for a sign change, and elsewhere its legs decide
        frozen, v_a, v_target = self.candidate(signed, wind, slope, wheel, u_a, u_t)
        v_b_max = frozen.v_high * (1.0 - optimizer.UPPER_BRACKET_MARGIN)
        assume(v_target < v_b_max)
        margin = max(1e-9, 1e-4 * (v_target - v_a))
        legs = leg_time_distance(frozen, True, v_a, v_target) + leg_time_distance(
            frozen, False, v_target, v_a
        )
        crosses = not all(map(math.isfinite, legs)) or any(
            quadrature_legs.mode_changes_sign(frozen, on, v_a, v_b_max, margin)
            for on in (True, False)
        )
        try:
            band = band_cost(frozen, v_a, v_target)
        except InfeasibleCandidateError as exc:
            assert ("sign" in str(exc)) == crosses
            return
        assert not crosses
        assert band == band_from_limits(frozen, v_a, band.upper)


class TestBandCost:
    def test_reference_cost(self, flat_slice):
        band = band_cost(flat_slice, 6.1, 7.0)
        v_b = oracles.upper_for_target(6.1, 7.0)
        t1, d, e = oracles.period(6.1, v_b)
        assert band.avg_cost == pytest.approx(e / t1, rel=1e-5)
        assert band.avg_cost == pytest.approx(48.0, abs=0.5)

    def test_zero_switch_cost_is_pure_duty_rate(self, const_power):
        free_switch = VehicleParams(switch_cost=1e-12)
        frozen = FrozenDynamics.from_conditions(free_switch, const_power)
        band = band_cost(frozen, 6.1, 7.0)
        duty = 161.0 * oracles.time_up(6.1, band.upper) / band.period
        assert band.avg_cost == pytest.approx(duty, rel=1e-6)

    def test_distinct_candidates_have_distinct_costs(self, flat_slice):
        a = band_cost(flat_slice, 6.0, 7.0)
        b = band_cost(flat_slice, 6.5, 7.0)
        assert a.avg_cost != b.avg_cost


def _recording(monkeypatch) -> list[float]:
    """Patch ``optimizer.band_cost`` to record the lower speed of every call."""
    lowers = []
    inner = optimizer.band_cost

    def recording_band_cost(frozen, v_a, v_target, tol):
        lowers.append(v_a)
        return inner(frozen, v_a, v_target, tol)

    monkeypatch.setattr(optimizer, "band_cost", recording_band_cost)
    return lowers


def _window(frozen, v_target):
    """The whole interval of lower speeds that ``optimal_band`` searches."""
    return frozen.v_low + 1e-9, v_target - 1e-9


def _residual(frozen, band, v_target):
    """The band's cost less the chord of psi through its ends, read at the target."""
    ends = band.lower, band.upper, band.period, band.distance, band.energy
    return optimizer._certificate(frozen, v_target, *ends)[0][1]


def _band_or_none(frozen, v_a, v_target):
    """``band_cost``'s band, or None where it refuses the lower speed or cannot resolve it."""
    try:
        return band_cost(frozen, float(v_a), v_target)
    except (InfeasibleCandidateError, NumericError):
        return None


def _cost(frozen, v_target):
    """The band cost as a function of the lower speed, infeasible at +inf."""

    def cost(v_a):
        band = _band_or_none(frozen, v_a, v_target)
        return math.inf if band is None else band.avg_cost

    return cost


def _reference_lower(frozen, v_target, window):
    """scipy's bounded minimiser of the band cost on the window."""
    # scipy's parabola through an infinite cost subtracts inf from inf
    with np.errstate(invalid="ignore"):
        result = minimize_scalar(
            _cost(frozen, v_target), bounds=window, method="bounded", options={"xatol": 1e-10}
        )
    return result.x


def _reference_band(frozen, v_target, points=100):
    """The cheapest band of a dense scan of lower speeds, refined around the scan's best.

    ``points`` lower speeds lie evenly over (bound, target), where the bound is the
    rest speed, and as many at geometric distances from the bound down to 1e-12 of the
    interval, which resolve optima on or near a coasting root.  Bounded Brent then
    refines between the best point's neighbours.  None when no lower speed has a band.
    """
    lo = frozen.v_low + (2e-9 if frozen.v_low_is_root else 1e-9)
    hi = v_target - 1e-9
    fractions = np.union1d(np.linspace(0.0, 1.0, points), np.logspace(-12.0, 0.0, points))
    speeds = lo + (hi - lo) * fractions
    bands = [_band_or_none(frozen, v_a, v_target) for v_a in speeds]
    costs = [math.inf if band is None else band.avg_cost for band in bands]
    k = int(np.argmin(costs))
    if bands[k] is None:
        return None
    window = speeds[max(k - 1, 0)], speeds[min(k + 1, len(speeds) - 1)]
    with np.errstate(invalid="ignore"):
        refined = minimize_scalar(
            _cost(frozen, v_target), bounds=window, method="bounded", options={"xatol": 1e-13}
        )
    band = _band_or_none(frozen, refined.x, v_target)
    return band if band is not None and band.avg_cost < bands[k].avg_cost else bands[k]


def _random_slice(signed, wind, slope, wheel, u_t):
    """A slice of the default vehicle and a target at the fraction u_t of (v_low, v_high)."""
    power = PowerModel(kind="wheel_power" if wheel else "constant_electrical")
    try:
        frozen = FrozenDynamics.from_conditions(
            VehicleParams(signed_drag=signed), power, slope, wind
        )
    except InfeasibleSliceError:
        assume(False)
    return frozen, frozen.v_low + u_t * (frozen.v_high - frozen.v_low)


RANDOM_SLICES = dict(
    signed=st.booleans(),
    wind=st.floats(min_value=-6.0, max_value=6.0),
    slope=st.floats(min_value=-0.02, max_value=0.02),
    wheel=st.booleans(),
    u_t=st.floats(min_value=0.02, max_value=0.98),
)
# slices where the certificate's residual changes sign twice along the curve, and the
# solve once converged on a maximum of the cost; from the start at the target -/+ half
# the smaller room, B's lands on a minimum dearer than the band at the rest-speed bound
SLICE_A = (False, 5.861606036418285, -0.0027050915338807345, True, 0.1791063726260202)
SLICE_B = (True, 3.6521997230320533, 0.01728215440872954, False, 0.8225653506294982)
# a strictly convex slice where the solve from the target -/+ half the room fails, and the
# root search's band lies 9.4e-7 m/s from the optimum that a start near it solves for
ROOTED_COLD = (True, -3.575646175983095, 0.014926204222576695, False, 0.9605420627769665)
# a strictly concave slice where no lower speed admits the target: both searches raise
NO_BAND = (False, 4.4182765427932225, 0.017309296880062417, False, 0.5593776430218801)


# a band to start the solve from: ``kind`` "near" is the band for the target moved by
# (u_b - 0.5) 2 %, as a replan finds the band in force; "bracket" has its edges at the
# fractions u_a and u_b of the room below and above the target; "below" and "above" have
# both edges on one side of it, and "coast" is the coast band at u_a of (v_low, v_high)
STARTS = dict(
    kind=st.sampled_from(("near", "bracket", "below", "above", "coast")),
    u_a=st.floats(min_value=0.0, max_value=1.0),
    u_b=st.floats(min_value=0.0, max_value=1.0),
)


def _start(frozen, target, kind, u_a, u_b):
    lo, hi = frozen.v_low, frozen.v_high
    if kind == "near":
        try:
            return optimal_band(frozen, target * (1.0 + 0.02 * (u_b - 0.5)))
        except EcodriveError:
            assume(False)
    if kind == "coast":
        return coast_band(lo + u_a * (hi - lo))
    lower, upper = {
        "bracket": (lo + u_a * (target - lo), target + u_b * (hi - target)),
        "below": (lo + u_a * (target - lo), target - u_b * (target - lo) * (1.0 - u_a)),
        "above": (target + u_a * (hi - target), hi - u_b * (hi - target) * (1.0 - u_a)),
    }[kind]
    return OscillationBand(lower, upper, math.nan, math.nan, math.nan, math.nan)


def _brackets(frozen, target, start):
    """Whether ``start`` passes the solve's own test: bound < lower < target < upper < top."""
    bound = frozen.v_low + (optimizer.ENDPOINT_MATCH_TOL if frozen.v_low_is_root else 0.0)
    top = frozen.v_high * (1.0 - optimizer.UPPER_BRACKET_MARGIN)
    return bound < start.lower < target < start.upper < top


def _outcome(frozen, target, start=None):
    try:
        return optimal_band(frozen, target, start=start)
    except EcodriveError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestOptimalBand:
    @pytest.mark.parametrize("target", [5.0, 7.0, 9.0])
    def test_default_search_matches_the_oracle_band(self, flat_slice, target):
        # the default search solves for the certificate's root, the oracle's
        # exact band
        band = optimal_band(flat_slice, target, v_safe=20.0)
        v_a, v_b, cost = oracles.exact_band(target)
        assert band.lower == pytest.approx(v_a, abs=1e-9)
        assert band.upper == pytest.approx(v_b, abs=1e-9)
        assert band.avg_cost == pytest.approx(cost, rel=1e-12)

    def test_refinement_never_costs_more(self, flat_slice):
        # no lower speed on a 0.05 m/s scan gives a cheaper band than the search's
        band = optimal_band(flat_slice, 7.0, v_safe=20.0)
        scan = [band_cost(flat_slice, 0.05 * k, 7.0).avg_cost for k in range(1, 140)]
        assert band.avg_cost <= min(scan)

    def test_fine_band_matches_independent_search(self, flat_slice):
        # the root search that the Newton solve falls back on, run on its own,
        # lands on the oracle's exact band too
        tol = GridSpec().tol
        for target in (5.0, 7.0, 9.0):
            band = optimizer._rooted_band(flat_slice, target, tol, None)
            v_a, v_b, cost = oracles.exact_band(target)
            # the root stops where the residual is within 1e-9 of the cost, at
            # most 64 W here; the residual's slope in the lower speed, 0.83 to
            # 0.90 W s/m at these targets, puts that within 1e-7 m/s of the
            # oracle's root
            assert band.lower == pytest.approx(v_a, abs=1e-7)
            # the upper limit follows the lower one at |dv_b/dv_a| < 1.2, and a
            # band's average misses the target by at most 0.01 tol, which moves
            # the upper limit by under 2 * 0.01 tol
            assert band.upper == pytest.approx(v_b, abs=1.2e-7 + 0.02 * tol)
            # the cost is stationary in the lower speed, so only the missed
            # average moves it, by C'(target) * 0.01 tol, where C' is the
            # chord slope, 4.9 to 8.7 W s/m at these targets
            assert band.avg_cost == pytest.approx(cost, abs=10.0 * 0.01 * tol)

    @pytest.mark.parametrize("target", [5.0, 7.0, 9.0])
    def test_exact_band_is_the_minimum_of_its_own_scan(self, target):
        # the oracle's certificate root against a 0.01 m/s scan of the cost
        # over every lower speed, both from the hand-derived closed forms
        v_a, _, cost = oracles.exact_band(target)
        scan = {}
        for k in range(1, int(target / 0.01)):
            t1, _, e = oracles.period(k * 0.01, oracles.upper_for_target(k * 0.01, target))
            scan[k * 0.01] = e / t1
        best = min(scan, key=scan.get)
        assert v_a == pytest.approx(best, abs=0.01)
        assert cost <= scan[best]
        assert abs(oracles.chord_residual(v_a, target)[0]) <= 1e-9

    def test_average_speed_constraint(self, flat_slice):
        for target in (5.0, 7.0, 9.0):
            band = optimal_band(flat_slice, target, v_safe=30.0)
            assert abs(band.avg_speed - target) <= 1e-4

    def test_safety_clamp(self, flat_slice):
        band = optimal_band(flat_slice, 7.0, v_safe=7.5)
        assert band.upper == pytest.approx(7.5)
        assert band.lower == pytest.approx(7.0)

    def test_clamped_bands_respect_safety(self, flat_slice):
        for v_safe in (6.0, 7.5, 9.0, 12.0):
            band = optimal_band(flat_slice, 7.0, v_safe=v_safe)
            assert band.upper <= v_safe + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(**RANDOM_SLICES, safe=st.floats(min_value=0.5, max_value=1.5))
    # a descent whose coasting rest speed, 16.64 m/s, lies above the target of
    # 10 m/s: a coast band at the target would top out above the safety speed of 8
    @example(False, 0.0, -0.02, False, 0.40478481423506435, 0.8)
    def test_no_band_tops_out_above_the_safety_speed(self, signed, wind, slope, wheel, u_t, safe):
        # the target is the fraction u_t of v_high, so on descents it can lie at
        # or below the rest speed, and the safety speed lies on either side of it
        frozen, _ = _random_slice(signed, wind, slope, wheel, u_t)
        target = u_t * frozen.v_high
        v_safe = safe * target
        try:
            band = optimal_band(frozen, target, v_safe)
        except (InfeasibleCandidateError, InvalidSegmentError):
            return  # no band at all: the controller's fallbacks take over
        assert band.upper <= v_safe

    def test_safety_band_tops_out_below_the_equilibrium(self, flat_slice):
        # a safety speed just under v_high is still clamped strictly below it
        v_top = flat_slice.v_high * (1.0 - 1e-6)
        band = safety_band(flat_slice, flat_slice.v_high * (1.0 - 1e-7), 0.5)
        assert band.upper == v_top
        assert band.lower == v_top - 0.5
        assert math.isfinite(band.period)

    def test_coast_band_below_rest_speed(self, params, const_power):
        slope = -math.asin(0.05 / params.gravity)
        downhill = FrozenDynamics.from_conditions(params, const_power, slope=slope)
        band = optimal_band(downhill, 4.0, v_safe=20.0)  # below v_low = 5.77
        assert band.is_coast
        assert band.avg_cost == 0.0
        assert band.energy == 0.0

    def test_target_at_or_above_equilibrium_rejected(self, flat_slice):
        with pytest.raises(InfeasibleTargetError):
            optimal_band(flat_slice, flat_slice.v_high, v_safe=30.0)

    def test_small_period_costs_blow_up(self, flat_slice):
        # any band pays one switching cost per period, so avg cost > alpha/T1
        for v_a in (6.9, 6.99, 6.999):
            band = band_cost(flat_slice, v_a, 7.0)
            assert band.avg_cost > 10.0 / band.period

    def test_cost_has_interior_minimum_over_periods(self, flat_slice):
        bands = [band_cost(flat_slice, v_a, 7.0) for v_a in (6.9, 6.5, 6.0, 5.0, 3.0, 1.0, 0.3)]
        periods = [b.period for b in bands]
        costs = [b.avg_cost for b in bands]
        assert all(b > a for a, b in zip(periods, periods[1:]))  # family is ordered
        k = costs.index(min(costs))
        assert 0 < k < len(costs) - 1
        assert costs[0] > costs[k] and costs[-1] > costs[k]

    def test_candidates_across_an_engine_on_root_are_dropped(self, params, const_power):
        # climb into a tailwind: the engine-on acceleration is negative below
        # about 1.83 m/s, so the legs of lower speeds 0.5, 1.0 and 1.5 cross
        # its root and only lower speeds above it are left
        frozen = FrozenDynamics.from_conditions(params, const_power, 0.015, 8.0)
        for v_a in (0.5, 1.0, 1.5):
            with pytest.raises(InfeasibleCandidateError, match="sign"):
                band_cost(frozen, v_a, 2.5)
        band = optimal_band(frozen, 2.5, 12.0)
        assert band.lower == pytest.approx(2.1593, abs=1e-4)
        assert band.upper == pytest.approx(2.9992, abs=1e-4)
        assert band.avg_cost == pytest.approx(157.2942, abs=1e-4)
        assert band.avg_speed == pytest.approx(2.5, abs=1e-4)

    def test_fine_candidate_within_rounding_of_the_target_is_dropped(self, monkeypatch):
        # the search ends at the target: a lower speed 2e-14 below it
        # gives a band of no width, whose average only rounding puts on
        # either side of the target
        params = VehicleParams(switch_cost=11.606590079166033, signed_drag=True)
        frozen = FrozenDynamics.from_conditions(
            params, PowerModel(kind="wheel_power"), -0.014367145702518992, -2.4915906971634723
        )
        target = 16.960964565912867
        with pytest.raises(InfeasibleCandidateError, match="rounding"):
            band_cost(frozen, 16.960964565912846, target)
        # the search stays inside the window: no candidate reaches the target
        lowers = _recording(monkeypatch)
        band = optimal_band(frozen, target, 21.587702851415912)
        assert band.avg_speed == pytest.approx(target, abs=1e-4)
        assert len(lowers) <= 30
        assert all(v_a < target - 1e-9 for v_a in lowers)

    def test_lower_speed_at_a_coasting_root_is_infeasible(self):
        # unsigned drag on a descent: v_low = 16.64 is a root of the coasting
        # law, which the down leg of a band ending there only approaches
        frozen = FrozenDynamics.from_conditions(VehicleParams(), PowerModel(), -0.02, 0.0)
        assert frozen.v_low_is_root
        with pytest.raises(InfeasibleCandidateError, match="coasting rest speed"):
            band_cost(frozen, frozen.v_low + 1e-9, 16.803898500227753)


class TestBandRefinement:
    """The band search against references that do not solve the certificate."""

    @settings(max_examples=200, deadline=None)
    @given(**RANDOM_SLICES)
    @example(False, 8.0, 0.015, False, 0.1764052399855324)  # the tailwind climb at about 2.5
    @example(True, 2.5, 0.017578125, False, 0.9609375)  # scipy's reference meets infeasible edges
    @example(False, 0.0, -0.02, False, 0.02)  # a target 0.16 m/s above a coasting root
    def test_refined_edge_matches_a_bounded_minimiser(self, signed, wind, slope, wheel, u_t):
        frozen, target = _random_slice(signed, wind, slope, wheel, u_t)
        try:
            band = optimal_band(frozen, target)
        except InfeasibleCandidateError:
            assume(False)
        assume(not band.is_coast)
        assert abs(band.avg_speed - target) <= GridSpec().tol
        reference = _reference_lower(frozen, target, _window(frozen, target))
        assert band.lower == pytest.approx(reference, abs=0.01)

    @settings(max_examples=200, deadline=None)
    @given(**RANDOM_SLICES)
    @example(*SLICE_A)
    @example(*SLICE_B)
    @example(False, 0.0, -0.005839051594760923, False, 0.004607552340057963)  # hill descent
    @example(False, 0.0, -0.02, False, 0.01951642442404552)  # optimum 2.4e-3 above a coasting root
    # where the 0.5 m/s bisection's one midpoint had no band, and the search raised
    @example(True, -2.7138833848765285, 0.016779735173859136, False, 0.9654635179869344)
    def test_band_is_no_dearer_than_the_scan(self, signed, wind, slope, wheel, u_t):
        # over the whole ranges, slices that fail check_assumptions included: no
        # lower speed of the scan and its refinement gives a cheaper band, and
        # where the scan finds a band the search finds one too
        frozen, target = _random_slice(signed, wind, slope, wheel, u_t)
        reference = _reference_band(frozen, target)
        try:
            band = optimal_band(frozen, target)
        except InfeasibleCandidateError:
            assert reference is None
            return
        assume(reference is not None)  # a coast band, or one only the search resolves
        assert band.avg_cost <= reference.avg_cost * (1.0 + 1e-9)

    def test_window_starting_in_infeasible_candidates(self, params, const_power):
        # climb into a tailwind: every lower speed below the engine-on root
        # near 1.83 is infeasible, since its legs cross the root
        frozen = FrozenDynamics.from_conditions(params, const_power, 0.015, 8.0)
        band = optimal_band(frozen, 2.5, 12.0)
        assert band.lower > 1.83
        assert abs(band.avg_speed - 2.5) <= GridSpec().tol
        assert band.lower == pytest.approx(
            _reference_lower(frozen, 2.5, _window(frozen, 2.5)), abs=0.01
        )

    def test_optimum_on_the_rest_speed_bound(self, monkeypatch):
        # a signed-drag climb whose residual is positive for every lower
        # speed: the cost rises with the lower speed, so the optimum is the
        # rest-speed bound v_low = 0, 151.6044 W; the 0.01 m/s bisection
        # stopped at 151.606 W, and a search window around the coarse winner
        # at 3.11 m/s and 152.0005 W
        frozen = FrozenDynamics.from_conditions(
            VehicleParams(signed_drag=True), PowerModel(), 0.016187839380489465, 5.575595367708736
        )
        target = 5.605044993264042
        lowers = _recording(monkeypatch)
        band = optimal_band(frozen, target)
        assert frozen.v_low == 0.0
        for v_a in lowers:
            assert _residual(frozen, band_cost(frozen, v_a, target), target) > 0.0
        assert band.lower <= frozen.v_low + 1e-6
        assert band.avg_cost == pytest.approx(151.6044, abs=1e-4)
        assert abs(band.avg_speed - target) <= GridSpec().tol

    def test_nan_target_is_refused_before_any_band(self, flat_slice, monkeypatch):
        # a NaN target used to fail 64 band evaluations before it raised
        lowers = _recording(monkeypatch)
        with pytest.raises(ValueError, match="v_target"):
            optimal_band(flat_slice, math.nan)
        assert lowers == []

    def test_optimum_cost_is_convex_in_the_target(self, flat_slice):
        # the paper's optimality claim on an autonomous slice: the cheapest
        # one-band cost C at average speed v is convex in v, so sharing time
        # between two bands never beats one band at the same average
        targets = np.linspace(0.6, 16.53, 41)
        costs = [optimal_band(flat_slice, float(v)).avg_cost for v in targets]
        second = np.diff(costs, 2) / (targets[1] - targets[0]) ** 2
        assert np.all(second > 0.0), second


    @settings(max_examples=60, deadline=None)
    @given(
        signed=st.booleans(),
        wind=st.floats(min_value=-6.0, max_value=6.0),
        slope=st.floats(min_value=-0.02, max_value=0.02),
        wheel=st.booleans(),
    )
    def test_chord_slope_is_nondecreasing_in_the_target(self, signed, wind, slope, wheel):
        # by the envelope theorem the chord slope lambda of the optimal band
        # is C'(target), so C is convex exactly where lambda is nondecreasing:
        # the paper's optimality claim for autonomous dynamics
        power = PowerModel(kind="wheel_power" if wheel else "constant_electrical")
        try:
            frozen = FrozenDynamics.from_conditions(
                VehicleParams(signed_drag=signed), power, slope, wind
            )
        except InfeasibleSliceError:
            assume(False)
        assume(check_assumptions(frozen).passed)
        interior = 1e-6  # lower speeds this far above the rest speed count as interior

        def psi(v):
            return -frozen.engine_power_at(v) * frozen.accel(v, False) / frozen.params.traction

        slopes = []
        for k in range(1, 25):
            target = frozen.v_low + k / 25 * (frozen.v_high - frozen.v_low)
            try:
                band = optimal_band(frozen, target)
            except InfeasibleCandidateError:
                continue
            if band.lower > frozen.v_low + interior:  # interior optima only
                slopes.append((psi(band.upper) - psi(band.lower)) / (band.upper - band.lower))
        # a lower speed 1e-6 m/s from the root moves lambda by a few 1e-6 (at
        # most 2.6e-6 W s/m against a 1e-10 m/s refinement on 60 slices), while
        # its steps between adjacent targets were at least 0.009 W s/m on 300
        # slices
        assert all(b >= a - 10.0 * interior for a, b in zip(slopes, slopes[1:])), slopes


class TestNewtonBand:
    """Newton's method on the average and the certificate, with the root search as fallback."""

    @pytest.mark.parametrize("target", [5.0, 7.0, 9.0])
    def test_flat_slice_solves_to_the_exact_band(self, flat_slice, target, monkeypatch):
        legs = _recording_legs(monkeypatch)
        band = optimal_band(flat_slice, target, v_safe=20.0)
        v_a, _, cost = oracles.exact_band(target)
        assert len(legs) <= 2 * 8  # leg pairs; the 0.5 m/s bisection made about 15
        assert band.lower == pytest.approx(v_a, abs=1e-9)
        assert band.avg_cost == pytest.approx(cost, rel=1e-12)

    def test_optimum_at_a_coasting_root_falls_back_to_the_bound(self, params, const_power):
        # unsigned drag, slope -0.02: v_low = 16.64 is a root of the coasting law,
        # and at the target 16.68 the residual is positive for every lower speed,
        # so the optimum is the rest-speed bound, where the certificate does not
        # hold
        frozen = FrozenDynamics.from_conditions(params, const_power, -0.02, 0.0)
        assert frozen.v_low_is_root
        assert optimizer._newton_band(frozen, 16.68, GridSpec().tol) is None
        band = optimal_band(frozen, 16.68, v_safe=30.0)
        assert _residual(frozen, band, 16.68) > 0.0
        assert band.lower <= frozen.v_low + 1e-8
        # a few 1e-9 m/s above the root the down leg loses about 7 digits to
        # b - A r^2 at a root of b - A r^2, so costs there scatter by 1e-5, and
        # the scan's refinement can land on a low one
        assert band.avg_cost <= _reference_band(frozen, 16.68).avg_cost * (1.0 + 1e-4)

    def test_climb_into_a_tailwind_falls_back_to_the_scan(self, params, const_power):
        # the engine-on acceleration changes sign near 1.83, inside the window
        frozen = FrozenDynamics.from_conditions(params, const_power, 0.015, 8.0)
        assert optimizer._newton_band(frozen, 2.5, GridSpec().tol) is None
        band = optimal_band(frozen, 2.5, v_safe=30.0)
        assert band.avg_cost <= _reference_band(frozen, 2.5).avg_cost * (1.0 + 1e-9)

    @settings(max_examples=200, deadline=None)
    @given(**RANDOM_SLICES)
    @example(*SLICE_A)
    @example(*SLICE_B)
    def test_solved_band_is_certified_and_no_dearer_than_the_fine_bisection(
        self, signed, wind, slope, wheel, u_t
    ):
        # wherever the Newton solve returns a band, the certificate holds on it,
        # and the scan of lower speeds finds no cheaper band; where F's curvature
        # changes sign the solve may stop on the dearer of two minima, and the
        # search then keeps the cheaper of it and the rest-speed bound
        frozen, target = _random_slice(signed, wind, slope, wheel, u_t)
        tol = GridSpec().tol
        band = optimizer._newton_band(frozen, target, tol)
        assume(band is not None)
        assert abs(_residual(frozen, band, target)) <= 1e-9 * band.avg_cost
        assert abs(band.avg_speed - target) <= 0.01 * tol
        if tradeoff_curvature(frozen) == "neither":
            band = optimal_band(frozen, target)
        assert band.avg_cost <= _reference_band(frozen, target).avg_cost * (1.0 + 1e-9)


    @settings(max_examples=500, deadline=None)
    @given(**RANDOM_SLICES)
    @example(*SLICE_A)
    @example(*SLICE_B)
    @example(False, 8.0, 0.015, False, 0.1764052399855324)  # the tailwind climb at about 2.5
    @example(False, 0.0, -0.02, False, 0.02)  # a target 0.16 m/s above a coasting root
    @example(True, 2.5, 0.017578125, True, 0.9609375)
    def test_solve_is_the_band_per_iterate_reference_to_the_bit(
        self, signed, wind, slope, wheel, u_t
    ):
        # the solve keeps each iterate in floats and evaluates f_on, f_off and h once per
        # band end; the reference builds a band per iterate and evaluates them again
        frozen, target = _random_slice(signed, wind, slope, wheel, u_t)
        tol = GridSpec().tol
        reference = newton_reference.newton_band(frozen, target, tol)
        assert repr(optimizer._newton_band(frozen, target, tol)) == repr(reference)
        if reference is not None:
            ends = reference.lower, reference.upper, reference.period, reference.distance
            assert optimizer._certificate(frozen, target, *ends, reference.energy) == (
                newton_reference.certificate(frozen, reference, target)
            )


    @settings(max_examples=300, deadline=None)
    @given(**RANDOM_SLICES, **STARTS)
    def test_warm_solve_is_the_reference_to_the_bit(
        self, signed, wind, slope, wheel, u_t, kind, u_a, u_b
    ):
        frozen, target = _random_slice(signed, wind, slope, wheel, u_t)
        start = _start(frozen, target, kind, u_a, u_b)
        tol = GridSpec().tol
        reference = newton_reference.newton_band(frozen, target, tol, start)
        assert repr(optimizer._newton_band(frozen, target, tol, start)) == repr(reference)

    @settings(max_examples=1000, deadline=None)
    @given(**RANDOM_SLICES, **STARTS)
    @example(*ROOTED_COLD, "near", 0.3229468478800154, 0.8957448511702211)
    @example(*NO_BAND, "bracket", 0.23603372025417746, 0.8443258927842491)
    def test_a_start_moves_the_band_only_within_rounding(
        self, signed, wind, slope, wheel, u_t, kind, u_a, u_b
    ):
        # where F's curvature is strict the interior optimum is one, so a start that
        # brackets the target converges on the cold band; on "neither" slices, where two
        # interior minima can exist, and from any other start, the band is the cold one
        frozen, target = _random_slice(signed, wind, slope, wheel, u_t)
        start = _start(frozen, target, kind, u_a, u_b)
        cold, warm = _outcome(frozen, target), _outcome(frozen, target, start)
        if tradeoff_curvature(frozen) == "neither" or not _brackets(frozen, target, start):
            assert repr(warm) == repr(cold)
            return
        if repr(warm) == repr(cold):  # as where both solves fail, or the band raises
            return
        assert isinstance(warm, OscillationBand) and isinstance(cold, OscillationBand)
        assert abs(warm.avg_cost - cold.avg_cost) <= 1e-9 * cold.avg_cost
        if optimizer._newton_band(frozen, target, GridSpec().tol) is not None:
            assert abs(warm.lower - cold.lower) <= 1e-9 and abs(warm.upper - cold.upper) <= 1e-9
        else:
            # the cold band is the root search's, whose lower speed is resolved only to a
            # residual of 1e-9 of the cost; the warm solve found the certified optimum
            assert abs(_residual(frozen, warm, target)) <= 1e-9 * warm.avg_cost

    def test_a_start_that_solves_the_target_takes_one_iteration(self, flat_slice, monkeypatch):
        band = optimal_band(flat_slice, 7.0)
        legs = _recording_legs(monkeypatch)
        assert optimal_band(flat_slice, 7.0, start=band) == band
        assert len(legs) == 2  # one pair of legs: the first iterate is accepted
        legs.clear()
        optimal_band(flat_slice, 7.0)
        assert len(legs) > 2


def _recording_legs(monkeypatch) -> list[bool]:
    """The mode of each leg the band search asks for, in order."""
    legs = []
    inner = optimizer.leg_time_distance

    def recording(frozen, engine_on, v0, v1):
        legs.append(engine_on)
        return inner(frozen, engine_on, v0, v1)

    monkeypatch.setattr(optimizer, "leg_time_distance", recording)
    return legs


class TestSaturatedUpperLimit:
    def test_top_only_approached_is_infeasible(self, flat_slice):
        # from 0.5 m/s even the band reaching 1e-6 below the top of 16.83 m/s
        # averages only 12.83: the root stops at the end of its bracket
        with pytest.raises(InfeasibleCandidateError, match="asymptotically"):
            band_cost(flat_slice, 0.5, 16.8)


class TestBandFromLimits:
    def test_band_ending_at_a_rest_speed_is_refused(self, wheel_power):
        # v_high is 0.0099 m/s, so the band's top lies within 1e-9 m/s of
        # it: the up leg only approaches its end, and the band's cost was
        # inf / inf
        frozen = FrozenDynamics.from_conditions(
            VehicleParams(traction=0.22618, signed_drag=True), wheel_power, 0.023824, 7.9168
        )
        width = frozen.v_high - frozen.v_low
        with pytest.raises(InvalidSegmentError, match="rest speed"):
            band_from_limits(frozen, frozen.v_low + 1e-7 * width, frozen.v_high - 1e-7 * width)

    def test_band_starting_at_the_coasting_rest_speed_is_refused(self, params, const_power):
        # only the down leg is infinite: the band's cost was 0
        downhill = FrozenDynamics.from_conditions(
            params, const_power, slope=-math.asin(0.05 / params.gravity)
        )
        assert downhill.v_low_is_root
        with pytest.raises(InvalidSegmentError, match="rest speed"):
            band_from_limits(downhill, downhill.v_low + 1e-10, downhill.v_low + 1.0)
        assert math.isfinite(band_from_limits(downhill, downhill.v_low + 1e-3, 7.0).avg_cost)


class TestAsymptoticExpansion:
    """The large-period cost h* (target - v_low) / (v_high - v_low) + (lhs - rhs) / T2, whose
    1/T2 term is the switching-cost inequality's lhs - rhs."""

    def test_limit_value(self, flat_slice):
        report = check_assumptions(flat_slice)
        lead = 161.0 * 7.0 / oracles.V_TOP
        expansion = 161.0 * (7.0 - flat_slice.v_low) / (flat_slice.v_high - flat_slice.v_low)
        expansion += (report.inequality_lhs - report.inequality_rhs) / 1e12
        assert expansion == pytest.approx(lead, rel=1e-9)

    def test_vanishes_at_the_rest_speed(self, flat_slice):
        report = check_assumptions(flat_slice)
        expansion = 161.0 * (1e-6 - flat_slice.v_low) / (flat_slice.v_high - flat_slice.v_low)
        expansion += (report.inequality_lhs - report.inequality_rhs) / 1e12
        assert expansion == pytest.approx(0.0, abs=1e-4)

    def test_matches_closed_form_moments(self, flat_slice):
        report = check_assumptions(flat_slice)
        lead = 161.0 * (7.0 - flat_slice.v_low) / (flat_slice.v_high - flat_slice.v_low)
        for t2 in (200.0, 400.0, 800.0):
            expansion = lead + (report.inequality_lhs - report.inequality_rhs) / t2
            assert expansion == pytest.approx(oracles.expansion(7.0, t2), rel=1e-9)

    @pytest.mark.parametrize("slope", [0.0, -0.01])
    def test_wheel_power_matches_a_band_near_the_limits(self, params, wheel_power, slope):
        # the band 1e-7 of the width inside (v_low, v_high) pays the large-period cost at its
        # own average speed and period; under wheel power the excess energy enters the 1/T
        # coefficient with a plus sign
        frozen = FrozenDynamics.from_conditions(params, wheel_power, slope)
        width = frozen.v_high - frozen.v_low
        band = band_from_limits(frozen, frozen.v_low + 1e-7 * width, frozen.v_high - 1e-7 * width)
        lead = frozen.engine_power_at(frozen.v_high) * (band.avg_speed - frozen.v_low) / width
        report = check_assumptions(frozen)
        assert band.period * (band.avg_cost - lead) == pytest.approx(
            report.inequality_lhs - report.inequality_rhs, rel=1e-5
        )

    def test_divergent_moment_reported(self, params, const_power, flat_slice):
        class DoubleRootSlice(GeneralLawSlice):
            # f(.,1) with a double root at the top: (s - v)/f diverges
            def accel_grid(self, x2, engine_on):
                if engine_on:
                    return 2e-3 * (10.0 - np.asarray(x2)) ** 2
                return super().accel_grid(x2, engine_on)

        frozen = quadrature_legs.slice_with_rest_speeds(
            DoubleRootSlice, params, const_power, 0.0, 0.0, 0.0, 10.0, False
        )
        assert math.isinf(frozen.moment_integrals()[1])
        item = check_assumptions(frozen).item("switching_cost_small")
        assert item.passed is None
        assert item.witness["diagnostic"] == "divergent integral"
