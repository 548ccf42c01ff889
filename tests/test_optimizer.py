import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

import oracles
from quadrature_legs import GeneralLawSlice, bisection_upper_limit, sqrt_top_slice
from ecodrive import (
    FrozenDynamics,
    GridSpec,
    InfeasibleCandidateError,
    InfeasibleSliceError,
    InfeasibleTargetError,
    PowerModel,
    VehicleParams,
    asymptotic_average_cost,
    band_cost,
    band_from_limits,
    check_assumptions,
    optimal_band,
)
from ecodrive.errors import ExpansionInapplicableError, InvalidSegmentError
from ecodrive import optimizer
from ecodrive.optimizer import leg_time_distance, safety_band


class TestUpperLimit:
    """The upper limit and dwell of ``band_cost``'s band."""

    def test_reference_candidate(self, flat_slice):
        band = band_cost(flat_slice, 6.1, 7.0)
        v_b = band.upper
        assert band.dwell == 0.0
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

    def test_one_sign_check_per_mode(self, flat_slice, monkeypatch):
        checks = []
        original = type(flat_slice).mode_changes_sign

        def counting(self, *args):
            checks.append(args)
            return original(self, *args)

        monkeypatch.setattr(type(flat_slice), "mode_changes_sign", counting)
        band_cost(flat_slice, 6.1, 7.0)
        assert sorted(on for on, *_ in checks) == [False, True]

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
        assert band.dwell == 0.0
        assert abs(band_from_limits(frozen, v_a, v_b).avg_speed - v_target) <= 0.01 * tol
        assert v_b == pytest.approx(bisection_upper_limit(frozen, v_a, v_target, tol)[0], abs=tol)
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
        again = band_from_limits(frozen, v_a, band.upper, band.dwell)
        assert band == again  # field for field

    @settings(max_examples=60, deadline=None)
    @given(**SLICES)
    @example(False, 0.0, 0.0, False, 0.3, 0.5)  # the flat windless slice
    def test_one_sign_check_rejects_what_the_pair_of_checks_did(
        self, signed, wind, slope, wheel, u_a, u_t
    ):
        # one check of the bracket [v_a, v_b_max] with the margin of the
        # narrowest band (v_a, target) rejects what checking the bracket and
        # then the band [v_a, v_b], each with its own margin, rejects
        frozen, v_a, v_target = self.candidate(signed, wind, slope, wheel, u_a, u_t)
        assume(check_assumptions(frozen).passed)
        v_b_max = frozen.v_high * (1.0 - optimizer.UPPER_BRACKET_MARGIN)
        assume(v_target < v_b_max)

        def pair_rejects(v_b):
            return any(
                frozen.mode_changes_sign(on, v_a, hi)
                for on in (True, False)
                for hi in (v_b_max, min(v_b, v_b_max))
            )

        try:
            band = band_cost(frozen, v_a, v_target)
        except InfeasibleCandidateError as exc:
            if "changes sign" in str(exc):
                # the bisection only runs once the bracket's own check passed
                assert pair_rejects(v_b_max) or pair_rejects(
                    bisection_upper_limit(frozen, v_a, v_target)[0]
                )
            else:  # rejected before the band was checked
                assert not pair_rejects(v_b_max)
            return
        assert not pair_rejects(band.upper)


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


def _bisection_only(monkeypatch) -> None:
    """Patch out the Newton solve, so that ``optimal_band`` runs its fallback bisection."""
    monkeypatch.setattr(optimizer, "_newton_band", lambda frozen, v_target, tol: None)


def _window(frozen, v_target):
    """The whole interval of lower speeds that ``optimal_band`` refines over."""
    return frozen.v_low + 1e-9, v_target - 1e-9


def _reference_lower(frozen, v_target, grid, window):
    """scipy's bounded minimiser of the band cost on the window, infeasible at +inf."""

    def cost(v_a):
        try:
            return band_cost(frozen, float(v_a), v_target, grid.tol).avg_cost
        except InfeasibleCandidateError:
            return math.inf

    # scipy's parabola through an infinite cost subtracts inf from inf
    with np.errstate(invalid="ignore"):
        result = minimize_scalar(cost, bounds=window, method="bounded", options={"xatol": 1e-10})
    return result.x


class TestOptimalBand:
    @pytest.mark.parametrize("target, evaluations", [(5.0, 4), (7.0, 4), (9.0, 5)])
    def test_default_search_matches_the_oracle_bisection(
        self, flat_slice, monkeypatch, target, evaluations
    ):
        # the default search solves for the certificate's root, the oracle's
        # exact band
        band = optimal_band(flat_slice, target, v_safe=20.0)
        v_a, v_b, cost = oracles.exact_band(target)
        assert band.lower == pytest.approx(v_a, abs=1e-9)
        assert band.upper == pytest.approx(v_b, abs=1e-9)
        assert band.avg_cost == pytest.approx(cost, rel=1e-12)
        # its fallback at the 0.5 m/s resolution halves the window (0, target)
        # until it is no wider: four midpoints at 5 and 7 m/s, five at 9 m/s
        _bisection_only(monkeypatch)
        lowers = _recording(monkeypatch)
        fallback = optimal_band(flat_slice, target, v_safe=20.0)
        v_a, v_b, cost = oracles.bisect_band(target)
        assert len(lowers) == evaluations
        assert fallback.lower == v_a
        assert fallback.upper == pytest.approx(v_b, abs=1e-5)
        assert fallback.avg_cost == pytest.approx(cost, rel=1e-6)

    def test_refinement_never_costs_more(self, flat_slice):
        coarse = optimal_band(flat_slice, 7.0, v_safe=20.0)
        fine = optimal_band(flat_slice, 7.0, v_safe=20.0, grid=GridSpec(fine_step=0.01))
        assert fine.avg_cost <= coarse.avg_cost

    def test_fine_band_matches_independent_search(self, flat_slice):
        grid = GridSpec(fine_step=1e-6)
        for target in (5.0, 7.0, 9.0):
            band = optimal_band(flat_slice, target, v_safe=20.0, grid=grid)
            v_a, v_b, cost = oracles.exact_band(target)
            # the bisection ends on a bracket no wider than fine_step around
            # the root, and the oracle's root is exact to 1e-12 m/s
            assert band.lower == pytest.approx(v_a, abs=grid.fine_step)
            # the upper limit follows the lower one at |dv_b/dv_a| < 1.2 (1.06
            # to 1.11 at these targets), and a band's average misses the
            # target by at most 0.01 tol, which moves the upper limit by under
            # 2 * 0.01 tol
            assert band.upper == pytest.approx(v_b, abs=1.2 * grid.fine_step + 0.02 * grid.tol)
            # the cost is stationary in the lower speed, so only the missed
            # average moves it, by C'(target) * 0.01 tol, where C' is the
            # chord slope, 4.9 to 8.7 W s/m at these targets
            assert band.avg_cost == pytest.approx(cost, abs=10.0 * 0.01 * grid.tol)

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
        assert band.lower > 1.83
        assert band.upper == pytest.approx(2.94, abs=0.01)
        assert band.avg_cost == pytest.approx(157.3, abs=0.1)
        assert band.avg_speed == pytest.approx(2.5, abs=1e-4)

    def test_fine_candidate_within_rounding_of_the_target_is_dropped(self, monkeypatch):
        # the fine window ends at the target: a lower speed 2e-14 below it
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
        band = optimal_band(frozen, target, 21.587702851415912, GridSpec(fine_step=0.01))
        assert band.avg_speed == pytest.approx(target, abs=1e-4)
        assert len(lowers) <= 30
        assert all(v_a < target - 1e-9 for v_a in lowers)

    def test_window_narrower_than_the_step_gets_its_midpoint(
        self, params, const_power, monkeypatch
    ):
        # downhill, v_low = 5.77: the window up to the target 6.0 is 0.23 m/s
        # wide, under the 0.5 m/s resolution, and still gets one evaluation
        slope = -math.asin(0.05 / params.gravity)
        downhill = FrozenDynamics.from_conditions(params, const_power, slope=slope)
        _bisection_only(monkeypatch)
        lowers = _recording(monkeypatch)
        band = optimal_band(downhill, 6.0, v_safe=20.0)
        assert lowers == [0.5 * (downhill.v_low + 1e-9 + 6.0 - 1e-9)]
        assert band.lower == lowers[0]
        assert band.avg_speed == pytest.approx(6.0, abs=1e-4)

    def test_lower_speed_at_a_coasting_root_is_infeasible(self):
        # unsigned drag on a descent: v_low = 16.64 is a root of the coasting
        # law, which the down leg of a band ending there only approaches
        frozen = FrozenDynamics.from_conditions(VehicleParams(), PowerModel(), -0.02, 0.0)
        assert frozen.v_low_is_root
        with pytest.raises(InfeasibleCandidateError, match="coasting rest speed"):
            band_cost(frozen, frozen.v_low + 1e-9, 16.803898500227753)


class TestBandRefinement:
    """Bisection on the sign of the chord certificate for the refined lower speed."""

    @pytest.mark.parametrize("target", [5.0, 7.0, 9.0])
    def test_refined_optimize_makes_few_band_evaluations(self, flat_slice, target, monkeypatch):
        _bisection_only(monkeypatch)
        coarse = optimal_band(flat_slice, target, v_safe=20.0)
        lowers = _recording(monkeypatch)
        grid = GridSpec(fine_step=0.01)
        band = optimal_band(flat_slice, target, v_safe=20.0, grid=grid)
        # about log2(target / 0.01) midpoints
        assert len(lowers) <= 10
        assert band.avg_cost <= coarse.avg_cost
        assert band.lower == pytest.approx(
            _reference_lower(flat_slice, target, grid, _window(flat_slice, target)),
            abs=grid.fine_step,
        )

    @settings(max_examples=200, deadline=None)
    @given(
        signed=st.booleans(),
        wind=st.floats(min_value=-6.0, max_value=6.0),
        slope=st.floats(min_value=-0.02, max_value=0.02),
        wheel=st.booleans(),
        u_t=st.floats(min_value=0.02, max_value=0.98),
    )
    @example(False, 8.0, 0.015, False, 0.1764052399855324)  # the tailwind climb at about 2.5
    @example(True, 2.5, 0.017578125, False, 0.9609375)  # scipy's reference meets infeasible edges
    @example(False, 0.0, -0.02, False, 0.02)  # a target 0.16 m/s above a coasting root
    def test_refined_edge_matches_a_bounded_minimiser(self, signed, wind, slope, wheel, u_t):
        power = PowerModel(kind="wheel_power" if wheel else "constant_electrical")
        try:
            frozen = FrozenDynamics.from_conditions(
                VehicleParams(signed_drag=signed), power, slope, wind
            )
        except InfeasibleSliceError:
            assume(False)
        target = frozen.v_low + u_t * (frozen.v_high - frozen.v_low)
        try:
            coarse = optimal_band(frozen, target)
        except InfeasibleCandidateError:
            assume(False)
        assume(not coarse.is_coast)
        grid = GridSpec(fine_step=0.01)
        band = optimal_band(frozen, target, grid=grid)
        assert band.avg_cost <= coarse.avg_cost
        assert abs(band.avg_speed - target) <= grid.tol
        reference = _reference_lower(frozen, target, grid, _window(frozen, target))
        assert band.lower == pytest.approx(reference, abs=grid.fine_step)

    @settings(max_examples=200, deadline=None)
    @given(
        signed=st.booleans(),
        wind=st.floats(min_value=-6.0, max_value=6.0),
        slope=st.floats(min_value=-0.02, max_value=0.02),
        wheel=st.booleans(),
        u_t=st.floats(min_value=0.02, max_value=0.98),
    )
    def test_default_resolution_lies_near_the_optimum(self, signed, wind, slope, wheel, u_t):
        # where the Newton solve falls back, the in-race bisection stops on a
        # bracket no wider than its 0.5 m/s resolution; a finer one repeats
        # its midpoints before going on, so it can only find a cheaper band
        power = PowerModel(kind="wheel_power" if wheel else "constant_electrical")
        try:
            frozen = FrozenDynamics.from_conditions(
                VehicleParams(signed_drag=signed), power, slope, wind
            )
        except InfeasibleSliceError:
            assume(False)
        target = frozen.v_low + u_t * (frozen.v_high - frozen.v_low)
        resolved_grid = GridSpec(fine_step=1e-6)
        try:
            band = optimal_band(frozen, target)
            resolved = optimal_band(frozen, target, grid=resolved_grid)
        except InfeasibleCandidateError:
            assume(False)
        assume(resolved.lower > frozen.v_low + resolved_grid.fine_step)  # interior optima only
        assert band.lower == pytest.approx(resolved.lower, abs=GridSpec().fine_step)
        assert band.avg_cost >= resolved.avg_cost

    def test_window_starting_in_infeasible_candidates(self, params, const_power):
        # climb into a tailwind: every lower speed below the engine-on root
        # near 1.83 is infeasible, since its legs cross the root
        frozen = FrozenDynamics.from_conditions(params, const_power, 0.015, 8.0)
        coarse = optimal_band(frozen, 2.5, 12.0)
        assert coarse.lower > 1.83
        grid = GridSpec(fine_step=0.01)
        band = optimal_band(frozen, 2.5, 12.0, grid)
        assert band.lower > 1.83
        assert band.avg_cost <= coarse.avg_cost
        assert abs(band.avg_speed - 2.5) <= grid.tol
        assert band.lower == pytest.approx(
            _reference_lower(frozen, 2.5, grid, _window(frozen, 2.5)), abs=grid.fine_step
        )

    def test_infeasible_midpoint_moves_the_bracket_up(self, params, const_power, monkeypatch):
        # the optimum lies near 2.16 on (v_low, target) = (0, 2.5): the
        # first midpoint, 1.25, lies below the engine-on root near 1.83 and
        # moves the bracket up to (1.25, 2.5); then 1.875 lies below the
        # optimum and 2.1875 above it
        frozen = FrozenDynamics.from_conditions(params, const_power, 0.015, 8.0)
        _bisection_only(monkeypatch)
        lowers = _recording(monkeypatch)
        grid = GridSpec(fine_step=0.01)
        band = optimal_band(frozen, 2.5, 12.0, grid)
        assert lowers[:3] == pytest.approx([1.25, 1.875, 2.1875])
        with pytest.raises(InfeasibleCandidateError, match="sign"):
            band_cost(frozen, lowers[0], 2.5)
        assert all(lowers[1] <= v_a <= lowers[2] for v_a in lowers[1:])
        assert band.lower == pytest.approx(
            _reference_lower(frozen, 2.5, grid, _window(frozen, 2.5)), abs=grid.fine_step
        )

    def test_step_below_the_float_spacing_ends(self, flat_slice, monkeypatch):
        # 1e-20 m/s is finer than the spacing of floats near 6 m/s, where a
        # midpoint no longer splits the bracket; the search still ends
        _bisection_only(monkeypatch)
        lowers = _recording(monkeypatch)
        band = optimal_band(flat_slice, 7.0, grid=GridSpec(fine_step=1e-20))
        assert len(lowers) == 64
        assert band.lower == pytest.approx(oracles.exact_band(7.0)[0], abs=1e-6)

    def test_optimum_on_the_rest_speed_bound(self, monkeypatch):
        # a signed-drag climb whose residual is positive for every lower
        # speed: the cost rises with the lower speed, so the optimum is the
        # rest-speed bound v_low = 0, about 151.606 W at the resolution; a
        # search window around the coarse winner stopped at 3.11 m/s and
        # 152.0005 W
        frozen = FrozenDynamics.from_conditions(
            VehicleParams(signed_drag=True), PowerModel(), 0.016187839380489465, 5.575595367708736
        )
        target = 5.605044993264042
        grid = GridSpec(fine_step=0.01)
        lowers = _recording(monkeypatch)
        band = optimal_band(frozen, target, grid=grid)
        assert frozen.v_low == 0.0
        for v_a in lowers:
            assert optimizer._chord_residual(frozen, band_cost(frozen, v_a, target), target) > 0.0
        assert band.lower <= frozen.v_low + grid.fine_step
        assert band.avg_cost == pytest.approx(151.606, abs=1e-3)
        assert abs(band.avg_speed - target) <= grid.tol

    def test_optimum_cost_is_convex_in_the_target(self, flat_slice):
        # the paper's optimality claim on an autonomous slice: the cheapest
        # one-band cost C at average speed v is convex in v, so sharing time
        # between two bands never beats one band at the same average
        targets = np.linspace(0.6, 16.53, 41)
        grid = GridSpec(fine_step=1e-6)
        costs = [optimal_band(flat_slice, float(v), grid=grid).avg_cost for v in targets]
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
        grid = GridSpec(fine_step=1e-6)

        def psi(v):
            return -frozen.engine_power_at(v) * frozen.accel(v, False) / frozen.params.traction

        slopes = []
        for k in range(1, 25):
            target = frozen.v_low + k / 25 * (frozen.v_high - frozen.v_low)
            try:
                band = optimal_band(frozen, target, grid=grid)
            except InfeasibleCandidateError:
                continue
            if band.lower > frozen.v_low + grid.fine_step:  # interior optima only
                slopes.append((psi(band.upper) - psi(band.lower)) / (band.upper - band.lower))
        # a lower speed within fine_step of the root moves lambda by a few
        # fine_step (at most 2.6e-6 W s/m against a 1e-10 m/s refinement on
        # 60 slices), while its steps between adjacent targets were at least
        # 0.009 W s/m on 300 slices
        assert all(b >= a - 10.0 * grid.fine_step for a, b in zip(slopes, slopes[1:])), slopes


class TestNewtonBand:
    """Newton's method on the average and the certificate, with the bisection as fallback."""

    @pytest.mark.parametrize("target", [5.0, 7.0, 9.0])
    def test_flat_slice_solves_to_the_exact_band(self, flat_slice, target, monkeypatch):
        legs = []
        inner = optimizer.leg_time_distance

        def counting(frozen, engine_on, v0, v1):
            legs.append(engine_on)
            return inner(frozen, engine_on, v0, v1)

        monkeypatch.setattr(optimizer, "leg_time_distance", counting)
        band = optimal_band(flat_slice, target, v_safe=20.0)
        v_a, _, cost = oracles.exact_band(target)
        assert len(legs) <= 2 * 8  # leg pairs; the 0.5 m/s bisection makes about 15
        assert band.lower == pytest.approx(v_a, abs=1e-9)
        assert band.avg_cost == pytest.approx(cost, rel=1e-12)

    @pytest.mark.parametrize(
        "case", ["coasting-root descent", "saturated top", "climb into a tailwind"]
    )
    def test_fallbacks_are_the_bisection(self, params, const_power, case, monkeypatch):
        if case == "coasting-root descent":
            # unsigned drag, slope -0.02: v_low = 16.64 is a root of the coasting
            # law, and at the target 16.68 the residual is positive for every
            # lower speed, so the optimum is the rest-speed bound, where the
            # certificate does not hold
            frozen = FrozenDynamics.from_conditions(params, const_power, -0.02, 0.0)
            target = 16.68
        elif case == "saturated top":
            # v_high = 10 is attained in finite time: the band dwells there
            frozen, target = sqrt_top_slice(params, const_power), 9.7
        else:
            # the engine-on acceleration changes sign near 1.83, inside the window
            frozen, target = FrozenDynamics.from_conditions(params, const_power, 0.015, 8.0), 2.5
        assert optimizer._newton_band(frozen, target, GridSpec().tol) is None
        band = optimal_band(frozen, target, v_safe=30.0)
        _bisection_only(monkeypatch)
        assert band == optimal_band(frozen, target, v_safe=30.0)
        if case == "coasting-root descent":
            assert frozen.v_low_is_root
            assert optimizer._chord_residual(frozen, band, target) > 0.0
        elif case == "saturated top":
            assert band.dwell > 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        signed=st.booleans(),
        wind=st.floats(min_value=-6.0, max_value=6.0),
        slope=st.floats(min_value=-0.02, max_value=0.02),
        wheel=st.booleans(),
        u_t=st.floats(min_value=0.02, max_value=0.98),
    )
    def test_solved_band_is_certified_and_no_dearer_than_the_fine_bisection(
        self, signed, wind, slope, wheel, u_t
    ):
        # the bounded-minimiser test's slice ranges: wherever the Newton solve
        # returns a band, the certificate holds on it and the bisection
        # resolved to 1e-6 m/s finds no cheaper band
        power = PowerModel(kind="wheel_power" if wheel else "constant_electrical")
        try:
            frozen = FrozenDynamics.from_conditions(
                VehicleParams(signed_drag=signed), power, slope, wind
            )
        except InfeasibleSliceError:
            assume(False)
        target = frozen.v_low + u_t * (frozen.v_high - frozen.v_low)
        grid = GridSpec(fine_step=1e-6)
        band = optimizer._newton_band(frozen, target, grid.tol)
        assume(band is not None)
        assert abs(optimizer._chord_residual(frozen, band, target)) <= 1e-9 * band.avg_cost
        assert abs(band.avg_speed - target) <= 0.01 * grid.tol
        with pytest.MonkeyPatch.context() as patch:
            _bisection_only(patch)
            resolved = optimal_band(frozen, target, grid=grid)
        assert band.avg_cost <= resolved.avg_cost * (1.0 + 1e-9)


class TestSaturatedUpperLimit:
    def test_dwell_at_the_top(self, params, const_power):
        frozen = sqrt_top_slice(params, const_power)
        band = band_cost(frozen, 2.0, 9.7)
        assert band.upper == pytest.approx(10.0)
        assert band.dwell > 0.0
        assert band.avg_speed == pytest.approx(9.7, abs=1e-4)

    def test_top_only_approached_is_infeasible(self, flat_slice):
        with pytest.raises(InfeasibleCandidateError, match="asymptotically"):
            optimizer._saturated_band(flat_slice, 6.0, 7.0)


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
    def test_limit_value(self, flat_slice):
        lead = 161.0 * 7.0 / oracles.V_TOP
        assert asymptotic_average_cost(flat_slice, 7.0, 1e12) == pytest.approx(lead, rel=1e-9)

    def test_vanishes_at_the_rest_speed(self, flat_slice):
        assert asymptotic_average_cost(flat_slice, 1e-6, 1e12) == pytest.approx(0.0, abs=1e-4)

    def test_matches_closed_form_moments(self, flat_slice):
        for t2 in (200.0, 400.0, 800.0):
            assert asymptotic_average_cost(flat_slice, 7.0, t2) == pytest.approx(
                oracles.expansion(7.0, t2), rel=1e-9
            )

    @pytest.mark.parametrize("slope", [0.0, -0.01])
    def test_wheel_power_matches_a_band_near_the_limits(self, params, wheel_power, slope):
        # the band 1e-7 of the width inside (v_low, v_high) takes the
        # expansion's average speed and period; under wheel power the excess
        # energy enters the 1/T coefficient with a plus sign
        frozen = FrozenDynamics.from_conditions(params, wheel_power, slope)
        width = frozen.v_high - frozen.v_low
        band = band_from_limits(frozen, frozen.v_low + 1e-7 * width, frozen.v_high - 1e-7 * width)
        expansion = asymptotic_average_cost(frozen, band.avg_speed, band.period)
        lead = frozen.engine_power_at(frozen.v_high) * (band.avg_speed - frozen.v_low) / width
        coefficient = band.period * (expansion - lead)
        assert coefficient == pytest.approx(band.period * (band.avg_cost - lead), rel=1e-5)
        # and that coefficient is what the switching-cost inequality compares
        report = check_assumptions(frozen)
        assert coefficient == pytest.approx(
            report.inequality_lhs - report.inequality_rhs, rel=1e-9
        )

    def test_preconditions(self, flat_slice):
        with pytest.raises(InfeasibleTargetError):
            asymptotic_average_cost(flat_slice, 20.0, 100.0)
        with pytest.raises(ValueError):
            asymptotic_average_cost(flat_slice, 7.0, -5.0)

    def test_divergent_moment_reported(self, params, const_power, flat_slice):
        class DoubleRootSlice(GeneralLawSlice):
            # f(.,1) with a double root at the top: (s - v)/f diverges
            def accel_grid(self, x2, engine_on):
                if engine_on:
                    return 2e-3 * (10.0 - np.asarray(x2)) ** 2
                return super().accel_grid(x2, engine_on)

        frozen = DoubleRootSlice(params, const_power, 0.0, 0.0, 0.0, 10.0, False)
        with pytest.raises(ExpansionInapplicableError):
            asymptotic_average_cost(frozen, 7.0, 400.0)
