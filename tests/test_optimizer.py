import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

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
    optimal_band,
    period_stats,
    upper_limit,
)
from ecodrive.errors import ExpansionInapplicableError
from ecodrive import optimizer
from ecodrive.optimizer import safety_band


class TestUpperLimit:
    def test_reference_candidate(self, flat_slice):
        v_b, dwell = upper_limit(flat_slice, 6.1, 7.0)
        assert dwell == 0.0
        assert v_b == pytest.approx(oracles.upper_for_target(6.1, 7.0), abs=1e-5)
        assert v_b == pytest.approx(7.94, abs=0.05)

    def test_collapsing_band(self, flat_slice):
        v_b, _ = upper_limit(flat_slice, 6.999, 7.0)
        assert 7.0 < v_b < 7.02

    def test_wider_gap_forces_higher_upper(self, flat_slice):
        v_b_low, _ = upper_limit(flat_slice, 5.0, 7.0)
        v_b_ref, _ = upper_limit(flat_slice, 6.1, 7.0)
        assert v_b_low == pytest.approx(oracles.upper_for_target(5.0, 7.0), abs=1e-5)
        assert v_b_low > v_b_ref

    def test_average_constraint_met(self, flat_slice):
        for v_a in (4.5, 5.5, 6.5):
            v_b, _ = upper_limit(flat_slice, v_a, 7.0)
            assert oracles.band_average(v_a, v_b) == pytest.approx(7.0, abs=1e-4)

    def test_preconditions(self, flat_slice):
        with pytest.raises(InfeasibleCandidateError):
            upper_limit(flat_slice, 7.5, 7.0)
        with pytest.raises(InfeasibleCandidateError):
            upper_limit(flat_slice, -1.0, 7.0)


class TestUpperLimitOnRandomSlices:
    """The bracketed root against the Gauss-Kronrod bisection and scipy's quad."""

    @settings(max_examples=40, deadline=None)
    @given(
        signed=st.booleans(),
        wind=st.floats(min_value=-6.0, max_value=6.0),
        slope=st.floats(min_value=-0.02, max_value=0.02),
        wheel=st.booleans(),
        u_a=st.floats(min_value=0.02, max_value=0.98),
        u_t=st.floats(min_value=0.02, max_value=0.98),
    )
    # engine off where gravity cancels friction: b_off = 0, the rational branch
    @example(False, 0.0, -math.asin(0.03 / 9.81), False, 0.3, 0.5)
    # signed drag: both legs cross the wind speed
    @example(True, 4.0, 0.0, True, 0.1, 0.4)
    def test_meets_target_and_matches_bisection(self, signed, wind, slope, wheel, u_a, u_t):
        power = PowerModel(kind="wheel_power" if wheel else "constant_electrical")
        try:
            frozen = FrozenDynamics.from_conditions(
                VehicleParams(signed_drag=signed), power, slope, wind
            )
        except InfeasibleSliceError:
            assume(False)
        tol = GridSpec().tol
        v_a = frozen.v_low + u_a * (frozen.v_high - frozen.v_low)
        v_target = v_a + u_t * (frozen.v_high - v_a)
        try:
            v_b, dwell = upper_limit(frozen, v_a, v_target, tol)
        except InfeasibleCandidateError:
            with pytest.raises(InfeasibleCandidateError):
                bisection_upper_limit(frozen, v_a, v_target, tol)
            return
        assert dwell == 0.0
        assert abs(period_stats(frozen, v_a, v_b).avg_speed - v_target) <= 0.01 * tol
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


class TestOptimalBand:
    def test_coarse_grid_picks_a_candidate(self, flat_slice):
        band = optimal_band(flat_slice, 7.0, v_safe=20.0)
        assert any(band.lower == pytest.approx(v) for v in (5.0, 5.5, 6.0, 6.5))
        costs = {}
        for v_a in (5.0, 5.5, 6.0, 6.5):
            t1, _, e = oracles.period(v_a, oracles.upper_for_target(v_a, 7.0))
            costs[v_a] = e / t1
        assert band.lower == pytest.approx(min(costs, key=costs.get))

    def test_refinement_never_costs_more(self, flat_slice):
        coarse = optimal_band(flat_slice, 7.0, v_safe=20.0)
        fine = optimal_band(flat_slice, 7.0, v_safe=20.0, grid=GridSpec(fine_step=0.01))
        assert fine.avg_cost <= coarse.avg_cost

    def test_fine_band_matches_independent_search(self, flat_slice):
        band = optimal_band(flat_slice, 7.0, v_safe=20.0, grid=GridSpec(fine_step=0.01))
        v_a, v_b, cost = oracles.fine_band(7.0)
        assert band.lower == pytest.approx(v_a, abs=0.02)
        assert band.upper == pytest.approx(v_b, abs=0.02)
        assert band.avg_cost == pytest.approx(cost, rel=1e-4)

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
        # about 1.83 m/s, so the legs of candidates 0.5, 1.0 and 1.5 cross its
        # root and only candidate 2.0 is left
        frozen = FrozenDynamics.from_conditions(params, const_power, 0.015, 8.0)
        for v_a in (0.5, 1.0, 1.5):
            with pytest.raises(InfeasibleCandidateError, match="sign"):
                upper_limit(frozen, v_a, 2.5)
        band = optimal_band(frozen, 2.5, 12.0)
        assert band.lower == 2.0
        assert band.upper == pytest.approx(3.47, abs=0.01)
        assert band.avg_cost == pytest.approx(157.3, abs=0.1)
        assert band.avg_speed == pytest.approx(2.5, abs=1e-4)

    def test_fine_candidate_within_rounding_of_the_target_is_dropped(self, monkeypatch):
        # the fine window ends at the target, and its last grid point lands
        # 2e-14 below it: a band of no width, whose average only rounding
        # puts on either side of the target
        params = VehicleParams(switch_cost=11.606590079166033, signed_drag=True)
        frozen = FrozenDynamics.from_conditions(
            params, PowerModel(kind="wheel_power"), -0.014367145702518992, -2.4915906971634723
        )
        target = 16.960964565912867
        with pytest.raises(InfeasibleCandidateError, match="rounding"):
            upper_limit(frozen, 16.960964565912846, target)
        lowers = []

        def recording_band_cost(frozen, v_a, v_target, tol):
            lowers.append(v_a)
            return band_cost(frozen, v_a, v_target, tol)

        # the fine grid is clipped to the window: no candidate reaches the target
        monkeypatch.setattr(optimizer, "band_cost", recording_band_cost)
        band = optimal_band(frozen, target, 21.587702851415912, GridSpec(fine_step=0.01))
        assert band.avg_speed == pytest.approx(target, abs=1e-4)
        assert len(lowers) > 50
        assert all(v_a < target - 1e-9 for v_a in lowers)

    def test_grid_candidates_respect_window(self):
        grid = GridSpec()
        cands = grid.candidates(7.0, 0.0)
        assert cands == [5.0, 5.5, 6.0, 6.5]
        cands = grid.candidates(7.0, 5.8)
        assert cands == [6.0, 6.5]
        # everything filtered: falls back to the midpoint
        cands = grid.candidates(1.0, 0.6)
        assert cands == [0.8]


class TestSaturatedUpperLimit:
    def test_dwell_at_the_top(self, params, const_power):
        frozen = sqrt_top_slice(params, const_power)
        v_b, dwell = upper_limit(frozen, 2.0, 9.7)
        assert v_b == pytest.approx(10.0)
        assert dwell > 0.0
        band = band_cost(frozen, 2.0, 9.7)
        assert band.avg_speed == pytest.approx(9.7, abs=1e-4)


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
