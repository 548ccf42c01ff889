import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import oracles
import stepper
from segments import SpeedSegment, covered_length, elapsed_time, energy_used
from quadrature_legs import GeneralLawSlice, general_law, sqrt_top_slice
from ecodrive import (
    FrozenDynamics,
    InfeasibleSliceError,
    InvalidSegmentError,
    NumericError,
    PowerModel,
    TrackProfile,
    VehicleParams,
    WindField,
    band_from_limits,
)
from ecodrive.optimizer import leg_time_distance
from ecodrive.quadrature import adaptive_quadrature
from robustness_reference import eager_adaptive_quadrature

# frozen closed-form values for the reference band 6.1 -> 7.94 m/s
T_UP_BAND = 13.131691162356102
D_UP_BAND = 92.40759642008508
T_DOWN_BAND = 30.974992629116045
D_DOWN_BAND = 216.21215147002206


def test_frozen_constants_come_from_the_oracle():
    assert oracles.time_up(6.1, 7.94) == pytest.approx(T_UP_BAND, rel=1e-12)
    assert oracles.dist_up(6.1, 7.94) == pytest.approx(D_UP_BAND, rel=1e-12)
    assert oracles.time_down(7.94, 6.1) == pytest.approx(T_DOWN_BAND, rel=1e-12)
    assert oracles.dist_down(7.94, 6.1) == pytest.approx(D_DOWN_BAND, rel=1e-12)


def _speed_rows(fn):
    """The two rows fn(s) and s fn(s), whose integrals are the speed moments of fn."""
    return lambda s: np.vstack([np.ones_like(s), s]) * fn(s)


class TestAdaptiveQuadrature:
    def test_polynomial_is_exact(self):
        val = adaptive_quadrature(lambda s: 3.0 * s * s, 0.0, 2.0)
        assert val == pytest.approx(8.0, rel=1e-12)

    def test_reversed_bounds_flip_sign(self):
        val = adaptive_quadrature(lambda s: np.ones_like(s), 2.0, 0.0)
        assert val == pytest.approx(-2.0, rel=1e-12)

    def test_empty_interval(self):
        assert adaptive_quadrature(lambda s: 1.0 / s, 1.0, 1.0) == 0.0

    def test_knots_start_the_panels(self):
        # a polynomial on each knot interval, kinked at s = 1 and s = 2.5
        sizes = []

        def fn(s):
            sizes.append(s.size)
            return np.abs(s - 1.0) + np.maximum(s - 2.5, 0.0) ** 2

        m0, m1 = adaptive_quadrature(_speed_rows(fn), 0.0, 3.0, (1.0, 2.5))
        assert sizes == [3 * 15]
        assert m0 == pytest.approx(2.5 + 0.5**3 / 3.0, rel=1e-14)
        assert m1 == pytest.approx(29.0 / 6.0 + 0.5**4 / 4.0 + 2.5 * 0.5**3 / 3.0, rel=1e-14)
        assert adaptive_quadrature(_speed_rows(fn), 3.0, 0.0, (2.5, 1.0)).tolist() == [-m0, -m1]
        assert adaptive_quadrature(fn, 0.0, 3.0, (1.0, 2.5)) == m0
        # without the knots the kinks cost splits
        sizes.clear()
        adaptive_quadrature(_speed_rows(fn), 0.0, 3.0)
        assert len(sizes) > 1

    def test_knots_outside_the_interval_are_ignored(self):
        nodes = []

        def fn(s):
            nodes.append(s)
            return s

        assert adaptive_quadrature(fn, 1.0, 2.0, (1.5, 3.0)) == pytest.approx(1.5, rel=1e-14)
        assert adaptive_quadrature(fn, 2.0, 1.0, (0.0, 1.5, 3.0)) == pytest.approx(-1.5, rel=1e-14)
        assert adaptive_quadrature(fn, 1.0, 2.0, (-1.0, 0.5, 2.5)) == pytest.approx(1.5, rel=1e-14)
        # one call each, every node inside [1, 2]: two panels, two panels, one panel
        assert [s.size for s in nodes] == [30, 30, 15]
        assert all(1.0 < s.min() and s.max() < 2.0 for s in nodes)

    def test_against_scipy_reference(self):
        fn = lambda s: np.exp(-s) * np.sin(3.0 * s)
        ours = adaptive_quadrature(fn, 0.0, 5.0)
        ref, _ = quad(lambda s: math.exp(-s) * math.sin(3.0 * s), 0.0, 5.0, epsabs=1e-12)
        assert ours == pytest.approx(ref, rel=1e-9)


class TestStackedIntegrands:
    ROWS = (
        lambda s: 1.0 / (1.0 + s * s),
        lambda s: np.exp(-s) * (2.0 + np.sin(3.0 * s)),
        lambda s: np.sqrt(s) + 0.1 * s**3,
    )

    def test_every_row_matches_its_own_pass(self):
        rows = [_speed_rows(row) for row in self.ROWS]
        stacked = adaptive_quadrature(lambda s: np.vstack([r(s) for r in rows]), 0.5, 4.0)
        assert stacked.shape == (6,)
        for i, row in enumerate(self.ROWS):
            assert type(adaptive_quadrature(row, 0.5, 4.0)) is float
            alone = adaptive_quadrature(rows[i], 0.5, 4.0)
            for shared, own in zip(stacked[2 * i : 2 * i + 2], alone):
                assert shared == pytest.approx(own, rel=1e-9)

    def test_the_row_worst_against_its_rule_picks_the_split(self):
        # next to a constant row, a peaked row must get the panels it gets alone
        peak = lambda s: 1.0 / (1e-3 + (s - 1.3) ** 2)
        alone_sizes, stacked_sizes = [], []

        def alone(s):
            alone_sizes.append(s.size)
            return peak(s)

        def stacked(s):
            stacked_sizes.append(s.size)
            return np.vstack([np.ones_like(s), peak(s)])

        single = adaptive_quadrature(alone, 0.0, 2.0)
        both = adaptive_quadrature(stacked, 0.0, 2.0)
        assert stacked_sizes == alone_sizes
        assert alone_sizes[0] == 15 and set(alone_sizes[1:]) == {30}
        assert both[0] == pytest.approx(2.0, rel=1e-14)
        assert both[1] == pytest.approx(single, rel=1e-14)

    def test_reversed_bounds_flip_every_row(self):
        fn = lambda s: np.vstack([np.ones_like(s), s])
        forward = adaptive_quadrature(fn, 0.0, 2.0)
        assert adaptive_quadrature(fn, 2.0, 0.0) == pytest.approx(-forward, rel=1e-15)
        assert forward == pytest.approx([2.0, 2.0], rel=1e-12)

    def test_non_finite_row_raises(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="not finite"):
                adaptive_quadrature(
                    lambda s: np.vstack([np.ones_like(s), 1.0 / (s - 1.0)]), 0.0, 2.0
                )


class TestLazyHeap:
    """The heap of panels is built at the first split; the eager loop is the reference."""

    CASES = (
        # a peak, a kink at a knot and an oscillation on shared panels: many splits
        (lambda s: np.vstack([1.0 / (1e-3 + (s - 1.3) ** 2), np.abs(s - 0.7), np.sin(20.0 * s)]),
         0.0, 2.0, (0.7,), True),
        (lambda s: 1.0 / (1e-4 + (s - 0.31) ** 2), 1.0, 0.0, (), True),
        # converges on its first call
        (lambda s: 3.0 * s * s, 0.0, 2.0, (0.5,), False),
    )

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_same_calls_and_totals_as_the_eager_heap(self, case):
        integrand, lo, hi, knots, splits = self.CASES[case]
        runs = []
        for loop in (adaptive_quadrature, eager_adaptive_quadrature):
            nodes = []

            def fn(s):
                nodes.append(s.copy())
                return integrand(s)

            runs.append((loop(fn, lo, hi, knots), nodes))
        (lazy, lazy_nodes), (eager, eager_nodes) = runs
        assert np.asarray(lazy).tobytes() == np.asarray(eager).tobytes()
        assert len(lazy_nodes) == len(eager_nodes)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(lazy_nodes, eager_nodes))
        assert len(lazy_nodes) > 10 if splits else len(lazy_nodes) == 1


class TestSegments:
    def test_empty_segments_are_zero(self, flat_slice):
        seg = SpeedSegment(flat_slice, True, 7.0, 7.0)
        assert elapsed_time(seg) == 0.0
        assert covered_length(seg) == 0.0
        assert energy_used(seg) == 0.0

    def test_acceleration_leg(self, flat_slice):
        seg = SpeedSegment(flat_slice, True, 6.1, 7.94)
        assert elapsed_time(seg) == pytest.approx(T_UP_BAND, rel=1e-8)
        assert covered_length(seg) == pytest.approx(D_UP_BAND, rel=1e-8)
        assert energy_used(seg) == pytest.approx(161.0 * T_UP_BAND, rel=1e-8)

    def test_deceleration_leg(self, flat_slice):
        seg = SpeedSegment(flat_slice, False, 7.94, 6.1)
        assert elapsed_time(seg) == pytest.approx(T_DOWN_BAND, rel=1e-8)
        assert covered_length(seg) == pytest.approx(D_DOWN_BAND, rel=1e-8)
        assert energy_used(seg) == 0.0  # engine off consumes nothing

    def test_wheel_power_energy(self, params, wheel_power):
        frozen = FrozenDynamics.from_conditions(params, wheel_power)
        seg = SpeedSegment(frozen, True, 6.1, 7.94)
        # h1/f = m f1 s / f: energy is m f1 times the covered length
        assert energy_used(seg) == pytest.approx(93.0 * 0.20 * D_UP_BAND, rel=1e-8)

    def test_asymptotic_approach_is_infinite(self, flat_slice):
        seg = SpeedSegment(flat_slice, True, 6.1, flat_slice.v_high)
        assert math.isinf(elapsed_time(seg))
        assert math.isinf(covered_length(seg))
        assert math.isinf(energy_used(seg))

    def test_narrow_asymptotic_segment_still_classified(self, flat_slice):
        # narrower than the nominal truncation offset: the classification
        # must shrink to the segment scale instead of collapsing to zero
        seg = SpeedSegment(flat_slice, True, flat_slice.v_high - 1e-5, flat_slice.v_high)
        assert math.isinf(elapsed_time(seg))

    def test_orientation_is_enforced(self, flat_slice):
        with pytest.raises(InvalidSegmentError):
            SpeedSegment(flat_slice, True, 7.94, 6.1)
        with pytest.raises(InvalidSegmentError):
            SpeedSegment(flat_slice, False, 6.1, 7.94)

    def test_band_bounds_are_enforced(self, flat_slice):
        with pytest.raises(InvalidSegmentError):
            SpeedSegment(flat_slice, True, 6.1, flat_slice.v_high + 1.0)

    def test_interior_sign_change_rejected(self, params, const_power, flat_slice):
        class DippedSlice(GeneralLawSlice):
            # engine-on acceleration dips through zero in mid-band
            def accel_grid(self, x2, engine_on):
                base = super().accel_grid(x2, engine_on)
                if engine_on:
                    return base - 0.4 * np.exp(-((x2 - 8.0) ** 2))
                return base

        slice_ = DippedSlice(
            params, const_power, 0.0, 0.0, flat_slice.v_low, flat_slice.v_high, False
        )
        seg = SpeedSegment(slice_, True, 6.0, 10.0)
        with pytest.raises(InvalidSegmentError, match="sign"):
            elapsed_time(seg)

    @settings(max_examples=30, deadline=None)
    @given(
        v0=st.floats(min_value=0.5, max_value=15.0),
        frac1=st.floats(min_value=0.1, max_value=0.9),
        width=st.floats(min_value=0.2, max_value=1.5),
    )
    def test_additivity_over_split_points(self, v0, frac1, width):
        frozen = FrozenDynamics.from_conditions(VehicleParams(), PowerModel())
        v2 = min(v0 + width, frozen.v_high - 0.2)
        v1 = v0 + frac1 * (v2 - v0)
        whole = elapsed_time(SpeedSegment(frozen, True, v0, v2))
        parts = elapsed_time(SpeedSegment(frozen, True, v0, v1)) + elapsed_time(
            SpeedSegment(frozen, True, v1, v2)
        )
        assert parts == pytest.approx(whole, rel=1e-8, abs=1e-12)
        whole_d = covered_length(SpeedSegment(frozen, True, v0, v2))
        parts_d = covered_length(SpeedSegment(frozen, True, v0, v1)) + covered_length(
            SpeedSegment(frozen, True, v1, v2)
        )
        assert parts_d == pytest.approx(whole_d, rel=1e-8, abs=1e-12)

    def test_first_order_variation_of_time(self, flat_slice):
        # the short-interval increment over [v1, v1+w] divided by w tends to
        # 1/f(v1) at first order
        v1 = 7.5
        exact = 1.0 / flat_slice.accel(v1, True)
        w = 1e-4
        fd = elapsed_time(SpeedSegment(flat_slice, True, v1, v1 + w)) / w
        assert fd == pytest.approx(exact, rel=1e-4)

    def test_combined_leg_matches_individual_integrals(self, flat_slice):
        t, d = leg_time_distance(flat_slice, True, 6.1, 7.94)
        assert t == pytest.approx(T_UP_BAND, rel=1e-8)
        assert d == pytest.approx(D_UP_BAND, rel=1e-8)
        t, d = leg_time_distance(flat_slice, False, 7.94, 6.1)
        assert t == pytest.approx(T_DOWN_BAND, rel=1e-8)
        assert d == pytest.approx(D_DOWN_BAND, rel=1e-8)


class TestLegsAgainstScipy:
    """One adaptive pass per leg against scipy's quad on random feasible slices."""

    @settings(max_examples=60, deadline=None)
    @given(
        signed=st.booleans(),
        wind=st.floats(min_value=-6.0, max_value=6.0),
        slope=st.floats(min_value=-0.02, max_value=0.02),
        wheel=st.booleans(),
        engine_on=st.booleans(),
        u0=st.floats(min_value=0.02, max_value=0.98),
        u1=st.floats(min_value=0.02, max_value=0.98),
    )
    # legs across the wind speed under signed drag, where r|r| has a kink
    @example(True, 4.6, 0.014, True, True, 0.62, 0.03)
    @example(True, 2.9, 0.007, False, False, 0.18, 0.82)
    def test_time_distance_energy_match_quad(
        self, signed, wind, slope, wheel, engine_on, u0, u1
    ):
        power = PowerModel(kind="wheel_power" if wheel else "constant_electrical")
        try:
            frozen = FrozenDynamics.from_conditions(
                VehicleParams(signed_drag=signed), power, slope, wind
            )
        except InfeasibleSliceError:
            assume(False)
        width = frozen.v_high - frozen.v_low
        lo, hi = sorted((frozen.v_low + u0 * width, frozen.v_low + u1 * width))
        assume(hi - lo > 1e-3 * width)
        # the leg's mode acceleration must keep its sign: a tailwind can make
        # the engine-on acceleration negative at low speed
        law = general_law(frozen)
        grid = law.accel_grid(np.linspace(lo, hi, 257), engine_on)
        assume(np.all(grid > 0.0) if engine_on else np.all(grid < 0.0))
        v0, v1 = (lo, hi) if engine_on else (hi, lo)

        def ref(weight):
            value, _ = quad(
                lambda s: weight(s) / frozen.accel(s, engine_on),
                v0, v1, epsabs=0.0, epsrel=1e-13, limit=200,
            )
            return value

        t_ref = ref(lambda s: 1.0)
        d_ref = ref(lambda s: s)
        t, d = leg_time_distance(frozen, engine_on, v0, v1)
        seg = SpeedSegment(frozen, engine_on, v0, v1)
        for value in (t, elapsed_time(seg)):
            assert value == pytest.approx(t_ref, rel=1e-8)
        for value in (d, covered_length(seg)):
            assert value == pytest.approx(d_ref, rel=1e-8)
        if engine_on:
            e_ref = ref(lambda s: law.power_grid(np.array([s]))[0])
            assert energy_used(seg) == pytest.approx(e_ref, rel=1e-8)
        else:
            assert energy_used(seg) == 0.0


class TestQuadratureVsIntegration:
    @pytest.mark.parametrize(
        "engine_on,v0,v1",
        [(True, 4.0, 9.0), (False, 12.0, 8.5)],
    )
    def test_segment_matches_forward_simulation(
        self, params, const_power, engine_on, v0, v1
    ):
        frozen = FrozenDynamics.from_conditions(params, const_power)
        seg = SpeedSegment(frozen, engine_on, v0, v1)
        track = TrackProfile.flat(1e6, 50.0)
        wind = WindField.zero()
        state = stepper.RaceState(0.0, 0.0, v0, engine_on, 0, 0.0)
        rising = engine_on
        prev = state
        while (state.speed < v1) if rising else (state.speed > v1):
            prev = state
            state = stepper.integrate(state, engine_on, 1e-3, track, wind, params, const_power)
        frac = (v1 - prev.speed) / (state.speed - prev.speed)
        t_sim = prev.t + frac * (state.t - prev.t)
        d_sim = prev.position + frac * (state.position - prev.position)
        e_sim = prev.energy + frac * (state.energy - prev.energy)
        assert t_sim == pytest.approx(elapsed_time(seg), rel=1e-4)
        assert d_sim == pytest.approx(covered_length(seg), rel=1e-4)
        if engine_on:
            assert e_sim == pytest.approx(energy_used(seg), rel=1e-4)
        else:
            assert e_sim == 0.0 == energy_used(seg)


class TestPeriodStats:
    def test_reference_band(self, flat_slice):
        band = band_from_limits(flat_slice, 6.1, 7.94)
        assert band.period == pytest.approx(T_UP_BAND + T_DOWN_BAND, rel=1e-8)
        assert band.distance == pytest.approx(D_UP_BAND + D_DOWN_BAND, rel=1e-8)
        assert band.energy == pytest.approx(161.0 * T_UP_BAND + 10.0, rel=1e-8)
        assert band.avg_speed == pytest.approx(7.00, abs=0.01)

    def test_degenerate_band_average_tends_to_upper(self, flat_slice):
        band = band_from_limits(flat_slice, 7.94 - 1e-6, 7.94)
        assert band.avg_speed == pytest.approx(7.94, abs=1e-5)

    def test_switch_cost_charged_once(self, flat_slice):
        cheap = band_from_limits(flat_slice, 6.1, 7.94)
        costly_params = VehicleParams(switch_cost=25.0)
        frozen = FrozenDynamics.from_conditions(costly_params, PowerModel())
        dear = band_from_limits(frozen, 6.1, 7.94)
        assert dear.energy - cheap.energy == pytest.approx(15.0, abs=1e-6)

    def test_band_validation(self, flat_slice):
        with pytest.raises(InvalidSegmentError):
            band_from_limits(flat_slice, 7.94, 6.1)
        # no band reaches the top equilibrium, which each leg only approaches
        with pytest.raises(InvalidSegmentError, match="v_b < v_high"):
            band_from_limits(flat_slice, 6.1, flat_slice.v_high)

    def test_band_across_an_engine_on_root_rejected(self, params, const_power):
        # climb into a tailwind: the engine-on acceleration changes sign near 1.83 m/s
        frozen = FrozenDynamics.from_conditions(params, const_power, 0.015, 8.0)
        with pytest.raises(InvalidSegmentError, match="sign"):
            band_from_limits(frozen, 1.0, 3.0)
        assert band_from_limits(frozen, 2.0, 3.0).avg_speed > 2.0

    def test_average_speed_increases_with_upper_limit(self, flat_slice):
        avgs = [band_from_limits(flat_slice, 6.1, vb).avg_speed for vb in (7.0, 7.5, 8.0, 9.0)]
        assert all(b > a for a, b in zip(avgs, avgs[1:]))


class TestSaturatingSlice:
    """Dynamics reaching the top equilibrium in finite time (square-root root)."""

    def test_finite_time_to_top(self, params, const_power):
        frozen = sqrt_top_slice(params, const_power)
        seg = SpeedSegment(frozen, True, 0.0, 10.0)
        # int_0^10 dx / (0.2 sqrt((10-x)/10)) = 2 * 10 / 0.2 = 100 s
        assert elapsed_time(seg) == pytest.approx(100.0, rel=1e-6)
