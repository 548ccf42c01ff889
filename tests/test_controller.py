import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ecodrive import (
    ControllerConfig,
    FrozenDynamics,
    InfeasibleSliceError,
    InfeasibleTargetError,
    Leg,
    OscillationBand,
    PowerModel,
    RaceState,
    ScenarioError,
    TrackProfile,
    VehicleParams,
    WindField,
    min_switch_interval,
    replan,
    run_race,
    switch_logic,
)
from ecodrive import controller, errors
from ecodrive import fixtures as fixture_lib
from ecodrive.controller import (
    FLAG_INFEASIBLE,
    FLAG_SAFETY,
    FLAG_STALLED,
    FLAG_UNREACHABLE,
)


def _bisect(value, lo: float, hi: float) -> float:
    """Root of ``value``, negative at lo and not at hi, by halving down to adjacent floats."""
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if value(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def _band(lower, upper):
    return OscillationBand(
        lower=lower, upper=upper, dwell=0.0, period=40.0, distance=280.0,
        energy=2000.0, avg_cost=50.0,
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(race_length=-1.0, race_duration=100.0)
        with pytest.raises(ValueError):
            ControllerConfig(race_length=100.0, race_duration=100.0, trace_interval=0.0)
        with pytest.raises(TypeError):  # legs are exact: there is no time step
            ControllerConfig(race_length=100.0, race_duration=100.0, dt=1e-3)
        with pytest.raises(ValueError):
            ControllerConfig(race_length=100.0, race_duration=100.0, hard_stop_factor=0.5)

    @pytest.mark.parametrize(
        "field", ["race_length", "race_duration", "replan_interval", "hard_stop_factor"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            ControllerConfig(**{"race_length": 100.0, "race_duration": 100.0, field: value})


class TestReplan:
    def test_initial_target_is_length_over_duration(
        self, params, const_power, zero_wind
    ):
        track = TrackProfile.flat(16_500.0, 12.0)
        cfg = ControllerConfig(race_length=16_500.0, race_duration=2_357.0)
        state = RaceState(0.0, 0.0, 0.0, True, 1, 10.0)
        record = replan(state, track, zero_wind, params, const_power, cfg)
        assert record.target == pytest.approx(16_500.0 / 2_357.0, rel=1e-12)
        assert record.flag == ""

    def test_on_schedule_keeps_the_target(self, params, const_power, zero_wind):
        track = TrackProfile.flat(16_500.0, 12.0)
        cfg = ControllerConfig(race_length=16_500.0, race_duration=2_357.0)
        state = RaceState(2_357.0 / 2, 16_500.0 / 2, 7.0, True, 5, 1000.0)
        record = replan(state, track, zero_wind, params, const_power, cfg)
        assert record.target == pytest.approx(16_500.0 / 2_357.0, rel=1e-12)

    def test_recovery_target_after_a_stop(self, params, const_power, zero_wind):
        track = TrackProfile.flat(16_500.0, 12.0)
        cfg = ControllerConfig(race_length=16_500.0, race_duration=2_357.0)
        state = RaceState(1_238.5, 8_250.0, 0.0, True, 3, 500.0)
        record = replan(state, track, zero_wind, params, const_power, cfg)
        assert record.target == pytest.approx(8_250.0 / 1_118.5, rel=1e-12)
        assert record.target == pytest.approx(7.38, abs=0.01)

    def test_unreachable_target_flagged_with_maximal_band(
        self, params, const_power, zero_wind
    ):
        # a climb capping the equilibrium below the required average
        slope = math.asin(0.15 / params.gravity)
        track = TrackProfile((0.0, 16_500.0), (slope, slope), (12.0, 12.0))
        cfg = ControllerConfig(race_length=16_500.0, race_duration=2_357.0)
        state = RaceState(0.0, 0.0, 5.0, True, 1, 10.0)
        record = replan(state, track, zero_wind, params, const_power, cfg)
        assert record.flag == FLAG_UNREACHABLE
        assert record.band.upper < 6.0  # rides just under the local equilibrium

    def test_infeasible_slice_falls_back_to_full_effort(
        self, params, const_power, zero_wind
    ):
        slope = math.asin(0.25 / params.gravity)
        track = TrackProfile((0.0, 1_000.0), (slope, slope), (12.0, 12.0))
        cfg = ControllerConfig(race_length=1_000.0, race_duration=200.0)
        state = RaceState(0.0, 0.0, 0.0, True, 1, 10.0)
        record = replan(state, track, zero_wind, params, const_power, cfg)
        assert record.flag == FLAG_INFEASIBLE
        assert record.band.lower == 0.0
        assert record.reason.startswith("InfeasibleSliceError: ")

    def test_band_search_error_is_recorded(
        self, params, const_power, zero_wind, monkeypatch
    ):
        def failing_search(*args, **kwargs):
            raise InfeasibleTargetError("no band meets the target")

        monkeypatch.setattr(controller, "optimal_band", failing_search)
        track = TrackProfile.flat(16_500.0, 12.0)
        cfg = ControllerConfig(race_length=16_500.0, race_duration=2_357.0)
        state = RaceState(0.0, 0.0, 5.0, True, 1, 10.0)
        record = replan(state, track, zero_wind, params, const_power, cfg)
        assert record.flag == FLAG_UNREACHABLE
        assert record.reason == "InfeasibleTargetError: no band meets the target"

    def test_safety_band_when_target_exceeds_safe_speed(
        self, params, const_power, zero_wind
    ):
        track = TrackProfile.flat(16_500.0, 6.5)
        cfg = ControllerConfig(race_length=16_500.0, race_duration=2_357.0)
        state = RaceState(0.0, 0.0, 5.0, True, 1, 10.0)
        record = replan(state, track, zero_wind, params, const_power, cfg)
        assert record.band.upper == pytest.approx(6.5)
        assert record.band.lower == pytest.approx(6.0)


class TestSwitchLogic:
    def test_reaching_the_top_switches_off(self):
        assert switch_logic(True, 7.94, _band(6.1, 7.94)) is False

    def test_coasting_inside_the_band(self):
        assert switch_logic(False, 7.0, _band(6.1, 7.94)) is False

    def test_reaching_the_bottom_switches_on_and_charges(
        self, params, const_power, zero_wind, short_cfg
    ):
        assert switch_logic(False, 6.1, _band(6.1, 7.94)) is True
        # the race counts each switch-on once and charges its cost at once
        track = TrackProfile.flat(2_000.0, 12.0)
        result = run_race(track, zero_wind, params, const_power, short_cfg)
        assert any(s.flag == "switch_on" for s in result.samples)
        for before, s in zip(result.samples, result.samples[1:]):
            if s.flag == "switch_on":
                assert s.switches == before.switches + 1
                assert s.energy >= before.energy + params.switch_cost
            else:
                assert s.switches == before.switches

    @given(
        speed=st.floats(min_value=0.0, max_value=17.0),
        engine_on=st.booleans(),
    )
    def test_total_function(self, speed, engine_on):
        band = _band(6.1, 7.94)
        out = switch_logic(engine_on, speed, band)
        assert out in (True, False)
        if speed >= band.upper:
            assert out is False
        elif speed <= band.lower:
            assert out is True
        else:
            assert out is engine_on


class TestRunRace:
    def test_zero_length_race(self, params, const_power, zero_wind):
        track = TrackProfile.flat(100.0, 12.0)
        cfg = ControllerConfig(race_length=0.0, race_duration=10.0)
        result = run_race(track, zero_wind, params, const_power, cfg)
        assert result.finished
        assert result.finish_time == 0.0
        assert result.total_energy == 10.0  # the start-up switch
        assert result.switches == 1

    def test_race_longer_than_track_rejected(self, params, const_power, zero_wind):
        track = TrackProfile.flat(100.0, 12.0)
        cfg = ControllerConfig(race_length=200.0, race_duration=100.0)
        with pytest.raises(ScenarioError):
            run_race(track, zero_wind, params, const_power, cfg)

    def test_short_flat_race_meets_schedule(self, params, const_power, zero_wind, short_cfg):
        track = TrackProfile.flat(2_000.0, 12.0)
        result = run_race(track, zero_wind, params, const_power, short_cfg)
        assert result.finished
        target = short_cfg.race_length / short_cfg.race_duration
        assert result.avg_speed == pytest.approx(target, rel=5e-3)

    def test_hysteresis_thresholds_respected(self, params, const_power, zero_wind, short_cfg):
        track = TrackProfile.flat(2_000.0, 12.0)
        result = run_race(track, zero_wind, params, const_power, short_cfg)
        eps = 1e-9  # switches land exactly on the band edges
        for s in result.samples:
            if s.flag == "switch_on":
                assert s.speed <= s.band_lower + eps
            elif s.flag == "switch_off":
                assert s.speed >= s.band_upper - eps

    def test_safety_override_lands_on_a_falling_safety_speed(
        self, params, const_power, zero_wind, short_cfg
    ):
        # the safety speed falls through the band top between 800 and 1200 m
        track = TrackProfile((0.0, 800.0, 1200.0, 2000.0), (0.0,) * 4, (12.0, 12.0, 6.5, 6.5))
        result = run_race(track, zero_wind, params, const_power, short_cfg)
        assert FLAG_SAFETY in result.flags
        for s in result.samples + result.trace:
            v_safe = track.safe_speed_at(s.position)
            if s.flag == FLAG_SAFETY:
                assert s.speed == pytest.approx(v_safe, abs=1e-9)
            elif s.engine_on:
                assert s.speed <= v_safe + 1e-9

    def test_energy_bookkeeping_identity(self, params, const_power, zero_wind, short_cfg):
        # constant power model: consumption minus switching charges must be
        # exactly 161 W times the total engine-on time
        track = TrackProfile.flat(2_000.0, 12.0)
        result = run_race(track, zero_wind, params, const_power, short_cfg)
        events = [s for s in result.samples if s.flag in ("switch_on", "switch_off")]
        assert events[0].flag == "switch_off"  # the race starts engine-on
        on_time = events[0].t
        for on_s, off_s in zip(events[1::2], events[2::2]):
            assert on_s.flag == "switch_on" and off_s.flag == "switch_off"
            on_time += off_s.t - on_s.t
        last = result.samples[-1]
        if events[-1].flag == "switch_on":
            on_time += last.t - events[-1].t
        power_energy = result.total_energy - params.switch_cost * result.switches
        assert power_energy == pytest.approx(161.0 * on_time, rel=1e-6)

    def test_stalled_on_an_impossible_climb(self, params, const_power, zero_wind):
        slope = math.asin(0.25 / params.gravity)
        track = TrackProfile((0.0, 100.0), (slope, slope), (12.0, 12.0))
        cfg = ControllerConfig(race_length=100.0, race_duration=50.0)
        result = run_race(track, zero_wind, params, const_power, cfg)
        assert not result.finished
        assert FLAG_STALLED in result.flags
        assert "did_not_finish" in result.flags
        assert min_switch_interval(result) is None  # never switched after start
        # stuck from the start, the stall is noted at the first replan more
        # than one replan interval later, whatever the trace grid
        assert [s.t for s in result.samples if s.flag == FLAG_STALLED] == [6.0]

    def test_doubling_switch_cost_does_not_shrink_the_gap(
        self, const_power, zero_wind, short_cfg
    ):
        track = TrackProfile.flat(2_000.0, 12.0)
        gaps = []
        for alpha in (10.0, 20.0):
            params = VehicleParams(switch_cost=alpha)
            result = run_race(track, zero_wind, params, const_power, short_cfg)
            gaps.append(min_switch_interval(result))
        assert gaps[1] >= gaps[0]

    def test_summary_matches_samples(self, params, const_power, zero_wind, short_cfg):
        track = TrackProfile.flat(2_000.0, 12.0)
        result = run_race(track, zero_wind, params, const_power, short_cfg)
        last = result.samples[-1]
        assert result.total_energy == last.energy
        assert result.switches == last.switches
        assert result.finish_time == last.t
        assert result.avg_speed == pytest.approx(last.position / last.t, rel=1e-12)


class TestFullRaces:
    def test_flat_race_reference_energy(self, flat_race, flat_oracle):
        # the reference figure neglects the standing start, so the comparison
        # adds the start-up climb energy to it explicitly
        oracle = flat_oracle
        reference = 104_189.0 + oracle["startup_energy"]
        assert flat_race.total_energy == pytest.approx(reference, rel=0.10)
        target = fixture_lib.RACE_LENGTH / fixture_lib.RACE_DURATION
        assert flat_race.avg_speed == pytest.approx(target, rel=5e-3)

    def test_flat_race_matches_event_oracle(self, flat_race, flat_oracle):
        oracle = flat_oracle
        # exact legs and exact band roots on both sides leave only rounding
        assert flat_race.total_energy == pytest.approx(oracle["energy"], rel=1e-6)
        assert flat_race.switches == oracle["switches"]

    def test_gust_race_recovers_the_schedule(self, gust_race):
        target = fixture_lib.RACE_LENGTH / fixture_lib.RACE_DURATION
        assert gust_race.finished
        assert gust_race.avg_speed == pytest.approx(target, rel=0.01)

    def test_hill_race_flags_unreachable_sections(self, hill_race):
        assert hill_race.finished
        assert FLAG_UNREACHABLE in hill_race.flags

    def test_every_fallback_carries_a_reason(self, hill_race):
        fallbacks = [r for r in hill_race.replans if r.flag]
        assert fallbacks
        for record in hill_race.replans:
            assert bool(record.reason) == bool(record.flag)
        for record in fallbacks:
            name = record.reason.split(":")[0]
            if hasattr(errors, name):
                assert issubclass(getattr(errors, name), errors.EcodriveError)
            else:
                assert record.reason.startswith(f"target {record.target:.6g} m/s")

    def test_no_zeno_on_all_fixtures(self, flat_race, hill_race, gust_race):
        for result in (flat_race, hill_race, gust_race):
            costs = [
                r.band.avg_cost
                for r in result.replans
                if math.isfinite(r.band.avg_cost) and r.band.avg_cost > 0.0
            ]
            bound = 10.0 / max(costs)
            assert min_switch_interval(result) > bound

    def test_min_switch_interval_on_the_flat_race(self, flat_race):
        assert min_switch_interval(flat_race) >= 1.0

class TestNextEvent:
    @settings(max_examples=100, deadline=None)
    @given(
        signed=st.booleans(),
        slope=st.floats(min_value=-0.02, max_value=0.02),
        wind=st.floats(min_value=-4.0, max_value=4.0),
        engine_on=st.booleans(),
        v0=st.floats(min_value=0.5, max_value=12.0),
        frac=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_finish_line_lands_on_its_position(self, signed, slope, wind, engine_on, v0, frac):
        leg = Leg.start(VehicleParams(signed_drag=signed), slope, wind, engine_on, v0)
        horizon = min(leg.end_time, 60.0)
        t, x1 = 5.0, 123.0
        s_stop = x1 + leg.distance(frac * horizon)
        assume(s_stop > x1)
        # an edge at the start speed is never ahead
        t_new, x_new, speed = controller._next_event(
            leg, t, x1, leg.v0, t + horizon, s_stop, None
        )
        assert x_new == s_stop
        assert abs(x1 + leg.distance(t_new - t) - s_stop) <= 1e-9
        assert speed == pytest.approx(leg.speed(t_new - t), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        slope=st.floats(min_value=-0.02, max_value=0.01),
        wind=st.floats(min_value=-3.0, max_value=3.0),
        frac=st.floats(min_value=0.05, max_value=0.9),
        gap=st.floats(min_value=0.05, max_value=3.0),
        drop=st.floats(min_value=0.5, max_value=8.0),
        length=st.floats(min_value=20.0, max_value=500.0),
    )
    def test_crossing_of_a_falling_safety_speed(self, slope, wind, frac, gap, drop, length):
        params = VehicleParams()
        try:
            frozen = FrozenDynamics.from_conditions(params, PowerModel(), slope, wind)
        except InfeasibleSliceError:
            assume(False)
        # engine on below the top equilibrium: the speed rises, the safety speed falls
        v0 = max(frozen.v_low, 0.5) + frac * (frozen.v_high - max(frozen.v_low, 0.5))
        v_start, v_end = v0 + gap, max(v0 + gap - drop, 0.2)
        track = TrackProfile(
            (0.0, length, length + 100.0), (slope,) * 3, (v_start, v_end, v_end)
        )
        leg = Leg.start(params, slope, wind, True, v0)
        t, x1, t_stop = 2.0, 0.0, 200.0
        horizon = t_stop - t
        if x1 + leg.distance(horizon) >= length:
            horizon = _bisect(lambda h: x1 + leg.distance(h) - length, 0.0, horizon)

        def above(h):
            return leg.speed(h) - track.safe_speed_at(min(x1 + leg.distance(h), length))

        assume(above(horizon) >= 0.0)
        tau_ref = _bisect(above, 0.0, horizon)
        t_new, x_new, speed = controller._next_event(
            leg, t, x1, leg.v0, t_stop, length, track
        )
        tau = t_new - t
        assert tau == pytest.approx(tau_ref, abs=1e-9)
        assert speed == track.safe_speed_at(x_new)
        assert abs(leg.speed(tau) - track.safe_speed_at(x_new)) <= 1e-9
        assert x_new == pytest.approx(x1 + leg.distance(tau), abs=1e-12)


def _windy_scenario(arcs, slopes, safe_speeds, u1, u2, signed_drag, duration):
    """Wheel-power race with ``u1`` on the first half of the track from t = 60 s
    on, ``u2`` on the second half before then, and calm elsewhere."""
    half = arcs[-1] / 2
    wind = WindField((0.0, half), (0.0, 60.0), ((0.0, u1), (u2, 0.0)))
    cfg = ControllerConfig(race_length=arcs[-1], race_duration=duration)
    return (
        TrackProfile(arcs, slopes, safe_speeds), wind, VehicleParams(signed_drag=signed_drag),
        PowerModel("wheel_power"), cfg,
    )


def _fixture_race(make):
    scenario = make()
    return scenario.track, scenario.wind, scenario.params, scenario.power, scenario.controller


class TestTraceGrid:
    """The dense trace is read off the running leg, so its grid never changes the race."""

    RACES = {
        "flat16500": lambda: _fixture_race(fixture_lib.flat16500),
        "hill": lambda: _fixture_race(fixture_lib.hill),
        "gust": lambda: _fixture_race(fixture_lib.gust),
        # a coast band under a falling safety speed: when trace samples ended
        # legs, 0.5 s and 0.07 s grids gave 5 and 28 switches
        "coast_under_falling_safety": lambda: _windy_scenario(
            (0.0, 83.8, 278.1, 338.5, 528.0, 585.6), (0.0103, 0.0, -0.0104, 0.007, 0.0, 0.0),
            (10.94, 8.19, 9.93, 9.37, 4.51, 10.07), 0.36, -0.79, True, 99.4,
        ),
        # unsigned drag into a headwind; 6 against 31 switches
        "headwind_climb": lambda: _windy_scenario(
            (0.0, 141.9, 228.0, 389.3, 588.2, 1112.6), (0.0092, -0.0146, -0.0036, 0.0217, 0.0, 0.0),
            (11.03, 11.36, 4.91, 7.64, 10.93, 4.59), -1.61, -1.93, False, 158.4,
        ),
    }

    @pytest.mark.parametrize("name", sorted(RACES))
    def test_race_is_the_same_on_a_finer_grid(self, name):
        track, wind, params, power, cfg = self.RACES[name]()
        coarse, fine = (
            run_race(track, wind, params, power, replace(cfg, trace_interval=dt))
            for dt in (0.5, 0.07)
        )
        assert fine.samples == coarse.samples
        assert fine.switch_times == coarse.switch_times
        assert fine.total_energy == coarse.total_energy
        assert fine.flags == coarse.flags
        assert len(fine.trace) > len(coarse.trace)
        # the samples read off each leg run forward in time, place and energy
        for run in (coarse, fine):
            for a, b in zip(run.trace, run.trace[1:]):
                assert b.t > a.t and b.position >= a.position and b.energy >= a.energy
