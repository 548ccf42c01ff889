import bisect
import math
import re
import tempfile
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dense_trace import dense_trace, per_row_trace, speed_rows, trace_rows
from seeded_races import (
    FAMILIES,
    compare,
    legs_below_bottom,
    legs_off_start,
    race_record,
    seeded_races,
    windy_scenario,
)
from ecodrive import (
    DEFAULT_PARAMS,
    ControllerConfig,
    FrozenDynamics,
    InfeasibleSliceError,
    InfeasibleTargetError,
    Leg,
    OscillationBand,
    PowerModel,
    Scenario,
    ScenarioError,
    TelemetrySample,
    TrackProfile,
    VehicleParams,
    WindField,
    emit_report,
    min_switch_interval,
    replan,
    run_race,
    switch_logic,
)
from ecodrive import controller, errors, optimizer
from ecodrive import fixtures as fixture_lib
from ecodrive.controller import (
    FLAG_INFEASIBLE,
    FLAG_REPLAN,
    FLAG_SAFETY,
    FLAG_STALLED,
    FLAG_SWITCH_ON,
    FLAG_UNREACHABLE,
)
from ecodrive.scenario import recompute_summary_from_telemetry


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
        lower=lower, upper=upper, period=40.0, distance=280.0,
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
        with pytest.raises(TypeError):  # replans are events: there is no replan clock
            ControllerConfig(race_length=100.0, race_duration=100.0, replan_interval=3.0)
        with pytest.raises(ValueError):
            ControllerConfig(race_length=100.0, race_duration=100.0, hard_stop_factor=0.5)

    @pytest.mark.parametrize(
        "field", ["race_length", "race_duration", "replan_interval", "hard_stop_factor"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, field, value):
        # replan_interval went with the replan clock: it is refused as a name
        if field == "replan_interval":
            refusal = pytest.raises(TypeError, match="unexpected keyword")
        else:
            refusal = pytest.raises(ValueError, match="finite")
        with refusal:
            ControllerConfig(**{"race_length": 100.0, "race_duration": 100.0, field: value})

    @pytest.mark.parametrize("duration,factor", [(200.0, 1e308), (1.7e308, 1.2)])
    def test_a_hard_stop_that_overflows_is_rejected(self, duration, factor):
        # each value is finite, but the hard stop at their product is not, and a race
        # that stalls before it would never return
        with pytest.raises(ValueError, match="finite"):
            ControllerConfig(race_length=100.0, race_duration=duration, hard_stop_factor=factor)


class TestReplan:
    def test_initial_target_is_length_over_duration(
        self, params, const_power, zero_wind
    ):
        track = TrackProfile.flat(16_500.0, 12.0)
        cfg = ControllerConfig(race_length=16_500.0, race_duration=2_357.0)
        record = replan(0.0, 0.0, track, zero_wind, params, const_power, cfg)
        assert record.target == pytest.approx(16_500.0 / 2_357.0, rel=1e-12)
        assert record.flag == ""

    def test_on_schedule_keeps_the_target(self, params, const_power, zero_wind):
        track = TrackProfile.flat(16_500.0, 12.0)
        cfg = ControllerConfig(race_length=16_500.0, race_duration=2_357.0)
        record = replan(2_357.0 / 2, 16_500.0 / 2, track, zero_wind, params, const_power, cfg)
        assert record.target == pytest.approx(16_500.0 / 2_357.0, rel=1e-12)

    def test_recovery_target_after_a_stop(self, params, const_power, zero_wind):
        track = TrackProfile.flat(16_500.0, 12.0)
        cfg = ControllerConfig(race_length=16_500.0, race_duration=2_357.0)
        record = replan(1_238.5, 8_250.0, track, zero_wind, params, const_power, cfg)
        assert record.target == pytest.approx(8_250.0 / 1_118.5, rel=1e-12)
        assert record.target == pytest.approx(7.38, abs=0.01)

    def test_unreachable_target_flagged_with_maximal_band(
        self, params, const_power, zero_wind
    ):
        # a climb capping the equilibrium below the required average
        slope = math.asin(0.15 / params.gravity)
        track = TrackProfile((0.0, 16_500.0), (slope, slope), (12.0, 12.0))
        cfg = ControllerConfig(race_length=16_500.0, race_duration=2_357.0)
        record = replan(0.0, 0.0, track, zero_wind, params, const_power, cfg)
        assert record.flag == FLAG_UNREACHABLE
        assert record.band.upper < 6.0  # rides just under the local equilibrium
        # the band search, not the controller, compares the target with the top
        assert record.reason.startswith("InfeasibleTargetError: ")

    def test_infeasible_slice_falls_back_to_full_effort(
        self, params, const_power, zero_wind
    ):
        slope = math.asin(0.25 / params.gravity)
        track = TrackProfile((0.0, 1_000.0), (slope, slope), (12.0, 12.0))
        cfg = ControllerConfig(race_length=1_000.0, race_duration=200.0)
        record = replan(0.0, 0.0, track, zero_wind, params, const_power, cfg)
        assert record.flag == FLAG_INFEASIBLE
        # full effort: an engine that is off below the safety speed switches on
        assert record.band.lower == record.band.upper == 12.0
        assert switch_logic(False, 5.0, record.band, track.safe_speed_at(0.0))
        assert record.reason.startswith("InfeasibleSliceError: ")

    def test_too_steep_climb_entered_coasting_switches_the_engine_on(
        self, params, const_power, zero_wind
    ):
        # the climb starts at 300 m; coasting into it, the vehicle must not
        # roll to a stop with the engine off
        steep = math.asin(0.25 / params.gravity)
        track = TrackProfile((0.0, 300.0, 400.0), (0.0, steep, steep), (12.0, 12.0, 12.0))
        cfg = ControllerConfig(race_length=400.0, race_duration=60.0)
        result = run_race(track, zero_wind, params, const_power, cfg)
        at_climb = next(r for r in result.replans if r.position == 300.0)
        assert at_climb.flag == FLAG_INFEASIBLE
        i = next(i for i, s in enumerate(result.samples) if s.position == 300.0)
        entry, after = result.samples[i], result.samples[i + 1]
        assert entry.flag == FLAG_INFEASIBLE and not entry.engine_on and entry.speed > 0.0
        assert after.flag == "switch_on" and after.t == entry.t

    def test_no_safety_band_falls_back_to_full_effort(self, params, const_power):
        # a climb into a tailwind: the engine-on acceleration changes sign near
        # 1.83 m/s, so no band meets the target of 1.67, and the safety band
        # (1.7, 2.2) would span that root too: full effort, and the race runs on
        track = TrackProfile((0.0, 1_000.0), (0.015, 0.015), (2.2, 2.2))
        wind = WindField((0.0,), (0.0,), ((8.0,),))
        cfg = ControllerConfig(race_length=1_000.0, race_duration=600.0)
        record = replan(0.0, 0.0, track, wind, params, const_power, cfg)
        assert record.flag == FLAG_UNREACHABLE
        assert record.band.lower == record.band.upper == 2.2
        assert record.reason.startswith("InfeasibleCandidateError: ")
        assert "; InvalidSegmentError: " in record.reason
        result = run_race(track, wind, params, const_power, cfg)
        assert not result.finished
        assert result.replans[0].reason == record.reason

    def test_refused_lower_speeds_are_counted_not_listed(self):
        # the climb above with the vehicle and power model of its CI report: about
        # 40 lower speeds are refused at each replan, and a reason that joined all
        # their messages ran to 3,087-3,112 characters
        track = TrackProfile((0.0, 1_000.0), (0.015, 0.015), (2.2, 2.2))
        wind = WindField((0.0,), (0.0,), ((8.0,),))
        cfg = ControllerConfig(race_length=1_000.0, race_duration=600.0)
        result = run_race(track, wind, DEFAULT_PARAMS, PowerModel(), cfg)
        reasons = [r.reason for r in result.replans if r.flag == FLAG_UNREACHABLE]
        assert reasons
        for reason in reasons:
            assert len(reason) < 400
            refused = re.search(r"\((\d+) refused\); first: ", reason)
            assert refused and int(refused.group(1)) > 1
            assert "; last: " in reason

    def test_band_search_error_is_recorded(
        self, params, const_power, zero_wind, monkeypatch
    ):
        def failing_search(*args, **kwargs):
            raise InfeasibleTargetError("no band meets the target")

        monkeypatch.setattr(controller, "optimal_band", failing_search)
        track = TrackProfile.flat(16_500.0, 12.0)
        cfg = ControllerConfig(race_length=16_500.0, race_duration=2_357.0)
        record = replan(0.0, 0.0, track, zero_wind, params, const_power, cfg)
        assert record.flag == FLAG_UNREACHABLE
        assert record.reason == "InfeasibleTargetError: no band meets the target"

    def test_safety_band_when_target_exceeds_safe_speed(
        self, params, const_power, zero_wind
    ):
        track = TrackProfile.flat(16_500.0, 6.5)
        cfg = ControllerConfig(race_length=16_500.0, race_duration=2_357.0)
        record = replan(0.0, 0.0, track, zero_wind, params, const_power, cfg)
        assert record.band.upper == pytest.approx(6.5)
        assert record.band.lower == pytest.approx(6.0)

    @pytest.mark.parametrize("safe, duration", [(6.5, 2_357.0), (12.0, 500.0)])
    def test_every_target_goes_to_the_band_search(
        self, params, const_power, zero_wind, monkeypatch, safe, duration
    ):
        # targets of 7.0 above the safety speed and of 33 above the top: the
        # controller asks optimal_band once and compares neither bound itself
        calls = []
        inner = controller.optimal_band

        def recording(frozen, target, *args):
            calls.append(target)
            return inner(frozen, target, *args)

        monkeypatch.setattr(controller, "optimal_band", recording)
        track = TrackProfile.flat(16_500.0, safe)
        cfg = ControllerConfig(race_length=16_500.0, race_duration=duration)
        record = replan(0.0, 0.0, track, zero_wind, params, const_power, cfg)
        assert calls == [record.target]
        assert record.band.upper <= safe


class TestSwitchLogic:
    def test_reaching_the_top_switches_off(self):
        assert switch_logic(True, 7.94, _band(6.1, 7.94), math.inf) is False

    def test_coasting_inside_the_band(self):
        assert switch_logic(False, 7.0, _band(6.1, 7.94), math.inf) is False

    def test_reaching_the_bottom_switches_on_and_charges(
        self, params, const_power, zero_wind, short_cfg
    ):
        assert switch_logic(False, 6.1, _band(6.1, 7.94), math.inf) is True
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
        v_safe=st.one_of(st.just(math.inf), st.floats(min_value=0.1, max_value=20.0)),
    )
    # at the band bottom and at the safety speed at once: the engine stays off
    @example(speed=6.1, engine_on=False, v_safe=6.1)
    def test_total_function(self, speed, engine_on, v_safe):
        band = _band(6.1, 7.94)
        out = switch_logic(engine_on, speed, band, v_safe)
        assert out in (True, False)
        if speed >= band.upper or speed >= v_safe:
            assert out is False
        elif speed <= band.lower:
            assert out is True
        else:
            assert out is engine_on


class TestTelemetrySample:
    def test_fields_in_positional_order(self):
        # run_race builds samples positionally, so the order is the contract
        assert TelemetrySample._fields == (
            "t", "position", "speed", "engine_on", "switches",
            "energy", "band_lower", "band_upper", "flag",
        )

    def test_immutable(self):
        sample = TelemetrySample(0.0, 0.0, 0.0, True, 1, 10.0, 0.0, 0.0, "")
        with pytest.raises(AttributeError):
            sample.speed = 1.0


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
        trace = dense_trace(result, short_cfg.trace_interval, const_power, params)
        for s in result.samples + trace:
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
        # stuck from the start, the stall is noted once, at its onset,
        # whatever the trace grid
        assert [s.t for s in result.samples if s.flag == FLAG_STALLED] == [0.0]

    def test_flags_are_the_reports_recomputed_flags(
        self, params, const_power, zero_wind, short_cfg, tmp_path
    ):
        slope = math.asin(0.25 / params.gravity)
        races = {
            # an impossible climb: full effort from the start, stuck, and never finishing
            "stalled": (
                TrackProfile((0.0, 100.0), (slope, slope), (12.0, 12.0)),
                ControllerConfig(race_length=100.0, race_duration=50.0),
                [FLAG_INFEASIBLE, FLAG_STALLED, "did_not_finish"],
            ),
            # the safety speed falls through the band top between 800 and 1200 m
            "safety": (
                TrackProfile((0.0, 800.0, 1200.0, 2000.0), (0.0,) * 4, (12.0, 12.0, 6.5, 6.5)),
                short_cfg,
                [FLAG_SAFETY, FLAG_UNREACHABLE],
            ),
        }
        for name, (track, cfg, flags) in races.items():
            result = run_race(track, zero_wind, params, const_power, cfg)
            emit_report(result, Scenario(name, params, const_power, track, zero_wind, cfg),
                        tmp_path / name)
            assert list(result.flags) == flags
            assert recompute_summary_from_telemetry(tmp_path / name)["flags"] == flags

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

    def test_flat_race_asks_for_few_legs(self, monkeypatch):
        # a period start keeps a band that meets a target that has not moved, and each replan
        # solves from the band in force: 7 replans and 42 legs, against 57 and 142 where every
        # period start replanned, and 684 legs where every solve started cold at the target
        # -/+ half the smaller room
        legs = []
        inner = optimizer.leg_time_distance

        def counting(frozen, engine_on, v0, v1):
            legs.append(engine_on)
            return inner(frozen, engine_on, v0, v1)

        monkeypatch.setattr(optimizer, "leg_time_distance", counting)
        result = run_race(*_fixture_race(fixture_lib.flat16500))
        assert len(legs) <= 1.5 * 42
        assert len(result.replans) <= 9

    @pytest.mark.parametrize("make", [fixture_lib.flat16500, fixture_lib.hill])
    def test_the_benchmark_sees_each_replan_through_its_module_names(self, make, monkeypatch):
        # perfbench times the reference inside ``controller.replan`` and traces
        # ``controller.freeze`` and ``optimizer.leg_time_distance``: the race must reach each
        # through its module attribute, one replan and one freeze per record
        calls = {"replan": 0, "freeze": 0, "leg_time_distance": 0}
        for module, name in ((controller, "replan"), (controller, "freeze"),
                             (optimizer, "leg_time_distance")):
            def counting(*args, _inner=getattr(module, name), _name=name):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(module, name, counting)
        result = run_race(*_fixture_race(make))
        assert calls["replan"] == calls["freeze"] == len(result.replans) > 0
        assert calls["leg_time_distance"] > 0

    @pytest.mark.parametrize("make", [fixture_lib.flat16500, fixture_lib.gust])
    def test_a_kept_period_start_is_the_band_a_replan_returns(self, make):
        # a coasting leg that lands on its band bottom starts a period; where the race took no
        # replan there, one solving from the band in force gives back the same edges, or, at 2
        # of gust's 45 such instants, where the target sits 9.2e-12 and 9.98e-12 off the band,
        # edges one Newton step of 1.02e-11 and 1.11e-11 away
        race = track, wind, params, power, cfg = _fixture_race(make)
        result = run_race(*race)
        replanned = {record.t for record in result.replans}
        kept = [
            (b.t, b.position, a.band) for a, b in zip(result.legs, result.legs[1:])
            if not a.engine_on and a.speed_end == a.band.lower and b.t not in replanned
        ]
        assert len(kept) >= 40  # 50 on flat16500, 45 on gust
        moved = []
        for t, position, band in kept:
            record = replan(t, position, track, wind, params, power, cfg, band)
            assert record.flag == ""
            edges = (record.band.lower, band.lower), (record.band.upper, band.upper)
            if any(new != old for new, old in edges):
                moved.append(max(abs(new / old - 1.0) for new, old in edges))
        assert len(moved) <= 2 and max(moved, default=0.0) <= 1.2 * optimizer.SOLVE_RTOL

    @pytest.mark.parametrize("make", [fixture_lib.flat16500, fixture_lib.hill, fixture_lib.gust])
    def test_no_fixture_race_coasts_below_its_band_bottom(self, make):
        assert legs_below_bottom(run_race(*_fixture_race(make))) == 0

    @pytest.mark.parametrize("make", [fixture_lib.flat16500, fixture_lib.hill])
    def test_a_second_race_in_one_process_is_the_first(self, make, tmp_path):
        # a replan starts from the band in force of its own race, so nothing of the
        # first race reaches the second
        scenario = make()
        runs = [run_race(*_fixture_race(make)) for _ in range(2)]
        assert runs[0].summary_dict() == runs[1].summary_dict()
        same = repr(runs[0]) == repr(runs[1])  # every sample, leg and replan; no diff of both
        assert same
        paths = [emit_report(run, scenario, tmp_path / str(i)) for i, run in enumerate(runs)]
        first, second = ({key: path.read_bytes() for key, path in run.items()} for run in paths)
        assert [key for key in first if first[key] != second[key]] == []


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
            leg, t, x1, leg.v0, leg.v0, t + horizon, s_stop, None
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
            leg, t, x1, leg.v0, leg.v0, t_stop, length, track
        )
        tau = t_new - t
        assert tau == pytest.approx(tau_ref, abs=1e-9)
        assert speed == track.safe_speed_at(x_new)
        assert abs(leg.speed(tau) - track.safe_speed_at(x_new)) <= 1e-9
        assert x_new == pytest.approx(x1 + leg.distance(tau), abs=1e-12)

    # a replan at a period start of a long-slice race (seed 5) set the band bottom one ulp below
    # the speed the state held; the coasting leg could not resolve it and ran on to rest or to
    # the wind speed: in race 30, v - w rounds the bottom onto the start; in race 18, signed
    # drag, the leg's start v0 = (v - w) + w rounds onto the bottom
    @pytest.mark.parametrize(
        "signed, slope, wind, speed, bottom",
        [
            (False, 0.002235879014727023, 0.36065760863918817, 4.838448584452118,
             4.8384485844521175),
            (True, -0.00023682002889528417, 0.9180200790674165, 5.142883411168115,
             5.142883411168114),
        ],
        ids=["race30", "race18"],
    )
    def test_a_bottom_that_rounding_hides_is_reached_at_once(
        self, signed, slope, wind, speed, bottom
    ):
        params = VehicleParams(signed_drag=signed)
        leg = Leg.start(params, slope, wind, False, speed)
        assert leg.time_to(bottom) == math.inf  # the leg alone coasts past it
        event = controller._next_event(leg, 10.0, 50.0, speed, bottom, 40.0, 5000.0, None)
        assert event == (10.0, 50.0, bottom)
        # a speed on the bottom, as where the safety speed holds the engine off there, coasts on
        leg = Leg.start(params, slope, wind, False, bottom)
        t_new, x_new, v = controller._next_event(leg, 10.0, 50.0, bottom, bottom, 40.0, 5e3, None)
        assert t_new == 40.0 and x_new > 50.0 and v < bottom


@st.composite
def random_races(draw):
    """``windy_scenario`` arguments: a 300-1500 m track of 2-6 cells, each
    breakpoint flat or of slope U(-0.02, 0.03) and with a safety speed
    U(4, 12), winds U(-2, 2), either drag law and power model, and a target
    average speed U(4, 8)."""
    length = draw(st.floats(300.0, 1500.0))
    fractions = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                              min_size=1, max_size=5, unique=True))
    arcs = (0.0, *sorted(length * f for f in fractions), length)
    assume(all(b > a for a, b in zip(arcs, arcs[1:])))
    n = len(arcs)
    slope = st.one_of(st.just(0.0), st.floats(-0.02, 0.03))
    slopes = tuple(draw(st.lists(slope, min_size=n, max_size=n)))
    safe_speeds = tuple(draw(st.lists(st.floats(4.0, 12.0), min_size=n, max_size=n)))
    u1, u2 = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    signed_drag = draw(st.booleans())
    duration = length / draw(st.floats(4.0, 8.0))
    power = draw(st.sampled_from(("constant_electrical", "wheel_power")))
    return arcs, slopes, safe_speeds, u1, u2, signed_drag, duration, power


def _coasts_met_at_entry(result, track):
    """``(record, t_next)`` of each replan that chose an unflagged coast band below the safety
    speed with the speed at or above its target, and the time of the replan after it."""
    replan_flags = (FLAG_REPLAN, FLAG_UNREACHABLE, FLAG_INFEASIBLE)
    taken = [s for s in result.samples if s.flag in replan_flags]
    assert [s.t for s in taken] == [r.t for r in result.replans]
    t_next = [r.t for r in result.replans[1:]] + [math.inf]
    return [
        (rec, t) for rec, sample, t in zip(result.replans, taken, t_next)
        if not rec.flag and rec.band.is_coast and sample.speed >= rec.target
        and rec.band.upper < track.safe_speed_at(rec.position)
    ]


def _fixture_race(make):
    scenario = make()
    return scenario.track, scenario.wind, scenario.params, scenario.power, scenario.controller


# ``windy_scenario`` arguments of two races whose trace samples used to end
# legs.  A coast band under a falling safety speed: 0.5 s and 0.07 s grids
# gave 5 and 28 switches.
COAST_UNDER_FALLING_SAFETY = (
    (0.0, 83.8, 278.1, 338.5, 528.0, 585.6), (0.0103, 0.0, -0.0104, 0.007, 0.0, 0.0),
    (10.94, 8.19, 9.93, 9.37, 4.51, 10.07), 0.36, -0.79, True, 99.4,
)
# unsigned drag into a headwind; 6 against 31 switches
HEADWIND_CLIMB = (
    (0.0, 141.9, 228.0, 389.3, 588.2, 1112.6), (0.0092, -0.0146, -0.0036, 0.0217, 0.0, 0.0),
    (11.03, 11.36, 4.91, 7.64, 10.93, 4.59), -1.61, -1.93, False, 158.4,
)

# descents that coast ahead of schedule: 6 coast bands entered above their target, which a
# 3 s re-check of each band replanned 27 times more
COASTS_AHEAD = (
    (0.0, 290.6, 409.4, 505.3, 543.8, 838.9, 1367.9),
    (-0.02, -0.0164, -0.0131, 0.0, -0.0055, 0.0, 0.0),
    (9.81, 10.25, 8.76, 9.81, 5.46, 5.5, 8.22), -0.74, 0.0, False, 340.5, "wheel_power",
)


class TestRandomRaces:
    # a coasting leg that lands on the band bottom under a falling safety
    # speed: replanning at every such landing made 3,000+ replans in 1e-12 s
    ZENO_TRAP = (
        (0.0, 94.46830247159686, 299.7542274391755, 322.4334396481245, 1267.3289556824914),
        (0.0018834109816266605, -0.01750910263425825, 0.0, -0.0020023107257231484,
         0.023856245191789537),
        (6.604438690303762, 6.544802869648873, 10.541539531428423, 8.855458341612803,
         4.560230147293768),
        0.2970473001388605, 1.5644410476876351, False, 184.72848380643248,
    )

    # coasting legs that reach the band bottom at or above the safety speed, at
    # t = 62.26 s and 69.21 s: an override after the hysteresis switched the
    # engine on and off at each, 4 switches and 2,728.678 J against 2 and 2α less
    SWITCH_ON_AT_SAFETY = (
        (0.0, 422.51087354761887, 518.5581948498799, 665.1112107599179),
        (-0.018464981969940973, 0.022694490670857433, -0.0032449420704726423,
         0.0055917856458476585),
        (5.257209434350833, 10.334494149528538, 5.949312875789389, 8.653569870876314),
        1.0494358904663996, -1.9642681767345773, False, 99.67001916926476,
        "constant_electrical",
    )

    @settings(max_examples=100, deadline=None)
    @given(args=random_races())
    @example(args=ZENO_TRAP)
    @example(args=COAST_UNDER_FALLING_SAFETY)
    @example(args=HEADWIND_CLIMB)
    @example(args=SWITCH_ON_AT_SAFETY)
    @example(args=COASTS_AHEAD)
    def test_replans_are_bounded_by_the_events_that_call_them(self, args):
        track, wind, params, power, cfg = windy_scenario(*args)
        result = run_race(track, wind, params, power, cfg)
        # one switching rule: no switch-on is overridden at its own instant
        overrides = {s.t for s in result.samples if s.flag == FLAG_SAFETY}
        assert not any(s.flag == FLAG_SWITCH_ON and s.t in overrides for s in result.samples)
        gap = min_switch_interval(result)
        assert gap is None or gap > 0.0
        # the trace grid is read off the legs: a finer one changes no event
        fine = run_race(track, wind, params, power, replace(cfg, trace_interval=0.07))
        assert fine.samples == result.samples
        assert fine.total_energy == result.total_energy
        assert fine.flags == result.flags
        end = result.samples[-1]
        # every race ends, at the finish or at the hard stop
        assert result.finished or end.t >= cfg.hard_stop_factor * cfg.race_duration - 1e-12
        edges = {*track.arclength[1:], *wind.arclength[1:]}
        cells = sum(1 for s in edges if s <= end.position)
        cells += sum(1 for t in wind.time[1:] if t <= end.t)
        rechecks = sum(
            1 for a, b in zip(result.replans, result.replans[1:])
            if b.t == a.t + controller.RECHECK_INTERVAL
        )
        assert len(result.replans) <= 1 + result.switches + cells + rechecks
        # a coast band entered at or above its target meets it until the next cell edge
        coasts = _coasts_met_at_entry(result, track)
        assert not any(t == rec.t + controller.RECHECK_INTERVAL for rec, t in coasts)

    @settings(max_examples=100, deadline=None)
    @given(args=random_races())
    @example(args=COASTS_AHEAD)
    def test_a_coast_entered_at_or_above_its_target_stays_there(self, args):
        # the target r = (L - x)/(T - t) obeys dr/dt = (r - v)/(T - t), so it cannot rise
        # while v >= r, and a coasting speed at or above r <= v_low relaxes toward v_low
        track, wind, params, power, cfg = windy_scenario(*args)
        result = run_race(track, wind, params, power, cfg)
        trace = dense_trace(result, 0.07, power, params)
        times = [s.t for s in trace]
        for rec, t_next in _coasts_met_at_entry(result, track):
            for s in trace[bisect.bisect_left(times, rec.t):bisect.bisect_left(times, t_next)]:
                target = (cfg.race_length - s.position) / (cfg.race_duration - s.t)
                assert s.speed >= target, (rec, s)

    @settings(max_examples=50, deadline=None)
    @given(args=random_races(), interval=st.sampled_from((0.07, 0.5, 1.3)))
    def test_speed_trace_is_the_reference_formatted_row_by_row(self, args, interval):
        track, wind, params, power, cfg = windy_scenario(*args)
        cfg = replace(cfg, trace_interval=interval)
        result = run_race(track, wind, params, power, cfg)
        with tempfile.TemporaryDirectory() as tmp:
            paths = emit_report(result, Scenario("random", params, power, track, wind, cfg), tmp)
            lines = paths["speed_trace"].read_text().splitlines()
        assert lines == per_row_trace(speed_rows(dense_trace(result, interval, power, params)))


class TestSeededRaces:
    """The generator that compares two commits on thousands of races, outside the suite."""

    def test_draws_are_reproducible_and_in_the_ranges_of_random_races(self):
        races = seeded_races(11, 300)
        assert races == seeded_races(11, 300) != seeded_races(12, 300)
        for arcs, slopes, safe, u1, u2, signed, duration, power in races:
            assert 300.0 <= arcs[-1] <= 1500.0 and 3 <= len(arcs) <= 7
            assert all(b > a for a, b in zip(arcs, arcs[1:]))
            assert len(slopes) == len(safe) == len(arcs)
            assert all(s == 0.0 or -0.02 <= s <= 0.03 for s in slopes)
            assert all(4.0 <= v <= 12.0 for v in safe) and -2.0 <= min(u1, u2)
            assert max(u1, u2) <= 2.0
            assert 4.0 <= arcs[-1] / duration <= 8.0
            assert isinstance(signed, bool) and power in ("constant_electrical", "wheel_power")
        slopes = [s for race in races for s in race[1]]
        assert 0.3 < slopes.count(0.0) / len(slopes) < 0.7  # half the breakpoints are flat

    def test_compare_flags_a_lost_finish_and_a_moved_energy(self):
        records = [race_record(i, race) for i, race in enumerate(seeded_races(11, 3))]
        assert all(r["finished"] for r in records)
        assert compare(records, records)[1]
        lost = [dict(records[0], finished=False), *records[1:]]
        assert not compare(records, lost)[1]
        moved = [dict(records[0], energy=records[0]["energy"] * (1.0 + 1e-8)), *records[1:]]
        lines, agree = compare(records, moved)
        assert not agree and "race 0" in lines[1]

    def test_compare_flags_a_leg_below_its_band_bottom_on_the_second_side(self):
        records = [race_record(i, race) for i, race in enumerate(seeded_races(11, 3))]
        assert not any(r["below_bottom"] for r in records)
        below = [*records[:2], dict(records[2], below_bottom=1)]
        lines, agree = compare(records, below)
        assert not agree and lines[-1].endswith("0 -> 1 [2]")
        assert compare(below, records)[1]  # a mended race is no failure

    def test_compare_flags_a_leg_off_its_start_on_the_second_side(self):
        records = [race_record(i, race) for i, race in enumerate(seeded_races(11, 3))]
        assert not any(r["off_start"] for r in records)
        off = [dict(records[0], off_start=2), *records[1:]]
        lines, agree = compare(records, off)
        assert not agree and lines[-2].endswith("0 -> 1 [0]")
        assert compare(off, records)[1]

    # (family, seed, race): a start at (v - w) + w puts 64 of the signed-drag long race's 130
    # legs and 1 of the short race's 11 one ulp off the speed the last leg ended on
    @pytest.mark.parametrize("family, seed, index", [("long", 5, 18), ("short", 11, 3)])
    def test_every_leg_starts_at_the_speed_the_last_one_ended_on(self, family, seed, index):
        args = seeded_races(seed, index + 1, family)[index]
        result = run_race(*FAMILIES[family][1](*args))
        legs = result.legs
        assert [rec.leg.v0 for rec in legs[1:]] == [rec.speed_end for rec in legs[:-1]]
        assert legs_off_start(result) == 0


class TestLongSliceRaces:
    """Races that hold one slice for many periods, where most period starts keep their band."""

    def test_draws_are_reproducible_and_in_their_ranges(self):
        races = seeded_races(5, 60, "long")
        assert races == seeded_races(5, 60, "long") != seeded_races(6, 60, "long")
        for length, target, slope, wind, alpha, signed, power in races:
            assert 5000.0 <= length <= 20000.0 and 3.0 <= target <= 9.5
            assert -0.01 <= slope <= 0.01 and -2.0 <= wind <= 2.0 and 5.0 <= alpha <= 20.0
            assert isinstance(signed, bool) and power in ("constant_electrical", "wheel_power")

    # (seed, race) of races that coasted past the band bottom where a replan at a period
    # start had set it one ulp below the speed: 2.0 %, 0.34 %, 10 %, 15 % and 16 % more energy
    @pytest.mark.parametrize("seed, index", [(5, 30), (5, 18), (1, 57), (1, 58), (4, 37)])
    def test_no_race_coasts_below_its_band_bottom(self, seed, index):
        args = seeded_races(seed, index + 1, "long")[index]
        result = run_race(*FAMILIES["long"][1](*args))
        assert result.finished
        assert legs_below_bottom(result) == 0


class TestTraceGrid:
    """The trace is read off the race's recorded legs, so its grid never changes the race."""

    RACES = {
        "flat16500": lambda: _fixture_race(fixture_lib.flat16500),
        "hill": lambda: _fixture_race(fixture_lib.hill),
        "gust": lambda: _fixture_race(fixture_lib.gust),
        "coast_under_falling_safety": lambda: windy_scenario(*COAST_UNDER_FALLING_SAFETY),
        "headwind_climb": lambda: windy_scenario(*HEADWIND_CLIMB),
    }

    @pytest.mark.parametrize("name", sorted(RACES))
    def test_race_is_the_same_on_a_finer_grid(self, name):
        track, wind, params, power, cfg = self.RACES[name]()
        grids = (0.5, 0.07)
        coarse, fine = (
            run_race(track, wind, params, power, replace(cfg, trace_interval=dt)) for dt in grids
        )
        assert fine.samples == coarse.samples
        assert fine.total_energy == coarse.total_energy
        assert fine.flags == coarse.flags
        coarse_trace, fine_trace = (
            dense_trace(run, dt, power, params) for run, dt in zip((coarse, fine), grids)
        )
        assert len(fine_trace) > len(coarse_trace)
        for run, dt, trace in zip((coarse, fine), grids, (coarse_trace, fine_trace)):
            # the report's rows are the reference's, field for field
            assert trace_rows(run.legs, dt) == speed_rows(trace)
            # the samples read off each leg run forward in time, place and energy
            for a, b in zip(trace, trace[1:]):
                assert b.t > a.t and b.position >= a.position and b.energy >= a.energy

    @pytest.mark.parametrize("name, dt", [("hill", 0.1), ("gust", 0.07), ("flat16500", 0.37)])
    def test_grid_rows_lie_at_whole_multiples_of_the_interval(self, name, dt):
        # row k of the trace lies at k * dt unless an event took it: a running sum of dt
        # drifts, and wrote 2264.499999999036 for 2264.5 on hill at 0.1 s
        track, wind, params, power, cfg = self.RACES[name]()
        cfg = replace(cfg, trace_interval=dt)
        result = run_race(track, wind, params, power, cfg)
        with tempfile.TemporaryDirectory() as tmp:
            paths = emit_report(result, Scenario(name, params, power, track, wind, cfg), tmp)
            lines = paths["speed_trace"].read_text().splitlines()[1:]
        times = [float(line.split(",", 1)[0]) for line in lines]
        events = {rec.t_end for rec in result.legs}
        grid = [(k, t) for k, t in enumerate(times) if t not in events]
        assert len(grid) > 0.9 * len(times)
        assert [t for k, t in grid if t != k * dt] == []
        # the reference reads the same times
        assert [s.t for s in dense_trace(result, dt, power, params)] == times
