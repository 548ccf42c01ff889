import concurrent.futures
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ecodrive
from dense_trace import dense_trace, per_row_trace, speed_rows, trace_rows
from ecodrive import (
    DEFAULT_PARAMS,
    ControllerConfig,
    Leg,
    OscillationBand,
    PowerModel,
    RaceResult,
    ScenarioError,
    TelemetrySample,
    TrackProfile,
    VehicleParams,
    WindField,
    optimal_band,
    run_race,
)
from ecodrive import fixtures as fixture_lib
from ecodrive import harness
from ecodrive.controller import LegRecord
from ecodrive.harness import main
from ecodrive.scenario import (
    CONTROLLER_FIELDS,
    PARAM_FIELDS,
    default_out_dir,
    emit_report,
    load_scenario,
    read_summary,
    recompute_summary_from_telemetry,
    write_scenario,
)


@pytest.fixture
def short_scenario(tmp_path, short_cfg):
    base = fixture_lib.flat16500()
    scenario = type(base)(
        name="short",
        params=base.params,
        power=base.power,
        track=TrackProfile.flat(2_000.0, 12.0),
        wind=base.wind,
        controller=short_cfg,
    )
    scenario_dir = tmp_path / "short"
    write_scenario(scenario, scenario_dir)
    return scenario, scenario_dir


def _set_keys(path: Path, **values) -> None:
    data = json.loads(path.read_text())
    data.update(values)
    path.write_text(json.dumps(data))


# a value other than the dataclass default for every key of both tables
_NON_DEFAULT = {
    "a": 7e-4,
    "c": 0.04,
    "g": 9.8,
    "f1": 0.25,
    "m": 90.0,
    "alpha": 12.5,
    "signed_drag": True,
    "power_model": "wheel_power",
    "constant_watts": 150.0,
    "duration_s": 250.0,
    "safety_margin_mps": 0.25,
    "hard_stop_factor": 1.5,
    "trace_interval_s": 0.25,
    "grid_tol_mps": 1e-5,
}


def _field_value(scenario, key: str):
    obj, name, _ = {**PARAM_FIELDS, **CONTROLLER_FIELDS}[key]
    objects = {
        "params": scenario.params,
        "power": scenario.power,
        "controller": scenario.controller,
        "grid": scenario.controller.grid,
    }
    return getattr(objects[obj], name)


class TestScenarioRoundTrip:
    @pytest.mark.parametrize("name", ["flat16500", "hill", "gust"])
    def test_fixture_files_reload_identically(self, tmp_path, name):
        scenario = fixture_lib.FIXTURES[name]()
        write_scenario(scenario, tmp_path / name)
        loaded = load_scenario(tmp_path / name)
        assert loaded.content_equal(scenario)

    def test_absent_wind_file_means_zero_wind(self, tmp_path):
        write_scenario(fixture_lib.flat16500(), tmp_path / "flat")
        assert not (tmp_path / "flat" / "wind.csv").exists()
        assert load_scenario(tmp_path / "flat").wind == WindField.zero()

    @pytest.mark.parametrize("key", sorted(PARAM_FIELDS.keys() | CONTROLLER_FIELDS.keys()))
    def test_every_key_survives_write_and_load(self, tmp_path, short_scenario, key):
        base, scenario_dir = short_scenario
        value = _NON_DEFAULT[key]
        target = "params.json" if key in PARAM_FIELDS else "controller.json"
        _set_keys(scenario_dir / target, **{key: value})
        loaded = load_scenario(scenario_dir)
        expected = tuple(value) if isinstance(value, list) else value
        assert _field_value(loaded, key) == expected != _field_value(base, key)
        write_scenario(loaded, tmp_path / "again")
        assert load_scenario(tmp_path / "again").content_equal(loaded)

    def test_absent_keys_take_the_dataclass_defaults(self, tmp_path, short_scenario):
        _, scenario_dir = short_scenario
        required = {"a": 7e-4, "c": 0.04, "g": 9.8, "f1": 0.25, "m": 90.0, "alpha": 12.5}
        (scenario_dir / "params.json").write_text(json.dumps(required))
        (scenario_dir / "controller.json").write_text(json.dumps({"duration_s": 250.0}))
        loaded = load_scenario(scenario_dir)
        assert loaded.power == PowerModel()
        assert loaded.params == VehicleParams(
            drag_coeff=7e-4,
            solid_friction=0.04,
            gravity=9.8,
            traction=0.25,
            mass=90.0,
            switch_cost=12.5,
        )
        assert loaded.controller == ControllerConfig(loaded.track.length, 250.0)


class TestScenarioValidation:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(ScenarioError, match="not a directory"):
            load_scenario(tmp_path / "nope")

    def test_empty_track_file(self, tmp_path, short_scenario):
        _, scenario_dir = short_scenario
        (scenario_dir / "track.csv").write_text("s_m,slope_rad,vsafe_mps\n")
        with pytest.raises(ScenarioError, match="no breakpoints"):
            load_scenario(scenario_dir)

    def test_malformed_row_reports_line_number(self, short_scenario):
        _, scenario_dir = short_scenario
        (scenario_dir / "track.csv").write_text(
            "s_m,slope_rad,vsafe_mps\n0.0,0.0,12.0\nbogus,0.0,12.0\n"
        )
        with pytest.raises(ScenarioError, match="line 3"):
            load_scenario(scenario_dir)

    def test_blank_rows_are_skipped_but_counted(self, short_scenario):
        _, scenario_dir = short_scenario
        track = scenario_dir / "track.csv"
        track.write_text("s_m,slope_rad,vsafe_mps\n0.0,0.0,12.0\n\n , ,\t\n2000.0,0.0,12.0\n")
        assert load_scenario(scenario_dir).track == TrackProfile.flat(2_000.0, 12.0)
        track.write_text("s_m,slope_rad,vsafe_mps\n0.0,0.0,12.0\n\n , ,\t\n2000.0,0.0\n")
        with pytest.raises(ScenarioError, match="track.csv line 5: expected 3 fields, got 2"):
            load_scenario(scenario_dir)

    def test_non_monotone_arclength_names_the_invariant(self, short_scenario):
        _, scenario_dir = short_scenario
        (scenario_dir / "track.csv").write_text(
            "s_m,slope_rad,vsafe_mps\n0.0,0.0,12.0\n50.0,0.0,12.0\n50.0,0.0,12.0\n"
        )
        with pytest.raises(ScenarioError, match="strictly increasing"):
            load_scenario(scenario_dir)

    def test_wrong_header(self, short_scenario):
        _, scenario_dir = short_scenario
        (scenario_dir / "track.csv").write_text("a,b,c\n0,0,12\n")
        with pytest.raises(ScenarioError, match="header"):
            load_scenario(scenario_dir)

    def test_unknown_params_key(self, short_scenario):
        _, scenario_dir = short_scenario
        data = json.loads((scenario_dir / "params.json").read_text())
        data["turbo"] = 1
        (scenario_dir / "params.json").write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="unknown keys"):
            load_scenario(scenario_dir)

    def test_time_step_key_refused(self, short_scenario):
        # legs are exact, so a controller file may no longer set dt_s, nor
        # fine_halfwidth_mps, since the fine search window is a constant
        _, scenario_dir = short_scenario
        controller_json = (scenario_dir / "controller.json").read_text()
        for key, value in (("dt_s", 1e-3), ("fine_halfwidth_mps", 0.5)):
            (scenario_dir / "controller.json").write_text(controller_json)
            _set_keys(scenario_dir / "controller.json", **{key: value})
            with pytest.raises(ScenarioError, match="unknown keys"):
                load_scenario(scenario_dir)

    @pytest.mark.parametrize(
        "key, value",
        [("signed_drag", "false"), ("signed_drag", 0), ("a", "7e-4"), ("m", True)],
    )
    def test_params_file_values_are_type_checked(self, short_scenario, key, value):
        _, scenario_dir = short_scenario
        _set_keys(scenario_dir / "params.json", **{key: value})
        with pytest.raises(ScenarioError, match=f"params.json: {key}: expected"):
            load_scenario(scenario_dir)

    def test_non_finite_track_cell_names_the_line(self, short_scenario):
        _, scenario_dir = short_scenario
        (scenario_dir / "track.csv").write_text(
            "s_m,slope_rad,vsafe_mps\n0.0,nan,12.0\n2000.0,0.0,12.0\n"
        )
        with pytest.raises(ScenarioError, match="track.csv line 2: non-finite value 'nan'"):
            load_scenario(scenario_dir)

    def test_non_finite_wind_cell_names_the_line(self, short_scenario):
        _, scenario_dir = short_scenario
        (scenario_dir / "wind.csv").write_text(
            "s_m,t_s,v_mps\n0.0,0.0,0.0\n0.0,10.0,inf\n"
        )
        with pytest.raises(ScenarioError, match="wind.csv line 3: non-finite value 'inf'"):
            load_scenario(scenario_dir)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TrackProfile((0.0, math.inf), (0.0, 0.0), (12.0, 12.0)),
            lambda: TrackProfile((0.0, 100.0), (math.nan, 0.0), (12.0, 12.0)),
            lambda: TrackProfile((0.0, 100.0), (0.0, 0.0), (12.0, math.inf)),
            lambda: WindField((0.0,), (0.0,), ((math.nan,),)),
            lambda: WindField((0.0, math.inf), (0.0,), ((1.0,), (1.0,))),
            lambda: WindField((0.0,), (0.0, math.inf), ((1.0, 1.0),)),
        ],
        ids=["track_arclength", "track_slope", "track_vsafe", "wind_speed", "wind_arclength",
             "wind_time"],
    )
    def test_non_finite_values_built_in_code_rejected(self, build):
        # the CSV readers refuse non-finite cells; the constructors must too
        with pytest.raises(ScenarioError, match="must be finite"):
            build()

    def test_non_rectangular_wind(self, short_scenario):
        _, scenario_dir = short_scenario
        (scenario_dir / "wind.csv").write_text(
            "s_m,t_s,v_mps\n0.0,0.0,0.0\n0.0,10.0,1.0\n100.0,0.0,0.0\n"
        )
        with pytest.raises(ScenarioError, match="rectangular"):
            load_scenario(scenario_dir)


class TestOverrides:
    def test_alpha_override(self, short_scenario):
        _, scenario_dir = short_scenario
        scenario = load_scenario(scenario_dir, ("alpha=20",))
        assert scenario.params.switch_cost == 20.0

    def test_power_model_override(self, short_scenario):
        _, scenario_dir = short_scenario
        scenario = load_scenario(scenario_dir, ("power_model=wheel_power",))
        assert scenario.power.kind == "wheel_power"

    def test_controller_override(self, short_scenario):
        _, scenario_dir = short_scenario
        scenario = load_scenario(scenario_dir, ("duration_s=300", "grid_tol_mps=2e-4"))
        assert scenario.controller.race_duration == 300.0
        assert scenario.controller.grid.tol == 2e-4

    def test_grid_offsets_key_refused(self, short_scenario):
        # the band search solves for the optimum, so there are no candidate
        # offsets to set, in the file or on the command line
        _, scenario_dir = short_scenario
        with pytest.raises(ScenarioError, match="not recognized"):
            load_scenario(scenario_dir, ("grid_offsets_mps=1.0,0.5",))
        _set_keys(scenario_dir / "controller.json", grid_offsets_mps=[2.0, 1.0])
        with pytest.raises(ScenarioError, match=r"unknown keys \['grid_offsets_mps'\]"):
            load_scenario(scenario_dir)

    def test_unknown_key_rejected(self, short_scenario):
        _, scenario_dir = short_scenario
        with pytest.raises(ScenarioError, match="not recognized"):
            load_scenario(scenario_dir, ("warp=9",))

    def test_malformed_override_rejected(self, short_scenario):
        _, scenario_dir = short_scenario
        with pytest.raises(ScenarioError, match="key=value"):
            load_scenario(scenario_dir, ("alpha",))

    # JSON override values may be NaN and Infinity; a NaN replan interval
    # used to make the race replan forever
    @pytest.mark.parametrize(
        "item",
        [
            "duration_s=Infinity",
            "replan_interval_s=NaN",
            "replan_interval_s=Infinity",
            "safety_margin_mps=NaN",
            "trace_interval_s=NaN",
            "hard_stop_factor=NaN",
            "hard_stop_factor=Infinity",
            "hard_stop_factor=1e308",  # finite, but not the hard stop at 1e308 * duration
            "duration_s=1.7e308",
            "a=NaN",
            "c=Infinity",
            "g=NaN",
            "f1=Infinity",
            "m=NaN",
            "alpha=-Infinity",
            "constant_watts=Infinity",
            "grid_tol_mps=NaN",
            "fine_step_mps=NaN",
            "fine_step_mps=Infinity",
            "grid_offsets_mps=1.0,nan",
            "grid_offsets_mps=inf",
        ],
    )
    def test_non_finite_or_non_positive_value_rejected(self, short_scenario, item):
        _, scenario_dir = short_scenario
        # the grid_offsets_mps key went with the candidate grid, the
        # replan_interval_s key with the replan clock and the fine_step_mps key
        # with the bisection, so their non-finite values are refused before
        # they are read
        removed = item.startswith(("grid_offsets_mps=", "replan_interval_s=", "fine_step_mps="))
        refusal = "not recognized" if removed else "finite"
        with pytest.raises(ScenarioError, match=refusal):
            load_scenario(scenario_dir, (item,))

    # a value must have its JSON type: bool("False") would turn signed drag on
    @pytest.mark.parametrize(
        "item",
        [
            "signed_drag=False",
            "signed_drag=no",
            "signed_drag=1",
            "a=true",
            'alpha="20"',
            "power_model=3",
            "fine_step_mps=false",
            "m=1" + "0" * 400,
        ],
        ids=lambda item: item[:20],
    )
    def test_mistyped_value_rejected(self, short_scenario, item):
        _, scenario_dir = short_scenario
        key = item.split("=")[0]
        # the removed fine_step_mps key is refused before its value is read
        refusal = "not recognized" if key == "fine_step_mps" else f"{key}: (expected|int too large)"
        with pytest.raises(ScenarioError, match=refusal):
            load_scenario(scenario_dir, (item,))

    def test_mistyped_override_is_blamed_on_the_override(self, short_scenario):
        # params.json holds a valid false; the error must not name the file
        _, scenario_dir = short_scenario
        with pytest.raises(ScenarioError) as err:
            load_scenario(scenario_dir, ("signed_drag=False",))
        assert str(err.value).startswith("override 'signed_drag=False': ")
        assert "expected true or false" in str(err.value)
        assert "params.json" not in str(err.value)

    @pytest.mark.parametrize("item", ["m=-1", "replan_interval_s=0", "c=0.5"])
    def test_out_of_range_override_is_blamed_on_the_override(self, short_scenario, item):
        # the files hold valid values; the error must name the override, or
        # the key of the removed replan clock, which is refused unread
        _, scenario_dir = short_scenario
        with pytest.raises(ScenarioError) as err:
            load_scenario(scenario_dir, (item,))
        if item.startswith("replan_interval_s="):
            assert str(err.value) == "override key 'replan_interval_s' is not recognized"
        else:
            assert str(err.value).startswith(f"override {item!r}: ")
        assert ".json" not in str(err.value)

    def test_out_of_range_file_value_is_blamed_on_the_file(self, short_scenario):
        _, scenario_dir = short_scenario
        _set_keys(scenario_dir / "params.json", m=-1.0)
        with pytest.raises(ScenarioError) as err:
            load_scenario(scenario_dir, ("m=93",))
        assert str(err.value).startswith(f"{scenario_dir / 'params.json'}: mass must be")

    def test_mistyped_file_value_is_blamed_on_the_file(self, short_scenario):
        _, scenario_dir = short_scenario
        _set_keys(scenario_dir / "params.json", signed_drag="False")
        with pytest.raises(ScenarioError) as err:
            load_scenario(scenario_dir, ("alpha=12",))
        assert str(err.value).startswith(f"{scenario_dir / 'params.json'}: signed_drag: expected")
        assert "override" not in str(err.value)

    def test_json_booleans_accepted(self, short_scenario):
        _, scenario_dir = short_scenario
        scenario = load_scenario(scenario_dir, ("signed_drag=true",))
        assert scenario.params.signed_drag is True

    def test_null_fine_step_refused(self, short_scenario):
        # the band search has no resolution to set, in the file or on the
        # command line: the key is refused, whatever its value
        _, scenario_dir = short_scenario
        with pytest.raises(ScenarioError, match="not recognized"):
            load_scenario(scenario_dir, ("fine_step_mps=null",))
        _set_keys(scenario_dir / "controller.json", fine_step_mps=None)
        with pytest.raises(ScenarioError, match=r"unknown keys \['fine_step_mps'\]"):
            load_scenario(scenario_dir)


class TestEmitReport:
    @pytest.fixture
    def short_result(self, short_scenario):
        scenario, _ = short_scenario
        return run_race(
            scenario.track, scenario.wind, scenario.params, scenario.power, scenario.controller
        )

    def test_outputs_are_byte_identical_across_runs(self, short_scenario, short_result, tmp_path):
        scenario, _ = short_scenario
        paths_a = emit_report(short_result, scenario, tmp_path / "a")
        result_b = run_race(
            scenario.track, scenario.wind, scenario.params, scenario.power, scenario.controller
        )
        paths_b = emit_report(result_b, scenario, tmp_path / "b")
        for key in paths_a:
            assert paths_a[key].read_bytes() == paths_b[key].read_bytes()

    def test_summary_keys(self, short_scenario, short_result, tmp_path):
        scenario, _ = short_scenario
        emit_report(short_result, scenario, tmp_path / "out")
        summary = read_summary(tmp_path / "out")
        assert set(summary) == {
            "finish_time_s",
            "total_energy_J",
            "switches",
            "min_switch_gap_s",
            "avg_speed_mps",
            "flags",
        }

    def test_summary_recomputable_from_telemetry(self, short_scenario, short_result, tmp_path):
        scenario, _ = short_scenario
        emit_report(short_result, scenario, tmp_path / "out")
        stored = read_summary(tmp_path / "out")
        recomputed = recompute_summary_from_telemetry(tmp_path / "out")
        for key, value in recomputed.items():
            if isinstance(value, float):
                assert stored[key] == pytest.approx(value, rel=1e-9)
            else:
                assert stored[key] == value

    def test_zero_length_race_report(self, short_scenario, tmp_path):
        scenario, scenario_dir = short_scenario
        zero = load_scenario(scenario_dir, ("duration_s=10",))
        cfg = type(zero.controller)(
            race_length=0.0,
            race_duration=zero.controller.race_duration,
        )
        result = run_race(zero.track, zero.wind, zero.params, zero.power, cfg)
        paths = emit_report(result, zero, tmp_path / "zero")
        lines = paths["telemetry"].read_text().splitlines()
        assert len(lines) == 2  # header plus the single terminal row
        assert lines[1].endswith("finish")

    def test_speed_trace_columns(self, short_scenario, short_result, tmp_path):
        scenario, _ = short_scenario
        paths = emit_report(short_result, scenario, tmp_path / "out")
        lines = paths["speed_trace"].read_text().splitlines()
        assert lines[0] == "t_s,x2_mps,Va_mps,Vb_mps,u"
        assert len(lines) > 100


class TestSpeedTraceFormat:
    def test_synthetic_rows_match_the_per_row_format(self, tmp_path):
        # legs share their band's float objects, as run_race's do; each edge
        # change below keeps the rest of the leg's band and engine state
        zero, neg_zero, nan = 0.0, -0.0, math.nan
        lower, upper = 6.1, 7.94
        edges = [
            (zero, zero, True),          # as the start row, before the first band
            (neg_zero, zero, True),      # 0.0 -> -0.0, which compare equal
            (neg_zero, neg_zero, True),
            (lower, upper, True),        # a band change, engine unchanged
            (lower, upper, True),
            (lower, upper, False),       # an engine change, band unchanged
            (lower, upper, False),
            (nan, upper, False),         # a NaN edge, equal to nothing
            (nan, upper, False),
            (math.nan, upper, False),    # another NaN object
            (lower, nan, True),
            (lower, upper, True),
            (float("6.1"), upper, True),  # an equal edge in a new object
        ]
        # one leg a second, each giving a row on the 0.5 s grid and one at its end
        leg = Leg(0.0, 0.01, 0.0, 5.0)
        legs = tuple(
            LegRecord(1.0 * i, 5.0 * i, 10.0, leg, on, _band(lo, up), 1.0 * i + 1.0, 0.3 * i)
            for i, (lo, up, on) in enumerate(edges)
        )
        result = RaceResult(
            samples=(TelemetrySample(13.0, 65.0, 3.6, True, 1, 10.0, 6.1, 7.94, "finish"),),
            legs=legs, replans=(), finished=True, finish_time=13.0, total_energy=10.0,
            switches=1, avg_speed=5.0, flags=(),
        )
        rows = trace_rows(legs, 0.5)
        assert len(rows) == 1 + 2 * len(edges)
        assert [(lo, up, on) for _, _, lo, up, on in rows[2::2]] == edges
        paths = emit_report(result, fixture_lib.flat16500(), tmp_path / "out")
        assert paths["speed_trace"].read_text().splitlines() == per_row_trace(rows)

    # a leg of each law of ``Leg.speeds``, from 3 m/s in a 1.5 m/s wind, with its sigma:
    # the engine on (b > 0, tanh), coasting (b < 0, tan), no drift (b = 0, rational), rest
    LAWS = {
        "tanh": (Leg.start(DEFAULT_PARAMS, 0.0, 1.5, True, 3.0), 1.0),
        "tan": (Leg.start(DEFAULT_PARAMS, 0.0, 1.5, False, 3.0), -1.0),
        "rational": (Leg(0.0, 6e-4, 1.5, 3.0), 0.0),
        "rest": (Leg(0.0, 6e-4, 0.0, 0.0), 0.0),
    }

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_each_law_matches_the_per_row_format(self, law, tmp_path):
        leg, sigma = self.LAWS[law]
        assert leg.sigma == sigma
        # three legs of the law from non-dyadic starts, on a grid of non-dyadic row times;
        # the second ends within rounding of 40 * 0.07 and takes that row
        bounds, band = (0.0, 1.3, 2.8, 4.6), _band(2.0, 4.0)
        legs = tuple(
            LegRecord(t0, 0.0, 10.0, leg, sigma > 0.0, band, t1, leg.speed(t1 - t0))
            for t0, t1 in zip(bounds, bounds[1:])
        )
        result = RaceResult(
            samples=(TelemetrySample(4.6, 12.0, 3.0, True, 1, 10.0, 2.0, 4.0, "finish"),),
            legs=legs, replans=(), finished=True, finish_time=4.6, total_energy=10.0,
            switches=1, avg_speed=2.6, flags=(),
        )
        scenario = fixture_lib.flat16500()
        scenario = replace(scenario, controller=replace(scenario.controller, trace_interval=0.07))
        rows = trace_rows(legs, 0.07)
        assert len(rows) == 1 + 65 and rows[40][0] == 2.8
        paths = emit_report(result, scenario, tmp_path / "out")
        assert paths["speed_trace"].read_text().splitlines() == per_row_trace(rows)

    def test_race_rows_match_the_per_row_format(self, short_scenario, tmp_path):
        scenario, _ = short_scenario
        result = run_race(
            scenario.track, scenario.wind, scenario.params, scenario.power, scenario.controller
        )
        paths = emit_report(result, scenario, tmp_path / "out")
        trace = dense_trace(
            result, scenario.controller.trace_interval, scenario.power, scenario.params
        )
        assert paths["speed_trace"].read_text().splitlines() == per_row_trace(speed_rows(trace))


def _band(lower: float, upper: float) -> OscillationBand:
    return OscillationBand(lower, upper, 1.0, 1.0, 1.0, 1.0)


class TestOutDirPrecedence:
    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv("ECODRIVE_OUT", "/tmp/envdir")
        assert default_out_dir("scen", "explicit") == Path("explicit")

    def test_environment_overrides_default(self, monkeypatch):
        monkeypatch.setenv("ECODRIVE_OUT", "/tmp/envdir")
        assert default_out_dir("scen", None) == Path("/tmp/envdir")

    def test_scenario_local_fallback(self, monkeypatch):
        monkeypatch.delenv("ECODRIVE_OUT", raising=False)
        assert default_out_dir("scen", None) == Path("scen") / "out"


class TestCli:
    def test_optimize_in_process(self, short_scenario, capsys):
        _, scenario_dir = short_scenario
        command = ["optimize", "--params", str(scenario_dir / "params.json"), "--target", "7"]
        rc = main(command)
        out = capsys.readouterr().out
        assert rc == 0
        values = dict(line.split() for line in out.splitlines())
        assert float(values["lower_mps"]) == pytest.approx(6.15, abs=0.02)
        assert float(values["upper_mps"]) == pytest.approx(7.89, abs=0.02)
        # the search is exact, so there is no finer one to ask for
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--fine"])
        assert exit_info.value.code == 2
        assert "--fine" in capsys.readouterr().err

    def test_simulate_and_report_subcommands(self, short_scenario, tmp_path, capsys):
        _, scenario_dir = short_scenario
        out_dir = tmp_path / "cli_out"
        assert main(["simulate", "--scenario", str(scenario_dir), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["report", "--result", str(out_dir)]) == 0
        assert "consistent true" in capsys.readouterr().out

    def test_simulate_applies_overrides(self, short_scenario, tmp_path, capsys):
        _, scenario_dir = short_scenario
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["simulate", "--scenario", str(scenario_dir), "--out", str(out_a)])
        main(
            [
                "simulate",
                "--scenario",
                str(scenario_dir),
                "--out",
                str(out_b),
                "--set",
                "alpha=20",
            ]
        )
        a = read_summary(out_a)
        b = read_summary(out_b)
        assert b["total_energy_J"] > a["total_energy_J"]

    def test_error_paths_exit_nonzero(self, tmp_path, capsys):
        assert main(["simulate", "--scenario", str(tmp_path / "missing")]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["report", "--result", str(tmp_path / "missing")]) == 1

    def test_report_refuses_a_summary_that_is_not_an_object(self, short_scenario, tmp_path, capsys):
        _, scenario_dir = short_scenario
        out_dir = tmp_path / "cli_out"
        assert main(["simulate", "--scenario", str(scenario_dir), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        (out_dir / "summary.json").write_text("[1,2]\n")
        assert main(["report", "--result", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {out_dir / 'summary.json'}: expected a JSON object\n"

    @pytest.mark.parametrize("column", [0, 1, 5])
    def test_report_names_a_non_finite_telemetry_cell(
        self, short_scenario, tmp_path, capsys, column
    ):
        _, scenario_dir = short_scenario
        out_dir = tmp_path / "cli_out"
        assert main(["simulate", "--scenario", str(scenario_dir), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        path = out_dir / "telemetry.csv"
        lines = path.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[column] = "nan"  # t_s, x1_m or E_J
        lines[-1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert main(["report", "--result", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path} line {len(lines)}: non-finite value 'nan'\n"

    def test_fixtures_roundtrip_through_cli(self, tmp_path, capsys):
        out = tmp_path / "fx"
        assert main(["fixtures", "--name", "gust", "--out", str(out)]) == 0
        loaded = load_scenario(out)
        assert loaded.content_equal(fixture_lib.gust())

    def test_unknown_fixture_rejected(self, tmp_path, capsys):
        assert main(["fixtures", "--name", "lunar", "--out", str(tmp_path)]) == 1

    def test_sweep_merges_summaries(self, short_scenario, tmp_path, capsys):
        _, scenario_dir = short_scenario
        out = tmp_path / "sweep"
        rc = main(
            [
                "sweep",
                "--scenario",
                str(scenario_dir),
                "--vary",
                "alpha=10,20",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        merged = json.loads((out / "sweep_summary.json").read_text())
        assert set(merged) == {"10", "20"}
        assert merged["20"]["total_energy_J"] > merged["10"]["total_energy_J"]

    @pytest.mark.parametrize(
        "jobs, variants, cpus, workers",
        [(8, 3, 16, 3), (8, 3, 2, 2), (2, 5, 16, 2), (4, 1, 16, None), (1, 3, 16, None),
         (4, 3, None, None)],
    )
    def test_sweep_workers_are_capped(
        self, short_scenario, tmp_path, monkeypatch, capsys, jobs, variants, cpus, workers
    ):
        # no process is started: the pool runs its tasks in this process
        pools = []

        class InlinePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # sweep imports the pool where it needs one: it finds the patched name there
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        _, scenario_dir = short_scenario
        values = ",".join(str(10 + k) for k in range(variants))
        argv = ["sweep", "--scenario", str(scenario_dir), "--vary", f"alpha={values}",
                "--out", str(tmp_path / "sweep"), "--jobs", str(jobs)]
        assert main(argv) == 0
        assert pools == ([] if workers is None else [workers])
        merged = json.loads((tmp_path / "sweep" / "sweep_summary.json").read_text())
        assert len(merged) == variants

    @pytest.mark.parametrize("jobs", ["0", "-2", "two"])
    def test_sweep_refuses_fewer_than_one_job(self, short_scenario, tmp_path, capsys, jobs):
        _, scenario_dir = short_scenario
        argv = ["sweep", "--scenario", str(scenario_dir), "--vary", "alpha=10",
                "--out", str(tmp_path / "sweep"), "--jobs", jobs]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_module_entry_point(self, short_scenario):
        _, scenario_dir = short_scenario
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "ecodrive",
                "optimize",
                "--params",
                str(scenario_dir / "params.json"),
                "--target",
                "7",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "avg_cost_W" in proc.stdout

    def test_robustness_subcommand(self, tmp_path, capsys, flat_slice):
        import numpy as np
        from quadrature_legs import general_law

        s = np.linspace(6.1, 7.94, 60)
        g = general_law(flat_slice).accel_grid(s, True)
        dg = 0.2 * g * ((s - 6.1) / 1.84) ** 2
        g_path = tmp_path / "g.csv"
        dg_path = tmp_path / "dg.csv"
        g_path.write_text(
            "s_mps,value\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(s, g))
        )
        dg_path.write_text(
            "s_mps,value\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(s, dg))
        )
        rc = main(["robustness", "--g", str(g_path), "--dg", str(dg_path), "--terms", "8"])
        assert rc == 0
        values = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert float(values["residual_mps"]) < 1e-6


    @pytest.mark.parametrize("terms", ["0", "-1", "two"])
    def test_robustness_terms_must_be_positive(self, tmp_path, capsys, terms):
        # a usage error from argparse (exit 2), checked before any file is read
        missing = str(tmp_path / "missing.csv")
        with pytest.raises(SystemExit) as exc:
            main(["robustness", "--g", missing, "--dg", missing, "--terms", terms])
        assert exc.value.code == 2
        assert f"--terms: expected a positive integer, got {terms!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--vsafe", "nan"),
            ("--vsafe", "0"),
            ("--vsafe", "-inf"),
            ("--target", "-1"),
            ("--target", "nan"),
            ("--target", "inf"),
            ("--delta", "-1"),
            ("--delta", "0"),
            ("--delta", "inf"),
        ],
    )
    def test_optimize_refuses_bad_safety_inputs(self, tmp_path, capsys, flag, value):
        # a usage error from argparse (exit 2), checked before any file is read
        missing = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--params", missing, "--target", "7", f"{flag}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag}: expected a positive finite number, got {value!r}" in err

    @pytest.mark.parametrize("command", ["optimize", "check-assumptions"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--slope", "inf"), ("--slope", "nan"), ("--wind", "nan"), ("--wind", "-inf")],
    )
    def test_slice_commands_refuse_a_non_finite_slice(
        self, tmp_path, capsys, command, flag, value
    ):
        # a usage error from argparse (exit 2), not a traceback from sin(inf)
        # nor a misleading verdict on the slice
        missing = str(tmp_path / "missing.json")
        extra = ["--target", "7"] if command == "optimize" else []
        with pytest.raises(SystemExit) as exc:
            main([command, "--params", missing, *extra, f"{flag}={value}"])
        assert exc.value.code == 2
        assert f"{flag}: expected a finite number, got {value!r}" in capsys.readouterr().err

    def test_optimize_refuses_a_non_number(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--params", missing, "--target", "7", "--vsafe", "fast"])
        assert exc.value.code == 2
        assert "--vsafe" in capsys.readouterr().err

    def test_optimize_takes_an_infinite_safety_speed(self, short_scenario, capsys):
        _, scenario_dir = short_scenario
        params = str(scenario_dir / "params.json")
        outputs = []
        for extra in ([], ["--vsafe", "inf"]):
            assert main(["optimize", "--params", params, "--target", "7", *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_optimal_band_refuses_a_nan_safety_speed(self, flat_slice):
        with pytest.raises(ValueError, match="v_safe"):
            optimal_band(flat_slice, 7.0, v_safe=math.nan)


# runs in a fresh interpreter: the race, slice and robustness commands, then a sampled profile
_START_UP_PROBE = """
import json, sys
import ecodrive
from ecodrive.harness import main
scenario, out, g, dg = sys.argv[1:5]
params = scenario + "/params.json"
assert main(["simulate", "--scenario", scenario, "--out", out]) == 0
assert main(["optimize", "--params", params, "--target", "7"]) == 0
assert main(["check-assumptions", "--params", params, "--slope", "0.002"]) == 0
numpy = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
assert main(["robustness", "--g", g, "--dg", dg]) == 0
from ecodrive.robustness import SpeedProfile
profile = SpeedProfile.from_samples([6.0, 7.0, 8.0], [0.1, 0.08, 0.05])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"scipy": loaded, "numpy": numpy, "value": float(profile(7.5))}))
"""


class TestStartUp:
    def test_races_and_slice_commands_load_no_scipy(self, tmp_path):
        scenario_dir = tmp_path / "flat16500"
        write_scenario(fixture_lib.flat16500(), scenario_dir)
        speeds = [6.0 + 2.0 * i / 32 for i in range(33)]
        g = [0.5 - 0.005 * v * v for v in speeds]
        tables = {"g.csv": g, "dg.csv": [0.2 * a * ((v - 6.0) / 2.0) ** 2 for v, a in zip(speeds, g)]}
        for name, values in tables.items():
            rows = "".join(f"{v!r},{x!r}\n" for v, x in zip(speeds, values))
            (tmp_path / name).write_text("s_mps,value\n" + rows)
        src = Path(ecodrive.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", _START_UP_PROBE, str(scenario_dir), str(tmp_path / "out"),
             *(str(tmp_path / name) for name in tables)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stdout.splitlines()[-1])
        assert probe["scipy"] == []
        # numpy waits for the robustness command
        assert probe["numpy"] == []
        # the monotone cubic through the samples still interpolates them
        assert 0.05 < probe["value"] < 0.08
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["switches"] == 57
