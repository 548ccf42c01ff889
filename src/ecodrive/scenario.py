"""Scenario files: parsing, validation, overrides, and report emission.

A scenario directory holds ``params.json``, ``track.csv``, ``controller.json``
and optionally ``wind.csv`` (absent means zero wind).  Everything is parsed
and validated before any simulation starts; ``key=value`` overrides are
applied after the file parse.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

from .controller import FLAG_FINISH, ROUTINE_FLAGS
from .controller import ControllerConfig, RaceResult, min_switch_gap
from .dynamics import PowerModel, TrackProfile, VehicleParams, WindField
from .dynamics import finite_float, read_csv_rows
from .errors import ScenarioError
from .optimizer import GridSpec


def _number(value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _flag(value: object) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _text(value: object) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


# file key -> (object, dataclass field, parser); an absent key takes the field's default
PARAM_FIELDS = {
    "a": ("params", "drag_coeff", _number),
    "c": ("params", "solid_friction", _number),
    "g": ("params", "gravity", _number),
    "f1": ("params", "traction", _number),
    "m": ("params", "mass", _number),
    "alpha": ("params", "switch_cost", _number),
    "signed_drag": ("params", "signed_drag", _flag),
    "power_model": ("power", "kind", _text),
    "constant_watts": ("power", "constant_watts", _number),
}
CONTROLLER_FIELDS = {
    "duration_s": ("controller", "race_duration", _number),
    "safety_margin_mps": ("controller", "safety_margin", _number),
    "hard_stop_factor": ("controller", "hard_stop_factor", _number),
    "trace_interval_s": ("controller", "trace_interval", _number),
    "grid_tol_mps": ("grid", "tol", _number),
}
REQUIRED_PARAM_KEYS = {"a", "c", "g", "f1", "m", "alpha"}

TELEMETRY_HEADER = ("t_s", "x1_m", "x2_mps", "u", "N", "E_J", "Va_mps", "Vb_mps", "flag")
# the summary reads time, position, switch count, energy and flag
TELEMETRY_PARSERS = (finite_float, finite_float, str, str, int, finite_float, str, str, str)
TRACE_HEADER = "t_s,x2_mps,Va_mps,Vb_mps,u"


@dataclass(frozen=True)
class Scenario:
    """A fully validated, in-memory simulation setup."""

    name: str
    params: VehicleParams
    power: PowerModel
    track: TrackProfile
    wind: WindField
    controller: ControllerConfig

    def content_equal(self, other: Scenario) -> bool:
        """Equal in everything but the name."""
        return replace(self, name=other.name) == other


def _read_json(path: Path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: expected a JSON object")
    return data


def _load_json(path: Path, fields: dict, required: set[str]) -> dict:
    data = _read_json(path)
    unknown = data.keys() - fields.keys()
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {sorted(unknown)}")
    missing = required - data.keys()
    if missing:
        raise ScenarioError(f"{path}: missing keys {sorted(missing)}")
    return data


def _field_kwargs(data: dict, fields: dict, source: str) -> dict[str, dict[str, object]]:
    """Constructor kwargs per object from the keys present in ``data``."""
    kwargs: dict[str, dict[str, object]] = {obj: {} for obj, _, _ in fields.values()}
    for key, value in data.items():
        obj, name, parse = fields[key]
        try:
            kwargs[obj][name] = parse(value)
        except (TypeError, OverflowError) as exc:
            raise ScenarioError(f"{source}: {key}: {exc}") from exc
    return kwargs


def _to_mapping(fields: dict, **objects: object) -> dict:
    return {key: getattr(objects[obj], name) for key, (obj, name, _) in fields.items()}


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _params_from_mapping(data: dict, source: str) -> tuple[VehicleParams, PowerModel]:
    kwargs = _field_kwargs(data, PARAM_FIELDS, source)
    try:
        return VehicleParams(**kwargs["params"]), PowerModel(**kwargs["power"])
    except ValueError as exc:
        raise ScenarioError(f"{source}: {exc}") from exc


def load_params(path: str | Path) -> tuple[VehicleParams, PowerModel]:
    """Vehicle and power model from a ``params.json`` file."""
    data = _load_json(Path(path), PARAM_FIELDS, REQUIRED_PARAM_KEYS)
    return _params_from_mapping(data, str(path))


def _controller_from_mapping(data: dict, race_length: float, source: str) -> ControllerConfig:
    kwargs = _field_kwargs(data, CONTROLLER_FIELDS, source)
    try:
        return ControllerConfig(
            race_length=race_length, grid=GridSpec(**kwargs["grid"]), **kwargs["controller"]
        )
    except ValueError as exc:
        raise ScenarioError(f"{source}: {exc}") from exc


def parse_override(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise ScenarioError(f"override {item!r} is not of the form key=value")
    key, raw = item.split("=", 1)
    key = key.strip()
    fields = PARAM_FIELDS | CONTROLLER_FIELDS
    if key not in fields:
        raise ScenarioError(f"override key {key!r} is not recognized")
    raw = raw.strip()
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings like power_model=wheel_power
    return key, value


def load_scenario(
    scenario_dir: str | Path, overrides: tuple[str, ...] | list[str] = ()
) -> Scenario:
    """Parse and validate a scenario directory, then apply CLI overrides."""
    scenario_dir = Path(scenario_dir)
    if not scenario_dir.is_dir():
        raise ScenarioError(f"{scenario_dir}: not a directory")
    params_map = _load_json(scenario_dir / "params.json", PARAM_FIELDS, REQUIRED_PARAM_KEYS)
    controller_map = _load_json(
        scenario_dir / "controller.json", CONTROLLER_FIELDS, {"duration_s"}
    )
    track = TrackProfile.from_csv(scenario_dir / "track.csv")
    wind_path = scenario_dir / "wind.csv"
    wind = WindField.from_csv(wind_path) if wind_path.exists() else WindField.zero()

    # the files must hold alone, so what fails once the overrides are in is blamed on them
    _params_from_mapping(params_map, str(scenario_dir / "params.json"))
    _controller_from_mapping(controller_map, track.length, str(scenario_dir / "controller.json"))
    for item in overrides:
        key, value = parse_override(item)
        (params_map if key in PARAM_FIELDS else controller_map)[key] = value
    source = "override " + ", ".join(map(repr, overrides))
    params, power = _params_from_mapping(params_map, source)
    controller = _controller_from_mapping(controller_map, track.length, source)
    return Scenario(
        name=scenario_dir.name,
        params=params,
        power=power,
        track=track,
        wind=wind,
        controller=controller,
    )


def write_scenario(scenario: Scenario, out_dir: str | Path) -> list[Path]:
    """Write a scenario back to its file form (exact float round-trip)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params_path = out_dir / "params.json"
    _write_json(
        params_path, _to_mapping(PARAM_FIELDS, params=scenario.params, power=scenario.power)
    )
    cfg = scenario.controller
    controller_path = out_dir / "controller.json"
    _write_json(controller_path, _to_mapping(CONTROLLER_FIELDS, controller=cfg, grid=cfg.grid))
    track_path = out_dir / "track.csv"
    scenario.track.to_csv(track_path)
    written = [params_path, controller_path, track_path]
    if scenario.wind != WindField.zero():
        wind_path = out_dir / "wind.csv"
        scenario.wind.to_csv(wind_path)
        written.append(wind_path)
    return written


def default_out_dir(scenario_dir: str | Path, explicit: str | None) -> Path:
    """Output directory precedence: --out flag, ECODRIVE_OUT, scenario-local."""
    if explicit:
        return Path(explicit)
    env = os.environ.get("ECODRIVE_OUT")
    if env:
        return Path(env)
    return Path(scenario_dir) / "out"


def emit_report(result: RaceResult, scenario: Scenario, out_dir: str | Path) -> dict[str, Path]:
    """Write telemetry, summary, and the plot-ready speed trace.

    Byte output is deterministic for fixed inputs: floats are written with
    ``repr`` and JSON keys are sorted.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"{out_dir}: {exc}") from exc

    telemetry_path = out_dir / "telemetry.csv"
    lines = [",".join(TELEMETRY_HEADER)]
    for s in result.samples:
        lines.append(
            f"{s.t!r},{s.position!r},{s.speed!r},{int(s.engine_on)},"
            f"{s.switches},{s.energy!r},{s.band_lower!r},{s.band_upper!r},{s.flag}"
        )
    telemetry_path.write_text("\n".join(lines) + "\n")

    trace_path = out_dir / "speed_trace.csv"
    lines = [TRACE_HEADER, "0.0,0.0,0.0,0.0,1"]  # at rest, before the first band
    # row k at k * interval on the running leg; an event up to 1e-12 s past it takes its row
    interval, k = scenario.controller.trace_interval, 1
    for t0, _, _, leg, on, band, t_end, speed_end in result.legs:
        tail = f"{band.lower!r},{band.upper!r},{int(on)}"
        times = []
        while (t_row := k * interval) < t_end - 1e-12:
            times.append(t_row)
            k += 1
        lines += [f"{t!r},{v!r},{tail}" for t, v in zip(times, leg.speeds(t0, times))]
        if t_end >= t_row - 1e-12:
            lines.append(f"{t_end!r},{speed_end!r},{tail}")
            k += 1
    trace_path.write_text("\n".join(lines) + "\n")

    summary_path = out_dir / "summary.json"
    _write_json(summary_path, result.summary_dict())

    return {"telemetry": telemetry_path, "speed_trace": trace_path, "summary": summary_path}


def read_summary(out_dir: str | Path) -> dict:
    return _read_json(Path(out_dir) / "summary.json")


def recompute_summary_from_telemetry(out_dir: str | Path) -> dict:
    """Rebuild the summary statistics from the telemetry file alone."""
    path = Path(out_dir) / "telemetry.csv"
    rows = read_csv_rows(path, TELEMETRY_HEADER, TELEMETRY_PARSERS)
    if not rows:
        raise ScenarioError(f"{path}: no telemetry rows")
    t_end, x_end, _, _, switches, energy, _, _, last_flag = rows[-1]
    flags = list(dict.fromkeys(fl for *_, fl in rows if fl not in ROUTINE_FLAGS))
    return {
        "finish_time_s": t_end if last_flag == FLAG_FINISH else None,
        "total_energy_J": energy,
        "switches": switches,
        "min_switch_gap_s": min_switch_gap((row[0], row[-1]) for row in rows),
        "avg_speed_mps": x_end / t_end if t_end > 0 else 0.0,
        "flags": flags,
    }
