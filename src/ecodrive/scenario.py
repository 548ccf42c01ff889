"""Scenario files: parsing, validation, overrides, and report emission.

A scenario directory holds ``params.json``, ``track.csv``, ``controller.json``
and optionally ``wind.csv`` (absent means zero wind).  Everything is parsed
and validated before any simulation starts; ``key=value`` overrides are
applied after the file parse.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .controller import ControllerConfig, RaceResult
from .dynamics import (
    CONSTANT_ELECTRICAL,
    PowerModel,
    TrackProfile,
    VehicleParams,
    WindField,
)
from .errors import ScenarioError
from .optimizer import GridSpec

PARAM_KEYS = {
    "a",
    "c",
    "g",
    "f1",
    "m",
    "alpha",
    "power_model",
    "constant_watts",
    "signed_drag",
}
REQUIRED_PARAM_KEYS = {"a", "c", "g", "f1", "m", "alpha"}
CONTROLLER_KEYS = {
    "duration_s",
    "replan_interval_s",
    "safety_margin_mps",
    "dt_s",
    "hard_stop_factor",
    "trace_interval_s",
    "grid_offsets_mps",
    "grid_tol_mps",
    "fine_step_mps",
    "fine_halfwidth_mps",
}

TELEMETRY_HEADER = "t_s,x1_m,x2_mps,u,N,E_J,Va_mps,Vb_mps,flag"
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
        return (
            self.params == other.params
            and self.power == other.power
            and self.track == other.track
            and self.wind == other.wind
            and self.controller == other.controller
        )


def _load_json(path: Path, allowed: set[str], required: set[str]) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: expected a JSON object")
    unknown = set(data) - allowed
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise ScenarioError(f"{path}: missing keys {sorted(missing)}")
    return data


def _params_from_mapping(data: dict, source: str) -> tuple[VehicleParams, PowerModel]:
    try:
        params = VehicleParams(
            drag_coeff=float(data["a"]),
            solid_friction=float(data["c"]),
            gravity=float(data["g"]),
            traction=float(data["f1"]),
            mass=float(data["m"]),
            switch_cost=float(data["alpha"]),
            signed_drag=bool(data.get("signed_drag", False)),
        )
        power = PowerModel(
            kind=str(data.get("power_model", CONSTANT_ELECTRICAL)),
            constant_watts=float(data.get("constant_watts", 161.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{source}: {exc}") from exc
    return params, power


def load_params(path: str | Path) -> tuple[VehicleParams, PowerModel]:
    """Vehicle and power model from a ``params.json`` file."""
    data = _load_json(Path(path), PARAM_KEYS, REQUIRED_PARAM_KEYS)
    return _params_from_mapping(data, str(path))


def _params_to_mapping(params: VehicleParams, power: PowerModel) -> dict:
    return {
        "a": params.drag_coeff,
        "c": params.solid_friction,
        "g": params.gravity,
        "f1": params.traction,
        "m": params.mass,
        "alpha": params.switch_cost,
        "power_model": power.kind,
        "constant_watts": power.constant_watts,
        "signed_drag": params.signed_drag,
    }


def _controller_from_mapping(data: dict, race_length: float, source: str) -> ControllerConfig:
    try:
        grid = GridSpec(
            lower_offsets=tuple(float(v) for v in data.get("grid_offsets_mps", (2.0, 1.5, 1.0, 0.5))),
            tol=float(data.get("grid_tol_mps", 1e-4)),
            fine_step=(
                None
                if data.get("fine_step_mps") is None
                else float(data["fine_step_mps"])
            ),
            fine_halfwidth=float(data.get("fine_halfwidth_mps", 0.5)),
        )
        return ControllerConfig(
            race_length=race_length,
            race_duration=float(data["duration_s"]),
            replan_interval=float(data.get("replan_interval_s", 3.0)),
            safety_margin=float(data.get("safety_margin_mps", 0.5)),
            grid=grid,
            dt=float(data.get("dt_s", 1e-3)),
            hard_stop_factor=float(data.get("hard_stop_factor", 1.2)),
            trace_interval=float(data.get("trace_interval_s", 0.5)),
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{source}: {exc}") from exc


def _controller_to_mapping(cfg: ControllerConfig) -> dict:
    return {
        "duration_s": cfg.race_duration,
        "replan_interval_s": cfg.replan_interval,
        "safety_margin_mps": cfg.safety_margin,
        "dt_s": cfg.dt,
        "hard_stop_factor": cfg.hard_stop_factor,
        "trace_interval_s": cfg.trace_interval,
        "grid_offsets_mps": list(cfg.grid.lower_offsets),
        "grid_tol_mps": cfg.grid.tol,
        "fine_step_mps": cfg.grid.fine_step,
        "fine_halfwidth_mps": cfg.grid.fine_halfwidth,
    }


def parse_override(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise ScenarioError(f"override {item!r} is not of the form key=value")
    key, raw = item.split("=", 1)
    key = key.strip()
    if key not in PARAM_KEYS | CONTROLLER_KEYS:
        raise ScenarioError(f"override key {key!r} is not recognized")
    raw = raw.strip()
    if key == "grid_offsets_mps":
        try:
            return key, [float(v) for v in raw.split(",")]
        except ValueError as exc:
            raise ScenarioError(f"override {item!r}: {exc}") from exc
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw  # bare strings like power_model=wheel_power


def load_scenario(
    scenario_dir: str | Path,
    overrides: tuple[str, ...] | list[str] = (),
    name: str | None = None,
) -> Scenario:
    """Parse and validate a scenario directory, then apply CLI overrides."""
    scenario_dir = Path(scenario_dir)
    if not scenario_dir.is_dir():
        raise ScenarioError(f"{scenario_dir}: not a directory")
    params_map = _load_json(scenario_dir / "params.json", PARAM_KEYS, REQUIRED_PARAM_KEYS)
    controller_map = _load_json(
        scenario_dir / "controller.json", CONTROLLER_KEYS, {"duration_s"}
    )
    track = TrackProfile.from_csv(scenario_dir / "track.csv")
    wind_path = scenario_dir / "wind.csv"
    wind = WindField.from_csv(wind_path) if wind_path.exists() else WindField.zero()

    for item in overrides:
        key, value = parse_override(item)
        if key in PARAM_KEYS:
            params_map[key] = value
        else:
            controller_map[key] = value

    params, power = _params_from_mapping(params_map, str(scenario_dir / "params.json"))
    controller = _controller_from_mapping(
        controller_map, track.length, str(scenario_dir / "controller.json")
    )
    return Scenario(
        name=name or scenario_dir.name,
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
    written = []
    params_path = out_dir / "params.json"
    params_path.write_text(
        json.dumps(_params_to_mapping(scenario.params, scenario.power), indent=2, sort_keys=True)
        + "\n"
    )
    written.append(params_path)
    controller_path = out_dir / "controller.json"
    controller_path.write_text(
        json.dumps(_controller_to_mapping(scenario.controller), indent=2, sort_keys=True) + "\n"
    )
    written.append(controller_path)
    track_path = out_dir / "track.csv"
    scenario.track.to_csv(track_path)
    written.append(track_path)
    if scenario.wind != WindField.zero():
        wind_path = out_dir / "wind.csv"
        scenario.wind.to_csv(wind_path)
        written.append(wind_path)
    return written


def default_out_dir(scenario_dir: str | Path | None, explicit: str | None) -> Path:
    """Output directory precedence: --out flag, ECODRIVE_OUT, scenario-local."""
    if explicit:
        return Path(explicit)
    env = os.environ.get("ECODRIVE_OUT")
    if env:
        return Path(env)
    if scenario_dir is not None:
        return Path(scenario_dir) / "out"
    return Path("out")


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
    lines = [TELEMETRY_HEADER]
    for s in result.samples:
        lines.append(
            f"{s.t!r},{s.position!r},{s.speed!r},{int(s.engine_on)},"
            f"{s.switches},{s.energy!r},{s.band_lower!r},{s.band_upper!r},{s.flag}"
        )
    telemetry_path.write_text("\n".join(lines) + "\n")

    trace_path = out_dir / "speed_trace.csv"
    lines = [TRACE_HEADER]
    for s in result.trace:
        lines.append(f"{s.t!r},{s.speed!r},{s.band_lower!r},{s.band_upper!r},{int(s.engine_on)}")
    trace_path.write_text("\n".join(lines) + "\n")

    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(result.summary_dict(), indent=2, sort_keys=True) + "\n")

    return {"telemetry": telemetry_path, "speed_trace": trace_path, "summary": summary_path}


def read_summary(out_dir: str | Path) -> dict:
    path = Path(out_dir) / "summary.json"
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} line {exc.lineno}: {exc.msg}") from exc


def recompute_summary_from_telemetry(out_dir: str | Path) -> dict:
    """Rebuild the summary statistics from the telemetry file alone."""
    path = Path(out_dir) / "telemetry.csv"
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != TELEMETRY_HEADER:
        raise ScenarioError(f"{path} line 1: expected header {TELEMETRY_HEADER}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 9:
            raise ScenarioError(f"{path} line {lineno}: expected 9 fields, got {len(parts)}")
        try:
            rows.append(
                {
                    "t": float(parts[0]),
                    "x1": float(parts[1]),
                    "N": int(parts[4]),
                    "E": float(parts[5]),
                    "flag": parts[8],
                }
            )
        except ValueError as exc:
            raise ScenarioError(f"{path} line {lineno}: {exc}") from exc
    if not rows:
        raise ScenarioError(f"{path}: no telemetry rows")
    last = rows[-1]
    switch_flags = {"switch_on", "switch_off", "safety_override"}
    switch_times = [0.0] + [r["t"] for r in rows if r["flag"] in switch_flags]
    min_gap = (
        min(b - a for a, b in zip(switch_times, switch_times[1:]))
        if len(switch_times) >= 2
        else None
    )
    finished = last["flag"] == "finish"
    flags = []
    for r in rows:
        fl = r["flag"]
        if fl and fl not in ("replan", "switch_on", "switch_off", "finish") and fl not in flags:
            flags.append(fl)
    return {
        "finish_time_s": last["t"] if finished else None,
        "total_energy_J": last["E"],
        "switches": last["N"],
        "min_switch_gap_s": min_gap,
        "avg_speed_mps": last["x1"] / last["t"] if last["t"] > 0 else 0.0,
        "flags": flags,
    }
