"""Seeded inputs, one request of each workload, and the checks on its outputs.

The generators build inputs from the seed with the benchmark's own closed
forms, never by calling the program, so nothing the program could cache is
computed before the timed region.  Seed 0 gives the bundled fixtures.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

from ecodrive import controller, dynamics, optimizer, robustness, scenario
from ecodrive.controller import ControllerConfig
from ecodrive.dynamics import DEFAULT_PARAMS, PowerModel, TrackProfile, VehicleParams, WindField
from ecodrive.fixtures import (
    HILL_SAFE_SPEED,
    HILL_SLOPE_AMPLITUDE,
    HILL_STEP,
    HILL_WAVELENGTH,
    RACE_DURATION,
    RACE_LENGTH,
)
from ecodrive.optimizer import GridSpec
from spans import slice_note

# the seed whose figures back a gain claim; never used while tuning a change
HELD_OUT_SEED = 7

FLAT_SAFE_SPEED = 12.0
# cmd_report's tolerance when comparing recomputed and stored summaries
REPORT_TOL = 1e-9
PROFILE_SAMPLES = 33
SERIES_TERMS = 8
# the grid of ``optimize --fine``
FINE_GRID = GridSpec(fine_step=0.01)
SAFETY_DELTA = 0.5


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# ---------------------------------------------------------------------------
# race families
# ---------------------------------------------------------------------------

def flat_scenario(seed: int) -> scenario.Scenario:
    """flat16500 with the race duration drawn so the target lies in 6.6-7.4 m/s."""
    duration = RACE_DURATION if seed == 0 else RACE_LENGTH / _rng("race-flat", seed).uniform(6.6, 7.4)
    return scenario.Scenario(
        name="flat16500",
        params=DEFAULT_PARAMS,
        power=PowerModel(),
        track=TrackProfile.flat(RACE_LENGTH, safe_speed=FLAT_SAFE_SPEED),
        wind=WindField.zero(),
        controller=ControllerConfig(race_length=RACE_LENGTH, race_duration=duration),
    )


def hill_scenario(seed: int) -> scenario.Scenario:
    """Sinusoidal grade of drawn amplitude (1.0-1.5 %), wavelength and phase."""
    if seed == 0:
        amplitude, wavelength, phase = HILL_SLOPE_AMPLITUDE, HILL_WAVELENGTH, 0.0
    else:
        rng = _rng("race-hill", seed)
        amplitude = rng.uniform(0.010, 0.015)
        wavelength = rng.uniform(2_000.0, 3_500.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
    arcs, slopes = [], []
    s = 0.0
    while s < RACE_LENGTH:
        arcs.append(s)
        mid = s + 0.5 * HILL_STEP
        slopes.append(amplitude * math.sin(2.0 * math.pi * mid / wavelength + phase))
        s += HILL_STEP
    arcs.append(RACE_LENGTH)
    slopes.append(slopes[-1])
    safes = [HILL_SAFE_SPEED] * len(arcs)
    return scenario.Scenario(
        name="hill",
        params=DEFAULT_PARAMS,
        power=PowerModel(),
        track=TrackProfile(tuple(arcs), tuple(slopes), tuple(safes)),
        wind=WindField.zero(),
        controller=ControllerConfig(race_length=RACE_LENGTH, race_duration=RACE_DURATION),
    )


RACE_FAMILIES = {"race-flat": flat_scenario, "race-hill": hill_scenario}


@dataclass
class RaceOutcome:
    """What one race request produced, reduced to figures and checks."""

    physics: dict
    sim_seconds: float
    failures: list


def race_request(tracer, scenario_dir: Path, out_dir: Path):
    """The in-process ``simulate`` + ``report`` path for one scenario directory."""
    sc = tracer.call("scenario.load_scenario", scenario.load_scenario, scenario_dir)
    result = tracer.call(
        "controller.run_race",
        controller.run_race, sc.track, sc.wind, sc.params, sc.power, sc.controller,
    )
    tracer.call("scenario.emit_report", scenario.emit_report, result, sc, out_dir, note=_report_bytes)
    recomputed = tracer.call(
        "scenario.recompute_summary", scenario.recompute_summary_from_telemetry, out_dir
    )
    return sc, result, recomputed


def _report_bytes(paths: dict) -> str:
    return str(sum(p.stat().st_size for p in paths.values()))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_race(sc, result, recomputed, out_dir: Path) -> RaceOutcome:
    """Run every per-race correctness check; failures are listed, not raised."""
    failures = []
    if not result.finished:
        failures.append("race did not finish")
    stored = scenario.read_summary(out_dir)
    for key, value in recomputed.items():
        other = stored.get(key)
        if isinstance(value, float) and isinstance(other, (int, float)):
            ok = math.isclose(value, float(other), rel_tol=REPORT_TOL, abs_tol=REPORT_TOL)
        else:
            ok = value == other
        if not ok:
            failures.append(f"summary {key}: telemetry gives {value!r}, summary.json {other!r}")
    tol = sc.controller.grid.tol
    for rec in result.replans:
        band = rec.band
        v_safe = sc.track.safe_speed_at(rec.position)
        if band.upper > v_safe:
            failures.append(f"t={rec.t:.3f}: band upper {band.upper!r} above v_safe {v_safe!r}")
        # a flagged fallback, the safety band (upper at v_safe) and the coast
        # band are exempt from meeting the target
        solved = rec.flag == "" and not band.is_coast and band.upper != v_safe
        if solved and abs(band.avg_speed - rec.target) > tol:
            failures.append(
                f"t={rec.t:.3f}: band average {band.avg_speed!r} misses target {rec.target!r}"
            )
    fallbacks = sum(1 for rec in result.replans if rec.flag)
    physics = {
        "total_energy_J": result.total_energy,
        "switches": result.switches,
        "finish_time_s": result.finish_time,
        "replans": len(result.replans),
        "fallbacks": fallbacks,
        "telemetry_sha256": _sha256(out_dir / "telemetry.csv"),
        "summary_sha256": _sha256(out_dir / "summary.json"),
    }
    sim_seconds = result.samples[-1].t if result.samples else 0.0
    return RaceOutcome(physics, sim_seconds, failures)


def load_oracle(root: Path):
    """The hand-derived flat-race emulation from the test suite, loaded by path."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("ecodrive_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# frozen slices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Slice:
    """Inputs of one slice request: the three commands' arguments."""

    params: VehicleParams
    power: PowerModel
    slope: float
    wind: float
    target: float
    v_safe: float
    speeds: tuple[float, ...]
    g: tuple[float, ...]
    dg: tuple[float, ...]


def _accel_on(p: VehicleParams, slope: float, wind: float, v: float) -> float:
    rel = v - wind
    drag = -p.drag_coeff * rel * (abs(rel) if p.signed_drag else rel)
    return drag - p.solid_friction - p.gravity * math.sin(slope) + p.traction


def _mode_root(p: VehicleParams, wind: float, net: float) -> float:
    """Speed where drag balances ``net`` (per unit mass), last down-crossing."""
    k = net / p.drag_coeff
    if p.signed_drag:
        return wind + math.copysign(math.sqrt(abs(k)), k)
    return wind + math.sqrt(k) if k >= 0.0 else -math.inf


def slice_equilibria(p: VehicleParams, slope: float, wind: float) -> tuple[float, float]:
    """(v_low, v_high) of a slice from the closed-form roots of the drag law."""
    gs = p.gravity * math.sin(slope)
    v_high = _mode_root(p, wind, p.traction - p.solid_friction - gs)
    drag0 = p.drag_coeff * wind * (abs(wind) if p.signed_drag else -wind)
    if -p.solid_friction - gs + drag0 < 0.0:
        v_low = 0.0  # sticking: friction wins at rest
    else:
        v_low = max(_mode_root(p, wind, -p.solid_friction - gs), 0.0)
    return v_low, v_high


def second_rest_speed(p: VehicleParams, slope: float, wind: float) -> bool:
    """Whether coasting has a rest speed above a sticking point at zero.

    Unsigned drag under a tailwind on a descent can make the engine-off
    acceleration negative near rest, positive around the wind speed and
    negative again above it.  Such a slice breaks the paper's assumption of
    one engine-off rest speed; ``check-assumptions`` reports it as failing.
    """
    net = -p.solid_friction - p.gravity * math.sin(slope)
    return not p.signed_drag and wind > 0.0 and net > 0.0 and p.drag_coeff * wind * wind > net


def iter_slices(seed: int):
    """Endless seeded stream of distinct slices; each command succeeds on them."""
    rng = _rng("slice-batch", seed)
    while True:
        params = VehicleParams(
            switch_cost=rng.uniform(5.0, 20.0), signed_drag=rng.random() < 0.3
        )
        power = PowerModel(kind=rng.choice(("wheel_power", "constant_electrical")))
        slope = rng.uniform(-0.015, 0.015)
        wind = rng.uniform(-3.0, 3.0)
        v_low, v_high = slice_equilibria(params, slope, wind)
        width = v_high - v_low
        if not (v_high > 0.0 and width > 1.0) or second_rest_speed(params, slope, wind):
            continue
        target = v_low + rng.uniform(0.35, 0.75) * width
        v_safe = target + rng.uniform(1.5, 5.0)
        lo, hi = v_low + 0.1 * width, v_high - 0.1 * width
        speeds = [lo + (hi - lo) * i / (PROFILE_SAMPLES - 1) for i in range(PROFILE_SAMPLES)]
        g = [_accel_on(params, slope, wind, s) for s in speeds]
        amp = 0.3 * rng.uniform(0.3, 1.0)
        cycles = rng.uniform(0.5, 1.5)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        dg = [
            gv * amp * math.sin(2.0 * math.pi * cycles * (s - lo) / (hi - lo) + phase)
            for s, gv in zip(speeds, g)
        ]
        yield Slice(params, power, slope, wind, target, v_safe, tuple(speeds), tuple(g), tuple(dg))


def optimize_request(tracer, sl: Slice):
    """In-process ``optimize --fine``."""
    frozen = tracer.call(
        "dynamics.freeze", dynamics.FrozenDynamics.from_conditions,
        sl.params, sl.power, sl.slope, sl.wind, note=slice_note,
    )
    band = optimizer.optimal_band(
        frozen, sl.target, v_safe=sl.v_safe, grid=FINE_GRID, delta=SAFETY_DELTA
    )
    return frozen, band


def check_request(tracer, sl: Slice):
    """In-process ``check-assumptions``."""
    frozen = tracer.call(
        "dynamics.freeze", dynamics.FrozenDynamics.from_conditions,
        sl.params, sl.power, sl.slope, sl.wind, note=slice_note,
    )
    return dynamics.check_assumptions(frozen)


def robust_request(tracer, sl: Slice):
    """In-process ``robustness`` with the default series depth."""
    g = robustness.SpeedProfile.from_samples(sl.speeds, sl.g)
    dg = robustness.SpeedProfile.from_samples(sl.speeds, sl.dg)
    base = robustness.mean_speed(g)
    perturbed = robustness.mean_speed(g.plus(dg))
    estimate = robustness.perturbation_series(g, dg, SERIES_TERMS)
    ratio_mean, ratio_var = robustness.ratio_statistics(g, dg)
    return base, perturbed, estimate, ratio_mean, ratio_var


def check_optimize(sl: Slice, out) -> tuple[list, tuple]:
    frozen, band = out
    tol = FINE_GRID.tol
    failures = []
    if band.upper > sl.v_safe:
        failures.append(f"band upper {band.upper!r} above v_safe {sl.v_safe!r}")
    if not band.is_coast and band.upper != sl.v_safe and abs(band.avg_speed - sl.target) > tol:
        failures.append(f"band average {band.avg_speed!r} misses target {sl.target!r}")
    figures = (frozen.v_low, frozen.v_high, band.lower, band.upper, band.dwell, band.period,
               band.distance, band.energy, band.avg_cost, band.avg_speed)
    return failures, figures


def check_assumption_report(sl: Slice, report) -> tuple[list, tuple]:
    figures = [report.inequality_lhs, report.inequality_rhs]
    for item in report.items:
        figures.extend(v for v in item.witness.values() if isinstance(v, float))
    failures = [] if all(math.isfinite(f) for f in figures) else ["non-finite assumption figure"]
    return failures, tuple(figures)


def check_robust(sl: Slice, figures: tuple) -> tuple[list, tuple]:
    failures = [] if all(math.isfinite(f) for f in figures) else ["non-finite robustness figure"]
    return failures, figures
