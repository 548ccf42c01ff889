"""Receding-horizon race controller with hysteresis on/off switching.

Every few seconds the controller refreshes the target average speed from the
remaining distance and time, freezes the dynamics at the current position,
and recomputes the oscillation band.  Between replans a hysteresis machine
switches the engine off at the band top and on at the band bottom.  A hard
safety override forces the engine off whenever the speed exceeds the local
safety limit, since discrete-time switching can overshoot slightly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .dynamics import (
    PowerModel,
    RaceState,
    TrackProfile,
    VehicleParams,
    WindField,
    _midpoint_step,
    freeze,
)
from .errors import EcodriveError, InfeasibleSliceError, ScenarioError
# band_from_limits stays importable from here: perfbench/spans.py wraps it
from .optimizer import (  # noqa: F401
    GridSpec,
    OscillationBand,
    band_from_limits,
    optimal_band,
    safety_band,
)

FLAG_REPLAN = "replan"
FLAG_SWITCH_ON = "switch_on"
FLAG_SWITCH_OFF = "switch_off"
FLAG_SAFETY = "safety_override"
FLAG_UNREACHABLE = "target_unreachable"
FLAG_INFEASIBLE = "infeasible_slice"
FLAG_STALLED = "stalled"
FLAG_DNF = "did_not_finish"
FLAG_FINISH = "finish"


@dataclass(frozen=True)
class ControllerConfig:
    race_length: float                      # m
    race_duration: float                    # s
    replan_interval: float = 3.0            # s
    safety_margin: float = 0.5              # m/s below the safety speed
    grid: GridSpec = GridSpec()
    dt: float = 1e-3                        # s
    hard_stop_factor: float = 1.2           # simulation cap at factor * duration
    trace_interval: float = 0.5             # s between dense trace rows

    def __post_init__(self) -> None:
        if self.race_length < 0.0:
            raise ValueError("race_length must be nonnegative")
        for name in (
            "race_duration",
            "replan_interval",
            "safety_margin",
            "dt",
            "trace_interval",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.dt >= self.replan_interval:
            raise ValueError("dt must be smaller than the replan interval")
        if self.hard_stop_factor < 1.0:
            raise ValueError("hard_stop_factor must be at least 1")


@dataclass(frozen=True)
class ReplanRecord:
    """Outcome of one replanning instant."""

    t: float
    position: float
    target: float
    band: OscillationBand
    flag: str


@dataclass(frozen=True)
class TelemetrySample:
    t: float
    position: float
    speed: float
    engine_on: bool
    switches: int
    energy: float
    band_lower: float
    band_upper: float
    flag: str


@dataclass(frozen=True)
class RaceResult:
    """Telemetry series plus summary statistics of one simulated run."""

    samples: tuple[TelemetrySample, ...]
    trace: tuple[TelemetrySample, ...]
    replans: tuple[ReplanRecord, ...]
    switch_times: tuple[float, ...]
    finished: bool
    finish_time: float | None
    total_energy: float
    switches: int
    avg_speed: float
    flags: tuple[str, ...]

    @property
    def min_switch_gap(self) -> float | None:
        return min_switch_interval(self)

    def summary_dict(self) -> dict:
        return {
            "finish_time_s": self.finish_time,
            "total_energy_J": self.total_energy,
            "switches": self.switches,
            "min_switch_gap_s": self.min_switch_gap,
            "avg_speed_mps": self.avg_speed,
            "flags": list(self.flags),
        }


def min_switch_interval(result: RaceResult) -> float | None:
    """Smallest gap between consecutive engine switches, None below 2 events."""
    times = result.switch_times
    if len(times) < 2:
        return None
    return min(b - a for a, b in zip(times, times[1:]))


def replan(
    state: RaceState,
    track: TrackProfile,
    wind: WindField,
    params: VehicleParams,
    power: PowerModel,
    cfg: ControllerConfig,
) -> ReplanRecord:
    """Refresh the oscillation band from the remaining-distance target.

    The target is remaining distance over remaining time.  Targets at or
    above the local top equilibrium cannot be met through this section; the
    controller then rides the maximal band and flags the sample rather than
    aborting.  An infeasible slice (e.g. a climb too steep for the engine)
    falls back to a full-effort band.
    """
    remaining_d = cfg.race_length - state.position
    remaining_t = cfg.race_duration - state.t
    target = remaining_d / remaining_t if remaining_t > 0.0 else math.inf
    v_safe = track.safe_speed_at(state.position)
    try:
        frozen = freeze(track, wind, params, power, state.position, state.t)
    except InfeasibleSliceError:
        band = OscillationBand(
            lower=0.0,
            upper=v_safe,
            dwell=0.0,
            period=math.nan,
            distance=math.nan,
            energy=math.nan,
            avg_cost=math.nan,
        )
        return ReplanRecord(state.t, state.position, target, band, FLAG_INFEASIBLE)
    flag = FLAG_UNREACHABLE if target >= frozen.v_high else ""
    if flag or target >= v_safe:
        band = safety_band(frozen, v_safe, cfg.safety_margin)
    else:
        try:
            band = optimal_band(frozen, target, v_safe, cfg.grid, cfg.safety_margin)
        except EcodriveError:
            band = safety_band(frozen, v_safe, cfg.safety_margin)
            flag = FLAG_UNREACHABLE
    return ReplanRecord(state.t, state.position, target, band, flag)


def switch_logic(state: RaceState, band: OscillationBand, switch_cost: float) -> RaceState:
    """Hysteresis switching at the band edges.

    Engine on and speed at or above the top: switch off.  Engine off and
    speed at or below the bottom: switch on, which increments the switch
    count and charges the switching cost.  Anything else leaves the state
    untouched, including speeds outside the band after a safety clamp.
    """
    if state.engine_on:
        if state.speed >= band.upper:
            return replace(state, engine_on=False)
        return state
    if state.speed <= band.lower:
        return replace(
            state,
            engine_on=True,
            switches=state.switches + 1,
            energy=state.energy + switch_cost,
        )
    return state


def run_race(
    track: TrackProfile,
    wind: WindField,
    params: VehicleParams,
    power: PowerModel,
    cfg: ControllerConfig,
) -> RaceResult:
    """Simulate a full race under the receding-horizon hysteresis strategy.

    Starts from rest with the engine just switched on (one switch counted,
    one switching cost charged).  Alternates replanning every replan interval
    with fixed-step integration; telemetry is sampled at every replan and
    switch event, the dense trace on a fixed time grid.  Stops at the finish
    line or at the hard time cap.
    """
    if cfg.race_length > track.length + 1e-9:
        raise ScenarioError(
            f"race length {cfg.race_length} exceeds track length {track.length}"
        )
    race_len = cfg.race_length
    t_hard = cfg.hard_stop_factor * cfg.race_duration
    dt = cfg.dt
    alpha = params.switch_cost
    g = params.gravity

    t = 0.0
    x1 = 0.0
    x2 = 0.0
    engine_on = True
    switches = 1          # the initial start from rest is an off->on switch
    e_power = 0.0

    samples: list[TelemetrySample] = []
    trace: list[TelemetrySample] = []
    replans: list[ReplanRecord] = []
    switch_times: list[float] = [0.0]
    flags: list[str] = []
    band: OscillationBand | None = None
    stall_since: float | None = None

    def total_energy() -> float:
        return e_power + alpha * switches

    def note_flag(flag: str) -> None:
        if flag and flag not in flags:
            flags.append(flag)

    def take_sample(flag: str, into: list[TelemetrySample]) -> None:
        into.append(
            TelemetrySample(
                t=t,
                position=x1,
                speed=x2,
                engine_on=engine_on,
                switches=switches,
                energy=total_energy(),
                band_lower=band.lower if band is not None else 0.0,
                band_upper=band.upper if band is not None else 0.0,
                flag=flag,
            )
        )

    take_sample("", trace)
    next_trace = cfg.trace_interval
    n_replan = 0
    while x1 < race_len - 1e-9 and t < t_hard - 1e-12:
        record = replan(
            RaceState(t, x1, x2, engine_on, switches, total_energy()),
            track,
            wind,
            params,
            power,
            cfg,
        )
        band = record.band
        replans.append(record)
        note_flag(record.flag)
        take_sample(record.flag or FLAG_REPLAN, samples)
        n_replan += 1
        window_end = min(n_replan * cfg.replan_interval, t_hard)

        # cell-local constants, refreshed only when a boundary is crossed
        s_stop = -math.inf
        t_stop = -math.inf
        g_comp = w = vs_base = vs_slope = vs_s0 = 0.0
        while t < window_end - 1e-12 and x1 < race_len - 1e-9:
            if x1 >= s_stop - 1e-12 or t >= t_stop - 1e-12:
                g_comp = g * math.sin(track.slope_at(x1))
                w = wind.at(x1, t)
                s_stop = min(track.next_boundary(x1), wind.next_boundary_s(x1), race_len)
                t_stop = wind.next_boundary_t(t)
                vs_base, vs_slope, vs_s0 = _safe_speed_line(track, x1)
            if engine_on:
                if x2 >= band.upper:
                    engine_on = False
                    switch_times.append(t)
                    take_sample(FLAG_SWITCH_OFF, samples)
            elif x2 <= band.lower:
                engine_on = True
                switches += 1
                switch_times.append(t)
                take_sample(FLAG_SWITCH_ON, samples)
            if engine_on and x2 > vs_base + vs_slope * (x1 - vs_s0):
                engine_on = False
                switch_times.append(t)
                note_flag(FLAG_SAFETY)
                take_sample(FLAG_SAFETY, samples)
            if engine_on and x2 <= 0.0:
                if stall_since is None:
                    stall_since = t
                elif t - stall_since > cfg.replan_interval and FLAG_STALLED not in flags:
                    note_flag(FLAG_STALLED)
                    take_sample(FLAG_STALLED, samples)
            else:
                stall_since = None
            h = min(dt, window_end - t, max(t_stop - t, 1e-12))
            t, x1, x2, de = _midpoint_step(
                t, x1, x2, engine_on, h, w, g_comp, s_stop, params, power
            )
            e_power += de
            if t >= next_trace - 1e-12:
                take_sample("", trace)
                next_trace += cfg.trace_interval

    finished = x1 >= race_len - 1e-9
    take_sample(FLAG_FINISH if finished else FLAG_DNF, samples)
    if not finished:
        note_flag(FLAG_DNF)
    avg_speed = x1 / t if t > 0.0 else 0.0
    return RaceResult(
        samples=tuple(samples),
        trace=tuple(trace),
        replans=tuple(replans),
        switch_times=tuple(switch_times),
        finished=finished,
        finish_time=t if finished else None,
        total_energy=total_energy(),
        switches=switches,
        avg_speed=avg_speed,
        flags=tuple(flags),
    )


def _safe_speed_line(track: TrackProfile, s: float) -> tuple[float, float, float]:
    """Local linear segment (base, slope, origin) of the safety speed."""
    i = track._index(s)
    if i >= len(track.arclength) - 1:
        return track.safe_speed[-1], 0.0, track.arclength[-1]
    s0, s1 = track.arclength[i], track.arclength[i + 1]
    vs0, vs1 = track.safe_speed[i], track.safe_speed[i + 1]
    return vs0, (vs1 - vs0) / (s1 - s0), s0
