"""Receding-horizon race controller with hysteresis on/off switching.

Every few seconds the controller refreshes the target average speed from the
remaining distance and time, freezes the dynamics at the current position,
and recomputes the oscillation band.  Between replans a hysteresis machine
switches the engine off at the band top and on at the band bottom.  A hard
safety override forces the engine off whenever the speed exceeds the local
safety limit.  Between decisions the state jumps from event to event along
closed-form legs, so every switch lands exactly on its threshold; the dense
trace is read off the running leg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import (
    Leg,
    PowerModel,
    RaceState,
    TrackProfile,
    VehicleParams,
    WindField,
    engine_energy,
    freeze,
    increasing_root,
    require_positive,
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
    hard_stop_factor: float = 1.2           # simulation cap at factor * duration
    trace_interval: float = 0.5             # s between dense trace rows

    def __post_init__(self) -> None:
        if not 0.0 <= self.race_length < math.inf:
            raise ValueError("race_length must be finite and nonnegative")
        require_positive(
            self, "race_duration", "replan_interval", "safety_margin", "trace_interval"
        )
        if not 1.0 <= self.hard_stop_factor < math.inf:
            raise ValueError("hard_stop_factor must be finite and at least 1")


@dataclass(frozen=True)
class ReplanRecord:
    """Outcome of one replanning instant; ``reason`` says why a flagged one fell back."""

    t: float
    position: float
    target: float
    band: OscillationBand
    flag: str
    reason: str = ""


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
    except InfeasibleSliceError as exc:
        band = OscillationBand(
            lower=0.0,
            upper=v_safe,
            dwell=0.0,
            period=math.nan,
            distance=math.nan,
            energy=math.nan,
            avg_cost=math.nan,
        )
        reason = f"{type(exc).__name__}: {exc}"
        return ReplanRecord(state.t, state.position, target, band, FLAG_INFEASIBLE, reason)
    flag, reason = "", ""
    if target >= frozen.v_high:
        flag = FLAG_UNREACHABLE
        reason = f"target {target:.6g} m/s at or above the top equilibrium {frozen.v_high:.6g} m/s"
    if flag or target >= v_safe:
        band = safety_band(frozen, v_safe, cfg.safety_margin)
    else:
        try:
            band = optimal_band(frozen, target, v_safe, cfg.grid, cfg.safety_margin)
        except EcodriveError as exc:
            band = safety_band(frozen, v_safe, cfg.safety_margin)
            flag, reason = FLAG_UNREACHABLE, f"{type(exc).__name__}: {exc}"
    return ReplanRecord(state.t, state.position, target, band, flag, reason)


def switch_logic(engine_on: bool, speed: float, band: OscillationBand) -> bool:
    """Hysteresis switching at the band edges: the new engine state.

    Engine on and speed at or above the top: switch off.  Engine off and
    speed at or below the bottom: switch on.  Anything else keeps the engine
    state, including speeds outside the band after a safety clamp.  Counting
    switches and charging their cost is the caller's job.
    """
    if engine_on:
        return speed < band.upper
    return speed <= band.lower


def run_race(
    track: TrackProfile,
    wind: WindField,
    params: VehicleParams,
    power: PowerModel,
    cfg: ControllerConfig,
) -> RaceResult:
    """Simulate a full race under the receding-horizon hysteresis strategy.

    Starts from rest with the engine just switched on (one switch counted,
    one switching cost charged).  Replans every replan interval and, in
    between, jumps from event to event along exact constant-mode legs, with
    telemetry at every replan and switch.  The dense trace is read off the
    running leg (at an event, its state).  Stops at the finish or hard cap.
    """
    if cfg.race_length > track.length + 1e-9:
        raise ScenarioError(
            f"race length {cfg.race_length} exceeds track length {track.length}"
        )
    race_len = cfg.race_length
    t_hard = cfg.hard_stop_factor * cfg.race_duration
    alpha = params.switch_cost

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

    def note_flag(flag: str) -> None:
        if flag and flag not in flags:
            flags.append(flag)

    def take_sample(flag: str, into: list[TelemetrySample], at: tuple | None = None) -> None:
        t_at, x_at, v_at, e_at = at or (t, x1, x2, e_power)
        into.append(
            TelemetrySample(
                t=t_at,
                position=x_at,
                speed=v_at,
                engine_on=engine_on,
                switches=switches,
                energy=e_at + alpha * switches,
                band_lower=band.lower if band is not None else 0.0,
                band_upper=band.upper if band is not None else 0.0,
                flag=flag,
            )
        )

    take_sample("", trace)
    next_trace = cfg.trace_interval
    n_replan = 0
    while x1 < race_len - 1e-9 and t < t_hard - 1e-12:
        state = RaceState(t, x1, x2, engine_on, switches, e_power + alpha * switches)
        record = replan(state, track, wind, params, power, cfg)
        band = record.band
        replans.append(record)
        note_flag(record.flag)
        take_sample(record.flag or FLAG_REPLAN, samples)
        n_replan += 1
        window_end = min(n_replan * cfg.replan_interval, t_hard)

        while t < window_end - 1e-12 and x1 < race_len - 1e-9:
            if switch_logic(engine_on, x2, band) != engine_on:
                engine_on = not engine_on
                if engine_on:
                    switches += 1
                switch_times.append(t)
                take_sample(FLAG_SWITCH_ON if engine_on else FLAG_SWITCH_OFF, samples)
            if engine_on and x2 >= track.safe_speed_at(x1):
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
            leg = Leg.start(params, track.slope_at(x1), wind.at(x1, t), engine_on, x2)
            t_new, x_new, x2 = _next_event(
                leg, t, x1, band.upper if engine_on else band.lower,
                min(window_end, wind.next_boundary_t(t)),
                min(track.next_boundary(x1), wind.next_boundary_s(x1), race_len),
                track if engine_on else None,
            )
            while next_trace < t_new - 1e-12:
                tau = next_trace - t
                d = leg.distance(tau)
                e_at = e_power + engine_energy(tau, d, engine_on, power, params)
                take_sample("", trace, (next_trace, x1 + d, leg.speed(tau), e_at))
                next_trace += cfg.trace_interval
            e_power += engine_energy(t_new - t, x_new - x1, engine_on, power, params)
            t, x1 = t_new, x_new
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
        total_energy=e_power + alpha * switches,
        switches=switches,
        avg_speed=avg_speed,
        flags=tuple(flags),
    )


def _next_event(
    leg: Leg, t: float, x1: float, edge: float, t_stop: float, s_stop: float,
    safety: TrackProfile | None,
) -> tuple[float, float, float]:
    """Time, position and speed at the first event along ``leg``.

    The events are the time ``t_stop``, the end of the leg's branch, the
    band edge speed ``edge``, the position ``s_stop`` and, when a ``safety``
    track is given, its safety speed.  Speed and position events land
    exactly on their value, so the switching tests at the new state see them.
    The position and safety-speed events are guarded Newton roots in the
    leg's time; the safety speed is linear in position inside the leg's cell.
    """
    tau, t_new, speed = t_stop - t, t_stop, None
    for v_event, tau_event in ((leg.end_speed, leg.end_time), (edge, leg.time_to(edge))):
        if tau_event <= tau:
            tau, t_new, speed = tau_event, t + tau_event, v_event
    x_new = x1 + leg.distance(tau)
    if x_new >= s_stop:
        tau = increasing_root(lambda h: (x1 + leg.distance(h) - s_stop, leg.speed(h)), 0.0, tau, tau)
        t_new, x_new, speed = t + tau, s_stop, None
    if safety is not None:
        gradient = (safety.safe_speed_at(s_stop) - safety.safe_speed_at(x1)) / (s_stop - x1)

        def above(h: float) -> tuple[float, float]:
            v = leg.speed(h)
            accel = leg.b - leg.A * (v - leg.wind_speed) ** 2
            return v - safety.safe_speed_at(min(x1 + leg.distance(h), s_stop)), accel - gradient * v

        if above(tau)[0] >= 0.0:
            # a start within rounding of the safety speed crosses it at once
            tau = increasing_root(above, 0.0, tau, tau) if above(0.0)[0] < 0.0 else 0.0
            t_new, x_new = t + tau, min(x1 + leg.distance(tau), s_stop)
            speed = safety.safe_speed_at(x_new)
    return t_new, x_new, leg.speed(tau) if speed is None else speed
