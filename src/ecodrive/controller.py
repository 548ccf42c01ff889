"""Receding-horizon race controller with hysteresis on/off switching.

Where the plan can change (a track or wind cell edge changes the slice, or a period
of the band starts with the target moved off its average: on one slice a band meeting
it is optimal) the controller refreshes the target average speed from the remaining
distance and time, freezes the dynamics there, and recomputes the band.  Between replans a
hysteresis machine switches the engine off at the band top and on at the
band bottom, and keeps it off wherever the speed reaches the local safety
speed: one rule for both.  Between decisions the state jumps from event to
event along closed-form legs, so every switch lands exactly on its threshold;
the race records its legs, and the report reads the trace off them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

from .dynamics import (
    Leg,
    PowerModel,
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
    SOLVE_RTOL,
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
SWITCH_FLAGS = (FLAG_SWITCH_ON, FLAG_SWITCH_OFF, FLAG_SAFETY)  # one telemetry sample per switch
# sample flags that a race's ``flags`` leaves out: every other one is reported once
ROUTINE_FLAGS = ("", FLAG_REPLAN, FLAG_SWITCH_ON, FLAG_SWITCH_OFF, FLAG_FINISH)

# seconds between re-checks of a band that misses its target: flagged, clamped, or a coast
# band entered below its target (one entered at or above it meets it until the cell edge)
RECHECK_INTERVAL = 3.0


@dataclass(frozen=True)
class ControllerConfig:
    race_length: float                      # m
    race_duration: float                    # s
    safety_margin: float = 0.5              # m/s below the safety speed
    grid: GridSpec = GridSpec()
    hard_stop_factor: float = 1.2           # simulation cap at factor * duration
    trace_interval: float = 0.5             # s between speed trace rows

    def __post_init__(self) -> None:
        if not 0.0 <= self.race_length < math.inf:
            raise ValueError("race_length must be finite and nonnegative")
        require_positive(self, "race_duration", "safety_margin", "trace_interval")
        # a race that stalls before an infinite hard stop never returns
        t_hard = self.hard_stop_factor * self.race_duration
        if not (1.0 <= self.hard_stop_factor and t_hard < math.inf):
            raise ValueError("hard_stop_factor must be at least 1, and its product with "
                             "race_duration, the hard stop, finite")


@dataclass(frozen=True)
class ReplanRecord:
    """Outcome of one replanning instant; ``reason`` says why a flagged one fell back."""

    t: float
    position: float
    target: float
    band: OscillationBand
    flag: str
    reason: str = ""


class TelemetrySample(NamedTuple):
    t: float
    position: float
    speed: float
    engine_on: bool
    switches: int
    energy: float
    band_lower: float
    band_upper: float
    flag: str


class LegRecord(NamedTuple):
    """One constant-mode leg of a race: its start, its law and band, and the event ending it."""

    t: float
    position: float
    energy: float               # at the start, switch charges included
    leg: Leg
    engine_on: bool
    band: OscillationBand
    t_end: float
    speed_end: float            # the speed the event landed on


@dataclass(frozen=True)
class RaceResult:
    """Telemetry series, the legs run, and summary statistics of one simulated run."""

    samples: tuple[TelemetrySample, ...]
    legs: tuple[LegRecord, ...]
    replans: tuple[ReplanRecord, ...]
    finished: bool
    finish_time: float | None
    total_energy: float
    switches: int
    avg_speed: float
    flags: tuple[str, ...]

    def summary_dict(self) -> dict:
        return {
            "finish_time_s": self.finish_time,
            "total_energy_J": self.total_energy,
            "switches": self.switches,
            "min_switch_gap_s": min_switch_interval(self),
            "avg_speed_mps": self.avg_speed,
            "flags": list(self.flags),
        }


def min_switch_gap(events: Iterable[tuple[float, str]]) -> float | None:
    """Smallest gap between the switches of ``(t, flag)`` events and the start at t = 0."""
    times = [0.0] + [t for t, flag in events if flag in SWITCH_FLAGS]
    return min((b - a for a, b in zip(times, times[1:])), default=None)


def min_switch_interval(result: RaceResult) -> float | None:
    """Smallest gap between consecutive engine switches, None below 2 events."""
    return min_switch_gap((s.t, s.flag) for s in result.samples)


def replan(
    t: float,
    position: float,
    track: TrackProfile,
    wind: WindField,
    params: VehicleParams,
    power: PowerModel,
    cfg: ControllerConfig,
    start: OscillationBand | None = None,
) -> ReplanRecord:
    """The oscillation band for the remaining-distance target at time ``t`` and ``position``.

    The target is remaining distance over remaining time; ``optimal_band`` picks
    the band, solving from ``start``, and only the fallbacks are picked here.  An
    infeasible slice (e.g. a climb too steep for the engine) gets full effort: both
    edges at the safety speed, so the engine is on wherever the speed is below it.
    Where the band search raises, the flagged record rides the safety band, or full
    effort where no safety band can be built; its reason names each error.
    """
    remaining_d = cfg.race_length - position
    remaining_t = cfg.race_duration - t
    target = remaining_d / remaining_t if remaining_t > 0.0 else math.inf
    v_safe = track.safe_speed_at(position)
    try:
        frozen = freeze(track, wind, params, power, position, t)
    except InfeasibleSliceError as exc:
        band, reason = _full_effort(v_safe), f"{type(exc).__name__}: {exc}"
        return ReplanRecord(t, position, target, band, FLAG_INFEASIBLE, reason)
    try:
        band = optimal_band(frozen, target, v_safe, cfg.grid, cfg.safety_margin, start)
    except EcodriveError as exc:
        reason = f"{type(exc).__name__}: {exc}"
        try:
            band = safety_band(frozen, v_safe, cfg.safety_margin)
        except EcodriveError as unsafe:
            band, reason = _full_effort(v_safe), f"{reason}; {type(unsafe).__name__}: {unsafe}"
        return ReplanRecord(t, position, target, band, FLAG_UNREACHABLE, reason)
    return ReplanRecord(t, position, target, band, "")


def _full_effort(v_safe: float) -> OscillationBand:
    """Both edges at the safety speed and no period: the engine is on wherever it is below."""
    return OscillationBand(v_safe, v_safe, math.nan, math.nan, math.nan, math.nan)


def switch_logic(engine_on: bool, speed: float, band: OscillationBand, v_safe: float) -> bool:
    """The new engine state: on only where the band's hysteresis holds it on
    (off at or above the top, on at or below the bottom, else unchanged) and
    the speed is below the safety speed ``v_safe``.

    Counting switches and charging their cost is the caller's job.
    """
    held = speed < band.upper if engine_on else speed <= band.lower
    return held and speed < v_safe


def run_race(
    track: TrackProfile,
    wind: WindField,
    params: VehicleParams,
    power: PowerModel,
    cfg: ControllerConfig,
) -> RaceResult:
    """Simulate a full race under the receding-horizon hysteresis strategy.

    Starts from rest with the engine just switched on (one switch counted,
    one switching cost charged), then jumps from event to event along exact
    constant-mode legs.  Replans are events too: at the start, at each cell
    edge, where a coasting leg reaches the band bottom (once per switch-on: a
    met target holds for whole periods) where the target has moved off the band's average
    by more than ``SOLVE_RTOL``, and ``RECHECK_INTERVAL`` after a band that misses it: a
    flagged or clamped band, or a coast band entered below its target.  Each solves from
    the band in force.  Telemetry is taken at every replan and switch; the race records
    its legs, and the report reads the trace off them.  Stops at the finish or hard cap.
    """
    if cfg.race_length > track.length + 1e-9:
        raise ScenarioError(f"race length {cfg.race_length} exceeds track length {track.length}")
    race_len = cfg.race_length
    t_hard = cfg.hard_stop_factor * cfg.race_duration
    alpha = params.switch_cost

    t = x1 = x2 = 0.0
    engine_on = True
    switches = 1          # the initial start from rest is an off->on switch
    e_power = 0.0

    samples: list[TelemetrySample] = []
    legs: list[LegRecord] = []
    replans: list[ReplanRecord] = []
    stalled = False
    band: OscillationBand | None = None
    period_due = True     # a switch-on since the last period start
    s_edge = t_edge = -math.inf  # the edges of the slope and wind cell: none entered yet

    def take_sample(flag: str) -> None:
        lower, upper = (band.lower, band.upper) if band is not None else (0.0, 0.0)
        energy = e_power + alpha * switches
        samples.append(TelemetrySample(t, x1, x2, engine_on, switches, energy, lower, upper, flag))

    while x1 < race_len - 1e-9 and t < t_hard - 1e-12:
        if x1 >= s_edge or t >= t_edge:  # a new cell, read once: the slice changes here
            slope, wind_speed = track.slope_at(x1), wind.at(x1, t)
            s_edge = min(track.next_boundary(x1), wind.next_boundary_s(x1))
            t_edge = wind.next_boundary_t(t)
            replan_at = t  # time of the next replan that is not a period start
        # the coasting leg landed on the band bottom: the next period starts
        period_start = period_due and not engine_on and x2 == band.lower
        # a band covering the rest on time is what a replan returns on one slice: it is kept
        if period_start and t < replan_at and math.isclose(
            race_len - x1, band.avg_speed * (cfg.race_duration - t), rel_tol=SOLVE_RTOL
        ):
            period_start = period_due = False
        v_safe = track.safe_speed_at(x1)
        if period_start or t >= replan_at:
            record = replan(t, x1, track, wind, params, power, cfg, band)
            band = record.band
            replans.append(record)
            take_sample(record.flag or FLAG_REPLAN)
            period_due = period_due and not period_start
            # a coast band entered at or above its target meets it until the next cell edge
            stop_gap = record.flag or band.upper >= v_safe
            stop_gap = stop_gap or band.is_coast and x2 < record.target
            replan_at = t + RECHECK_INTERVAL if stop_gap else math.inf
        if switch_logic(engine_on, x2, band, v_safe) != engine_on:
            engine_on = not engine_on
            if engine_on:
                switches += 1
                period_due = True
                flag = FLAG_SWITCH_ON
            elif x2 >= band.upper:
                flag = FLAG_SWITCH_OFF
            else:  # an off-switch below the band top is the safety speed's
                flag = FLAG_SAFETY
            take_sample(flag)
        leg = Leg.start(params, slope, wind_speed, engine_on, x2)
        stuck = engine_on and leg.v0 == 0.0 and leg.b <= leg.A * leg.wind_speed**2
        if stuck and not stalled:  # the engine cannot leave rest
            stalled = True
            take_sample(FLAG_STALLED)
        t_new, x_new, x2 = _next_event(
            leg, t, x1, x2, band.upper if engine_on else band.lower,
            min(replan_at, t_edge, t_hard), min(s_edge, race_len),
            track if engine_on else None,
        )
        legs.append(LegRecord(t, x1, e_power + alpha * switches, leg, engine_on, band, t_new, x2))
        e_power += engine_energy(t_new - t, x_new - x1, engine_on, power, params)
        t, x1 = t_new, x_new

    finished = x1 >= race_len - 1e-9
    take_sample(FLAG_FINISH if finished else FLAG_DNF)
    return RaceResult(
        samples=tuple(samples),
        legs=tuple(legs),
        replans=tuple(replans),
        finished=finished,
        finish_time=t if finished else None,
        total_energy=e_power + alpha * switches,
        switches=switches,
        avg_speed=x1 / t if t > 0.0 else 0.0,
        flags=tuple(dict.fromkeys(s.flag for s in samples if s.flag not in ROUTINE_FLAGS)),
    )


def _next_event(
    leg: Leg, t: float, x1: float, x2: float, edge: float, t_stop: float, s_stop: float,
    safety: TrackProfile | None,
) -> tuple[float, float, float]:
    """Time, position and speed at the first event along ``leg``, which starts at speed ``x2``.

    The events are the time ``t_stop``, the end of the leg's branch, the
    band edge speed ``edge``, the position ``s_stop`` and, when a ``safety``
    track is given, its safety speed.  Speed and position events land
    exactly on their value, so the switching tests at the new state see them.
    The position and safety-speed events are guarded Newton roots in the
    leg's time, the first from where the start's acceleration, held, covers the
    gap; the safety speed is linear in position inside the leg's cell.
    """
    r0 = leg.v0 - leg.wind_speed
    # an edge strictly ahead of x2 that rounding in v - w hides from the leg is reached at once
    hidden = edge - leg.wind_speed == r0 and (edge - x2) * (leg.b - leg.A * r0 * r0) > 0.0
    tau, t_new, speed, tau_edge = t_stop - t, t_stop, None, 0.0 if hidden else leg.time_to(edge)
    for v_event, tau_event in ((leg.end_speed, leg.end_time), (edge, tau_edge)):
        if tau_event <= tau:
            tau, t_new, speed = tau_event, t + tau_event, v_event
    x_new = x1 + leg.distance(tau)
    if x_new >= s_stop:
        gap, v0 = s_stop - x1, leg.v0
        disc = v0 * v0 + 2.0 * (leg.b - leg.A * (v0 - leg.wind_speed) ** 2) * gap
        h0 = 2.0 * gap / (v0 + math.sqrt(disc)) if disc > 0.0 else tau
        tau = increasing_root(lambda h: (x1 + leg.distance(h) - s_stop, leg.speed(h)), 0.0, tau, h0)
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
