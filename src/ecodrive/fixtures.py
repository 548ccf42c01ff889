"""Deterministic bundled scenarios used by tests, scripts and the CLI.

All three fixtures drive the same prototype constants; they differ in track
and weather.  No randomness anywhere, so repeated runs are bit-identical.
"""

from __future__ import annotations

import math

from .controller import ControllerConfig
from .dynamics import DEFAULT_PARAMS, PowerModel, TrackProfile, WindField
from .scenario import Scenario

RACE_LENGTH = 16_500.0
RACE_DURATION = 2_357.0

# hill fixture: the steepest grade the engine can still climb is
# traction ~ solid_friction + g*sin(theta), i.e. about 1.7 %; 1.5 % keeps
# every slice feasible while making the 7 m/s target unreachable on climbs
HILL_SLOPE_AMPLITUDE = 0.015
HILL_WAVELENGTH = 2_750.0
HILL_STEP = 50.0
# coasting down a -1.5 % grade settles near 14 m/s, so the flat-track limit
# of 12 m/s would be violated without brakes; the hill uses a higher limit
HILL_SAFE_SPEED = 15.0

GUST_START = 1_100.0
GUST_DURATION = 120.0
GUST_SPEED = -3.0


def _scenario(name: str, track: TrackProfile, wind: WindField) -> Scenario:
    """A fixture race on the prototype constants: 16.5 km in 2357 s (7 m/s average)."""
    return Scenario(
        name=name,
        params=DEFAULT_PARAMS,
        power=PowerModel(),
        track=track,
        wind=wind,
        controller=ControllerConfig(race_length=RACE_LENGTH, race_duration=RACE_DURATION),
    )


def flat16500() -> Scenario:
    """Flat windless reference race."""
    return _scenario("flat16500", TrackProfile.flat(RACE_LENGTH, safe_speed=12.0), WindField.zero())


def hill() -> Scenario:
    """Sinusoidal +/-1.5 % grade: slices stay feasible, climbs cap the speed."""
    arcs = []
    slopes = []
    s = 0.0
    while s < RACE_LENGTH:
        arcs.append(s)
        mid = s + 0.5 * HILL_STEP
        slopes.append(HILL_SLOPE_AMPLITUDE * math.sin(2.0 * math.pi * mid / HILL_WAVELENGTH))
        s += HILL_STEP
    arcs.append(RACE_LENGTH)
    slopes.append(slopes[-1])
    track = TrackProfile(tuple(arcs), tuple(slopes), (HILL_SAFE_SPEED,) * len(arcs))
    return _scenario("hill", track, WindField.zero())


def gust() -> Scenario:
    """Flat race with a 120 s, 3 m/s headwind block in the middle."""
    wind = WindField(
        arclength=(0.0,),
        time=(0.0, GUST_START, GUST_START + GUST_DURATION),
        speed=((0.0, GUST_SPEED, 0.0),),
    )
    return _scenario("gust", TrackProfile.flat(RACE_LENGTH, safe_speed=12.0), wind)


FIXTURES = {
    "flat16500": flat16500,
    "hill": hill,
    "gust": gust,
}
