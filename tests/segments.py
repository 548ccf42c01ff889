"""One-quantity views of a constant-mode segment, and acceleration profiles.

Thin wrappers the tests read more easily than ``SpeedSegment.time_distance``
and the ``SpeedProfile`` constructor.
"""

from __future__ import annotations

from ecodrive import FrozenDynamics, SpeedProfile, SpeedSegment
from ecodrive.dynamics import engine_energy


def elapsed_time(segment: SpeedSegment) -> float:
    """Duration of the maneuver; ``math.inf`` for an asymptotic approach."""
    return segment.time_distance()[0]


def covered_length(segment: SpeedSegment) -> float:
    """Distance covered during the maneuver."""
    return segment.time_distance()[1]


def energy_used(segment: SpeedSegment) -> float:
    """Energy drawn during the maneuver; identically zero with the engine off."""
    if not segment.engine_on:
        return 0.0
    frozen = segment.frozen
    return engine_energy(*segment.time_distance(), True, frozen.power, frozen.params)


def acceleration_profile(
    frozen: FrozenDynamics, engine_on: bool, lo: float, hi: float
) -> SpeedProfile:
    """The mode acceleration of a slice as a profile on [lo, hi]."""
    return SpeedProfile(lo, hi, lambda s: frozen.accel_grid(s, engine_on))
