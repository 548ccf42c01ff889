"""Constant-mode segments with one-quantity views, and acceleration profiles.

``SpeedSegment`` checks one leg's orientation and sign before handing it to
the slice's own closed form; the thin wrappers read more easily in the tests
than ``SpeedSegment.time_distance`` and the ``SpeedProfile`` constructor.
``scaled`` multiplies a profile by a constant, and
``proportional_invariance_check`` measures the scale invariance of a
profile's mean speed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ecodrive import FrozenDynamics, InvalidSegmentError, SpeedProfile, mean_speed
from ecodrive.dynamics import engine_energy
from quadrature_legs import general_law


@dataclass(frozen=True)
class SpeedSegment:
    """A constant-mode maneuver between two speeds of a frozen slice.

    Acceleration segments run upward (v0 < v1, engine on), deceleration
    segments downward (v0 > v1, engine off); f must keep one sign strictly
    between the endpoints.
    """

    frozen: FrozenDynamics
    engine_on: bool
    v0: float
    v1: float

    def __post_init__(self) -> None:
        if self.engine_on and self.v1 < self.v0:
            raise InvalidSegmentError(
                f"engine-on segment must not decelerate: {self.v0} -> {self.v1}"
            )
        if not self.engine_on and self.v1 > self.v0:
            raise InvalidSegmentError(
                f"engine-off segment must not accelerate: {self.v0} -> {self.v1}"
            )
        lo, hi = sorted((self.v0, self.v1))
        slack = 1e-6 * (self.frozen.v_high - self.frozen.v_low) + 1e-12
        if lo < self.frozen.v_low - slack or hi > self.frozen.v_high + slack:
            raise InvalidSegmentError(
                f"segment [{lo}, {hi}] leaves the reachable band "
                f"[{self.frozen.v_low}, {self.frozen.v_high}]"
            )

    def time_distance(self) -> tuple[float, float]:
        """Duration and covered distance; infinite for an asymptotic approach."""
        if self.v0 == self.v1:
            return 0.0, 0.0
        lo, hi = sorted((self.v0, self.v1))
        if self.frozen.mode_changes_sign(self.engine_on, lo, hi):
            raise InvalidSegmentError(
                "mode acceleration changes sign strictly inside the segment"
            )
        return self.frozen.leg_time_distance(self.engine_on, self.v0, self.v1)


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
    law = general_law(frozen)
    return SpeedProfile(lo, hi, lambda s: law.accel_grid(s, engine_on))


def scaled(profile: SpeedProfile, factor: float) -> SpeedProfile:
    """The profile times a constant, on the same band and knots."""
    return replace(profile, fn=lambda s: factor * profile.fn(s))


def proportional_invariance_check(g: SpeedProfile, eps: float) -> float:
    """Residual of the scale invariance F((1+eps) g) = F(g).

    Exactly zero in exact arithmetic; bounded by quadrature precision
    (~1e-10 m/s) for well-conditioned profiles.
    """
    if not abs(eps) < 1.0:
        raise ValueError("eps must satisfy |eps| < 1")
    if eps == 0.0:
        return 0.0
    return abs(mean_speed(scaled(g, 1.0 + eps)) - mean_speed(g))
