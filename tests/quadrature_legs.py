"""Gauss-Kronrod references for the closed-form legs and the upper-limit root.

``leg_time_distance`` integrates 1/f and s/f over the speed interval with the
package's adaptive loop, on each side of the signed-drag kink at the wind
speed and with improper-endpoint handling at the mode's rest speed.  It is
the leg of ``GeneralLawSlice``, the base of the test slices whose
acceleration is not the model's law, and the independent reference for the
closed-form legs of the model's own slices.  ``bisection_upper_limit`` is the
60-step dichotomy on the period average that the band search used before its
bracketed root.
"""

from __future__ import annotations

import math

import numpy as np

from ecodrive.dynamics import ENDPOINT_MATCH_TOL, FrozenDynamics
from ecodrive.errors import InfeasibleCandidateError
from ecodrive.optimizer import UPPER_BRACKET_MARGIN, _saturated_limit
from ecodrive.quadrature import (
    ENDPOINT_EPS_FRACTION,
    integrate_with_vanishing_endpoint,
    mode_changes_sign,
    speed_moments,
)


def leg_time_distance(
    frozen: FrozenDynamics, engine_on: bool, v0: float, v1: float
) -> tuple[float, float]:
    """Signed speed moments of 1/f from ``v0`` to ``v1``: time and distance."""
    if v0 == v1:
        return 0.0, 0.0
    lo, hi = sorted((v0, v1))
    w = frozen.wind_speed
    if frozen.params.signed_drag and lo < w < hi:
        # r|r| jumps in its second derivative at r = 0, where the embedded
        # Gauss rule underestimates the error
        t0, d0 = leg_time_distance(frozen, engine_on, v0, w)
        t1, d1 = leg_time_distance(frozen, engine_on, w, v1)
        return t0 + t1, d0 + d1

    def inverse(s: np.ndarray) -> np.ndarray:
        return 1.0 / frozen.accel_grid(s, engine_on)

    rest = frozen.rest_speed(engine_on)
    singular = [v for v in (v1, v0) if rest is not None and abs(v - rest) <= ENDPOINT_MATCH_TOL]
    if not singular:
        return speed_moments(inverse, v0, v1)
    eps = ENDPOINT_EPS_FRACTION * (frozen.v_high - frozen.v_low)
    sign = 1.0 if v1 >= v0 else -1.0
    t, d = integrate_with_vanishing_endpoint(inverse, lo, hi, singular[0], eps)
    return sign * t, sign * d


class GeneralLawSlice(FrozenDynamics):
    """A slice whose subclasses override the acceleration law: legs by quadrature."""

    def leg_time_distance(self, engine_on, v0, v1):
        return leg_time_distance(self, engine_on, v0, v1)


class SqrtTopSlice(GeneralLawSlice):
    """Engine-on acceleration with a square-root root: the top is reached in finite time."""

    def accel(self, x2, engine_on):
        if engine_on:
            rel = (10.0 - x2) / 10.0
            return 0.2 * math.copysign(math.sqrt(abs(rel)), rel)
        return super().accel(x2, engine_on)

    def accel_grid(self, x2, engine_on):
        if engine_on:
            rel = (10.0 - np.asarray(x2)) / 10.0
            return 0.2 * np.sign(rel) * np.sqrt(np.abs(rel))
        return super().accel_grid(x2, engine_on)


def sqrt_top_slice(params, power) -> SqrtTopSlice:
    """The square-root slice with v_low = 0 (sticking) and v_high = 10 m/s."""
    return SqrtTopSlice(params, power, 0.0, 0.0, 0.0, 10.0, False)


def bisection_upper_limit(
    frozen: FrozenDynamics, v_a: float, v_target: float, tol: float = 1e-4
) -> tuple[float, float]:
    """Upper limit by 60 halvings of [target, top], stopping within ``0.01 tol``."""
    if not frozen.v_low < v_a < v_target < frozen.v_high:
        raise InfeasibleCandidateError("need v_low < v_a < target < v_high")
    v_b_max = frozen.v_high * (1.0 - UPPER_BRACKET_MARGIN)
    if v_b_max <= v_target:
        raise InfeasibleCandidateError("no room below v_high")
    if any(mode_changes_sign(frozen, on, v_a, v_b_max) for on in (True, False)):
        raise InfeasibleCandidateError("a mode acceleration changes sign")
    # split each leg at the target speed: the inner pieces do not depend on
    # the trial upper limit
    t_up_fix, d_up_fix = leg_time_distance(frozen, True, v_a, v_target)
    t_dn_fix, d_dn_fix = leg_time_distance(frozen, False, v_target, v_a)
    t_fixed = t_up_fix + t_dn_fix
    d_fixed = d_up_fix + d_dn_fix

    def average(v_b: float) -> float:
        t_up, d_up = leg_time_distance(frozen, True, v_target, v_b)
        t_dn, d_dn = leg_time_distance(frozen, False, v_b, v_target)
        return (d_fixed + d_up + d_dn) / (t_fixed + t_up + t_dn)

    if average(v_b_max) < v_target:
        return _saturated_limit(frozen, v_a, v_target)
    lo, hi = v_target, v_b_max
    mid = 0.5 * (lo + hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        avg = average(mid)
        if abs(avg - v_target) <= 0.01 * tol:
            break
        if avg < v_target:
            lo = mid
        else:
            hi = mid
    return mid, 0.0
