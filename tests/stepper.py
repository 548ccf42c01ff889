"""Fixed-step midpoint reference for the exact legs of ``ecodrive.dynamics``.

An independent time-stepping solution of the same switched dynamics: one
explicit midpoint step at a time, split at track breakpoints, wind-grid cell
boundaries and the sticking event.  Tests compare the closed-form legs and
the speed-reparametrized quadrature against it.
"""

from __future__ import annotations

import math

from ecodrive.dynamics import (
    PowerModel,
    RaceState,
    TrackProfile,
    VehicleParams,
    WindField,
    _accel_scalar,
    engine_power,
)
from ecodrive.errors import NumericError


def integrate(
    state: RaceState,
    engine_on: bool,
    dt: float,
    track: TrackProfile,
    wind: WindField,
    params: VehicleParams,
    power: PowerModel,
) -> RaceState:
    """Advance the state by ``dt`` holding the engine mode fixed.

    One explicit midpoint step, split exactly at track breakpoints, wind-grid
    cell boundaries, and the sticking event where the speed reaches zero.
    Energy accumulates trapezoidally from the power model while the engine is
    on.  Switch accounting is the caller's job: ``switches`` and the
    switching cost are not touched here.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    t, x1, x2 = state.t, state.position, state.speed
    energy = state.energy
    remaining = dt
    guard = 0
    while remaining > 1e-15:
        guard += 1
        if guard > 10_000:
            raise NumericError("integration step split too many times")
        theta = track.slope_at(x1)
        w = wind.at(x1, t)
        g_comp = params.gravity * math.sin(theta)
        s_stop = min(track.next_boundary(x1), wind.next_boundary_s(x1))
        h = min(remaining, max(wind.next_boundary_t(t) - t, 1e-12))
        t, x1, x2, de = _midpoint_step(t, x1, x2, engine_on, h, w, g_comp, s_stop, params, power)
        energy += de
        if not (math.isfinite(x1) and math.isfinite(x2)):
            raise NumericError(f"state became non-finite at t={t}")
        remaining = state.t + dt - t
    return RaceState(t, x1, x2, engine_on, state.switches, energy)


def _midpoint_step(
    t: float,
    x1: float,
    x2: float,
    engine_on: bool,
    h: float,
    wind_speed: float,
    gravity_component: float,
    s_stop: float,
    params: VehicleParams,
    power: PowerModel,
) -> tuple[float, float, float, float]:
    """One midpoint step of at most ``h``, stopping exactly at ``s_stop``.

    Returns the advanced (t, x1, x2, energy increment).  Implements the
    sticking convention: from zero speed the state only moves if the
    one-sided forward acceleration is positive, and a downward zero crossing
    clamps speed to zero for the rest of the step.
    """
    if x2 <= 0.0:
        f_plus = _accel_scalar(1e-12, engine_on, wind_speed, gravity_component, params)
        if f_plus <= 0.0:
            # stuck: time passes, nothing moves, engine-on draw still counts
            de = engine_power(0.0, engine_on, power, params) * h if engine_on else 0.0
            return t + h, x1, 0.0, de
        a1 = f_plus
    else:
        a1 = _accel_scalar(x2, engine_on, wind_speed, gravity_component, params)
    xm = x2 + 0.5 * h * a1
    if xm > 0.0:
        a2 = _accel_scalar(xm, engine_on, wind_speed, gravity_component, params)
        x2_new = x2 + h * a2
    else:
        # rest comes before the midpoint, where friction would push back:
        # the crossing is found on the initial slope
        x2_new = x2 + h * a1
    h_eff = h
    if x2_new < 0.0:
        # split at the downward zero crossing, then stick
        frac = x2 / (x2 - x2_new) if x2 > 0.0 else 0.0
        h_eff = h * frac
        x1_new = x1 + h_eff * 0.5 * x2
        x2_new = 0.0
        # sticking consumes the whole step: position holds afterwards
        de = 0.0
        if engine_on:
            de = 0.5 * (
                engine_power(x2, True, power, params) + engine_power(0.0, True, power, params)
            ) * h_eff + engine_power(0.0, True, power, params) * (h - h_eff)
        return t + h, x1_new, x2_new, de
    x1_new = x1 + h * xm
    if x1_new > s_stop:
        frac = (s_stop - x1) / (x1_new - x1)
        h_eff = h * frac
        xm = x2 + 0.5 * h_eff * a1
        a2 = _accel_scalar(xm, engine_on, wind_speed, gravity_component, params)
        x2_new = x2 + h_eff * a2
        x1_new = s_stop
    de = 0.0
    if engine_on:
        de = 0.5 * (
            engine_power(x2, True, power, params) + engine_power(x2_new, True, power, params)
        ) * h_eff
    return t + h_eff, x1_new, x2_new, de
