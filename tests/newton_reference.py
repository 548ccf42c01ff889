"""The Newton band solve as one band object per iterate: a reference for ``optimizer._newton_band``.

Each iterate builds the ``OscillationBand`` of its legs, and the certificate evaluates the
tradeoff psi = -h f_off / f1 at each end through its own helper, so f_on, f_off and h are
evaluated again where the Jacobian needs them.  The solve takes the same steps in the same
float order as the package's, which keeps each value in plain floats and builds only the
accepted band, so the two must agree to the last bit.
"""

from __future__ import annotations

import math

from ecodrive.dynamics import ENDPOINT_MATCH_TOL, FrozenDynamics, engine_energy
from ecodrive.optimizer import UPPER_BRACKET_MARGIN, OscillationBand, leg_time_distance


def band_of_legs(frozen: FrozenDynamics, v_a: float, v_b: float, legs) -> OscillationBand:
    """The band of the legs ``((t_up, d_up), (t_down, d_down))`` between v_a and v_b."""
    (t_up, d_up), (t_down, d_down) = legs
    on_energy = engine_energy(t_up, d_up, True, frozen.power, frozen.params)
    energy = on_energy + frozen.params.switch_cost
    period = t_up + t_down
    return OscillationBand(
        lower=v_a,
        upper=v_b,
        period=period,
        distance=d_up + d_down,
        energy=energy,
        avg_cost=energy / period,
    )


def tradeoff(frozen: FrozenDynamics, v: float) -> tuple[float, float]:
    """The tradeoff psi = -h f_off / f1 at speed v > 0, and its derivative in v."""
    p, rel = frozen.params, v - frozen.wind_speed
    h, f_off = frozen.engine_power_at(v), frozen.accel(v, False)
    dh = engine_energy(0.0, 1.0, True, frozen.power, p)  # the draw per metre: m f1 or 0
    df_off = -2.0 * p.drag_coeff * (abs(rel) if p.signed_drag else rel)
    return -h * f_off / p.traction, -(dh * f_off + h * df_off) / p.traction


def certificate(frozen: FrozenDynamics, band: OscillationBand, v_target: float):
    """``(miss, residual), (j11, j12, j21, j22)``: the band's two equations and their Jacobian.

    The miss of the target, and the residual of the certificate: the cost less the chord of
    psi through the band's ends, read at the target.
    """
    v_a, v_b, t, avg, cost = band.lower, band.upper, band.period, band.avg_speed, band.avg_cost
    accel, power = frozen.accel, frozen.engine_power_at
    (psi_a, dpsi_a), (psi_b, dpsi_b) = tradeoff(frozen, v_a), tradeoff(frozen, v_b)
    w, rise = (v_target - v_a) / (v_b - v_a), (psi_b - psi_a) / (v_b - v_a) ** 2
    # raising an end v adds g = 1/f_on - 1/f_off to t, v g to the distance and h/f_on
    # to the energy at v_b, and subtracts them at v_a
    on_a, on_b = accel(v_a, True), accel(v_b, True)
    g_a, g_b = 1.0 / on_a - 1.0 / accel(v_a, False), 1.0 / on_b - 1.0 / accel(v_b, False)
    j11, j12 = (avg - v_a) * g_a / t, (v_b - avg) * g_b / t
    j21 = (cost * g_a - power(v_a) / on_a) / t - dpsi_a * (1.0 - w) + rise * (v_b - v_target)
    j22 = (power(v_b) / on_b - cost * g_b) / t - dpsi_b * w + rise * (v_target - v_a)
    return (avg - v_target, cost - psi_a - (psi_b - psi_a) * w), (j11, j12, j21, j22)


def newton_band(
    frozen: FrozenDynamics, v_target: float, tol: float, start: OscillationBand | None = None
) -> OscillationBand | None:
    """The interior optimum by Newton's method on the average and the chord certificate.

    The same starts, step, halving and acceptance as ``optimizer._newton_band``: from the
    edges of ``start``, and where that solve fails, from the target -/+ half the smaller room.
    """
    if start is not None:
        band = newton_solve(frozen, v_target, tol, start.lower, start.upper)
        if band is not None:
            return band
    v_b_max = frozen.v_high * (1.0 - UPPER_BRACKET_MARGIN)
    half = 0.5 * min(v_target - frozen.v_low, v_b_max - v_target)
    return newton_solve(frozen, v_target, tol, v_target - half, v_target + half)


def newton_solve(
    frozen: FrozenDynamics, v_target: float, tol: float, v_a: float, v_b: float
) -> OscillationBand | None:
    """One Newton solve from the band (v_a, v_b); None where it fails."""
    bound = frozen.v_low + (ENDPOINT_MATCH_TOL if frozen.v_low_is_root else 0.0)
    v_b_max = frozen.v_high * (1.0 - UPPER_BRACKET_MARGIN)
    for _ in range(12):
        if not bound < v_a < v_target < v_b < v_b_max:
            return None
        legs = leg_time_distance(frozen, True, v_a, v_b), leg_time_distance(frozen, False, v_b, v_a)
        band = band_of_legs(frozen, v_a, v_b, legs)
        (miss, residual), (j11, j12, j21, j22) = certificate(frozen, band, v_target)
        det = j11 * j22 - j12 * j21
        if not (det and math.isfinite(det)):
            return None
        step_a, step_b = (residual * j12 - miss * j22) / det, (miss * j21 - residual * j11) / det
        if abs(step_a) <= 1e-11 * v_a and abs(step_b) <= 1e-11 * v_b:
            return band if abs(miss) <= 0.01 * tol and j21 - j22 * j11 / j12 > 0.0 else None
        scale = 1.0
        while not v_a + scale * step_a < v_target < v_b + scale * step_b and scale >= 1e-6:
            scale *= 0.5
        v_a, v_b = v_a + scale * step_a, v_b + scale * step_b
    return None
