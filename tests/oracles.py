"""Closed-form oracles for the flat windless slice of the reference vehicle.

Everything here is derived by hand from the model equations, independent of
the package's quadrature and root finding:

    engine on:  dv/dt = A - a v^2          with A = f1 - c
    engine off: dv/dt = -(a v^2 + c)       for v > 0

which integrate to inverse-hyperbolic / arctangent antiderivatives.  The
constants are the reference prototype values used across the test suite.
"""

from __future__ import annotations

import math

A_DRAG = 6e-4          # 1/m
C_FRICTION = 0.03      # m/s^2
F1_TRACTION = 0.20     # m/s^2
MASS = 93.0            # kg
H_CONST = 161.0        # W, constant-electrical draw
ALPHA = 10.0           # J per switch-on

A_NET = F1_TRACTION - C_FRICTION
V_TOP = math.sqrt(A_NET / A_DRAG)          # engine-on equilibrium
_SQ_UP = math.sqrt(A_DRAG * A_NET)
_K_UP = math.sqrt(A_DRAG / A_NET)
_SQ_DN = math.sqrt(A_DRAG * C_FRICTION)
_K_DN = math.sqrt(A_DRAG / C_FRICTION)


def time_up(v0: float, v1: float) -> float:
    """Acceleration time v0 -> v1."""
    return (math.atanh(v1 * _K_UP) - math.atanh(v0 * _K_UP)) / _SQ_UP


def dist_up(v0: float, v1: float) -> float:
    return (1.0 / (2.0 * A_DRAG)) * math.log(
        (A_NET - A_DRAG * v0 * v0) / (A_NET - A_DRAG * v1 * v1)
    )


def speed_up_after_time(v0: float, tau: float) -> float:
    return V_TOP * math.tanh(math.atanh(v0 * _K_UP) + tau * _SQ_UP)


def speed_up_after_dist(v0: float, dist: float) -> float:
    return math.sqrt(
        (A_NET - (A_NET - A_DRAG * v0 * v0) * math.exp(-2.0 * A_DRAG * dist)) / A_DRAG
    )


def time_down(v1: float, v0: float) -> float:
    """Coast time v1 -> v0 (v1 > v0 >= 0)."""
    return (math.atan(v1 * _K_DN) - math.atan(v0 * _K_DN)) / _SQ_DN


def dist_down(v1: float, v0: float) -> float:
    return (1.0 / (2.0 * A_DRAG)) * math.log(
        (A_DRAG * v1 * v1 + C_FRICTION) / (A_DRAG * v0 * v0 + C_FRICTION)
    )


def speed_down_after_time(v1: float, tau: float) -> float:
    angle = math.atan(v1 * _K_DN) - tau * _SQ_DN
    if angle <= 0.0:
        return 0.0
    return math.tan(angle) / _K_DN


def speed_down_after_dist(v1: float, dist: float) -> float:
    inner = (A_DRAG * v1 * v1 + C_FRICTION) * math.exp(-2.0 * A_DRAG * dist) - C_FRICTION
    return math.sqrt(inner / A_DRAG) if inner > 0.0 else 0.0


def period(v_a: float, v_b: float) -> tuple[float, float, float]:
    """(duration, distance, energy) of one oscillation, constant power model."""
    t1 = time_up(v_a, v_b) + time_down(v_b, v_a)
    d = dist_up(v_a, v_b) + dist_down(v_b, v_a)
    e = H_CONST * time_up(v_a, v_b) + ALPHA
    return t1, d, e


def band_average(v_a: float, v_b: float) -> float:
    t1, d, _ = period(v_a, v_b)
    return d / t1


def upper_for_target(v_a: float, target: float, tol: float = 1e-10) -> float:
    """Dichotomy on the strictly increasing band average."""
    lo, hi = target, V_TOP * (1.0 - 1e-9)
    if band_average(v_a, hi) < target:
        raise ValueError("target unreachable without dwell on the flat slice")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if band_average(v_a, mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def chord_residual(v_a: float, target: float) -> tuple[float, float, float]:
    """(cost - chord, v_b, cost) of the band through ``v_a`` at the target average.

    The chord is that of psi(v) = H (a v^2 + c) / f1 through the band's ends,
    read at the target; at an interior optimum the band's cost equals it.
    """
    v_b = upper_for_target(v_a, target, tol=1e-13)
    t1, _, e = period(v_a, v_b)
    psi_a, psi_b = (H_CONST * (A_DRAG * v * v + C_FRICTION) / F1_TRACTION for v in (v_a, v_b))
    chord = psi_a + (psi_b - psi_a) * (target - v_a) / (v_b - v_a)
    return e / t1 - chord, v_b, e / t1


def exact_band(target: float) -> tuple[float, float, float]:
    """(v_a, v_b, avg_cost) of the optimal band: the root of the chord residual.

    The residual is negative below the optimal lower speed and positive above
    it; bisection on (0, target) resolves the root to 1e-12 m/s.
    """
    lo, hi = 1e-9, target - 1e-9
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if chord_residual(mid, target)[0] < 0.0:
            lo = mid
        else:
            hi = mid
    v_a = 0.5 * (lo + hi)
    _, v_b, cost = chord_residual(v_a, target)
    return v_a, v_b, cost


def bisect_band(target: float, step: float = 0.5) -> tuple[float, float, float]:
    """(v_a, v_b, avg_cost) of the band search resolved to ``step`` m/s.

    Bisects the lower speed on (0, target) on the sign of the chord residual,
    midpoint first, until the bracket is no wider than ``step``; a lower
    speed with no band at the target counts as lying below the optimum.  The
    cheapest band evaluated wins, ties going to the larger lower speed.
    """
    lo, hi = 1e-9, target - 1e-9
    best = None
    while True:
        mid = 0.5 * (lo + hi)
        try:
            residual, v_b, cost = chord_residual(mid, target)
        except ValueError:
            residual = -math.inf
        else:
            if best is None or cost < best[2] or (cost == best[2] and mid > best[0]):
                best = (mid, v_b, cost)
        lo, hi = (mid, hi) if residual < 0.0 else (lo, mid)
        if hi - lo <= step:
            return best


# ---------------------------------------------------------------------------
# large-period two-switch minimum at fixed average speed (m_V^2(T2))
# ---------------------------------------------------------------------------

def _junction(v: float) -> tuple[float, float]:
    """Band with the lower speed at rest: (v_b, period)."""
    v_b = upper_for_target(1e-12, v)
    t1, _, _ = period(1e-12, v_b)
    return v_b, t1


def fixed_period_min_cost(v: float, t2: float) -> float:
    """Two-switch minimum average cost at average speed v and period t2.

    Interior bands cover periods up to the rest-junction; beyond that the
    lower speed saturates at rest and the balance is spent standing still
    (free), with the upper speed set by the distance requirement.
    """
    _, t_junction = _junction(v)
    if t2 <= t_junction:
        lo, hi = 1e-9, v - 1e-9
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            v_b = upper_for_target(mid, v)
            t1, _, _ = period(mid, v_b)
            if t1 > t2:
                lo = mid
            else:
                hi = mid
        v_a = 0.5 * (lo + hi)
        v_b = upper_for_target(v_a, v)
        t1, _, e = period(v_a, v_b)
        return e / t1
    # rest-saturated branch: distance over one period must be v * t2
    target_d = v * t2
    lo, hi = v, V_TOP * (1.0 - 1e-12)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dist_up(0.0, mid) + dist_down(mid, 0.0) < target_d:
            lo = mid
        else:
            hi = mid
    v_b = 0.5 * (lo + hi)
    return (H_CONST * time_up(0.0, v_b) + ALPHA) / t2


def expansion_moments() -> tuple[float, float]:
    """Closed forms of the acceleration moments entering the 1/T2 term.

    up moment:   int_0^{V} (s - V)/ (A - a s^2) ds = -ln(2)/a
    down moment: int_V^0 s / -(a s^2 + c) ds = ln((a V^2 + c)/c) / (2a)
    """
    up = -math.log(2.0) / A_DRAG
    down = math.log((A_DRAG * V_TOP**2 + C_FRICTION) / C_FRICTION) / (2.0 * A_DRAG)
    return up, down


def expansion(v: float, t2: float) -> float:
    up, down = expansion_moments()
    lead = H_CONST * v / V_TOP
    bracket = ALPHA - (up + down) * H_CONST / V_TOP
    return lead + bracket / t2


# ---------------------------------------------------------------------------
# event-driven closed-form emulation of the receding-horizon flat race
# ---------------------------------------------------------------------------

def event_race(
    length: float,
    duration: float,
    replan_interval: float = 3.0,
    v_safe: float = 12.0,
    delta: float = 0.5,
    hard_stop_factor: float = 1.2,
) -> dict:
    """Emulate the flat-race controller with exact leg solutions.

    Reproduces the replan/hysteresis policy, with the same target formula
    and each replan's band the exact optimum (``exact_band``), but advances
    the state maneuver-by-maneuver with the closed forms above, so the total
    is startup energy plus per-period energies with no ODE stepping anywhere.
    """
    t, x, v = 0.0, 0.0, 0.0
    on = True
    switches = 1
    e_power = 0.0
    startup_energy = None
    t_hard = hard_stop_factor * duration
    n = 0
    while x < length - 1e-9 and t < t_hard - 1e-12:
        target = (length - x) / (duration - t) if t < duration else math.inf
        if target >= V_TOP:
            v_b = min(V_TOP * (1.0 - 1e-6), v_safe)
            v_a = v_b - delta
        elif target <= 0.0:
            v_a = v_b = target
        else:
            v_a, v_b, _ = exact_band(target)
            if v_b > v_safe:
                v_b = v_safe
                v_a = v_safe - delta
        n += 1
        window_end = min(n * replan_interval, t_hard)
        while t < window_end - 1e-12 and x < length - 1e-9:
            budget = window_end - t
            if on:
                tau_switch = time_up(v, v_b) if v < v_b else 0.0
                tau = min(tau_switch, budget)
                v_new = speed_up_after_time(v, tau)
                if x + dist_up(v, v_new) >= length:
                    v_line = speed_up_after_dist(v, length - x)
                    tau = time_up(v, v_line)
                    e_power += H_CONST * tau
                    t, x, v = t + tau, length, v_line
                    break
                e_power += H_CONST * tau
                t, x, v = t + tau, x + dist_up(v, v_new), v_new
                if tau == tau_switch and tau < budget:
                    on = False
                    if startup_energy is None:
                        startup_energy = e_power
            else:
                tau_switch = time_down(v, v_a) if v > v_a else 0.0
                tau = min(tau_switch, budget)
                v_new = speed_down_after_time(v, tau)
                if x + dist_down(v, v_new) >= length:
                    v_line = speed_down_after_dist(v, length - x)
                    tau = time_down(v, v_line)
                    t, x, v = t + tau, length, v_line
                    break
                t, x, v = t + tau, x + dist_down(v, v_new), v_new
                if tau == tau_switch and tau < budget:
                    on = True
                    switches += 1
    return {
        "finish_time": t,
        "finished": x >= length - 1e-9,
        "energy": e_power + ALPHA * switches,
        "switches": switches,
        "startup_energy": startup_energy if startup_energy is not None else e_power,
        "avg_speed": x / t if t > 0 else 0.0,
    }
