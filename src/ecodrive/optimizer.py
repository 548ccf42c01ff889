"""Energy-optimal oscillation bands for a frozen slice of the dynamics.

At a prescribed average speed the cheapest long-run strategy oscillates
between a lower and an upper speed with one engine switch-on per period.
The band search solves by Newton's method for the band meeting the target
and the paper's optimality certificate, the chord of the tradeoff -F
(``_chord_residual``); failing that, it bisects the lower speed on the
certificate's sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import (
    ENDPOINT_MATCH_TOL,
    FrozenDynamics,
    engine_energy,
    increasing_root,
    require_positive,
)
from .errors import (
    ExpansionInapplicableError,
    InfeasibleCandidateError,
    InfeasibleTargetError,
    InvalidSegmentError,
    NumericError,
)

# keep the root bracket strictly below the equilibrium
UPPER_BRACKET_MARGIN = 1e-6


@dataclass(frozen=True)
class OscillationBand:
    """A periodic two-switch strategy: oscillate between lower and upper.

    A coast band (engine never on) is encoded with lower == upper and an
    infinite period at zero average cost.
    """

    lower: float
    upper: float
    dwell: float
    period: float
    distance: float
    energy: float
    avg_cost: float

    @property
    def avg_speed(self) -> float:
        if math.isinf(self.period):
            return self.upper
        return self.distance / self.period

    @property
    def is_coast(self) -> bool:
        return math.isinf(self.period)


def coast_band(speed: float) -> OscillationBand:
    """Engine-off band used when the target lies at or below the rest speed."""
    return OscillationBand(
        lower=speed,
        upper=speed,
        dwell=0.0,
        period=math.inf,
        distance=math.inf,
        energy=0.0,
        avg_cost=0.0,
    )


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the fallback bisection, in m/s, and tolerance of the average speed.

    ``fine_step`` applies only where the Newton solve falls back; the default
    makes four band evaluations on a 7 m/s window, cheap enough for every
    replan.  A band misses the target average speed by at most ``0.01 tol``.
    """

    tol: float = 1e-4
    fine_step: float = 0.5

    def __post_init__(self) -> None:
        require_positive(self, "tol", "fine_step")


def leg_time_distance(
    frozen: FrozenDynamics, engine_on: bool, v0: float, v1: float
) -> tuple[float, float]:
    """Time and distance of a constant-mode leg from speed ``v0`` to ``v1``.

    The band search's one entry to the slice's own leg; a module function, so
    that a caller can wrap it to count and time legs.
    """
    return frozen.leg_time_distance(engine_on, v0, v1)


def band_from_limits(
    frozen: FrozenDynamics, v_a: float, v_b: float, dwell: float = 0.0
) -> OscillationBand:
    """One period oscillating between v_a and v_b: up leg, dwell at the top, down leg.

    The engine turns on once per period, so the switching cost is charged
    once.  A dwell is only meaningful at the engine-on equilibrium, where the
    speed can be held without changing mode.  Neither mode's acceleration may
    change sign strictly inside the band.
    """
    if not frozen.v_low < v_a < v_b <= frozen.v_high + ENDPOINT_MATCH_TOL:
        raise InvalidSegmentError(
            f"band ({v_a}, {v_b}) must satisfy "
            f"v_low < v_a < v_b <= v_high = ({frozen.v_low}, {frozen.v_high})"
        )
    if dwell < 0.0:
        raise InvalidSegmentError("dwell must be nonnegative")
    if dwell > 0.0 and abs(v_b - frozen.v_high) > ENDPOINT_MATCH_TOL:
        raise InvalidSegmentError("dwell is only possible at the top equilibrium")
    if any(frozen.mode_changes_sign(on, v_a, v_b) for on in (True, False)):
        raise InvalidSegmentError("mode acceleration changes sign strictly inside the segment")
    legs = leg_time_distance(frozen, True, v_a, v_b), leg_time_distance(frozen, False, v_b, v_a)
    if not all(map(math.isfinite, legs[0] + legs[1])):
        raise InvalidSegmentError(f"band ({v_a}, {v_b}) ends at a rest speed it only approaches")
    return _band(frozen, v_a, v_b, dwell, legs)


def _band(frozen: FrozenDynamics, v_a: float, v_b: float, dwell: float, legs) -> OscillationBand:
    """The band of the legs ``((t_up, d_up), (t_down, d_down))`` between v_a and v_b."""
    (t_up, d_up), (t_down, d_down) = legs
    # the dwell holds v_b with the engine on, so it extends the up leg's draw
    on_energy = engine_energy(t_up + dwell, d_up + v_b * dwell, True, frozen.power, frozen.params)
    energy = on_energy + frozen.params.switch_cost
    period = t_up + dwell + t_down
    return OscillationBand(
        lower=v_a,
        upper=v_b,
        dwell=dwell,
        period=period,
        distance=d_up + v_b * dwell + d_down,
        energy=energy,
        avg_cost=energy / period,
    )


# the benchmark's tracer wraps this name (perfbench/spans.py)
period_stats = band_from_limits


def band_cost(
    frozen: FrozenDynamics, v_a: float, v_target: float, tol: float = 1e-4
) -> OscillationBand:
    """Band through ``v_a`` meeting the target average, with its average cost.

    Newton's method on the exact slope of the period average in the upper
    limit, ``(v_b - avg)(1/f_on(v_b) - 1/f_off(v_b))/T``, finds where the
    average meets the target inside [target, top], from ``2 target - v_a``;
    the band at that root is returned when its average misses the target by
    at most ``0.01 tol`` and raises otherwise.  When even a band reaching
    almost the top equilibrium undershoots the target - possible only when
    the equilibrium is attained in finite time - the band saturates at the
    equilibrium and the balance is made up by dwelling there.  A candidate
    within rounding of the target or of a coasting rest speed, or whose legs
    would cross a root of either mode's acceleration, is infeasible: one
    check covers the whole bracket.
    """
    if not frozen.v_low < v_a < v_target < frozen.v_high:
        raise InfeasibleCandidateError(
            f"need v_low < v_a < target < v_high, got "
            f"({frozen.v_low:.6g}, {v_a:.6g}, {v_target:.6g}, {frozen.v_high:.6g})"
        )
    if frozen.v_low_is_root and v_a <= frozen.v_low + ENDPOINT_MATCH_TOL:
        raise InfeasibleCandidateError(f"v_a={v_a!r} is within rounding of the coasting rest speed")
    v_b_max = frozen.v_high * (1.0 - UPPER_BRACKET_MARGIN)
    if v_b_max <= v_target:
        raise InfeasibleCandidateError(
            f"target {v_target:.6g} leaves no room below v_high {frozen.v_high:.6g}"
        )
    margin = max(1e-9, 1e-4 * (v_target - v_a))  # no wider than any band (v_a, v_b) gets
    if any(frozen.mode_changes_sign(on, v_a, v_b_max, margin) for on in (True, False)):
        raise InfeasibleCandidateError(
            f"a mode acceleration changes sign between v_a={v_a:.6g} "
            f"and the top {v_b_max:.6g}"
        )
    legs = []  # of the last upper limit evaluated, which the root returns

    def miss(v_b: float) -> tuple[float, float]:
        legs[:] = (
            leg_time_distance(frozen, True, v_a, v_b), leg_time_distance(frozen, False, v_b, v_a)
        )
        (t_up, d_up), (t_dn, d_dn) = legs
        t = t_up + t_dn
        avg = (d_up + d_dn) / t
        # the legs gain 1/|f| in time and v_b/|f| in distance at the moving end
        rate = 1.0 / frozen.accel(v_b, True) - 1.0 / frozen.accel(v_b, False)
        return avg - v_target, (v_b - avg) * rate / t

    v_b = increasing_root(miss, v_target, v_b_max, 2.0 * v_target - v_a)
    if v_b == v_target:
        # only rounding puts the band (v_a, target) on the target
        raise InfeasibleCandidateError(
            f"v_a={v_a!r} lies within rounding of the target {v_target!r}"
        )
    band = _band(frozen, v_a, v_b, 0.0, legs)
    missed = band.avg_speed - v_target
    if v_b == v_b_max and missed < 0.0:
        return _saturated_band(frozen, v_a, v_target)
    if not abs(missed) <= 0.01 * tol:
        raise NumericError(
            f"upper limit {v_b:.9g} misses the target {v_target:.6g} by more than {0.01 * tol:.3g}"
        )
    return band


def _saturated_band(frozen: FrozenDynamics, v_a: float, v_target: float) -> OscillationBand:
    if math.isinf(leg_time_distance(frozen, True, v_a, frozen.v_high)[0]):
        raise InfeasibleCandidateError(
            f"no upper limit achieves average {v_target:.6g} from v_a={v_a:.6g}: "
            "the top equilibrium is only approached asymptotically"
        )
    cycle = band_from_limits(frozen, v_a, frozen.v_high)
    dwell = (v_target * cycle.period - cycle.distance) / (frozen.v_high - v_target)
    return band_from_limits(frozen, v_a, frozen.v_high, max(dwell, 0.0))


def optimal_band(
    frozen: FrozenDynamics,
    v_target: float,
    v_safe: float = math.inf,
    grid: GridSpec | None = None,
    delta: float = 0.5,
) -> OscillationBand:
    """Cheapest band at the target average speed, clamped to the safety speed.

    Solves for the interior optimum (``_newton_band``), or else bisects the
    lower speed on (v_low, target), midpoint first, to ``grid.fine_step`` on
    the sign of the chord certificate, an infeasible lower speed counting as
    below the optimum; the cheapest band evaluated wins, ties going to the
    larger lower speed (fewer switches per unit time).  A band topping out
    above ``v_safe`` is replaced by the safety band (v_safe - delta, v_safe),
    which no longer meets the average-speed constraint.
    """
    grid = grid or GridSpec()
    if not v_safe > 0.0:
        raise ValueError("v_safe must be strictly positive")
    if v_target >= frozen.v_high:
        raise InfeasibleTargetError(
            f"target {v_target:.6g} m/s is not below v_high {frozen.v_high:.6g} m/s"
        )
    if v_target <= frozen.v_low:
        return coast_band(v_target)
    best = _newton_band(frozen, v_target, grid.tol) or _bisected_band(frozen, v_target, grid)
    if best.upper > v_safe:
        return safety_band(frozen, v_safe, delta)
    return best


def _newton_band(frozen: FrozenDynamics, v_target: float, tol: float) -> OscillationBand | None:
    """The interior optimum, by Newton's method on the average and the chord certificate.

    From the bisection's first lower speed, one pair of legs per iteration.  None when an
    iterate leaves (rest speed, top) or crosses the target after halving its step to 1e-6,
    a mode changes sign there, a leg or the Jacobian is not finite, or 12 iterations fail.
    """
    bound = frozen.v_low + (ENDPOINT_MATCH_TOL if frozen.v_low_is_root else 0.0)
    v_b_max = frozen.v_high * (1.0 - UPPER_BRACKET_MARGIN)
    margin = max(1e-9, 1e-4 * (v_target - bound))
    if any(frozen.mode_changes_sign(on, bound, v_b_max, margin) for on in (True, False)):
        return None
    accel, power = frozen.accel, frozen.engine_power_at
    v_a = 0.5 * (frozen.v_low + v_target)
    v_b = min(2.0 * v_target - v_a, 0.5 * (v_target + v_b_max))
    for _ in range(12):
        if not bound < v_a < v_target < v_b < v_b_max:
            return None
        legs = leg_time_distance(frozen, True, v_a, v_b), leg_time_distance(frozen, False, v_b, v_a)
        band = _band(frozen, v_a, v_b, 0.0, legs)
        t, avg, cost = band.period, band.avg_speed, band.avg_cost
        (psi_a, dpsi_a), (psi_b, dpsi_b) = _tradeoff(frozen, v_a), _tradeoff(frozen, v_b)
        w, rise = (v_target - v_a) / (v_b - v_a), (psi_b - psi_a) / (v_b - v_a) ** 2
        miss, residual = avg - v_target, cost - psi_a - (psi_b - psi_a) * w  # as _chord_residual
        # raising an end v adds g = 1/f_on - 1/f_off to t, v g to the distance and h/f_on
        # to the energy at v_b, and subtracts them at v_a
        on_a, on_b = accel(v_a, True), accel(v_b, True)
        g_a, g_b = 1.0 / on_a - 1.0 / accel(v_a, False), 1.0 / on_b - 1.0 / accel(v_b, False)
        j11, j12 = (avg - v_a) * g_a / t, (v_b - avg) * g_b / t
        j21 = (cost * g_a - power(v_a) / on_a) / t - dpsi_a * (1.0 - w) + rise * (v_b - v_target)
        j22 = (power(v_b) / on_b - cost * g_b) / t - dpsi_b * w + rise * (v_target - v_a)
        det = j11 * j22 - j12 * j21
        if not (det and math.isfinite(det)):  # an infinite leg, too, leaves it 0 or NaN
            return None
        step_a, step_b = (residual * j12 - miss * j22) / det, (miss * j21 - residual * j11) / det
        if abs(step_a) <= 1e-11 * v_a and abs(step_b) <= 1e-11 * v_b:
            return band if abs(miss) <= 0.01 * tol else None
        scale = 1.0
        while not v_a + scale * step_a < v_target < v_b + scale * step_b and scale >= 1e-6:
            scale *= 0.5
        v_a, v_b = v_a + scale * step_a, v_b + scale * step_b
    return None


def _bisected_band(frozen: FrozenDynamics, v_target: float, grid: GridSpec) -> OscillationBand:
    best: OscillationBand | None = None
    failures: list[str] = []

    def consider(v_a: float) -> OscillationBand | None:
        nonlocal best
        try:
            band = band_cost(frozen, v_a, v_target, grid.tol)
        except InfeasibleCandidateError as exc:
            failures.append(str(exc))
            return None
        if (
            best is None
            or band.avg_cost < best.avg_cost
            or (band.avg_cost == best.avg_cost and band.lower > best.lower)
        ):
            best = band
        return band

    lo, hi = frozen.v_low + 1e-9, v_target - 1e-9
    for _ in range(64):  # 64 halvings pass the float spacing, where a finer step would stall
        mid = 0.5 * (lo + hi)
        band = consider(mid)
        below = band is None or _chord_residual(frozen, band, v_target) < 0.0
        lo, hi = (mid, hi) if below else (lo, mid)
        if hi - lo <= grid.fine_step:
            break
    if best is None:
        raise InfeasibleCandidateError(
            "no lower speed admits the target average speed: " + "; ".join(failures)
        )
    return best


def _chord_residual(frozen: FrozenDynamics, band: OscillationBand, v_target: float) -> float:
    """Cost less the chord of psi = -h f_off / f1 through the band's ends, at the target.

    Zero at an interior optimum, negative below it and positive above it.
    """
    v_a, v_b = band.lower, band.upper
    (lo, _), (hi, _) = _tradeoff(frozen, v_a), _tradeoff(frozen, v_b)
    return band.avg_cost - lo - (hi - lo) * (v_target - v_a) / (v_b - v_a)


def _tradeoff(frozen: FrozenDynamics, v: float) -> tuple[float, float]:
    """The tradeoff psi = -h f_off / f1 at speed v > 0, and its derivative in v."""
    p, rel = frozen.params, v - frozen.wind_speed
    h, f_off = frozen.engine_power_at(v), frozen.accel(v, False)
    dh = engine_energy(0.0, 1.0, True, frozen.power, p)  # the draw per metre: m f1 or 0
    df_off = -2.0 * p.drag_coeff * (abs(rel) if p.signed_drag else rel)
    return -h * f_off / p.traction, -(dh * f_off + h * df_off) / p.traction


def safety_band(frozen: FrozenDynamics, v_safe: float, delta: float) -> OscillationBand:
    """Band of width ``delta`` topping out at the safety speed.

    The top is held strictly below the engine-on equilibrium; a top at or
    below the engine-off rest speed leaves nothing to oscillate over, so the
    vehicle coasts.
    """
    v_b = min(v_safe, frozen.v_high * (1.0 - UPPER_BRACKET_MARGIN))
    if v_b <= frozen.v_low + 1e-9:
        return coast_band(v_b)
    v_a = max(v_b - delta, frozen.v_low + 1e-3 * (frozen.v_high - frozen.v_low))
    if v_a >= v_b:
        v_a = 0.5 * (frozen.v_low + v_b)
    return band_from_limits(frozen, v_a, v_b)


def asymptotic_average_cost(frozen: FrozenDynamics, v_target: float, t2: float) -> float:
    """Large-period expansion of the two-switch minimum average cost.

    The leading term is the duty-cycle cost of oscillating across the whole
    reachable band; the 1/T2 correction collects the switching cost and the
    speed-weighted moments of both mode accelerations.
    """
    if not frozen.v_low < v_target < frozen.v_high:
        raise InfeasibleTargetError(
            f"target {v_target:.6g} must lie strictly inside "
            f"({frozen.v_low:.6g}, {frozen.v_high:.6g})"
        )
    if t2 <= 0.0:
        raise ValueError("t2 must be strictly positive")
    v_lo, v_hi = frozen.v_low, frozen.v_high
    h_star = frozen.engine_power_at(v_hi)
    excess_energy, up_moment, down_moment = frozen.moment_integrals()
    pieces = (excess_energy, up_moment, down_moment)
    if not all(math.isfinite(p) for p in pieces):
        raise ExpansionInapplicableError(
            "a moment integral diverges for these dynamics: "
            f"excess_energy={excess_energy}, up_moment={up_moment}, "
            f"down_moment={down_moment}"
        )
    lead = h_star * (v_target - v_lo) / (v_hi - v_lo)
    bracket = (
        frozen.params.switch_cost
        + excess_energy
        - (up_moment + down_moment) * h_star / (v_hi - v_lo)
    )
    return lead + bracket / t2
