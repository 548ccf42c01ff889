"""Energy-optimal oscillation bands for a frozen slice of the dynamics.

At a prescribed average speed the cheapest long-run strategy oscillates
between a lower and an upper speed with one engine switch-on per period.
The band search solves by Newton's method for the band meeting the target
and the paper's optimality certificate, the chord of the tradeoff -F
(``_certificate``), and accepts the solve only at a minimum of the cost;
failing that, it takes the certificate's rising root in the lower speed, or
the rest-speed bound where that is cheaper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import (
    ENDPOINT_MATCH_TOL,
    WHEEL_POWER,
    FrozenDynamics,
    engine_energy,
    increasing_root,
    require_positive,
    tradeoff_curvature,
)
from .errors import (
    InfeasibleCandidateError,
    InfeasibleTargetError,
    InvalidSegmentError,
    NumericError,
)

# keep the root bracket strictly below the equilibrium
UPPER_BRACKET_MARGIN = 1e-6
SOLVE_RTOL = 1e-11  # relative step at which the Newton band solve accepts its iterate


@dataclass(frozen=True)
class OscillationBand:
    """A periodic two-switch strategy: oscillate between lower and upper.

    A coast band (engine never on) is encoded with lower == upper and an
    infinite period at zero average cost.
    """

    # no band holds its top: no slice reaches its top equilibrium in finite time.  Not a
    # field; it stays only because the benchmark reads ``band.dwell`` (perfbench/workloads.py)
    dwell = 0.0

    lower: float
    upper: float
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
        period=math.inf,
        distance=math.inf,
        energy=0.0,
        avg_cost=0.0,
    )


@dataclass(frozen=True)
class GridSpec:
    """Tolerance of the average speed: a band misses the target by at most ``0.01 tol``.

    Nothing reads ``fine_step``; it stays because the benchmark builds
    ``GridSpec(fine_step=0.01)`` (perfbench/workloads.py).
    """

    tol: float = 1e-4
    fine_step: float = 0.5

    def __post_init__(self) -> None:
        require_positive(self, "tol")


def leg_time_distance(
    frozen: FrozenDynamics, engine_on: bool, v0: float, v1: float
) -> tuple[float, float]:
    """Time and distance of a constant-mode leg from speed ``v0`` to ``v1``.

    The band search's one entry to the slice's own leg; a module function, so
    that a caller can wrap it to count and time legs.
    """
    return frozen.leg_time_distance(engine_on, v0, v1)


def band_from_limits(frozen: FrozenDynamics, v_a: float, v_b: float) -> OscillationBand:
    """One period oscillating between v_a and v_b: the up leg, then the down leg.

    The engine turns on once per period, so the switching cost is charged
    once.  The band is feasible when both legs are finite: a leg is infinite
    when it crosses a root of its mode's acceleration or ends at a rest speed.
    """
    if not frozen.v_low < v_a < v_b < frozen.v_high:
        raise InvalidSegmentError(
            f"band ({v_a}, {v_b}) must satisfy "
            f"v_low < v_a < v_b < v_high = ({frozen.v_low}, {frozen.v_high})"
        )
    legs = leg_time_distance(frozen, True, v_a, v_b), leg_time_distance(frozen, False, v_b, v_a)
    if not all(map(math.isfinite, legs[0] + legs[1])):
        raise InvalidSegmentError(
            f"a leg of the band ({v_a}, {v_b}) crosses a sign change of its mode "
            "or ends at a rest speed it only approaches"
        )
    return _band(v_a, v_b, *_period(frozen, legs))


def _period(frozen: FrozenDynamics, legs) -> tuple[float, float, float]:
    """Time, distance and energy of the period of legs ``((t_up, d_up), (t_down, d_down))``."""
    (t_up, d_up), (t_down, d_down) = legs
    on_energy = engine_energy(t_up, d_up, True, frozen.power, frozen.params)
    return t_up + t_down, d_up + d_down, on_energy + frozen.params.switch_cost


def _band(v_a: float, v_b: float, period: float, distance: float, energy: float) -> OscillationBand:
    """The band between v_a and v_b of one period's time, distance and energy."""
    return OscillationBand(v_a, v_b, period, distance, energy, energy / period)


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
    at most ``0.01 tol`` and raises otherwise, as it does where even the band
    reaching almost the top equilibrium undershoots the target.  A candidate
    within rounding of the target or of a coasting rest speed is infeasible,
    and so is one whose period is infinite, a leg crossing a root of its mode.
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
    legs = []  # of the last upper limit evaluated, which the root returns

    def miss(v_b: float) -> tuple[float, float]:
        legs[:] = (
            leg_time_distance(frozen, True, v_a, v_b), leg_time_distance(frozen, False, v_b, v_a)
        )
        (t_up, d_up), (t_dn, d_dn) = legs
        t = t_up + t_dn
        if t == math.inf:
            raise InfeasibleCandidateError(
                f"a leg of the band ({v_a:.6g}, {v_b:.6g}) crosses a sign change of its mode"
            )
        avg = (d_up + d_dn) / t
        # the legs gain 1/|f| in time and v_b/|f| in distance at the moving end
        off = frozen.accel(v_b, False)
        rate = 1.0 / (off + frozen.params.traction) - 1.0 / off  # f_on = f_off + f1
        return avg - v_target, (v_b - avg) * rate / t

    v_b = increasing_root(miss, v_target, v_b_max, 2.0 * v_target - v_a)
    if v_b == v_target:
        # only rounding puts the band (v_a, target) on the target
        raise InfeasibleCandidateError(
            f"v_a={v_a!r} lies within rounding of the target {v_target!r}"
        )
    band = _band(v_a, v_b, *_period(frozen, legs))
    missed = band.avg_speed - v_target
    if v_b == v_b_max and missed < 0.0:
        raise InfeasibleCandidateError(
            f"no upper limit achieves average {v_target:.6g} from v_a={v_a:.6g}: "
            "the top equilibrium is only approached asymptotically"
        )
    if not abs(missed) <= 0.01 * tol:
        raise NumericError(
            f"upper limit {v_b:.9g} misses the target {v_target:.6g} by more than {0.01 * tol:.3g}"
        )
    return band


def optimal_band(
    frozen: FrozenDynamics,
    v_target: float,
    v_safe: float = math.inf,
    grid: GridSpec | None = None,
    delta: float = 0.5,
    start: OscillationBand | None = None,
) -> OscillationBand:
    """Cheapest band at the target average speed, clamped to the safety speed.

    The one place that picks a band, in this order: a target at or above the top
    equilibrium raises ``InfeasibleTargetError``; one at or above ``v_safe`` gets the
    safety band (v_safe - delta, v_safe), which misses it; one at or below the rest
    speed gets the coast band.  Otherwise it solves for the interior optimum
    (``_newton_band``), from the band ``start`` where F's curvature is strict and so the
    optimum unique; where that fails, or where F's curvature changes sign and a cheaper
    minimum can sit on the rest-speed bound, ``_rooted_band`` compares the bound too.  A
    band topping out above ``v_safe`` is replaced by the safety band.
    """
    grid = grid or GridSpec()
    if not v_safe > 0.0 or math.isnan(v_target):
        raise ValueError(f"need v_safe > 0 and a number v_target, got {v_safe!r} and {v_target!r}")
    if v_target >= frozen.v_high:
        raise InfeasibleTargetError(
            f"target {v_target:.6g} m/s is not below v_high {frozen.v_high:.6g} m/s"
        )
    if v_target >= v_safe:
        return safety_band(frozen, v_safe, delta)
    if v_target <= frozen.v_low:
        return coast_band(v_target)
    strict = tradeoff_curvature(frozen) != "neither"
    best = _newton_band(frozen, v_target, grid.tol, start if strict else None)
    if best is None or not strict:
        best = _rooted_band(frozen, v_target, grid.tol, best)
    return safety_band(frozen, v_safe, delta) if best.upper > v_safe else best


def _certificate(
    frozen: FrozenDynamics, v_target: float, v_a: float, v_b: float, t: float, distance: float,
    energy: float,
):
    """``(miss, residual), (j11, j12, j21, j22)``: the two equations of the band between v_a and
    v_b of one period's time, distance and energy, and their Jacobian, on the model's law.

    The miss of the target, and the residual of the certificate: the cost less the chord of
    the tradeoff psi = -h f_off / f1 through the band's ends, read at the target, which is zero
    at an interior optimum.
    """
    p, avg, cost = frozen.params, distance / t, energy / t
    drag, friction, f1, m = p.drag_coeff, p.solid_friction, p.traction, p.mass
    wheel, watts = frozen.power.kind == WHEEL_POWER, frozen.power.constant_watts
    dh = m * f1 if wheel else 0.0  # the slope of the draw h, m f1 v under wheel power at v > 0
    ends = []
    for v in (v_a, v_b):
        h, rel = (v * m * f1 if wheel else watts), v - frozen.wind_speed
        rel_abs = abs(rel) if p.signed_drag else rel  # the drag law rel rel_abs, of slope 2 rel_abs
        off = -drag * rel * rel_abs - friction - frozen.gravity_component  # ``accel(v, False)``
        on = off + f1  # f_on = f_off + f1, as ``accel`` adds it
        # psi and its slope; raising an end v adds g = 1/f_on - 1/f_off to t, v g to the
        # distance and h/f_on to the energy at v_b, and subtracts them at v_a
        ends.append((-h * off / f1, -(dh * off + h * (-2.0 * drag * rel_abs)) / f1,
                     1.0 / on - 1.0 / off, h / on))
    (psi_a, dpsi_a, g_a, e_a), (psi_b, dpsi_b, g_b, e_b) = ends
    w, rise = (v_target - v_a) / (v_b - v_a), (psi_b - psi_a) / (v_b - v_a) ** 2
    j11, j12 = (avg - v_a) * g_a / t, (v_b - avg) * g_b / t
    j21 = (cost * g_a - e_a) / t - dpsi_a * (1.0 - w) + rise * (v_b - v_target)
    j22 = (e_b - cost * g_b) / t - dpsi_b * w + rise * (v_target - v_a)
    return (avg - v_target, cost - psi_a - (psi_b - psi_a) * w), (j11, j12, j21, j22)


def _newton_band(
    frozen: FrozenDynamics, v_target: float, tol: float, start: OscillationBand | None = None
) -> OscillationBand | None:
    """The interior optimum, by Newton's method on the average and the chord certificate.

    From the edges of ``start``, accepted at once where they solve the target, and where that
    fails from the target -/+ half the smaller room to the rest speed or the top; one pair of
    legs per iteration, the band built only from the accepted iterate.  A solve fails when an
    iterate leaves (rest speed, top) or crosses the target after halving its step to 1e-6, a
    leg or the Jacobian is not finite (a band across a mode's root), 12 iterations fail, or
    it ends where the residual's slope along avg = target, ``j21 - j22 j11 / j12``, is not
    positive: at a maximum of the cost.  None when the solve from the target fails.
    """
    bound = frozen.v_low + (ENDPOINT_MATCH_TOL if frozen.v_low_is_root else 0.0)
    v_b_max = frozen.v_high * (1.0 - UPPER_BRACKET_MARGIN)
    half = 0.5 * min(v_target - frozen.v_low, v_b_max - v_target)
    v_a, v_b = (v_target - half, v_target + half) if start is None else (start.lower, start.upper)
    for _ in range(12):
        if not bound < v_a < v_target < v_b < v_b_max:
            break
        legs = leg_time_distance(frozen, True, v_a, v_b), leg_time_distance(frozen, False, v_b, v_a)
        period = _period(frozen, legs)
        (miss, residual), (j11, j12, j21, j22) = _certificate(frozen, v_target, v_a, v_b, *period)
        det = j11 * j22 - j12 * j21
        if not (det and math.isfinite(det)):  # an infinite leg, too, leaves it 0 or NaN
            break
        step_a, step_b = (residual * j12 - miss * j22) / det, (miss * j21 - residual * j11) / det
        if abs(step_a) <= SOLVE_RTOL * v_a and abs(step_b) <= SOLVE_RTOL * v_b:
            if abs(miss) <= 0.01 * tol and j21 - j22 * j11 / j12 > 0.0:
                return _band(v_a, v_b, *period)
            break
        scale = 1.0
        while not v_a + scale * step_a < v_target < v_b + scale * step_b and scale >= 1e-6:
            scale *= 0.5
        v_a, v_b = v_a + scale * step_a, v_b + scale * step_b
    return None if start is None else _newton_band(frozen, v_target, tol)


def _rooted_band(
    frozen: FrozenDynamics, v_target: float, tol: float, solved: OscillationBand | None
) -> OscillationBand:
    """The cheaper of the solved band, or else the certificate's rising root, and the bound.

    ``increasing_root`` on the residual of ``band_cost``'s band over the lower speeds (rest
    speed, target), with its slope along the curve.  A lower speed whose band is infeasible
    or unresolved counts as below the optimum, the target as above it, and a residual
    within 1e-9 of the cost, as ``band_cost`` resolves it, as 0.
    """
    bands = {} if solved is None else {solved.lower: solved}  # or why not, by lower speed

    def residual(v_a: float) -> tuple[float, float]:
        if v_a == v_target:  # a band of no width pays its switch-on at every instant
            return math.inf, 0.0
        try:
            band = bands[v_a] = band_cost(frozen, v_a, v_target, tol)
        except (InfeasibleCandidateError, NumericError) as exc:
            bands[v_a] = str(exc)  # not the error, whose traceback holds this frame
            return -math.inf, 0.0
        (_, r), (j11, j12, j21, j22) = _certificate(
            frozen, v_target, v_a, band.upper, band.period, band.distance, band.energy
        )
        return (0.0 if abs(r) <= 1e-9 * band.avg_cost else r), j21 - j22 * j11 / j12

    lo = frozen.v_low + (ENDPOINT_MATCH_TOL if frozen.v_low_is_root else 0.0) + 1e-9
    if solved is None:
        increasing_root(residual, lo, v_target, 0.5 * (lo + v_target))
    if lo not in bands:
        residual(lo)
    feasible = [band for band in bands.values() if isinstance(band, OscillationBand)]
    if not feasible:
        refused = list(bands.values())  # each a message, as no band is feasible
        raise InfeasibleCandidateError(
            f"no lower speed admits the target average speed ({len(refused)} refused); "
            f"first: {refused[0]}; last: {refused[-1]}"
        )
    return min(feasible, key=lambda band: band.avg_cost)


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

