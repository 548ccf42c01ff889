"""Speed-reparametrized integrals for constant-mode maneuvers.

Between two speeds with the engine held in one mode, elapsed time and
covered distance are the integrals of 1/f and s/f over the speed interval.
On the model's own slice both come in closed form from the slice
(``FrozenDynamics.leg_time_distance``), and consumed energy follows from them
through the power model, whose draw is constant or proportional to speed.
The adaptive Gauss-Kronrod loop here serves the whole-band moment integrals,
the robustness series and slices with any other acceleration law.  Near an
equilibrium speed f vanishes, so those integrals become improper; they are
then evaluated by truncation with geometric tail extrapolation, and
classified as infinite when the truncation increments do not decay.
"""

from __future__ import annotations

import heapq
import math
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import ENDPOINT_MATCH_TOL, FrozenDynamics, engine_energy
from .errors import InvalidSegmentError, NumericError

REL_TOL = 1e-8
ABS_FLOOR = 1e-12
MAX_PANELS = 4096
# truncation offset near a vanishing endpoint, as a fraction of the band width
ENDPOINT_EPS_FRACTION = 1e-6
# increment decay threshold separating convergent tails from divergent ones
DIVERGENCE_RATIO = 0.9

# Kronrod-15 abscissae on [0, 1] side (symmetric) with embedded Gauss-7 rule.
_KRONROD_X = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_KRONROD_W = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_GAUSS_W = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

_NODES = np.concatenate([-_KRONROD_X[:-1], _KRONROD_X[::-1]])
_WEIGHTS_K = np.concatenate([_KRONROD_W[:-1], _KRONROD_W[::-1]])
_WEIGHTS_G = np.zeros_like(_WEIGHTS_K)
# Gauss-7 points sit at every other Kronrod node (odd indices of the half rule)
_WEIGHTS_G[1:7:2] = _GAUSS_W[:3]
_WEIGHTS_G[7] = _GAUSS_W[3]
_WEIGHTS_G[9:15:2] = _GAUSS_W[2::-1]


# one product with the node values gives both rules for both moments
_WEIGHTS = np.column_stack(
    [_WEIGHTS_K, _WEIGHTS_G, _WEIGHTS_K * _NODES, _WEIGHTS_G * _NODES]
)


def _panel(
    fn: Callable[[np.ndarray], np.ndarray], a: float, b: float
) -> tuple[float, float, float]:
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    k0, g0, k1, g1 = (fn(center + half * _NODES) @ _WEIGHTS).tolist()
    m0 = half * k0
    m1 = center * m0 + half * half * k1
    if not (math.isfinite(m0) and math.isfinite(m1)):
        raise NumericError(f"integrand is not finite on [{a}, {b}]")
    err0 = half * abs(k0 - g0)
    err1 = half * abs(center * (k0 - g0) + half * (k1 - g1))
    return m0, m1, max(err0, err1 / max(abs(a), abs(b), 1.0))


def speed_moments(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    rel_tol: float = REL_TOL,
    abs_floor: float = ABS_FLOOR,
    max_panels: int = MAX_PANELS,
) -> tuple[float, float]:
    """Integrals of fn(s) and s fn(s) over [lo, hi] by bisection of the worst panel.

    ``fn`` only needs to be continuous and vectorized.  Each panel is scored
    with the embedded Gauss-7 rule on both moments, the first moment's error
    scaled down by the panel's speed magnitude, and the worst panel is split
    until the summed error drops below ``max(rel_tol * |int fn|, abs_floor)``.
    """
    if lo == hi:
        return 0.0, 0.0
    sign = 1.0
    if lo > hi:
        lo, hi, sign = hi, lo, -1.0
    m0, m1, err = _panel(fn, lo, hi)
    heap = [(-err, lo, hi, m0, m1)]
    total_err = err
    panels = 1
    while total_err > max(rel_tol * abs(m0), abs_floor):
        if panels >= max_panels:
            raise NumericError(
                f"quadrature exhausted {max_panels} panels on [{lo}, {hi}]"
            )
        neg_err, a, b, old0, old1 = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        l0, l1, el = _panel(fn, a, mid)
        r0, r1, er = _panel(fn, mid, b)
        m0 += l0 + r0 - old0
        m1 += l1 + r1 - old1
        total_err += el + er + neg_err
        heapq.heappush(heap, (-el, a, mid, l0, l1))
        heapq.heappush(heap, (-er, mid, b, r0, r1))
        panels += 1
    return sign * m0, sign * m1


def adaptive_quadrature(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    rel_tol: float = REL_TOL,
    abs_floor: float = ABS_FLOOR,
    max_panels: int = MAX_PANELS,
) -> float:
    """Integral of a vectorized integrand: the first of its speed moments."""
    return speed_moments(fn, lo, hi, rel_tol, abs_floor, max_panels)[0]


def integrate_with_vanishing_endpoint(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    singular_at: float,
    eps: float,
    rel_tol: float = REL_TOL,
) -> tuple[float, float]:
    """Improper speed moments with the integrand blowing up (or 0/0) at one endpoint.

    The domain is truncated ``eps`` short of the singular endpoint and the
    last stretch is probed at the geometric offsets eps, eps/2, eps/4.  Each
    moment is classified on its own: when its successive increments fail to
    decay by ``DIVERGENCE_RATIO`` it is divergent and comes back as
    ``math.inf`` with the sign of the tail; otherwise the remaining tail is
    extrapolated as a geometric series.
    """
    if lo >= hi:
        raise ValueError("bounds must satisfy lo < hi")
    if singular_at not in (lo, hi):
        raise ValueError("singular endpoint must be one of the bounds")
    # narrow intervals still get the full truncation treatment at their scale
    eps = min(eps, 0.25 * (hi - lo))
    if singular_at == hi:
        p1, p2, p3 = hi - eps, hi - eps / 2.0, hi - eps / 4.0
        body = speed_moments(fn, lo, p1, rel_tol)
        d1 = speed_moments(fn, p1, p2, rel_tol)
        d2 = speed_moments(fn, p2, p3, rel_tol)
    else:
        p1, p2, p3 = lo + eps, lo + eps / 2.0, lo + eps / 4.0
        body = speed_moments(fn, p1, hi, rel_tol)
        d1 = speed_moments(fn, p2, p1, rel_tol)
        d2 = speed_moments(fn, p3, p2, rel_tol)
    m0, m1 = (_with_tail(*parts) for parts in zip(body, d1, d2))
    return m0, m1


def _with_tail(body: float, d1: float, d2: float) -> float:
    scale = max(abs(body), abs(d1), 1.0)
    if abs(d1) <= ABS_FLOOR * scale and abs(d2) <= ABS_FLOOR * scale:
        return body + d1 + d2
    if abs(d2) >= DIVERGENCE_RATIO * abs(d1):
        return math.copysign(math.inf, d2)
    ratio = d2 / d1
    tail = d2 * ratio / (1.0 - ratio)
    return body + d1 + d2 + tail


def moment_integrals(frozen: FrozenDynamics) -> tuple[float, float, float]:
    """Whole-band integrals of the switching-cost inequality and cost expansion.

    Returns ``(excess_energy, up_moment, down_moment)`` over (v_low, v_high):
    the integrals of (h - h*)/f_on and (s - v_high)/f_on, and minus the
    integral of (s - v_low)/f_off, the engine-off leg running from the top
    down to the rest speed.  ``h*`` is the engine-on draw at v_high.
    Divergent integrals come back infinite.
    """
    v_lo, v_hi = frozen.v_low, frozen.v_high
    eps = ENDPOINT_EPS_FRACTION * (v_hi - v_lo)
    up_moment = integrate_with_vanishing_endpoint(
        lambda s: (s - v_hi) / frozen.accel_grid(s, True),
        v_lo,
        v_hi,
        singular_at=v_hi,
        eps=eps,
    )[0]
    # h - h* is 0 under constant power and m f1 (s - v_high) under wheel power
    excess_energy = engine_energy(0.0, up_moment, True, frozen.power, frozen.params)
    if frozen.v_low_is_root:
        down_moment = -integrate_with_vanishing_endpoint(
            lambda s: (s - v_lo) / frozen.accel_grid(s, False),
            v_lo,
            v_hi,
            singular_at=v_lo,
            eps=eps,
        )[0]
    else:
        down_moment = -adaptive_quadrature(
            lambda s: (s - v_lo) / frozen.accel_grid(s, False), v_lo, v_hi
        )
    return excess_energy, up_moment, down_moment


# per-slice memo of the whole-band sign-uniformity scan, keyed by mode;
# a valid whole band makes every sub-segment check O(1)
_slice_sign_cache: weakref.WeakKeyDictionary[FrozenDynamics, dict[bool, bool]] = (
    weakref.WeakKeyDictionary()
)


def _mode_sign_uniform(frozen: FrozenDynamics, engine_on: bool) -> bool:
    per_slice = _slice_sign_cache.setdefault(frozen, {})
    if engine_on not in per_slice:
        margin = 1e-6 * (frozen.v_high - frozen.v_low)
        xs = np.linspace(frozen.v_low + margin, frozen.v_high - margin, 1024)
        if not frozen.v_low_is_root:
            xs = xs[xs > 1e-9]  # stay on the 0+ side of the friction jump
        vals = frozen.accel_grid(xs, engine_on)
        per_slice[engine_on] = bool(
            np.all(np.isfinite(vals))
            and not np.any(vals == 0.0)
            and not (np.any(vals > 0.0) and np.any(vals < 0.0))
        )
    return per_slice[engine_on]


def mode_changes_sign(
    frozen: FrozenDynamics, engine_on: bool, lo: float, hi: float
) -> bool:
    """Whether the mode acceleration vanishes or changes sign inside (lo, hi).

    Speeds within a small margin of the ends and of the mode's own rest
    speed are not probed, so a leg may start or end at that rest speed.
    """
    if _mode_sign_uniform(frozen, engine_on):
        return False
    eq = frozen.rest_speed(engine_on)
    margin = max(1e-9, 1e-4 * (hi - lo))
    xs = np.linspace(lo + margin, hi - margin, 65)
    if eq is not None:
        xs = xs[np.abs(xs - eq) > margin]
    vals = frozen.accel_grid(xs, engine_on)
    return bool(np.any(vals == 0.0) or (np.any(vals > 0.0) and np.any(vals < 0.0)))


def leg_time_distance(
    frozen: FrozenDynamics, engine_on: bool, v0: float, v1: float
) -> tuple[float, float]:
    """Time and distance of a constant-mode leg from speed ``v0`` to ``v1``.

    The band search's one entry to the slice's own leg; a module function, so
    that a caller can wrap it to count and time legs.
    """
    return frozen.leg_time_distance(engine_on, v0, v1)


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
        if mode_changes_sign(self.frozen, self.engine_on, lo, hi):
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


@dataclass(frozen=True)
class PeriodStats:
    """One oscillation period: up leg, optional dwell at the top, down leg."""

    duration: float
    distance: float
    energy: float

    @property
    def avg_speed(self) -> float:
        return self.distance / self.duration

    @property
    def avg_cost(self) -> float:
        return self.energy / self.duration


def period_stats(
    frozen: FrozenDynamics, v_a: float, v_b: float, dwell: float = 0.0
) -> PeriodStats:
    """Statistics of one period oscillating between v_a and v_b.

    The engine turns on once per period, so the switching cost is charged
    once.  A dwell is only meaningful at the engine-on equilibrium, where the
    speed can be held without changing mode.
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
    t_up, d_up = SpeedSegment(frozen, True, v_a, v_b).time_distance()
    t_down, d_down = SpeedSegment(frozen, False, v_b, v_a).time_distance()
    # the dwell holds v_b with the engine on, so it extends the up leg's draw
    on_energy = engine_energy(t_up + dwell, d_up + v_b * dwell, True, frozen.power, frozen.params)
    energy = on_energy + frozen.params.switch_cost
    return PeriodStats(
        duration=t_up + dwell + t_down,
        distance=d_up + v_b * dwell + d_down,
        energy=energy,
    )
