"""Speed-reparametrized integrals for constant-mode maneuvers.

Between two speeds with the engine held in one mode, elapsed time and
covered distance are the integrals of 1/f and s/f over the speed interval.
On the model's own slice both come in closed form from the slice
(``FrozenDynamics.leg_time_distance``), and consumed energy follows from them
through the power model, whose draw is constant or proportional to speed.
The adaptive Gauss-Kronrod loop here returns both speed moments of any
continuous integrand on a closed interval; it serves the robustness series.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import ENDPOINT_MATCH_TOL, FrozenDynamics, engine_energy
from .errors import InvalidSegmentError, NumericError

REL_TOL = 1e-8
ABS_FLOOR = 1e-12
MAX_PANELS = 4096

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
        if self.frozen.mode_changes_sign(self.engine_on, lo, hi):
            raise InvalidSegmentError(
                "mode acceleration changes sign strictly inside the segment"
            )
        return self.frozen.leg_time_distance(self.engine_on, self.v0, self.v1)


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
