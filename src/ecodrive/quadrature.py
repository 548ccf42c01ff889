"""Speed-reparametrized integrals for constant-mode maneuvers.

Between two speeds with the engine held in one mode, elapsed time, covered
distance and consumed energy are integrals of 1/f, s/f and h/f over the speed
interval.  Near an equilibrium speed f vanishes, so the integrals become
improper; they are then evaluated by truncation with geometric tail
extrapolation, and classified as infinite when the truncation increments do
not decay.
"""

from __future__ import annotations

import heapq
import math
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import FrozenDynamics
from .errors import InvalidSegmentError, NumericError

REL_TOL = 1e-8
ABS_FLOOR = 1e-12
MAX_PANELS = 4096
ENDPOINT_MATCH_TOL = 1e-9
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


def _panel(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> tuple[float, float]:
    half = 0.5 * (hi - lo)
    vals = fn(0.5 * (hi + lo) + half * _NODES)
    coarse = half * float(np.dot(_WEIGHTS_G, vals))
    fine = half * float(np.dot(_WEIGHTS_K, vals))
    return fine, abs(fine - coarse)


def adaptive_quadrature(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    rel_tol: float = REL_TOL,
    abs_floor: float = ABS_FLOOR,
    max_panels: int = MAX_PANELS,
) -> float:
    """Integrate a vectorized integrand by bisection of the worst panel.

    ``fn`` only needs to be continuous; each panel is scored with the
    embedded Gauss-7 rule and the worst panel is split until the summed
    error estimate drops below ``max(rel_tol * |integral|, abs_floor)``.
    """
    if lo == hi:
        return 0.0
    sign = 1.0
    if lo > hi:
        lo, hi, sign = hi, lo, -1.0
    total, err = _panel(fn, lo, hi)
    if not math.isfinite(total):
        raise NumericError(f"integrand is not finite on [{lo}, {hi}]")
    heap = [(-err, lo, hi, total)]
    total_err = err
    panels = 1
    while total_err > max(rel_tol * abs(total), abs_floor) and heap:
        if panels >= max_panels:
            raise NumericError(
                f"quadrature exhausted {max_panels} panels on [{lo}, {hi}]"
            )
        neg_err, a, b, old = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        left, el = _panel(fn, a, mid)
        right, er = _panel(fn, mid, b)
        if not (math.isfinite(left) and math.isfinite(right)):
            raise NumericError(f"integrand is not finite on [{a}, {b}]")
        total += left + right - old
        total_err += el + er + neg_err
        heapq.heappush(heap, (-el, a, mid, left))
        heapq.heappush(heap, (-er, mid, b, right))
        panels += 1
    return sign * total


def integrate_with_vanishing_endpoint(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    singular_at: float,
    eps: float,
    rel_tol: float = REL_TOL,
) -> float:
    """Improper integral with the integrand blowing up (or 0/0) at one endpoint.

    The domain is truncated ``eps`` short of the singular endpoint and the
    last stretch is probed at the geometric offsets eps, eps/2, eps/4.  When
    the successive increments fail to decay by ``DIVERGENCE_RATIO`` the
    integral is classified divergent and ``math.inf`` is returned with the
    sign of the tail; otherwise the remaining tail is extrapolated as a
    geometric series.
    """
    if lo >= hi:
        raise ValueError("bounds must satisfy lo < hi")
    if singular_at not in (lo, hi):
        raise ValueError("singular endpoint must be one of the bounds")
    # narrow intervals still get the full truncation treatment at their scale
    eps = min(eps, 0.25 * (hi - lo))
    if singular_at == hi:
        p1, p2, p3 = hi - eps, hi - eps / 2.0, hi - eps / 4.0
        body = adaptive_quadrature(fn, lo, p1, rel_tol)
        d1 = adaptive_quadrature(fn, p1, p2, rel_tol)
        d2 = adaptive_quadrature(fn, p2, p3, rel_tol)
    else:
        p1, p2, p3 = lo + eps, lo + eps / 2.0, lo + eps / 4.0
        body = adaptive_quadrature(fn, p1, hi, rel_tol)
        d1 = adaptive_quadrature(fn, p2, p1, rel_tol)
        d2 = adaptive_quadrature(fn, p3, p2, rel_tol)
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
    h_star = frozen.engine_power_at(v_hi)
    eps = ENDPOINT_EPS_FRACTION * (v_hi - v_lo)
    excess_energy = integrate_with_vanishing_endpoint(
        lambda s: (frozen.power_grid(s) - h_star) / frozen.accel_grid(s, True),
        v_lo,
        v_hi,
        singular_at=v_hi,
        eps=eps,
    )
    up_moment = integrate_with_vanishing_endpoint(
        lambda s: (s - v_hi) / frozen.accel_grid(s, True),
        v_lo,
        v_hi,
        singular_at=v_hi,
        eps=eps,
    )
    if frozen.v_low_is_root:
        down_moment = -integrate_with_vanishing_endpoint(
            lambda s: (s - v_lo) / frozen.accel_grid(s, False),
            v_lo,
            v_hi,
            singular_at=v_lo,
            eps=eps,
        )
    else:
        down_moment = -adaptive_quadrature(
            lambda s: (s - v_lo) / frozen.accel_grid(s, False), v_lo, v_hi
        )
    return excess_energy, up_moment, down_moment


# per-slice memo of the whole-band sign-uniformity scan, keyed by mode;
# a valid whole band makes every sub-segment check O(1)
_slice_sign_cache: "weakref.WeakKeyDictionary[FrozenDynamics, dict[bool, bool]]" = None  # type: ignore[assignment]


def _mode_sign_uniform(frozen: FrozenDynamics, engine_on: bool) -> bool:
    global _slice_sign_cache
    if _slice_sign_cache is None:
        _slice_sign_cache = weakref.WeakKeyDictionary()
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

    @property
    def span(self) -> float:
        return abs(self.v1 - self.v0)

    def _equilibrium(self) -> float | None:
        if self.engine_on:
            return self.frozen.v_high
        return self.frozen.v_low if self.frozen.v_low_is_root else None

    def _check_interior(self) -> None:
        if _mode_sign_uniform(self.frozen, self.engine_on):
            return
        eq = self._equilibrium()
        margin = max(1e-9, 1e-4 * self.span)
        lo, hi = sorted((self.v0, self.v1))
        xs = np.linspace(lo + margin, hi - margin, 65)
        if eq is not None:
            xs = xs[np.abs(xs - eq) > margin]
        if xs.size == 0:
            return
        vals = self.frozen.accel_grid(xs, self.engine_on)
        if np.any(vals == 0.0) or (np.any(vals > 0.0) and np.any(vals < 0.0)):
            raise InvalidSegmentError(
                "mode acceleration changes sign strictly inside the segment"
            )

    def _integral(self, weight: Callable[[np.ndarray], np.ndarray]) -> float:
        if self.v0 == self.v1:
            return 0.0
        self._check_interior()
        frozen, on = self.frozen, self.engine_on

        def integrand(s: np.ndarray) -> np.ndarray:
            return weight(s) / frozen.accel_grid(s, on)

        eq = self._equilibrium()
        singular = None
        if eq is not None:
            if abs(self.v1 - eq) <= ENDPOINT_MATCH_TOL:
                singular = self.v1
            elif abs(self.v0 - eq) <= ENDPOINT_MATCH_TOL:
                singular = self.v0
        if singular is None:
            return adaptive_quadrature(integrand, self.v0, self.v1)
        eps = ENDPOINT_EPS_FRACTION * (frozen.v_high - frozen.v_low)
        lo, hi = sorted((self.v0, self.v1))
        sign = 1.0 if self.v1 >= self.v0 else -1.0
        value = integrate_with_vanishing_endpoint(integrand, lo, hi, singular, eps)
        return sign * value


def elapsed_time(segment: SpeedSegment) -> float:
    """Duration of the maneuver; ``math.inf`` for an asymptotic approach."""
    return segment._integral(lambda s: np.ones_like(s))


def covered_length(segment: SpeedSegment) -> float:
    """Distance covered during the maneuver."""
    return segment._integral(lambda s: s)


def energy_used(segment: SpeedSegment) -> float:
    """Energy drawn during the maneuver; identically zero with the engine off."""
    if not segment.engine_on:
        return 0.0
    frozen = segment.frozen
    return segment._integral(lambda s: frozen.power_grid(s))


def leg_time_distance(
    frozen: FrozenDynamics,
    engine_on: bool,
    lo: float,
    hi: float,
    rel_tol: float = REL_TOL,
    max_panels: int = MAX_PANELS,
) -> tuple[float, float]:
    """Time and distance of one leg in a single adaptive pass.

    Equivalent to the separate segment integrals but evaluates the mode
    acceleration once per panel; used by the band dichotomy, whose probes
    stay strictly inside the reachable band.
    """
    if lo == hi:
        return 0.0, 0.0
    sign = 1.0
    if lo > hi:
        lo, hi, sign = hi, lo, -1.0

    def panel(a: float, b: float) -> tuple[float, float, float]:
        half = 0.5 * (b - a)
        xs = 0.5 * (a + b) + half * _NODES
        inv = 1.0 / frozen.accel_grid(xs, engine_on)
        t_fine = half * float(np.dot(_WEIGHTS_K, inv))
        t_coarse = half * float(np.dot(_WEIGHTS_G, inv))
        d_fine = half * float(np.dot(_WEIGHTS_K, xs * inv))
        d_coarse = half * float(np.dot(_WEIGHTS_G, xs * inv))
        err = max(abs(t_fine - t_coarse), abs(d_fine - d_coarse) / max(abs(xs[0]), 1.0))
        return t_fine, d_fine, err

    t_total, d_total, err = panel(lo, hi)
    if not (math.isfinite(t_total) and math.isfinite(d_total)):
        raise NumericError(f"leg integrand not finite on [{lo}, {hi}]")
    heap = [(-err, lo, hi, t_total, d_total)]
    total_err = err
    panels = 1
    while total_err > max(rel_tol * abs(t_total), ABS_FLOOR) and heap:
        if panels >= max_panels:
            raise NumericError(f"leg quadrature exhausted {max_panels} panels")
        neg_err, a, b, t_old, d_old = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        tl, dl, el = panel(a, mid)
        tr, dr, er = panel(mid, b)
        t_total += tl + tr - t_old
        d_total += dl + dr - d_old
        total_err += el + er + neg_err
        heapq.heappush(heap, (-el, a, mid, tl, dl))
        heapq.heappush(heap, (-er, mid, b, tr, dr))
        panels += 1
    return sign * t_total, sign * d_total


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
    up = SpeedSegment(frozen, True, v_a, v_b)
    down = SpeedSegment(frozen, False, v_b, v_a)
    duration = elapsed_time(up) + dwell + elapsed_time(down)
    distance = covered_length(up) + v_b * dwell + covered_length(down)
    energy = (
        energy_used(up)
        + frozen.engine_power_at(v_b) * dwell
        + frozen.params.switch_cost
    )
    return PeriodStats(duration=duration, distance=distance, energy=energy)
