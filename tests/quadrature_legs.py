"""Numerical references for the closed-form slice and the upper-limit root.

``leg_time_distance`` integrates 1/f and s/f over the speed interval with the
package's adaptive loop, on each side of the signed-drag kink at the wind
speed and with improper-endpoint handling at the mode's rest speed.
``moment_integrals`` integrates the whole-band moments the same way, and
``scan_mode_changes_sign`` probes a mode's sign on grids.  They are the
methods of ``GeneralLawSlice``, the base of the test slices whose
acceleration is not the model's law, and the independent references for the
closed forms of the model's own slices.  ``bisection_upper_limit`` is the
60-step dichotomy on the period average that the band search used before its
bracketed root.
"""

from __future__ import annotations

import math

import numpy as np

from ecodrive.dynamics import ENDPOINT_MATCH_TOL, FrozenDynamics, engine_energy
from ecodrive.errors import InfeasibleCandidateError
from ecodrive.optimizer import UPPER_BRACKET_MARGIN, _saturated_limit
from ecodrive.quadrature import ABS_FLOOR, speed_moments

# truncation offset near a vanishing endpoint, as a fraction of the band width
ENDPOINT_EPS_FRACTION = 1e-6
# increment decay threshold separating convergent tails from divergent ones
DIVERGENCE_RATIO = 0.9


def integrate_with_vanishing_endpoint(fn, lo, hi, singular_at, eps):
    """Improper speed moments with the integrand blowing up (or 0/0) at one endpoint.

    The domain is truncated ``eps`` short of the singular endpoint and the
    last stretch is probed at the geometric offsets eps, eps/2, eps/4.  Each
    moment is classified on its own: when its successive increments fail to
    decay by ``DIVERGENCE_RATIO`` it is divergent and comes back as
    ``math.inf`` with the sign of the tail; otherwise the remaining tail is
    extrapolated as a geometric series.
    """
    # narrow intervals still get the full truncation treatment at their scale
    eps = min(eps, 0.25 * (hi - lo))
    if singular_at == hi:
        p1, p2, p3 = hi - eps, hi - eps / 2.0, hi - eps / 4.0
        body = speed_moments(fn, lo, p1)
        d1 = speed_moments(fn, p1, p2)
        d2 = speed_moments(fn, p2, p3)
    else:
        p1, p2, p3 = lo + eps, lo + eps / 2.0, lo + eps / 4.0
        body = speed_moments(fn, p1, hi)
        d1 = speed_moments(fn, p2, p1)
        d2 = speed_moments(fn, p3, p2)
    return tuple(_with_tail(*parts) for parts in zip(body, d1, d2))


def _with_tail(body: float, d1: float, d2: float) -> float:
    scale = max(abs(body), abs(d1), 1.0)
    if abs(d1) <= ABS_FLOOR * scale and abs(d2) <= ABS_FLOOR * scale:
        return body + d1 + d2
    if abs(d2) >= DIVERGENCE_RATIO * abs(d1):
        return math.copysign(math.inf, d2)
    ratio = d2 / d1
    tail = d2 * ratio / (1.0 - ratio)
    return body + d1 + d2 + tail


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


def moment_integrals(frozen: FrozenDynamics) -> tuple[float, float, float]:
    """``(excess_energy, up_moment, down_moment)`` by improper Gauss-Kronrod.

    Each whole-band integrand is integrated on each side of the signed-drag
    kink at the wind speed, with the improper treatment on the piece that
    ends at the mode's rest speed.  Divergent integrals come back infinite.
    """
    v_lo, v_hi = frozen.v_low, frozen.v_high
    eps = ENDPOINT_EPS_FRACTION * (v_hi - v_lo)
    w = frozen.wind_speed
    # a kink within eps of an end needs no piece of its own, which could be
    # too narrow for the nodes to resolve
    kinked = frozen.params.signed_drag and v_lo + eps < w < v_hi - eps
    cuts = [v_lo, w, v_hi] if kinked else [v_lo, v_hi]

    def band_integral(engine_on: bool, rest: float, singular: float | None) -> float:
        def fn(s: np.ndarray) -> np.ndarray:
            return (s - rest) / frozen.accel_grid(s, engine_on)

        total = 0.0
        # a node on a root of f gives inf, which the loop reports as NumericError
        with np.errstate(divide="ignore", invalid="ignore"):
            for a, b in zip(cuts, cuts[1:]):
                if singular in (a, b):
                    total += integrate_with_vanishing_endpoint(fn, a, b, singular, eps)[0]
                else:
                    total += speed_moments(fn, a, b)[0]
        return total

    up_moment = band_integral(True, v_hi, v_hi)
    excess_energy = engine_energy(0.0, up_moment, True, frozen.power, frozen.params)
    down_moment = -band_integral(False, v_lo, v_lo if frozen.v_low_is_root else None)
    return excess_energy, up_moment, down_moment


def scan_mode_changes_sign(
    frozen: FrozenDynamics, engine_on: bool, lo: float, hi: float
) -> bool:
    """Whether the mode acceleration vanishes or changes sign inside (lo, hi), by scans.

    A 1,024-point scan of the whole band answers first: a band of one sign
    makes every sub-interval uniform.  Otherwise 65 points of (lo, hi) are
    probed, leaving out a small margin at the ends and around the mode's
    own rest speed.
    """
    margin = 1e-6 * (frozen.v_high - frozen.v_low)
    xs = np.linspace(frozen.v_low + margin, frozen.v_high - margin, 1024)
    if not frozen.v_low_is_root:
        xs = xs[xs > 1e-9]  # stay on the 0+ side of the friction jump
    vals = frozen.accel_grid(xs, engine_on)
    if (
        np.all(np.isfinite(vals))
        and not np.any(vals == 0.0)
        and not (np.any(vals > 0.0) and np.any(vals < 0.0))
    ):
        return False
    eq = frozen.rest_speed(engine_on)
    margin = max(1e-9, 1e-4 * (hi - lo))
    xs = np.linspace(lo + margin, hi - margin, 65)
    if eq is not None:
        xs = xs[np.abs(xs - eq) > margin]
    vals = frozen.accel_grid(xs, engine_on)
    return bool(np.any(vals == 0.0) or (np.any(vals > 0.0) and np.any(vals < 0.0)))


class GeneralLawSlice(FrozenDynamics):
    """A slice whose subclasses override the acceleration law: every answer by numerics."""

    def leg_time_distance(self, engine_on, v0, v1):
        return leg_time_distance(self, engine_on, v0, v1)

    def mode_changes_sign(self, engine_on, lo, hi):
        return scan_mode_changes_sign(self, engine_on, lo, hi)

    def moment_integrals(self):
        return moment_integrals(self)


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
    if any(frozen.mode_changes_sign(on, v_a, v_b_max) for on in (True, False)):
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
