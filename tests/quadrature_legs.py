"""Numerical references for the closed-form slice, its checks and the upper-limit root.

``leg_time_distance`` integrates 1/f and s/f over the speed interval with the
package's adaptive loop, on each side of the signed-drag kink at the wind
speed and with improper-endpoint handling at the mode's rest speed.
``moment_integrals`` integrates the whole-band moments the same way, and
``scan_mode_changes_sign`` probes a mode's sign on grids.  They are the
methods of ``GeneralLawSlice``, the base of the test slices whose
acceleration is not the model's law, and the independent references for the
closed forms of the model's own slices; ``general_law`` gives any slice the
array form of its acceleration and consumption.  ``scan_check_assumptions``
is the grid-scan form of ``check_assumptions``.  ``bisection_upper_limit``
is the 60-step dichotomy on the period average that the band search used
before its bracketed root.
"""

from __future__ import annotations

import math

import numpy as np

from ecodrive.dynamics import (
    ENDPOINT_MATCH_TOL,
    WHEEL_POWER,
    AssumptionItem,
    AssumptionReport,
    FrozenDynamics,
    engine_energy,
)
from ecodrive.errors import InfeasibleCandidateError
from ecodrive.optimizer import UPPER_BRACKET_MARGIN, _saturated_band
from ecodrive.quadrature import ABS_FLOOR, adaptive_quadrature

# truncation offset near a vanishing endpoint, as a fraction of the band width
ENDPOINT_EPS_FRACTION = 1e-6
# increment decay threshold separating convergent tails from divergent ones
DIVERGENCE_RATIO = 0.9
# samples per grid scan of scan_check_assumptions
SCAN_POINTS = 200


def speed_moments(fn, lo, hi):
    """Integrals of fn(s) and s fn(s) over [lo, hi], two rows of one adaptive pass."""
    return tuple(adaptive_quadrature(lambda s: np.vstack([np.ones_like(s), s]) * fn(s), lo, hi))


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

    law = general_law(frozen)

    def inverse(s: np.ndarray) -> np.ndarray:
        return 1.0 / law.accel_grid(s, engine_on)

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
    law = general_law(frozen)

    def band_integral(engine_on: bool, rest: float, singular: float | None) -> float:
        def fn(s: np.ndarray) -> np.ndarray:
            return (s - rest) / law.accel_grid(s, engine_on)

        total = 0.0
        # a node on a root of f gives inf, which the loop reports as NumericError
        with np.errstate(divide="ignore", invalid="ignore"):
            for a, b in zip(cuts, cuts[1:]):
                if singular in (a, b):
                    total += integrate_with_vanishing_endpoint(fn, a, b, singular, eps)[0]
                else:
                    total += adaptive_quadrature(fn, a, b)
        return total

    up_moment = band_integral(True, v_hi, v_hi)
    excess_energy = engine_energy(0.0, up_moment, True, frozen.power, frozen.params)
    down_moment = -band_integral(False, v_lo, v_lo if frozen.v_low_is_root else None)
    return excess_energy, up_moment, down_moment


def scan_mode_changes_sign(
    frozen: FrozenDynamics, engine_on: bool, lo: float, hi: float, margin: float | None = None
) -> bool:
    """Whether the mode acceleration vanishes or changes sign inside (lo, hi), by scans.

    A 1,024-point scan of the whole band answers first: a band of one sign
    makes every sub-interval uniform.  Otherwise 65 points of (lo, hi) are
    probed, leaving out a small margin at the ends and around the mode's
    own rest speed, ``max(1e-9, 1e-4 (hi - lo))`` unless ``margin`` is given.
    """
    law = general_law(frozen)
    band_margin = 1e-6 * (frozen.v_high - frozen.v_low)
    xs = np.linspace(frozen.v_low + band_margin, frozen.v_high - band_margin, 1024)
    if not frozen.v_low_is_root:
        xs = xs[xs > 1e-9]  # stay on the 0+ side of the friction jump
    vals = law.accel_grid(xs, engine_on)
    if (
        np.all(np.isfinite(vals))
        and not np.any(vals == 0.0)
        and not (np.any(vals > 0.0) and np.any(vals < 0.0))
    ):
        return False
    eq = frozen.rest_speed(engine_on)
    margin = max(1e-9, 1e-4 * (hi - lo)) if margin is None else margin
    xs = np.linspace(lo + margin, hi - margin, 65)
    if eq is not None:
        xs = xs[np.abs(xs - eq) > margin]
    vals = law.accel_grid(xs, engine_on)
    return bool(np.any(vals == 0.0) or (np.any(vals > 0.0) and np.any(vals < 0.0)))


class GeneralLawSlice(FrozenDynamics):
    """A slice whose subclasses override the acceleration law: every answer by numerics.

    ``accel_grid`` and ``power_grid`` are the model's acceleration and
    consumption at an array of speeds.  Subclasses override them; the scalar
    ``accel``, which gives the band search its slope, follows from
    ``accel_grid``.
    """

    def accel_grid(self, x2, engine_on):
        p = self.params
        rel = x2 - self.wind_speed
        if p.signed_drag:
            drag = -p.drag_coeff * rel * np.abs(rel)
        else:
            drag = -p.drag_coeff * rel * rel
        f = drag - p.solid_friction * np.sign(x2) - self.gravity_component
        if engine_on:
            f = f + p.traction
        return f

    def power_grid(self, x2):
        if self.power.kind == WHEEL_POWER:
            return np.maximum(x2, 0.0) * (self.params.mass * self.params.traction)
        return np.full_like(x2, self.power.constant_watts)

    def accel(self, x2, engine_on):
        return float(self.accel_grid(np.asarray(x2, dtype=float), engine_on))

    def leg_time_distance(self, engine_on, v0, v1):
        return leg_time_distance(self, engine_on, v0, v1)

    def mode_changes_sign(self, engine_on, lo, hi, margin=None):
        return scan_mode_changes_sign(self, engine_on, lo, hi, margin)

    def moment_integrals(self):
        return moment_integrals(self)


def general_law(frozen: FrozenDynamics) -> GeneralLawSlice:
    """The slice itself when it is a ``GeneralLawSlice``, else its copy as one."""
    if isinstance(frozen, GeneralLawSlice):
        return frozen
    return GeneralLawSlice(
        frozen.params, frozen.power, frozen.slope, frozen.wind_speed,
        frozen.v_low, frozen.v_high, frozen.v_low_is_root,
    )


class SqrtTopSlice(GeneralLawSlice):
    """Engine-on acceleration with a square-root root: the top is reached in finite time."""

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
        band = _saturated_band(frozen, v_a, v_target)
        return band.upper, band.dwell
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


def scan_check_assumptions(frozen: FrozenDynamics) -> AssumptionReport:
    """``check_assumptions`` by grid scans of the slice's acceleration and consumption.

    Regularity (continuity, forward uniqueness) is checked by grid scans;
    the mode structure by sign scans around the cached equilibria; the
    switching-cost inequality from the slice's moment integrals; and the
    curvature of the acceleration/consumption tradeoff F by second
    differences on a uniform grid over the open band.  Items, ``passed``
    values and verdict are those of ``check_assumptions``; the witnesses
    also describe the grids.
    """
    law = general_law(frozen)
    items: list[AssumptionItem] = []
    v_lo, v_hi = frozen.v_low, frozen.v_high
    width = v_hi - v_lo
    inner_lo = v_lo + 1e-9  # stay on the 0+ side of the friction discontinuity

    # -- regularity: continuity of both modes on the band
    def max_increment(n: int) -> float:
        xs = np.linspace(inner_lo, v_hi, n)
        worst = 0.0
        for on in (True, False):
            vals = law.accel_grid(xs, on)
            if not np.all(np.isfinite(vals)):
                return math.inf
            worst = max(worst, float(np.max(np.abs(np.diff(vals)))))
        return worst

    coarse, fine = max_increment(2 * SCAN_POINTS), max_increment(4 * SCAN_POINTS)
    continuity_ok = math.isfinite(fine) and (fine <= 0.75 * coarse + 1e-12)
    items.append(
        AssumptionItem(
            "continuity",
            continuity_ok,
            {"max_step_coarse": coarse, "max_step_fine": fine},
        )
    )

    # -- regularity: forward uniqueness proxy, one monotone crossing per mode
    scan = np.linspace(1e-9, 1.5 * v_hi, 4 * SCAN_POINTS)
    on_signs = np.sign(law.accel_grid(scan, True))
    off_signs = np.sign(law.accel_grid(scan, False))
    on_changes = int(np.sum(np.abs(np.diff(np.where(on_signs == 0, 1, on_signs))) > 0))
    off_changes = int(np.sum(np.abs(np.diff(np.where(off_signs == 0, 1, off_signs))) > 0))
    items.append(
        AssumptionItem(
            "forward_uniqueness",
            on_changes == 1 and off_changes <= 1,
            {"engine_on_sign_changes": float(on_changes), "engine_off_sign_changes": float(off_changes)},
        )
    )

    # -- engine on: positive below the equilibrium, negative above
    below = np.linspace(inner_lo, v_hi - 1e-6 * width, SCAN_POINTS)
    above = np.linspace(v_hi + 1e-6 * width, 1.5 * v_hi, SCAN_POINTS)
    on_ok = (
        bool(np.all(law.accel_grid(below, True) > 0.0))
        and bool(np.all(law.accel_grid(above, True) < 0.0))
        and abs(frozen.accel(v_hi, True)) < 1e-6
    )
    items.append(
        AssumptionItem(
            "engine_on_equilibrium",
            on_ok,
            {"v_high": v_hi, "residual": frozen.accel(v_hi, True)},
        )
    )

    # -- engine on always accelerates harder than engine off
    band = np.linspace(inner_lo, v_hi, 2 * SCAN_POINTS)
    gap = law.accel_grid(band, True) - law.accel_grid(band, False)
    items.append(
        AssumptionItem(
            "mode_ordering",
            bool(np.all(gap > 0.0)),
            {"min_gap": float(np.min(gap))},
        )
    )

    # -- engine off: decays toward the rest speed
    off_above = np.linspace(v_lo + 1e-6 * width, v_hi, 2 * SCAN_POINTS)
    off_ok = bool(np.all(law.accel_grid(off_above, False) < 0.0))
    witness: dict[str, float | str] = {"v_low": v_lo}
    if frozen.v_low_is_root:
        # a rest speed of 0 balances on the 0+ side of the friction jump
        witness["kind"] = "root"
        witness["residual"] = residual = frozen.accel(v_lo or 1e-12, False)
        off_ok = off_ok and (abs(residual) < 1e-6 if v_lo > 0.0 else abs(residual) <= 1e-12)
        if v_lo > 1e-9:
            off_below = np.linspace(1e-9, v_lo - 1e-6 * width, SCAN_POINTS)
            off_ok = off_ok and bool(np.all(law.accel_grid(off_below, False) > 0.0))
    else:
        # sticking: the one-sided limits bracket zero speed
        witness["kind"] = "sticking"
        witness["f_zero_minus"] = frozen.accel(-1e-12, False)
        witness["f_zero_plus"] = frozen.accel(1e-12, False)
        off_ok = off_ok and frozen.accel(1e-12, False) < 0.0
    items.append(AssumptionItem("engine_off_equilibrium", off_ok, witness))

    # -- consumption: zero off, positive on
    h_on = law.power_grid(band)
    items.append(
        AssumptionItem(
            "idle_consumption_zero",
            bool(np.all(h_on > 0.0)),
            {"min_power_on": float(np.min(h_on)), "power_off": 0.0},
        )
    )

    # -- consumption nondecreasing in speed
    increments = np.diff(law.power_grid(np.linspace(0.0, 1.5 * v_hi, 2 * SCAN_POINTS)))
    items.append(
        AssumptionItem(
            "consumption_nondecreasing",
            bool(np.all(increments >= -1e-12)),
            {"min_increment": float(np.min(increments))},
        )
    )

    # -- switching cost small enough that oscillating beats full speed
    h_star = frozen.engine_power_at(v_hi)
    excess_energy, up_moment, down_moment = frozen.moment_integrals()
    lhs = frozen.params.switch_cost + excess_energy
    rhs = (h_star / (v_hi - v_lo)) * (down_moment + up_moment)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        items.append(
            AssumptionItem(
                "switching_cost_small",
                None,
                {"diagnostic": "divergent integral", "lhs": lhs, "rhs": rhs},
            )
        )
    else:
        items.append(
            AssumptionItem("switching_cost_small", lhs < rhs, {"lhs": lhs, "rhs": rhs})
        )

    # -- strict curvature of F = h(x,1) f(x,0) / (f(x,1) - f(x,0))
    margin = 1e-4 * width
    xs = np.linspace(v_lo + margin, v_hi - margin, SCAN_POINTS)
    f_on_vals = law.accel_grid(xs, True)
    f_off_vals = law.accel_grid(xs, False)
    tradeoff = law.power_grid(xs) * f_off_vals / (f_on_vals - f_off_vals)
    second = np.diff(tradeoff, 2)
    threshold = 1e-12 * max(1.0, float(np.max(np.abs(tradeoff))))
    if np.all(second > threshold):
        verdict = "strictly_convex"
    elif np.all(second < -threshold):
        verdict = "strictly_concave"
    else:
        verdict = "neither"
    items.append(
        AssumptionItem(
            "tradeoff_curvature",
            verdict != "neither",
            {"verdict": verdict, "grid_points": float(SCAN_POINTS)},
        )
    )

    return AssumptionReport(
        items=tuple(items),
        convexity_verdict=verdict,
        inequality_lhs=lhs,
        inequality_rhs=rhs,
    )
