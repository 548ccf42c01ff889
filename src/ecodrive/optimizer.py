"""Energy-optimal oscillation bands for a frozen slice of the dynamics.

At a prescribed average speed the cheapest long-run strategy oscillates
between a lower and an upper speed with one engine switch-on per period.
The band search follows a two-stage grid: a coarse list of lower-speed
candidates (cheap enough to run in-race), then an optional fine refinement
around the best coarse candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .dynamics import FrozenDynamics
from .errors import (
    ExpansionInapplicableError,
    InfeasibleCandidateError,
    InfeasibleTargetError,
    NumericError,
)
from .quadrature import SpeedSegment, leg_time_distance, period_stats

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
    """Candidate lower speeds for the band search, as offsets below the target.

    The default offsets place four candidates 0.5 m/s apart below the target
    average speed.  A band misses the target average speed by at most
    ``0.01 tol``; ``fine_step`` enables the refinement stage on a +/-
    fine_halfwidth window around the best coarse candidate.
    """

    lower_offsets: tuple[float, ...] = (2.0, 1.5, 1.0, 0.5)
    tol: float = 1e-4
    fine_step: float | None = None
    fine_halfwidth: float = 0.5

    def __post_init__(self) -> None:
        if not self.lower_offsets:
            raise ValueError("lower_offsets must be nonempty")
        if any(o <= 0.0 for o in self.lower_offsets):
            raise ValueError("lower_offsets must be strictly positive")
        if self.tol <= 0.0:
            raise ValueError("tol must be strictly positive")
        if self.fine_step is not None and self.fine_step <= 0.0:
            raise ValueError("fine_step must be strictly positive")

    def candidates(self, v_target: float, v_low: float) -> list[float]:
        cands = sorted(v_target - o for o in self.lower_offsets)
        cands = [c for c in cands if v_low + 1e-9 < c < v_target - 1e-9]
        if not cands:
            # narrow window between rest speed and target: fall back to midpoint
            cands = [0.5 * (v_low + v_target)]
        return cands


def upper_limit(
    frozen: FrozenDynamics, v_a: float, v_target: float, tol: float = 1e-4
) -> tuple[float, float]:
    """Upper band limit realizing the target average speed above ``v_a``.

    Found as the bracketed root of the (monotone) period average minus the
    target; a root that misses the target by more than ``0.01 tol`` raises.
    When even a band reaching almost the top equilibrium undershoots the
    target - possible only when the equilibrium is attained in finite time -
    the band saturates at the equilibrium and the balance is made up by
    dwelling there.  A candidate whose legs would cross a root of either
    mode's acceleration, or that lies within rounding of the target, is
    infeasible.
    """
    if not frozen.v_low < v_a < v_target < frozen.v_high:
        raise InfeasibleCandidateError(
            f"need v_low < v_a < target < v_high, got "
            f"({frozen.v_low:.6g}, {v_a:.6g}, {v_target:.6g}, {frozen.v_high:.6g})"
        )
    v_b_max = frozen.v_high * (1.0 - UPPER_BRACKET_MARGIN)
    if v_b_max <= v_target:
        raise InfeasibleCandidateError(
            f"target {v_target:.6g} leaves no room below v_high {frozen.v_high:.6g}"
        )
    if any(frozen.mode_changes_sign(on, v_a, v_b_max) for on in (True, False)):
        raise InfeasibleCandidateError(
            f"a mode acceleration changes sign between v_a={v_a:.6g} "
            f"and the top {v_b_max:.6g}"
        )

    def miss(v_b: float) -> float:
        t_up, d_up = leg_time_distance(frozen, True, v_a, v_b)
        t_dn, d_dn = leg_time_distance(frozen, False, v_b, v_a)
        return (d_up + d_dn) / (t_up + t_dn) - v_target

    if miss(v_b_max) < 0.0:
        return _saturated_limit(frozen, v_a, v_target)
    if miss(v_target) >= 0.0:
        # only rounding puts the band (v_a, target) on the target
        raise InfeasibleCandidateError(
            f"v_a={v_a!r} lies within rounding of the target {v_target!r}"
        )
    v_b = brentq(miss, v_target, v_b_max)
    if not abs(miss(v_b)) <= 0.01 * tol:
        raise NumericError(
            f"upper limit {v_b:.9g} misses the target {v_target:.6g} by more than {0.01 * tol:.3g}"
        )
    return v_b, 0.0


def _saturated_limit(
    frozen: FrozenDynamics, v_a: float, v_target: float
) -> tuple[float, float]:
    t_up, d_up = SpeedSegment(frozen, True, v_a, frozen.v_high).time_distance()
    t_down, d_down = SpeedSegment(frozen, False, frozen.v_high, v_a).time_distance()
    t_osc = t_up + t_down
    d_osc = d_up + d_down
    if not (math.isfinite(t_osc) and math.isfinite(d_osc)):
        raise InfeasibleCandidateError(
            f"no upper limit achieves average {v_target:.6g} from v_a={v_a:.6g}: "
            "the top equilibrium is only approached asymptotically"
        )
    dwell = (v_target * t_osc - d_osc) / (frozen.v_high - v_target)
    return frozen.v_high, max(dwell, 0.0)


def band_from_limits(
    frozen: FrozenDynamics, v_a: float, v_b: float, dwell: float = 0.0
) -> OscillationBand:
    """Band record with period statistics for explicitly chosen limits."""
    stats = period_stats(frozen, v_a, v_b, dwell)
    return OscillationBand(
        lower=v_a,
        upper=v_b,
        dwell=dwell,
        period=stats.duration,
        distance=stats.distance,
        energy=stats.energy,
        avg_cost=stats.avg_cost,
    )


def band_cost(
    frozen: FrozenDynamics, v_a: float, v_target: float, tol: float = 1e-4
) -> OscillationBand:
    """Band through ``v_a`` meeting the target average, with its average cost."""
    v_b, dwell = upper_limit(frozen, v_a, v_target, tol)
    return band_from_limits(frozen, v_a, v_b, dwell)


def optimal_band(
    frozen: FrozenDynamics,
    v_target: float,
    v_safe: float = math.inf,
    grid: GridSpec | None = None,
    delta: float = 0.5,
) -> OscillationBand:
    """Cheapest band at the target average speed, clamped to the safety speed.

    Evaluates every grid candidate, optionally refines around the best one,
    and breaks cost ties toward the larger lower speed (fewer switches per
    unit time).  If the winning band tops out above ``v_safe`` it is replaced
    by the safety band (v_safe - delta, v_safe), which no longer meets the
    average-speed constraint.
    """
    grid = grid or GridSpec()
    if v_safe <= 0.0:
        raise ValueError("v_safe must be strictly positive")
    if v_target >= frozen.v_high:
        raise InfeasibleTargetError(
            f"target {v_target:.6g} m/s is not below v_high {frozen.v_high:.6g} m/s"
        )
    if v_target <= frozen.v_low:
        return coast_band(v_target)

    best: OscillationBand | None = None
    failures: list[str] = []

    def consider(v_a: float) -> None:
        nonlocal best
        try:
            band = band_cost(frozen, v_a, v_target, grid.tol)
        except InfeasibleCandidateError as exc:
            failures.append(str(exc))
            return
        if (
            best is None
            or band.avg_cost < best.avg_cost
            or (band.avg_cost == best.avg_cost and band.lower > best.lower)
        ):
            best = band

    for cand in grid.candidates(v_target, frozen.v_low):
        consider(cand)
    if best is None:
        raise InfeasibleCandidateError(
            "no grid candidate admits the target average speed: " + "; ".join(failures)
        )
    if grid.fine_step is not None:
        center = best.lower
        lo = max(center - grid.fine_halfwidth, frozen.v_low + 1e-9)
        hi = min(center + grid.fine_halfwidth, v_target - 1e-9)
        cands = np.arange(lo, hi + 0.5 * grid.fine_step, grid.fine_step)
        for cand in cands[cands <= hi]:
            consider(float(cand))

    if best.upper > v_safe:
        return safety_band(frozen, v_safe, delta)
    return best


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
