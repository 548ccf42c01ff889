"""Switched longitudinal vehicle dynamics with an on/off engine.

The model is a point mass subject to quadratic aerodynamic drag relative to
the wind, constant solid friction opposing motion, gravity along the slope,
and a constant traction force per unit mass while the engine is on.  The
friction term makes the dynamics non-Lipschitz at zero speed, which is what
lets the vehicle actually come to rest: a sticking convention holds the state
at zero whenever the one-sided forward acceleration is nonpositive.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from .errors import (
    DomainError,
    InfeasibleSliceError,
    NumericError,
    ScenarioError,
)

SPEED_ROOT_TOL = 1e-9
SPEED_BRACKET_MAX = 100.0
# a leg ending this close to its mode's rest speed only approaches it
ENDPOINT_MATCH_TOL = 1e-9

WHEEL_POWER = "wheel_power"
CONSTANT_ELECTRICAL = "constant_electrical"


def require_positive(obj: object, *names: str) -> None:
    """Raise ``ValueError`` unless each named attribute of ``obj`` is finite and > 0."""
    for name in names:
        if not 0.0 < getattr(obj, name) < math.inf:
            raise ValueError(f"{name} must be finite and strictly positive")


@dataclass(frozen=True)
class VehicleParams:
    """Physical constants of the longitudinal model plus the switching cost.

    ``signed_drag`` selects drag proportional to -(x-v)|x-v| instead of the
    default -(x-v)^2; the default form never pushes the vehicle forward even
    under an overtaking tailwind, the signed form does.
    """

    drag_coeff: float = 6e-4        # 1/m
    solid_friction: float = 3e-2    # m/s^2
    gravity: float = 9.81           # m/s^2
    traction: float = 0.20          # m/s^2, engine force per unit mass
    mass: float = 93.0              # kg
    switch_cost: float = 10.0       # J charged at each off->on transition
    signed_drag: bool = False

    def __post_init__(self) -> None:
        require_positive(
            self, "drag_coeff", "solid_friction", "gravity", "traction", "mass", "switch_cost"
        )
        if self.traction <= self.solid_friction:
            raise ValueError(
                "traction must exceed solid friction or the vehicle cannot "
                "move on a flat windless track"
            )


DEFAULT_PARAMS = VehicleParams()


@dataclass(frozen=True)
class PowerModel:
    """Instantaneous electrical power draw while the engine is on.

    ``wheel_power`` charges the mechanical power delivered at the wheels,
    ``constant_electrical`` a speed-independent battery draw.  Both are zero
    with the engine off and nondecreasing in speed.
    """

    kind: str = CONSTANT_ELECTRICAL
    constant_watts: float = 161.0

    def __post_init__(self) -> None:
        if self.kind not in (WHEEL_POWER, CONSTANT_ELECTRICAL):
            raise ValueError(f"unknown power model kind: {self.kind!r}")
        require_positive(self, "constant_watts")


def engine_power(
    speed: float, engine_on: bool, model: PowerModel, params: VehicleParams
) -> float:
    """Electrical power draw in watts at the given speed and engine state."""
    if not engine_on:
        return 0.0
    if model.kind == WHEEL_POWER:
        return max(speed, 0.0) * params.mass * params.traction
    return model.constant_watts


def engine_energy(
    duration: float, distance: float, engine_on: bool, model: PowerModel, params: VehicleParams
) -> float:
    """Energy of a leg at speeds >= 0: P t, or m f1 d for the speed-proportional draw."""
    if not engine_on:
        return 0.0
    if model.kind == WHEEL_POWER:
        return params.mass * params.traction * distance
    return model.constant_watts * duration


@dataclass(frozen=True)
class TrackProfile:
    """Piecewise track description over arclength.

    Slope is piecewise-constant between breakpoints (the row value holds up to
    the next row); the safety speed is interpolated linearly.
    """

    arclength: tuple[float, ...]
    slope: tuple[float, ...]
    safe_speed: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.arclength)
        if n < 2:
            raise ScenarioError("track needs at least two breakpoints (no breakpoints)")
        if len(self.slope) != n or len(self.safe_speed) != n:
            raise ScenarioError("track columns must have equal length")
        if not all(map(math.isfinite, (*self.arclength, *self.slope, *self.safe_speed))):
            raise ScenarioError("track arclengths, slopes and safety speeds must be finite")
        if self.arclength[0] != 0.0:
            raise ScenarioError("track must start at arclength 0")
        if any(b <= a for a, b in zip(self.arclength, self.arclength[1:])):
            raise ScenarioError("track arclengths must be strictly increasing")
        if any(v <= 0.0 for v in self.safe_speed):
            raise ScenarioError("safety speed must be strictly positive everywhere")

    @property
    def length(self) -> float:
        return self.arclength[-1]

    def _index(self, s: float) -> int:
        if not 0.0 <= s <= self.length:  # NaN included
            raise DomainError(f"position {s} outside track [0, {self.length}]")
        return bisect.bisect_right(self.arclength, s) - 1

    def slope_at(self, s: float) -> float:
        return self.slope[self._index(s)]

    def safe_speed_at(self, s: float) -> float:
        i = self._index(s)
        if i >= len(self.arclength) - 1:
            return self.safe_speed[-1]
        s0, s1 = self.arclength[i], self.arclength[i + 1]
        w = (s - s0) / (s1 - s0)
        return (1.0 - w) * self.safe_speed[i] + w * self.safe_speed[i + 1]

    def next_boundary(self, s: float) -> float:
        """First breakpoint strictly beyond ``s`` (inf past the end)."""
        i = bisect.bisect_right(self.arclength, s)
        return self.arclength[i] if i < len(self.arclength) else math.inf

    @classmethod
    def flat(cls, length: float, safe_speed: float = 12.0) -> TrackProfile:
        return cls((0.0, length), (0.0, 0.0), (safe_speed, safe_speed))

    @classmethod
    def from_csv(cls, path: str | Path) -> TrackProfile:
        rows = read_csv_rows(path, ("s_m", "slope_rad", "vsafe_mps"))
        return cls(*(tuple(r[i] for r in rows) for i in range(3)))

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("s_m", "slope_rad", "vsafe_mps"))
            for s, theta, vs in zip(self.arclength, self.slope, self.safe_speed):
                writer.writerow((repr(float(s)), repr(float(theta)), repr(float(vs))))


@dataclass(frozen=True)
class WindField:
    """Along-track wind speed on a rectangular (arclength, time) grid.

    Evaluation is piecewise-constant in both axes; outside the grid the
    nearest sample holds.
    """

    arclength: tuple[float, ...]
    time: tuple[float, ...]
    speed: tuple[tuple[float, ...], ...]  # speed[i][j] at (arclength[i], time[j])

    def __post_init__(self) -> None:
        if not self.arclength or not self.time:
            raise ScenarioError("wind grid must be nonempty")
        if any(b <= a for a, b in zip(self.arclength, self.arclength[1:])):
            raise ScenarioError("wind arclengths must be strictly increasing")
        if any(b <= a for a, b in zip(self.time, self.time[1:])):
            raise ScenarioError("wind times must be strictly increasing")
        if len(self.speed) != len(self.arclength) or any(
            len(row) != len(self.time) for row in self.speed
        ):
            raise ScenarioError("wind grid must be rectangular")
        values = (*self.arclength, *self.time, *(v for row in self.speed for v in row))
        if not all(map(math.isfinite, values)):
            raise ScenarioError("wind arclengths, times and speeds must be finite")

    def at(self, s: float, t: float) -> float:
        i = min(max(bisect.bisect_right(self.arclength, s) - 1, 0), len(self.arclength) - 1)
        j = min(max(bisect.bisect_right(self.time, t) - 1, 0), len(self.time) - 1)
        return self.speed[i][j]

    def next_boundary_s(self, s: float) -> float:
        i = bisect.bisect_right(self.arclength, s)
        return self.arclength[i] if i < len(self.arclength) else math.inf

    def next_boundary_t(self, t: float) -> float:
        j = bisect.bisect_right(self.time, t)
        return self.time[j] if j < len(self.time) else math.inf

    @classmethod
    def zero(cls) -> WindField:
        return cls((0.0,), (0.0,), ((0.0,),))

    @classmethod
    def from_csv(cls, path: str | Path) -> WindField:
        rows = read_csv_rows(path, ("s_m", "t_s", "v_mps"))
        arcs = sorted({r[0] for r in rows})
        times = sorted({r[1] for r in rows})
        if len(rows) != len(arcs) * len(times):
            raise ScenarioError(
                f"{path}: wind grid is not rectangular "
                f"({len(rows)} rows for {len(arcs)}x{len(times)} grid)"
            )
        expected = [(s, t) for s in arcs for t in times]
        if [(r[0], r[1]) for r in rows] != expected:
            raise ScenarioError(f"{path}: wind rows must be in row-major (s, t) order")
        values = iter(r[2] for r in rows)
        grid = tuple(tuple(next(values) for _ in times) for _ in arcs)
        return cls(tuple(arcs), tuple(times), grid)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("s_m", "t_s", "v_mps"))
            for i, s in enumerate(self.arclength):
                for j, t in enumerate(self.time):
                    writer.writerow((repr(float(s)), repr(float(t)), repr(float(self.speed[i][j]))))


def finite_float(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell.strip()!r}")
    return value


def read_csv_rows(
    path: str | Path,
    header: tuple[str, ...],
    parsers: tuple[Callable[[str], object], ...] | None = None,
) -> list[tuple]:
    """Rows of a headed CSV file, parsed per column (finite floats by default); blanks skipped."""
    path = Path(path)
    parsers = parsers or (finite_float,) * len(header)
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise ScenarioError(f"{path}: empty file") from None
        if tuple(h.strip() for h in first) != header:
            raise ScenarioError(
                f"{path} line 1: expected header {','.join(header)}, got {','.join(first)}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            if len(row) != len(header):
                raise ScenarioError(
                    f"{path} line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                rows.append(tuple(map(lambda parse, cell: parse(cell), parsers, row)))
            except ValueError as exc:
                raise ScenarioError(f"{path} line {lineno}: {exc}") from exc
    return rows


def mode_b(params: VehicleParams, gravity_component: float, engine_on: bool) -> float:
    """``b`` of the mode's law ``b - a D(v - w)`` on v > 0.

    ``b_on = f1 - c - g sin(theta)`` and ``b_off = -c - g sin(theta)``, with
    ``gravity_component = g sin(theta)``.
    """
    return params.traction * engine_on - params.solid_friction - gravity_component


def _sgn(x: float) -> float:
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0


def _accel_scalar(
    x2: float, engine_on: bool, wind_speed: float, gravity_component: float, p: VehicleParams
) -> float:
    rel = x2 - wind_speed
    if p.signed_drag:
        drag = -p.drag_coeff * rel * abs(rel)
    else:
        drag = -p.drag_coeff * rel * rel
    f = drag - p.solid_friction * _sgn(x2) - gravity_component
    if engine_on:
        f += p.traction
    return f


@dataclass(frozen=True)
class FrozenDynamics:
    """Autonomous slice of the dynamics at fixed slope and wind.

    ``v_high`` is the engine-on equilibrium (last down-crossing of the
    engine-on acceleration on v > 0).  ``v_low`` is the engine-off rest speed:
    the last down-crossing of the engine-off acceleration when there is one,
    else the sticking point 0; ``v_low_is_root`` records which case applies.
    """

    params: VehicleParams
    power: PowerModel
    slope: float
    wind_speed: float
    v_low: float
    v_high: float
    v_low_is_root: bool
    gravity_component: float  # g sin(slope)
    # (b, rest speed) per mode, indexed by ``engine_on``: the root its acceleration settles at,
    # v_high, or v_low when a root, else None; ``leg_time_distance`` is inf for a leg ending there
    modes: tuple[tuple[float, float | None], ...] = field(repr=False, compare=False)

    def accel(self, x2: float, engine_on: bool) -> float:
        return _accel_scalar(x2, engine_on, self.wind_speed, self.gravity_component, self.params)

    def engine_power_at(self, x2: float) -> float:
        return engine_power(x2, True, self.power, self.params)

    def leg_time_distance(self, engine_on: bool, v0: float, v1: float) -> tuple[float, float]:
        """Time and distance of the constant-mode leg from speed ``v0`` to ``v1``.

        In closed form on each drag branch (see ``Leg``): under signed drag a
        leg across the wind speed is split there.  The distance is ``w tau -
        ln((b - A r1^2) / (b - A r0^2)) / (2A)``.  Both are inf when ``v1`` is
        the mode's rest speed, which is only approached, or is never reached.
        """
        if v0 == v1:
            return 0.0, 0.0
        b, rest = self.modes[engine_on]
        if rest is not None and abs(v1 - rest) <= ENDPOINT_MATCH_TOL:
            return math.inf, math.inf
        p, w = self.params, self.wind_speed
        if p.signed_drag and (v0 - w) * (v1 - w) < 0.0:
            t0, d0 = self.leg_time_distance(engine_on, v0, w)
            t1, d1 = self.leg_time_distance(engine_on, w, v1)
            return t0 + t1, d0 + d1
        r0, r1 = v0 - w, v1 - w
        A = -p.drag_coeff if p.signed_drag and r0 + r1 < 0.0 else p.drag_coeff
        tau = _branch_time(b, A, r0, r1)
        if math.isinf(tau):
            return tau, tau
        return tau, w * tau - math.log1p(A * (r0 - r1) * (r0 + r1) / (b - A * r0 * r0)) / (2.0 * A)

    def moment_integrals(self) -> tuple[float, float, float]:
        """Whole-band integrals of the switching-cost inequality and cost expansion.

        Returns ``(excess_energy, up_moment, down_moment)`` over (v_low,
        v_high): the integrals of (h - h*)/f_on and (s - v_high)/f_on, and
        minus the integral of (s - v_low)/f_off, the engine-off leg running
        from the top down to the rest speed.  ``h*`` is the engine-on draw at
        v_high.  On a sticking slice the down moment is the coast leg's
        distance.  Divergent integrals come back infinite, signed at a band end.
        """
        up_moment = self._rest_moment(True, self.v_high)
        # h - h* is 0 under constant power and m f1 (s - v_high) under wheel power
        excess_energy = engine_energy(0.0, up_moment, True, self.power, self.params)
        if self.v_low_is_root:
            down_moment = -self._rest_moment(False, self.v_low)
        else:
            down_moment = self.leg_time_distance(False, self.v_high, self.v_low)[1]
        return excess_energy, up_moment, down_moment

    def _rest_moment(self, engine_on: bool, rest: float) -> float:
        """Integral of ``(s - rest)/f`` over the band, ``rest`` a root of the mode's f.

        On the drag branch of the rest speed ``v*``, ``f = A (r*^2 - r^2)``, so
        ``(s - v*)/f = -1/(A (s + v* - 2w))`` integrates to a log; it diverges
        when the other root, where ``s + v* - 2w`` vanishes, lies in the band.  Under
        signed drag the band's piece across ``v = w`` is the exact leg's
        ``d - v* t``, run in the mode's direction.
        """
        p, w = self.params, self.wind_speed
        lo, hi = self.v_low, self.v_high
        far = 0.0
        if p.signed_drag and lo < w < hi:
            if rest > w:
                t, d = self.leg_time_distance(engine_on, lo, w)
                far, lo = d - rest * t, w
            else:
                t, d = self.leg_time_distance(engine_on, hi, w)
                far, hi = rest * t - d, w
        A = -p.drag_coeff if p.signed_drag and rest < w else p.drag_coeff
        u0, u1 = lo + rest - 2.0 * w, hi + rest - 2.0 * w
        if u0 * u1 < 0.0:  # the root lies inside the band: the integral has no sign
            return math.inf
        if u0 * u1 == 0.0:  # at a band end: u1 / u0 runs to inf at the lower, to 0 at the upper
            return math.copysign(math.inf, -(u0 + u1) * A)
        return far - math.log(u1 / u0) / A

    @classmethod
    def from_conditions(
        cls,
        params: VehicleParams,
        power: PowerModel,
        slope: float = 0.0,
        wind_speed: float = 0.0,
    ) -> FrozenDynamics:
        """Slice at fixed slope and wind, with both rest speeds in closed form.

        On v > 0 each mode's acceleration is ``b - a D(v - w)`` with ``b`` from
        ``mode_b``.  Each rest speed is the last down-crossing of that
        acceleration.  Coasting falls back to the sticking point 0 when it has
        no down-crossing on v > 0.
        """
        g = params.gravity * math.sin(slope)
        b_off, b_on = mode_b(params, g, False), mode_b(params, g, True)
        on_roots = _drag_roots(b_on, wind_speed, params)
        off_roots = _drag_roots(b_off, wind_speed, params)
        if not on_roots:
            raise InfeasibleSliceError(
                "engine-on acceleration is nonpositive for all speeds: the "
                "vehicle cannot move forward on this slice"
            )
        v_high = on_roots[-1]
        if v_high >= SPEED_BRACKET_MAX:
            raise InfeasibleSliceError(
                f"engine-on acceleration has no root below {SPEED_BRACKET_MAX} m/s"
            )
        if off_roots:
            # also when friction wins at 0+ but a tailwind pushes coasting
            # up to a second rest speed above the sticking point
            v_low, is_root = off_roots[-1], True
        else:
            # evaluate the 0+ side of the friction sign
            f_zero = _accel_scalar(1e-12, False, wind_speed, g, params)
            v_low, is_root = 0.0, abs(f_zero) <= 1e-12
        if v_low >= v_high - SPEED_ROOT_TOL:
            raise InfeasibleSliceError(
                f"engine-off rest speed {v_low:.6g} does not lie below the "
                f"engine-on equilibrium {v_high:.6g}"
            )
        modes = (b_off, v_low if is_root else None), (b_on, v_high)
        return cls(params, power, slope, wind_speed, v_low, v_high, is_root, g, modes)


def _drag_roots(b: float, wind_speed: float, p: VehicleParams) -> list[float]:
    """Speeds v > 0 where ``b - a D(v - w)`` crosses zero, in increasing order.

    With ``k = sqrt(|b|/a)``: signed drag ``D(r) = r|r|`` is increasing, so
    its single root ``w + sgn(b) k`` falls through zero; ``D(r) = r^2`` has
    the up-crossing ``w - k`` and the down-crossing ``w + k`` only for b > 0.
    """
    k = math.sqrt(abs(b) / p.drag_coeff)
    if p.signed_drag:
        roots = [wind_speed + math.copysign(k, b)]
    elif b > 0.0:
        roots = [wind_speed - k, wind_speed + k]
    else:
        return []
    return [v for v in roots if v > 0.0]


def increasing_root(
    fn: Callable[[float], tuple[float, float]], lo: float, hi: float, x: float
) -> float:
    """Root of an increasing ``fn`` in [lo, hi], by Newton's method with a bisection guard.

    ``fn(x)`` returns the value and the slope at x; ``x`` clipped into the
    bracket is the first iterate.  An end is evaluated only when a step would
    leave through it, and is returned when its value puts the root beyond it.
    A step out through an evaluated end bisects, and so does a step back over
    the last one that does not halve it, which can cycle.  Returns the last
    evaluated ``x`` once the next step is below brentq's ``2e-12 + 4 eps |x|``.
    """
    fresh = {lo, hi}  # the ends not evaluated yet
    x = min(max(x, lo), hi)
    step = 0.0
    for _ in range(100):
        value, slope = fn(x)
        if math.isnan(value):
            raise NumericError(f"root function is NaN at {x!r}")
        if value == 0.0 or x in fresh and (value > 0.0 if x == lo else value < 0.0):
            return x
        fresh.discard(x)
        lo, hi = (x, hi) if value < 0.0 else (lo, x)
        # a flat or falling slope says only on which side the root lies
        x_new = x - value / slope if slope > 0.0 else math.copysign(math.inf, -value)
        if not lo < x_new < hi:
            end = lo if x_new <= lo else hi
            x_new = end if end in fresh else 0.5 * (lo + hi)
        elif (x_new - x) * step < 0.0 and abs(x_new - x) > 0.5 * abs(step):
            x_new = 0.5 * (lo + hi)
        if x_new not in fresh and abs(x_new - x) <= 2e-12 + 8.9e-16 * abs(x_new):
            return x
        x, step = x_new, x_new - x
    raise NumericError(f"no root after 100 iterations in [{lo!r}, {hi!r}]")


def _branch_time(b: float, A: float, r0: float, r1: float) -> float:
    """Time from r0 to r1 under ``r' = b - A r^2``; inf when r1 is behind or past a root."""
    rate = b - A * r0 * r0
    if rate == 0.0 or r1 == r0 or (r1 > r0) != (rate > 0.0):
        return math.inf
    k, sigma = math.sqrt(abs(b / A)), b * A  # its sign picks the law, as Leg's sigma does
    if sigma < 0.0:
        return math.atan2(k * (r0 - r1), k * k + r0 * r1) / (A * k)
    lo, hi = (r0, r1) if r0 < r1 else (r1, r0)
    if lo <= k <= hi or lo <= -k <= hi:  # k = 0 for b = 0
        return math.inf
    if sigma == 0.0:
        return (1.0 / r1 - 1.0 / r0) / A
    z = k * (r1 - r0) / (k * k - r0 * r1)
    return math.atanh(z) / (A * k) if abs(z) < 1.0 else math.inf


@dataclass(frozen=True, slots=True)
class Leg:
    """One constant-mode leg inside a slope/wind cell, in closed form.

    With ``r = v - w`` the law ``b - a D(v - w)`` reads ``r' = b - A r^2`` on
    one drag branch: ``A = a``, and ``A = -a`` on the signed-drag branch
    r < 0.  With ``k = sqrt|b/A|`` the solution is a tanh (``sigma = 1``),
    tan (``sigma = -1``) or, for b = 0, rational function of time.  The leg
    ends at ``end_time`` when the speed reaches ``end_speed``: 0, where it
    sticks, or, under signed drag, the wind speed, where A flips sign.  A
    leg that only approaches a rest speed never ends (``end_time`` is inf).
    A vehicle that cannot leave rest, ``f(0+) <= 0``, gets the leg of a
    driftless windless cell.
    """

    b: float
    A: float
    wind_speed: float
    v0: float
    k: float = 0.0
    sigma: float = 0.0
    end_speed: float = math.nan
    end_time: float = math.inf

    @classmethod
    def start(
        cls, params: VehicleParams, slope: float, wind_speed: float, engine_on: bool, v0: float
    ) -> Leg:
        """The leg from speed ``v0 >= 0`` at fixed slope and wind."""
        if not math.isfinite(v0):
            raise NumericError(f"leg cannot start from speed {v0}")
        b = mode_b(params, params.gravity * math.sin(slope), engine_on)
        v0 = max(v0, 0.0)
        r0 = v0 - wind_speed
        if r0 + wind_speed == 0.0:  # a speed below the resolution of r is rest
            v0 = 0.0
        A = params.drag_coeff
        if params.signed_drag and (r0 < 0.0 or (r0 == 0.0 and b < 0.0)):
            A = -A
        rate = b - A * r0 * r0
        if v0 == 0.0 and rate <= 0.0:
            return cls(0.0, params.drag_coeff, 0.0, 0.0)
        k, sigma = math.sqrt(abs(b / A)), _sgn(b * A)
        if rate < 0.0:
            r_end = max(-wind_speed, 0.0) if params.signed_drag and r0 > 0.0 else -wind_speed
        elif rate > 0.0 and params.signed_drag and r0 < 0.0:
            r_end = 0.0
        else:
            return cls(b, A, wind_speed, v0, k, sigma)
        end_time = _branch_time(b, A, r0, r_end)
        return cls(b, A, wind_speed, v0, k, sigma, wind_speed + r_end, end_time)

    def time_to(self, v1: float) -> float:
        """Time until the speed reaches ``v1`` on this leg, inf if it never does."""
        if (v1 - self.end_speed) * (self.end_speed - self.v0) > 0.0:
            return math.inf
        return _branch_time(self.b, self.A, self.v0 - self.wind_speed, v1 - self.wind_speed)

    def speed(self, tau: float) -> float:
        """Speed ``tau`` seconds into the leg: the law of ``speeds``, in its float order."""
        w, k, sigma, r0 = self.wind_speed, self.k, self.sigma, self.v0 - self.wind_speed
        if sigma == 0.0:
            v = w + r0 / (1.0 + self.A * r0 * tau)
        else:
            x = self.A * k * tau
            c, s = (math.cosh(x), math.sinh(x)) if sigma > 0.0 else (math.cos(x), math.sin(x))
            v = w + k * (r0 * c + sigma * k * s) / (k * c + r0 * s)
        return 0.0 if v < 0.0 else v

    def speeds(self, t0: float, times: Iterable[float]) -> list[float]:
        """Speeds at the race times ``times`` of the leg started at ``t0``, its law read once."""
        w, k, sigma = self.wind_speed, self.k, self.sigma
        r0 = self.v0 - w
        if sigma == 0.0:
            Ar0 = self.A * r0
            return [max(w + r0 / (1.0 + Ar0 * (t - t0)), 0.0) for t in times]
        Ak, sk = self.A * k, sigma * k
        even, odd = (math.cosh, math.sinh) if sigma > 0.0 else (math.cos, math.sin)
        out = []
        for t in times:
            x = Ak * (t - t0)
            c, s = even(x), odd(x)
            v = w + k * (r0 * c + sk * s) / (k * c + r0 * s)
            out.append(0.0 if v < 0.0 else v)  # max(v, 0.0), bit for bit, without its call
        return out

    def distance(self, tau: float) -> float:
        """Distance ``w tau + ln(cosh + (r0/k) sinh)/A`` covered in ``tau`` seconds."""
        r0 = self.v0 - self.wind_speed
        if self.sigma == 0.0:
            return self.wind_speed * tau + math.log1p(self.A * r0 * tau) / self.A
        # cosh - 1 = 2 sinh^2(x/2) keeps the logarithm exact for short legs
        x = self.A * self.k * (0.5 * tau)
        c, s = (math.cosh(x), math.sinh(x)) if self.sigma > 0.0 else (math.cos(x), math.sin(x))
        inner = 2.0 * s * (self.sigma * s + r0 / self.k * c)
        return self.wind_speed * tau + math.log1p(inner) / self.A


def freeze(
    track: TrackProfile,
    wind: WindField,
    params: VehicleParams,
    power: PowerModel,
    x1: float,
    t: float,
) -> FrozenDynamics:
    """Autonomous dynamics with slope and wind sampled at (x1, t)."""
    theta = track.slope_at(x1)  # raises DomainError outside the track
    v = wind.at(x1, t)
    return FrozenDynamics.from_conditions(params, power, theta, v)


@dataclass(frozen=True)
class AssumptionItem:
    """Outcome of one assumption check; ``passed=None`` means the
    check could not be completed (reported, never silently passed)."""

    name: str
    passed: bool | None
    witness: dict[str, float | str]


@dataclass(frozen=True)
class AssumptionReport:
    items: tuple[AssumptionItem, ...]
    convexity_verdict: str
    inequality_lhs: float
    inequality_rhs: float

    @property
    def passed(self) -> bool:
        return all(item.passed is True for item in self.items)

    def item(self, name: str) -> AssumptionItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)


def check_assumptions(frozen: FrozenDynamics) -> AssumptionReport:
    """Verify the structural assumptions on a frozen slice, in closed form.

    On v > 0 each mode's acceleration is ``b - a D(v - w)``, a polynomial on
    each drag branch, with ``b_on - b_off = f1``: continuity and the mode
    ordering hold by construction, and each mode's sign structure follows
    from the roots of its law.  Consumption is zero off and, on, positive and
    nondecreasing by the definition of ``PowerModel``.  The switching-cost
    inequality comes from the slice's moment integrals, and the curvature of
    the tradeoff F = h f_off / f1 from the sign of its second derivative.
    """
    p, w = frozen.params, frozen.wind_speed
    v_lo, v_hi = frozen.v_low, frozen.v_high
    # each mode's roots on v > 0, none of them above v_high
    on_roots, off_roots = (
        _drag_roots(mode_b(p, frozen.gravity_component, on), w, p) for on in (True, False)
    )
    on_residual = frozen.accel(v_hi, True)
    items = [
        AssumptionItem("continuity", True, {}),
        AssumptionItem(
            "forward_uniqueness",
            len(on_roots) == 1 and len(off_roots) <= 1,
            {
                "engine_on_sign_changes": float(len(on_roots)),
                "engine_off_sign_changes": float(len(off_roots)),
            },
        ),
        AssumptionItem(
            "engine_on_equilibrium",
            not any(v_lo < v < v_hi for v in on_roots) and abs(on_residual) < 1e-6,
            {"v_high": v_hi, "residual": on_residual},
        ),
        AssumptionItem("mode_ordering", True, {"min_gap": p.traction}),
    ]

    # -- engine off: decays toward the rest speed
    witness: dict[str, float | str] = {"v_low": v_lo}
    if frozen.v_low_is_root:
        # a rest speed of 0 balances on the 0+ side of the friction jump
        witness["kind"] = "root"
        witness["residual"] = off_residual = frozen.accel(v_lo or 1e-12, False)
        off_ok = (len(off_roots) == 1 and abs(off_residual) < 1e-6) or (
            v_lo == 0.0 and not off_roots and abs(off_residual) <= 1e-12
        )
    else:
        # sticking: the one-sided limits bracket zero speed
        witness["kind"] = "sticking"
        witness["f_zero_minus"] = frozen.accel(-1e-12, False)
        witness["f_zero_plus"] = f_zero = frozen.accel(1e-12, False)
        off_ok = f_zero < 0.0
    items += [
        AssumptionItem("engine_off_equilibrium", off_ok, witness),
        AssumptionItem("idle_consumption_zero", True, {"power_off": 0.0}),
        AssumptionItem("consumption_nondecreasing", True, {}),
    ]

    # -- switching cost small enough to oscillate: lhs - rhs is the 1/T term of the
    # large-period cost h* (target - v_low) / (v_high - v_low) + (lhs - rhs) / T
    h_star = frozen.engine_power_at(v_hi)
    excess_energy, up_moment, down_moment = frozen.moment_integrals()
    lhs = p.switch_cost + excess_energy
    rhs = (h_star / (v_hi - v_lo)) * (down_moment + up_moment)
    sides = {"lhs": lhs, "rhs": rhs}
    if math.isfinite(lhs) and math.isfinite(rhs):
        items.append(AssumptionItem("switching_cost_small", lhs < rhs, sides))
    else:
        diagnostic = {"diagnostic": "divergent integral", **sides}
        items.append(AssumptionItem("switching_cost_small", None, diagnostic))

    verdict = tradeoff_curvature(frozen)
    items.append(AssumptionItem("tradeoff_curvature", verdict != "neither", {"verdict": verdict}))
    return AssumptionReport(tuple(items), verdict, lhs, rhs)


def tradeoff_curvature(frozen: FrozenDynamics) -> str:
    """Strict curvature of F = h f_off / f1 on the slice, or "neither" where it changes."""
    # F'' has the sign of -s(v) L(v), with s = sgn(v - w) under signed drag, else 1,
    # and L = 3v - 2w under wheel power, else 1
    p, w = frozen.params, frozen.wind_speed
    margin = 1e-4 * (frozen.v_high - frozen.v_low)
    ends = (frozen.v_low + margin, frozen.v_high - margin)
    wheel = frozen.power.kind == WHEEL_POWER
    signs = {
        -(_sgn(v - w) if p.signed_drag else 1.0) * (_sgn(3.0 * v - 2.0 * w) if wheel else 1.0)
        for v in ends
    }
    if len(signs) > 1 or 0.0 in signs or p.signed_drag and ends[0] < w < ends[1]:
        return "neither"
    return "strictly_convex" if signs == {1.0} else "strictly_concave"
