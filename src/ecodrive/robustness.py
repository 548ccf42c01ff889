"""Sensitivity of the band average speed to misidentified dynamics.

The average speed of a constant-mode maneuver is a ratio of two speed
integrals of 1/g, where g is the mode acceleration over the band.  That
ratio is invariant under scaling of g, so proportional identification errors
do not move the average at all; a general perturbation enters through an
alternating series whose terms decay like powers of the perturbation ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DivergenceRiskError, InvalidProfileError
from .quadrature import adaptive_quadrature, panel_edges, panel_nodes

DEFAULT_TERMS = 8
_VALIDATION_GRID = 512


@dataclass(frozen=True)
class SpeedProfile:
    """A continuous nonvanishing function of speed on a band [lo, hi].

    Identified dynamics usually arrive as samples; those are interpolated
    with a monotone cubic so the profile stays free of spurious wiggles.
    Closed-form profiles pass the callable to the constructor.
    """

    lo: float
    hi: float
    fn: Callable[[np.ndarray], np.ndarray]
    knots: tuple[float, ...] = ()  # ends included; fn is smooth between knots
    _parts = ()  # set by ``plus``; not a field, so ``replace`` drops it

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise InvalidProfileError("profile needs lo < hi")
        object.__setattr__(self, "knots", tuple(self.knots) or (self.lo, self.hi))

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(s, dtype=float))

    @classmethod
    def from_samples(cls, speeds, values) -> SpeedProfile:
        """Monotone cubic through the samples, NaN off [lo, hi]: Fritsch-Butland slopes
        (SIAM J. Sci. Stat. Comput. 5(2), 1984) inside, three-point shape-preserving ends."""
        x, y = np.asarray(speeds, dtype=float), np.asarray(values, dtype=float)
        if x.ndim != 1 or x.size < 2 or x.shape != y.shape:
            raise InvalidProfileError("need two equal-length 1-d sample arrays")
        if not np.isfinite(x).all():
            raise InvalidProfileError("sample speeds must be finite")
        xs, ys = x.tolist(), y.tolist()
        h = [b - a for a, b in zip(xs, xs[1:])]
        if min(h) <= 0.0:
            raise InvalidProfileError("sample speeds must be strictly increasing")
        # plain floats in numpy's order of operations, inf for x / 0: its bits, not its call cost
        m = [(b - a) / w for a, b, w in zip(ys, ys[1:], h)]
        d = [m[0], *[0.0] * (len(xs) - 2), m[-1]]
        for i in range(1, len(xs) - 1):  # weighted harmonic means where the secants agree
            (a, b), w1, w2 = m[i - 1 : i + 1], 2.0 * h[i] + h[i - 1], h[i] + 2.0 * h[i - 1]
            if (a > 0.0 and b > 0.0) or (a < 0.0 and b < 0.0):
                den = w1 / a + w2 / b
                d[i] = (w1 + w2) / den if den else np.copysign(np.inf, a)
        if len(xs) > 2:
            sign = lambda v: (v > 0.0) - (v < 0.0) if v == v else np.nan  # noqa: E731
            for k, j in ((0, 1), (-1, -2)):  # each end, from its own and the next secant
                h0, h1, m0, m1 = h[k], h[j], m[k], m[j]
                e = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
                e = 3.0 * m0 if sign(m0) != sign(m1) and abs(e) > 3.0 * abs(m0) else e
                d[k] = 0.0 if sign(e) != sign(m0) else e
        t = [(a + b - 2.0 * s) / w for a, b, s, w in zip(d, d[1:], m, h)]
        coef = np.array([[c / w for c, w in zip(t, h)],
                         [(s - a) / w - c for s, a, w, c in zip(m, d, h, t)], d[:-1], ys[:-1]])

        def cubic(s: np.ndarray) -> np.ndarray:
            i = np.searchsorted(x[1:-1], s, side="right")
            (c3, c2, c1, c0), u = coef.take(i, 1), s - x[i]
            out = ((c3 * u + c2) * u + c1) * u + c0
            return np.where((s >= x[0]) & (s <= x[-1]), out, np.nan)

        return cls(xs[0], xs[-1], cubic, tuple(xs))

    def plus(self, other: SpeedProfile) -> SpeedProfile:
        _require_same_band(self, other)
        knots = tuple(panel_edges(self.lo, self.hi, self.knots + other.knots).tolist())
        total = replace(self, fn=lambda s: self.fn(s) + other.fn(s), knots=knots)
        if self.knots == other.knots:  # the sum's grid and nodes are its parts'
            object.__setattr__(total, "_parts", (self, other))
        return total

    @cached_property
    def _grid_values(self) -> np.ndarray:
        """The profile on its validation grid, evaluated once per profile."""
        if self._parts:
            return self._parts[0]._grid_values + self._parts[1]._grid_values
        return self(np.linspace(self.lo, self.hi, _VALIDATION_GRID))

    @cached_property
    def _first(self) -> tuple[np.ndarray, np.ndarray]:
        """The nodes of the first quadrature pass on the knots, and the profile there, once."""
        if self._parts:
            (s, a), (_, b) = self._parts[0]._first, self._parts[1]._first
            return s, a + b
        s = panel_nodes(panel_edges(self.lo, self.hi, self.knots))
        return s, self(s)

    @cached_property
    def _validate_nonvanishing(self) -> np.ndarray:
        """The grid values, checked once per profile."""
        vals = self._grid_values
        low, high = vals.min(), vals.max()
        if not -np.inf < low <= high < np.inf:  # NaN fails every comparison
            raise InvalidProfileError("profile is not finite on its band")
        if low <= 0.0 <= high:
            raise InvalidProfileError("profile vanishes on the sampled grid")
        return vals

    @cached_property
    def _mean_speed(self) -> float:
        """The time-weighted average speed, integrated once per profile."""
        self._validate_nonvanishing  # raises unless finite and of one sign on the grid

        def rows(s: np.ndarray, values: np.ndarray) -> np.ndarray:
            return np.vstack([np.ones_like(s), s]) / values

        duration, distance = adaptive_quadrature(
            lambda s: rows(s, self(s)), self.lo, self.hi, self.knots, first=rows(*self._first)
        )
        return float(distance / duration)


def _require_same_band(a: SpeedProfile, b: SpeedProfile) -> None:
    if (a.lo, a.hi) != (b.lo, b.hi):
        raise InvalidProfileError(
            f"profiles live on different bands: [{a.lo}, {a.hi}] vs [{b.lo}, {b.hi}]"
        )


def mean_speed(g: SpeedProfile) -> float:
    """Time-weighted average speed of the maneuver driven by profile g."""
    return g._mean_speed


def perturbation_series(g: SpeedProfile, dg: SpeedProfile, n_terms: int = DEFAULT_TERMS) -> float:
    """Partial-sum estimate of the average-speed shift caused by ``dg``.

    Sums the alternating series in powers of dg/g; each extra term buys one
    power of sup|dg/g|, so the default depth is ample for ratios up to ~0.3.
    The perturbed duration and every term are integrated in one adaptive
    pass on shared panels, which starts from the profiles' cached values where
    they share their knots; the powers of dg/g are a running product.  The
    mean of g is integrated once per profile, so ``mean_speed(g)`` costs no pass.
    """
    if isinstance(n_terms, bool) or not isinstance(n_terms, int) or n_terms < 1:
        raise ValueError(f"n_terms must be an integer of at least 1, got {n_terms!r}")
    ratio = _ratio_values(g, dg)
    sup = float(np.max(np.abs(ratio)))
    if sup >= 1.0:
        raise DivergenceRiskError(
            f"sup|dg/g| = {sup:.6g} >= 1: the perturbation series may diverge"
        )
    mean = mean_speed(g)

    def rows(s: np.ndarray, gs: np.ndarray, dgs: np.ndarray) -> np.ndarray:
        powers = np.cumprod(np.broadcast_to(dgs / gs, (n_terms, s.size)), axis=0)
        return np.vstack([1.0 / (gs + dgs), (s - mean) / gs * powers])

    first = rows(*g._first, dg._first[1]) if g.knots == dg.knots else None
    perturbed_duration, *terms = adaptive_quadrature(
        lambda s: rows(s, g(s), dg(s)), g.lo, g.hi, g.knots + dg.knots, first=first
    )
    return float(sum((-1) ** n * term for n, term in enumerate(terms, 1)) / perturbed_duration)


def ratio_statistics(g: SpeedProfile, dg: SpeedProfile) -> tuple[float, float]:
    """Mean and variance of dg/g over the band.

    The average-speed shift vanishes with the variance of dg/g, so the
    variance is reported alongside any perturbation estimate; no inequality
    between the two is asserted.
    """
    ratio = _ratio_values(g, dg)
    return float(np.mean(ratio)), float(np.var(ratio))


def _ratio_values(g: SpeedProfile, dg: SpeedProfile) -> np.ndarray:
    _require_same_band(g, dg)
    return dg._grid_values / g._validate_nonvanishing
