"""Sensitivity of the band average speed to misidentified dynamics.

The average speed of a constant-mode maneuver is a ratio of two speed
integrals of 1/g, where g is the mode acceleration over the band.  That
ratio is invariant under scaling of g, so proportional identification errors
do not move the average at all; a general perturbation enters through an
alternating series whose terms decay like powers of the perturbation ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DivergenceRiskError, InvalidProfileError
from .quadrature import adaptive_quadrature, panel_edges

DEFAULT_TERMS = 8
_VALIDATION_GRID = 512


@dataclass(frozen=True)
class SpeedProfile:
    """A continuous nonvanishing function of speed on a band [lo, hi].

    Identified dynamics usually arrive as samples; those are interpolated
    with a monotone cubic so the profile stays free of spurious wiggles.
    Closed-form profiles pass the callable to the constructor.  A profile
    calls ``fn`` once per distinct array of speeds and hands out its values
    there read-only, so the quadrature passes and checks of one request share
    them.
    """

    lo: float
    hi: float
    fn: Callable[[np.ndarray], np.ndarray]
    knots: tuple[float, ...] = ()  # ends included; fn is smooth between knots
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not -np.inf < self.lo < self.hi < np.inf:  # NaN fails every comparison
            raise InvalidProfileError("profile needs finite lo < hi")
        object.__setattr__(self, "knots", tuple(self.knots) or (self.lo, self.hi))

    def __call__(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        key = (s.shape, s.tobytes())
        out = self._memo.get(key)
        if out is None:  # a copy, so no array of fn's or the caller's can change it
            out = self._memo[key] = np.array(self.fn(s))
            out.flags.writeable = False
        return out

    @classmethod
    def from_samples(cls, speeds, values) -> SpeedProfile:
        """Monotone cubic through the samples, NaN off [lo, hi]: Fritsch-Butland slopes
        (SIAM J. Sci. Stat. Comput. 5(2), 1984) inside, three-point shape-preserving ends."""
        x, y = np.asarray(speeds, dtype=float), np.asarray(values, dtype=float)
        if x.ndim != 1 or x.size < 2 or x.shape != y.shape:
            raise InvalidProfileError("need two equal-length 1-d sample arrays")
        if not np.isfinite(x).all():
            raise InvalidProfileError("sample speeds must be finite")
        if not np.isfinite(y).all():
            raise InvalidProfileError("sample values must be finite")
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
        return replace(self, fn=lambda s: self(s) + other(s), knots=knots)

    @cached_property
    def _grid(self) -> np.ndarray:
        """The validation grid, the same for every profile on the band."""
        return np.linspace(self.lo, self.hi, _VALIDATION_GRID)

    @cached_property
    def _validate_nonvanishing(self) -> np.ndarray:
        """The profile on its validation grid, checked once per profile."""
        vals = self(self._grid)
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
        duration, distance = adaptive_quadrature(
            lambda s: np.array([np.ones_like(s), s]) / self(s), self.lo, self.hi, self.knots
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
    pass on shared panels, which reads the profiles' values wherever an earlier
    pass evaluated them; the powers of dg/g are a running product.  The
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

    def rows(s: np.ndarray) -> np.ndarray:
        gs, dgs = g(s), dg(s)
        powers = np.cumprod(np.broadcast_to(dgs / gs, (n_terms, s.size)), axis=0)
        return np.vstack([1.0 / (gs + dgs), (s - mean) / gs * powers])

    perturbed_duration, *terms = adaptive_quadrature(rows, g.lo, g.hi, g.knots + dg.knots)
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
    ratio = dg(g._grid) / g._validate_nonvanishing  # the bands match, so g's grid is dg's
    if not np.isfinite(ratio).all():
        raise InvalidProfileError("perturbation is not finite on its band")
    return ratio
