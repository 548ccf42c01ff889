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
from .quadrature import adaptive_quadrature

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
        h = np.diff(x)
        if np.any(h <= 0.0):
            raise InvalidProfileError("sample speeds must be strictly increasing")
        m = np.diff(y) / h
        d = np.full(x.size, m[0])
        if x.size > 2:
            w1, w2, sign = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1], np.sign(m)
            with np.errstate(all="ignore"):
                mean = (w1 + w2) / (w1 / m[:-1] + w2 / m[1:])
            d[1:-1] = np.where((sign[:-1] == sign[1:]) & (m[1:] != 0.0), mean, 0.0)
            h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
            e = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            e = np.where((np.sign(m0) != np.sign(m1)) & (abs(e) > 3.0 * abs(m0)), 3.0 * m0, e)
            d[[0, -1]] = np.where(np.sign(e) != np.sign(m0), 0.0, e)
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        coef = np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])

        def cubic(s: np.ndarray) -> np.ndarray:
            i = np.searchsorted(x[1:-1], s, side="right")
            out = np.polyval(coef.take(i, 1), s - x[i])
            return np.where((s >= x[0]) & (s <= x[-1]), out, np.nan)

        return cls(float(x[0]), float(x[-1]), cubic, tuple(x.tolist()))

    def plus(self, other: SpeedProfile) -> SpeedProfile:
        _require_same_band(self, other)
        knots = np.unique(np.clip(self.knots + other.knots, self.lo, self.hi))
        return replace(self, fn=lambda s: self.fn(s) + other.fn(s), knots=tuple(knots.tolist()))

    @cached_property
    def _grid_values(self) -> np.ndarray:
        """The profile on its validation grid, evaluated once per profile."""
        return self(np.linspace(self.lo, self.hi, _VALIDATION_GRID))

    @cached_property
    def _validate_nonvanishing(self) -> np.ndarray:
        """The grid values, checked once per profile."""
        vals = self._grid_values
        if not np.all(np.isfinite(vals)):
            raise InvalidProfileError("profile is not finite on its band")
        if np.any(vals == 0.0) or (np.any(vals > 0.0) and np.any(vals < 0.0)):
            raise InvalidProfileError("profile vanishes on the sampled grid")
        return vals


def _require_same_band(a: SpeedProfile, b: SpeedProfile) -> None:
    if abs(a.lo - b.lo) > 1e-12 or abs(a.hi - b.hi) > 1e-12:
        raise InvalidProfileError(
            f"profiles live on different bands: [{a.lo}, {a.hi}] vs [{b.lo}, {b.hi}]"
        )


def mean_speed(g: SpeedProfile) -> float:
    """Time-weighted average speed of the maneuver driven by profile g."""
    g._validate_nonvanishing  # raises unless g is finite and of one sign on its grid
    duration, distance = adaptive_quadrature(
        lambda s: np.vstack([np.ones_like(s), s]) / g(s), g.lo, g.hi, g.knots
    )
    return float(distance / duration)


def perturbation_series(
    g: SpeedProfile, dg: SpeedProfile, n_terms: int = DEFAULT_TERMS, mean: float | None = None
) -> float:
    """Partial-sum estimate of the average-speed shift caused by ``dg``.

    Sums the alternating series in powers of dg/g; each extra term buys one
    power of sup|dg/g|, so the default depth is ample for ratios up to ~0.3.
    The perturbed duration and every term are integrated in one adaptive
    pass on shared panels, each profile evaluated once per call.  A caller
    that has ``mean_speed(g)`` already passes it as ``mean``.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    ratio = _ratio_values(g, dg)
    sup = float(np.max(np.abs(ratio)))
    if sup >= 1.0:
        raise DivergenceRiskError(
            f"sup|dg/g| = {sup:.6g} >= 1: the perturbation series may diverge"
        )
    mean = mean_speed(g) if mean is None else mean
    powers = np.arange(1, n_terms + 1)[:, None]

    def rows(s: np.ndarray) -> np.ndarray:
        gs, dgs = g(s), dg(s)
        return np.vstack([1.0 / (gs + dgs), (s - mean) / gs * (dgs / gs) ** powers])

    perturbed_duration, *terms = adaptive_quadrature(rows, g.lo, g.hi, g.plus(dg).knots)
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
