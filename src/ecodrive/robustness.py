"""Sensitivity of the band average speed to misidentified dynamics.

The average speed of a constant-mode maneuver is a ratio of two speed
integrals of 1/g, where g is the mode acceleration over the band.  That
ratio is invariant under scaling of g, so proportional identification errors
do not move the average at all; a general perturbation enters through an
alternating series whose terms decay like powers of the perturbation ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import DivergenceRiskError, InvalidProfileError
from .quadrature import adaptive_quadrature, speed_moments

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

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise InvalidProfileError("profile needs lo < hi")

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(s, dtype=float))

    @classmethod
    def from_samples(cls, speeds, values) -> SpeedProfile:
        speeds = np.asarray(speeds, dtype=float)
        values = np.asarray(values, dtype=float)
        if speeds.ndim != 1 or speeds.size < 2 or speeds.shape != values.shape:
            raise InvalidProfileError("need two equal-length 1-d sample arrays")
        if np.any(np.diff(speeds) <= 0.0):
            raise InvalidProfileError("sample speeds must be strictly increasing")
        interp = PchipInterpolator(speeds, values, extrapolate=False)
        return cls(float(speeds[0]), float(speeds[-1]), interp)

    def scaled(self, factor: float) -> SpeedProfile:
        fn = self.fn
        return SpeedProfile(self.lo, self.hi, lambda s: factor * fn(s))

    def plus(self, other: SpeedProfile) -> SpeedProfile:
        _require_same_band(self, other)
        f, g = self.fn, other.fn
        return SpeedProfile(self.lo, self.hi, lambda s: f(s) + g(s))

    def _validate_nonvanishing(self) -> None:
        xs = np.linspace(self.lo, self.hi, _VALIDATION_GRID)
        vals = self(xs)
        if not np.all(np.isfinite(vals)):
            raise InvalidProfileError("profile is not finite on its band")
        if np.any(vals == 0.0) or (np.any(vals > 0.0) and np.any(vals < 0.0)):
            raise InvalidProfileError("profile vanishes on the sampled grid")


def _require_same_band(a: SpeedProfile, b: SpeedProfile) -> None:
    if abs(a.lo - b.lo) > 1e-12 or abs(a.hi - b.hi) > 1e-12:
        raise InvalidProfileError(
            f"profiles live on different bands: [{a.lo}, {a.hi}] vs [{b.lo}, {b.hi}]"
        )


def mean_speed(g: SpeedProfile) -> float:
    """Time-weighted average speed of the maneuver driven by profile g."""
    g._validate_nonvanishing()
    duration, distance = speed_moments(lambda s: 1.0 / g(s), g.lo, g.hi)
    return distance / duration


def perturbation_series(
    g: SpeedProfile, dg: SpeedProfile, n_terms: int = DEFAULT_TERMS
) -> float:
    """Partial-sum estimate of the average-speed shift caused by ``dg``.

    Sums the alternating series in powers of dg/g; each extra term buys one
    power of sup|dg/g|, so the default depth is ample for ratios up to ~0.3.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    _require_same_band(g, dg)
    g._validate_nonvanishing()
    ratio = _ratio_values(g, dg)
    sup = float(np.max(np.abs(ratio)))
    if sup >= 1.0:
        raise DivergenceRiskError(
            f"sup|dg/g| = {sup:.6g} >= 1: the perturbation series may diverge"
        )
    mean = mean_speed(g)
    perturbed_duration = adaptive_quadrature(
        lambda s: 1.0 / (g(s) + dg(s)), g.lo, g.hi
    )
    total = 0.0
    for n in range(1, n_terms + 1):
        term = adaptive_quadrature(
            lambda s: (s - mean) / g(s) * (dg(s) / g(s)) ** n, g.lo, g.hi
        )
        total += term if n % 2 == 0 else -term
    return total / perturbed_duration


def proportional_invariance_check(g: SpeedProfile, eps: float) -> float:
    """Residual of the scale invariance F((1+eps) g) = F(g).

    Exactly zero in exact arithmetic; bounded by quadrature precision
    (~1e-10 m/s) for well-conditioned profiles.
    """
    if not abs(eps) < 1.0:
        raise ValueError("eps must satisfy |eps| < 1")
    if eps == 0.0:
        return 0.0
    return abs(mean_speed(g.scaled(1.0 + eps)) - mean_speed(g))


def ratio_statistics(g: SpeedProfile, dg: SpeedProfile) -> tuple[float, float]:
    """Mean and variance of dg/g over the band.

    The average-speed shift vanishes with the variance of dg/g, so the
    variance is reported alongside any perturbation estimate; no inequality
    between the two is asserted.
    """
    _require_same_band(g, dg)
    ratio = _ratio_values(g, dg)
    return float(np.mean(ratio)), float(np.var(ratio))


def _ratio_values(g: SpeedProfile, dg: SpeedProfile) -> np.ndarray:
    xs = np.linspace(g.lo, g.hi, _VALIDATION_GRID)
    gv = g(xs)
    if np.any(gv == 0.0):
        raise InvalidProfileError("profile vanishes on the sampled grid")
    return dg(xs) / gv
