"""The robustness layer's earlier forms: references for the package's cheaper ones.

- ``eager_adaptive_quadrature`` builds the panel heap before its first
  convergence test, as ``quadrature.adaptive_quadrature`` did before it built
  the heap at the first split.  Both must call the integrand on the same nodes
  in the same order and return the same totals.
- ``polyval_cubic`` evaluates ``SpeedProfile.from_samples``' monotone cubic
  with ``np.polyval``, where the package writes Horner's rule inline; both
  take the same steps, so they agree bit for bit.
- ``pow_series`` raises dg/g to each series power with ``**``, one ``pow``
  per node and term, where the package takes a running product.
- ``per_call_mean_speed``, ``per_call_sum``, ``per_call_series`` and
  ``per_call_ratio_statistics`` evaluate each profile wherever a value is
  needed, as the package did before each profile kept its values per array
  of speeds.  Both read the same points and take the same steps, so they
  agree bit for bit.
"""

from __future__ import annotations

import heapq

import numpy as np

from ecodrive.errors import DivergenceRiskError, InvalidProfileError, NumericError
from ecodrive.quadrature import ABS_FLOOR, MAX_PANELS, REL_TOL, _panels, adaptive_quadrature
from ecodrive.robustness import _VALIDATION_GRID, SpeedProfile


def eager_adaptive_quadrature(fn, lo: float, hi: float, knots=()):
    """``adaptive_quadrature`` with its heap of panels built before the first test."""
    if lo == hi:
        return 0.0
    sign = 1.0 if lo < hi else -1.0
    edges = np.unique(np.clip([lo, *knots, hi], min(lo, hi), max(lo, hi)))
    panels = np.moveaxis(_panels(fn, edges), -1, 0)
    total = panels.sum(axis=0)
    scale = 1.0 / np.maximum(REL_TOL * np.abs(total[0]), ABS_FLOOR)
    worst = (panels[:, 1] * scale).reshape(len(panels), -1).max(axis=1)
    heap = sorted(zip((-worst).tolist(), edges[:-1], edges[1:], panels))
    while np.any(total[1] > np.maximum(REL_TOL * np.abs(total[0]), ABS_FLOOR)):
        if len(heap) >= MAX_PANELS:
            raise NumericError(f"quadrature exhausted {MAX_PANELS} panels")
        _, a, b, old = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        halves = _panels(fn, np.array([a, mid, b]))
        total = total + (halves[..., 0] + halves[..., 1] - old)
        for i, (x, y) in enumerate(((a, mid), (mid, b))):
            worst = float(np.max(halves[1, ..., i] * scale))
            heapq.heappush(heap, (-worst, x, y, halves[..., i]))
    return sign * float(total[0]) if total.ndim == 1 else sign * total[0]


def polyval_cubic(speeds, values):
    """The monotone cubic of ``SpeedProfile.from_samples``, evaluated with ``np.polyval``."""
    x, y = np.asarray(speeds, dtype=float), np.asarray(values, dtype=float)
    h = np.diff(x)
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

    def cubic(s):
        s = np.asarray(s, dtype=float)
        i = np.searchsorted(x[1:-1], s, side="right")
        out = np.polyval(coef.take(i, 1), s - x[i])
        return np.where((s >= x[0]) & (s <= x[-1]), out, np.nan)

    return cubic


def pow_series(g, dg, n_terms: int, mean: float) -> tuple[float, float]:
    """The series estimate with ``**`` powers, and the sum of its terms' magnitudes.

    Both are divided by the perturbed duration, the second by its size; the
    second is the scale that the estimate's alternating sum cancels down from.
    """
    powers = np.arange(1, n_terms + 1)[:, None]

    def rows(s):
        gs, dgs = g(s), dg(s)
        return np.vstack([1.0 / (gs + dgs), (s - mean) / gs * (dgs / gs) ** powers])

    perturbed_duration, *terms = eager_adaptive_quadrature(rows, g.lo, g.hi, g.plus(dg).knots)
    estimate = sum((-1) ** n * term for n, term in enumerate(terms, 1)) / perturbed_duration
    return float(estimate), float(sum(abs(term) for term in terms) / abs(perturbed_duration))


def _grid(profile):
    return profile(np.linspace(profile.lo, profile.hi, _VALIDATION_GRID))


def _checked_grid(g):
    """g on its validation grid, refused unless finite and of one sign there."""
    vals = _grid(g)
    if not np.all(np.isfinite(vals)):
        raise InvalidProfileError("profile is not finite on its band")
    if np.any(vals == 0.0) or (np.any(vals > 0.0) and np.any(vals < 0.0)):
        raise InvalidProfileError("profile vanishes on the sampled grid")
    return vals


def per_call_mean_speed(g) -> float:
    """``mean_speed`` with g evaluated on its grid and again inside the pass."""
    _checked_grid(g)
    duration, distance = adaptive_quadrature(
        lambda s: np.vstack([np.ones_like(s), s]) / g(s), g.lo, g.hi, g.knots
    )
    return float(distance / duration)


def per_call_sum(g, dg):
    """``g.plus(dg)`` as a profile whose every value is ``g.fn(s) + dg.fn(s)``."""
    knots = np.unique(np.clip(g.knots + dg.knots, g.lo, g.hi))
    return SpeedProfile(g.lo, g.hi, lambda s: g.fn(s) + dg.fn(s), tuple(knots.tolist()))


def per_call_ratio_statistics(g, dg) -> tuple[float, float]:
    ratio = _grid(dg) / _checked_grid(g)
    return float(np.mean(ratio)), float(np.var(ratio))


def per_call_series(g, dg, n_terms: int) -> float:
    """``perturbation_series`` with g and dg evaluated on every node of the pass."""
    ratio = _grid(dg) / _checked_grid(g)
    sup = float(np.max(np.abs(ratio)))
    if sup >= 1.0:
        raise DivergenceRiskError(f"sup|dg/g| = {sup:.6g} >= 1")
    mean = per_call_mean_speed(g)

    def rows(s):
        gs, dgs = g(s), dg(s)
        powers = np.cumprod(np.broadcast_to(dgs / gs, (n_terms, s.size)), axis=0)
        return np.vstack([1.0 / (gs + dgs), (s - mean) / gs * powers])

    perturbed_duration, *terms = adaptive_quadrature(rows, g.lo, g.hi, g.knots + dg.knots)
    return float(sum((-1) ** n * term for n, term in enumerate(terms, 1)) / perturbed_duration)
