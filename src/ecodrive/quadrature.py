"""Adaptive Gauss-Kronrod quadrature of the speed moments of an integrand.

The loop returns both speed moments, the integrals of fn(s) and s fn(s), of
any continuous vectorized integrand on a closed interval; it serves the
robustness series.  The legs of the model's own slices come in closed form
from ``FrozenDynamics.leg_time_distance``.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

import numpy as np

from .errors import NumericError

REL_TOL = 1e-8
ABS_FLOOR = 1e-12
MAX_PANELS = 4096

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


# one product with the node values gives both rules for both moments
_WEIGHTS = np.column_stack(
    [_WEIGHTS_K, _WEIGHTS_G, _WEIGHTS_K * _NODES, _WEIGHTS_G * _NODES]
)


def _panel(
    fn: Callable[[np.ndarray], np.ndarray], a: float, b: float
) -> tuple[float, float, float]:
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    k0, g0, k1, g1 = (fn(center + half * _NODES) @ _WEIGHTS).tolist()
    m0 = half * k0
    m1 = center * m0 + half * half * k1
    if not (math.isfinite(m0) and math.isfinite(m1)):
        raise NumericError(f"integrand is not finite on [{a}, {b}]")
    err0 = half * abs(k0 - g0)
    err1 = half * abs(center * (k0 - g0) + half * (k1 - g1))
    return m0, m1, max(err0, err1 / max(abs(a), abs(b), 1.0))


def speed_moments(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
) -> tuple[float, float]:
    """Integrals of fn(s) and s fn(s) over [lo, hi] by bisection of the worst panel.

    ``fn`` only needs to be continuous and vectorized.  Each panel is scored
    with the embedded Gauss-7 rule on both moments, the first moment's error
    scaled down by the panel's speed magnitude, and the worst panel is split
    until the summed error drops below ``max(REL_TOL * |int fn|, ABS_FLOOR)``.
    """
    if lo == hi:
        return 0.0, 0.0
    sign = 1.0
    if lo > hi:
        lo, hi, sign = hi, lo, -1.0
    m0, m1, err = _panel(fn, lo, hi)
    heap = [(-err, lo, hi, m0, m1)]
    total_err = err
    panels = 1
    while total_err > max(REL_TOL * abs(m0), ABS_FLOOR):
        if panels >= MAX_PANELS:
            raise NumericError(
                f"quadrature exhausted {MAX_PANELS} panels on [{lo}, {hi}]"
            )
        neg_err, a, b, old0, old1 = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        l0, l1, el = _panel(fn, a, mid)
        r0, r1, er = _panel(fn, mid, b)
        m0 += l0 + r0 - old0
        m1 += l1 + r1 - old1
        total_err += el + er + neg_err
        heapq.heappush(heap, (-el, a, mid, l0, l1))
        heapq.heappush(heap, (-er, mid, b, r0, r1))
        panels += 1
    return sign * m0, sign * m1


def adaptive_quadrature(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
) -> float:
    """Integral of a vectorized integrand: the first of its speed moments."""
    return speed_moments(fn, lo, hi)[0]
