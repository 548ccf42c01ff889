"""Adaptive Gauss-Kronrod quadrature of a vectorized integrand, row by row.

The loop integrates one continuous vectorized integrand, or a stack of them
on shared panels; it serves the robustness layer.  The legs of the model's
own slices come in closed form from ``FrozenDynamics.leg_time_distance``.
"""

from __future__ import annotations

import heapq
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
# one product with the node values gives both rules for every row; the
# Gauss-7 points sit at every other Kronrod node
_WEIGHTS = np.zeros((_NODES.size, 2))
_WEIGHTS[:, 0] = np.concatenate([_KRONROD_W[:-1], _KRONROD_W[::-1]])
_WEIGHTS[1::2, 1] = np.concatenate([_GAUSS_W, _GAUSS_W[2::-1]])


def _panels(fn: Callable[[np.ndarray], np.ndarray], edges: np.ndarray) -> np.ndarray:
    """Each row's integral and error estimate on each panel between consecutive edges.

    ``fn`` is called once on the nodes of all the panels.  The result holds
    the Kronrod integral and its distance from the embedded Gauss-7 rule,
    with shape ``(2, panels)``, or ``(2, rows, panels)`` when ``fn`` returns
    a stack.
    """
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    values = np.asarray(fn((0.5 * (a + b)[:, None] + half[:, None] * _NODES).ravel()))
    sums = values.reshape(values.shape[:-1] + (a.size, _NODES.size)) @ _WEIGHTS
    if not np.isfinite(sums).all():
        raise NumericError(f"integrand is not finite on [{edges[0]}, {edges[-1]}]")
    kronrod, gauss = sums[..., 0], sums[..., 1]
    return np.stack([half * kronrod, half * np.abs(kronrod - gauss)])


def adaptive_quadrature(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, knots=()):
    """Integral over [lo, hi] of each row of fn by bisection of the worst panel.

    ``fn`` only needs to be vectorized and smooth between ``knots``, where
    the first panels start, all in one call.  A ``(k, n)`` result is a stack
    of k integrands, integrated on shared panels into a length-k array; a
    1-d result gives a float.  Until every row's summed error is below
    ``max(REL_TOL * |int row|, ABS_FLOOR)``, the panel worst against that
    rule is split, both halves in one call of ``fn``.
    """
    if lo == hi:
        return 0.0
    sign = 1.0 if lo < hi else -1.0
    edges = np.unique([lo, *knots, hi])
    panels = np.moveaxis(_panels(fn, edges), -1, 0)
    total = panels.sum(axis=0)
    # each row's error in units of its rule, as first estimated
    scale = 1.0 / np.maximum(REL_TOL * np.abs(total[0]), ABS_FLOOR)
    worst = (panels[:, 1] * scale).reshape(len(panels), -1).max(axis=1)
    heap = sorted(zip((-worst).tolist(), edges[:-1], edges[1:], panels))
    while np.any(total[1] > np.maximum(REL_TOL * np.abs(total[0]), ABS_FLOOR)):
        if len(heap) >= MAX_PANELS:
            raise NumericError(
                f"quadrature exhausted {MAX_PANELS} panels on [{edges[0]}, {edges[-1]}]"
            )
        _, a, b, old = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        halves = _panels(fn, np.array([a, mid, b]))
        total = total + (halves[..., 0] + halves[..., 1] - old)
        for i, (x, y) in enumerate(((a, mid), (mid, b))):
            worst = float(np.max(halves[1, ..., i] * scale))
            heapq.heappush(heap, (-worst, x, y, halves[..., i]))
    return sign * float(total[0]) if total.ndim == 1 else sign * total[0]
