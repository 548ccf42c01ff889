"""A fixed reference computation, timed next to the requests.

The host this benchmark runs on is shared: its speed changes by a quarter
or more from one second to the next and from one minute to the next, as
neighbours come and go, and the same race takes 8 s or 15 s.  Dividing each
request's time by the time of this reference, measured alongside it,
cancels most of that.  The reference mimics the
program's mix, scalar midpoint steps of a drag law and small-array
quadrature panels, but it never calls ecodrive, so no change to the program
can change it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

_NODES = np.linspace(-1.0, 1.0, 15)
_WEIGHTS = np.full(15, 1.0 / 15.0)
STEPS = 40_000
PANELS = 2_000


def _kernel() -> float:
    v = x = 0.0
    for _ in range(STEPS):
        a = 0.17 - 6e-4 * v * v
        vm = v + 0.5e-3 * a
        x += 1e-3 * vm
        v += 1e-3 * (0.17 - 6e-4 * vm * vm)
    total = 0.0
    for k in range(PANELS):
        lo, hi = 1.0 + 1e-4 * k, 9.0
        half = 0.5 * (hi - lo)
        xs = 0.5 * (hi + lo) + half * _NODES
        inv = 1.0 / (0.17 - 6e-4 * xs * xs)
        total += half * float(np.dot(_WEIGHTS, inv)) + half * float(np.dot(_WEIGHTS, xs * inv))
    return x + v + total


def reference_seconds(repeats: int) -> float:
    """Seconds per reference computation, averaged over ``repeats`` of them."""
    start = time.perf_counter()
    for _ in range(repeats):
        _kernel()
    return (time.perf_counter() - start) / repeats


class ReplanSampler:
    """Times the reference every ``every`` replans, inside an untraced race.

    A race runs for seconds, longer than the host keeps one speed, so the
    reference is sampled throughout it: the sampler wraps
    ``controller.replan``, the attribute ``run_race`` looks up.  ``spent``
    is the time the samples took, to be taken out of the race's time.
    """

    def __init__(self, every: int) -> None:
        self.every = every
        self.samples: list[float] = []
        self.spent = 0.0

    @contextmanager
    def installed(self):
        from ecodrive import controller

        original = controller.replan
        calls = 0

        def replan(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls % self.every == 1:
                start = time.perf_counter()
                self.samples.append(reference_seconds(1))
                self.spent += time.perf_counter() - start
            return original(*args, **kwargs)

        controller.replan = replan
        try:
            yield self
        finally:
            controller.replan = original
