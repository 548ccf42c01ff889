"""Spans recorded from outside the program, and the per-layer metrics they yield.

The tracer replaces the module attributes that ecodrive's own callers look
up (``controller.replan``, ``optimizer.leg_time_distance``, ...), so no file
of the package changes.  Every span records its name, start, end, parent
span and operation id, plus an optional note taken from the call's result.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

# replans that did not solve for the target band
FALLBACK_FLAGS = ("target_unreachable", "infeasible_slice")

PER_LAYER_METRICS = {
    "dynamics.freeze_calls": "count",
    "dynamics.freeze_us_p50": "us",
    "dynamics.freeze_s": "s",
    "dynamics.distinct_slices": "count",
    "dynamics.freeze_reuse_frac": "frac",
    "controller.replan_calls": "count",
    "controller.replan_ms_p50": "ms",
    "controller.replan_ms_p90": "ms",
    "controller.replan_s": "s",
    "controller.fallback_frac": "frac",
    "controller.propagate_s": "s",
    "controller.propagate_us_per_sim_s": "us/s",
    "optimizer.optimal_band_calls": "count",
    "optimizer.optimal_band_ms_p50": "ms",
    "optimizer.optimal_band_s": "s",
    "optimizer.candidates": "count",
    "optimizer.candidate_fail_frac": "frac",
    "optimizer.legs_per_candidate": "count",
    "quadrature.leg_calls": "count",
    "quadrature.leg_us_p50": "us",
    "quadrature.leg_s": "s",
    "quadrature.period_stats_calls": "count",
    "quadrature.period_stats_s": "s",
    "quadrature.adaptive_calls": "count",
    "quadrature.adaptive_s": "s",
    "robustness.series_calls": "count",
    "robustness.series_ms_p50": "ms",
    "robustness.mean_speed_calls": "count",
    "scenario.load_s": "s",
    "scenario.emit_s": "s",
    "scenario.report_bytes": "B",
    "scenario.recompute_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}


class NullTracer:
    """Stand-in used for untraced operations: calls go straight through."""

    def call(self, name, fn, *args, note=None, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """In-memory span recorder.

    A span is the tuple ``(name, start, end, parent, rid, note)``; ``parent``
    is the index of the enclosing span or -1, ``rid`` the operation id.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = [-1]
        self._rid = -1
        self._saved: list = []

    def _record(self, name, fn, args, kwargs, note):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(idx)
        result = None
        status = "error"
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            status = ""
            return result
        finally:
            end = perf_counter()
            stack.pop()
            if status == "" and note is not None:
                status = note(result)
            spans[idx] = (name, start, end, parent, self._rid, status)

    def call(self, name, fn, *args, note=None, **kwargs):
        return self._record(name, fn, args, kwargs, note)

    def wrap(self, name, fn, note=None):
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs, note)

        return traced

    @contextmanager
    def root(self, name, rid):
        """Root span of one operation; everything inside carries ``rid``."""
        self._rid = rid
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        status = "error"
        try:
            yield
            status = ""
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, -1, rid, status)
            self._rid = -1

    def patch(self, module, attr, name, note=None) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, note))

    @contextmanager
    def installed(self):
        """Wrap the layer entry points for the duration of the block."""
        from ecodrive import controller, dynamics, optimizer, quadrature, robustness

        patches = [
            (controller, "replan", "controller.replan", _replan_note),
            (controller, "freeze", "dynamics.freeze", slice_note),
            (controller, "optimal_band", "optimizer.optimal_band", None),
            (controller, "band_from_limits", "optimizer.band_from_limits", None),
            (optimizer, "band_cost", "optimizer.band_cost", None),
            (optimizer, "band_from_limits", "optimizer.band_from_limits", None),
            (optimizer, "optimal_band", "optimizer.optimal_band", None),
            (optimizer, "leg_time_distance", "quadrature.leg_time_distance", None),
            (optimizer, "period_stats", "quadrature.period_stats", None),
            (quadrature, "adaptive_quadrature", "quadrature.adaptive_quadrature", None),
            (robustness, "adaptive_quadrature", "quadrature.adaptive_quadrature", None),
            (robustness, "mean_speed", "robustness.mean_speed", None),
            (robustness, "perturbation_series", "robustness.perturbation_series", None),
            (dynamics, "check_assumptions", "dynamics.check_assumptions", None),
        ]
        for module, attr, name, note in patches:
            self.patch(module, attr, name, note)
        try:
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,request_id,note\n")
            for i, (name, start, end, parent, rid, note) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{rid},{note}\n")


def _replan_note(record) -> str:
    return record.flag if record.flag in FALLBACK_FLAGS else ""


def slice_note(frozen) -> str:
    """Key of a frozen slice; vehicle and power model are fixed within one operation."""
    return f"{frozen.slope!r}/{frozen.wind_speed!r}"


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children.get(i, ())
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def percentile(values, q: int) -> float:
    """Inclusive-method percentile ``q`` (1..99); 0 for an empty sample."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def per_layer_metrics(spans, request_of: dict[int, int], sim_seconds: float,
                      overhead_frac: float) -> dict[str, float]:
    """Reduce the spans of the traced requests to the per-layer metrics.

    ``request_of`` maps each operation id to its request (a race, or one
    slice with its three commands); counts and ``_s`` totals are per request.
    ``sim_seconds`` is the simulated race time summed over traced requests.
    """
    n_req = max(len(set(request_of.values())), 1)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)
    selfs = self_times(spans)

    def durations(name):
        return [spans[i][2] - spans[i][1] for i in by_name.get(name, ())]

    def count(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(durations(name))

    m: dict[str, float] = {}
    freezes = by_name.get("dynamics.freeze", [])
    distinct = len({(spans[i][4], spans[i][5]) for i in freezes})
    m["dynamics.freeze_calls"] = len(freezes) / n_req
    m["dynamics.freeze_us_p50"] = percentile(durations("dynamics.freeze"), 50) * 1e6
    m["dynamics.freeze_s"] = total("dynamics.freeze") / n_req
    m["dynamics.distinct_slices"] = distinct / n_req
    m["dynamics.freeze_reuse_frac"] = 1.0 - distinct / len(freezes) if freezes else 0.0

    replans = by_name.get("controller.replan", [])
    m["controller.replan_calls"] = len(replans) / n_req
    m["controller.replan_ms_p50"] = percentile(durations("controller.replan"), 50) * 1e3
    m["controller.replan_ms_p90"] = percentile(durations("controller.replan"), 90) * 1e3
    m["controller.replan_s"] = total("controller.replan") / n_req
    fallbacks = sum(1 for i in replans if spans[i][5] in FALLBACK_FLAGS)
    m["controller.fallback_frac"] = fallbacks / len(replans) if replans else 0.0
    propagate = sum(selfs[i] for i in by_name.get("controller.run_race", ()))
    m["controller.propagate_s"] = propagate / n_req
    m["controller.propagate_us_per_sim_s"] = (
        propagate / sim_seconds * 1e6 if sim_seconds > 0.0 else 0.0
    )

    cands = by_name.get("optimizer.band_cost", [])
    failed = sum(1 for i in cands if spans[i][5] == "error")
    m["optimizer.optimal_band_calls"] = count("optimizer.optimal_band") / n_req
    m["optimizer.optimal_band_ms_p50"] = percentile(durations("optimizer.optimal_band"), 50) * 1e3
    m["optimizer.optimal_band_s"] = total("optimizer.optimal_band") / n_req
    m["optimizer.candidates"] = len(cands) / n_req
    m["optimizer.candidate_fail_frac"] = failed / len(cands) if cands else 0.0
    legs = count("quadrature.leg_time_distance")
    m["optimizer.legs_per_candidate"] = legs / len(cands) if cands else 0.0

    m["quadrature.leg_calls"] = legs / n_req
    m["quadrature.leg_us_p50"] = percentile(durations("quadrature.leg_time_distance"), 50) * 1e6
    m["quadrature.leg_s"] = total("quadrature.leg_time_distance") / n_req
    m["quadrature.period_stats_calls"] = count("quadrature.period_stats") / n_req
    m["quadrature.period_stats_s"] = total("quadrature.period_stats") / n_req
    m["quadrature.adaptive_calls"] = count("quadrature.adaptive_quadrature") / n_req
    m["quadrature.adaptive_s"] = total("quadrature.adaptive_quadrature") / n_req

    m["robustness.series_calls"] = count("robustness.perturbation_series") / n_req
    m["robustness.series_ms_p50"] = (
        percentile(durations("robustness.perturbation_series"), 50) * 1e3
    )
    m["robustness.mean_speed_calls"] = count("robustness.mean_speed") / n_req

    m["scenario.load_s"] = total("scenario.load_scenario") / n_req
    m["scenario.emit_s"] = total("scenario.emit_report") / n_req
    m["scenario.report_bytes"] = (
        sum(float(spans[i][5] or 0) for i in by_name.get("scenario.emit_report", ())) / n_req
    )
    m["scenario.recompute_s"] = total("scenario.recompute_summary") / n_req

    roots = [i for i, span in enumerate(spans) if span[3] < 0]
    wall = sum(spans[i][2] - spans[i][1] for i in roots)
    layer_self = sum(s for i, s in enumerate(selfs) if spans[i][3] >= 0)
    m["trace.overhead_frac"] = overhead_frac
    m["trace.coverage_frac"] = layer_self / wall if wall > 0.0 else 0.0
    return m
