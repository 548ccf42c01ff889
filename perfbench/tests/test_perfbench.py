"""Tests of the benchmark itself: generators, span arithmetic, metric names.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import re
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from ecodrive import ControllerConfig, FrozenDynamics, TrackProfile, fixtures, scenario  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# the end-to-end figures the benchmark reports, by workload
RACE_FIGURES = {"race_s", "peak_rss_mb", "failed_frac", "setup_s", "total_energy_J", "switches",
                "finish_time_s", "replans", "fallbacks", "telemetry_sha256", "summary_sha256"}
FLAT_FIGURES = RACE_FIGURES | {"energy_gap_pct", "switch_gap"}
SLICE_FIGURES = {"optimize_ms_p50", "optimize_ms_p90", "check_ms_p50", "check_ms_p90",
                 "robust_ms_p50", "robust_ms_p90", "peak_rss_mb", "failed_frac", "setup_s"}


# --- generators --------------------------------------------------------------

@pytest.mark.parametrize("family", sorted(wl.RACE_FAMILIES))
def test_race_generator_is_deterministic_and_seed_dependent(family):
    make = wl.RACE_FAMILIES[family]
    for seed in (1, 2, wl.HELD_OUT_SEED):
        assert make(seed).content_equal(make(seed))
    assert not make(1).content_equal(make(2))


def test_seed_zero_reproduces_the_fixtures():
    assert wl.flat_scenario(0).content_equal(fixtures.flat16500())
    assert wl.hill_scenario(0).content_equal(fixtures.hill())


def test_flat_family_targets_stay_in_range():
    for seed in range(1, 30):
        cfg = wl.flat_scenario(seed).controller
        assert 6.6 <= cfg.race_length / cfg.race_duration <= 7.4


def test_slice_stream_is_deterministic_and_seed_dependent():
    first = list(islice(wl.iter_slices(3), 20))
    assert first == list(islice(wl.iter_slices(3), 20))
    assert first != list(islice(wl.iter_slices(4), 20))
    assert len(set(first)) == len(first)


def test_slices_follow_the_documented_ranges():
    slices = list(islice(wl.iter_slices(5), 200))
    assert any(sl.params.signed_drag for sl in slices)
    assert {sl.power.kind for sl in slices} == {"wheel_power", "constant_electrical"}
    for sl in slices:
        assert abs(sl.slope) <= 0.015 and abs(sl.wind) <= 3.0
        assert 5.0 <= sl.params.switch_cost <= 20.0
        assert not wl.second_rest_speed(sl.params, sl.slope, sl.wind)
        ratios = [d / g for d, g in zip(sl.dg, sl.g)]
        assert max(abs(r) for r in ratios) <= 0.3 + 1e-12
        assert max(ratios) - min(ratios) > 1e-3  # not a proportional perturbation


# the program divides by zero on such a slice; that is why the stream skips it
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_second_rest_speed_is_what_check_assumptions_rejects():
    from ecodrive import PowerModel, VehicleParams, check_assumptions

    params = VehicleParams()
    assert wl.second_rest_speed(params, -0.0033, 2.16)
    frozen = FrozenDynamics.from_conditions(params, PowerModel(), -0.0033, 2.16)
    report = check_assumptions(frozen)
    assert not report.item("engine_off_equilibrium").passed
    assert math.isnan(report.inequality_lhs)
    assert not wl.second_rest_speed(params, -0.0033, -2.16)
    assert not wl.second_rest_speed(VehicleParams(signed_drag=True), -0.0033, 2.16)


def test_slice_equilibria_match_the_program():
    for sl in islice(wl.iter_slices(6), 40):
        v_low, v_high = wl.slice_equilibria(sl.params, sl.slope, sl.wind)
        frozen = FrozenDynamics.from_conditions(sl.params, sl.power, sl.slope, sl.wind)
        assert frozen.v_low == pytest.approx(v_low, abs=1e-7)
        assert frozen.v_high == pytest.approx(v_high, abs=1e-7)
        assert v_low < sl.target < v_high


# --- spans -------------------------------------------------------------------

def _span(name, start, end, parent, rid=0, note=""):
    return (name, start, end, parent, rid, note)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 5.0, 0),      # overlaps a: union of a and b is 4
        _span("c", 8.0, 12.0, 0),     # runs past the parent: only 2 count
        _span("a.1", 1.5, 2.0, 1),
        _span("a.2", 2.5, 3.0, 1),
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 2.0, 4.0, 0.5, 0.5])


def test_propagation_is_run_race_minus_its_replans():
    tree = [
        _span("request.race", 0.0, 10.0, -1),
        _span("scenario.load_scenario", 0.0, 0.5, 0),
        _span("controller.run_race", 0.5, 9.5, 0),
        _span("controller.replan", 1.0, 2.0, 2),
        _span("dynamics.freeze", 1.0, 1.25, 3, note="0.0/0.0"),
        _span("controller.replan", 4.0, 5.0, 2, note="target_unreachable"),
        _span("dynamics.freeze", 4.0, 4.25, 5, note="0.0/0.0"),
    ]
    m = spans.per_layer_metrics(tree, {0: 0}, sim_seconds=100.0, overhead_frac=0.1)
    assert m["controller.propagate_s"] == pytest.approx(7.0)
    assert m["controller.propagate_us_per_sim_s"] == pytest.approx(7.0e4)
    assert m["controller.replan_calls"] == 2
    assert m["controller.fallback_frac"] == 0.5
    assert m["dynamics.distinct_slices"] == 1
    assert m["dynamics.freeze_reuse_frac"] == 0.5
    assert m["trace.coverage_frac"] == pytest.approx(0.95)  # 0.5 s of the root is uncovered
    assert m["trace.overhead_frac"] == 0.1


def test_tracer_records_parents_and_failures():
    tracer = spans.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    def outer(x):
        return tracer.call("inner", inner, x)

    with tracer.root("request.test", 7):
        tracer.call("outer", outer, 1)
        with pytest.raises(ValueError):
            tracer.call("outer", outer, -1)
    names = [s[0] for s in tracer.spans]
    assert names == ["request.test", "outer", "inner", "outer", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0, 3]
    assert {s[4] for s in tracer.spans} == {7}
    assert [s[5] for s in tracer.spans] == ["", "", "", "error", "error"]


def test_installed_patches_are_undone():
    from ecodrive import controller, optimizer, quadrature

    before = (controller.replan, optimizer.leg_time_distance, quadrature.adaptive_quadrature)
    with spans.Tracer().installed():
        assert controller.replan is not before[0]
    assert (controller.replan, optimizer.leg_time_distance, quadrature.adaptive_quadrature) == before


def test_reference_is_independent_of_the_program():
    import inspect

    import reference

    assert "ecodrive" not in inspect.getsource(reference._kernel)
    assert reference.reference_seconds(1) > 0.0


def test_sampler_times_the_reference_inside_a_race_and_restores_replan():
    from reference import ReplanSampler

    from ecodrive import controller, run_race

    short = fixtures.flat16500()
    cfg = ControllerConfig(race_length=500.0, race_duration=72.0)
    original = controller.replan
    sampler = ReplanSampler(every=10)
    with sampler.installed():
        result = run_race(TrackProfile.flat(500.0), short.wind, short.params, short.power, cfg)
    assert controller.replan is original
    assert len(sampler.samples) == math.ceil(len(result.replans) / 10)
    assert sampler.spent >= sum(sampler.samples)


# --- metric names --------------------------------------------------------------

def test_metric_names_and_units_use_the_allowed_characters():
    for table in (run.END_TO_END, spans.PER_LAYER_METRICS):
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit


def test_benchmark_json_matches_what_the_script_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _short_race_inputs(tmp_path):
    base = fixtures.flat16500()
    short = scenario.Scenario(
        name="short", params=base.params, power=base.power,
        track=TrackProfile.flat(1000.0, safe_speed=12.0), wind=base.wind,
        controller=ControllerConfig(race_length=1000.0, race_duration=143.0),
    )
    scenario.write_scenario(short, tmp_path / "scenario")
    return {"scenario": short, "scenario_dir": tmp_path / "scenario", "problems": []}


@pytest.mark.parametrize("trace", [0, 1])
def test_race_run_reports_every_metric(tmp_path, trace):
    inputs = _short_race_inputs(tmp_path)
    requests, tracer = run.run_races(0.0, trace, inputs, tmp_path)
    oracle = wl.load_oracle(ROOT).event_race(1000.0, 143.0)
    named, attempted, failed = run.summarize("race-flat", requests, oracle)
    assert (attempted, failed) == (2, 0)
    assert requests[0]["telemetry_sha256"] == requests[1]["telemetry_sha256"]
    named.update(setup_s=1.0, peak_rss_mb=1.0)
    assert FLAT_FIGURES <= set(named)
    assert set(run.END_TO_END) <= set(named)
    if trace:
        m = run.layer_metrics("race-flat", requests, tracer)
        assert set(m) == set(spans.PER_LAYER_METRICS)
        assert m["controller.replan_calls"] == 48  # one per 3 s of a 143 s race
        assert m["dynamics.distinct_slices"] == 1
        assert 0.9 < m["trace.coverage_frac"] <= 1.0


@pytest.mark.parametrize("trace", [0, 1])
def test_slice_run_reports_every_metric(tmp_path, trace):
    stream = wl.iter_slices(2)
    inputs = {"slices": list(islice(stream, 2)), "stream": stream, "problems": []}
    requests, tracer = run.run_slices(0.0, trace, inputs, tmp_path, min_requests=4)
    named, attempted, failed = run.summarize("slice-batch", requests, None)
    assert (attempted, failed) == (12, 0)
    named.update(setup_s=1.0, peak_rss_mb=1.0)
    assert SLICE_FIGURES <= set(named)
    assert set(run.END_TO_END) <= set(named)
    if trace:
        m = run.layer_metrics("slice-batch", requests, tracer)
        assert set(m) == set(spans.PER_LAYER_METRICS)
        assert m["robustness.series_calls"] == 1
        assert m["dynamics.freeze_calls"] == 2
        assert m["dynamics.freeze_reuse_frac"] == 0.0
        assert m["controller.replan_calls"] == 0


def test_failed_operations_are_counted_not_raised(tmp_path):
    stream = wl.iter_slices(2)
    bad = next(stream)
    bad = wl.Slice(bad.params, bad.power, bad.slope, bad.wind, bad.target, bad.v_safe,
                   bad.speeds, tuple(0.0 for _ in bad.g), bad.dg)
    inputs = {"slices": [bad], "stream": stream, "problems": []}
    requests, _ = run.run_slices(0.0, 0, inputs, tmp_path, min_requests=1)
    named, attempted, failed = run.summarize("slice-batch", requests, None)
    assert (attempted, failed) == (3, 1)
    assert math.isclose(named["failed_frac"], 1 / 3)
