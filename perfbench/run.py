#!/usr/bin/env python3
"""ecodrive benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload race-flat --seed 0 --seconds 35 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it holds the full record (physics, per-kind
latencies, environment).  Outputs go to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from itertools import chain, islice  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import PER_LAYER_METRICS, NullTracer, Tracer, per_layer_metrics, percentile  # noqa: E402

# one BLAS/OpenMP thread, set before numpy can be imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("race-flat", "race-hill", "slice-batch")
END_TO_END = {"setup_s": "s", "request_ref_p50": "ref", "peak_rss_mb": "MB"}
SETUP_REPEATS = 3
# the reference (about 30 ms) is timed every 40 replans inside a race,
# about 20 times per race, and once after every second slice
REPLANS_PER_REF = 40
SLICE_REF_REPEATS = 1
SLICES_PER_REF = 2
# two races of one seed per run, so their reports can be compared byte for byte
MIN_RACES = 2
MIN_SLICES = 100
SLICE_BATCH = 128


def _import_program():
    """Import ecodrive from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ecodrive

    if Path(ecodrive.__file__).resolve().parent != src / "ecodrive":
        raise ImportError(f"ecodrive imported from {ecodrive.__file__}, not {src}")
    return ecodrive


def build_inputs(workload: str, seed: int, work: Path):
    """Everything a run needs before its first request; part of ``setup_s``."""
    _import_program()
    import workloads as wl
    from ecodrive import fixtures, scenario

    if workload == "slice-batch":
        stream = wl.iter_slices(seed)
        return {"slices": list(islice(stream, SLICE_BATCH)), "stream": stream, "problems": []}
    generated = wl.RACE_FAMILIES[workload](seed)
    scenario_dir = work / "scenario"
    scenario.write_scenario(generated, scenario_dir)
    problems = []
    if not scenario.load_scenario(scenario_dir).content_equal(generated):
        problems.append("scenario files do not load back to the generated scenario")
    if seed == 0:
        fixture = fixtures.FIXTURES[generated.name]()
        if not generated.content_equal(fixture):
            problems.append(f"seed 0 does not reproduce fixture {generated.name}")
    return {"scenario": generated, "scenario_dir": scenario_dir, "problems": problems}


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh interpreters (import + inputs), one per repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _close_group(group: list, ref_before: float) -> float:
    """Time the reference after a group of slices; each gets the mean of both ends."""
    from reference import reference_seconds

    ref_after = reference_seconds(SLICE_REF_REPEATS)
    for record in group:
        record["ref_ms"] = 0.5 * (ref_before + ref_after) * 1e3
    group.clear()
    return ref_after


def run_races(seconds, trace, inputs, work, min_requests=MIN_RACES):
    import workloads as wl
    from reference import ReplanSampler

    tracer = Tracer() if trace else None
    null = NullTracer()
    requests = []  # one dict per race
    first_hash = None
    start = time.perf_counter()
    i = 0
    while True:
        done = [r["ms"] for r in requests]
        elapsed = time.perf_counter() - start
        if i >= min_requests and elapsed + _median(done) / 1e3 > seconds:
            break
        traced = trace and i % 2 == 1
        out_dir = work / f"race{i % 2}"
        record = {"request": i, "traced": traced, "failures": []}
        sampler = ReplanSampler(REPLANS_PER_REF)
        t_a = time.perf_counter()
        try:
            if traced:
                with tracer.installed(), tracer.root("request.race", i):
                    sc, result, recomputed = wl.race_request(tracer, inputs["scenario_dir"], out_dir)
            else:
                with sampler.installed():
                    sc, result, recomputed = wl.race_request(null, inputs["scenario_dir"], out_dir)
                record["ref_ms"] = statistics.fmean(sampler.samples) * 1e3
            record["ms"] = (time.perf_counter() - t_a - sampler.spent) * 1e3
            outcome = wl.check_race(sc, result, recomputed, out_dir)
            record.update(outcome.physics, sim_seconds=outcome.sim_seconds)
            record["failures"] = outcome.failures
            hashes = (outcome.physics["telemetry_sha256"], outcome.physics["summary_sha256"])
            if first_hash is None:
                first_hash = hashes
            elif hashes != first_hash:
                record["failures"].append("report differs from the first race of this seed")
        except Exception as exc:  # the run goes on; the race counts as failed
            record.setdefault("ms", (time.perf_counter() - t_a - sampler.spent) * 1e3)
            record["failures"].append(f"{type(exc).__name__}: {exc}")
        requests.append(record)
        i += 1
    return requests, tracer


def run_slices(seconds, trace, inputs, work, min_requests=MIN_SLICES):
    import workloads as wl
    from reference import reference_seconds

    tracer = Tracer() if trace else None
    null = NullTracer()
    kinds = (
        ("optimize", wl.optimize_request, wl.check_optimize),
        ("check", wl.check_request, wl.check_assumption_report),
        ("robust", wl.robust_request, wl.check_robust),
    )
    requests = []
    group = []
    stream = chain(inputs["slices"], inputs["stream"])
    start = time.perf_counter()
    ref = reference_seconds(SLICE_REF_REPEATS)
    i = 0
    while i < min_requests or time.perf_counter() - start < seconds:
        sl = next(stream)
        traced = trace and i % 2 == 1
        record = {"request": i, "traced": traced, "failures": [], "failed_ops": 0, "ms": 0.0,
                  "figures": []}
        for k, (kind, request, check) in enumerate(kinds):
            rid = 3 * i + k
            t_a = time.perf_counter()
            try:
                if traced:
                    with tracer.installed(), tracer.root(f"request.{kind}", rid):
                        out = request(tracer, sl)
                else:
                    out = request(null, sl)
                ms = (time.perf_counter() - t_a) * 1e3
                failures, figures = check(sl, out)
                record["figures"].extend(figures)
            except Exception as exc:  # the run goes on; the command counts as failed
                ms = (time.perf_counter() - t_a) * 1e3
                failures = [f"{type(exc).__name__}: {exc}"]
            record[f"{kind}_ms"] = ms
            record["ms"] += ms
            record["failures"].extend(f"{kind}: {f}" for f in failures)
            record["failed_ops"] += bool(failures)
        requests.append(record)
        group.append(record)
        if len(group) == SLICES_PER_REF:
            ref = _close_group(group, ref)
        i += 1
    if group:
        _close_group(group, ref)
    return requests, tracer


def summarize(workload, requests, oracle):
    """Metrics named in the benchmark's documentation, from the request records."""
    import hashlib

    untraced = [r for r in requests if not r["traced"]]
    m = {}
    if workload == "slice-batch":
        attempted = 3 * len(requests)
        failed = sum(r["failed_ops"] for r in requests)
        for kind in ("optimize", "check", "robust"):
            values = [r[f"{kind}_ms"] for r in untraced]
            m[f"{kind}_ms_p50"] = _median(values)
            m[f"{kind}_ms_p90"] = percentile(values, 90)
        first = requests[:MIN_SLICES]
        text = "\n".join(" ".join(f"{x:.9g}" for x in r["figures"]) for r in first)
        m["answers_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    else:
        attempted = len(requests)
        failed = sum(1 for r in requests if r["failures"])
        m["race_s"] = _median([r["ms"] for r in untraced]) / 1e3
        physics = [r for r in requests if "total_energy_J" in r]
        if physics:
            p = physics[0]
            for key in ("total_energy_J", "switches", "finish_time_s", "replans", "fallbacks",
                        "telemetry_sha256", "summary_sha256"):
                m[key] = p[key]
            if oracle is not None:
                m["oracle_energy_J"] = oracle["energy"]
                m["oracle_switches"] = oracle["switches"]
                m["energy_gap_pct"] = abs(p["total_energy_J"] - oracle["energy"]) / oracle["energy"] * 100
                m["switch_gap"] = abs(p["switches"] - oracle["switches"])
    m["request_ms_p50"] = _median([r["ms"] for r in untraced])
    referenced = [r for r in untraced if "ref_ms" in r]
    m["request_ref_p50"] = _median([r["ms"] / r["ref_ms"] for r in referenced])
    m["reference_ms_p50"] = _median([r["ref_ms"] for r in referenced])
    m["failed_frac"] = failed / attempted if attempted else 0.0
    return m, attempted, failed


def layer_metrics(workload, requests, tracer):
    traced = [r for r in requests if r["traced"]]
    untraced = [r for r in requests if not r["traced"]]
    if workload == "slice-batch":
        request_of = {3 * r["request"] + k: r["request"] for r in traced for k in range(3)}
    else:
        request_of = {r["request"]: r["request"] for r in traced}
    overhead = 0.0
    if traced and untraced:
        overhead = _median([r["ms"] for r in traced]) / _median([r["ms"] for r in untraced]) - 1.0
    sim_seconds = sum(r.get("sim_seconds", 0.0) for r in traced)
    return per_layer_metrics(tracer.spans, request_of, sim_seconds, overhead)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    work = OUT / "work" / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    if args.setup_probe:
        t0 = time.perf_counter()
        build_inputs(args.workload, args.seed, work / "probe")
        print(repr(time.perf_counter() - t0))
        return 0

    load_before = os.getloadavg()
    try:
        inputs = build_inputs(args.workload, args.seed, work)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    setup_times = measure_setup(args.workload, args.seed)
    import workloads as wl

    oracle = None
    if args.workload == "race-flat":
        cfg = inputs["scenario"].controller
        oracle = wl.load_oracle(ROOT).event_race(cfg.race_length, cfg.race_duration)

    runner = run_slices if args.workload == "slice-batch" else run_races
    requests, tracer = runner(args.seconds, args.trace, inputs, work)

    named, attempted, failed = summarize(args.workload, requests, oracle)
    named["setup_s"] = _median(setup_times)
    named["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = list(inputs["problems"])
    failures = [f"request {r['request']}: {f}" for r in requests for f in r["failures"]]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": wl.HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "requests": len(requests),
        "setup_s_samples": setup_times,
        "request_ms": [r["ms"] for r in requests],
        "reference_ms": [r.get("ref_ms") for r in requests],
        "metrics": named,
        "problems": problems,
        "failures": failures[:50],
        "environment": environment(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "wall_s": time.perf_counter() - _STARTED,
    }
    if args.trace:
        metrics = layer_metrics(args.workload, requests, tracer)
        detail["per_layer"] = metrics
        units = PER_LAYER_METRICS
        tracer.write_csv(OUT / f"spans-{args.workload}-{args.seed}.csv")
    else:
        metrics = {k: named[k] for k in END_TO_END}
        units = END_TO_END
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
