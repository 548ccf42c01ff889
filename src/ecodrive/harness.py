"""Command-line interface: band optimization, race simulation, checks, reports.

All numeric output is printed in SI units with 9 significant digits.  Every
subcommand exits nonzero on any error and zero otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import fixtures as fixtures_mod
from .controller import run_race
from .dynamics import FrozenDynamics, check_assumptions, read_csv_rows
from .errors import EcodriveError, ScenarioError
from .optimizer import optimal_band
from .scenario import (
    Scenario,
    default_out_dir,
    emit_report,
    load_params,
    load_scenario,
    read_summary,
    recompute_summary_from_telemetry,
    write_scenario,
)


def _fmt(x: float | None) -> str:
    if x is None:
        return "none"
    return f"{x:.9g}"


def _print_kv(key: str, value) -> None:
    if isinstance(value, float):
        print(f"{key} {_fmt(value)}")
    else:
        print(f"{key} {value}")


def cmd_optimize(args) -> int:
    params, power = load_params(args.params)
    frozen = FrozenDynamics.from_conditions(params, power, args.slope, args.wind)
    band = optimal_band(frozen, args.target, v_safe=args.vsafe, delta=args.delta)
    _print_kv("v_low_mps", frozen.v_low)
    _print_kv("v_high_mps", frozen.v_high)
    _print_kv("lower_mps", band.lower)
    _print_kv("upper_mps", band.upper)
    _print_kv("period_s", band.period)
    _print_kv("distance_m", band.distance)
    _print_kv("energy_J", band.energy)
    _print_kv("avg_cost_W", band.avg_cost)
    _print_kv("avg_speed_mps", band.avg_speed)
    return 0


def cmd_check_assumptions(args) -> int:
    params, power = load_params(args.params)
    frozen = FrozenDynamics.from_conditions(params, power, args.slope, args.wind)
    report = check_assumptions(frozen)
    for item in report.items:
        status = {True: "PASS", False: "FAIL", None: "INDETERMINATE"}[item.passed]
        witness = " ".join(
            f"{k}={_fmt(v) if isinstance(v, float) else v}" for k, v in item.witness.items()
        )
        print(f"{item.name} {status} {witness}".rstrip())
    _print_kv("inequality_lhs", report.inequality_lhs)
    _print_kv("inequality_rhs", report.inequality_rhs)
    _print_kv("convexity_verdict", report.convexity_verdict)
    print(f"overall {'PASS' if report.passed else 'FAIL'}")
    return 0


def _simulate_scenario(scenario: Scenario, out_dir: Path) -> dict:
    result = run_race(
        scenario.track, scenario.wind, scenario.params, scenario.power, scenario.controller
    )
    emit_report(result, scenario, out_dir)
    return result.summary_dict()


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario, tuple(args.set))
    out_dir = default_out_dir(args.scenario, args.out)
    summary = _simulate_scenario(scenario, out_dir)
    _print_kv("out_dir", out_dir)
    for key in (
        "finish_time_s",
        "total_energy_J",
        "switches",
        "min_switch_gap_s",
        "avg_speed_mps",
    ):
        value = summary[key]
        _print_kv(key, float(value) if isinstance(value, (int, float)) else value)
    _print_kv("flags", ",".join(summary["flags"]) or "none")
    return 0


def _read_profile_table(path: str) -> tuple[list[float], list[float]]:
    rows = read_csv_rows(path, ("s_mps", "value"))
    return [r[0] for r in rows], [r[1] for r in rows]


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _finite_float(text: str) -> float:
    if not math.isfinite(float(text)):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return float(text)


def _positive_float(text: str) -> float:
    if not 0.0 < float(text) < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return float(text)


def _safety_speed(text: str) -> float:
    return math.inf if float(text) == math.inf else _positive_float(text)


def cmd_robustness(args) -> int:
    # imported here: robustness needs numpy, which no race or slice command loads
    from .robustness import SpeedProfile, mean_speed, perturbation_series, ratio_statistics

    g = SpeedProfile.from_samples(*_read_profile_table(args.g))
    dg = SpeedProfile.from_samples(*_read_profile_table(args.dg))
    # three passes, each profile evaluated once per array of speeds; the series reads g's mean
    base = mean_speed(g)
    perturbed = mean_speed(g.plus(dg))
    direct = perturbed - base
    estimate = perturbation_series(g, dg, args.terms)
    ratio_mean, ratio_var = ratio_statistics(g, dg)
    _print_kv("mean_speed_mps", base)
    _print_kv("perturbed_mean_mps", perturbed)
    _print_kv("direct_difference_mps", direct)
    _print_kv("series_estimate_mps", estimate)
    _print_kv("residual_mps", abs(estimate - direct))
    _print_kv("ratio_mean", ratio_mean)
    _print_kv("ratio_variance", ratio_var)
    return 0


def _sweep_variant(task: tuple[str, tuple[str, ...], str, str]) -> tuple[str, dict]:
    scenario_dir, overrides, out_sub, value = task
    scenario = load_scenario(scenario_dir, overrides)
    summary = _simulate_scenario(scenario, Path(out_sub))
    return value, summary


def cmd_sweep(args) -> int:
    if "=" not in args.vary:
        raise ScenarioError(f"--vary must be key=v1,v2,..., got {args.vary!r}")
    key, raw_values = args.vary.split("=", 1)
    values = [v.strip() for v in raw_values.split(",") if v.strip()]
    if not values:
        raise ScenarioError("--vary lists no values")
    out_root = default_out_dir(args.scenario, args.out)
    tasks = []
    for value in values:
        overrides = tuple(args.set) + (f"{key}={value}",)
        out_sub = out_root / f"{key}={value}"
        tasks.append((args.scenario, overrides, str(out_sub), value))
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: its import is slow
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_variant, tasks))
    else:
        results = [_sweep_variant(task) for task in tasks]
    merged = {value: summary for value, summary in results}
    merged_path = out_root / "sweep_summary.json"
    out_root.mkdir(parents=True, exist_ok=True)
    merged_path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    _print_kv("out_dir", out_root)
    for value, summary in results:
        energy = summary["total_energy_J"]
        avg = summary["avg_speed_mps"]
        print(f"{key}={value} total_energy_J {_fmt(energy)} avg_speed_mps {_fmt(avg)}")
    return 0


def cmd_report(args) -> int:
    stored = read_summary(args.result)
    recomputed = recompute_summary_from_telemetry(args.result)
    consistent = True
    for key, value in recomputed.items():
        other = stored.get(key)
        if isinstance(value, float) and isinstance(other, (int, float)):
            ok = math.isclose(value, float(other), rel_tol=1e-9, abs_tol=1e-9)
        else:
            ok = value == other
        if not ok:
            consistent = False
        shown = _fmt(value) if isinstance(value, float) else value
        print(f"{key} {shown}")
    print(f"consistent {'true' if consistent else 'false'}")
    return 0 if consistent else 1


def cmd_fixtures(args) -> int:
    if args.name not in fixtures_mod.FIXTURES:
        raise ScenarioError(
            f"unknown fixture {args.name!r}; available: {sorted(fixtures_mod.FIXTURES)}"
        )
    scenario = fixtures_mod.FIXTURES[args.name]()
    written = write_scenario(scenario, args.out)
    for path in written:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecodrive",
        description="Energy-optimal on/off speed bands and race simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="optimal oscillation band on a frozen slice")
    p.add_argument("--params", required=True, help="params JSON file")
    p.add_argument("--slope", type=_finite_float, default=0.0, help="slope angle, rad")
    p.add_argument("--wind", type=_finite_float, default=0.0, help="wind speed along track, m/s")
    p.add_argument("--target", type=_positive_float, required=True, help="target average, m/s")
    p.add_argument("--vsafe", type=_safety_speed, default=math.inf, help="safety speed or inf, m/s")
    p.add_argument("--delta", type=_positive_float, default=0.5, help="safety band width, m/s")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="run a race scenario")
    p.add_argument("--scenario", required=True, help="scenario directory")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check-assumptions", help="verify structural assumptions")
    p.add_argument("--params", required=True)
    p.add_argument("--slope", type=_finite_float, default=0.0)
    p.add_argument("--wind", type=_finite_float, default=0.0)
    p.set_defaults(func=cmd_check_assumptions)

    p = sub.add_parser("robustness", help="average-speed sensitivity to dynamics error")
    p.add_argument("--g", required=True, help="profile CSV (s_mps,value)")
    p.add_argument("--dg", required=True, help="perturbation CSV (s_mps,value)")
    p.add_argument("--terms", type=_positive_int, default=8, help="series terms, at least 1")
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("sweep", help="simulate a scenario over parameter values")
    p.add_argument("--scenario", required=True)
    p.add_argument("--vary", required=True, metavar="KEY=V1,V2,...")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=_positive_int, default=1, help="capped at variants and CPUs")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="re-derive summary from emitted telemetry")
    p.add_argument("--result", required=True, help="directory with telemetry.csv + summary.json")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("fixtures", help="write a bundled fixture scenario to disk")
    p.add_argument("--name", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EcodriveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
