#!/usr/bin/env python3
"""Wall time of the ecodrive CLI on the bundled fixtures, for two source trees in pairs.

Usage:
    python scripts/time_cli.py [--pairs N] SRC_A SRC_B

Each SRC is a directory that holds the ``ecodrive`` package, such as a checkout's
``src``: A the parent, B the change.  Every case runs as a fresh
``python -m ecodrive`` with ``PYTHONPATH=SRC`` and ``PYTHONDONTWRITEBYTECODE=1``, so
each run compiles the package and no tree is written to.  The cases are:

- ``simulate`` on ``flat16500``, ``hill`` and ``gust``;
- ``sweep`` of ``hill`` over ``duration_s`` at 8 and 32 values (within 10 % of its
  duration), with ``--jobs 1`` and ``--jobs 2``.

The runs alternate in pairs: odd pairs run A first, even pairs B first.  A case's
outputs (``summary.json`` and ``speed_trace.csv``, or ``sweep_summary.json``) must
be the same bytes on both trees and in every run, or the script exits with 1.  The
last line printed is a JSON record with each case's runs, median and quartiles per
tree, how many pairs B won and B's median change.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FIXTURES = ("flat16500", "hill", "gust")
SWEPT = "hill"  # the fixture whose sweeps are long enough for the pool to pay


def _cli(src: Path, args: list[str], cwd: Path) -> float:
    """Seconds one ``python -m ecodrive`` call takes; raises where it fails."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "ecodrive", *args], cwd=cwd, env=env, check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def _cases(scenarios: Path) -> dict[str, tuple[list[str], list[str]]]:
    """Case name -> (CLI arguments before ``--out``, the output files compared)."""
    cases = {
        f"simulate {name}": (
            ["simulate", "--scenario", str(scenarios / name)], ["summary.json", "speed_trace.csv"]
        )
        for name in FIXTURES
    }
    duration = json.loads((scenarios / SWEPT / "controller.json").read_text())["duration_s"]
    for count in (8, 32):
        spread = (round(duration * (0.9 + 0.2 * i / (count - 1)), 3) for i in range(count))
        values = ",".join(map(repr, spread))
        for jobs in (1, 2):
            cases[f"sweep {SWEPT} x{count} --jobs {jobs}"] = (
                ["sweep", "--scenario", str(scenarios / SWEPT),
                 "--vary", f"duration_s={values}", "--jobs", str(jobs)],
                ["sweep_summary.json"],
            )
    return cases


def _stats(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return {"runs": runs, "median": statistics.median(runs), "q1": q1, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path, help="package directory of the parent")
    parser.add_argument("src_b", type=Path, help="package directory of the change")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = [args.src_a.resolve(), args.src_b.resolve()]

    work = Path(tempfile.mkdtemp(prefix="time_cli_"))
    try:
        scenarios = work / "scenarios"
        for name in FIXTURES:
            _cli(trees[0], ["fixtures", "--name", name, "--out", str(scenarios / name)], work)
        cases = _cases(scenarios)
        runs: dict[str, tuple[list[float], list[float]]] = {case: ([], []) for case in cases}
        outputs: dict[str, set[bytes]] = {case: set() for case in cases}
        for pair in range(args.pairs):
            for side in (0, 1) if pair % 2 == 0 else (1, 0):
                for case, (cli_args, files) in cases.items():
                    out = work / "out"
                    runs[case][side].append(_cli(trees[side], [*cli_args, "--out", str(out)], work))
                    outputs[case].add(b"".join((out / name).read_bytes() for name in files))
                    shutil.rmtree(out)
    finally:
        shutil.rmtree(work)

    record = {
        "trees": [str(tree) for tree in trees],
        "pairs": args.pairs,
        "order": "odd pairs run A first, even pairs B first",
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}",
        "cases": {},
    }
    for case, (a, b) in runs.items():
        entry = {"same_output": len(outputs[case]) == 1, "a": _stats(a), "b": _stats(b)}
        entry["b_wins"] = sum(y < x for x, y in zip(a, b))
        entry["relative_change"] = entry["b"]["median"] / entry["a"]["median"] - 1.0
        record["cases"][case] = entry
        print(
            f"{case:32s} {entry['a']['median']:.3f} -> {entry['b']['median']:.3f} s"
            f"  B won {entry['b_wins']} of {args.pairs}  same output {entry['same_output']}",
            file=sys.stderr,
        )
    print(json.dumps(record))
    return 0 if all(entry["same_output"] for entry in record["cases"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
