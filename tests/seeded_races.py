"""Seeded random races: the ranges of ``test_controller.random_races``, drawn by ``random.Random``.

Two commits are compared by running the same races on each and comparing the records::

    PYTHONPATH=src python tests/seeded_races.py run --seed 11 --count 1000 > a.jsonl
    PYTHONPATH=<other>/src python tests/seeded_races.py run --seed 11 --count 1000 > b.jsonl
    PYTHONPATH=src python tests/seeded_races.py compare a.jsonl b.jsonl

``run`` prints one JSON line per race: its index, whether it finished, its finish time,
energy, switches and replans.  ``compare`` prints the finishes each side lost, the largest
relative energy change among the races both finished, and each race whose switch count
changed; it exits with status 1 where a finish was lost or an energy moved by more than
``--rel`` (1e-9).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from ecodrive import ControllerConfig, PowerModel, TrackProfile, VehicleParams, WindField, run_race


def windy_scenario(arcs, slopes, safe_speeds, u1, u2, signed_drag, duration, power="wheel_power"):
    """Race with ``u1`` on the first half of the track from t = 60 s on, ``u2``
    on the second half before then, and calm elsewhere."""
    half = arcs[-1] / 2
    wind = WindField((0.0, half), (0.0, 60.0), ((0.0, u1), (u2, 0.0)))
    cfg = ControllerConfig(race_length=arcs[-1], race_duration=duration)
    return (
        TrackProfile(arcs, slopes, safe_speeds), wind, VehicleParams(signed_drag=signed_drag),
        PowerModel(power), cfg,
    )


def draw_race(rng: random.Random) -> tuple:
    """``windy_scenario`` arguments drawn from the ranges of ``random_races``: a 300-1500 m
    track of 2-6 cells, each breakpoint flat or of slope U(-0.02, 0.03) and with a safety
    speed U(4, 12), winds U(-2, 2), either drag law and power model, and a target average
    speed U(4, 8)."""
    while True:
        length = rng.uniform(300.0, 1500.0)
        fractions = {rng.random() for _ in range(rng.randint(1, 5))} - {0.0}
        arcs = (0.0, *sorted(length * f for f in fractions), length)
        if all(b > a for a, b in zip(arcs, arcs[1:])):
            break
    n = len(arcs)
    slopes = tuple(0.0 if rng.random() < 0.5 else rng.uniform(-0.02, 0.03) for _ in range(n))
    safe_speeds = tuple(rng.uniform(4.0, 12.0) for _ in range(n))
    u1, u2 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    signed_drag = rng.random() < 0.5
    duration = length / rng.uniform(4.0, 8.0)
    power = rng.choice(("constant_electrical", "wheel_power"))
    return arcs, slopes, safe_speeds, u1, u2, signed_drag, duration, power


def seeded_races(seed: int, count: int) -> list[tuple]:
    """The first ``count`` races of ``random.Random(seed)``."""
    rng = random.Random(seed)
    return [draw_race(rng) for _ in range(count)]


def race_record(index: int, args: tuple) -> dict:
    result = run_race(*windy_scenario(*args))
    return {
        "race": index, "finished": result.finished, "finish_time": result.finish_time,
        "energy": result.total_energy, "switches": result.switches,
        "replans": len(result.replans),
    }


def compare(a: list[dict], b: list[dict], rel: float = 1e-9) -> tuple[list[str], bool]:
    """Lines describing how the records ``b`` differ from ``a``, and whether they agree."""
    lost = [x["race"] for x, y in zip(a, b) if x["finished"] and not y["finished"]]
    gained = [x["race"] for x, y in zip(a, b) if y["finished"] and not x["finished"]]
    both = [(x, y) for x, y in zip(a, b) if x["finished"] and y["finished"]]
    moved = max(
        ((abs(y["energy"] - x["energy"]) / abs(x["energy"]), x["race"]) for x, y in both),
        default=(0.0, None),
    )
    lines = [
        f"races {len(a)}; finished {sum(x['finished'] for x in a)} -> "
        f"{sum(y['finished'] for y in b)}; lost {lost}; gained {gained}",
        f"largest relative energy change {moved[0]:.3g} (race {moved[1]})",
        f"replans {sum(x['replans'] for x in a)} -> {sum(y['replans'] for y in b)}",
    ]
    lines += [
        f"race {x['race']}: switches {x['switches']} -> {y['switches']}"
        for x, y in zip(a, b) if x["switches"] != y["switches"]
    ]
    return lines, len(a) == len(b) and not lost and moved[0] <= rel


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--count", type=int, default=1000)
    cmp = sub.add_parser("compare")
    cmp.add_argument("a")
    cmp.add_argument("b")
    cmp.add_argument("--rel", type=float, default=1e-9)
    args = parser.parse_args(argv)
    if args.command == "run":
        for i, race in enumerate(seeded_races(args.seed, args.count)):
            print(json.dumps(race_record(i, race)), flush=True)
        return 0
    a, b = ([json.loads(line) for line in open(path)] for path in (args.a, args.b))
    lines, agree = compare(a, b, args.rel)
    print("\n".join(lines))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
