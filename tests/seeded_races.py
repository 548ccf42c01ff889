"""Seeded random races: the ranges of ``test_controller.random_races``, drawn by ``random.Random``.

Two commits are compared by running the same races on each and comparing the records::

    PYTHONPATH=src python tests/seeded_races.py run --seed 11 --count 1000 > a.jsonl
    PYTHONPATH=<other>/src python tests/seeded_races.py run --seed 11 --count 1000 > b.jsonl
    PYTHONPATH=src python tests/seeded_races.py compare a.jsonl b.jsonl

``--family long`` draws single-slice races of 5-20 km instead (``draw_long_race``), which
hold one slice for many periods.  ``run`` prints one JSON line per race: its index, whether
it finished, its finish time, energy, switches, replans, the coasting legs that run from
above their band bottom to below it beyond rounding, and the legs that start off the speed
the previous leg ended on.  ``compare`` prints the finishes each side lost, the largest
relative energy change among the races both finished, each race whose switch count changed
and each race of ``b`` with a leg below its band bottom or off its start; it exits with
status 1 where a finish was lost, an energy moved by more than ``--rel`` (1e-9) or ``b`` has
such a leg.
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


def long_scenario(length, target, slope, wind, switch_cost, signed_drag, power):
    """Race over ``length`` m of one slope and one steady wind, under a safety speed of 12 m/s
    that no target reaches, at the average speed ``target``."""
    track = TrackProfile((0.0, length), (slope, slope), (12.0, 12.0))
    params = VehicleParams(switch_cost=switch_cost, signed_drag=signed_drag)
    cfg = ControllerConfig(race_length=length, race_duration=length / target)
    return track, WindField((0.0,), (0.0,), ((wind,),)), params, PowerModel(power), cfg


def draw_long_race(rng: random.Random) -> tuple:
    """``long_scenario`` arguments: a 5-20 km track of slope U(-0.01, 0.01) in a wind
    U(-2, 2), a target U(3, 9.5), a switching cost U(5, 20) J, and either drag law and
    power model."""
    signed_drag = rng.random() < 0.5
    power = rng.choice(("constant_electrical", "wheel_power"))
    length, target = rng.uniform(5000.0, 20000.0), rng.uniform(3.0, 9.5)
    slope, wind = rng.uniform(-0.01, 0.01), rng.uniform(-2.0, 2.0)
    return length, target, slope, wind, rng.uniform(5.0, 20.0), signed_drag, power


# each family: how a race is drawn, and the scenario its arguments build
FAMILIES = {"short": (draw_race, windy_scenario), "long": (draw_long_race, long_scenario)}


def seeded_races(seed: int, count: int, family: str = "short") -> list[tuple]:
    """The first ``count`` races of ``random.Random(seed)``."""
    rng, draw = random.Random(seed), FAMILIES[family][0]
    return [draw(rng) for _ in range(count)]


def legs_below_bottom(result) -> int:
    """Coasting legs of ``result`` that start above their band bottom and end below it by more
    than 1e-12 of it.  A coasting leg that starts at or below the bottom is one the safety
    speed holds the engine off on, and may coast on below it."""
    starts = [0.0] + [rec.speed_end for rec in result.legs]
    return sum(
        not rec.engine_on and v0 > rec.band.lower and rec.speed_end < rec.band.lower * (1 - 1e-12)
        for v0, rec in zip(starts, result.legs)
    )


def legs_off_start(result) -> int:
    """Legs of ``result`` after the first that do not start at the speed the previous leg ended
    on.  A leg from a speed below 1e-12 m/s may start at rest instead."""
    return sum(
        rec.leg.v0 != prev.speed_end and not (rec.leg.v0 == 0.0 and prev.speed_end < 1e-12)
        for prev, rec in zip(result.legs, result.legs[1:])
    )


def race_record(index: int, args: tuple, family: str = "short") -> dict:
    result = run_race(*FAMILIES[family][1](*args))
    return {
        "race": index, "finished": result.finished, "finish_time": result.finish_time,
        "energy": result.total_energy, "switches": result.switches,
        "replans": len(result.replans), "below_bottom": legs_below_bottom(result),
        "off_start": legs_off_start(result),
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
    faults = {}  # the races of b with such legs, by kind
    for key, what in (("off_start", "a leg off its start"),
                      ("below_bottom", "a coasting leg below its band bottom")):
        faults[key] = [y["race"] for y in b if y[key]]
        lines.append(
            f"races with {what}: {sum(bool(x[key]) for x in a)} -> "
            f"{len(faults[key])} {faults[key]}"
        )
    return lines, len(a) == len(b) and not lost and moved[0] <= rel and not any(faults.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--count", type=int, default=1000)
    run.add_argument("--family", choices=sorted(FAMILIES), default="short")
    cmp = sub.add_parser("compare")
    cmp.add_argument("a")
    cmp.add_argument("b")
    cmp.add_argument("--rel", type=float, default=1e-9)
    args = parser.parse_args(argv)
    if args.command == "run":
        for i, race in enumerate(seeded_races(args.seed, args.count, args.family)):
            print(json.dumps(race_record(i, race, args.family)), flush=True)
        return 0
    a, b = ([json.loads(line) for line in open(path)] for path in (args.a, args.b))
    lines, agree = compare(a, b, args.rel)
    print("\n".join(lines))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
