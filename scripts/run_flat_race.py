#!/usr/bin/env python3
"""Run the flat 16.5 km reference race and write the full report.

Usage: python scripts/run_flat_race.py [OUT_DIR]
Output directory defaults to ./out/flat16500 (or ECODRIVE_OUT).
"""

import sys
from pathlib import Path

from ecodrive import min_switch_interval, run_race
from ecodrive.fixtures import flat16500
from ecodrive.scenario import default_out_dir, emit_report


def main() -> int:
    scenario = flat16500()
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else default_out_dir(None, None) / "flat16500"
    result = run_race(
        scenario.track, scenario.wind, scenario.params, scenario.power, scenario.controller
    )
    paths = emit_report(result, scenario, out_dir)
    target = scenario.controller.race_length / scenario.controller.race_duration
    print(f"finish time   {result.finish_time:.1f} s")
    print(f"total energy  {result.total_energy:.0f} J")
    print(f"switches      {result.switches}")
    print(f"avg speed     {result.avg_speed:.4f} m/s (target {target:.4f})")
    print(f"min gap       {min_switch_interval(result):.2f} s")
    for name, path in paths.items():
        print(f"{name:12s}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
