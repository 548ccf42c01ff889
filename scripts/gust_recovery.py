#!/usr/bin/env python3
"""Show schedule recovery through the mid-race headwind gust.

Prints every replan around the gust window, with its target and band, and the
final summary.
"""

import sys

from ecodrive import run_race
from ecodrive.fixtures import GUST_DURATION, GUST_START, gust


def main() -> int:
    scenario = gust()
    result = run_race(
        scenario.track, scenario.wind, scenario.params, scenario.power, scenario.controller
    )
    print("replan targets around the gust window "
          f"[{GUST_START:.0f}, {GUST_START + GUST_DURATION:.0f}] s:")
    print("     t_s  target_mps  band_lower  band_upper")
    for record in result.replans:
        if GUST_START - 60.0 <= record.t <= GUST_START + GUST_DURATION + 120.0:
            print(
                f"{record.t:8.2f}  {record.target:9.4f}  "
                f"{record.band.lower:9.4f}  {record.band.upper:9.4f}"
            )
    target = scenario.controller.race_length / scenario.controller.race_duration
    print(f"\nfinish time  {result.finish_time:.1f} s")
    print(f"avg speed    {result.avg_speed:.4f} m/s vs plan {target:.4f} m/s "
          f"({100 * (result.avg_speed / target - 1):+.2f}%)")
    print(f"energy       {result.total_energy:.0f} J, switches {result.switches}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
