#!/usr/bin/env python3
"""Cost landscape of oscillation bands on the flat slice.

Prints average cost versus the lower band speed at a fixed 7 m/s target,
then compares fixed-period costs against the large-period expansion.
"""

import sys

from ecodrive import DEFAULT_PARAMS, FrozenDynamics, PowerModel, band_cost, check_assumptions


def main() -> int:
    frozen = FrozenDynamics.from_conditions(DEFAULT_PARAMS, PowerModel())
    print(f"v_low = {frozen.v_low:.3f} m/s, v_high = {frozen.v_high:.3f} m/s")
    print("\nlower_mps  upper_mps  period_s  avg_cost_W")
    for tenth in range(20, 70, 2):
        v_a = tenth / 10.0
        band = band_cost(frozen, v_a, 7.0)
        print(f"{band.lower:9.2f}  {band.upper:9.3f}  {band.period:8.1f}  {band.avg_cost:10.4f}")

    # the duty-cycle cost across the whole band, and the switching-cost inequality's
    # lhs - rhs as the 1/T2 term
    report = check_assumptions(frozen)
    width = frozen.v_high - frozen.v_low
    lead = frozen.engine_power_at(frozen.v_high) * (7.0 - frozen.v_low) / width
    print("\nlarge-period expansion of the two-switch minimum (target 7 m/s):")
    print("period_s  expansion_W")
    for t2 in (100.0, 200.0, 400.0, 800.0, 1600.0, 1e6):
        print(f"{t2:8.0f}  {lead + (report.inequality_lhs - report.inequality_rhs) / t2:11.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
