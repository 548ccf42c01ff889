"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line with the
measured figures per criterion.
"""

import math
import time

import numpy as np

import oracles
import stepper
from segments import (
    SpeedSegment,
    acceleration_profile,
    covered_length,
    elapsed_time,
    energy_used,
    proportional_invariance_check,
)
from ecodrive import (
    GridSpec,
    RaceState,
    SpeedProfile,
    TrackProfile,
    WindField,
    asymptotic_average_cost,
    band_from_limits,
    check_assumptions,
    mean_speed,
    min_switch_interval,
    optimal_band,
    perturbation_series,
)
from ecodrive import fixtures as fixture_lib


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status}: {detail}")
    assert ok, detail


def test_criterion_01_band_reproduction(flat_slice):
    start = time.perf_counter()
    band = optimal_band(flat_slice, 7.0, v_safe=20.0, grid=GridSpec(fine_step=0.01))
    elapsed = time.perf_counter() - start
    ok = (
        abs(band.lower - 6.1) <= 0.1
        and abs(band.upper - 7.94) <= 0.1
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"band=({band.lower:.3f}, {band.upper:.3f}) vs (6.1, 7.94) +/- 0.1, "
        f"runtime {elapsed:.3f} s < 1 s",
    )


def test_criterion_02_energy_figure(flat_race, flat_oracle):
    oracle = flat_oracle
    # the published figure neglects the standing start; the comparison adds
    # the start-up climb energy to it explicitly
    reference = 104_189.0 + oracle["startup_energy"]
    dev_reference = abs(flat_race.total_energy - reference) / reference
    dev_oracle = abs(flat_race.total_energy - oracle["energy"]) / oracle["energy"]
    ok = dev_reference <= 0.10 and dev_oracle <= 0.005
    _report(
        2,
        ok,
        f"simulated {flat_race.total_energy:.0f} J vs reference "
        f"104189 + {oracle['startup_energy']:.0f} J startup ({100 * dev_reference:.2f}% <= 10%), "
        f"vs closed-form oracle {oracle['energy']:.0f} J ({100 * dev_oracle:.3f}% <= 0.5%)",
    )


def test_criterion_03_band_average_cross_check(flat_slice):
    band = band_from_limits(flat_slice, 6.1, 7.94)
    ok = abs(band.avg_speed - 7.00) <= 0.01
    _report(3, ok, f"period average {band.avg_speed:.4f} m/s within 7.00 +/- 0.01")


def test_criterion_04_quadrature_vs_ode(params, const_power, flat_slice):
    rng = np.random.default_rng(20250808)
    track = TrackProfile.flat(1e6, 50.0)
    wind = WindField.zero()
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        engine_on = bool(rng.integers(0, 2))
        v_a = float(rng.uniform(0.5, 13.0))
        v_b = min(v_a + float(rng.uniform(0.3, 3.0)), flat_slice.v_high - 0.5)
        v0, v1 = (v_a, v_b) if engine_on else (v_b, v_a)
        seg = SpeedSegment(flat_slice, engine_on, v0, v1)
        state = RaceState(0.0, 0.0, v0, engine_on, 0, 0.0)
        prev = state
        while (state.speed < v1) if engine_on else (state.speed > v1):
            prev = state
            state = stepper.integrate(state, engine_on, 1e-3, track, wind, params, const_power)
        frac = (v1 - prev.speed) / (state.speed - prev.speed)
        t_sim = prev.t + frac * (state.t - prev.t)
        d_sim = prev.position + frac * (state.position - prev.position)
        worst = max(worst, abs(t_sim / elapsed_time(seg) - 1.0))
        worst = max(worst, abs(d_sim / covered_length(seg) - 1.0))
        if engine_on:
            e_sim = prev.energy + frac * (state.energy - prev.energy)
            worst = max(worst, abs(e_sim / energy_used(seg) - 1.0))
        else:
            assert energy_used(seg) == 0.0
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    _report(
        4,
        ok,
        f"20 random segments, worst relative deviation {worst:.2e} <= 1e-4, "
        f"runtime {elapsed:.1f} s < 10 s",
    )


def test_criterion_05_first_order_variations(flat_slice):
    # finite differences are formed through the short-interval integral (the
    # two long integrals differ by exactly that amount by additivity), which
    # keeps quadrature noise far below the first-order error being measured
    widths = (1e-3, 1e-4, 1e-5)
    cases = [
        ("time", True, 7.5, lambda seg: elapsed_time(seg), 1.0 / flat_slice.accel(7.5, True)),
        ("length", True, 7.5, lambda seg: covered_length(seg), 7.5 / flat_slice.accel(7.5, True)),
        (
            "energy",
            True,
            7.5,
            lambda seg: energy_used(seg),
            161.0 / flat_slice.accel(7.5, True),
        ),
        ("time", False, 6.5, lambda seg: elapsed_time(seg), 1.0 / flat_slice.accel(6.5, False)),
        (
            "length",
            False,
            6.5,
            lambda seg: covered_length(seg),
            6.5 / flat_slice.accel(6.5, False),
        ),
    ]
    all_ok = True
    details = []
    for name, engine_on, v1, op, exact in cases:
        errors = []
        for w in widths:
            a, b = (v1, v1 + w) if engine_on else (v1, v1 - w)
            increment = op(SpeedSegment(flat_slice, engine_on, a, b))
            fd = increment / (w if engine_on else -w)
            errors.append(abs(fd - exact))
        slopes = [
            math.log10(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)
        ]
        ok = all(0.9 <= s <= 1.1 for s in slopes)
        all_ok = all_ok and ok
        details.append(f"{name}/u={int(engine_on)} slopes {['%.3f' % s for s in slopes]}")
    _report(5, all_ok, "; ".join(details))


def test_criterion_06_proportional_invariance(flat_slice):
    g = acceleration_profile(flat_slice, True, 6.1, 7.94)
    residuals = {eps: proportional_invariance_check(g, eps) for eps in (-0.5, -0.1, 0.3, 0.9)}
    ok = all(r <= 1e-10 for r in residuals.values())
    _report(
        6,
        ok,
        "residuals " + ", ".join(f"eps={e}: {r:.1e}" for e, r in residuals.items()) + " <= 1e-10",
    )


def test_criterion_07_series_convergence(flat_slice):
    g = acceleration_profile(flat_slice, True, 6.1, 7.94)
    # nonproportional perturbation with sup |dg/g| = 0.3 at the upper end
    dg = SpeedProfile(6.1, 7.94, lambda s: 0.3 * g(s) * ((s - 6.1) / 1.84) ** 2)
    direct = mean_speed(g.plus(dg)) - mean_speed(g)
    residuals = [abs(perturbation_series(g, dg, n) - direct) for n in (1, 2, 4, 8)]
    ratios = [a / b for a, b in zip(residuals, residuals[1:])]
    ok = all(r >= 2.0 for r in ratios)
    _report(
        7,
        ok,
        f"residuals {['%.2e' % r for r in residuals]} decay ratios "
        f"{['%.1f' % r for r in ratios]} all >= 2",
    )


def test_criterion_08_asymptotic_expansion(flat_slice):
    gaps = {}
    for t2 in (200.0, 400.0, 800.0):
        m = oracles.fixed_period_min_cost(7.0, t2)
        expansion = asymptotic_average_cost(flat_slice, 7.0, t2)
        gaps[t2] = t2 * (m - expansion)
    ok = abs(gaps[800.0]) <= 0.5 * abs(gaps[200.0]) and abs(gaps[800.0]) < abs(gaps[400.0]) < abs(
        gaps[200.0]
    )
    _report(
        8,
        ok,
        "T2*(m - expansion) = "
        + ", ".join(f"{t2:.0f}: {v:.1f}" for t2, v in gaps.items())
        + " (decreasing, 800-value at most half the 200-value)",
    )


def test_criterion_09_assumption_suite(flat_slice):
    report = check_assumptions(flat_slice)
    # closed form F(x) = 161 (-a x^2 - c)/f1: second derivative -2*161*a/f1
    closed_form_second = -2.0 * 161.0 * 6e-4 / 0.20
    ok = (
        report.passed
        and report.convexity_verdict == "strictly_concave"
        and closed_form_second < 0.0
        and report.inequality_lhs < report.inequality_rhs
    )
    failed = [item.name for item in report.items if item.passed is not True]
    _report(
        9,
        ok,
        f"all items pass ({len(report.items)} checks{', failed: ' + str(failed) if failed else ''}), "
        f"inequality {report.inequality_lhs:.1f} < {report.inequality_rhs:.1f}, "
        f"verdict {report.convexity_verdict} (closed-form F'' = {closed_form_second:.3f})",
    )


def test_criterion_10_no_zeno_and_safety(flat_race, hill_race, gust_race):
    scenarios = {
        "flat16500": (flat_race, fixture_lib.flat16500()),
        "hill": (hill_race, fixture_lib.hill()),
        "gust": (gust_race, fixture_lib.gust()),
    }
    all_ok = True
    details = []
    for name, (result, scenario) in scenarios.items():
        costs = [
            r.band.avg_cost
            for r in result.replans
            if math.isfinite(r.band.avg_cost) and r.band.avg_cost > 0.0
        ]
        bound = scenario.params.switch_cost / max(costs)
        gap = min_switch_interval(result)
        track = scenario.track
        over = max(
            s.speed - track.safe_speed_at(min(s.position, track.length))
            for s in result.trace + result.samples
        )
        ok = gap > bound and over <= 0.2
        all_ok = all_ok and ok
        details.append(f"{name}: gap {gap:.2f} s > {bound:.3f} s, overspeed {over:+.3f} <= 0.2")
    _report(10, all_ok, "; ".join(details))


def test_criterion_11_schedule_recovery(gust_race):
    target = fixture_lib.RACE_LENGTH / fixture_lib.RACE_DURATION
    deviation = abs(gust_race.avg_speed - target) / target
    ok = gust_race.finished and deviation <= 0.01
    _report(
        11,
        ok,
        f"gust race average {gust_race.avg_speed:.4f} m/s vs {target:.4f} m/s "
        f"({100 * deviation:.2f}% <= 1%)",
    )


def test_criterion_12_sanity_band(flat_race):
    ok = 90_000.0 <= flat_race.total_energy <= 130_000.0
    _report(
        12,
        ok,
        f"flat-race consumption {flat_race.total_energy:.0f} J in [90000, 130000] J "
        "(official runs are not desk-reproducible; loose bracket only)",
    )
