"""The dense telemetry trace, read row by row off a race's legs.

References for the report's ``speed_trace.csv``: at each multiple of ``trace_interval``
on the running leg, ``dense_trace`` takes a full ``TelemetrySample`` (the position
from ``Leg.distance``, the energy and the switch count), and where an event lands
on the grid, the state the event landed on.  ``trace_rows`` reads the five fields
the report keeps, one ``Leg.speed`` call per row; the tests read the rest of the
samples to check the race between its events.
"""

from __future__ import annotations

from collections.abc import Iterable

from ecodrive.controller import LegRecord, RaceResult, TelemetrySample
from ecodrive.dynamics import PowerModel, VehicleParams, engine_energy


def dense_trace(
    result: RaceResult, interval: float, power: PowerModel, params: VehicleParams
) -> tuple[TelemetrySample, ...]:
    """The race's trace samples at each ``k * interval`` s, from rest to its last event.

    The engine energy and the switch count are replayed leg by leg in the
    race's own order, so each leg's recorded start energy and the race's
    total energy must match them to the last bit.
    """
    alpha = params.switch_cost
    e_power, switches, was_on = 0.0, 1, True  # the start from rest is a switch-on
    trace = [TelemetrySample(0.0, 0.0, 0.0, True, switches, e_power + alpha * switches,
                             0.0, 0.0, "")]
    # each leg ends where the next starts, and the last where the race stopped
    ends = [rec.position for rec in result.legs[1:]] + [result.samples[-1].position]
    k = 1  # the next row lies at k * interval
    for rec, x_end in zip(result.legs, ends):
        on, leg, t, x1, band = rec.engine_on, rec.leg, rec.t, rec.position, rec.band
        if on and not was_on:
            switches += 1
        was_on = on
        charged = alpha * switches
        assert rec.energy == e_power + charged, (rec, e_power, switches)
        while k * interval < rec.t_end - 1e-12:
            tau = k * interval - t
            d = leg.distance(tau)
            e_at = e_power + engine_energy(tau, d, on, power, params) + charged
            trace.append(TelemetrySample(
                k * interval, x1 + d, leg.speed(tau), on, switches, e_at,
                band.lower, band.upper, "",
            ))
            k += 1
        e_power += engine_energy(rec.t_end - t, x_end - x1, on, power, params)
        if rec.t_end >= k * interval - 1e-12:
            trace.append(TelemetrySample(
                rec.t_end, x_end, rec.speed_end, on, switches, e_power + charged,
                band.lower, band.upper, "",
            ))
            k += 1
    assert (e_power + alpha * switches, switches) == (result.total_energy, result.switches)
    return tuple(trace)


def trace_rows(legs: Iterable[LegRecord], interval: float) -> list[tuple]:
    """Speed trace rows ``(t, speed, band_lower, band_upper, engine_on)`` read off ``legs``: one
    at rest, then row k at ``k * interval``; an event up to 1e-12 s past it takes its row."""
    rows, k = [(0.0, 0.0, 0.0, 0.0, True)], 1
    for t0, _, _, leg, on, band, t_end, speed_end in legs:
        speed, lower, upper = leg.speed, band.lower, band.upper
        while k * interval < t_end - 1e-12:
            rows.append((k * interval, speed(k * interval - t0), lower, upper, on))
            k += 1
        if t_end >= k * interval - 1e-12:
            rows.append((t_end, speed_end, lower, upper, on))
            k += 1
    return rows


def per_row_trace(rows) -> list[str]:
    """``speed_trace.csv``'s lines from ``(t, speed, band_lower, band_upper, engine_on)`` rows,
    formatted one ``repr`` per field, with no cache."""
    return ["t_s,x2_mps,Va_mps,Vb_mps,u"] + [
        f"{t!r},{speed!r},{lower!r},{upper!r},{int(on)}" for t, speed, lower, upper, on in rows
    ]


def speed_rows(trace) -> list[tuple]:
    """The five fields of ``TelemetrySample`` rows that the speed trace keeps."""
    return [(s.t, s.speed, s.band_lower, s.band_upper, s.engine_on) for s in trace]
