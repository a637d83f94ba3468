"""Seeded scenario generators for the benchmark's three workloads.

Each generator takes ``(seed, index)`` and returns the text of one
scenario JSON document that ``adatm.scenario.load_scenario`` accepts.
The same arguments always give the same bytes: every random draw comes
from one ``random.Random`` seeded with a string naming the workload, the
seed and the index, and the JSON is written with sorted keys.

The generators know nothing of ``adatm``; the program receives only the
text they produce.  ``bench/README.md`` says why each workload exists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

#: Concept under which the pipeline files trajectory-segment data.
SEGMENT_CONCEPT = "airspace/traffic/segment"
#: Concept under which the generators file radar reports.
STORM_CONCEPT = "airspace/weather/storm"

HEADROOM_FLIGHTS = 50
#: Contended scenarios are departure banks of one more flight than the
#: calm capacity, spaced so that no bank can reach the next: 59 s of
#: departures, at most 1800 s of flight and at most 900 s of added delay.
BANKS, BANK_SIZE, BANK_SPACING, CONTENDED_CALM = 2, 5, 3000.0, 4
#: Storm cells holding two flights instead of one.
STORM_DOUBLED = 3
#: Radar reports per storm id: count and confidence range.  st-1 fuses
#: far past the 0.75 confirmation threshold, though no single report
#: comes near it; decoy st-2 stays far below.
STORM_REPORTS = {"st-1": (300, 0.005, 0.02), "st-2": (6, 0.01, 0.05)}


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _r(value: float) -> float:
    return round(value, 3)


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _grid(cols: int, rows: int, sector: int) -> dict:
    return {"x0": 0.0, "y0": 0.0, "cols": cols, "rows": rows, "cell": 10.0,
            "sector_cols": sector, "sector_rows": sector}


def _latin(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws from U(lo, hi), one in each of n equal slices, in random order.

    Each draw is still uniform, but totals over a scenario vary far less
    between seeds, which keeps the benchmark's figures steady."""
    slots = list(range(n))
    rng.shuffle(slots)
    return [lo + (hi - lo) * (slot + rng.random()) / n for slot in slots]


def headroom(seed: int, index: int) -> str:
    """8x8 grid, capacity 1000: 50 flights with 2, 3 or 4 waypoints (a
    third each) uniform in [0.5, 79.5]^2, departing U(0, 3600) s, legs
    U(120, 900) s, every draw stratified over the scenario.  Subscriptions
    watch the segment concept over one seeded quadrant and the weather
    concept."""
    rng = _rng("headroom", seed, index)
    counts = [2 + i % 3 for i in range(HEADROOM_FLIGHTS)]
    rng.shuffle(counts)
    points = sum(counts)
    xs, ys = _latin(rng, points, 0.5, 79.5), _latin(rng, points, 0.5, 79.5)
    legs = _latin(rng, points - HEADROOM_FLIGHTS, 120.0, 900.0)
    departures = _latin(rng, HEADROOM_FLIGHTS, 0.0, 3600.0)
    plans = []
    for i, count in enumerate(counts):
        t = departures[i]
        waypoints = []
        for k in range(count):
            if k:
                t += legs.pop()
            waypoints.append([_r(xs.pop()), _r(ys.pop()), _r(t)])
        plans.append({"id": f"h{i:03d}", "waypoints": waypoints})
    qx, qy = divmod(rng.randrange(4), 2)
    quadrant = [qx * 40.0, qy * 40.0, qx * 40.0 + 40.0, qy * 40.0 + 40.0]
    return _dump({
        "grid": _grid(8, 8, 4),
        "bucket_seconds": 60,
        "horizon_seconds": 14400,
        "capacity": {"calm": 1000, "severe": 1000},
        "flights": plans,
        "subscriptions": [
            {"id": "quadrant-traffic", "min_confidence": 0.5,
             "query": {"mode": "focused", "time": [0, 14400], "box": quadrant,
                       "concept_prefix": SEGMENT_CONCEPT}},
            {"id": "weather", "min_confidence": 0.5,
             "query": {"mode": "focused", "concept_prefix": "airspace/weather"}},
        ],
        "seed": seed,
    })


def _bank_flight(rng: random.Random, fid: str, row: int, eastbound: bool,
                 start: float) -> dict:
    y0 = row * 10.0
    a = [_r(rng.uniform(0.5, 9.5)), _r(rng.uniform(y0 + 0.5, y0 + 9.5))]
    b = [_r(rng.uniform(30.5, 39.5)), _r(rng.uniform(y0 + 0.5, y0 + 9.5))]
    if not eastbound:
        a, b = b, a
    t0 = _r(start + rng.uniform(0.0, 59.0))
    t1 = _r(t0 + rng.uniform(600.0, 1800.0))
    mid = [_r((a[0] + b[0]) / 2), y0 + 15.0 if row < 3 else y0 - 5.0, _r((t0 + t1) / 2)]
    return {"id": fid, "waypoints": [a + [t0], b + [t1]],
            "alternates": [[a + [t0], mid, b + [t1]]]}


def contended(seed: int, index: int) -> str:
    """4x4 grid, calm 4: departure banks of 5 flights A->B across one
    seeded row (west to east or back) over U(600, 1800) s, each with one
    alternate through the neighbour row.  A bank's flights all leave in
    its first bucket from the same cell, so its last flight negotiates
    against the other four; every bank adds the same kind of work."""
    rng = _rng("contended", seed, index)
    plans = []
    for bank in range(BANKS):
        row, eastbound = rng.randrange(4), rng.random() < 0.5
        for i in range(BANK_SIZE):
            plans.append(_bank_flight(rng, f"c{bank:02d}-{i}", row, eastbound,
                                      bank * BANK_SPACING))
    return _dump({
        "grid": _grid(4, 4, 2),
        "bucket_seconds": 60,
        "horizon_seconds": BANKS * BANK_SPACING,
        "capacity": {"calm": CONTENDED_CALM, "severe": 2},
        "flights": plans,
        "seed": seed,
    })


def _dwell_plan(rng: random.Random, fid: str, col: int, row: int) -> dict:
    x0, y0 = col * 10.0, row * 10.0
    y = _r(y0 + rng.uniform(2.0, 8.0))
    t0 = _r(rng.uniform(0.0, 1200.0))
    t1 = _r(t0 + rng.uniform(1200.0, 2400.0))
    start, end = [x0 + 1.0, y, t0], [x0 + 9.0, y, t1]
    detour_y = y0 + 15.0 if row < 3 else y0 - 5.0
    alternate = [start, [x0 + 5.0, detour_y, _r((t0 + t1) / 2)], end]
    return {"id": fid, "waypoints": [start, end], "alternates": [alternate]}


def _reports(rng: random.Random, storm_id: str, box: list[float]) -> list[dict]:
    count, lo, hi = STORM_REPORTS[storm_id]
    out = []
    for i in range(count):
        jitter = [rng.uniform(-0.5, 0.5) for _ in range(4)]
        t0 = _r(600.0 + rng.uniform(0.0, 60.0))
        out.append({
            "payload": {"kind": "radar-echo", "storm_id": storm_id},
            "source": f"radar-{i % 5 + 1}",
            "confidence": _r(rng.uniform(lo, hi)),
            "observed_at": t0,
            "key": {"time": [t0, _r(t0 + 2400.0)],
                    "box": [_r(v + j) for v, j in zip(box, jitter)],
                    "concept": STORM_CONCEPT},
        })
    return out


def storm(seed: int, index: int) -> str:
    """4x4 grid, calm 6, severe 1: single-cell dwell flights, U(1200, 2400)
    s from U(0, 1200) s, each with one alternate through the neighbour
    row.  Every cell holds one flight and 3 seeded cells under the storm's
    first footprint hold two, which overlap while the storm covers them,
    so the one weather negotiation always involves 6 flights.  Storm st-1
    ([0,0,40,20], drifting north, active [600, 4200) s) is reported and
    confirmed only by fusing its 300 weak radar reports."""
    rng = _rng("storm", seed, index)
    cells = [(c, r) for r in range(4) for c in range(4)]
    under = [cell for cell in cells if cell[1] < 2]
    cells += rng.sample(under, STORM_DOUBLED)
    rng.shuffle(cells)
    plans = [_dwell_plan(rng, f"s{i:03d}", *cell) for i, cell in enumerate(cells)]
    st1_box, st2_box = [0.0, 0.0, 40.0, 20.0], [60.0, 0.0, 70.0, 10.0]
    observations = _reports(rng, "st-1", st1_box) + _reports(rng, "st-2", st2_box)
    return _dump({
        "grid": _grid(4, 4, 2),
        "bucket_seconds": 60,
        "horizon_seconds": 14400,
        "capacity": {"calm": 6, "severe": 1},
        "flights": plans,
        "storms": [
            {"id": "st-1", "box": st1_box, "velocity": [0.0, 0.005],
             "active": [600.0, 4200.0], "reported": True},
            {"id": "st-2", "box": st2_box, "velocity": [0.0, 0.0],
             "active": [600.0, 4200.0], "reported": True},
        ],
        "observations": observations,
        "seed": seed,
    })


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int, int], str]
    #: Distinct scenarios per run.  A run cycles through them until its
    #: time is up, so each later visit is also a repeat check.
    scenarios: int
    #: Flights offered per scenario.
    flights: int
    #: Every flight is Case 1, so the report must equal the oracle's.
    matches_oracle: bool


WORKLOADS = {
    "headroom": Workload("headroom", headroom, 24, HEADROOM_FLIGHTS, True),
    "contended": Workload("contended", contended, 16, BANKS * BANK_SIZE, False),
    "storm": Workload("storm", storm, 16, 16 + STORM_DOUBLED, False),
}
