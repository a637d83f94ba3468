"""Shared builders for the test suite."""

import math
import random

import pytest

from adatm import (
    ConceptPath,
    Metadata,
    NearnessKey,
    NotionKind,
    PlanarBox,
    Scenario,
    TimeInterval,
    encapsulate,
)
from adatm.scenario import scenario_from_dict


def buckets_over(bucket_seconds, entry, exit):
    """Starts of the buckets a half-open [entry, exit) interval overlaps:
    the reference for ``AirspaceState.segment_spots``."""
    first = math.floor(entry / bucket_seconds)
    last = math.ceil(exit / bucket_seconds)
    return [i * bucket_seconds for i in range(first, last)]


def make_key(t0=0.0, t1=3600.0, box=(0.0, 0.0, 10.0, 10.0),
             concept="news/politics/election"):
    return NearnessKey(
        time=TimeInterval(t0, t1),
        space=PlanarBox(*box),
        concept=ConceptPath.parse(concept),
    )


def make_datum(datum_id, payload=None, confidence=0.9, kind=NotionKind.Event,
               key=None, source="wire", observed_at=100.0):
    return encapsulate(
        payload if payload is not None else {"race": "governor", "winner": "smith"},
        kind,
        Metadata(source_id=source, observed_at=observed_at),
        confidence,
        key if key is not None else make_key(),
        datum_id=datum_id,
    )


def dwell_route(cell=(0, 0), t0=0.0, t1=3600.0, cell_size=10.0, y=5.0):
    """A straight east-west route staying inside one grid cell."""
    x0 = cell[0] * cell_size
    y0 = cell[1] * cell_size
    return [[x0 + 1.0, y0 + y, t0], [x0 + cell_size - 1.0, y0 + y, t1]]


def congestion_doc(residents, arriving=True, arriving_alternates=(),
                   calm=6, severe=3, storms=(), observations=()):
    """Grid 2x2 document: ``residents`` flights dwell in cell (0, 0) for an
    hour; flight 3412 then tries to add itself on the same path."""
    flights = []
    for i in range(residents):
        flights.append({"id": f"{i + 1:04d}", "waypoints": dwell_route()})
    if arriving:
        flights.append({"id": "3412", "waypoints": dwell_route(),
                        "alternates": list(arriving_alternates)})
    return {
        "grid": {"cols": 2, "rows": 2, "cell": 10.0},
        "bucket_seconds": 60,
        "horizon_seconds": 14400,
        "capacity": {"calm": calm, "severe": severe},
        "flights": flights,
        "storms": list(storms),
        "observations": list(observations),
        "seed": 7,
    }


def congestion_scenario(*args, **kwargs) -> Scenario:
    """:func:`congestion_doc`, loaded."""
    return scenario_from_dict(congestion_doc(*args, **kwargs))


@pytest.fixture
def headroom_scenario() -> Scenario:
    return congestion_scenario(residents=4)


@pytest.fixture
def saturated_scenario() -> Scenario:
    return congestion_scenario(residents=6)


def arc_alternate(t0=0.0, t1=3600.0):
    """Alternate for the dwell route that spends its middle in cell (0, 1)."""
    mid = (t0 + t1) / 2.0
    return [[1.0, 5.0, t0], [5.0, 15.0, mid], [9.0, 5.0, t1]]


def storm_reroute_doc(with_alternates=True, reported=True,
                      observations_conf=(0.6, 0.5)):
    """Four residents in cell (0, 0); a west-to-east storm covers the cell
    during roughly [1200, 1600) and drops capacity from 6 to 3."""
    flights = []
    for i in range(4):
        f = {"id": f"{i + 1:04d}", "waypoints": dwell_route()}
        if with_alternates:
            f["alternates"] = [arc_alternate()]
        flights.append(f)
    observations = [
        {
            "payload": {"storm_id": "st-1", "kind": "radar-echo"},
            "source": f"radar-{i + 1}",
            "confidence": conf,
            "key": {"time": [600, 3000], "box": [-40, 0, -30, 10],
                    "concept": "airspace/weather/storm"},
        }
        for i, conf in enumerate(observations_conf)
    ]
    return {
        "grid": {"cols": 2, "rows": 2, "cell": 10.0},
        "bucket_seconds": 60,
        "horizon_seconds": 14400,
        "capacity": {"calm": 6, "severe": 3},
        "flights": flights,
        "storms": [{
            "id": "st-1",
            "box": [-40.0, 0.0, -30.0, 10.0],
            "velocity": [0.05, 0.0],
            "active": [600.0, 3000.0],
            "reported": reported,
        }],
        "observations": observations if reported else [],
        "seed": 3,
    }


def storm_reroute_scenario(*args, **kwargs) -> Scenario:
    """:func:`storm_reroute_doc`, loaded."""
    return scenario_from_dict(storm_reroute_doc(*args, **kwargs))


def delayed_negotiation_doc() -> dict:
    """Six flights on one zigzag route through a 3x2 grid, each filed with
    a 32.6 s departure delay; two may fly the straight alternate.  Cell
    (1, 1) is closed while they would cross it, so each insert
    negotiates: the two with an alternate take it, three take a 900 s
    delay and the last is rejected.  A confirmed storm then holds cell
    (2, 0) at capacity 1 where the delayed flights pass, and two of them
    move again by a further delay.

    The routes end at 1647.4000000000003: shifted by 32.6 + 900 the
    flight held at that delay ends just after 2580 and so holds bucket
    [2580, 2640); shifted as (t + 32.6) + 900 it would end at 2580.0
    exactly and not hold it.
    """
    zigzag = [[1.0, 5.0, 13.7], [15.0, 5.0, 505.1], [15.0, 15.0, 830.9],
              [29.0, 15.0, 1322.3], [29.0, 5.0, 1647.4000000000003]]
    straight = [[1.0, 5.0, 13.7], [29.0, 5.0, 1647.4000000000003]]
    flights = []
    for i in range(6):
        flight = {"id": f"d{i + 1:02d}", "waypoints": zigzag,
                  "departure_delay": 32.6, "priority": i % 3}
        if i in (0, 3):
            flight["alternates"] = [straight]
        flights.append(flight)
    box = [20.0, 0.0, 30.0, 10.0]
    observations = [
        {"payload": {"storm_id": "st-d", "kind": "radar-echo"},
         "source": f"radar-{i + 1}", "confidence": conf,
         "key": {"time": [2200.0, 2500.0], "box": box,
                 "concept": "airspace/weather/storm"}}
        for i, conf in enumerate((0.6, 0.5))
    ]
    return {
        "grid": {"cols": 3, "rows": 2, "cell": 10.0},
        "bucket_seconds": 60,
        "horizon_seconds": 14400,
        "capacity": {"calm": 3, "severe": 1},
        "flights": flights,
        "closures": [{"cell": [1, 1], "interval": [600.0, 1500.0]}],
        "storms": [{"id": "st-d", "box": box, "velocity": [0.0, 0.0],
                    "active": [2200.0, 2500.0], "reported": True}],
        "observations": observations,
        "seed": 11,
    }


def delayed_negotiation_scenario() -> Scenario:
    """:func:`delayed_negotiation_doc`, loaded."""
    return scenario_from_dict(delayed_negotiation_doc())


def random_case1_doc(rng: random.Random, max_flights=50) -> dict:
    """Random scenario guaranteed Case-1-only: capacity exceeds flight count."""
    n_flights = rng.randint(1, max_flights)
    flights = []
    for i in range(n_flights):
        n_wp = rng.randint(2, 4)
        t = rng.uniform(0.0, 1800.0)
        waypoints = []
        for _ in range(n_wp):
            waypoints.append([rng.uniform(0.5, 79.5), rng.uniform(0.5, 79.5), t])
            t += rng.uniform(120.0, 900.0)
        flights.append({"id": f"f{i:03d}", "waypoints": waypoints})
    return {
        "grid": {"cols": 8, "rows": 8, "cell": 10.0},
        "bucket_seconds": 60,
        "horizon_seconds": 14400,
        "capacity": {"calm": max_flights + 10, "severe": max_flights + 10},
        "flights": flights,
        "seed": rng.randint(0, 10_000),
    }


def random_case1_scenario(rng: random.Random, max_flights=50) -> Scenario:
    """:func:`random_case1_doc`, loaded."""
    return scenario_from_dict(random_case1_doc(rng, max_flights))


def random_plan_dict(rng: random.Random, grid_extent=80.0, max_legs=4):
    n_wp = rng.randint(2, max_legs + 1)
    t = rng.uniform(0.0, 600.0)
    waypoints = []
    for _ in range(n_wp):
        waypoints.append([rng.uniform(0.5, grid_extent - 0.5),
                          rng.uniform(0.5, grid_extent - 0.5), t])
        t += rng.uniform(60.0, 600.0)
    return waypoints


def _fusion_reports(storm_id, base_box, rng, low, high, zeros=()):
    """Thirty reports of one storm for :func:`fusion_scenario`, by role.

    ``j`` 0 is the report every later one is measured against.  Most
    reports jitter around it; some lie just beside it (0.5 away in space,
    or touching its end in time) and overlap only a cover that an earlier
    or later absorbed report grew; some lie beside it and never overlap
    any cover; a far cluster sits outside its neighborhood altogether.
    """
    x0, y0, x1, y1 = base_box
    reports = []
    for j in range(30):
        box = [x0 + rng.uniform(-0.3, 0.3), y0 + rng.uniform(0.0, 0.3),
               x1 + rng.uniform(-0.3, 0.3), y1 + rng.uniform(-0.3, 0.3)]
        time = [600.0 + rng.uniform(0.0, 60.0), 3000.0 + rng.uniform(-60.0, 0.0)]
        kind = "radar-echo"
        if j == 0:
            box, time = [x0, y0, x1, y1], [600.0, 3000.0]
        elif j == 3:  # east of j 0; overlaps only the cover j 5 grows later
            box = [x1 + 0.5, y0, x1 + 10.0, y1]
        elif j == 5:  # grows the cover east past x1 + 0.5
            box[2] = x1 + 0.8
        elif j == 7:  # grows the cover in time past 3000
            time[1] = 3200.0
        elif j in (9, 12):  # east of j 0, inside the cover j 5 grew
            box = [x1 + 0.5, y0 + 0.2, x1 + 9.0, y1 - 0.2]
        elif j == 11:  # starts where j 0 ends, inside the cover j 7 grew
            time = [3000.0, 5000.0]
        elif j == 14:  # east of the cover j 9 grows, outside j 0's neighborhood
            box = [x1 + 9.5, y0, x1 + 15.0, y1]
        elif j == 16:  # same place, other text: a peer that never fuses
            kind = "lightning"
        elif j == 20:  # north of every cover: a peer, never a duplicate
            box = [x0, y1 + 0.5, x1, y1 + 4.0]
        elif j == 21:  # ends before every cover starts
            time = [0.0, 500.0]
        elif j >= 22:  # far cluster, fused among itself
            box = [x0 + rng.uniform(-0.3, 0.3), y1 + 20.0, x1, y1 + 30.0]
        confidence = 0.0 if j in zeros else round(rng.uniform(low, high), 4)
        reports.append({
            "payload": {"storm_id": storm_id, "kind": kind},
            "source": f"radar-{j % 4 + 1}",
            "confidence": confidence,
            "observed_at": round(time[0], 3),
            "key": {"time": [round(t, 3) for t in time],
                    "box": [round(v, 3) for v in box],
                    "concept": "airspace/weather/storm"},
        })
    return reports


def fusion_doc() -> dict:
    """Sixty weather reports over two storms, interleaved, fused on
    activation.  Storm st-1 drifts across cell (0, 0), where four residents
    dwell, and is confirmed by its fused reports; st-2 stays off the grid
    and unconfirmed, and its far cluster opens with two zero-confidence
    reports."""
    rng = random.Random(60)
    st1 = _fusion_reports("st-1", [-40.0, 0.0, -30.0, 10.0], rng, 0.03, 0.09)
    st2 = _fusion_reports("st-2", [-40.0, 40.0, -30.0, 50.0], rng, 0.005, 0.02,
                          zeros=(22, 23, 26))
    observations = [report for pair in zip(st1, st2) for report in pair]
    flights = [{"id": f"{i + 1:04d}", "waypoints": dwell_route(),
                "alternates": [arc_alternate()]} for i in range(4)]
    return {
        "grid": {"cols": 2, "rows": 2, "cell": 10.0},
        "bucket_seconds": 60,
        "horizon_seconds": 14400,
        "capacity": {"calm": 6, "severe": 3},
        "flights": flights,
        "storms": [
            {"id": "st-1", "box": [-40.0, 0.0, -30.0, 10.0], "velocity": [0.05, 0.0],
             "active": [600.0, 3000.0], "reported": True},
            {"id": "st-2", "box": [-40.0, 40.0, -30.0, 50.0], "velocity": [0.05, 0.0],
             "active": [600.0, 3000.0], "reported": True},
        ],
        "observations": observations,
        "seed": 11,
    }


def fusion_scenario() -> Scenario:
    """:func:`fusion_doc`, loaded."""
    return scenario_from_dict(fusion_doc())


def contended_stress_doc(n_flights=100, seed=2) -> dict:
    """Many flights over a small, tight grid: 4x4 cells, calm capacity 4.

    Each flight flies from A to B, both uniform over the grid, departing
    U(0, 3600) s and flying U(600, 1800) s, with one alternate through a
    random midpoint.  Most insertions negotiate; at the defaults 38 are
    accepted, 59 rerouted and 3 rejected, and the rejected ones search
    every deviator set without finding a feasible one.
    """
    rng = random.Random(seed)
    flights = []
    for i in range(n_flights):
        a = [rng.uniform(0.5, 39.5), rng.uniform(0.5, 39.5)]
        b = [rng.uniform(0.5, 39.5), rng.uniform(0.5, 39.5)]
        t0 = rng.uniform(0.0, 3600.0)
        t1 = t0 + rng.uniform(600.0, 1800.0)
        mid = [rng.uniform(0.5, 39.5), rng.uniform(0.5, 39.5), (t0 + t1) / 2]
        flights.append({"id": f"f{i:03d}", "waypoints": [a + [t0], b + [t1]],
                        "alternates": [[a + [t0], mid, b + [t1]]]})
    return {
        "grid": {"cols": 4, "rows": 4, "cell": 10.0},
        "bucket_seconds": 60,
        "horizon_seconds": 14400,
        "capacity": {"calm": 4, "severe": 2},
        "flights": flights,
        "seed": seed,
    }


def contended_stress_scenario(n_flights=100, seed=2) -> Scenario:
    """:func:`contended_stress_doc`, loaded."""
    return scenario_from_dict(contended_stress_doc(n_flights, seed))


def wide_storm_doc(n_flights=80, seed=2) -> dict:
    """Dwell flights under one wide storm, resolved by one global weather
    negotiation.

    Flight i dwells U(1200, 2400) s from U(0, 1200) s in cell (i % 4,
    i // 4 % 2), so the 8 cells of rows 0-1 of a 4x4 grid fill round-robin,
    each flight with one alternate through the row above.  Storm [0, 0,
    40, 20], drifting north and active [600, 4200) s, covers them all; one
    report of confidence 0.9 confirms it, and it drops capacity from 6 to 1.
    """
    rng = random.Random(seed)
    flights = []
    for i in range(n_flights):
        x0, y0 = i % 4 * 10.0, i // 4 % 2 * 10.0
        y = y0 + rng.uniform(2.0, 8.0)
        t0 = rng.uniform(0.0, 1200.0)
        t1 = t0 + rng.uniform(1200.0, 2400.0)
        start, end = [x0 + 1.0, y, t0], [x0 + 9.0, y, t1]
        detour = [x0 + 5.0, y0 + 15.0, (t0 + t1) / 2]
        flights.append({"id": f"w{i:03d}", "waypoints": [start, end],
                        "alternates": [[start, detour, end]]})
    box = [0.0, 0.0, 40.0, 20.0]
    return {
        "grid": {"cols": 4, "rows": 4, "cell": 10.0},
        "bucket_seconds": 60,
        "horizon_seconds": 14400,
        "capacity": {"calm": 6, "severe": 1},
        "flights": flights,
        "storms": [{"id": "st-w", "box": box, "velocity": [0.0, 0.005],
                    "active": [600.0, 4200.0], "reported": True}],
        "observations": [{
            "payload": {"storm_id": "st-w", "kind": "radar-echo"},
            "source": "radar-1", "confidence": 0.9,
            "key": {"time": [600.0, 4200.0], "box": box,
                    "concept": "airspace/weather/storm"}}],
        "seed": seed,
    }


def wide_storm_scenario(n_flights=80, seed=2) -> Scenario:
    """:func:`wide_storm_doc`, loaded."""
    return scenario_from_dict(wide_storm_doc(n_flights, seed))
