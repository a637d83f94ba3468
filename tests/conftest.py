"""Shared builders for the test suite."""

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


def congestion_scenario(residents, arriving=True, arriving_alternates=(),
                        calm=6, severe=3, storms=(), observations=()):
    """Grid 2x2 fixture: ``residents`` flights dwell in cell (0, 0) for an
    hour; flight 3412 then tries to add itself on the same path."""
    flights = []
    for i in range(residents):
        flights.append({"id": f"{i + 1:04d}", "waypoints": dwell_route()})
    if arriving:
        flights.append({"id": "3412", "waypoints": dwell_route(),
                        "alternates": list(arriving_alternates)})
    return scenario_from_dict({
        "grid": {"cols": 2, "rows": 2, "cell": 10.0},
        "bucket_seconds": 60,
        "horizon_seconds": 14400,
        "capacity": {"calm": calm, "severe": severe},
        "flights": flights,
        "storms": list(storms),
        "observations": list(observations),
        "seed": 7,
    })


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


def storm_reroute_scenario(with_alternates=True, reported=True,
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
    return scenario_from_dict({
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
    })


def random_case1_scenario(rng: random.Random, max_flights=50) -> Scenario:
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
    return scenario_from_dict({
        "grid": {"cols": 8, "rows": 8, "cell": 10.0},
        "bucket_seconds": 60,
        "horizon_seconds": 14400,
        "capacity": {"calm": max_flights + 10, "severe": max_flights + 10},
        "flights": flights,
        "seed": rng.randint(0, 10_000),
    })


def random_plan_dict(rng: random.Random, grid_extent=80.0, max_legs=4):
    n_wp = rng.randint(2, max_legs + 1)
    t = rng.uniform(0.0, 600.0)
    waypoints = []
    for _ in range(n_wp):
        waypoints.append([rng.uniform(0.5, grid_extent - 0.5),
                          rng.uniform(0.5, grid_extent - 0.5), t])
        t += rng.uniform(60.0, 600.0)
    return waypoints
