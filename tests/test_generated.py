"""Generated scenarios, checked end to end.

A seeded generator draws small whole scenario documents: a 3x3 grid, 4 to
10 flights, about 70% of them with one alternate that shares the filed
route's endpoints, calm capacity 1 to 3, severe capacity 0 or 1, and about
half of the scenarios with a filed or a reported storm.  Three more
families reach the weather path: the same documents under a confirmed
storm over several cells, crowds of 5 to 8 flights in one or two cells,
and two storms over distant cells.  Every scenario is simulated with each
``negotiate`` call checked against ``brute_force_negotiate``, its outputs
pass the benchmark's own checks (``bench/checks.py``), a second run gives
the same bytes, and a run that accepts every flight under no confirmed
storm has the oracle's CSV.
"""

import json
import random

from adatm import load_scenario, render_report, run_oracle, simulate

from test_golden import _bench_module
from test_traffic import spy_negotiations

#: Fixed before the first run.  A seed that fails is a finding: it stays.
SEEDS = range(60)

#: Insertion and weather negotiations of one run of each seed, in all, so
#: that a change to the generator or the pipeline cannot leave the test
#: checking nothing.
NEGOTIATIONS = (119, 8)

#: The same for the families that reach the weather path: every storm
#: confirmed over several cells (weather), a crowd of 5 to 8 flights in one
#: or two cells (crowded), and two storms over distant cells (two-storm).
WEATHER_SEEDS, WEATHER_NEGOTIATIONS = range(60), (121, 46)
CROWDED_SEEDS, CROWDED_NEGOTIATIONS = range(8), (11, 4)
TWO_STORM_SEEDS, TWO_STORM_NEGOTIATIONS = range(20), (25, 17)

CELL = 10.0


def _point(rng: random.Random) -> list[float]:
    """A point in one of the grid's cells, on a few fixed offsets, so that
    routes share cells and buckets."""
    return [CELL * rng.randrange(3) + rng.choice([2.0, 5.0, 8.0]),
            CELL * rng.randrange(3) + rng.choice([2.0, 5.0, 8.0])]


def _time(rng: random.Random) -> float:
    """A start time, on a bucket boundary or off it."""
    return rng.choice([300.0 * rng.randint(0, 4), round(rng.uniform(0.0, 1500.0), 3)])


def _storm(rng: random.Random) -> tuple[dict, list[dict]]:
    """A storm inside one cell, still or drifting east, filed or reported;
    a reported one comes with one to three reports of it."""
    col, row = rng.randrange(3), rng.randrange(3)
    box = [CELL * col + 1.0, CELL * row + 1.0, CELL * col + 9.0, CELL * row + 9.0]
    start = 300.0 * rng.randint(0, 3)
    storm = {"id": "st", "box": box, "velocity": [rng.choice([0.0, 0.005]), 0.0],
             "active": [start, start + 1800.0], "reported": rng.random() < 0.5}
    reports = [] if not storm["reported"] else [
        {"payload": {"storm_id": "st", "kind": "radar-echo"}, "source": f"radar-{j}",
         "confidence": rng.choice([0.3, 0.5, 0.7, 0.9]),
         "key": {"time": [60.0 * j, 60.0 * j + rng.choice([30.0, 120.0])], "box": box,
                 "concept": "weather/storm"}}
        for j in range(rng.randint(1, 3))]
    return storm, reports


def generated_scenario(seed: int) -> dict:
    """The scenario document of ``seed``."""
    rng = random.Random(seed)
    flights = []
    for i in range(rng.randint(4, 10)):
        start, end = _point(rng), _point(rng)
        t0 = _time(rng)
        t1 = t0 + 300.0 * rng.randint(1, 4)
        flight = {"id": f"f{i:02d}", "waypoints": [[*start, t0], [*end, t1]],
                  "priority": rng.randint(0, 2)}
        if rng.random() < 0.7:
            flight["alternates"] = [[[*start, t0], [*_point(rng), (t0 + t1) / 2],
                                     [*end, t1]]]
        flights.append(flight)
    doc = {"grid": {"cols": 3, "rows": 3, "cell": CELL}, "bucket_seconds": 300,
           "horizon_seconds": 7200, "seed": seed, "flights": flights,
           "capacity": {"calm": rng.randint(1, 3), "severe": rng.randint(0, 1)}}
    if rng.random() < 0.5:
        storm, reports = _storm(rng)
        doc["storms"], doc["observations"] = [storm], reports
    return doc


def _cell_point(rng: random.Random, cell: tuple[int, int]) -> list[float]:
    """A point of ``cell``, on the offsets of :func:`_point`."""
    return [CELL * cell[0] + rng.choice([2.0, 5.0, 8.0]),
            CELL * cell[1] + rng.choice([2.0, 5.0, 8.0])]


def _confirmed_storm(storm_id: str, cells, start: float = 0.0,
                     velocity: float = 0.0) -> tuple[dict, dict]:
    """A reported storm over the box of ``cells`` for 1800 s from ``start``,
    and one report of it at confidence 0.9, which confirms it."""
    cols, rows = [c for c, _ in cells], [r for _, r in cells]
    box = [CELL * min(cols) + 1.0, CELL * min(rows) + 1.0,
           CELL * (max(cols) + 1) - 1.0, CELL * (max(rows) + 1) - 1.0]
    storm = {"id": storm_id, "box": box, "velocity": [velocity, 0.0],
             "active": [start, start + 1800.0], "reported": True}
    report = {"payload": {"storm_id": storm_id, "kind": "radar-echo"},
              "source": f"radar-{storm_id}", "confidence": 0.9,
              "key": {"time": [0.0, 60.0], "box": box, "concept": "weather/storm"}}
    return storm, report


def weather_scenario(seed: int) -> dict:
    """``generated_scenario(seed)`` with its storm, if any, replaced by a
    confirmed one over 1x2, 2x1, 2x2 or 3x1 cells, severe capacity below
    calm, and in about 30% of the documents a closure."""
    doc = generated_scenario(seed)
    rng = random.Random(f"weather:{seed}")
    cols, rows = rng.choice([(1, 2), (2, 1), (2, 2), (3, 1)])
    col, row = rng.randint(0, 3 - cols), rng.randint(0, 3 - rows)
    storm, report = _confirmed_storm(
        "st", [(col + i, row + j) for i in range(cols) for j in range(rows)],
        300.0 * rng.randint(0, 3), rng.choice([0.0, 0.005]))
    doc["storms"], doc["observations"] = [storm], [report]
    doc["capacity"]["severe"] = rng.randrange(doc["capacity"]["calm"])
    if rng.random() < 0.3:
        start = 300.0 * rng.randint(0, 4)
        doc["closures"] = [{"cell": [rng.randrange(3), rng.randrange(3)],
                            "interval": [start, start + 600.0]}]
    return doc


def _crowd(rng: random.Random, prefix: str, through, avoid, count: int) -> list[dict]:
    """``count`` flights of 240 s from 0, 30 or 60 s, each from and to points
    outside the ``avoid`` cells through a point of each ``through`` cell,
    so that all of them share those cells' first bucket; about a third
    with an alternate through a point outside the ``avoid`` cells instead."""
    outside = [(c, r) for c in range(3) for r in range(3) if (c, r) not in avoid]
    flights = []
    for i in range(count):
        t0 = rng.choice([0.0, 30.0, 60.0])
        start, end = (_cell_point(rng, rng.choice(outside)) for _ in range(2))
        points = [start, *(_cell_point(rng, cell) for cell in through), end]
        step = 240.0 / (len(points) - 1)
        flight = {"id": f"{prefix}{i}", "priority": rng.randint(0, 2),
                  "waypoints": [[*p, t0 + k * step] for k, p in enumerate(points)]}
        if rng.random() < 0.3:
            flight["alternates"] = [[[*start, t0],
                                     [*_cell_point(rng, rng.choice(outside)), t0 + 120.0],
                                     [*end, t0 + 240.0]]]
        flights.append(flight)
    return flights


def crowded_scenario(seed: int) -> dict:
    """One or two crowded cells: 5 to 8 flights through them, and their
    capacity 1 to 3 short of the crowd, at insertion (calm, on even seeds)
    or under a confirmed storm (severe, on odd seeds)."""
    rng = random.Random(f"crowded:{seed}")
    count, drop = rng.randint(5, 8), rng.randint(1, 3)
    cells = [(0, 0), (1, 0)][:rng.randint(1, 2)]
    weather = seed % 2 == 1
    doc = {"grid": {"cols": 3, "rows": 3, "cell": CELL}, "bucket_seconds": 300,
           "horizon_seconds": 3600, "seed": seed,
           "flights": _crowd(rng, "c", cells, cells, count),
           "capacity": {"calm": count if weather else count - drop,
                        "severe": count - drop}}
    if weather:
        storm, report = _confirmed_storm("st", cells)
        doc["storms"], doc["observations"] = [storm], [report]
    return doc


def two_storm_scenario(seed: int) -> dict:
    """Two confirmed storms over the opposite corner cells, each crossed by
    2 to 4 flights, with severe capacity 1 to 3 below calm."""
    rng = random.Random(f"two-storms:{seed}")
    corners = [(0, 0), (2, 2)]
    counts = rng.randint(2, 4), rng.randint(2, 4)
    calm = max(counts)
    storms = [_confirmed_storm(f"st{i}", [cell]) for i, cell in enumerate(corners)]
    return {"grid": {"cols": 3, "rows": 3, "cell": CELL}, "bucket_seconds": 300,
            "horizon_seconds": 3600, "seed": seed,
            "flights": [f for i, cell in enumerate(corners)
                        for f in _crowd(rng, "ab"[i], [cell], corners, counts[i])],
            "capacity": {"calm": calm, "severe": rng.randint(max(0, calm - 3), calm - 1)},
            "storms": [storm for storm, _ in storms],
            "observations": [report for _, report in storms]}


def _outputs(text: str) -> tuple[str, str, str]:
    run = simulate(load_scenario(text))
    return (render_report(run.report, "json"), render_report(run.report, "csv"),
            run.event_log)


def _confirms_a_storm(event_log: str) -> bool:
    return any(line.split("|", 3)[1] == "storm" and line.split("|", 3)[3].startswith(
        "confirmed") for line in event_log.splitlines())


def _problems(text: str, first: tuple[str, str, str]) -> list[str]:
    """What is wrong with the ``first`` run of the scenario ``text`` and with
    a second run of it, beyond the negotiations, which the caller's spy
    checks."""
    checks = _bench_module("checks")
    report_json, csv, event_log = first
    problems = checks.check_outputs(text, report_json, event_log)
    if _outputs(text) != first:
        problems.append("a second run gave other bytes")
    statuses = {o["status"] for o in json.loads(report_json)["outcomes"].values()}
    if statuses == {"accepted"} and not _confirms_a_storm(event_log):
        oracle_csv = render_report(run_oracle(load_scenario(text)), "csv")
        problems += checks.check_against_oracle(report_json, csv, oracle_csv)
    return problems


def _check_family(monkeypatch, generate, seeds) -> tuple[list[str], tuple[int, int]]:
    """The problems of each seed's document ``generate(seed)``, with every
    negotiation of its first run checked against brute force, and the
    (insertion, weather) negotiations of those runs."""
    problems = []
    on_insertion = on_weather = 0
    for seed in seeds:
        text = json.dumps(generate(seed))
        with monkeypatch.context() as patch:
            checked = spy_negotiations(patch)
            first = _outputs(text)
        problems += [f"seed {seed}: {problem}" for problem in _problems(text, first)]
        problems += [f"seed {seed}: negotiation {i} found {got}, brute force {expected}"
                     for i, (_, got, expected) in enumerate(checked) if got != expected]
        weather = sum(1 for weather_path, _, _ in checked if weather_path)
        on_insertion, on_weather = on_insertion + len(checked) - weather, on_weather + weather
    return problems, (on_insertion, on_weather)


def test_every_generated_scenario_runs_correctly(monkeypatch):
    problems, negotiations = _check_family(monkeypatch, generated_scenario, SEEDS)
    assert problems == []
    assert negotiations == NEGOTIATIONS


def test_the_generator_draws_the_intended_shapes():
    docs = [generated_scenario(seed) for seed in SEEDS]
    assert docs == [generated_scenario(seed) for seed in SEEDS]
    flights = [f for doc in docs for f in doc["flights"]]
    assert {len(doc["flights"]) for doc in docs} == set(range(4, 11))
    assert 0.6 < sum("alternates" in f for f in flights) / len(flights) < 0.8
    for f in flights:
        for alternate in f.get("alternates", []):
            assert (alternate[0], alternate[-1]) == (f["waypoints"][0], f["waypoints"][-1])
    assert {doc["capacity"]["calm"] for doc in docs} == {1, 2, 3}
    assert {doc["capacity"]["severe"] for doc in docs} == {0, 1}
    storms = [doc["storms"][0] for doc in docs if "storms" in doc]
    assert 0.3 < len(storms) / len(docs) < 0.7
    assert {storm["reported"] for storm in storms} == {False, True}


def test_weather_scenarios_run_correctly(monkeypatch):
    problems, negotiations = _check_family(monkeypatch, weather_scenario, WEATHER_SEEDS)
    assert problems == []
    assert negotiations == WEATHER_NEGOTIATIONS


def test_crowded_cells_run_correctly(monkeypatch):
    problems, negotiations = _check_family(monkeypatch, crowded_scenario, CROWDED_SEEDS)
    assert problems == []
    assert negotiations == CROWDED_NEGOTIATIONS


def test_two_storm_scenarios_run_correctly(monkeypatch):
    problems, negotiations = _check_family(monkeypatch, two_storm_scenario,
                                           TWO_STORM_SEEDS)
    assert problems == []
    assert negotiations == TWO_STORM_NEGOTIATIONS


def test_the_weather_families_draw_the_intended_shapes():
    weather = [weather_scenario(seed) for seed in WEATHER_SEEDS]
    shapes = set()
    for doc in weather:
        (storm,), (report,) = doc["storms"], doc["observations"]
        assert storm["reported"] and report["confidence"] == 0.9
        assert 0 <= doc["capacity"]["severe"] < doc["capacity"]["calm"]
        x0, y0, x1, y1 = storm["box"]
        shapes.add((round((x1 - x0 + 2.0) / CELL), round((y1 - y0 + 2.0) / CELL)))
    assert shapes == {(1, 2), (2, 1), (2, 2), (3, 1)}
    assert 0.2 < sum("closures" in doc for doc in weather) / len(weather) < 0.4
    crowded = {seed: crowded_scenario(seed) for seed in CROWDED_SEEDS}
    for seed, doc in crowded.items():
        capacity, count = doc["capacity"], len(doc["flights"])
        assert 5 <= count <= 8
        assert 1 <= count - capacity["severe" if seed % 2 else "calm"] <= 3
        assert ("storms" in doc) == (seed % 2 == 1)
    assert {len(f["waypoints"]) - 2 for doc in crowded.values() for f in doc["flights"]} \
        == {1, 2}
    assert all(len(two_storm_scenario(seed)["storms"]) == 2 for seed in TWO_STORM_SEEDS)
