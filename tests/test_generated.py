"""Generated scenarios, checked end to end.

A seeded generator draws small whole scenario documents: a 3x3 grid, 4 to
10 flights, about 70% of them with one alternate that shares the filed
route's endpoints, calm capacity 1 to 3, severe capacity 0 or 1, and about
half of the scenarios with a filed or a reported storm.  Every scenario is
simulated with each ``negotiate`` call checked against
``brute_force_negotiate``, its outputs pass the benchmark's own checks
(``bench/checks.py``), a second run gives the same bytes, and a run that
accepts every flight under no confirmed storm has the oracle's CSV.
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


def _outputs(text: str) -> tuple[str, str, str]:
    run = simulate(load_scenario(text))
    return (render_report(run.report, "json"), render_report(run.report, "csv"),
            run.event_log)


def _confirms_a_storm(event_log: str) -> bool:
    return any(line.split("|", 3)[1] == "storm" and line.split("|", 3)[3].startswith(
        "confirmed") for line in event_log.splitlines())


def _problems(seed: int) -> list[str]:
    """What is wrong with the two runs of ``seed``'s scenario, beyond their
    negotiations, which the caller's spy checks."""
    checks = _bench_module("checks")
    text = json.dumps(generated_scenario(seed))
    report_json, csv, event_log = first = _outputs(text)
    problems = checks.check_outputs(text, report_json, event_log)
    if _outputs(text) != first:
        problems.append("a second run gave other bytes")
    statuses = {o["status"] for o in json.loads(report_json)["outcomes"].values()}
    if statuses == {"accepted"} and not _confirms_a_storm(event_log):
        oracle_csv = render_report(run_oracle(load_scenario(text)), "csv")
        problems += checks.check_against_oracle(report_json, csv, oracle_csv)
    return [f"seed {seed}: {problem}" for problem in problems]


def test_every_generated_scenario_runs_correctly(monkeypatch):
    checked = spy_negotiations(monkeypatch)
    problems = []
    for seed in SEEDS:
        before = len(checked)
        problems += _problems(seed)
        problems += [f"seed {seed}: negotiation {i} found {got}, brute force {expected}"
                     for i, (_, got, expected) in enumerate(checked[before:])
                     if got != expected]
    assert problems == []
    # Each scenario runs twice, and both runs negotiate alike.
    on_weather = sum(1 for weather_path, _, _ in checked if weather_path)
    assert (len(checked) - on_weather, on_weather) == (2 * NEGOTIATIONS[0],
                                                       2 * NEGOTIATIONS[1])


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
