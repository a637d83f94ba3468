"""Tests for the benchmark's own pieces: generators, checks, tracing.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import importlib
import json
import types

import pytest

import checks
import reference
import run
import tracing
from workloads import WORKLOADS, Workload

scenario_mod = importlib.import_module("adatm.scenario")


def tiny_text() -> str:
    """Three one-segment flights in cell (0, 0) of a 2x2 grid.  a and b
    overlap in time; c flies 2300 s after b lands, beyond the 900 s peer
    radius, but shares their cell, so every peer query scans all three."""
    def dwell(fid, t0, t1):
        return {"id": fid, "waypoints": [[1.0, 5.0, t0], [9.0, 5.0, t1]]}
    return json.dumps({
        "grid": {"cols": 2, "rows": 2, "cell": 10.0},
        "capacity": {"calm": 6, "severe": 3},
        "flights": [dwell("a", 0, 600), dwell("b", 100, 700), dwell("c", 3000, 3600)],
    })


TINY = Workload("tiny", lambda seed, index: tiny_text(), 1, 3, True)


# -- generators ----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_and_valid(name):
    workload = WORKLOADS[name]
    first = workload.generate(7, 1)
    assert first == workload.generate(7, 1)
    assert first != workload.generate(8, 1)
    assert first != workload.generate(7, 2)
    scenario = scenario_mod.load_scenario(first)
    assert len(scenario.flights) == workload.flights


def test_storm_reports_fuse_past_threshold_only_for_st1():
    doc = json.loads(WORKLOADS["storm"].generate(3, 0))
    fused = {sid: checks._fused(doc["observations"], sid) for sid in ("st-1", "st-2")}
    assert fused["st-1"] > 0.9 and fused["st-2"] < 0.5
    assert max(o["confidence"] for o in doc["observations"]) < 0.75


# -- checks --------------------------------------------------------------------

def simulate_tiny():
    scenario = scenario_mod.load_scenario(tiny_text())
    sim = scenario_mod.simulate(scenario)
    return scenario, sim, scenario_mod.render_report(sim.report, "json")


def test_checks_pass_on_a_correct_run():
    scenario, sim, report_json = simulate_tiny()
    assert checks.check_outputs(tiny_text(), report_json, sim.event_log) == []
    oracle = scenario_mod.run_oracle(scenario)
    assert checks.check_against_oracle(
        report_json, scenario_mod.render_report(sim.report, "csv"),
        scenario_mod.render_report(oracle, "csv")) == []


def test_over_capacity_record_needs_an_excess_event():
    _, sim, report_json = simulate_tiny()
    report = json.loads(report_json)
    report["records"][0]["capacity"] = 0
    problems = checks.check_outputs(tiny_text(), json.dumps(report), sim.event_log)
    assert any("over capacity" in p for p in problems)
    cell = report["records"][0]["subsector"]
    bucket = report["records"][0]["bucket_start"]
    excused = sim.event_log + f"\n99|weather-excess|cell:{cell[0]},{cell[1]}|bucket={bucket:g}"
    assert checks.check_outputs(tiny_text(), json.dumps(report), excused) == []


def test_storm_line_must_agree_with_raw_reports():
    text = WORKLOADS["storm"].generate(1, 0)
    log = "1|storm|st-1|unconfirmed confidence=0.1\n2|storm|st-2|unconfirmed confidence=0.1"
    report = json.dumps({"stats": {"quiescent": True}, "records": [],
                         "outcomes": {f["id"]: {} for f in json.loads(text)["flights"]}})
    problems = checks.check_outputs(text, report, log)
    assert len(problems) == 1 and problems[0].startswith("storm st-1")


# -- failure accounting ----------------------------------------------------------

def test_corrupted_report_is_counted_in_passed_share():
    def corrupt(report, format="csv"):
        text = scenario_mod.render_report(report, format)
        return text.replace('"occupancy": 2', '"occupancy": 3', 1)
    corrupting = types.SimpleNamespace(simulate=scenario_mod.simulate,
                                       run_oracle=scenario_mod.run_oracle,
                                       render_report=corrupt)
    scenario = scenario_mod.load_scenario(tiny_text())
    tally = run.Tally()
    run.untraced_visit(TINY, scenario_mod, scenario, tiny_text(), tally, 0)
    run.untraced_visit(TINY, corrupting, scenario, tiny_text(), tally, 0)
    assert (tally.attempted, tally.failed) == (2, 1)
    metrics = run.end_to_end(TINY, tally, setup_s=1.0)
    assert metrics["passed_share"] == 0.5


def test_raising_visit_is_counted_not_fatal():
    def boom(scenario):
        raise RuntimeError("boom")
    broken = types.SimpleNamespace(simulate=boom, run_oracle=scenario_mod.run_oracle,
                                   render_report=scenario_mod.render_report)
    tally = run.Tally()
    run.untraced_visit(TINY, broken, None, tiny_text(), tally, 0)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_scaled_time_divides_by_the_reference_loop(monkeypatch):
    monkeypatch.setattr(reference, "_loop_seconds", lambda: 2 * reference.REFERENCE_SECONDS)
    result, wall, scaled = reference.timed(lambda: 7)
    assert result == 7 and scaled == pytest.approx(wall / 2)


# -- tracing ---------------------------------------------------------------------

def originals():
    return [tracing._resolve(module, path) for _, module, path, _ in tracing.ENTRY_POINTS]


def test_wrappers_restore_the_original_functions():
    before = originals()
    assert all(found is not None for found in before)
    installed = tracing.install(tracing.Tracer("t"))
    assert installed.absent == []
    wrapped = originals()
    assert all(w[2] is not b[2] for w, b in zip(wrapped, before))
    installed.restore()
    assert all(a[2] is b[2] for a, b in zip(originals(), before))


def test_absent_entry_point_is_reported(monkeypatch):
    monkeypatch.setattr(tracing, "ENTRY_POINTS", tracing.ENTRY_POINTS + (
        ("traffic.gone", "adatm.traffic", "AirspaceState.capacity_table", tracing.COUNT),
        ("gone.module", "adatm.no_such_module", "fn", tracing.SPAN),
    ))
    installed = tracing.install(tracing.Tracer("t"))
    installed.restore()
    assert installed.absent == ["adatm.traffic:AirspaceState.capacity_table",
                                "adatm.no_such_module:fn"]


def test_self_time_subtracts_direct_children_only():
    tracer = tracing.Tracer("t")
    tracer.spans = [tracing.Span("root", 0.0, 10.0, None),
                    tracing.Span("child", 1.0, 4.0, 0),
                    tracing.Span("child", 5.0, 6.0, 0),
                    tracing.Span("leaf", 2.0, 3.0, 1)]
    m = tracer.span_metrics()
    assert m["root.s"] == 10.0 and m["root.self_s"] == 6.0
    assert m["child.calls"] == 2 and m["child.s"] == 4.0 and m["child.self_s"] == 3.0
    assert m["leaf.self_s"] == 1.0


def test_traced_tiny_scenario_counts_and_ratio():
    tally = run.Tally()
    scenario = scenario_mod.load_scenario(tiny_text())
    run.untraced_visit(TINY, scenario_mod, scenario, tiny_text(), tally, 0)
    run.traced_visit(TINY, scenario_mod, tiny_text(), tally, 0, "tiny")
    assert tally.failed == 0, "traced and untraced digests must agree"
    layer = tally.layers[0][0]
    # Three segment data, one activation each; every query scans all
    # three; a and b match each other and themselves, c only itself.
    assert layer["nearness.query.calls"] == 3
    assert layer["nearness.candidates_scanned"] == 9
    assert layer["nearness.matched"] == 5
    assert layer["nearness.match_ratio"] == pytest.approx(5 / 9)
    assert layer.get("traffic.negotiate.calls", 0) == 0
    assert layer["traffic.try_insert.calls"] == 3
    for name in [k for k in layer if k.endswith(".self_s")]:
        assert 0.0 <= layer[name] <= layer[name.replace(".self_s", ".s")]
    # Every span but the roots has its parent's interval around it.
    spans = tally.spans
    for record in spans:
        if record["parent"] is not None:
            parent = spans[record["parent"]]
            assert parent["start"] <= record["start"] <= record["end"] <= parent["end"]


def test_declared_metrics_are_all_produced():
    producible = {"nearness.matched", "nearness.match_ratio", "scheduler.alerts",
                  "trace.overhead", "nearness.candidates_scanned"}
    for name, _, _, kind in tracing.ENTRY_POINTS:
        producible.add(f"{name}.calls")
        if kind in (tracing.SPAN, tracing.TIMED):
            producible.add(f"{name}.s")
        if kind == tracing.SPAN:
            producible.add(f"{name}.self_s")
    assert set(run.declared_metrics(trace=True)) <= producible
    assert set(run.declared_metrics(trace=False)) == set(
        run.end_to_end(TINY, tally_of_one(), setup_s=1.0))


def tally_of_one() -> run.Tally:
    tally = run.Tally()
    scenario = scenario_mod.load_scenario(tiny_text())
    run.untraced_visit(TINY, scenario_mod, scenario, tiny_text(), tally, 0)
    return tally
