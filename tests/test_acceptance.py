"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; assertions carry the stated tolerances.
"""

import random
import time

import pytest

from adatm import (
    AirspaceState,
    CaseKind,
    Evidence,
    EvidencePolarity,
    InsertStatus,
    apply_evidence,
    diff_reports,
    infer,
    is_duplicate,
    noisy_or,
    render_report,
    resolve,
    run_oracle,
    run_simulation,
    segment_trajectory,
    simulate,
)

from conftest import (
    buckets_over,
    congestion_scenario,
    make_datum,
    random_case1_scenario,
    random_plan_dict,
    storm_reroute_scenario,
)
from test_kernel import AF1_RULE, af1_candidates
from test_traffic import brute_force_negotiate, draw_conflicted_instance
from test_trajectory import GRID, covering_segment, plan_of, sampled_cells


def ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}", flush=True)


def test_criterion_1_headroom_insertion():
    started = time.perf_counter()
    scenario = congestion_scenario(residents=4)
    report = run_simulation(scenario)
    outcomes = dict(report.outcomes)
    assert outcomes["3412"].status is InsertStatus.Accepted
    assert [r for r in report.records if r.congested] == []
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    ok(1, f"capacity-6 cell with 4 residents accepts flight 3412, "
          f"zero congested records ({elapsed * 1000:.0f} ms)")


def test_criterion_2_saturated_insertion():
    started = time.perf_counter()
    scenario = congestion_scenario(residents=6)
    state = AirspaceState(scenario.grid, scenario.bucket_seconds,
                          scenario.calm_capacity, scenario.severe_capacity)
    for plan in scenario.flights:
        if plan.flight_id != "3412":
            assert state.try_insert(plan).status is InsertStatus.Accepted
    arriving = next(p for p in scenario.flights if p.flight_id == "3412")
    verdict = state.classify_insert(state.account_for(arriving).spots)
    assert verdict.kind is CaseKind.Case2
    report = run_simulation(scenario)
    assert dict(report.outcomes)["3412"].status is InsertStatus.Rejected
    oracle = run_oracle(scenario)
    hot = [r for r in oracle.records if r.subsector == (0, 0)
           and r.bucket_start == 0.0]
    assert len(hot) == 1
    assert hot[0].occupancy == 7
    assert hot[0].capacity == 6
    assert hot[0].congested
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    ok(2, f"saturated cell classifies Case2, flight 3412 rejected, oracle "
          f"shows 7 > 6 ({elapsed * 1000:.0f} ms)")


def test_criterion_3_oracle_equivalence_200_scenarios():
    started = time.perf_counter()
    rng = random.Random(20260810)
    for trial in range(200):
        scenario = random_case1_scenario(rng, max_flights=50)
        sim = run_simulation(scenario)
        assert all(o.status is InsertStatus.Accepted for _, o in sim.outcomes)
        oracle = run_oracle(scenario)
        diff = diff_reports(sim, oracle)
        assert diff.empty, f"trial {trial}: {diff}"
        assert render_report(sim, "csv") == render_report(oracle, "csv")
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    ok(3, f"200 random headroom scenarios: decentralized records byte-equal "
          f"to the centralized oracle ({elapsed:.1f} s total)")


def test_criterion_4_segmentation_oracle_1000_plans():
    rng = random.Random(41)
    checked = 0
    for trial in range(1000):
        plan = plan_of(random_plan_dict(rng), flight_id=f"a{trial}")
        segments = segment_trajectory(plan, GRID)
        # Partition invariant holds exactly.
        assert segments[0].entry == plan.waypoints[0].t
        assert segments[-1].exit == plan.waypoints[-1].t
        for a, b in zip(segments, segments[1:]):
            assert a.exit == b.entry
            assert a.subsector != b.subsector
        boundaries = sorted({b for s in segments for b in (s.entry, s.exit)})
        for t, cell in sampled_cells(plan, GRID, step=1.0):
            seg = covering_segment(segments, t)
            assert seg is not None
            if seg.subsector != cell:
                assert min(abs(t - b) for b in boundaries) <= 1.0, \
                    f"trial {trial}: off-boundary mismatch at t={t}"
            checked += 1
    ok(4, f"1000 random plans: 1 s sampled membership within one-sample "
          f"slack, partition exact ({checked} samples)")


def test_criterion_5_negotiation_optimality_100_instances():
    rng = random.Random(55)
    for trial in range(100):
        state, arriving, verdict = draw_conflicted_instance(rng)
        expected = brute_force_negotiate(state, verdict.spots, arriving)
        resolution = state.negotiate(verdict.spots, state.account_for(arriving))
        if expected is None:
            assert resolution is None, f"trial {trial}"
        else:
            assert resolution is not None, f"trial {trial}"
            assert resolution.objective == expected, f"trial {trial}"
    ok(5, "100 exhaustive-search instances: chosen objective equals the "
          "brute-force optimum in 100/100")


def test_criterion_6_hyperdata_invariants_10000_sequences():
    rng = random.Random(66)
    for trial in range(10_000):
        datum = make_datum("x1", confidence=rng.random())
        low = datum.confidence
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.5:
                peer = make_datum("x0" if rng.random() < 0.5 else "x2",
                                  confidence=rng.random())
                assert is_duplicate(datum, peer)
                before = max(datum.confidence, peer.confidence)
                datum = resolve(datum, peer)
                assert datum.confidence >= before - 1e-15
            else:
                polarity = rng.choice(list(EvidencePolarity))
                strength = rng.random()
                before = datum.confidence
                datum = apply_evidence(
                    datum, Evidence(polarity, strength, f"s{rng.randrange(9)}"),
                    at=datum.hyperdata.updated_at + 1.0)
                if polarity is EvidencePolarity.Complementary:
                    assert datum.confidence >= before - 1e-15
            assert -1.0 <= datum.truth <= 1.0
            assert 0.0 <= datum.confidence <= 1.0
        # Noisy-OR associativity at 1e-12 on fresh triples.
        a, b, c = (rng.random() for _ in range(3))
        left = noisy_or(noisy_or(a, b), c)
        right = noisy_or(a, noisy_or(b, c))
        assert abs(left - right) <= 1e-12
        del low
    ok(6, "10000 random evidence/resolve sequences: truth and confidence "
          "stay in range, corroboration is monotone, noisy-OR associative "
          "within 1e-12")


def test_criterion_7_kernel_vignettes():
    cnn = make_datum("cnn-1", confidence=0.6, source="cnn")
    msnbc = make_datum("msnbc-1", confidence=0.5, source="msnbc")
    merged = resolve(cnn, msnbc)
    assert merged.confidence == pytest.approx(0.8, abs=1e-12)
    assert merged.id == "cnn-1"
    assert "msnbc-1" in merged.hyperdata.complementary

    hypothesis = infer(AF1_RULE, list(af1_candidates(0.9, 0.8)))
    assert hypothesis is not None
    assert hypothesis.payload == {"person": "The US President", "status": "in",
                                  "city": "Paris"}
    assert hypothesis.confidence == pytest.approx(0.9 * 0.8, abs=1e-15)
    assert hypothesis.confidence == pytest.approx(0.72, abs=1e-12)
    ok(7, "duplicate election reports fuse to confidence 0.8; the arrival "
          "rule infers the colocation hypothesis at confidence 0.72")


def test_criterion_8_determinism_all_fixtures():
    fixtures = {
        "headroom": congestion_scenario(residents=4),
        "saturated": congestion_scenario(residents=6),
        "storm-reroute": storm_reroute_scenario(with_alternates=True),
        "storm-bump": storm_reroute_scenario(with_alternates=False),
        "random-mix": random_case1_scenario(random.Random(88), max_flights=25),
    }
    for name, scenario in fixtures.items():
        first = simulate(scenario)
        second = simulate(scenario)
        assert render_report(first.report, "json") == \
            render_report(second.report, "json"), name
        assert render_report(first.report, "csv") == \
            render_report(second.report, "csv"), name
        assert first.event_log == second.event_log, name
        assert first.event_log
    ok(8, f"{len(fixtures)} fixtures produce byte-identical reports and "
          f"event logs across repeated runs")


def _recompute_occupancy(state: AirspaceState) -> dict:
    """Oracle recomputation from surviving flight accounts."""
    occ: dict = {}
    for fid, account in state.flights.items():
        for seg in account.segments:
            for b in buckets_over(state.bucket_seconds, seg.entry, seg.exit):
                occ.setdefault((seg.subsector, b), set()).add(fid)
    return occ


def test_criterion_9_weather_reaction():
    for variant, expect_reject in (("with alternates", False),
                                   ("without alternates", True)):
        scenario = storm_reroute_scenario(with_alternates=not expect_reject)
        run = simulate(scenario)
        assert run.report.stats.quiescent
        outcomes = dict(run.report.outcomes)
        occ = _recompute_occupancy(run.state)
        rejected = {fid for fid, o in outcomes.items()
                    if o.status is InsertStatus.Rejected}
        for spot, flights in sorted(occ.items()):
            capacity = run.state.capacity(*spot)
            assert len(flights) <= capacity, (variant, spot, flights)
        # Bookkeeping view matches the oracle recomputation.
        for spot, flights in occ.items():
            assert run.state.flights_in(*spot) == tuple(sorted(flights))
        if expect_reject:
            assert rejected, "no explaining rejection recorded"
            assert all("severe weather" in outcomes[f].reason for f in rejected)
        else:
            assert not rejected
            assert any(o.status is InsertStatus.Rerouted
                       for o in outcomes.values())
    ok(9, "moving storm over a 4-occupant cell: post-quiescence occupancy "
          "fits severe capacity via reroute, or the bumped flight carries "
          "an explaining rejection")
