"""Tests for the deterministic activation runtime."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from adatm import (
    ActivationReason,
    Evidence,
    EvidencePolarity,
    LifecycleState,
    NearnessIndex,
    NotionKind,
    QuerySpec,
    Runtime,
    StorageTier,
    Subscription,
    TimeInterval,
)
from adatm import kernel, scheduler
from adatm.errors import LifecycleError, NotFoundError, ValidationError
from adatm.kernel import apply_evidence, canonical_text, resolve
from adatm.scheduler import ActivationTask, RuntimeEvent, legal_transition

from conftest import make_datum, make_key
from test_kernel import AF1_RULE, af1_candidates
from test_kernel_properties import pairwise_fold


def fresh_runtime(**kwargs):
    return Runtime(**kwargs, index_cell_size=10.0)


def everything_subscription(sub_id="watch", min_confidence=0.0, kinds=None):
    return Subscription(
        id=sub_id,
        spec=QuerySpec.focused(time_window=TimeInterval(0.0, 1e9)),
        min_confidence=min_confidence,
        deliver_kinds=frozenset(kinds) if kinds else frozenset(NotionKind),
    )


class TestSchedulerConfig:
    """The runtime's settings: the three peer-query radii and the index's
    cell size."""

    @pytest.mark.parametrize("value", [-1.0, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["time_radius", "space_radius", "concept_radius"])
    def test_negative_or_nan_radius_rejected(self, name, value):
        # Rejected when the runtime is built, not as an error event logged by
        # every activation's peer query.
        with pytest.raises(ValidationError) as err:
            Runtime(**{name: value})
        assert err.value.path == name

    @pytest.mark.parametrize("name", ["time_radius", "space_radius", "concept_radius"])
    def test_zero_and_infinite_radius_accepted(self, name):
        for value in (0.0, math.inf):
            assert getattr(Runtime(**{name: value}), name) == value

    @pytest.mark.parametrize("value", [math.nan, -1.0, -math.inf])
    @pytest.mark.parametrize("name", ["time_radius", "space_radius", "concept_radius"])
    def test_the_runtime_and_a_query_refuse_alike(self, name, value):
        # One radius rule: the runtime refuses what its peer query would.
        radii = dict(time_radius=1.0, space_radius=1.0, concept_radius=1.0)
        radii[name] = value
        refusals = []
        for build in (Runtime, lambda **kw: QuerySpec.neighborhood(make_key(), **kw)):
            with pytest.raises(ValidationError) as err:
                build(**radii)
            refusals.append((err.value.message, err.value.path))
        assert refusals[0] == refusals[1] == (f"radius must be >= 0, got {value}", name)

    @pytest.mark.parametrize("value", [0.0, math.inf])
    def test_the_runtime_and_a_query_accept_alike(self, value):
        radii = dict(time_radius=value, space_radius=value, concept_radius=value)
        rt = Runtime(**radii)
        assert QuerySpec.neighborhood(make_key(), **radii) == \
            rt._peer_query(make_datum("d"))

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_index_cell_size_not_positive_and_finite_rejected(self, value):
        with pytest.raises(ValidationError) as err:
            Runtime(index_cell_size=value)
        assert err.value.path == "cell_size"


class TestLifecycle:
    def test_legal_transition_table(self):
        R, E, A = LifecycleState.Raw, LifecycleState.Encapsulated, LifecycleState.Active
        S, St, Ar, D = (LifecycleState.Suspended, LifecycleState.Stored,
                        LifecycleState.Archived, LifecycleState.Deleted)
        assert legal_transition(R, E) and legal_transition(E, A)
        assert legal_transition(A, S) and legal_transition(S, A)
        assert legal_transition(A, St) and legal_transition(St, A)
        assert legal_transition(A, Ar) and legal_transition(Ar, A)
        assert legal_transition(A, D)
        assert not legal_transition(D, A)
        assert not legal_transition(E, D)
        assert not legal_transition(R, A)
        assert not legal_transition(St, Ar)

    def test_suspend_resume(self):
        rt = fresh_runtime()
        d = make_datum("d")
        rt.add(d)
        rt.enqueue("d", ActivationReason.NewData)
        rt.step()
        rt.suspend("d")
        assert rt.lifecycle_of("d") is LifecycleState.Suspended
        rt.resume("d")
        assert rt.lifecycle_of("d") is LifecycleState.Active

    def test_deleted_datum_cannot_be_enqueued(self):
        rt = fresh_runtime()
        rt.add(make_datum("d"))
        rt.mark_deleted("d")
        with pytest.raises(LifecycleError):
            rt.enqueue("d", ActivationReason.NewData)

    def test_data_count_includes_deleted_data(self):
        rt = fresh_runtime()
        assert rt.data_count() == 0
        rt.add(make_datum("d"))
        rt.add(make_datum("e"))
        rt.mark_deleted("d")
        assert rt.data_count() == 2
        assert rt.live_ids() == ["e"]


class TestQueueOrdering:
    def test_higher_priority_first(self):
        rt = fresh_runtime()
        rt.add(make_datum("lo", payload={"x": 1}))
        rt.add(make_datum("hi", payload={"x": 2}))
        rt.enqueue("lo", ActivationReason.NewData, priority=1)
        rt.enqueue("hi", ActivationReason.NewData, priority=2)
        first = rt.step()
        assert first[0].datum_id == "hi"

    def test_equal_priority_is_fifo(self):
        rt = fresh_runtime()
        rt.add(make_datum("a", payload={"x": 1}))
        rt.add(make_datum("b", payload={"x": 2}))
        rt.enqueue("a", ActivationReason.NewData, priority=5)
        rt.enqueue("b", ActivationReason.NewData, priority=5)
        assert rt.step()[0].datum_id == "a"
        assert rt.step()[0].datum_id == "b"

    def test_hundred_random_tasks_match_sort_oracle(self):
        rng = random.Random(0)
        rt = fresh_runtime()
        expected = []
        for i in range(100):
            did = f"d{i:03d}"
            rt.add(make_datum(did, payload={"i": i}))
            priority = rng.randint(0, 5)
            task = rt.enqueue(did, ActivationReason.NewData, priority=priority)
            expected.append((-priority, task.enqueued_seq, did))
        expected.sort()
        order = []
        while rt.pending_tasks():
            order.append(rt.step()[0].datum_id)
        assert order == [e[2] for e in expected]

    def test_default_priorities_weather_preempts(self):
        rt = fresh_runtime()
        rt.add(make_datum("n", payload={"x": 1}))
        rt.add(make_datum("w", payload={"x": 2}))
        rt.enqueue("n", ActivationReason.NewData)
        rt.enqueue("w", ActivationReason.WeatherChanged)
        assert rt.step()[0].datum_id == "w"

    def test_default_priorities_pop_order(self):
        # Enqueued lowest first, so arrival order cannot explain the result.
        rt = fresh_runtime()
        reasons = [ActivationReason.NewData, ActivationReason.PeerArrived,
                   ActivationReason.WeatherChanged, ActivationReason.TimerExpired]
        for i, reason in enumerate(reasons):
            rt.add(make_datum(reason.value, payload={"x": i}))
            rt.enqueue(reason.value, reason)
        order = [rt.step()[0].datum_id for _ in reasons]
        assert order == ["timer-expired", "weather-changed", "peer-arrived", "new-data"]


def assert_silent_after_deletion(rt, datum_id):
    """No line names the datum after its ``deleted`` line, and the log's
    ``seq`` runs 1, 2, ... without a gap."""
    assert [e.seq for e in rt.event_log] == list(range(1, len(rt.event_log) + 1))
    lines = [(e.event_type, e.datum_id) for e in rt.event_log]
    deleted = lines.index(("deleted", datum_id))
    assert all(named != datum_id for _, named in lines[deleted + 1:])


class TestDroppedTask:
    """A task whose datum was deleted after it was queued is popped and
    counted as a step, but writes no line."""

    def test_absorbed_datum_task_counts_as_a_silent_step(self):
        rt = fresh_runtime()
        rt.add(make_datum("a", confidence=0.6))
        rt.add(make_datum("b", confidence=0.5))
        rt.enqueue("a", ActivationReason.NewData)
        rt.enqueue("b", ActivationReason.NewData)
        stats = rt.run_until_quiescent(10)
        assert (stats.steps, stats.merges, stats.deletions) == (2, 1, 1)
        assert stats.quiescent
        assert [(e.event_type, e.datum_id) for e in rt.event_log] == [
            ("activated", "a"), ("peers", "a"), ("merged", "a"), ("deleted", "b")]
        assert_silent_after_deletion(rt, "b")

    def test_forced_deletion_leaves_its_tasks_queued_until_popped(self):
        rt = fresh_runtime()
        rt.add(make_datum("d", payload={"x": 1}))
        rt.add(make_datum("e", payload={"x": 2}))
        rt.enqueue("d", ActivationReason.NewData)
        rt.enqueue("d", ActivationReason.PeerArrived)
        rt.enqueue("e", ActivationReason.NewData)
        rt.enqueue("d", ActivationReason.TimerExpired)
        rt.mark_deleted("d")
        # The tasks are not cancelled: the step budget still sees them.
        assert rt.pending_tasks() == 4
        stats = rt.run_until_quiescent(10)
        assert stats.steps == 4 and stats.quiescent
        assert [(e.event_type, e.datum_id) for e in rt.event_log] == [
            ("deleted", "d"), ("activated", "e"), ("peers", "e")]
        assert_silent_after_deletion(rt, "d")


class TestStepActivation:
    def test_empty_queue_is_noop(self):
        assert fresh_runtime().step() == []

    def test_duplicates_merge_after_two_steps(self):
        rt = fresh_runtime()
        a = make_datum("a", confidence=0.6)
        b = make_datum("b", confidence=0.5)
        rt.add(a)
        rt.add(b)
        rt.enqueue("a", ActivationReason.NewData)
        rt.enqueue("b", ActivationReason.NewData)
        rt.step()
        assert rt.pending_tasks() == 1
        # The second task finds its datum absorbed and leaves without a line.
        assert rt.step() == []
        assert rt.pending_tasks() == 0
        assert rt.lifecycle_of("a") is LifecycleState.Active
        assert rt.lifecycle_of("b") is LifecycleState.Deleted
        assert rt.datum("a").confidence == pytest.approx(0.8, abs=1e-12)
        types = [e.event_type for e in rt.event_log]
        assert "merged" in types
        assert_silent_after_deletion(rt, "b")

    def test_alert_published_once(self):
        rt = fresh_runtime()
        rt.subscribe(everything_subscription())
        rt.add(make_datum("d"))
        rt.enqueue("d", ActivationReason.NewData)
        events = rt.step()
        assert [e for e in events if e.event_type == "alert"]
        assert len(rt.alerts) == 1
        # Re-activation does not re-alert.
        rt.enqueue("d", ActivationReason.PeerArrived)
        rt.step()
        assert len(rt.alerts) == 1

    def test_min_confidence_gate(self):
        rt = fresh_runtime()
        rt.subscribe(everything_subscription(min_confidence=0.9))
        rt.add(make_datum("d", confidence=0.5))
        rt.enqueue("d", ActivationReason.NewData)
        rt.step()
        assert rt.alerts == []

    def test_two_overlapping_subscriptions_two_alerts(self):
        # The alerts follow the subscription ids, whatever the subscribe order.
        for order in (["s1", "s2"], ["s2", "s1"]):
            rt = fresh_runtime()
            for sub_id in order:
                rt.subscribe(everything_subscription(sub_id))
            rt.add(make_datum("d"))
            rt.enqueue("d", ActivationReason.NewData)
            rt.step()
            assert [a.subscription_id for a in rt.alerts] == ["s1", "s2"], order

    def test_kind_filter(self):
        rt = fresh_runtime()
        rt.subscribe(everything_subscription(kinds={NotionKind.Hypothesis}))
        rt.add(make_datum("d", kind=NotionKind.Event))
        rt.enqueue("d", ActivationReason.NewData)
        rt.step()
        assert rt.alerts == []

    def test_pending_evidence_applied(self):
        rt = fresh_runtime()
        rt.add(make_datum("d", confidence=0.5))
        rt.post_evidence("d", Evidence(EvidencePolarity.Complementary, 0.5, "peer"),
                         at=400.0)
        rt.run_until_quiescent(10)
        assert rt.datum("d").confidence == pytest.approx(0.75, abs=1e-12)

    def test_rule_fires_and_enqueues_hypothesis(self):
        # Premise concepts sit two edges apart, so widen the peer search.
        rt = fresh_runtime(concept_radius=2.0)
        rt.register_rule(AF1_RULE)
        arrival, aboard = af1_candidates()
        rt.add(arrival)
        rt.add(aboard)
        rt.enqueue(arrival.id, ActivationReason.NewData)
        rt.enqueue(aboard.id, ActivationReason.NewData)
        stats = rt.run_until_quiescent(50)
        assert stats.quiescent
        hyps = [i for i in rt.live_ids() if i.startswith("hyp-")]
        assert len(hyps) == 1
        hyp = rt.datum(hyps[0])
        assert hyp.payload["city"] == "Paris"
        assert hyp.confidence == pytest.approx(0.72, abs=1e-12)

    def test_partial_rule_match_records_gap(self):
        rt = fresh_runtime()
        rt.register_rule(AF1_RULE)
        arrival, _ = af1_candidates()
        rt.add(arrival)
        rt.enqueue(arrival.id, ActivationReason.NewData)
        rt.run_until_quiescent(10)
        assert rt.datum(arrival.id).hyperdata.missing == (
            "aboard=Air Force One;person=The US President",)

    def test_confidently_false_datum_self_deletes(self):
        rt = fresh_runtime()
        rt.add(make_datum("d", confidence=0.5))
        rt.post_evidence("d", Evidence(EvidencePolarity.Refuting, 1.0, "proof"),
                         at=150.0)
        rt.run_until_quiescent(10)
        assert rt.lifecycle_of("d") is LifecycleState.Deleted
        assert rt.datum("d").tier is StorageTier.Deleted


def fusion_data():
    """The activated datum d5 and its peers.  d1 is its first duplicate and
    has the smaller id, so the survivor switches to d1 at the first merge;
    d2 meets only the key that d1's merge grows; d3 and d4 never merge."""
    def datum(datum_id, box, confidence=0.4, payload=None, **hyperdata):
        d = make_datum(datum_id, payload=payload, confidence=confidence,
                       key=make_key(box=box))
        return replace(d, hyperdata=replace(d.hyperdata, **hyperdata))

    return {d.id: d for d in (
        datum("d5", (0.0, 0.0, 10.0, 10.0), 0.5, complementary=("x",), refuting=("y",)),
        datum("d1", (5.0, 0.0, 15.0, 10.0), 0.3, truth=-0.4, detail=0.9,
              complementary=("z",), refuting=("x", "w")),
        datum("d2", (10.5, 0.0, 20.0, 10.0), 0.0, exposure=0.2),
        datum("d3", (0.0, 10.5, 10.0, 20.0)),
        datum("d4", (0.0, 0.0, 10.0, 10.0), payload={"race": "mayor"}),
        datum("d6", (2.0, 2.0, 8.0, 8.0), 0.2, missing=("m",), refuting=("z",)),
    )}


def pairwise_fusion(data, activated):
    """Today's merge rules written out one ``resolve`` at a time: the
    expected survivor, and the merged/deleted event lines in order."""
    peers = [d for d in data.values() if d.id != activated]
    survivor, steps = pairwise_fold(data[activated], peers, merge=resolve)
    lines = []
    for kept, absorbed, confidence in steps:
        lines += [("merged", kept, f"absorbed={absorbed} confidence={confidence:.6f}"),
                  ("deleted", absorbed, "absorbed by duplicate")]
    return survivor, lines


def fusion_lines(rt):
    return [(e.event_type, e.datum_id, e.detail) for e in rt.event_log
            if e.event_type in ("merged", "deleted")]


class _LifeWrites(dict):
    """A lifecycle map that records every write."""

    def __init__(self, *args):
        super().__init__(*args)
        self.log = []

    def __setitem__(self, key, value):
        self.log.append((key, value))
        super().__setitem__(key, value)


class TestMarkDeleted:
    """A forced deletion is one lifecycle write from every state that may
    become Active; Raw may not, so it is refused and nothing changes."""

    @pytest.mark.parametrize("state", [
        LifecycleState.Encapsulated, LifecycleState.Active, LifecycleState.Suspended,
        LifecycleState.Stored, LifecycleState.Archived])
    def test_one_lifecycle_write(self, state):
        rt = fresh_runtime()
        rt.add(make_datum("d"))
        rt.add(make_datum("e"))  # same text: the text map keeps e
        rt._life["d"] = state
        rt._life = writes = _LifeWrites(rt._life)
        rt.mark_deleted("d")
        assert writes.log == [("d", LifecycleState.Deleted)]
        assert "d" not in rt.index and "e" in rt.index
        assert rt._by_text == {rt.datum("e").text: {"e"}}
        assert [e.render() for e in rt.event_log] == ["1|deleted|d|forced"]

    def test_raw_datum_is_refused_and_left_as_it_was(self):
        rt = fresh_runtime()
        rt.add(make_datum("d"))
        rt._life["d"] = LifecycleState.Raw
        rt._life = writes = _LifeWrites(rt._life)
        with pytest.raises(LifecycleError, match="^d: illegal transition raw -> active$"):
            rt.mark_deleted("d")
        assert writes.log == [] and rt.lifecycle_of("d") is LifecycleState.Raw
        assert "d" in rt.index and rt._by_text == {rt.datum("d").text: {"d"}}
        assert rt.event_log == []


class TestDuplicateFusion:
    def test_one_pass_equals_pairwise_resolve_loop(self):
        data = fusion_data()
        rt = fresh_runtime()
        for d in data.values():
            rt.add(d)
        rt.enqueue("d5", ActivationReason.NewData)
        rt.step()
        want, lines = pairwise_fusion(data, "d5")
        absorbed = ["d5", "d2", "d6"]
        assert [(kind, datum_id) for kind, datum_id, _ in lines] == [
            step for loser in absorbed for step in (("merged", "d1"), ("deleted", loser))]
        assert fusion_lines(rt) == lines
        survivor = rt.datum("d1")
        assert survivor.hyperdata == want.hyperdata
        assert survivor.key == want.key == rt.index.key_of("d1")
        assert survivor.key.space.x1 == 20.0  # grown by d2, which d5 alone never met
        # The rest of the activation runs on the survivor, so it is Active.
        assert rt.lifecycle_of("d1") is LifecycleState.Active
        for loser in absorbed:
            assert rt.lifecycle_of(loser) is LifecycleState.Deleted
            assert loser not in rt.index
            original = data[loser]
            assert rt.datum(loser) == replace(original, hyperdata=replace(
                original.hyperdata, tier=StorageTier.Deleted))
        for untouched in ("d3", "d4"):
            assert rt.lifecycle_of(untouched) is LifecycleState.Encapsulated
            assert rt.datum(untouched) == data[untouched]

    def test_absorbed_datum_is_retired_in_one_lifecycle_write(self):
        rt = fresh_runtime()
        rt.add(make_datum("a", confidence=0.6))
        rt.add(make_datum("b", confidence=0.5))
        rt._life = writes = _LifeWrites(rt._life)
        rt.enqueue("a", ActivationReason.NewData)
        rt.step()
        assert [line[:2] for line in fusion_lines(rt)] == [("merged", "a"), ("deleted", "b")]
        # Encapsulated -> Deleted: the legal path's Active hop is not stored.
        assert [state for datum_id, state in writes.log if datum_id == "b"] == [
            LifecycleState.Deleted]
        assert "b" not in rt.index and rt.live_ids() == ["a"]

    def test_absorbed_datum_that_cannot_pass_through_active_is_kept(self):
        rt = fresh_runtime()
        rt.add(make_datum("a", confidence=0.6))
        rt.add(make_datum("b", confidence=0.5))
        rt._life["b"] = LifecycleState.Raw
        rt.enqueue("a", ActivationReason.NewData)
        events = rt.step()
        assert (events[-1].event_type, events[-1].detail) == (
            "error", "LifecycleError: b: illegal transition raw -> active")
        assert rt.lifecycle_of("b") is LifecycleState.Raw and "b" in rt.index

    def test_forked_clone_among_peers_is_not_fused(self):
        rt = fresh_runtime()
        rt.add(make_datum("x", confidence=0.6))
        rt.enqueue("x", ActivationReason.NewData)
        rt.step()
        _, clone_id = rt.fork("x")
        rt.add(make_datum("y", confidence=0.5))
        rt.enqueue("y", ActivationReason.NewData, priority=99)
        rt.step()
        # y's peers are x and its clone: x absorbs y, and the clone, which
        # links back to x, stays a separate replica.
        assert fusion_lines(rt) == [
            ("merged", "x", "absorbed=y confidence=0.800000"),
            ("deleted", "y", "absorbed by duplicate")]
        rt.run_until_quiescent(10)
        assert rt.lifecycle_of(clone_id) is LifecycleState.Active
        assert rt.live_ids() == sorted(["x", clone_id])
        assert rt.datum(clone_id).confidence == pytest.approx(0.6)

    def test_evidence_on_absorbed_ids_reaches_survivor_in_arrival_order(self):
        data = fusion_data()
        rt = fresh_runtime()
        for d in data.values():
            rt.add(d)
        posted = [("d2", EvidencePolarity.Complementary, 0.25, 300.0),
                  ("d5", EvidencePolarity.Refuting, 0.5, 200.0),
                  ("d1", EvidencePolarity.Complementary, 0.125, 400.0),
                  ("d6", EvidencePolarity.Refuting, 0.75, 250.0),
                  ("d2", EvidencePolarity.Refuting, 0.0625, 500.0)]
        for target, polarity, strength, at in posted:
            rt.post_evidence(target, Evidence(polarity, strength, f"src-{target}"), at=at)
        rt.enqueue("d5", ActivationReason.TimerExpired)
        rt.step()
        want, _ = pairwise_fusion(data, "d5")
        for target, polarity, strength, at in posted:
            want = apply_evidence(want, Evidence(polarity, strength, f"src-{target}"), at=at)
        evidence = [e for e in rt.event_log if e.event_type == "evidence"]
        assert [e.datum_id for e in evidence] == ["d1"] * len(posted)
        assert [e.detail.split()[:2] for e in evidence] == [
            [f"polarity={p.value}", f"strength={s}"] for _, p, s, _ in posted]
        assert rt.datum("d1").hyperdata == want.hyperdata

    def test_suspended_survivor_is_active(self):
        rt = fresh_runtime()
        rt.subscribe(everything_subscription())
        rt.add(make_datum("d1", confidence=0.4))
        rt.enqueue("d1", ActivationReason.NewData)
        rt.step()
        rt.suspend("d1")
        rt.add(make_datum("d2", confidence=0.3))
        rt.enqueue("d2", ActivationReason.NewData)
        rt.step()
        assert fusion_lines(rt) == [
            ("merged", "d1", "absorbed=d2 confidence=0.580000"),
            ("deleted", "d2", "absorbed by duplicate")]
        assert rt.lifecycle_of("d1") is LifecycleState.Active
        assert not [e for e in rt.event_log if e.event_type == "error"]

    def test_survivor_turning_cold_is_stored(self):
        rt = fresh_runtime()
        rt.now = 20_000.0  # beyond the warm age of data observed at 100 s
        rt.add(make_datum("d1", confidence=0.4))
        rt.add(make_datum("d2", confidence=0.3))
        rt.enqueue("d2", ActivationReason.NewData)
        rt.step()
        assert [(e.event_type, e.datum_id, e.detail) for e in rt.event_log[2:]] == [
            ("merged", "d1", "absorbed=d2 confidence=0.580000"),
            ("deleted", "d2", "absorbed by duplicate"),
            ("tier", "d1", "tier=cold")]
        assert rt.lifecycle_of("d1") is LifecycleState.Stored
        assert rt.datum("d1").tier is StorageTier.Cold

    def test_no_live_same_text_peer_never_fuses(self, monkeypatch):
        calls = []
        real_fuse = kernel.fuse

        def counted_fuse(*args):
            calls.append(args[0].id)
            return real_fuse(*args)

        monkeypatch.setattr(kernel, "fuse", counted_fuse)
        rt = fresh_runtime()
        for i, text in enumerate(["a", "b", "a", "c"]):
            rt.add(make_datum(f"d{i}", payload={"text": text}))
        rt.mark_deleted("d0")
        rt.enqueue("d2", ActivationReason.NewData)
        rt.step()
        # d2's peers d1 and d3 carry other texts; its one twin is deleted.
        assert [(e.event_type, e.detail) for e in rt.event_log] == [
            ("deleted", "forced"), ("activated", "reason=new-data priority=10 seq=1"),
            ("peers", "count=2")]
        assert calls == []
        rt.add(make_datum("d4", payload={"text": "a"}))
        rt.enqueue("d4", ActivationReason.NewData)
        rt.step()
        assert calls == ["d4"]
        assert fusion_lines(rt)[-2:] == [
            ("merged", "d2", "absorbed=d4 confidence=0.990000"),
            ("deleted", "d4", "absorbed by duplicate")]


class TestDeletedView:
    """Deletion changes only the lifecycle; ``datum`` builds the Deleted view."""

    def test_every_deletion_path_reads_tier_deleted(self):
        rt = fresh_runtime()
        far = make_key(box=(500.0, 500.0, 510.0, 510.0))
        twin, loser = make_datum("a", confidence=0.5), make_datum("b", confidence=0.4)
        forced = make_datum("forced", payload={"race": "mayor"}, key=far)
        refuted = make_datum("refuted", payload={"race": "senate"}, confidence=0.5,
                             key=far)
        untouched = make_datum("untouched", payload={"race": "judge"}, key=far)
        for d in (twin, loser, forced, refuted, untouched):
            rt.add(d)
        rt.enqueue("a", ActivationReason.NewData)
        rt.step()
        rt.mark_deleted("forced")
        proof = Evidence(EvidencePolarity.Refuting, 1.0, "proof")
        rt.post_evidence("refuted", proof, at=150.0)
        rt.run_until_quiescent(10)
        assert [(e.datum_id, e.detail) for e in rt.event_log
                if e.event_type == "deleted"] == [
            ("b", "absorbed by duplicate"), ("forced", "forced"),
            ("refuted", "confidently false")]
        refuted_last = apply_evidence(refuted, proof, at=150.0)
        last_stored = {
            "b": loser,
            "forced": forced,
            "refuted": replace(refuted_last, hyperdata=replace(
                refuted_last.hyperdata, tier=StorageTier.Deleted)),
        }
        for datum_id, last in last_stored.items():
            view = rt.datum(datum_id)
            assert rt.lifecycle_of(datum_id) is LifecycleState.Deleted
            assert view.tier is StorageTier.Deleted
            assert replace(view, hyperdata=replace(view.hyperdata, tier=last.tier)) == last
        # A live datum is handed out as stored, not copied.
        assert rt.datum("untouched") is untouched
        assert rt.datum("a") is rt.datum("a")
        assert rt.datum("a").tier is StorageTier.Hot

    def test_existence_checks_build_no_view(self, monkeypatch):
        rt = fresh_runtime()
        rt.add(make_datum("gone"))
        rt.add(make_datum("here", payload={"race": "mayor"}))
        rt.send("here", "gone", "early")
        rt.mark_deleted("gone")

        def no_view(*args, **kwargs):
            raise AssertionError("Deleted view built")

        monkeypatch.setattr(scheduler, "replace", no_view)
        assert rt.receive("gone").payload == "early"
        rt.send("gone", "here", "late")
        for op in (rt.suspend, rt.resume):
            with pytest.raises(LifecycleError):
                op("gone")
        with pytest.raises(LifecycleError):
            rt.send("here", "gone", "refused")
        with pytest.raises(LifecycleError):
            rt.fork("gone")


class TestIndexAfterFusion:
    def test_grid_equals_a_fresh_index_of_the_live_items(self):
        # 300 same-text reports over a few cells each, as in a storm.
        # Another text is interleaved so that cells keep items when
        # reports leave them.
        rng = random.Random(23)
        rt = Runtime(index_cell_size=1.0)
        for i in range(300):
            x0, y0 = 4.0 + rng.uniform(-2.0, 2.0), 4.0 + rng.uniform(-2.0, 2.0)
            t0 = rng.uniform(0.0, 600.0)
            key = make_key(t0=t0, t1=t0 + rng.choice([0.0, 60.0, 2000.0]),
                           box=(x0, y0, x0 + rng.uniform(0.5, 4.0),
                                y0 + rng.uniform(0.5, 4.0)))
            payload = {"storm": "st-1"} if i % 10 else {"storm": f"other-{i}"}
            rt.add(make_datum(f"obs-{i:03d}", payload=payload,
                              confidence=rng.uniform(0.005, 0.02), key=key))
            rt.enqueue(f"obs-{i:03d}", ActivationReason.NewData)
        stats = rt.run_until_quiescent(1000)
        assert stats.quiescent and stats.merges >= 250
        live = rt.live_ids()
        fresh = NearnessIndex(cell_size=1.0)
        for datum_id in live:
            fresh.insert(datum_id, rt.datum(datum_id).key)
        assert len(rt.index) == len(live)
        assert rt.index._grid == fresh._grid
        assert rt.index._filed == fresh._filed
        assert rt.index._oversize == fresh._oversize
        assert sorted(rt.index._filed) == live
        # The cells hold each survivor's grown key, as the store does.
        for datum_id in live:
            for ids in rt.index._candidates(rt._peer_query(rt.datum(datum_id))):
                for peer, key in ids.items():
                    assert key == rt.datum(peer).key


def live_texts(rt):
    """The payload-text map recounted from the store's live data."""
    out: dict[str, set[str]] = {}
    for datum_id in rt.live_ids():
        out.setdefault(rt.datum(datum_id).text, set()).add(datum_id)
    return out


class TestTextMap:
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(st.tuples(
        st.sampled_from(["add", "add", "activate", "activate", "fork", "delete", "refute"]),
        st.integers(0, 7), st.integers(0, 1), st.integers(0, 2)), min_size=8, max_size=40))
    def test_map_equals_a_recount_after_every_step(self, ops):
        rt = fresh_runtime()
        for op, pick, text, place in ops:
            live = rt.live_ids()
            target = live[pick % len(live)] if live else None
            if op == "add":
                rt.add(make_datum(f"n{rt.data_count():02d}", payload={"t": text},
                                  confidence=0.3 + 0.1 * place,
                                  key=make_key(box=(place * 4.0, 0.0,
                                                    place * 4.0 + 5.0, 5.0))))
            elif target is None:
                continue
            elif op == "activate":
                rt.enqueue(target, ActivationReason.NewData)
                rt.run_until_quiescent(100)
            elif op == "fork":
                if rt.lifecycle_of(target) is LifecycleState.Active:
                    rt.fork(target)
            elif op == "delete":
                rt.mark_deleted(target)
            else:  # a refutation that makes the datum delete itself by tier
                rt.post_evidence(target, Evidence(EvidencePolarity.Refuting, 1.0, "x"),
                                 at=150.0)
                rt.run_until_quiescent(100)
            assert rt._by_text == live_texts(rt)
        assert not [e for e in rt.event_log if e.event_type == "error"]


class TestRunUntilQuiescent:
    def test_empty_runtime(self):
        stats = fresh_runtime().run_until_quiescent(10)
        assert stats.steps == 0
        assert stats.quiescent

    def test_independent_data_take_one_step_each(self):
        rt = fresh_runtime()
        for i in range(7):
            rt.add(make_datum(f"d{i}", payload={"i": i},
                              key=make_key(box=(i * 100.0, 0, i * 100.0 + 1, 1))))
            rt.enqueue(f"d{i}", ActivationReason.NewData)
        stats = rt.run_until_quiescent(100)
        assert stats.steps == 7
        assert stats.quiescent

    def test_budget_exhaustion_flags_non_quiescence(self):
        rt = fresh_runtime()
        rt.add(make_datum("a", payload={"x": 1}))
        rt.add(make_datum("b", payload={"x": 2}))
        rt.enqueue("a", ActivationReason.NewData)
        rt.enqueue("b", ActivationReason.NewData)
        stats = rt.run_until_quiescent(1)
        assert stats.steps == 1
        assert not stats.quiescent

    def test_acyclic_rules_quiesce_within_bound(self):
        rt = fresh_runtime(concept_radius=2.0)
        rt.register_rule(AF1_RULE)
        arrival, aboard = af1_candidates()
        rt.add(arrival)
        rt.add(aboard)
        rt.enqueue(arrival.id, ActivationReason.NewData)
        rt.enqueue(aboard.id, ActivationReason.NewData)
        stats = rt.run_until_quiescent(10 * 2)
        assert stats.quiescent

    def test_exactly_once_activation(self):
        rt = fresh_runtime()
        for i in range(20):
            rt.add(make_datum(f"d{i:02d}", payload={"i": i}))
            rt.enqueue(f"d{i:02d}", ActivationReason.NewData)
        rt.run_until_quiescent(500)
        activated = [e for e in rt.event_log if e.event_type == "activated"]
        assert len(activated) == 20


def _three_twins_one_raw():
    """Three data of one text with ``c`` forced to Raw, and ``a`` queued:
    its fold absorbs ``b``, then fails to retire ``c``."""
    rt = fresh_runtime()
    for datum_id in ("a", "b", "c"):
        rt.add(make_datum(datum_id))
    rt._life["c"] = LifecycleState.Raw
    rt.enqueue("a", ActivationReason.NewData)
    return rt


#: The lines of ``_three_twins_one_raw``'s one step.
FAILED_STEP = [("activated", "a"), ("peers", "a"), ("merged", "a"), ("deleted", "b"),
               ("error", "a")]


def _log_counts(events) -> tuple[int, int, int]:
    types = [e.event_type for e in events]
    return types.count("alert"), types.count("merged"), types.count("deleted")


class TestTheLogIsTheRecord:
    """A step returns, and a drain counts, the lines it appended to the
    event log.  Each used to keep a list of its own, which lost the lines
    an activation logged before it failed: the drain below reported no
    merge and no deletion, and ``step`` returned only the activated and
    error lines."""

    def test_a_failed_step_returns_every_line_it_logged(self):
        rt = _three_twins_one_raw()
        events = rt.step()
        assert events == rt.event_log
        assert [(e.event_type, e.datum_id) for e in events] == FAILED_STEP
        assert events[-1].detail == "LifecycleError: c: illegal transition raw -> active"

    def test_a_failed_drain_counts_every_line_it_logged(self):
        rt = _three_twins_one_raw()
        stats = rt.run_until_quiescent(10)
        assert [(e.event_type, e.datum_id) for e in rt.event_log] == FAILED_STEP
        assert (stats.steps, stats.merges, stats.deletions, stats.alerts) == (1, 1, 1, 0)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32))
    def test_steps_and_drains_read_their_own_lines(self, seed):
        """Random short runs of every runtime operation, a datum forced to
        Raw among them, so that some activations fail part-way."""
        rng = random.Random(seed)
        rt = fresh_runtime(concept_radius=2.0)
        templates = list(af1_candidates()) + [
            make_datum("t", payload={"x": 1}), make_datum("t", payload={"x": 2})]
        for n in range(rng.randrange(8, 25)):
            live = rt.live_ids()
            op = rng.randrange(9) if live else 0
            if op == 0:
                template = rng.choice(templates)
                rt.add(replace(template, id=f"d{n}", hyperdata=replace(
                    template.hyperdata, confidence=rng.choice([0.05, 0.5, 0.9]))))
            elif op == 1:
                rt.enqueue(rng.choice(live), rng.choice(list(ActivationReason)))
            elif op == 2:
                rt.post_evidence(rng.choice(live), Evidence(
                    rng.choice(list(EvidencePolarity)), rng.choice([0.3, 1.0]), "src"),
                    at=rng.uniform(0.0, 500.0))
            elif op == 3 and "colocate" not in rt._rules:
                rt.register_rule(AF1_RULE)
            elif op == 4:
                try:
                    rt.mark_deleted(rng.choice(live))
                except LifecycleError:
                    pass  # a Raw datum may not be deleted
            elif op == 5:
                rt.subscribe(everything_subscription(f"w{n}", rng.choice([0.0, 0.6])))
            elif op == 6:
                rt._life[rng.choice(live)] = LifecycleState.Raw
            elif op == 7:
                start = len(rt.event_log)
                assert rt.step() == rt.event_log[start:]
            else:
                start = len(rt.event_log)
                budget = rng.randrange(1, 6)
                stats = rt.run_until_quiescent(budget)
                assert stats.steps <= budget
                assert (stats.alerts, stats.merges, stats.deletions) == \
                    _log_counts(rt.event_log[start:])


def _drain_and_step(drained, stepped, budget):
    """Drain one twin with ``budget`` and step the other as many times as
    it has tasks, up to ``budget``; both must end alike."""
    stats = drained.run_until_quiescent(budget)
    steps = 0
    while steps < budget and stepped.pending_tasks():
        stepped.step()
        steps += 1
    assert stats.steps == steps
    assert drained.event_log == stepped.event_log
    assert [e.seq for e in drained.event_log] == list(range(1, len(drained.event_log) + 1))
    assert drained.pending_tasks() == stepped.pending_tasks()
    assert drained._life == stepped._life
    assert stats.quiescent == (stepped.pending_tasks() == 0)


class TestTheDrainIsItsSteps:
    """``run_until_quiescent(b)`` leaves a runtime as ``b`` calls of
    ``step`` leave its twin.  The task of a deleted datum counts as a
    step, also when the budget ends among such tasks."""

    def test_a_budget_can_end_among_dropped_tasks(self):
        twins = fresh_runtime(), fresh_runtime()
        for rt in twins:
            for datum_id in ("a", "b", "c", "d"):
                rt.add(make_datum(datum_id))
                rt.enqueue(datum_id, ActivationReason.NewData)
        # ``a`` absorbs the other three; two of their tasks are dropped.
        _drain_and_step(*twins, 3)
        assert twins[0].pending_tasks() == 1
        assert [e.event_type for e in twins[0].event_log].count("merged") == 3
        _drain_and_step(*twins, 5)
        assert twins[0].pending_tasks() == 0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32))
    def test_a_drain_matches_as_many_steps(self, seed):
        """Random short runs of the operations of
        ``TestTheLogIsTheRecord``, applied to two twins, with bursts of
        queued duplicates that a fold absorbs and data forced out with
        their tasks still queued."""
        rng = random.Random(seed)
        twins = fresh_runtime(concept_radius=2.0), fresh_runtime(concept_radius=2.0)
        templates = list(af1_candidates()) + [
            make_datum("t", payload={"x": 1}), make_datum("t", payload={"x": 2})]
        for n in range(rng.randrange(8, 25)):
            live = twins[0].live_ids()
            op = rng.randrange(8) if live else 0
            if op == 0:
                template = rng.choice(templates)
                confidences = [rng.choice([0.05, 0.5, 0.9])
                               for _ in range(rng.randrange(1, 6))]
                for rt in twins:
                    for k, confidence in enumerate(confidences):
                        rt.add(replace(template, id=f"d{n}-{k}", hyperdata=replace(
                            template.hyperdata, confidence=confidence)))
                        rt.enqueue(f"d{n}-{k}", ActivationReason.NewData)
            elif op == 1:
                datum_id, reason = rng.choice(live), rng.choice(list(ActivationReason))
                for rt in twins:
                    rt.enqueue(datum_id, reason)
            elif op == 2:
                datum_id, at = rng.choice(live), rng.uniform(0.0, 500.0)
                evidence = Evidence(rng.choice(list(EvidencePolarity)),
                                    rng.choice([0.3, 1.0]), "src")
                for rt in twins:
                    rt.post_evidence(datum_id, evidence, at=at)
            elif op == 3 and "colocate" not in twins[0]._rules:
                for rt in twins:
                    rt.register_rule(AF1_RULE)
            elif op == 4:
                datum_id = rng.choice(live)
                for rt in twins:
                    try:
                        rt.mark_deleted(datum_id)
                    except LifecycleError:
                        pass  # a Raw datum may not be deleted
            elif op == 5:
                sub_id, least = f"w{n}", rng.choice([0.0, 0.6])
                for rt in twins:
                    rt.subscribe(everything_subscription(sub_id, least))
            elif op == 6:
                datum_id = rng.choice(live)
                for rt in twins:
                    rt._life[datum_id] = LifecycleState.Raw
            else:
                _drain_and_step(*twins, rng.randrange(1, 7))
        _drain_and_step(*twins, rng.randrange(1, 7))


class TestTheIndexHoldsTheLive:
    """After every runtime operation the nearness index holds exactly the
    live data, each under its stored key.  So deletion and re-indexing
    need not ask whether a datum is filed."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32))
    def test_after_every_operation(self, seed):
        """Random short runs of the operations of ``TestTheLogIsTheRecord``
        and of fork, suspend and resume, with twins whose keys differ, so
        that a fold re-indexes its survivor under the cover of both."""
        rng = random.Random(seed)
        rt = fresh_runtime(concept_radius=2.0)
        templates = list(af1_candidates()) + [
            make_datum("t", payload={"x": 1}, key=make_key(t0, t0 + 600.0, box))
            for t0 in (0.0, 300.0) for box in ((0.0, 0.0, 10.0, 10.0), (5.0, 5.0, 15.0, 15.0))]
        for n in range(rng.randrange(8, 25)):
            live = rt.live_ids()
            op = rng.randrange(10) if live else 0
            if op == 0:
                template = rng.choice(templates)
                rt.add(replace(template, id=f"d{n}", hyperdata=replace(
                    template.hyperdata, confidence=rng.choice([0.05, 0.5, 0.9]))))
                rt.enqueue(f"d{n}", ActivationReason.NewData)
            elif op == 1:
                rt.enqueue(rng.choice(live), rng.choice(list(ActivationReason)))
            elif op == 2:
                rt.post_evidence(rng.choice(live), Evidence(
                    rng.choice(list(EvidencePolarity)), rng.choice([0.3, 1.0]), "src"),
                    at=rng.uniform(0.0, 500.0))
            elif op == 3 and "colocate" not in rt._rules:
                rt.register_rule(AF1_RULE)
            elif op in (4, 5, 6, 7):
                act = (rt.mark_deleted, rt.fork, rt.suspend, rt.resume)[op - 4]
                try:
                    act(rng.choice(live))
                except LifecycleError:
                    pass  # not legal from the datum's state
            elif op == 8:
                rt.step()
            else:
                rt.run_until_quiescent(rng.randrange(1, 6))
            live = rt.live_ids()
            assert len(rt.index) == len(live)
            for datum_id in live:
                assert rt.index.key_of(datum_id) == rt.datum(datum_id).key


class TestFork:
    def test_clone_matches_original(self):
        rt = fresh_runtime()
        rt.add(make_datum("d", confidence=0.7))
        rt.enqueue("d", ActivationReason.NewData)
        rt.step()
        original_id, clone_id = rt.fork("d")
        original, clone = rt.datum(original_id), rt.datum(clone_id)
        assert original_id == "d" and clone_id != "d"
        assert clone.payload == original.payload
        assert clone.text == original.text == canonical_text(original.payload)
        hd_o, hd_c = original.hyperdata, clone.hyperdata
        assert (hd_c.truth, hd_c.confidence, hd_c.detail, hd_c.exposure,
                hd_c.tier) == (hd_o.truth, hd_o.confidence, hd_o.detail,
                               hd_o.exposure, hd_o.tier)
        assert original_id in hd_c.complementary

    def test_fork_requires_active(self):
        rt = fresh_runtime()
        rt.add(make_datum("d"))
        with pytest.raises(LifecycleError):
            rt.fork("d")  # still Encapsulated
        rt.mark_deleted("d")
        with pytest.raises(LifecycleError):
            rt.fork("d")

    def test_refuting_clone_leaves_original_untouched(self):
        rt = fresh_runtime()
        rt.add(make_datum("d", confidence=0.8))
        rt.enqueue("d", ActivationReason.NewData)
        rt.step()
        _, clone_id = rt.fork("d")
        before = rt.datum("d").hyperdata
        rt.post_evidence(clone_id, Evidence(EvidencePolarity.Refuting, 1.0, "x"),
                         at=200.0)
        rt.run_until_quiescent(10)
        assert rt.datum(clone_id).truth == pytest.approx(-1.0)
        assert rt.datum("d").hyperdata.truth == before.truth
        assert rt.datum("d").hyperdata.confidence == before.confidence


class TestMailboxes:
    def test_loopback(self):
        rt = fresh_runtime()
        rt.add(make_datum("a", payload={"x": 1}))
        rt.add(make_datum("b", payload={"x": 2}))
        rt.send("a", "b", {"ping": 1})
        message = rt.receive("b")
        assert message.sender == "a"
        assert message.payload == {"ping": 1}

    def test_empty_mailbox(self):
        rt = fresh_runtime()
        rt.add(make_datum("a"))
        assert rt.receive("a") is None

    def test_unknown_ids(self):
        rt = fresh_runtime()
        rt.add(make_datum("a"))
        with pytest.raises(NotFoundError):
            rt.send("a", "ghost", "x")
        with pytest.raises(NotFoundError):
            rt.receive("ghost")

    def test_interleaved_senders_fifo_per_sender(self):
        rt = fresh_runtime()
        for did in ("a", "b", "owner"):
            rt.add(make_datum(did, payload={"who": did}))
        rng = random.Random(1)
        oracle = []
        counters = {"a": 0, "b": 0}
        for _ in range(40):
            sender = rng.choice(["a", "b"])
            payload = f"{sender}-{counters[sender]}"
            counters[sender] += 1
            rt.send(sender, "owner", payload)
            oracle.append((sender, payload))
        received = []
        while (m := rt.receive("owner")) is not None:
            received.append((m.sender, m.payload))
        assert received == oracle
        for sender in ("a", "b"):
            seq = [p for s, p in received if s == sender]
            assert seq == sorted(seq, key=lambda p: int(p.split("-")[1]))

    def test_send_to_deleted_receiver_rejected(self):
        rt = fresh_runtime()
        rt.add(make_datum("a", payload={"x": 1}))
        rt.add(make_datum("b", payload={"x": 2}))
        rt.mark_deleted("b")
        with pytest.raises(LifecycleError):
            rt.send("a", "b", "hello")


def _workload(rt: Runtime) -> None:
    rt.subscribe(everything_subscription("workload-watch"))
    rt.register_rule(AF1_RULE)
    arrival, aboard = af1_candidates()
    rt.add(arrival)
    rt.add(aboard)
    rt.add(make_datum("cnn-1", source="cnn", confidence=0.6))
    rt.add(make_datum("msnbc-1", source="msnbc", confidence=0.5))
    for did in (arrival.id, aboard.id, "cnn-1", "msnbc-1"):
        rt.enqueue(did, ActivationReason.NewData)
    rt.post_evidence(aboard.id, Evidence(EvidencePolarity.Complementary, 0.3, "w"),
                     at=300.0)
    rt.run_until_quiescent(100)


class TestDeterminism:
    def test_identical_runs_identical_logs(self):
        rt1, rt2 = fresh_runtime(), fresh_runtime()
        _workload(rt1)
        _workload(rt2)
        assert rt1.render_event_log() == rt2.render_event_log()
        assert rt1.render_event_log()

    def test_alert_soundness(self):
        rt = fresh_runtime()
        sub = everything_subscription(min_confidence=0.4)
        rt.subscribe(sub)
        _workload(rt)
        for alert in rt.alerts:
            datum = rt.datum(alert.datum_id)
            assert datum.confidence >= 0.0
            assert sub.spec.matches(datum.key) or alert.subscription_id != sub.id

    def test_random_task_stream_never_breaks_lifecycle(self):
        rng = random.Random(7)
        rt = fresh_runtime()
        for i in range(15):
            rt.add(make_datum(f"d{i:02d}", payload={"i": i % 4},
                              key=make_key(box=((i % 4) * 50.0, 0,
                                                (i % 4) * 50.0 + 5, 5))))
        for _ in range(60):
            did = f"d{rng.randrange(15):02d}"
            if rt.lifecycle_of(did) is LifecycleState.Deleted:
                continue
            rt.enqueue(did, rng.choice(list(ActivationReason)))
        stats = rt.run_until_quiescent(500)
        assert stats.quiescent
        errors = [e for e in rt.event_log if e.event_type == "error"]
        assert errors == []

    def test_events_and_tasks_are_immutable_values(self):
        rt = fresh_runtime()
        rt.add(make_datum("d"))
        task = rt.enqueue("d", ActivationReason.NewData)
        event = rt.step()[0]
        for record, name in ((task, "priority"), (event, "detail")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        assert task == ActivationTask("d", 10, ActivationReason.NewData, 1)
        assert event.render() == "1|activated|d|reason=new-data priority=10 seq=1"
        same = RuntimeEvent(1, "activated", "d", "reason=new-data priority=10 seq=1")
        assert {task: 1, event: 2}[same] == 2
        assert hash(task) == hash(ActivationTask("d", 10, ActivationReason.NewData, 1))

    def test_event_log_line_format(self):
        rt = fresh_runtime()
        rt.add(make_datum("d"))
        rt.enqueue("d", ActivationReason.NewData)
        rt.step()
        lines = rt.render_event_log().splitlines()
        for i, line in enumerate(lines, start=1):
            seq, event_type, datum_id, detail = line.split("|", 3)
            assert int(seq) == i
            assert event_type
