"""Tests for the deterministic activation runtime."""

import random

import pytest

from adatm import (
    ActivationReason,
    Evidence,
    EvidencePolarity,
    LifecycleState,
    NotionKind,
    QuerySpec,
    Runtime,
    SchedulerConfig,
    StorageTier,
    Subscription,
    TimeInterval,
)
from adatm.errors import LifecycleError, NotFoundError
from adatm.scheduler import legal_transition

from conftest import make_datum, make_key
from test_kernel import AF1_RULE, af1_candidates


def fresh_runtime(**kwargs):
    return Runtime(SchedulerConfig(**kwargs), index_cell_size=10.0)


def everything_subscription(sub_id="watch", min_confidence=0.0, kinds=None):
    return Subscription(
        id=sub_id,
        spec=QuerySpec.focused(time_window=TimeInterval(0.0, 1e9)),
        min_confidence=min_confidence,
        deliver_kinds=frozenset(kinds) if kinds else frozenset(NotionKind),
    )


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
        rt.step()
        assert rt.lifecycle_of("a") is LifecycleState.Active
        assert rt.lifecycle_of("b") is LifecycleState.Deleted
        assert rt.datum("a").confidence == pytest.approx(0.8, abs=1e-12)
        types = [e.event_type for e in rt.event_log]
        assert "merged" in types
        assert "skipped" in types  # second task found its datum absorbed

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
        rt = fresh_runtime()
        rt.subscribe(everything_subscription("s1"))
        rt.subscribe(everything_subscription("s2"))
        rt.add(make_datum("d"))
        rt.enqueue("d", ActivationReason.NewData)
        rt.step()
        assert [a.subscription_id for a in rt.alerts] == ["s1", "s2"]

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
        hyps = [i for i in rt.data_ids() if i.startswith("hyp-")]
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
