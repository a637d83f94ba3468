"""Deterministic activation loop over a store of self-describing data.

The runtime owns the datum store, the nearness index, a single priority
queue of activation tasks, subscriptions, and per-datum mailboxes.  Each
:meth:`Runtime.step` pops exactly one task and runs the fixed activation
recipe: find peers, fuse duplicates, fold pending evidence, fire
hypothesis rules, re-tier, and publish alerts.  Given the same initial
state and task sequence, the emitted event log is byte-for-byte
identical across runs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from enum import Enum

from . import kernel
from .errors import (
    ConflictError,
    LifecycleError,
    NotFoundError,
    ValidationError,
)
from .kernel import (
    ActiveDatum,
    Evidence,
    HypothesisRule,
    NotionKind,
    StorageTier,
    TierPolicy,
    tier_decision,
)
from .nearness import NearnessIndex, QuerySpec


class LifecycleState(Enum):
    Raw = "raw"
    Encapsulated = "encapsulated"
    Active = "active"
    Suspended = "suspended"
    Stored = "stored"
    Archived = "archived"
    Deleted = "deleted"


_LEGAL_TRANSITIONS: frozenset[tuple[LifecycleState, LifecycleState]] = frozenset({
    (LifecycleState.Raw, LifecycleState.Encapsulated),
    (LifecycleState.Encapsulated, LifecycleState.Active),
    (LifecycleState.Active, LifecycleState.Suspended),
    (LifecycleState.Suspended, LifecycleState.Active),
    (LifecycleState.Active, LifecycleState.Stored),
    (LifecycleState.Active, LifecycleState.Archived),
    (LifecycleState.Active, LifecycleState.Deleted),
    (LifecycleState.Stored, LifecycleState.Active),
    (LifecycleState.Archived, LifecycleState.Active),
})


def legal_transition(src: LifecycleState, dst: LifecycleState) -> bool:
    return src is dst or (src, dst) in _LEGAL_TRANSITIONS


class ActivationReason(Enum):
    NewData = "new-data"
    PeerArrived = "peer-arrived"
    WeatherChanged = "weather-changed"
    TimerExpired = "timer-expired"


#: Higher values run first: timers, then weather changes, then peer
#: arrivals, then new data.
DEFAULT_PRIORITIES: dict[ActivationReason, int] = {
    ActivationReason.NewData: 10,
    ActivationReason.PeerArrived: 20,
    ActivationReason.WeatherChanged: 30,
    ActivationReason.TimerExpired: 40,
}

# Storage tier decided by the kernel -> lifecycle state applied here.
_TIER_TO_LIFECYCLE: dict[StorageTier, LifecycleState] = {
    StorageTier.Hot: LifecycleState.Active,
    StorageTier.Warm: LifecycleState.Active,
    StorageTier.Cold: LifecycleState.Stored,
    StorageTier.Archived: LifecycleState.Archived,
    StorageTier.Deleted: LifecycleState.Deleted,
}


@dataclass(frozen=True)
class Subscription:
    id: str
    spec: QuerySpec
    min_confidence: float = 0.0
    deliver_kinds: frozenset[NotionKind] = frozenset(NotionKind)

    def __post_init__(self):
        self.spec.validate()
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ValidationError("min_confidence outside [0, 1]", "min_confidence")


@dataclass(frozen=True)
class ActivationTask:
    datum_id: str
    priority: int
    reason: ActivationReason
    enqueued_seq: int

    def sort_key(self) -> tuple[int, int]:
        # Highest priority first, ties broken by arrival order.
        return (-self.priority, self.enqueued_seq)


@dataclass(frozen=True)
class Alert:
    subscription_id: str
    datum_id: str
    emitted_at: float
    payload_text: str


@dataclass(frozen=True)
class Message:
    sender: str
    payload: object


@dataclass(frozen=True)
class RuntimeEvent:
    seq: int
    event_type: str
    datum_id: str
    detail: str

    def render(self) -> str:
        return f"{self.seq}|{self.event_type}|{self.datum_id}|{self.detail}"


@dataclass
class RunStats:
    steps: int = 0
    alerts: int = 0
    merges: int = 0
    deletions: int = 0
    quiescent: bool = True


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs for peer discovery and storage policy."""

    time_radius: float = 900.0
    space_radius: float = 1.0
    concept_radius: float = 0.0
    tier_policy: TierPolicy = TierPolicy()


@dataclass
class _PendingEvidence:
    seq: int
    evidence: Evidence
    at: float


class Runtime:
    """Single-threaded owner of the datum store and nearness index."""

    def __init__(self, config: SchedulerConfig | None = None,
                 index_cell_size: float = 1.0):
        self.config = config or SchedulerConfig()
        self.now: float = 0.0
        self.index = NearnessIndex(cell_size=index_cell_size,
                                   slab=self.config.time_radius)
        self._store: dict[str, ActiveDatum] = {}
        self._life: dict[str, LifecycleState] = {}
        self._queue: list[tuple[tuple[int, int], ActivationTask]] = []
        self._task_seq = 0
        self._event_seq = 0
        self._subs: dict[str, Subscription] = {}
        self._alerted: set[tuple[str, str]] = set()
        self.alerts: list[Alert] = []
        self._mailboxes: dict[str, list[Message]] = {}
        self._evidence: dict[str, list[_PendingEvidence]] = {}
        self._evidence_seq = 0
        self._rules: dict[str, HypothesisRule] = {}
        self._provenance: dict[str, str] = {}
        self._last_priority: dict[str, int] = {}
        self._fork_counts: dict[str, int] = {}
        self.event_log: list[RuntimeEvent] = []

    # -- store management ------------------------------------------------

    def add(self, datum: ActiveDatum) -> None:
        """Register a freshly encapsulated datum with the runtime."""
        if datum.id in self._store:
            raise ConflictError(f"datum id already present: {datum.id}")
        self._store[datum.id] = datum
        self._life[datum.id] = LifecycleState.Encapsulated
        self.index.insert(datum.id, datum.key)

    def datum(self, datum_id: str) -> ActiveDatum:
        try:
            return self._store[datum_id]
        except KeyError:
            raise NotFoundError(datum_id) from None

    def lifecycle_of(self, datum_id: str) -> LifecycleState:
        try:
            return self._life[datum_id]
        except KeyError:
            raise NotFoundError(datum_id) from None

    def data_ids(self) -> list[str]:
        return sorted(self._store)

    def live_ids(self) -> list[str]:
        return sorted(i for i, s in self._life.items() if s is not LifecycleState.Deleted)

    def _transition(self, datum_id: str, dst: LifecycleState) -> None:
        src = self._life[datum_id]
        if src is dst:
            return
        if not legal_transition(src, dst):
            raise LifecycleError(f"{datum_id}: illegal transition {src.value} -> {dst.value}")
        self._life[datum_id] = dst
        if dst is LifecycleState.Deleted:
            if datum_id in self.index:
                self.index.remove(datum_id)
            d = self._store[datum_id]
            if d.tier is not StorageTier.Deleted:
                self._store[datum_id] = replace(
                    d, hyperdata=replace(d.hyperdata, tier=StorageTier.Deleted))

    def suspend(self, datum_id: str) -> None:
        self.datum(datum_id)
        self._transition(datum_id, LifecycleState.Suspended)

    def resume(self, datum_id: str) -> None:
        self.datum(datum_id)
        self._transition(datum_id, LifecycleState.Active)

    def mark_deleted(self, datum_id: str) -> None:
        """Force a datum out of circulation (activating it first if needed)."""
        state = self.lifecycle_of(datum_id)
        if state is LifecycleState.Deleted:
            return
        if state is not LifecycleState.Active:
            self._transition(datum_id, LifecycleState.Active)
        self._transition(datum_id, LifecycleState.Deleted)
        self.emit("deleted", datum_id, "forced")

    # -- events ----------------------------------------------------------

    def emit(self, event_type: str, datum_id: str, detail: str) -> RuntimeEvent:
        self._event_seq += 1
        event = RuntimeEvent(self._event_seq, event_type, datum_id, detail)
        self.event_log.append(event)
        return event

    def render_event_log(self) -> str:
        return "\n".join(e.render() for e in self.event_log)

    # -- subscriptions ---------------------------------------------------

    def subscribe(self, sub: Subscription) -> str:
        if sub.id in self._subs:
            raise ConflictError(f"subscription id already present: {sub.id}")
        self._subs[sub.id] = sub
        return sub.id

    # -- queue -----------------------------------------------------------

    def enqueue(self, datum_id: str, reason: ActivationReason,
                priority: int | None = None) -> ActivationTask:
        if self.lifecycle_of(datum_id) is LifecycleState.Deleted:
            raise LifecycleError(f"cannot enqueue deleted datum {datum_id}")
        if priority is None:
            priority = DEFAULT_PRIORITIES[reason]
        self._task_seq += 1
        task = ActivationTask(datum_id, priority, reason, self._task_seq)
        heapq.heappush(self._queue, (task.sort_key(), task))
        self._last_priority[datum_id] = priority
        return task

    def pending_tasks(self) -> int:
        return len(self._queue)

    # -- communications --------------------------------------------------

    def send(self, sender: str, receiver: str, payload: object) -> None:
        self.datum(sender)
        self.datum(receiver)
        if self.lifecycle_of(receiver) is LifecycleState.Deleted:
            raise LifecycleError(f"receiver {receiver} is deleted")
        self._mailboxes.setdefault(receiver, []).append(Message(sender, payload))

    def receive(self, owner: str) -> Message | None:
        self.datum(owner)
        box = self._mailboxes.get(owner)
        if not box:
            return None
        return box.pop(0)

    # -- evidence and rules ------------------------------------------------

    def post_evidence(self, datum_id: str, evidence: Evidence, at: float) -> None:
        """Queue evidence for a datum and schedule it for activation."""
        if self.lifecycle_of(datum_id) is LifecycleState.Deleted:
            raise LifecycleError(f"cannot post evidence to deleted datum {datum_id}")
        self._evidence_seq += 1
        self._evidence.setdefault(datum_id, []).append(
            _PendingEvidence(self._evidence_seq, evidence, at))
        self.enqueue(datum_id, ActivationReason.PeerArrived)

    def register_rule(self, rule: HypothesisRule) -> None:
        if rule.id in self._rules:
            raise ConflictError(f"rule id already present: {rule.id}")
        self._rules[rule.id] = rule

    # -- fork --------------------------------------------------------------

    def fork(self, datum_id: str) -> tuple[str, str]:
        """Clone an active datum; the clone links back to the original."""
        original = self.datum(datum_id)
        if self.lifecycle_of(datum_id) is not LifecycleState.Active:
            raise LifecycleError(f"fork requires an active datum, {datum_id} is "
                                 f"{self.lifecycle_of(datum_id).value}")
        n = self._fork_counts.get(datum_id, 0) + 1
        self._fork_counts[datum_id] = n
        clone_id = f"{datum_id}+f{n}"
        hd = original.hyperdata
        links = hd.complementary if datum_id in hd.complementary \
            else hd.complementary + (datum_id,)
        clone = replace(
            original, id=clone_id,
            payload=dict(original.payload),
            hyperdata=replace(hd, complementary=links))
        self.add(clone)
        priority = self._last_priority.get(datum_id,
                                           DEFAULT_PRIORITIES[ActivationReason.NewData])
        self.emit("forked", datum_id, f"clone={clone_id}")
        self.enqueue(clone_id, ActivationReason.NewData, priority=priority)
        return datum_id, clone_id

    # -- the activation loop ---------------------------------------------

    def _peer_query(self, datum: ActiveDatum) -> QuerySpec:
        return QuerySpec.neighborhood(
            datum.key,
            time_radius=self.config.time_radius,
            space_radius=self.config.space_radius,
            concept_radius=self.config.concept_radius,
        )

    def _replace_datum(self, datum: ActiveDatum) -> None:
        old = self._store[datum.id]
        self._store[datum.id] = datum
        if old.key != datum.key and datum.id in self.index:
            self.index.remove(datum.id)
            self.index.insert(datum.id, datum.key)

    def step(self) -> list[RuntimeEvent]:
        """Run one activation; empty queue is a no-op returning []."""
        if not self._queue:
            return []
        _, task = heapq.heappop(self._queue)
        events: list[RuntimeEvent] = []
        datum_id = task.datum_id
        events.append(self.emit(
            "activated", datum_id,
            f"reason={task.reason.value} priority={task.priority} seq={task.enqueued_seq}"))
        state = self._life.get(datum_id)
        if state is None or state is LifecycleState.Deleted:
            events.append(self.emit("skipped", datum_id, "datum no longer live"))
            return events
        try:
            events.extend(self._activate(datum_id))
        except Exception as exc:  # activation failures become events, never aborts
            events.append(self.emit("error", datum_id, f"{type(exc).__name__}: {exc}"))
        return events

    def _activate(self, datum_id: str) -> list[RuntimeEvent]:
        events: list[RuntimeEvent] = []
        self._transition(datum_id, LifecycleState.Active)
        d = self._store[datum_id]

        # 1. neighborhood peers
        peer_ids = [p for p in self.index.query(self._peer_query(d)) if p != d.id]
        events.append(self.emit("peers", d.id, f"count={len(peer_ids)}"))

        # 2. duplicate resolution, ascending peer id.  A duplicate has the
        # same payload text, and a merge keeps the winner's payload, so
        # peers with other text can never merge in this loop.
        text = d.text
        for pid in [p for p in peer_ids if self._store[p].text == text]:
            if self._life.get(pid) is LifecycleState.Deleted:
                continue
            peer = self._store[pid]
            if not kernel.is_duplicate(d, peer):
                continue
            if pid in d.hyperdata.complementary or \
                    d.id in peer.hyperdata.complementary:
                # Complementary-linked twins (forked clones) are intentional
                # replicas, not redundant reports; fusing them would undo the
                # fork on its first activation.
                continue
            merged = kernel.resolve(d, peer)
            loser_id = pid if merged.id == d.id else d.id
            self._replace_datum(merged)
            if self._life[loser_id] is not LifecycleState.Active:
                self._transition(loser_id, LifecycleState.Active)
            self._transition(loser_id, LifecycleState.Deleted)
            # Evidence queued against the absorbed id follows the survivor.
            leftover = self._evidence.pop(loser_id, [])
            if leftover:
                self._evidence.setdefault(merged.id, []).extend(leftover)
            events.append(self.emit(
                "merged", merged.id,
                f"absorbed={loser_id} confidence={merged.confidence:.6f}"))
            events.append(self.emit("deleted", loser_id, "absorbed by duplicate"))
            d = merged
            if d.id != datum_id:
                datum_id = d.id

        # 3. pending evidence, arrival order
        pending = self._evidence.pop(datum_id, [])
        for item in sorted(pending, key=lambda p: p.seq):
            d = kernel.apply_evidence(d, item.evidence, at=item.at)
            self._replace_datum(d)
            events.append(self.emit(
                "evidence", d.id,
                f"polarity={item.evidence.polarity.value} strength={item.evidence.strength} "
                f"truth={d.truth:.6f} confidence={d.confidence:.6f}"))

        # 4. hypothesis rules over the datum and its surviving peers
        candidates: list[ActiveDatum] = []
        if self._rules:
            candidates = [d] + [self._store[p] for p in peer_ids
                                if self._life.get(p) not in (None, LifecycleState.Deleted)]
        for rule_id in sorted(self._rules):
            rule = self._rules[rule_id]
            if self._provenance.get(d.id) == rule_id:
                continue  # never feed a rule its own conclusions
            hyp = kernel.infer(rule, candidates)
            if hyp is not None:
                if hyp.id in self._store:
                    continue
                self.add(hyp)
                self._provenance[hyp.id] = rule_id
                self.enqueue(hyp.id, ActivationReason.NewData)
                events.append(self.emit(
                    "hypothesis", hyp.id,
                    f"rule={rule_id} confidence={hyp.confidence:.6f} text={hyp.text}"))
            else:
                gaps = kernel.match_gaps(rule, candidates)
                new_gaps = tuple(g for g in gaps if g not in d.hyperdata.missing)
                if new_gaps:
                    d = replace(d, hyperdata=replace(
                        d.hyperdata,
                        missing=d.hyperdata.missing + new_gaps))
                    self._replace_datum(d)
                    events.append(self.emit(
                        "gap", d.id, f"rule={rule_id} missing={'|'.join(new_gaps)}"))

        # 5. storage tier decision
        tier = tier_decision(d, self.now, self.config.tier_policy)
        if tier is not d.tier:
            d = replace(d, hyperdata=replace(d.hyperdata, tier=tier))
            self._replace_datum(d)
            self._transition(datum_id, _TIER_TO_LIFECYCLE[tier])
            events.append(self.emit("tier", d.id, f"tier={tier.value}"))
            if tier is StorageTier.Deleted:
                events.append(self.emit("deleted", d.id, "confidently false"))
                return events

        # 6. alerts for matching subscriptions
        for sub_id in sorted(self._subs):
            sub = self._subs[sub_id]
            if (sub_id, d.id) in self._alerted:
                continue
            if d.kind not in sub.deliver_kinds:
                continue
            if d.confidence < sub.min_confidence:
                continue
            if not sub.spec.matches(d.key):
                continue
            alert = Alert(sub_id, d.id, self.now, d.text)
            self.alerts.append(alert)
            self._alerted.add((sub_id, d.id))
            events.append(self.emit(
                "alert", d.id,
                f"subscription={sub_id} confidence={d.confidence:.6f}"))
        return events

    def run_until_quiescent(self, max_steps: int) -> RunStats:
        """Step until the queue drains or the budget is spent."""
        if max_steps < 1:
            raise ValidationError("max_steps must be >= 1", "max_steps")
        stats = RunStats()
        while self._queue and stats.steps < max_steps:
            events = self.step()
            stats.steps += 1
            for e in events:
                if e.event_type == "alert":
                    stats.alerts += 1
                elif e.event_type == "merged":
                    stats.merges += 1
                elif e.event_type == "deleted":
                    stats.deletions += 1
        stats.quiescent = not self._queue
        return stats
