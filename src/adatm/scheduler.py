"""Deterministic activation loop over a store of self-describing data.

The runtime owns the datum store, the nearness index, a single priority
queue of activation tasks, subscriptions, and per-datum mailboxes.  Each
:meth:`Runtime.step` pops exactly one task and runs the fixed activation
recipe: find peers, fuse duplicates, fold pending evidence, fire
hypothesis rules, re-tier, and publish alerts.  A datum acts only while
it is live: a task queued for a datum deleted since is dropped when it
is popped, without a log line, and still counts as a step.  Given the
same initial state and task sequence, the emitted event log is
byte-for-byte identical across runs.

The event log is the only record of what a step did: :meth:`Runtime.step`
returns the lines it appended, and :meth:`Runtime.run_until_quiescent`
counts alerts, merges and deletions over the lines its drain appended,
so both agree with the log even when an activation fails part-way.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

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
    tier_decision,
)
from .nearness import NearnessIndex, QuerySpec

#: Builds a named tuple without the Python-level ``__new__`` it defines.
_new_tuple = tuple.__new__


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


@dataclass(frozen=True, slots=True)
class Subscription:
    """A standing query: a datum of a kind in ``deliver_kinds`` that
    matches ``spec`` with at least ``min_confidence`` raises one alert."""

    id: str
    spec: QuerySpec
    min_confidence: float = 0.0
    deliver_kinds: frozenset[NotionKind] = frozenset(NotionKind)

    def __post_init__(self):
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ValidationError("min_confidence outside [0, 1]", "min_confidence")


class ActivationTask(NamedTuple):
    """A queued activation.  A named tuple, like :class:`RuntimeEvent`:
    as immutable as a frozen dataclass and cheaper to build, which counts
    at one task per activation."""

    datum_id: str
    priority: int
    reason: ActivationReason
    enqueued_seq: int


@dataclass(frozen=True, slots=True)
class Alert:
    """A datum delivered to a subscription, with its payload text."""

    subscription_id: str
    datum_id: str
    emitted_at: float
    payload_text: str


@dataclass(frozen=True, slots=True)
class Message:
    """A message waiting in a datum's mailbox."""

    sender: str
    payload: object


class RuntimeEvent(NamedTuple):
    """One line of the event log; a named tuple because a run builds one
    per logged step."""

    seq: int
    event_type: str
    datum_id: str
    detail: str

    def render(self) -> str:
        return f"{self.seq}|{self.event_type}|{self.datum_id}|{self.detail}"


@dataclass(slots=True)
class RunStats:
    """Counts of a drain of the activation queue."""

    steps: int = 0
    alerts: int = 0
    merges: int = 0
    deletions: int = 0
    quiescent: bool = True


@dataclass(frozen=True, slots=True)
class SchedulerConfig:
    """Knobs for peer discovery.

    The three radii bound each activation's peer query
    (:meth:`QuerySpec.neighborhood`), and each must be >= 0.  They do not
    size the nearness index: its grid is set by the runtime's
    ``index_cell_size`` alone.
    """

    time_radius: float = 900.0
    space_radius: float = 1.0
    concept_radius: float = 0.0

    def __post_init__(self):
        for name in ("time_radius", "space_radius", "concept_radius"):
            radius = getattr(self, name)
            # Written so that NaN fails the test too.
            if not radius >= 0:
                raise ValidationError(f"radius must be >= 0, got {radius}", name)


class Runtime:
    """Single-threaded owner of the datum store and nearness index."""

    def __init__(self, config: SchedulerConfig | None = None,
                 index_cell_size: float = 1.0):
        self.config = config or SchedulerConfig()
        self.now: float = 0.0
        self.index = NearnessIndex(cell_size=index_cell_size)
        self._store: dict[str, ActiveDatum] = {}
        self._life: dict[str, LifecycleState] = {}
        # Payload text -> ids of the live data that carry it.
        self._by_text: dict[str, set[str]] = {}
        # Heap of (-priority, seq, task): highest priority first, ties
        # broken by arrival order.
        self._queue: list[tuple[int, int, ActivationTask]] = []
        self._task_seq = 0
        self._subs: dict[str, Subscription] = {}
        self._alerted: set[tuple[str, str]] = set()
        self.alerts: list[Alert] = []
        self._mailboxes: dict[str, list[Message]] = {}
        # Datum id -> its pending (seq, evidence, at), applied at its next
        # activation.
        self._evidence: dict[str, list[tuple[int, Evidence, float]]] = {}
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
        self._by_text.setdefault(datum.text, set()).add(datum.id)
        self.index.insert(datum.id, datum.key)

    def datum(self, datum_id: str) -> ActiveDatum:
        """The datum as last stored; a deleted one reads tier Deleted.

        Deletion changes only the lifecycle, so the Deleted view of a
        datum stored at another tier is built here, on each read.
        """
        try:
            d = self._store[datum_id]
        except KeyError:
            raise NotFoundError(datum_id) from None
        if self._life[datum_id] is LifecycleState.Deleted and \
                d.tier is not StorageTier.Deleted:
            return replace(d, hyperdata=replace(d.hyperdata, tier=StorageTier.Deleted))
        return d

    def lifecycle_of(self, datum_id: str) -> LifecycleState:
        try:
            return self._life[datum_id]
        except KeyError:
            raise NotFoundError(datum_id) from None

    def data_count(self) -> int:
        return len(self._store)

    def live_ids(self) -> list[str]:
        return sorted(i for i, s in self._life.items() if s is not LifecycleState.Deleted)

    def _transition(self, datum_id: str, dst: LifecycleState) -> None:
        """Move a datum to ``dst`` with one lifecycle write; a deletion
        follows :meth:`_delete`."""
        src = self._life[datum_id]
        if src is dst:
            return
        if dst is LifecycleState.Deleted:
            self._delete(datum_id)
            return
        if not legal_transition(src, dst):
            raise LifecycleError(f"{datum_id}: illegal transition {src.value} -> {dst.value}")
        self._life[datum_id] = dst

    def _delete(self, datum_id: str) -> None:
        """The deletion rule, for a datum not yet Deleted: legal from every
        state that may become Active, since its legal path runs through
        Active; one lifecycle write, and the datum leaves the index and the
        text map."""
        src = self._life[datum_id]
        if not legal_transition(src, LifecycleState.Active):
            raise LifecycleError(f"{datum_id}: illegal transition {src.value} -> active")
        self._life[datum_id] = LifecycleState.Deleted
        if datum_id in self.index:
            self.index.remove(datum_id)
        text = self._store[datum_id].text
        ids = self._by_text[text]
        ids.discard(datum_id)
        if not ids:
            del self._by_text[text]

    def suspend(self, datum_id: str) -> None:
        self.lifecycle_of(datum_id)
        self._transition(datum_id, LifecycleState.Suspended)

    def resume(self, datum_id: str) -> None:
        self.lifecycle_of(datum_id)
        self._transition(datum_id, LifecycleState.Active)

    def mark_deleted(self, datum_id: str) -> None:
        """Force a datum out of circulation."""
        if self.lifecycle_of(datum_id) is LifecycleState.Deleted:
            return
        self._transition(datum_id, LifecycleState.Deleted)
        self.emit("deleted", datum_id, "forced")

    # -- events ----------------------------------------------------------

    def emit(self, event_type: str, datum_id: str, detail: str) -> None:
        """Append a log line, numbered by its position in the log."""
        log = self.event_log
        log.append(_new_tuple(RuntimeEvent, (len(log) + 1, event_type, datum_id, detail)))

    def render_event_log(self) -> str:
        return "\n".join(e.render() for e in self.event_log)

    # -- subscriptions ---------------------------------------------------

    def subscribe(self, sub: Subscription) -> str:
        if sub.id in self._subs:
            raise ConflictError(f"subscription id already present: {sub.id}")
        self._subs = dict(sorted({**self._subs, sub.id: sub}.items()))
        return sub.id

    # -- queue -----------------------------------------------------------

    def enqueue(self, datum_id: str, reason: ActivationReason,
                priority: int | None = None) -> ActivationTask:
        state = self._life.get(datum_id)
        if state is None:
            raise NotFoundError(datum_id)
        if state is LifecycleState.Deleted:
            raise LifecycleError(f"cannot enqueue deleted datum {datum_id}")
        if priority is None:
            priority = DEFAULT_PRIORITIES[reason]
        self._task_seq += 1
        task = _new_tuple(ActivationTask, (datum_id, priority, reason, self._task_seq))
        heapq.heappush(self._queue, (-priority, self._task_seq, task))
        self._last_priority[datum_id] = priority
        return task

    def pending_tasks(self) -> int:
        return len(self._queue)

    # -- communications --------------------------------------------------

    def send(self, sender: str, receiver: str, payload: object) -> None:
        self.lifecycle_of(sender)
        if self.lifecycle_of(receiver) is LifecycleState.Deleted:
            raise LifecycleError(f"receiver {receiver} is deleted")
        self._mailboxes.setdefault(receiver, []).append(Message(sender, payload))

    def receive(self, owner: str) -> Message | None:
        self.lifecycle_of(owner)
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
        self._evidence.setdefault(datum_id, []).append((self._evidence_seq, evidence, at))
        self.enqueue(datum_id, ActivationReason.PeerArrived)

    def register_rule(self, rule: HypothesisRule) -> None:
        if rule.id in self._rules:
            raise ConflictError(f"rule id already present: {rule.id}")
        self._rules[rule.id] = rule

    # -- fork --------------------------------------------------------------

    def fork(self, datum_id: str) -> tuple[str, str]:
        """Clone an active datum; the clone links back to the original."""
        state = self.lifecycle_of(datum_id)
        if state is not LifecycleState.Active:
            raise LifecycleError(f"fork requires an active datum, {datum_id} is "
                                 f"{state.value}")
        original = self._store[datum_id]
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
        """Pop one task and run its activation; returns the lines it
        appended to the event log, all of them, also when the activation
        fails part-way.

        An empty queue is a no-op returning [].  A task whose datum was
        deleted after it was queued (absorbed by a duplicate, forced out
        or found confidently false) leaves the queue here and also returns
        []: it writes no line, but it is still a step.
        """
        if not self._queue:
            return []
        task = heapq.heappop(self._queue)[2]
        datum_id = task.datum_id
        if self._life[datum_id] is LifecycleState.Deleted:
            return []
        start = len(self.event_log)
        self.emit("activated", datum_id, f"reason={task.reason._value_} "
                  f"priority={task.priority} seq={task.enqueued_seq}")
        try:
            self._activate(datum_id)
        except Exception as exc:  # activation failures become events, never aborts
            self.emit("error", datum_id, f"{type(exc).__name__}: {exc}")
        return self.event_log[start:]

    def _activate(self, datum_id: str) -> None:
        self._transition(datum_id, LifecycleState.Active)
        d = self._store[datum_id]

        # 1. neighborhood peers: the sorted hits without the datum itself
        peer_ids = self.index.query(self._peer_query(d))
        i = bisect_left(peer_ids, d.id)
        if i < len(peer_ids) and peer_ids[i] == d.id:
            del peer_ids[i]
        self.emit("peers", d.id, f"count={len(peer_ids)}")

        # 2. duplicate fusion, one pass in ascending peer id.  A duplicate
        # has the same payload text, and a merge keeps the winner's payload,
        # so only the live peers with this text are passed to the fold; the
        # hits are read only when another live datum carries the text.  The
        # survivor is stored and re-indexed once; each absorbed id is then
        # deleted in merge order, and the survivor, which carries on with
        # this activation, is Active.
        twins = self._by_text[d.text]
        same_text = [self._store[p] for p in peer_ids if p in twins] \
            if len(twins) > 1 else []
        if same_text:
            d, merges = kernel.fuse(d, same_text)
            if merges:
                datum_id = d.id
                self._replace_datum(d)
                for survivor, absorbed, confidence in merges:
                    self._delete(absorbed)
                    # Evidence queued against the absorbed id follows the survivor.
                    if leftover := self._evidence.pop(absorbed, None):
                        self._evidence.setdefault(survivor, []).extend(leftover)
                    self.emit("merged", survivor,
                              f"absorbed={absorbed} confidence={confidence:.6f}")
                    self.emit("deleted", absorbed, "absorbed by duplicate")
            self._transition(datum_id, LifecycleState.Active)

        # 3. pending evidence, arrival order; steps 3 and 4 skip when empty
        if pending := self._evidence.pop(datum_id, None):
            # Seqs are distinct, so the tuples sort by seq alone.
            for _, evidence, at in sorted(pending):
                d = kernel.apply_evidence(d, evidence, at=at)
                self._replace_datum(d)
                self.emit("evidence", d.id,
                          f"polarity={evidence.polarity.value} strength={evidence.strength} "
                          f"truth={d.truth:.6f} confidence={d.confidence:.6f}")

        # 4. hypothesis rules over the datum and its surviving peers
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
                    self.emit("hypothesis", hyp.id, f"rule={rule_id} "
                              f"confidence={hyp.confidence:.6f} text={hyp.text}")
                else:
                    gaps = kernel.match_gaps(rule, candidates)
                    new_gaps = tuple(g for g in gaps if g not in d.hyperdata.missing)
                    if new_gaps:
                        d = replace(d, hyperdata=replace(
                            d.hyperdata,
                            missing=d.hyperdata.missing + new_gaps))
                        self._replace_datum(d)
                        self.emit("gap", d.id, f"rule={rule_id} missing={'|'.join(new_gaps)}")

        # 5. storage tier decision
        tier = tier_decision(d, self.now)
        if tier is not d.tier:
            d = replace(d, hyperdata=replace(d.hyperdata, tier=tier))
            self._replace_datum(d)
            self._transition(datum_id, _TIER_TO_LIFECYCLE[tier])
            self.emit("tier", d.id, f"tier={tier.value}")
            if tier is StorageTier.Deleted:
                self.emit("deleted", d.id, "confidently false")
                return

        # 6. alerts for matching subscriptions, which ``subscribe`` keeps in id order
        for sub_id, sub in self._subs.items():
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
            self.emit("alert", d.id, f"subscription={sub_id} confidence={d.confidence:.6f}")

    def run_until_quiescent(self, max_steps: int) -> RunStats:
        """Step until the queue drains or the budget is spent; the counts are
        read from the lines this drain appended to the event log."""
        if max_steps < 1:
            raise ValidationError("max_steps must be >= 1", "max_steps")
        start = len(self.event_log)
        stats = RunStats()
        while self._queue and stats.steps < max_steps:
            self.step()
            stats.steps += 1
        for e in self.event_log[start:]:
            if e.event_type == "alert":
                stats.alerts += 1
            elif e.event_type == "merged":
                stats.merges += 1
            elif e.event_type == "deleted":
                stats.deletions += 1
        stats.quiescent = not self._queue
        return stats
