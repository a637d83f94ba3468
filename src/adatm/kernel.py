"""Self-describing data elements and the pure activity functions over them.

A datum wraps an opaque payload (a flat mapping of named fields) with
objective metadata and subjective, evolving attributes: a truth value in
[-1, 1], a confidence in [0, 1], detail and exposure levels, a storage
tier, and links to corroborating / refuting data.

All operations here are pure: they take value types and return new value
types, never mutating their arguments.  Confidence fusion uses the
noisy-OR rule ``1 - (1 - a)(1 - b)``, which is commutative, associative,
monotone, and closed over [0, 1].
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter
from typing import Iterable, Mapping

from .errors import LifecycleError, PreconditionError, RangeError, ValidationError
from .nearness import NearnessKey, PlanarBox, TimeInterval, spans_intersect

Scalar = str | int | float | bool
Payload = Mapping[str, Scalar]


class NotionKind(Enum):
    Assumption = "assumption"
    Goal = "goal"
    Hypothesis = "hypothesis"
    Event = "event"
    Aggregate = "aggregate"


class StorageTier(Enum):
    Hot = "hot"
    Warm = "warm"
    Cold = "cold"
    Archived = "archived"
    Deleted = "deleted"


class EvidencePolarity(Enum):
    Complementary = "complementary"
    Refuting = "refuting"


def format_scalar(value: Scalar) -> str:
    """Deterministic text for a payload value.

    Integral floats collapse to their integer form so that 50 and 50.0
    canonicalize identically.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else repr(value)
    return str(value)


def canonical_text(payload: Payload) -> str:
    """Canonical form of a payload: fields sorted by name, ``name=value``
    pairs joined by ``;``.  Used for duplicate detection and reports.

    A value of exact type ``str``, ``int`` or ``float`` is written inline,
    as :func:`format_scalar` would write it; any other goes through it.
    """
    return ";".join([f"{k}={v}" if type(v) is str or type(v) is int
                     else (f"{k}={int(v)}" if v.is_integer() else f"{k}={v!r}")
                     if type(v) is float else f"{k}={format_scalar(v)}"
                     for k, v in sorted(payload.items())])


def _short_hash(*parts: str) -> str:
    digest = hashlib.sha1("\x1f".join(parts).encode("utf-8")).hexdigest()
    return digest[:10]


@dataclass(frozen=True, slots=True)
class Metadata:
    """Objective description of a datum: who produced it, when, how big."""

    source_id: str
    observed_at: float
    size_hint: int = 0
    schema_tag: str = ""

    def __post_init__(self):
        if not self.source_id:
            raise ValidationError("source_id must be non-empty", "source_id")
        if self.observed_at < 0:
            raise ValidationError("observed_at must be >= 0", "observed_at")


@dataclass(frozen=True, slots=True)
class Hyperdata:
    """Subjective, dynamic attributes of a datum."""

    truth: float
    confidence: float
    detail: float = 0.5
    exposure: float = 0.0
    tier: StorageTier = StorageTier.Hot
    complementary: tuple[str, ...] = ()
    refuting: tuple[str, ...] = ()
    missing: tuple[str, ...] = ()
    created_at: float = 0.0
    updated_at: float = 0.0

    def __post_init__(self):
        if not -1.0 <= self.truth <= 1.0:
            raise RangeError(f"truth {self.truth} outside [-1, 1]")
        # NaN fails the chained test too; the loop only names the field.
        if not (0.0 <= self.confidence <= 1.0 and 0.0 <= self.detail <= 1.0
                and 0.0 <= self.exposure <= 1.0):
            for name in ("confidence", "detail", "exposure"):
                v = getattr(self, name)
                if not 0.0 <= v <= 1.0:
                    raise RangeError(f"{name} {v} outside [0, 1]")
        if self.updated_at < self.created_at:
            raise ValidationError("updated_at < created_at", "updated_at")
        if self.complementary and self.refuting and \
                set(self.complementary) & set(self.refuting):
            raise ValidationError("complementary and refuting lists overlap",
                                  "complementary")


@dataclass(frozen=True, slots=True)
class ActiveDatum:
    """The atomic element of the system: payload + metadata + hyperdata."""

    id: str
    kind: NotionKind
    payload: Payload
    key: NearnessKey
    metadata: Metadata
    hyperdata: Hyperdata
    #: The payload's canonical text, built once: the payload never changes
    #: once wrapped, and duplicate detection compares it on every peer
    #: encounter.  Equality, hash and repr ignore it.
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "text", canonical_text(self.payload))

    @property
    def confidence(self) -> float:
        return self.hyperdata.confidence

    @property
    def truth(self) -> float:
        return self.hyperdata.truth

    @property
    def tier(self) -> StorageTier:
        return self.hyperdata.tier


@dataclass(frozen=True, slots=True)
class Evidence:
    """A single supporting or refuting observation about a datum."""

    polarity: EvidencePolarity
    strength: float
    source_datum: str

    def __post_init__(self):
        if not 0.0 <= self.strength <= 1.0:
            raise RangeError(f"strength {self.strength} outside [0, 1]")


#: The storage-tier thresholds (:func:`tier_decision`): a datum at most
#: ``FALSE_TRUTH`` true with at least ``FALSE_CONFIDENCE`` deletes itself; a
#: hot one needs ``HOT_CONFIDENCE``; the ages bound the hot, warm and cold tiers.
FALSE_TRUTH = -0.9
FALSE_CONFIDENCE = 0.9
HOT_CONFIDENCE = 0.25
HOT_AGE = 3600.0
WARM_AGE = 14400.0
COLD_AGE = 86400.0


@dataclass(frozen=True, slots=True)
class HypothesisRule:
    """Pattern -> template rule producing an explanatory datum.

    Each premise pattern is a mapping of payload field to the exact value
    it must carry.  The conclusion template maps fields to either literal
    values or references of the form ``{i.field}``, pulling the value
    from the datum matched by premise ``i``.
    """

    id: str
    premise_patterns: tuple[Payload, ...]
    conclusion_template: Payload
    conclusion_kind: NotionKind = NotionKind.Hypothesis

    def __post_init__(self):
        if not self.premise_patterns:
            raise ValidationError("rule needs at least one premise", "premise_patterns")
        for value in self.conclusion_template.values():
            ref = _parse_reference(value)
            if ref is None:
                continue
            idx, fname = ref
            if idx >= len(self.premise_patterns):
                raise ValidationError(f"reference {value!r} names premise {idx}, "
                                      f"but only {len(self.premise_patterns)} exist",
                                      "conclusion_template")
            if fname not in self.premise_patterns[idx]:
                raise ValidationError(f"reference {value!r} names a field not bound "
                                      f"by premise {idx}", "conclusion_template")


def _parse_reference(value: Scalar) -> tuple[int, str] | None:
    if not isinstance(value, str) or not value.startswith("{") or not value.endswith("}"):
        return None
    inner = value[1:-1]
    idx_text, _, fname = inner.partition(".")
    if not idx_text.isdigit() or not fname:
        return None
    return int(idx_text), fname


def noisy_or(a: float, b: float) -> float:
    return 1.0 - (1.0 - a) * (1.0 - b)


def _clamp(v: float, lo: float, hi: float) -> float:
    """``max(lo, min(hi, v))``, written out to save the two calls."""
    v = v if v < hi else hi
    return v if v > lo else lo


def encapsulate(payload: Payload, kind: NotionKind, metadata: Metadata,
                source_confidence: float, key: NearnessKey,
                datum_id: str | None = None) -> ActiveDatum:
    """Wrap a raw payload into a datum posed as true at the source's confidence.

    The new datum starts Hot with truth +1, detail 0.5, zero exposure, and
    empty evidence lists; both timestamps equal the observation time.
    """
    if not 0.0 <= source_confidence <= 1.0:
        raise RangeError(f"source_confidence {source_confidence} outside [0, 1]")
    if datum_id is None:
        stamp = _short_hash(metadata.source_id, format_scalar(metadata.observed_at),
                            canonical_text(payload))
        datum_id = f"{metadata.source_id}-{stamp}"
    at = metadata.observed_at
    # Positional arguments: keywords slow each frozen ``__init__``, and a
    # run wraps one datum per observation.
    return ActiveDatum(datum_id, kind, dict(payload), key, metadata, Hyperdata(
        1.0, source_confidence, 0.5, 0.0, StorageTier.Hot, (), (), (), at, at))


def is_duplicate(a: ActiveDatum, b: ActiveDatum) -> bool:
    """True when payload text and kind are equal and the keys overlap in
    every dimension (time and box intersect, concept paths are equal)."""
    return _Fusion(a).duplicates(b)


def resolve(a: ActiveDatum, b: ActiveDatum) -> ActiveDatum:
    """Fuse two duplicate data into one.

    The surviving id is the lexicographic minimum; confidences combine by
    noisy-OR; truth becomes the confidence-weighted mean; detail and
    exposure take the max; the key becomes the cover of both keys; the
    absorbed id joins the complementary links.  Raises
    ``PreconditionError`` unless ``is_duplicate(a, b)``.  The caller is
    responsible for marking the loser Deleted.  This is one step of
    :func:`fuse`, which holds the arithmetic.
    """
    fusion = _Fusion(a)
    if not fusion.duplicates(b):
        raise PreconditionError(f"{a.id} and {b.id} are not duplicates")
    fusion.absorb(b)
    return fusion.result()


def fuse(datum: ActiveDatum, peers: Iterable[ActiveDatum]
         ) -> tuple[ActiveDatum, list[tuple[str, str, float]]]:
    """Fold every duplicate of ``datum`` among ``peers`` into one datum.

    Peers are taken in ascending id, and each is merged into the running
    result exactly as :func:`resolve` would merge the pair.  A peer is
    skipped when it is not a duplicate of the running result (whose key
    grows by the cover of each merge), or when either lists the other
    among its complementary links: such twins (forked clones) are
    intentional replicas, not redundant reports.

    Returns the merged datum (``datum`` itself when nothing merged) and,
    per merge in order, the survivor id, the absorbed id and the
    confidence after the merge.  With peers in ascending id the survivor
    changes at most once, at the first merge.
    """
    fusion = _Fusion(datum)
    merges: list[tuple[str, str, float]] = []
    for peer in sorted(peers, key=attrgetter("id")):
        if fusion.duplicates(peer) and peer.id not in fusion.complementary and \
                fusion.winner.id not in peer.hyperdata.complementary:
            absorbed = fusion.absorb(peer)
            merges.append((fusion.winner.id, absorbed, fusion.confidence))
    return (fusion.result() if merges else datum), merges


class _Fusion:
    """A running merge, kept on plain floats and ordered dicts so that
    each absorbed datum costs the size of its own links, not the size of
    everything merged so far.

    ``winner`` is the datum whose id, payload, metadata and tier survive.
    The refuting links are filtered against the complementary ones only
    in :meth:`result`: the complementary links never shrink, so a link
    dropped at one merge would be dropped at every later one.
    """

    __slots__ = ("winner", "t0", "t1", "x0", "y0", "x1", "y1", "truth",
                 "confidence", "detail", "exposure", "created_at", "updated_at",
                 "complementary", "refuting", "missing")

    def __init__(self, d: ActiveDatum):
        self.winner = d
        time, space, hd = d.key.time, d.key.space, d.hyperdata
        self.t0, self.t1 = time.start, time.end
        self.x0, self.y0, self.x1, self.y1 = space.x0, space.y0, space.x1, space.y1
        self.truth, self.confidence = hd.truth, hd.confidence
        self.detail, self.exposure = hd.detail, hd.exposure
        self.created_at, self.updated_at = hd.created_at, hd.updated_at
        self.complementary = dict.fromkeys(hd.complementary)
        self.refuting = dict.fromkeys(hd.refuting)
        self.missing = dict.fromkeys(hd.missing)

    def duplicates(self, peer: ActiveDatum) -> bool:
        """Whether ``peer`` duplicates the running result: the one
        definition behind :func:`is_duplicate`."""
        w, key = self.winner, peer.key
        time, space, concept = key.time, key.space, key.concept
        # Identity first, as in ``QuerySpec.matches``: the dataclass
        # ``__eq__`` is a Python-level call, and the data of one load or one
        # kind share their concept path.
        return (
            w.text == peer.text
            and w.kind is peer.kind
            and (w.key.concept is concept or w.key.concept == concept)
            and spans_intersect(self.t0, self.t1, time.start, time.end)
            and spans_intersect(self.x0, self.x1, space.x0, space.x1)
            and spans_intersect(self.y0, self.y1, space.y0, space.y1)
        )

    def absorb(self, peer: ActiveDatum) -> str:
        """Merge a duplicate into the running result; returns the id of
        the side absorbed."""
        hd = peer.hyperdata
        ca, cb = self.confidence, hd.confidence
        confidence = noisy_or(ca, cb)
        if ca + cb > 0:
            truth = (ca * self.truth + cb * hd.truth) / (ca + cb)
        else:
            truth = (self.truth + hd.truth) / 2.0
        if peer.id < self.winner.id:
            # The survivor switches, which a fold does at most at its first
            # merge: start again from the peer and take in the running
            # result as the side absorbed.
            absorbed, loser = self.winner.id, self.result()
            _Fusion.__init__(self, peer)
            peer, hd = loser, loser.hyperdata
        else:
            absorbed = peer.id
        self.truth = _clamp(truth, -1.0, 1.0)
        self.confidence = _clamp(confidence, 0.0, 1.0)
        # The survivor's value first, as in a pairwise merge: ``min(a, b)``
        # is ``b if b < a else a`` and ``max(a, b)`` is ``b if b > a else a``,
        # so ties (-0.0 against 0.0) keep the survivor's, and so do links.
        t0, t1, x0, y0, x1, y1, _ = peer.key._flat
        self.t0 = t0 if t0 < self.t0 else self.t0
        self.t1 = t1 if t1 > self.t1 else self.t1
        self.x0 = x0 if x0 < self.x0 else self.x0
        self.y0 = y0 if y0 < self.y0 else self.y0
        self.x1 = x1 if x1 > self.x1 else self.x1
        self.y1 = y1 if y1 > self.y1 else self.y1
        self.detail = hd.detail if hd.detail > self.detail else self.detail
        self.exposure = hd.exposure if hd.exposure > self.exposure else self.exposure
        self.created_at = hd.created_at if hd.created_at < self.created_at \
            else self.created_at
        self.updated_at = hd.updated_at if hd.updated_at > self.updated_at \
            else self.updated_at
        if hd.complementary:
            self.complementary.update(dict.fromkeys(hd.complementary))
        self.complementary[absorbed] = None
        if hd.refuting:
            self.refuting.update(dict.fromkeys(hd.refuting))
        if hd.missing:
            self.missing.update(dict.fromkeys(hd.missing))
        return absorbed

    def result(self) -> ActiveDatum:
        w, complementary = self.winner, self.complementary
        return replace(
            w,
            key=NearnessKey(TimeInterval(self.t0, self.t1),
                            PlanarBox(self.x0, self.y0, self.x1, self.y1),
                            w.key.concept),
            hyperdata=replace(
                w.hyperdata,
                truth=self.truth,
                confidence=self.confidence,
                detail=self.detail,
                exposure=self.exposure,
                complementary=tuple(complementary),
                refuting=tuple(r for r in self.refuting if r not in complementary),
                missing=tuple(self.missing),
                created_at=self.created_at,
                updated_at=self.updated_at,
            ),
        )


def _merge_links(first: tuple[str, ...], extra: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(dict.fromkeys((*first, *extra)))


def apply_evidence(d: ActiveDatum, e: Evidence, at: float | None = None) -> ActiveDatum:
    """Fold one piece of evidence into a datum.

    Complementary evidence raises confidence by noisy-OR and leaves truth
    alone.  Refuting evidence pulls truth toward -1 by
    ``truth - strength * (truth + 1)`` and also raises confidence, since a
    refutation is itself informative; it never deletes the datum.  ``at``
    is the evidence arrival time; when omitted the datum's own update time
    is reused (no advance).
    """
    if d.tier is StorageTier.Deleted:
        raise LifecycleError(f"datum {d.id} is deleted")
    hd = d.hyperdata
    when = hd.updated_at if at is None else max(at, hd.updated_at)
    confidence = _clamp(noisy_or(hd.confidence, e.strength), 0.0, 1.0)
    if e.polarity is EvidencePolarity.Complementary:
        truth = hd.truth
        complementary = _merge_links(hd.complementary, (e.source_datum,))
        refuting = tuple(r for r in hd.refuting if r != e.source_datum)
    else:
        truth = _clamp(hd.truth - e.strength * (hd.truth + 1.0), -1.0, 1.0)
        refuting = _merge_links(hd.refuting, (e.source_datum,))
        complementary = tuple(c for c in hd.complementary if c != e.source_datum)
    return replace(d, hyperdata=replace(
        hd, truth=truth, confidence=confidence,
        complementary=complementary, refuting=refuting, updated_at=when))


def aggregate(data: list[ActiveDatum] | set[ActiveDatum] | tuple[ActiveDatum, ...],
              group_key: str, datum_id: str | None = None) -> ActiveDatum:
    """Count distinct data per value of a shared payload field.

    The result is an Aggregate datum whose payload maps each observed
    field value to the number of distinct input ids that carried it; its
    confidence is the minimum over the inputs and its key is the smallest
    key covering all input keys.
    """
    items = sorted(data, key=lambda d: d.id)
    if not items:
        raise PreconditionError("cannot aggregate an empty set")
    kinds = {d.kind for d in items}
    if len(kinds) != 1:
        raise PreconditionError(f"mixed kinds in aggregate: {sorted(k.value for k in kinds)}")
    counts: dict[str, set[str]] = {}
    for d in items:
        if group_key not in d.payload:
            raise PreconditionError(f"datum {d.id} lacks field {group_key!r}")
        counts.setdefault(format_scalar(d.payload[group_key]), set()).add(d.id)
    payload: dict[str, Scalar] = {value: len(ids) for value, ids in counts.items()}
    if datum_id is None:
        datum_id = f"agg-{_short_hash(group_key, *(d.id for d in items))}"
    return _derived(datum_id, NotionKind.Aggregate, payload, items, "aggregate",
                    f"count:{group_key}", min(d.confidence for d in items),
                    max(d.hyperdata.detail for d in items),
                    max(d.hyperdata.exposure for d in items))


def _derived(datum_id: str, kind: NotionKind, payload: dict[str, Scalar],
             sources: list[ActiveDatum] | tuple[ActiveDatum, ...], source_id: str,
             schema_tag: str, confidence: float, detail: float,
             exposure: float) -> ActiveDatum:
    """A datum concluded from ``sources``, the rule :func:`aggregate` and
    :func:`infer` share: its key covers the sources' keys, it is observed
    and updated when the latest source was, it is as true as the least true
    source, and it links to each source, in order."""
    key = sources[0].key
    for d in sources[1:]:
        key = key.cover(d.key)
    updated = max(d.hyperdata.updated_at for d in sources)
    return ActiveDatum(datum_id, kind, payload, key, Metadata(
        source_id, max(d.metadata.observed_at for d in sources), len(payload), schema_tag),
        Hyperdata(min(d.truth for d in sources), confidence, detail, exposure,
                  StorageTier.Hot, tuple(d.id for d in sources), (), (), updated, updated))


def _pattern_matches(pattern: Payload, datum: ActiveDatum) -> bool:
    return all(
        name in datum.payload
        and format_scalar(datum.payload[name]) == format_scalar(value)
        for name, value in pattern.items()
    )


def _find_assignment(patterns: tuple[Payload, ...], candidates: list[ActiveDatum],
                     picked: tuple[ActiveDatum, ...] = ()
                     ) -> tuple[ActiveDatum, ...] | None:
    """First injective premise->datum assignment in ascending-id order that
    extends ``picked``, the data matched to the leading patterns.

    A plain recursion: a nested function that calls itself would be a
    reference cycle, left for the cyclic collector after every call.
    """
    if len(picked) == len(patterns):
        return picked
    pattern = patterns[len(picked)]
    used = {p.id for p in picked}
    for d in candidates:
        if d.id in used or not _pattern_matches(pattern, d):
            continue
        result = _find_assignment(patterns, candidates, picked + (d,))
        if result is not None:
            return result
    return None


def infer(rule: HypothesisRule, candidates: list[ActiveDatum] | set[ActiveDatum],
          datum_id: str | None = None) -> ActiveDatum | None:
    """Fire a rule against a candidate pool.

    Returns the instantiated conclusion when every premise pattern matches
    a distinct candidate, with confidence the product of the premise
    confidences and truth the minimum premise truth; otherwise None.
    """
    pool = sorted(candidates, key=lambda d: d.id)
    premises = _find_assignment(rule.premise_patterns, pool)
    if premises is None:
        return None
    payload: dict[str, Scalar] = {}
    for name, value in rule.conclusion_template.items():
        ref = _parse_reference(value)
        if ref is None:
            payload[name] = value
        else:
            idx, fname = ref
            payload[name] = premises[idx].payload[fname]
    confidence = 1.0
    for p in premises:
        confidence *= p.confidence
    if datum_id is None:
        datum_id = f"hyp-{rule.id}-{_short_hash(rule.id, *(p.id for p in premises))}"
    return _derived(datum_id, rule.conclusion_kind, payload, premises, rule.id, "inferred",
                    _clamp(confidence, 0.0, 1.0),
                    min(p.hyperdata.detail for p in premises), 0.0)


def match_gaps(rule: HypothesisRule,
               candidates: list[ActiveDatum] | set[ActiveDatum]) -> tuple[str, ...]:
    """Canonical texts of premises left unmatched by a partial rule match.

    Empty when the rule matched fully or not at all; a non-empty result
    describes the information that would complete the story.
    """
    pool = sorted(candidates, key=lambda d: d.id)
    matched = [any(_pattern_matches(pat, d) for d in pool)
               for pat in rule.premise_patterns]
    if all(matched) or not any(matched):
        return ()
    return tuple(canonical_text(pat)
                 for pat, hit in zip(rule.premise_patterns, matched) if not hit)


def tier_decision(d: ActiveDatum, now: float) -> StorageTier:
    """Pick the storage tier a datum should occupy at time ``now``.

    Confidently-false data delete themselves; otherwise placement follows
    age since the last update, with the hot tier additionally requiring a
    minimum confidence.  Pure: the caller applies the transition.
    """
    if d.tier is StorageTier.Deleted:
        raise LifecycleError(f"datum {d.id} is deleted")
    hd = d.hyperdata
    if hd.truth <= FALSE_TRUTH and hd.confidence >= FALSE_CONFIDENCE:
        return StorageTier.Deleted
    age = now - hd.updated_at
    if hd.confidence >= HOT_CONFIDENCE and age < HOT_AGE:
        return StorageTier.Hot
    if age < WARM_AGE:
        return StorageTier.Warm
    if age < COLD_AGE:
        return StorageTier.Cold
    return StorageTier.Archived
