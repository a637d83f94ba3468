"""Property-based checks of the hyperdata algebra.

The acceptance suite runs the large randomized sweep; here hypothesis
hunts for structural counterexamples with small, shrinkable cases.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adatm import (
    ActiveDatum,
    ConceptPath,
    Evidence,
    EvidencePolarity,
    Hyperdata,
    Metadata,
    NearnessKey,
    NotionKind,
    PlanarBox,
    TimeInterval,
    aggregate,
    apply_evidence,
    canonical_text,
    fuse,
    is_duplicate,
    resolve,
    tier_decision,
)
from adatm.kernel import format_scalar

from conftest import make_datum, make_key

_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)
_times = st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False,
                   allow_infinity=False)


@st.composite
def evidence_items(draw):
    polarity = draw(st.sampled_from(list(EvidencePolarity)))
    strength = draw(_unit)
    return Evidence(polarity, strength, f"src-{draw(st.integers(0, 99))}")


@st.composite
def duplicate_pair(draw):
    ca, cb = draw(_unit), draw(_unit)
    a = make_datum("aa", confidence=ca)
    b = make_datum("bb", confidence=cb)
    return a, b


class TestRangePreservation:
    @given(conf=_unit, items=st.lists(evidence_items(), max_size=12), at=_times)
    def test_evidence_sequences_stay_in_range(self, conf, items, at):
        d = make_datum("d", confidence=conf)
        for i, e in enumerate(items):
            d = apply_evidence(d, e, at=at + i)
            assert -1.0 <= d.truth <= 1.0
            assert 0.0 <= d.confidence <= 1.0
            assert d.hyperdata.updated_at >= d.hyperdata.created_at

    @given(pair=duplicate_pair(), items=st.lists(evidence_items(), max_size=6))
    def test_resolve_then_evidence_stays_in_range(self, pair, items):
        d = resolve(*pair)
        assert 0.0 <= d.confidence <= 1.0
        for e in items:
            d = apply_evidence(d, e)
            assert -1.0 <= d.truth <= 1.0
            assert 0.0 <= d.confidence <= 1.0


class TestMonotonicity:
    @given(conf=_unit, strength=_unit)
    def test_complementary_never_decreases_confidence(self, conf, strength):
        d = make_datum("d", confidence=conf)
        out = apply_evidence(d, Evidence(EvidencePolarity.Complementary,
                                         strength, "s"))
        assert out.confidence >= d.confidence - 1e-15

    @given(pair=duplicate_pair())
    def test_resolve_never_drops_below_either_input(self, pair):
        a, b = pair
        merged = resolve(a, b)
        assert merged.confidence >= max(a.confidence, b.confidence) - 1e-15


class TestNoisyOrAlgebra:
    @given(ca=_unit, cb=_unit)
    def test_resolve_commutative_on_confidence(self, ca, cb):
        a = make_datum("aa", confidence=ca)
        b = make_datum("bb", confidence=cb)
        assert resolve(a, b).confidence == pytest.approx(
            resolve(b, a).confidence, abs=1e-12)

    @given(ca=_unit, cb=_unit, cc=_unit)
    def test_resolve_associative_on_confidence(self, ca, cb, cc):
        def build():
            return (make_datum("aa", confidence=ca),
                    make_datum("bb", confidence=cb),
                    make_datum("cc", confidence=cc))

        a, b, c = build()
        left = resolve(resolve(a, b), c).confidence
        a, b, c = build()
        right = resolve(a, resolve(b, c)).confidence
        assert left == pytest.approx(right, abs=1e-12)


class TestDuplicatePredicate:
    @given(t0=_times, span=st.floats(min_value=0.0, max_value=500.0,
                                     allow_nan=False),
           u0=_times, span2=st.floats(min_value=0.0, max_value=500.0,
                                      allow_nan=False))
    def test_symmetric(self, t0, span, u0, span2):
        a = make_datum("a", key=make_key(t0=t0, t1=t0 + span))
        b = make_datum("b", key=make_key(t0=u0, t1=u0 + span2))
        assert is_duplicate(a, b) == is_duplicate(b, a)

    @given(t0=_times, span=st.floats(min_value=0.0, max_value=500.0,
                                     allow_nan=False))
    def test_reflexive(self, t0, span):
        d = make_datum("d", key=make_key(t0=t0, t1=t0 + span))
        assert is_duplicate(d, d)


class TestAggregateOracle:
    @given(values=st.lists(st.sampled_from(["a", "b", "c", "d"]),
                           min_size=1, max_size=12))
    def test_counts_match_brute_force(self, values):
        data = [make_datum(f"d{i:02d}", payload={"date": v, "n": i})
                for i, v in enumerate(values)]
        agg = aggregate(data, "date")
        brute: dict[str, set[str]] = {}
        for d in data:
            brute.setdefault(str(d.payload["date"]), set()).add(d.id)
        assert agg.payload == {k: len(v) for k, v in brute.items()}


class TestTierPurity:
    @given(conf=_unit, observed=_times, now=_times)
    def test_same_inputs_same_output(self, conf, observed, now):
        d = make_datum("d", confidence=conf, observed_at=observed)
        assert tier_decision(d, now) is tier_decision(d, now)


_IDS = tuple(f"d{i}" for i in range(8))
_LINK_POOL = ("x", "y", "z") + _IDS
_MISSING_POOL = ("m1", "m2", "m3")


@st.composite
def _span(draw, starts, widths):
    # Small integer spans, some of zero length, so that keys touch, chain
    # (meet only the cover of earlier keys) and coincide often.
    start = float(draw(st.integers(0, starts)))
    return start, start + draw(st.integers(widths[0], widths[1]))


@st.composite
def _fusion_datum(draw, datum_id):
    t0, t1 = draw(_span(2, (0, 4)))
    x0, x1 = draw(_span(6, (0, 4)))
    y0, y1 = draw(_span(1, (1, 3)))
    # One draw in four differs in text, kind or concept, so is never a duplicate.
    odd = draw(st.integers(0, 11))
    payload = {"storm_id": "st-2" if odd == 0 else "st-1"}
    kind = NotionKind.Hypothesis if odd == 1 else NotionKind.Event
    concept = "airspace/weather/other" if odd == 2 else "airspace/weather/storm"
    complementary = draw(st.lists(st.sampled_from(_LINK_POOL), max_size=3, unique=True))
    refuting = draw(st.lists(st.sampled_from(
        [link for link in _LINK_POOL if link not in complementary]), max_size=3, unique=True))
    created = draw(_times)
    return ActiveDatum(
        id=datum_id, kind=kind, payload=payload,
        key=NearnessKey(TimeInterval(t0, t1), PlanarBox(x0, y0, x1, y1),
                        ConceptPath.parse(concept)),
        metadata=Metadata(source_id="radar", observed_at=created),
        hyperdata=Hyperdata(
            truth=draw(st.floats(-1.0, 1.0)),
            confidence=draw(st.one_of(st.just(0.0), _unit)),
            detail=draw(_unit),
            exposure=draw(_unit),
            complementary=tuple(complementary),
            refuting=tuple(refuting),
            missing=tuple(draw(st.lists(st.sampled_from(_MISSING_POOL), max_size=2,
                                        unique=True))),
            created_at=created,
            updated_at=created + draw(_times),
        ),
    )


@st.composite
def fusion_inputs(draw):
    ids = draw(st.lists(st.sampled_from(_IDS), min_size=2, max_size=len(_IDS),
                        unique=True))
    data = [draw(_fusion_datum(datum_id)) for datum_id in ids]
    return data[0], data[1:]


def reference_resolve(a, b):
    """The pairwise merge rules spelled out on whole data, independent of
    the kernel's fold: winner the smaller id, noisy-OR confidence,
    confidence-weighted truth, max detail and exposure, covering key, and
    link lists concatenated winner first without repeats."""
    winner, loser = (a, b) if a.id <= b.id else (b, a)
    ca, cb = a.confidence, b.confidence
    confidence = 1.0 - (1.0 - ca) * (1.0 - cb)
    truth = (ca * a.truth + cb * b.truth) / (ca + cb) if ca + cb > 0 \
        else (a.truth + b.truth) / 2.0
    hw, hl = winner.hyperdata, loser.hyperdata

    def links(*lists):
        out = []
        for item in (x for part in lists for x in part):
            if item not in out:
                out.append(item)
        return tuple(out)

    complementary = links(hw.complementary, hl.complementary, (loser.id,))
    return replace(winner, key=winner.key.cover(loser.key), hyperdata=replace(
        hw,
        truth=max(-1.0, min(1.0, truth)),
        confidence=max(0.0, min(1.0, confidence)),
        detail=max(hw.detail, hl.detail),
        exposure=max(hw.exposure, hl.exposure),
        complementary=complementary,
        refuting=tuple(r for r in links(hw.refuting, hl.refuting)
                       if r not in complementary),
        missing=links(hw.missing, hl.missing),
        created_at=min(hw.created_at, hl.created_at),
        updated_at=max(hw.updated_at, hl.updated_at),
    ))


def pairwise_fold(datum, peers, merge=reference_resolve):
    """Merge one peer at a time, ascending id, with the scheduler's rules
    for skipping a peer."""
    steps = []
    for peer in sorted(peers, key=lambda p: p.id):
        if not is_duplicate(datum, peer):
            continue
        if peer.id in datum.hyperdata.complementary or \
                datum.id in peer.hyperdata.complementary:
            continue
        merged = merge(datum, peer)
        steps.append((merged.id, peer.id if merged.id == datum.id else datum.id,
                      merged.confidence))
        datum = merged
    return datum, steps


def _long_fold_inputs(count=300, seed=23):
    """Report ``r150`` and its ``count - 1`` peers, storm-like: one text,
    kind and concept, keys jittered around one box and window.  Some spans
    are points, and ``r077`` carries links.  Every lower bound, ``created_at``
    and ``exposure`` may be 0.0 or -0.0: ``r000``, which the survivor
    switches to, has 0.0 in each and the last report -0.0, so each result
    shows which side a tie kept."""
    rng = random.Random(seed)
    concept = ConceptPath.parse("airspace/weather/storm")

    def zero(i):
        return 0.0 if i == 0 else -0.0 if i == count - 1 else rng.choice((0.0, -0.0))

    def value(i, lo, hi):
        return zero(i) if i in (0, count - 1) or rng.random() < 0.5 else rng.uniform(lo, hi)

    def span(i, lo, hi, point):
        start = value(i, lo, lo + 1.0)
        return start, start if point else hi + rng.uniform(-0.5, 0.5)

    data = []
    for i in range(count):
        t0, t1 = span(i, 0.0, 2400.0, i % 11 == 3)
        x0, x1 = span(i, 0.0, 40.0, i % 13 == 5)
        y0, y1 = span(i, 0.0, 20.0, i % 17 == 7)
        created = value(i, 0.0, 600.0)
        data.append(ActiveDatum(
            id=f"r{i:03d}", kind=NotionKind.Event, payload={"storm_id": "st-1"},
            key=NearnessKey(TimeInterval(t0, t1), PlanarBox(x0, y0, x1, y1), concept),
            metadata=Metadata(source_id="radar", observed_at=600.0),
            hyperdata=Hyperdata(
                truth=rng.uniform(-1.0, 1.0), confidence=value(i, 0.0, 0.05),
                detail=rng.uniform(0.0, 1.0), exposure=zero(i),
                complementary=("ext-1",) if i == 77 else (),
                refuting=("ext-2", "ext-3") if i == 77 else ("ext-1",) if i == 90 else (),
                missing=("m1",) if i == 77 else (),
                created_at=created, updated_at=rng.choice((created, created + 60.0)))))
    datum = data.pop(150)
    rng.shuffle(data)
    return datum, data


class TestFuse:
    @settings(max_examples=200, deadline=None)
    @given(inputs=fusion_inputs())
    def test_equals_pairwise_left_fold(self, inputs):
        datum, peers = inputs
        want = repr(pairwise_fold(datum, peers))
        # ``repr`` tells -0.0 from 0.0, which ``==`` does not.
        assert repr(fuse(datum, peers)) == want
        assert repr(pairwise_fold(datum, peers, merge=resolve)) == want

    def test_survivor_switches_once_and_key_chains(self):
        d3 = make_datum("d3", confidence=0.5, key=make_key(box=(0.0, 0.0, 10.0, 10.0)))
        d1 = make_datum("d1", confidence=0.2, key=make_key(box=(5.0, 0.0, 15.0, 10.0)))
        # Meets only the cover of d3 and d1.
        d2 = make_datum("d2", confidence=0.0, key=make_key(box=(12.0, 0.0, 20.0, 10.0)))
        merged, merges = fuse(d3, [d2, d1])
        assert [(s, a) for s, a, _ in merges] == [("d1", "d3"), ("d1", "d2")]
        assert merged.id == "d1"
        assert merged.hyperdata.complementary == ("d3", "d2")
        assert merged.key.space == PlanarBox(0.0, 0.0, 20.0, 10.0)
        assert repr((merged, merges)) == repr(pairwise_fold(d3, [d1, d2]))

    def test_long_fold_equals_pairwise_left_fold(self):
        # About as many reports as the storm workload folds, where the
        # property above draws at most 8 data.
        datum, peers = _long_fold_inputs()
        merged, merges = fuse(datum, peers)
        assert merges[0][:2] == ("r000", "r150")  # the survivor switches first
        assert merged.id == "r000" and len(merges) > 250
        assert "ext-1" in merged.hyperdata.complementary
        hd, flat = merged.hyperdata, merged.key._flat
        assert repr((flat[0], flat[2], flat[3], hd.created_at, hd.exposure)) == \
            "(0.0, 0.0, 0.0, 0.0, 0.0)"
        want = repr(pairwise_fold(datum, peers))
        assert repr((merged, merges)) == want
        assert repr(pairwise_fold(datum, peers, merge=resolve)) == want

    def test_no_duplicate_returns_the_datum_itself(self):
        d = make_datum("d")
        other = make_datum("e", payload={"race": "mayor"})
        assert fuse(d, [other]) == (d, [])
        assert fuse(d, [other])[0] is d


_scalars = st.one_of(
    st.text(max_size=8),
    st.integers(-10**20, 10**20),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6).map(float),  # integral floats
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, 2.0 ** 63, 1e22, -1e16]),
)


class TestCanonicalText:
    """Strings and ints are written as they are, everything else through
    ``format_scalar``; the text equals the one formula for every value."""

    @settings(max_examples=400)
    @given(payload=st.dictionaries(st.text(max_size=6), _scalars, max_size=6))
    def test_equals_format_scalar_of_every_field(self, payload):
        expected = ";".join(f"{k}={format_scalar(payload[k])}" for k in sorted(payload))
        assert canonical_text(payload) == expected
