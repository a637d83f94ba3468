"""Unit tests for the data-element activity functions."""

import gc
import math
from dataclasses import fields, replace

import pytest

from adatm import (
    Evidence,
    EvidencePolarity,
    HypothesisRule,
    Metadata,
    NotionKind,
    StorageTier,
    aggregate,
    apply_evidence,
    canonical_text,
    encapsulate,
    infer,
    is_duplicate,
    resolve,
    tier_decision,
)
from adatm import kernel
from adatm.errors import LifecycleError, PreconditionError, RangeError, ValidationError
from adatm.kernel import Hyperdata, match_gaps

from conftest import make_datum, make_key


class TestHyperdataLinks:
    def test_overlapping_complementary_and_refuting_links_rejected(self):
        with pytest.raises(ValidationError):
            Hyperdata(truth=1.0, confidence=0.5, complementary=("a", "b"),
                      refuting=("c", "b"))

    @pytest.mark.parametrize("complementary, refuting", [
        ((), ()), (("a",), ()), ((), ("a",)), (("a",), ("b",))])
    def test_disjoint_or_one_sided_links_accepted(self, complementary, refuting):
        hd = Hyperdata(truth=1.0, confidence=0.5, complementary=complementary,
                       refuting=refuting)
        assert (hd.complementary, hd.refuting) == (complementary, refuting)


class TestHyperdataRanges:
    """Each value outside its range, NaN included, raises ``RangeError``
    naming its field, whichever of the four it is."""

    @pytest.mark.parametrize("name, value", [
        ("truth", -1.1), ("truth", 1.1), ("truth", math.nan),
    ] + [(name, value) for name in ("confidence", "detail", "exposure")
         for value in (-0.1, 1.1, math.nan)])
    def test_out_of_range_names_the_field(self, name, value):
        with pytest.raises(RangeError) as err:
            Hyperdata(**{"truth": 1.0, "confidence": 0.5, name: value})
        assert str(err.value).startswith(f"{name} {value} outside ")

    @pytest.mark.parametrize("name, value", [
        ("truth", -1.0), ("truth", 1.0), ("confidence", 0.0), ("confidence", 1.0),
        ("detail", 0.0), ("detail", 1.0), ("exposure", 0.0), ("exposure", 1.0)])
    def test_range_ends_accepted(self, name, value):
        hd = Hyperdata(**{"truth": 1.0, "confidence": 0.5, name: value})
        assert getattr(hd, name) == value

    def test_updated_before_created_is_a_validation_error(self):
        with pytest.raises(ValidationError) as err:
            Hyperdata(truth=1.0, confidence=0.5, created_at=10.0, updated_at=5.0)
        assert err.value.path == "updated_at"
        assert not isinstance(err.value, RangeError)


class TestCanonicalText:
    def test_sorted_fields_joined(self):
        assert canonical_text({"b": 1, "a": "x"}) == "a=x;b=1"

    def test_integral_float_collapses(self):
        assert canonical_text({"t": 50.0}) == canonical_text({"t": 50})

    def test_bool_is_lowercase(self):
        assert canonical_text({"ok": True}) == "ok=true"


class TestDatumText:
    def test_text_is_built_once_and_left_out_of_equality_and_repr(self):
        d = make_datum("d", payload={"b": 2.0, "a": "x"})
        assert d.text == "a=x;b=2" and d.text is d.text
        assert "text" not in repr(d) and "a=x;b=2" not in repr(d)
        twin = make_datum("d", payload={"b": 2, "a": "x"})
        assert twin.text == d.text and twin == d
        assert "text" not in [f.name for f in fields(d) if f.compare or f.hash]

    def test_replace_builds_the_text_of_the_new_payload(self):
        d = make_datum("d", payload={"a": "x"})
        assert replace(d, payload={"a": "y"}).text == "a=y"
        assert replace(d, metadata=Metadata("ops", 5.0)).text == "a=x"
        with pytest.raises(ValueError):
            replace(d, text="a=z")


class TestEncapsulate:
    def test_event_report(self):
        d = encapsulate(
            {"flight": "1234", "event": "arrived", "at": "1:10pm"},
            NotionKind.Event,
            Metadata(source_id="ops", observed_at=200.0),
            0.9,
            make_key(),
        )
        assert d.kind is NotionKind.Event
        assert d.truth == 1.0
        assert d.confidence == 0.9
        assert d.tier is StorageTier.Hot
        assert d.hyperdata.created_at == d.hyperdata.updated_at == 200.0
        assert d.hyperdata.complementary == ()
        assert d.hyperdata.refuting == ()

    def test_zero_confidence_boundary(self):
        d = make_datum("z", confidence=0.0)
        assert d.confidence == 0.0
        assert d.truth == 1.0

    def test_assumption_default_detail(self):
        d = encapsulate(
            {"flight": "1234", "status": "on time"},
            NotionKind.Assumption,
            Metadata(source_id="sched", observed_at=0.0),
            0.5,
            make_key(),
        )
        assert d.kind is NotionKind.Assumption
        assert d.hyperdata.detail == 0.5

    @pytest.mark.parametrize("confidence", [-0.1, 1.1])
    def test_confidence_out_of_range(self, confidence):
        with pytest.raises(RangeError):
            make_datum("bad", confidence=confidence)


class TestIsDuplicate:
    def test_reflexive(self):
        d = make_datum("a")
        assert is_duplicate(d, d)

    def test_cross_source_duplicate(self):
        a = make_datum("cnn-1", source="cnn")
        b = make_datum("msnbc-1", source="msnbc")
        assert is_duplicate(a, b)
        assert is_duplicate(b, a)

    def test_disjoint_time_not_duplicate(self):
        # Evaluated by hand: [0, 100) and [200, 300) cannot intersect.
        a = make_datum("a", key=make_key(t0=0.0, t1=100.0))
        b = make_datum("b", key=make_key(t0=200.0, t1=300.0))
        assert not is_duplicate(a, b)

    def test_touching_half_open_intervals_not_duplicate(self):
        a = make_datum("a", key=make_key(t0=0.0, t1=100.0))
        b = make_datum("b", key=make_key(t0=100.0, t1=200.0))
        assert not is_duplicate(a, b)

    def test_point_key_is_reflexive(self):
        d = make_datum("p", key=make_key(t0=50.0, t1=50.0, box=(1, 1, 1, 1)))
        assert is_duplicate(d, d)

    def test_different_kind_not_duplicate(self):
        a = make_datum("a", kind=NotionKind.Event)
        b = make_datum("b", kind=NotionKind.Assumption)
        assert not is_duplicate(a, b)


class TestResolve:
    def test_noisy_or_confidence(self):
        # 1 - (1 - 0.6)(1 - 0.5) = 0.8, frozen from direct evaluation.
        a = make_datum("a", confidence=0.6)
        b = make_datum("b", confidence=0.5)
        merged = resolve(a, b)
        assert merged.confidence == pytest.approx(0.8, abs=1e-12)
        assert merged.truth == pytest.approx(1.0, abs=1e-12)

    def test_zero_confidence_peer_is_identity_on_confidence(self):
        a = make_datum("a", confidence=0.7)
        b = make_datum("b", confidence=0.0)
        assert resolve(a, b).confidence == pytest.approx(0.7, abs=1e-12)

    def test_corroboration_exceeds_both_inputs(self):
        a = make_datum("cnn-1", confidence=0.6, source="cnn")
        b = make_datum("msnbc-1", confidence=0.5, source="msnbc")
        merged = resolve(a, b)
        assert merged.confidence > a.confidence
        assert merged.confidence > b.confidence

    def test_winner_is_lexicographic_min_and_absorbs(self):
        a = make_datum("beta", confidence=0.5)
        b = make_datum("alpha", confidence=0.5)
        merged = resolve(a, b)
        assert merged.id == "alpha"
        assert "beta" in merged.hyperdata.complementary

    def test_non_duplicates_rejected(self):
        a = make_datum("a", payload={"x": 1})
        b = make_datum("b", payload={"x": 2})
        with pytest.raises(PreconditionError):
            resolve(a, b)

    def test_detail_exposure_take_max_and_updated_at_max(self):
        a = make_datum("a", observed_at=100.0)
        b = make_datum("b", observed_at=250.0)
        merged = resolve(a, b)
        assert merged.hyperdata.updated_at == 250.0
        assert merged.hyperdata.created_at == 100.0


class TestApplyEvidence:
    def test_zero_strength_identity(self):
        d = make_datum("d", confidence=0.4)
        for polarity in EvidencePolarity:
            out = apply_evidence(d, Evidence(polarity, 0.0, "src"), at=500.0)
            assert out.truth == d.truth
            assert out.confidence == d.confidence
            assert out.hyperdata.updated_at == 500.0

    def test_full_refutation(self):
        # truth' = 1 - 1 * (1 + 1) = -1; confidence' = 1 - (1-c)(1-1) = 1.
        d = make_datum("d", confidence=0.3)
        out = apply_evidence(d, Evidence(EvidencePolarity.Refuting, 1.0, "src"))
        assert out.truth == pytest.approx(-1.0, abs=1e-12)
        assert out.confidence == pytest.approx(1.0, abs=1e-12)
        assert "src" in out.hyperdata.refuting

    def test_complementary_half_strength(self):
        # confidence' = 1 - (1 - 0.5)(1 - 0.5) = 0.75; truth untouched.
        d = make_datum("d", confidence=0.5)
        out = apply_evidence(d, Evidence(EvidencePolarity.Complementary, 0.5, "src"))
        assert out.truth == pytest.approx(1.0, abs=1e-12)
        assert out.confidence == pytest.approx(0.75, abs=1e-12)
        assert "src" in out.hyperdata.complementary

    def test_refutation_does_not_delete(self):
        d = make_datum("d", confidence=0.9)
        out = apply_evidence(d, Evidence(EvidencePolarity.Refuting, 0.4, "src"))
        assert out.tier is not StorageTier.Deleted

    def test_deleted_datum_rejected(self):
        from dataclasses import fields, replace
        d = make_datum("d")
        dead = replace(d, hyperdata=replace(d.hyperdata, tier=StorageTier.Deleted))
        with pytest.raises(LifecycleError):
            apply_evidence(dead, Evidence(EvidencePolarity.Complementary, 0.5, "s"))

    def test_polarity_flip_keeps_link_lists_disjoint(self):
        d = make_datum("d", confidence=0.2)
        d = apply_evidence(d, Evidence(EvidencePolarity.Complementary, 0.3, "src"))
        d = apply_evidence(d, Evidence(EvidencePolarity.Refuting, 0.3, "src"))
        assert "src" in d.hyperdata.refuting
        assert "src" not in d.hyperdata.complementary


class TestAggregate:
    def _delay_event(self, datum_id, date="16-Oct-2002", flight="x"):
        return make_datum(datum_id, payload={"delayed": flight, "date": date})

    def test_counts_two_delays_same_date(self):
        a = self._delay_event("a", flight="ua90")
        b = self._delay_event("b", flight="dl12")
        agg = aggregate([a, b], "date")
        assert agg.kind is NotionKind.Aggregate
        assert agg.payload == {"16-Oct-2002": 2}

    def test_singleton(self):
        a = self._delay_event("a")
        agg = aggregate([a], "date")
        assert agg.payload == {"16-Oct-2002": 1}
        assert agg.key == a.key

    def test_split_counts(self):
        # Hand count: two events on d1, one on d2.
        a = self._delay_event("a", date="d1", flight="f1")
        b = self._delay_event("b", date="d1", flight="f2")
        c = self._delay_event("c", date="d2", flight="f3")
        agg = aggregate([a, b, c], "date")
        assert agg.payload == {"d1": 2, "d2": 1}

    def test_confidence_is_min(self):
        a = make_datum("a", payload={"date": "d"}, confidence=0.9)
        b = make_datum("b", payload={"date": "d"}, confidence=0.4)
        assert aggregate([a, b], "date").confidence == 0.4

    def test_empty_set_rejected(self):
        with pytest.raises(PreconditionError):
            aggregate([], "date")

    def test_covering_key(self):
        a = make_datum("a", key=make_key(t0=0, t1=100, box=(0, 0, 5, 5)))
        b = make_datum("b", key=make_key(t0=50, t1=400, box=(3, 3, 9, 9)))
        key = aggregate([a, b], "race").key
        assert (key.time.start, key.time.end) == (0, 400)
        assert (key.space.x0, key.space.y0, key.space.x1, key.space.y1) == (0, 0, 9, 9)


AF1_RULE = HypothesisRule(
    id="colocate",
    premise_patterns=(
        {"subject": "Air Force One", "event": "arrived", "city": "Paris"},
        {"person": "The US President", "aboard": "Air Force One"},
    ),
    conclusion_template={"person": "{1.person}", "status": "in", "city": "{0.city}"},
)


def af1_candidates(conf_arrival=0.9, conf_aboard=0.8):
    arrival = make_datum(
        "news-1", confidence=conf_arrival,
        payload={"subject": "Air Force One", "event": "arrived", "city": "Paris"},
        key=make_key(concept="news/world/travel"))
    aboard = make_datum(
        "news-2", confidence=conf_aboard, kind=NotionKind.Assumption,
        payload={"person": "The US President", "aboard": "Air Force One"},
        key=make_key(concept="news/world/politics"))
    return arrival, aboard


class TestInfer:
    def test_president_in_paris(self):
        hyp = infer(AF1_RULE, list(af1_candidates()))
        assert hyp is not None
        assert hyp.kind is NotionKind.Hypothesis
        assert hyp.payload == {"person": "The US President", "status": "in",
                               "city": "Paris"}
        assert set(hyp.hyperdata.complementary) == {"news-1", "news-2"}

    def test_empty_candidates(self):
        assert infer(AF1_RULE, []) is None

    def test_confidence_is_product(self):
        hyp = infer(AF1_RULE, list(af1_candidates(0.9, 0.8)))
        assert hyp.confidence == pytest.approx(0.72, abs=1e-12)

    def test_partial_match_is_no_hypothesis(self):
        arrival, _ = af1_candidates()
        assert infer(AF1_RULE, [arrival]) is None

    def test_gap_descriptors_for_partial_match(self):
        arrival, _ = af1_candidates()
        gaps = match_gaps(AF1_RULE, [arrival])
        assert gaps == ("aboard=Air Force One;person=The US President",)

    def test_no_gaps_without_any_match(self):
        stranger = make_datum("s", payload={"totally": "unrelated"})
        assert match_gaps(AF1_RULE, [stranger]) == ()

    def test_premises_must_be_distinct_data(self):
        both = make_datum("one", payload={
            "subject": "Air Force One", "event": "arrived", "city": "Paris",
            "person": "The US President", "aboard": "Air Force One"})
        assert infer(AF1_RULE, [both]) is None

    def test_premises_are_matched_in_ascending_id_order(self):
        _, aboard = af1_candidates()
        arrivals = [make_datum(datum_id, payload={
            "subject": "Air Force One", "event": "arrived", "city": "Paris", "gate": gate})
            for datum_id, gate in (("news-3", 3), ("news-0", 0))]
        hyp = infer(AF1_RULE, [aboard, *arrivals])
        assert hyp.hyperdata.complementary == ("news-0", "news-2")

    def test_leaves_no_garbage_for_the_cyclic_collector(self):
        candidates = list(af1_candidates())
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                assert infer(AF1_RULE, candidates) is not None
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestTierDecision:
    def test_fresh_high_confidence_is_hot(self):
        d = make_datum("d", confidence=0.9, observed_at=1000.0)
        assert tier_decision(d, now=1000.0) is StorageTier.Hot

    def test_confidently_false_deletes(self):
        d = make_datum("d", confidence=0.5)
        d = apply_evidence(d, Evidence(EvidencePolarity.Refuting, 1.0, "s"))
        assert tier_decision(d, now=d.hyperdata.updated_at) is StorageTier.Deleted

    def test_age_tiers(self):
        assert (kernel.HOT_AGE, kernel.WARM_AGE, kernel.COLD_AGE, kernel.HOT_CONFIDENCE,
                kernel.FALSE_TRUTH, kernel.FALSE_CONFIDENCE) == (
            3600.0, 14400.0, 86400.0, 0.25, -0.9, 0.9)
        d = make_datum("d", confidence=0.9, observed_at=0.0)
        assert tier_decision(d, now=5000.0) is StorageTier.Warm
        assert tier_decision(d, now=20000.0) is StorageTier.Cold
        assert tier_decision(d, now=90000.0) is StorageTier.Archived

    def test_low_confidence_is_never_hot(self):
        d = make_datum("d", confidence=0.1, observed_at=0.0)
        assert tier_decision(d, now=0.0) is StorageTier.Warm

    def test_pure(self):
        d = make_datum("d", confidence=0.8, observed_at=0.0)
        assert tier_decision(d, 100.0) is tier_decision(d, 100.0)

    @pytest.mark.parametrize("age, tier", [
        (kernel.HOT_AGE - 1.0, StorageTier.Hot), (kernel.HOT_AGE, StorageTier.Warm),
        (kernel.WARM_AGE - 1.0, StorageTier.Warm), (kernel.WARM_AGE, StorageTier.Cold),
        (kernel.COLD_AGE - 1.0, StorageTier.Cold), (kernel.COLD_AGE, StorageTier.Archived)])
    def test_each_age_bound_is_exclusive(self, age, tier):
        d = make_datum("d", confidence=0.9, observed_at=0.0)
        assert tier_decision(d, now=age) is tier

    @pytest.mark.parametrize("confidence, tier", [
        (kernel.HOT_CONFIDENCE, StorageTier.Hot),
        (math.nextafter(kernel.HOT_CONFIDENCE, 0.0), StorageTier.Warm)])
    def test_hot_needs_its_confidence(self, confidence, tier):
        d = make_datum("d", confidence=confidence, observed_at=0.0)
        assert tier_decision(d, now=0.0) is tier

    @pytest.mark.parametrize("truth, confidence, deleted", [
        (kernel.FALSE_TRUTH, kernel.FALSE_CONFIDENCE, True),
        (math.nextafter(kernel.FALSE_TRUTH, 0.0), kernel.FALSE_CONFIDENCE, False),
        (kernel.FALSE_TRUTH, math.nextafter(kernel.FALSE_CONFIDENCE, 0.0), False)])
    def test_confidently_false_bounds_are_inclusive(self, truth, confidence, deleted):
        d = make_datum("d", confidence=0.5, observed_at=0.0)
        d = replace(d, hyperdata=replace(d.hyperdata, truth=truth, confidence=confidence))
        assert (tier_decision(d, now=0.0) is StorageTier.Deleted) is deleted
