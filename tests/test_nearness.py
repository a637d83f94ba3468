"""Unit and oracle tests for the time/space/concept nearness index."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adatm import (
    INFINITE_RADIUS,
    ConceptPath,
    NearnessIndex,
    NearnessKey,
    PlanarBox,
    QuerySpec,
    TimeInterval,
    concept_distance,
)
from adatm.errors import (
    ConflictError,
    DomainError,
    NotFoundError,
    ValidationError,
)

from conftest import make_key


class TestConceptDistance:
    def test_identity(self):
        p = ConceptPath.parse("root/military/operations")
        assert concept_distance(p, p) == 0

    def test_siblings(self):
        a = ConceptPath.parse("root/military/operations")
        b = ConceptPath.parse("root/military/logistics")
        assert concept_distance(a, b) == 2

    def test_prefix_descendant(self):
        a = ConceptPath.parse("root/a")
        b = ConceptPath.parse("root/a/b/c")
        assert concept_distance(a, b) == 2

    def test_different_roots_rejected(self):
        with pytest.raises(DomainError):
            concept_distance(ConceptPath.parse("x/a"), ConceptPath.parse("y/a"))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValidationError):
            ConceptPath(("",))


class TestInsertRemove:
    def test_membership_roundtrip(self):
        index = NearnessIndex()
        index.insert("a", make_key())
        spec = QuerySpec.focused(time_window=TimeInterval(0, 10_000))
        assert index.query(spec) == ["a"]

    def test_duplicate_insert_conflicts(self):
        index = NearnessIndex()
        index.insert("a", make_key())
        with pytest.raises(ConflictError):
            index.insert("a", make_key())

    def test_remove_then_query_empty(self):
        index = NearnessIndex()
        index.insert("a", make_key())
        index.remove("a")
        assert index.query(QuerySpec.focused(time_window=TimeInterval(0, 10_000))) == []

    def test_remove_absent_not_found(self):
        with pytest.raises(NotFoundError):
            NearnessIndex().remove("ghost")

    def test_interleaved_ops_match_set_oracle(self):
        _check_interleaved_ops(NearnessIndex(cell_size=5.0), random.Random(11))


def _check_interleaved_ops(index, rng):
    """600 random inserts and removals; after each, the index holds exactly
    the live items and answers a random query as the linear scan does."""
    alive: dict[str, NearnessKey] = {}
    for step in range(600):
        if alive and rng.random() < 0.4:
            victim = rng.choice(sorted(alive))
            index.remove(victim)
            del alive[victim]
        else:
            item = f"i{step:04d}"
            t0 = rng.uniform(0, 5000)
            key = make_key(
                t0=t0, t1=rng.choice([t0, t0 + rng.uniform(0, 600),
                                      rng.uniform(5000, 9000)]),
                box=_random_box(rng),
                concept=rng.choice(["w/a", "w/a/b", "w/c"]))
            index.insert(item, key)
            alive[item] = key
        everything = QuerySpec.focused(time_window=TimeInterval(0, 1e9))
        assert index.query(everything) == sorted(alive)
        spec = _random_spec(rng)
        assert index.query(spec) == index.scan(spec)


def _random_box(rng):
    x0, y0 = rng.uniform(0, 90), rng.uniform(0, 90)
    return (x0, y0, x0 + rng.uniform(0, 10), y0 + rng.uniform(0, 10))


def _random_key(rng):
    t0 = rng.uniform(0, 9000)
    return make_key(
        t0=t0, t1=t0 + rng.uniform(0, 800),
        box=_random_box(rng),
        concept=rng.choice(["w", "w/a", "w/a/b", "w/a/c", "w/b", "w/b/d/e"]))


def _populated_index(rng, n, slab=0.0):
    index = NearnessIndex(cell_size=10.0, slab=slab)
    for i in range(n):
        index.insert(f"i{i:04d}", _random_key(rng))
    return index


def _random_spec(rng):
    if rng.random() < 0.5:
        return QuerySpec.neighborhood(
            _random_key(rng),
            time_radius=rng.choice([0.0, 50.0, 400.0, INFINITE_RADIUS]),
            space_radius=rng.choice([0.0, 5.0, 30.0, INFINITE_RADIUS]),
            concept_radius=rng.choice([0, 1, 2, INFINITE_RADIUS]))
    t0 = rng.uniform(0, 9000)
    return QuerySpec.focused(
        time_window=TimeInterval(t0, t0 + rng.uniform(0, 2000)),
        box=PlanarBox(*_random_box(rng)) if rng.random() < 0.7 else None,
        concept_prefix=ConceptPath.parse(
            rng.choice(["w", "w/a", "w/b"]))
        if rng.random() < 0.5 else None)


class TestQuery:
    def test_universal_neighborhood(self):
        rng = random.Random(5)
        index = _populated_index(rng, 1000)
        spec = QuerySpec.neighborhood(_random_key(rng), INFINITE_RADIUS,
                                      INFINITE_RADIUS, INFINITE_RADIUS)
        assert index.query(spec) == [f"i{i:04d}" for i in range(1000)]

    def test_all_covering_focused_query(self):
        rng = random.Random(6)
        index = _populated_index(rng, 1000)
        spec = QuerySpec.focused(time_window=TimeInterval(0.0, 1e9))
        assert index.query(spec) == index.scan(spec) == [f"i{i:04d}"
                                                         for i in range(1000)]

    def test_focused_half_open_time(self):
        index = NearnessIndex()
        index.insert("in", make_key(t0=30.0, t1=40.0))
        index.insert("out", make_key(t0=60.0, t1=70.0))
        spec = QuerySpec.focused(time_window=TimeInterval(0.0, 60.0))
        assert index.query(spec) == ["in"]

    def test_focused_concept_prefix(self):
        index = NearnessIndex()
        index.insert("ops", make_key(concept="root/military/operations"))
        index.insert("fuel", make_key(concept="root/fuel/stations"))
        spec = QuerySpec.focused(concept_prefix=ConceptPath.parse("root/military"))
        assert index.query(spec) == ["ops"]

    def test_focused_needs_a_constraint(self):
        with pytest.raises(ValidationError):
            QuerySpec.focused()

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            QuerySpec.neighborhood(make_key(), -1.0, 0.0, 0.0)

    def test_neighborhood_time_gap(self):
        index = NearnessIndex()
        index.insert("near", make_key(t0=110.0, t1=120.0))
        index.insert("far", make_key(t0=500.0, t1=600.0))
        center = make_key(t0=0.0, t1=100.0)
        spec = QuerySpec.neighborhood(center, time_radius=20.0,
                                      space_radius=INFINITE_RADIUS,
                                      concept_radius=0.0)
        assert index.query(spec) == ["near"]

    def test_neighborhood_cross_root_never_matches_finite_radius(self):
        index = NearnessIndex()
        index.insert("other", make_key(concept="elsewhere/topic"))
        spec = QuerySpec.neighborhood(make_key(), INFINITE_RADIUS,
                                      INFINITE_RADIUS, 100.0)
        assert index.query(spec) == []


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_workload_matches_linear_scan(self, seed):
        _check_random_workload(random.Random(seed), slab=0.0)

    @pytest.mark.parametrize("slab", [50.0, 400.0, 1000.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_workload_matches_linear_scan_slabbed(self, seed, slab):
        _check_random_workload(random.Random(seed), slab)

    @given(radii=st.tuples(
        st.floats(min_value=0, max_value=500, allow_nan=False),
        st.floats(min_value=0, max_value=50, allow_nan=False),
        st.integers(min_value=0, max_value=3)))
    def test_radius_monotonicity(self, radii):
        rng = random.Random(42)
        index = _populated_index(rng, 150)
        center = _random_key(random.Random(43))
        tr, sr, cr = radii
        small = set(index.query(QuerySpec.neighborhood(center, tr, sr, cr)))
        grown = set(index.query(QuerySpec.neighborhood(
            center, tr * 2 + 10, sr * 2 + 5, cr + 1)))
        assert small <= grown


def _check_random_workload(rng, slab):
    index = _populated_index(rng, 400, slab)
    for _ in range(60):
        spec = _random_spec(rng)
        assert index.query(spec) == index.scan(spec)


def _gap_reference(spec, key):
    """The neighborhood predicate as defined: time gap, Euclidean box gap
    and concept tree distance, each within its radius."""
    c = spec.center
    time_gap = max(key.time.start - c.time.end, c.time.start - key.time.end, 0.0)
    dx = max(key.space.x0 - c.space.x1, c.space.x0 - key.space.x1, 0.0)
    dy = max(key.space.y0 - c.space.y1, c.space.y0 - key.space.y1, 0.0)
    concept = concept_distance(c.concept, key.concept) \
        if c.concept.root == key.concept.root else math.inf
    return (time_gap <= spec.time_radius and math.hypot(dx, dy) <= spec.space_radius
            and concept <= spec.concept_radius)


# Quarter steps make touching, overlapping and sub-unit gaps common.
_coords = st.one_of(st.integers(-8, 8).map(lambda v: v / 4),
                    st.floats(-10, 10, allow_nan=False))
_lengths = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])


@st.composite
def _keys(draw):
    t0, y0, x0 = draw(_coords), draw(_coords), draw(_coords)
    return make_key(t0=t0, t1=t0 + draw(_lengths),
                    box=(x0, y0, x0 + draw(_lengths), y0 + draw(_lengths)),
                    concept=draw(st.sampled_from(["w", "w/a", "w/a/b", "w/b", "v/a"])))


class TestNeighborhoodPredicate:
    @settings(max_examples=500)
    @given(center=_keys(), key=_keys(),
           radii=st.tuples(st.sampled_from([0.0, 1.0, 2.5, INFINITE_RADIUS]),
                           st.sampled_from([0.0, 1.0, math.sqrt(2.0), INFINITE_RADIUS]),
                           st.sampled_from([0, 1, 2, INFINITE_RADIUS])))
    def test_matches_the_gap_definition(self, center, key, radii):
        spec = QuerySpec.neighborhood(center, *radii)
        assert spec.matches(key) == _gap_reference(spec, key)


class TestFocusedNeighborhoodConsistency:
    def test_zero_radius_neighborhood_subset_of_key_focused(self):
        rng = random.Random(9)
        index = _populated_index(rng, 300)
        center = _random_key(random.Random(10))
        focused = set(index.query(QuerySpec.focused(
            time_window=center.time, box=center.space,
            concept_prefix=center.concept)))
        zero = index.query(QuerySpec.neighborhood(center, 0.0, 0.0, 0.0))
        for item in zero:
            if index.key_of(item).concept == center.concept:
                # Zero gap with intersection-free touching is possible, so
                # restrict the claim to items that actually intersect.
                key = index.key_of(item)
                if key.time.intersects(center.time) and \
                        key.space.intersects(center.space):
                    assert item in focused

    def test_determinism_byte_stable(self):
        rng = random.Random(12)
        index = _populated_index(rng, 200)
        spec = QuerySpec.focused(time_window=TimeInterval(0, 1e9))
        first = index.query(spec)
        assert all(index.query(spec) == first for _ in range(3))
        assert first == sorted(first)


class TestGridInternals:
    def test_oversize_boxes_still_found(self):
        index = NearnessIndex(cell_size=1.0)
        index.insert("huge", make_key(box=(0.0, 0.0, 5000.0, 5000.0)))
        index.insert("tiny", make_key(box=(1.0, 1.0, 2.0, 2.0)))
        spec = QuerySpec.focused(box=PlanarBox(0.5, 0.5, 3.0, 3.0))
        assert index.query(spec) == ["huge", "tiny"]
        index.remove("huge")
        assert index.query(spec) == ["tiny"]

    def test_infinite_box_key(self):
        index = NearnessIndex()
        index.insert("inf", make_key(box=(-math.inf, -math.inf, math.inf, math.inf)))
        spec = QuerySpec.focused(box=PlanarBox(0, 0, 1, 1))
        assert index.query(spec) == ["inf"]


def _edge_specs(center_times, radii):
    """Around each time span, one neighborhood query per radius and one
    focused query, all around the box [0, 10) x [0, 10)."""
    specs = []
    for t0, t1 in center_times:
        center = make_key(t0=t0, t1=t1, box=(0.0, 0.0, 10.0, 10.0), concept="w/a")
        for r in radii:
            specs.append(QuerySpec.neighborhood(center, r, 5.0, 1))
        specs.append(QuerySpec.focused(time_window=TimeInterval(t0, t1),
                                       box=PlanarBox(0.0, 0.0, 10.0, 10.0)))
    return specs


#: Items in cell (0, 0) far later than any query below: with them, the
#: cell holds more items than ``_FILTER_ABOVE``, so queries filter it by slab.
_FAR = ("far0", "far1", "far2", "far3", "far4")


def _far_filled_index(slab=100.0):
    index = NearnessIndex(cell_size=10.0, slab=slab)
    for far in _FAR:
        index.insert(far, make_key(t0=5e6, t1=5e6, box=(1.0, 1.0, 2.0, 2.0),
                                   concept="w/a"))
    return index


#: Time spans on, just off and across the edges of 100 s slabs.
_EDGE_TIMES = [
    (0.0, 0.0), (100.0, 100.0), (-100.0, -100.0), (100.0, 200.0), (99.5, 100.0),
    (math.nextafter(100.0, 0.0), 100.0), (200.0, math.nextafter(200.0, 300.0)),
    (50.0, 250.0), (0.0, 300.0), (300.0, 300.0), (-50.0, 50.0),
]


class TestTimeSlabs:
    """A slabbed index answers every query exactly as the linear scan."""

    def test_interleaved_ops_match_set_oracle(self):
        # Coarse cells, so that most hold more than _FILTER_ABOVE items.
        _check_interleaved_ops(NearnessIndex(cell_size=20.0, slab=400.0),
                               random.Random(11))

    def test_keys_and_queries_on_slab_edges(self):
        index = _far_filled_index()
        for i, (t0, t1) in enumerate(_EDGE_TIMES):
            index.insert(f"e{i:02d}", make_key(t0=t0, t1=t1, box=(1.0, 1.0, 2.0, 2.0),
                                               concept="w/a"))
        specs = _edge_specs(_EDGE_TIMES, [0.0, 50.0, 100.0, 150.0,
                                          math.nextafter(100.0, 0.0), INFINITE_RADIUS])
        for spec in specs:
            assert index.query(spec) == index.scan(spec)

    def test_predicate_rounding_at_a_slab_edge(self):
        # 100 - (-1e-20) rounds to 100, so the item is within the radius,
        # though it ends before the range's lower edge, 100 - 100 = 0.
        index = _far_filled_index()
        index.insert("x", make_key(t0=-50.0, t1=-1e-20, box=(1.0, 1.0, 2.0, 2.0),
                                   concept="w/a"))
        center = make_key(t0=100.0, t1=100.0, box=(1.0, 1.0, 2.0, 2.0), concept="w/a")
        spec = QuerySpec.neighborhood(center, 100.0, 0.0, 0.0)
        assert index.query(spec) == index.scan(spec) == ["x"]

    @pytest.mark.parametrize("slab", [0.0, INFINITE_RADIUS])
    def test_zero_or_infinite_slab_files_every_item_long_lived(self, slab):
        rng = random.Random(3)
        index = _populated_index(rng, 300, slab)
        assert index._grid and not any(cell.slabs for cell in index._grid.values())
        for _ in range(40):
            spec = _random_spec(rng)
            assert index.query(spec) == index.scan(spec)

    def test_invalid_slab_rejected(self):
        for slab in (-1.0, math.nan):
            with pytest.raises(ValidationError):
                NearnessIndex(slab=slab)

    def test_infinite_time_keys(self):
        index = _far_filled_index()
        spans = [(-math.inf, math.inf), (0.0, math.inf), (-math.inf, 0.0),
                 (math.inf, math.inf), (150.0, 160.0)]
        for i, (t0, t1) in enumerate(spans):
            index.insert(f"inf{i}", make_key(t0=t0, t1=t1, box=(1.0, 1.0, 2.0, 2.0),
                                             concept="w/a"))
        specs = _edge_specs(spans + _EDGE_TIMES, [0.0, 100.0, INFINITE_RADIUS])
        specs.append(QuerySpec.focused(time_window=TimeInterval(-math.inf, 0.0),
                                       box=PlanarBox(0.0, 0.0, 5.0, 5.0)))
        for spec in specs:
            assert index.query(spec) == index.scan(spec)

    def test_long_lived_items_are_found_from_every_slab(self):
        index = _far_filled_index()
        index.insert("long", make_key(t0=50.0, t1=350.0, box=(1.0, 1.0, 2.0, 2.0)))
        index.insert("two", make_key(t0=150.0, t1=250.0, box=(1.0, 1.0, 2.0, 2.0)))
        assert index._grid[(0, 0)].long_lived == {"long"}
        assert index._grid[(0, 0)].slabs == {1: {"two"}, 2: {"two"}, 50_000: set(_FAR)}
        for t in (0.0, 60.0, 199.0, 340.0, 400.0, 1000.0):
            spec = QuerySpec.focused(time_window=TimeInterval(t, t + 1.0),
                                     box=PlanarBox(0.0, 0.0, 5.0, 5.0))
            assert index.query(spec) == index.scan(spec)
            assert "long" in index._candidates(spec)

    def test_key_grown_by_cover_is_reinserted(self):
        # The runtime re-registers a datum whose key grew in a merge.
        index = _far_filled_index()
        first = make_key(t0=100.0, t1=150.0, box=(1.0, 1.0, 2.0, 2.0), concept="w/a")
        second = make_key(t0=1000.0, t1=1050.0, box=(12.0, 1.0, 13.0, 2.0),
                          concept="w/a")
        index.insert("a", first)
        index.insert("b", second)
        index.remove("b")
        index.remove("a")
        index.insert("a", first.cover(second))
        assert index._grid[(0, 0)].long_lived == index._grid[(1, 0)].long_lived == {"a"}
        assert index._grid[(0, 0)].slabs == {50_000: set(_FAR)}
        assert not index._grid[(1, 0)].slabs
        specs = _edge_specs([(0.0, 0.0), (120.0, 130.0), (600.0, 600.0),
                             (1040.0, 1040.0), (2000.0, 2000.0)], [0.0, 100.0])
        for spec in specs:
            assert index.query(spec) == index.scan(spec)
        # Three specs per center: radius 0, radius 100, focused.
        assert index.query(specs[6]) == ["a"]
        assert index.query(specs[12]) == []
        index.remove("a")
        for far in _FAR:
            index.remove(far)
        assert not index._grid and len(index) == 0

    def test_narrow_time_window_prunes(self):
        # Keys span at most 800 s, so none is long-lived with 1000 s slabs.
        rng = random.Random(8)
        index = _populated_index(rng, 400, slab=1000.0)
        spec = QuerySpec.focused(time_window=TimeInterval(4000.0, 4010.0),
                                 box=PlanarBox(0.0, 0.0, 100.0, 100.0))
        assert len(index._candidates(spec)) < len(index) // 2
        assert index.query(spec) == index.scan(spec)
        center = make_key(t0=4000.0, t1=4010.0, box=(40.0, 40.0, 41.0, 41.0))
        spec = QuerySpec.neighborhood(center, 100.0, INFINITE_RADIUS, INFINITE_RADIUS)
        assert len(index._candidates(spec)) == len(index)
        spec = QuerySpec.neighborhood(center, 100.0, 50.0, INFINITE_RADIUS)
        assert len(index._candidates(spec)) < len(index) // 2
        assert index.query(spec) == index.scan(spec)

    def test_small_cell_is_taken_whole(self):
        index = NearnessIndex(cell_size=10.0, slab=100.0)
        for i, t in enumerate((0.0, 1000.0, 2000.0, 3000.0)):
            index.insert(f"s{i}", make_key(t0=t, t1=t, box=(1.0, 1.0, 2.0, 2.0)))
        spec = QuerySpec.focused(time_window=TimeInterval(0.0, 1.0),
                                 box=PlanarBox(1.0, 1.0, 2.0, 2.0))
        assert index._candidates(spec) == {"s0", "s1", "s2", "s3"}
        index.insert("s4", make_key(t0=4000.0, t1=4000.0, box=(1.0, 1.0, 2.0, 2.0)))
        assert index._candidates(spec) == {"s0"}
        assert index.query(spec) == index.scan(spec) == ["s0"]
        index.remove("s4")
        assert index._candidates(spec) == {"s0", "s1", "s2", "s3"}

    def test_box_without_time_window_still_prunes_by_space(self):
        rng = random.Random(9)
        index = _populated_index(rng, 400, slab=100.0)
        spec = QuerySpec.focused(box=PlanarBox(0.0, 0.0, 5.0, 5.0))
        assert len(index._candidates(spec)) < len(index) // 10
        assert index.query(spec) == index.scan(spec)

    @given(times=st.lists(st.tuples(
        st.sampled_from([-200.0, -100.0, 0.0, 99.0, 100.0, 150.0, 200.0, 300.0,
                         math.nextafter(100.0, 0.0), 1e6]),
        st.sampled_from([0.0, 1.0, 50.0, 100.0, 200.0, 250.0])), min_size=1, max_size=12),
        radius=st.sampled_from([0.0, 1.0, 50.0, 100.0, 101.0, 250.0]),
        slab=st.sampled_from([1.0, 50.0, 100.0, 300.0]))
    def test_edge_keys_match_scan(self, times, radius, slab):
        index = _far_filled_index(slab)
        for i, (t0, length) in enumerate(times):
            index.insert(f"k{i:02d}", make_key(t0=t0, t1=t0 + length,
                                               box=(1.0, 1.0, 2.0, 2.0), concept="w/a"))
        spans = [(t0, t0 + length) for t0, length in times]
        for spec in _edge_specs(spans, [radius]):
            assert index.query(spec) == index.scan(spec)
