"""Unit and oracle tests for the time/space/concept nearness index."""

import math
import random

import pytest
from hypothesis import example, given, settings
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

    def test_failed_insert_leaves_the_index_unchanged(self, monkeypatch):
        index = NearnessIndex(cell_size=1.0)
        key = make_key(box=(0.0, 0.0, 2.0, 2.0))
        index.insert("a", key)

        def failing(x):
            raise ArithmeticError("cannot place")

        monkeypatch.setattr(index, "_cell", failing)
        with pytest.raises(ArithmeticError):
            index.insert("b", make_key(box=(1.0, 1.0, 3.0, 3.0)))
        assert "b" not in index and len(index) == 1
        assert index._grid == {(0, 0): {"a": key}} and index._filed == {"a": (0, 0)}
        assert not index._oversize
        assert (index._wide, index._tall) == (2, 2)
        monkeypatch.undo()
        index.insert("b", make_key(box=(1.0, 1.0, 3.0, 3.0)))
        assert index.query(QuerySpec.focused(box=PlanarBox(2.5, 2.5, 2.6, 2.6))) == ["b"]


class TestNaNBounds:
    @pytest.mark.parametrize("bounds", [(math.nan, 1.0), (0.0, math.nan),
                                        (math.nan, math.nan)])
    def test_time_interval_rejects_nan(self, bounds):
        with pytest.raises(ValidationError):
            TimeInterval(*bounds)

    @pytest.mark.parametrize("corner", range(4))
    def test_box_rejects_a_nan_corner(self, corner):
        corners = [0.0, 0.0, 1.0, 1.0]
        corners[corner] = math.nan
        with pytest.raises(ValidationError):
            PlanarBox(*corners)

    @pytest.mark.parametrize("cell_size", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_index_rejects_a_cell_size_not_positive_and_finite(self, cell_size):
        # A NaN or infinite cell would file every item as oversize and make
        # every query a linear scan.
        with pytest.raises(ValidationError) as err:
            NearnessIndex(cell_size=cell_size)
        assert err.value.path == "cell_size"


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
    """n random items; with ``slab``, their times lie on multiples of it."""
    index = NearnessIndex(cell_size=10.0)
    for i in range(n):
        index.insert(f"i{i:04d}", _slabbed(_random_key(rng), slab))
    return index


def _slabbed(key, slab):
    """The key with its time bounds moved down to multiples of ``slab``
    (unchanged for 0), so that spans meet and touch on shared edges."""
    t = key.time
    return NearnessKey(_slabbed_time(t.start, t.end, slab), key.space, key.concept)


def _slabbed_time(t0, t1, slab):
    if not slab:
        return TimeInterval(t0, t1)
    return TimeInterval(t0 // slab * slab, t1 // slab * slab)


def _random_spec(rng, slab=0.0):
    """A random query; with ``slab``, its times lie on multiples of it."""
    if rng.random() < 0.5:
        return QuerySpec.neighborhood(
            _slabbed(_random_key(rng), slab),
            time_radius=rng.choice([0.0, 50.0, 400.0, INFINITE_RADIUS]),
            space_radius=rng.choice([0.0, 5.0, 30.0, INFINITE_RADIUS]),
            concept_radius=rng.choice([0, 1, 2, INFINITE_RADIUS]))
    t0 = rng.uniform(0, 9000)
    return QuerySpec.focused(
        time_window=_slabbed_time(t0, t0 + rng.uniform(0, 2000), slab),
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
        # Item and query times on multiples of ``slab``: many spans meet
        # exactly at their ends.
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
        spec = _random_spec(rng, slab)
        assert index.query(spec) == index.scan(spec)


def _naive_neighborhood(center, time_radius, space_radius, concept_radius, key):
    """The neighborhood predicate written from its definitions alone."""
    ct, kt = center.time, key.time
    time_gap = max(kt.start - ct.end, ct.start - kt.end, 0)
    cs, ks = center.space, key.space
    dx = max(ks.x0 - cs.x1, cs.x0 - ks.x1, 0)
    dy = max(ks.y0 - cs.y1, cs.y0 - ks.y1, 0)
    a, b = center.concept.segments, key.concept.segments
    if a[0] != b[0]:
        tree = math.inf
    else:
        shared = 0
        while shared < min(len(a), len(b)) and a[shared] == b[shared]:
            shared += 1
        tree = len(a) - shared + len(b) - shared
    return (time_gap <= time_radius and math.hypot(dx, dy) <= space_radius
            and tree <= concept_radius)


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


#: Box gaps whose Euclidean length is exactly a radius: radius -> (dx, dy).
_DIAGONAL = {2.5: (1.5, 2.0), 5.0: (3.0, 4.0)}
_RADII = [0.0, 1.0, 2.5, 5.0, INFINITE_RADIUS]


def _place(draw, lo, hi, gap, length):
    """A span of the given length at ``gap`` after [lo, hi], at ``gap``
    before it, or overlapping it; sometimes nudged a quarter in or out."""
    side = draw(st.sampled_from(["after", "before", "over"]))
    if side == "after":
        start = hi + gap
    elif side == "before":
        start = lo - gap - length
    else:
        start = lo
    return start + draw(st.sampled_from([0.0, 0.0, 0.25, -0.25]))


@st.composite
def _neighborhood_cases(draw):
    """(center, radii, key) with the key's time and box gaps on, just
    inside or just outside the radius, point keys, shared edges (gap 0)
    and concepts under another root."""
    center = draw(_keys())
    tr, sr = draw(st.sampled_from(_RADII)), draw(st.sampled_from(_RADII))
    cr = draw(st.sampled_from([0, 1, 2, INFINITE_RADIUS]))
    finite = st.sampled_from([0.0, 0.5, 2.0, 7.25])
    t_gap = tr if math.isfinite(tr) else draw(finite)
    t_gap = draw(st.sampled_from([0.0, t_gap]))
    length = draw(_lengths)
    t0 = _place(draw, center.time.start, center.time.end, t_gap, length)
    if math.isfinite(sr):
        gaps = [(0.0, 0.0), (sr, 0.0), (0.0, sr)] + \
            ([_DIAGONAL[sr]] if sr in _DIAGONAL else [])
    else:
        gaps = [(0.0, 0.0), (draw(finite), draw(finite))]
    dx, dy = draw(st.sampled_from(gaps))
    cs = center.space
    w, h = draw(_lengths), draw(_lengths)
    x0 = _place(draw, cs.x0, cs.x1, dx, w)
    y0 = _place(draw, cs.y0, cs.y1, dy, h)
    concept = draw(st.sampled_from(["w", "w/a", "w/a/b", "w/b", "w/b/c", "v/a", "v"]))
    key = make_key(t0=t0, t1=t0 + length, box=(x0, y0, x0 + w, y0 + h), concept=concept)
    return center, (tr, sr, cr), key


#: (center, radii, key) drawn independently.
_random_cases = st.tuples(
    _keys(),
    st.tuples(st.sampled_from([0.0, 1.0, 2.5, INFINITE_RADIUS]),
              st.sampled_from([0.0, 1.0, math.sqrt(2.0), INFINITE_RADIUS]),
              st.sampled_from([0, 1, 2, INFINITE_RADIUS])),
    _keys())


class TestNeighborhoodPredicate:
    @settings(max_examples=1100)
    @given(case=st.one_of(_random_cases, _neighborhood_cases()))
    def test_matches_the_gap_definition(self, case):
        center, radii, key = case
        spec = QuerySpec.neighborhood(center, *radii)
        assert spec.matches(key) == _naive_neighborhood(center, *radii, key)

    @given(case=_neighborhood_cases())
    def test_equal_specs_compare_and_hash_equal(self, case):
        center, radii, _ = case
        spec = QuerySpec.neighborhood(center, *radii)
        rebuilt = NearnessKey(TimeInterval(center.time.start, center.time.end),
                              PlanarBox(center.space.x0, center.space.y0,
                                        center.space.x1, center.space.y1),
                              ConceptPath(tuple(center.concept.segments)))
        twin = QuerySpec.neighborhood(rebuilt, *radii)
        assert twin == spec and hash(twin) == hash(spec) and repr(twin) == repr(spec)
        assert "_near" not in repr(spec)
        other = 1.0 if math.isinf(radii[0]) else radii[0] + 1.0
        assert QuerySpec.neighborhood(center, other, *radii[1:]) != spec


#: Span ends: signed zeros and quarter steps, so that spans touch, overlap,
#: and meet at a point, plus any float in range.
_ENDS = st.sampled_from([0.0, -0.0, 0.25, -0.25, 1.0, 2.0]) | \
    st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def _focused_spans(draw):
    """An ordered span, often a point, and with both orders of 0.0 and -0.0."""
    lo = draw(_ENDS)
    hi = draw(st.just(lo) | st.just(-lo) | _ENDS)
    return (lo, hi) if lo <= hi else (hi, lo)


@st.composite
def _focused_cases(draw):
    """(time window, box, concept prefix, key); each constraint is present
    or absent, and the prefixes run deeper than the key's concept and
    under another root."""
    optional = st.none() | _focused_spans()
    window = draw(st.none() | _focused_spans().map(lambda t: TimeInterval(*t)))
    xs, ys = draw(optional), draw(optional)
    box = None if xs is None or ys is None else PlanarBox(xs[0], ys[0], xs[1], ys[1])
    prefix = draw(st.none() | st.sampled_from(
        ["w", "w/a", "w/a/b", "w/a/b/c", "w/b", "v", "v/a"]).map(ConceptPath.parse))
    (t0, t1), (kx0, kx1), (ky0, ky1) = (draw(_focused_spans()) for _ in range(3))
    key = make_key(t0=t0, t1=t1, box=(kx0, ky0, kx1, ky1),
                   concept=draw(st.sampled_from(["w", "w/a", "w/a/b", "v/a"])))
    return window, box, prefix, key


class TestFocusedPredicate:
    @settings(max_examples=1000)
    @given(case=_focused_cases())
    @example(case=(TimeInterval(0.0, -0.0), PlanarBox(-0.0, 0.0, 0.0, 0.0),
                   ConceptPath.parse("w/a/b/c"),
                   make_key(t0=-0.0, t1=0.0, box=(0.0, -0.0, 0.0, 0.0), concept="w/a")))
    def test_matches_the_conjunction_of_the_value_tests(self, case):
        window, box, prefix, key = case
        if window is None and box is None and prefix is None:
            return  # a focused query needs a constraint
        spec = QuerySpec.focused(time_window=window, box=box, concept_prefix=prefix)
        expected = (window is None or window.intersects(key.time)) and \
            (box is None or box.intersects(key.space)) and \
            (prefix is None or prefix.is_prefix_of(key.concept))
        assert spec.matches(key) == expected


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

    def test_corner_beyond_the_float_range_in_cell_units(self):
        # 1e300 / 1e-300 overflows to infinity: the box is unbounded to the grid.
        index = NearnessIndex(cell_size=1e-300)
        far = make_key(box=(0.0, 0.0, 1e300, 1e-300))
        index.insert("far", far)
        index.insert("near", make_key(box=(0.0, 0.0, 1e-300, 1e-300)))
        assert index._oversize == {"far": far}
        spec = QuerySpec.focused(box=PlanarBox(0.0, 0.0, 5e-300, 5e-300))
        assert index.query(spec) == index.scan(spec) == ["far", "near"]
        index.remove("far")
        index.remove("near")
        assert len(index) == 0 and not index._oversize and not index._grid


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


#: Items in cell (0, 0) far later than any query below: each query takes
#: them as candidates, and the time test alone rejects them.
_FAR = ("far0", "far1", "far2", "far3", "far4")


def _far_filled_index():
    index = NearnessIndex(cell_size=10.0)
    for far in _FAR:
        index.insert(far, make_key(t0=5e6, t1=5e6, box=(1.0, 1.0, 2.0, 2.0),
                                   concept="w/a"))
    return index


def _candidate_ids(index, spec):
    return set().union(*index._candidates(spec))


#: Time spans on, just off and across the edges of 100 s slabs of time.
_EDGE_TIMES = [
    (0.0, 0.0), (100.0, 100.0), (-100.0, -100.0), (100.0, 200.0), (99.5, 100.0),
    (math.nextafter(100.0, 0.0), 100.0), (200.0, math.nextafter(200.0, 300.0)),
    (50.0, 250.0), (0.0, 300.0), (300.0, 300.0), (-50.0, 50.0),
]


class TestTimeSlabs:
    """Keys and queries on and across the edges of 100 s slabs of time:
    the grid prunes by space only, and answers each as the linear scan."""

    def test_interleaved_ops_match_set_oracle(self):
        # Coarse cells, so that most hold many items.
        _check_interleaved_ops(NearnessIndex(cell_size=20.0), random.Random(11))

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
        grown = first.cover(second)
        index.insert("a", grown)
        assert index._grid == {(0, 0): {"a": grown, **{f: index.key_of(f) for f in _FAR}}}
        assert index._wide == 1
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
        assert not index._grid and not index._filed and len(index) == 0

    def test_box_without_time_window_still_prunes_by_space(self):
        rng = random.Random(9)
        index = _populated_index(rng, 400)
        spec = QuerySpec.focused(box=PlanarBox(0.0, 0.0, 5.0, 5.0))
        assert len(_candidate_ids(index, spec)) < len(index) // 10
        assert index.query(spec) == index.scan(spec)

    @given(times=st.lists(st.tuples(
        st.sampled_from([-200.0, -100.0, 0.0, 99.0, 100.0, 150.0, 200.0, 300.0,
                         math.nextafter(100.0, 0.0), 1e6]),
        st.sampled_from([0.0, 1.0, 50.0, 100.0, 200.0, 250.0])), min_size=1, max_size=12),
        radius=st.sampled_from([0.0, 1.0, 50.0, 100.0, 101.0, 250.0]))
    def test_edge_keys_match_scan(self, times, radius):
        index = _far_filled_index()
        for i, (t0, length) in enumerate(times):
            index.insert(f"k{i:02d}", make_key(t0=t0, t1=t0 + length,
                                               box=(1.0, 1.0, 2.0, 2.0), concept="w/a"))
        spans = [(t0, t0 + length) for t0, length in times]
        for spec in _edge_specs(spans, [radius]):
            assert index.query(spec) == index.scan(spec)


class TestLooseGrid:
    """Each item is filed in the cell of its box's low corner, and a query
    widens its cells on the low side by the widest and tallest filed box."""

    def test_storm_sized_box_is_filed_in_one_cell_and_found_from_each(self):
        # 40 x 20 over 10-unit cells, as a storm report: it covers 5 x 3 cells.
        index = NearnessIndex(cell_size=10.0)
        x0, y0, x1, y1 = 0.3, 0.4, 40.2, 20.3
        key = make_key(t0=600.0, t1=3000.0, box=(x0, y0, x1, y1), concept="w/a")
        index.insert("storm", key)
        assert index._grid == {(0, 0): {"storm": key}}
        assert index._filed == {"storm": (0, 0)}
        assert (index._wide, index._tall) == (4, 2)
        covered = [(i, j) for i in range(5) for j in range(3)]
        for i, j in covered:
            px = (max(10.0 * i, x0) + min(10.0 * (i + 1), x1)) / 2
            py = (max(10.0 * j, y0) + min(10.0 * (j + 1), y1)) / 2
            point = make_key(t0=1000.0, t1=1000.0, box=(px, py, px, py), concept="w/a")
            assert index.query(QuerySpec.neighborhood(point, 0.0, 0.0, 0)) == ["storm"]
            assert index.query(QuerySpec.focused(
                box=PlanarBox(px, py, px, py))) == ["storm"]
        index.remove("storm")
        assert not index._grid and len(index) == 0

    def test_removing_the_widest_item_keeps_later_queries_whole(self):
        index = NearnessIndex(cell_size=1.0)
        index.insert("wide", make_key(box=(0.5, 0.5, 8.5, 1.5)))
        index.insert("mid", make_key(box=(0.5, 3.5, 4.5, 4.5)))
        index.remove("wide")
        # The extents only grow: the index still widens queries by 8 cells.
        assert index._wide == 8
        index.insert("late", make_key(box=(2.5, 6.5, 10.5, 7.5)))
        for x in (0.5, 3.0, 4.5, 9.0, 10.5):
            for y in (1.0, 4.0, 7.0):
                point = make_key(box=(x, y, x, y))
                for spec in (QuerySpec.neighborhood(point, 0.0, 0.0, 0),
                             QuerySpec.neighborhood(point, 0.0, 1.5, 0),
                             QuerySpec.focused(box=PlanarBox(x, y, x, y))):
                    assert index.query(spec) == index.scan(spec)
        far = make_key(box=(10.0, 7.0, 10.0, 7.0))
        assert index.query(QuerySpec.focused(box=PlanarBox(10.0, 7.0, 10.0, 7.0))) \
            == ["late"]
        assert index.query(QuerySpec.neighborhood(far, 0.0, 7.0, 0)) == ["late", "mid"]

    def test_peer_exactly_at_the_radius_across_a_rounded_cell_edge(self):
        # 0.2 + 0.7 rounds to 0.8999999999999999, below the edge of cell 9
        # at 0.9, where the item starts; the predicate's own 0.9 - 0.2
        # rounds to 0.7, so the item is a match.
        index = NearnessIndex(cell_size=0.1)
        index.insert("c", make_key(box=(0.0, 0.0, 0.2, 1.0)))
        index.insert("i", make_key(box=(0.9, 0.0, 1.9, 1.0)))
        spec = QuerySpec.neighborhood(make_key(box=(0.0, 0.0, 0.2, 1.0)), 0.0, 0.7, 0)
        assert index.query(spec) == index.scan(spec) == ["c", "i"]

    def test_a_bound_on_a_cell_edge_adds_no_cell(self):
        # A trajectory segment's key is its grid cell and the peer radius is
        # one cell: the query's reach ends exactly on cell edges.
        index = NearnessIndex(cell_size=10.0)
        index.insert("seg", make_key(box=(20.0, 20.0, 30.0, 30.0)))
        spec = QuerySpec.neighborhood(make_key(box=(20.0, 20.0, 30.0, 30.0)),
                                      0.0, 10.0, 0)
        assert index._axis(20.0, 30.0, 10.0, index._wide) == (0, 4)
        assert index.query(spec) == ["seg"]
        # The reach past 40 is one ulp short of the edge of cell 5.
        short = math.nextafter(10.0, 0.0)
        assert index._axis(20.0, 30.0, short, 0) == (1, 3)


#: Cell sizes whose multiples are and are not exact in binary.
_CELL_SIZES = [0.1, 1.0, 3.0, 10.0]


@st.composite
def _loose_grid_cases(draw):
    """A cell size, items with narrow and wide boxes whose corners lie on,
    next to or between cell edges, and queries whose radius reaches from
    one side of the center's box exactly to, just inside or just outside a
    cell edge, with an item on that edge."""
    cell = draw(st.sampled_from(_CELL_SIZES))
    spans = st.sampled_from([0.0, 0.3, 1.0, 2.0, 4.5])

    def coord():
        edge = draw(st.integers(-6, 6)) * cell
        return draw(st.sampled_from([edge, math.nextafter(edge, math.inf),
                                     math.nextafter(edge, -math.inf),
                                     edge + 0.3 * cell]))

    def box():
        x0, y0 = coord(), coord()
        return [x0, y0, x0 + draw(spans) * cell, y0 + draw(spans) * cell]

    items = [box() for _ in range(draw(st.integers(0, 6)))]
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        center = box()
        # Reach from side 0-3 (x0, y0, x1, y1) of the center to a cell edge
        # past it; the item there meets the center along the other axis.
        side = draw(st.integers(0, 3))
        axis, high = side % 2, side >= 2
        edge = (math.floor(center[side] / cell) + draw(st.sampled_from(range(-1, 13)))
                * (1 if high else -1)) * cell
        reach = abs(edge - center[side])
        radius = draw(st.sampled_from([
            reach, reach, math.nextafter(reach, math.inf), math.nextafter(reach, 0.0),
            draw(st.integers(0, 8)) * cell]))
        item = box()
        item[axis], item[axis + 2] = (edge, edge + draw(spans) * cell) if high \
            else (edge - draw(spans) * cell, edge)
        item[1 - axis], item[3 - axis] = center[1 - axis], center[3 - axis]
        items.append(item)
        queries.append((center, radius))
    return cell, items, queries


class TestLooseGridMatchesScan:
    @settings(max_examples=500)
    @given(case=_loose_grid_cases())
    # Reaches that the float sum of a side and the radius rounds short of
    # the edge where an item starts: 0.2 + 0.7 and -10.000000000000002 + 20.
    @example(case=(0.1, [[0.9, 0.0, 1.9, 1.0]], [([0.0, 0.0, 0.2, 1.0], 0.7)]))
    @example(case=(10.0, [[10.0, 0.0, 15.0, 5.0]],
                   [([-15.0, 0.0, -10.000000000000002, 5.0], 20.0)]))
    def test_index_equals_scan_at_cell_edges(self, case):
        cell, boxes, queries = case
        index = NearnessIndex(cell_size=cell)
        for n, box in enumerate(boxes):
            index.insert(f"i{n}", make_key(box=tuple(box)))
        # Removing an item, the widest perhaps, must not narrow any query.
        index.insert("wide", make_key(box=(-50.0 * cell, 0.0, 50.0 * cell, cell)))
        index.remove("wide")
        for center, radius in queries:
            key = make_key(box=tuple(center))
            for spec in (QuerySpec.neighborhood(key, 0.0, radius, 0),
                         QuerySpec.focused(box=key.space)):
                assert index.query(spec) == index.scan(spec)


#: Corners on and between unit cell edges, and extents that make narrow,
#: wide (many cells), oversize (over 1024 cells) and unbounded boxes.
_CORNERS = st.integers(-20, 20).map(float) | st.floats(-20.0, 20.0)
_EXTENTS = st.sampled_from([0.0, 0.5, 1.0, 3.0, 12.0, 40.0, math.inf])
_BOXES = st.builds(lambda x, y, w, h: (x, y, x + w, y + h),
                   _CORNERS, _CORNERS, _EXTENTS, _EXTENTS)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), _BOXES),
    st.tuples(st.just("remove"), st.integers(0, 30)),
    st.tuples(st.just("query"), _BOXES,
              st.sampled_from([0.0, 1.0, 2.5, 10.0, INFINITE_RADIUS]), st.booleans())),
    max_size=40)


def _spy_on_matches(patch):
    """The keys that ``QuerySpec.matches`` is called on, while ``patch``
    is in force."""
    calls = []
    matches = QuerySpec.matches

    def spy(spec, key):
        calls.append(key)
        return matches(spec, key)

    patch.setattr(QuerySpec, "matches", spy)
    return calls


class TestDisjointCandidates:
    """``query`` runs the predicate once per candidate and builds no union
    of the candidate collections, so no id may be in two of them."""

    @settings(max_examples=200)
    @given(ops=_OPS)
    def test_one_match_call_per_distinct_candidate(self, ops):
        index = NearnessIndex(cell_size=1.0)
        alive: list[str] = []
        with pytest.MonkeyPatch.context() as patch:
            calls = _spy_on_matches(patch)
            for n, op in enumerate(ops):
                if op[0] == "insert":
                    alive.append(f"i{n:02d}")
                    index.insert(alive[-1], make_key(box=op[1]))
                elif op[0] == "remove":
                    if alive:
                        index.remove(alive.pop(op[1] % len(alive)))
                else:
                    _, box, radius, focused = op
                    spec = QuerySpec.focused(box=PlanarBox(*box)) if focused else \
                        QuerySpec.neighborhood(make_key(box=box), 0.0, radius, 0)
                    calls.clear()
                    hits = index.query(spec)
                    assert len(calls) == len(_candidate_ids(index, spec))
                    assert len(set(hits)) == len(hits)
                    assert hits == index.scan(spec)


class TestCellsHoldKeys:
    """Each cell and the oversize map hold their items' keys, which
    ``query`` reads instead of looking each id up."""

    @settings(max_examples=200)
    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("insert"), _BOXES),
        st.tuples(st.just("remove"), st.integers(0, 30)),
        st.tuples(st.just("grow"), st.integers(0, 30), _BOXES),
        st.tuples(st.just("query"), _BOXES,
                  st.sampled_from([0.0, 1.0, 2.5, 10.0, INFINITE_RADIUS]), st.booleans())),
        max_size=40))
    def test_every_candidate_map_sends_each_id_to_its_key(self, ops):
        index = NearnessIndex(cell_size=1.0)
        alive: list[str] = []
        for n, op in enumerate(ops):
            if op[0] == "insert":
                alive.append(f"i{n:02d}")
                index.insert(alive[-1], make_key(box=op[1]))
            elif op[0] == "remove":
                if alive:
                    index.remove(alive.pop(op[1] % len(alive)))
            elif op[0] == "grow":
                # As a fusion re-registers its survivor under the grown key.
                if alive:
                    survivor = alive[op[1] % len(alive)]
                    grown = index.key_of(survivor).cover(make_key(box=op[2]))
                    index.remove(survivor)
                    index.insert(survivor, grown)
            else:
                _, box, radius, focused = op
                spec = QuerySpec.focused(box=PlanarBox(*box)) if focused else \
                    QuerySpec.neighborhood(make_key(box=box), 0.0, radius, 0)
                for ids in index._candidates(spec):
                    for item_id, key in ids.items():
                        assert key is index.key_of(item_id)
                assert index.query(spec) == index.scan(spec)
        whole = QuerySpec.focused(time_window=TimeInterval(-math.inf, math.inf))
        seen = [i for ids in index._candidates(whole) for i in ids]
        assert sorted(seen) == sorted(alive)


#: Time spans of keys and query centers: long, later, and a point.
_SPANS = st.sampled_from([(0.0, 3600.0), (5000.0, 6000.0), (100.0, 100.0)])


class TestReachMemo:
    """``query`` keeps each reach's candidates until the next write: a
    query asked again answers from the memo with one predicate call per
    candidate, as the first did, and every write clears the memo."""

    def _ask_twice(self, index, spec, calls):
        first = None
        for _ in range(2):
            calls.clear()
            hits = index.query(spec)
            assert len(calls) == len(_candidate_ids(index, spec))
            assert hits == index.scan(spec)
            if first is None:
                first = hits
                assert index._memo
                # The runtime deletes the datum's own id from its answer.
                first.append("mutated")
            else:
                assert "mutated" not in hits and hits is not first

    @settings(max_examples=200)
    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("insert"), _BOXES, _SPANS),
        st.tuples(st.just("remove"), st.integers(0, 30)),
        st.tuples(st.just("grow"), st.integers(0, 30), _BOXES, _SPANS),
        st.tuples(st.just("query"), _BOXES, _SPANS, st.sampled_from([0.0, 500.0]),
                  st.sampled_from([0.0, 1.0, 2.5, 10.0, INFINITE_RADIUS]), st.booleans())),
        max_size=40))
    def test_a_repeated_query_answers_as_the_scan(self, ops):
        index = NearnessIndex(cell_size=1.0)
        alive: list[str] = []
        with pytest.MonkeyPatch.context() as patch:
            calls = _spy_on_matches(patch)
            for n, op in enumerate(ops):
                if op[0] == "query":
                    _, box, span, time_radius, radius, focused = op
                    spec = QuerySpec.focused(box=PlanarBox(*box)) if focused else \
                        QuerySpec.neighborhood(make_key(*span, box=box), time_radius,
                                               radius, 0)
                    self._ask_twice(index, spec, calls)
                    continue
                if op[0] == "insert":
                    alive.append(f"i{n:02d}")
                    index.insert(alive[-1], make_key(*op[2], box=op[1]))
                elif not alive:
                    continue
                elif op[0] == "remove":
                    index.remove(alive.pop(op[1] % len(alive)))
                else:
                    # As a fusion re-registers its survivor under the grown key.
                    survivor = alive[op[1] % len(alive)]
                    grown = index.key_of(survivor).cover(make_key(*op[3], box=op[2]))
                    index.remove(survivor)
                    index.insert(survivor, grown)
                assert not index._memo

    def test_a_write_in_reach_between_equal_queries_is_seen(self):
        index = NearnessIndex(cell_size=1.0)
        index.insert("a", make_key(box=(0.5, 0.5, 0.5, 0.5)))
        index.insert("far", make_key(box=(9.5, 9.5, 9.5, 9.5)))
        spec = QuerySpec.neighborhood(make_key(box=(0.5, 0.5, 0.5, 0.5)), 0.0, 1.0, 0)
        focused = QuerySpec.focused(box=PlanarBox(0.0, 0.0, 2.0, 2.0))
        assert index.query(spec) == index.query(focused) == ["a"]
        assert len(index._memo) == 2
        index.insert("b", make_key(box=(1.2, 0.5, 1.2, 0.5)))
        assert not index._memo
        assert index.query(spec) == index.query(focused) == ["a", "b"]
        index.remove("a")
        assert index.query(spec) == index.query(focused) == ["b"]
        index.remove("b")
        index.insert("b", make_key(t0=5000.0, t1=6000.0, box=(1.2, 0.5, 1.2, 0.5)))
        assert index.query(spec) == []
        assert index.query(focused) == ["b"]
