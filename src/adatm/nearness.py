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
from dataclasses import dataclass, field
from enum import Enum
from itertools import product

from .errors import ConflictError, DomainError, NotFoundError, ValidationError

#: Radius value meaning "unbounded in this dimension".
INFINITE_RADIUS = math.inf

# Boxes spanning more than this many grid cells go to an overflow set
# instead of the grid, so that one huge item does not widen every query.
_MAX_CELLS_PER_ITEM = 1024

# A coordinate more than this many cells from 0 is unbounded to the grid.
# Below it, ``x / cell_size`` errs by far less than a cell and consecutive
# cell edges ``k * cell_size`` are distinct floats.
_MAX_INDEX = 2.0 ** 50

def spans_intersect(a0: float, a1: float, b0: float, b1: float) -> bool:
    """Whether the half-open spans [a0, a1) and [b0, b1) meet.

    A zero-length span is a point, so that a key always intersects
    itself; a point on a span's open end does not count.
    """
    if a0 == a1 and b0 == b1:
        return a0 == b0
    if a0 == a1:
        return b0 <= a0 < b1
    if b0 == b1:
        return a0 <= b0 < a1
    return max(a0, b0) < min(a1, b1)


@dataclass(frozen=True, slots=True)
class TimeInterval:
    """Half-open interval [start, end) in seconds; start == end is a point."""

    start: float
    end: float

    def __post_init__(self):
        # Written so that NaN on either side fails the test too.
        if not self.start <= self.end:
            raise ValidationError(f"time bounds not ordered: start {self.start}, "
                                  f"end {self.end}", "time")

    @property
    def is_point(self) -> bool:
        return self.start == self.end

    def intersects(self, other: "TimeInterval") -> bool:
        return spans_intersect(self.start, self.end, other.start, other.end)

    def cover(self, other: "TimeInterval") -> "TimeInterval":
        return TimeInterval(min(self.start, other.start), max(self.end, other.end))

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end or (self.is_point and t == self.start)


@dataclass(frozen=True, slots=True)
class PlanarBox:
    """Half-open axis-aligned box [x0, x1) x [y0, y1); zero extent is a point."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        # Written so that a NaN corner fails the test too.
        if not (self.x0 <= self.x1 and self.y0 <= self.y1):
            raise ValidationError("box corners out of order or NaN", "box")

    def intersects(self, other: "PlanarBox") -> bool:
        return spans_intersect(self.x0, self.x1, other.x0, other.x1) and \
            spans_intersect(self.y0, self.y1, other.y0, other.y1)

    def cover(self, other: "PlanarBox") -> "PlanarBox":
        return PlanarBox(
            min(self.x0, other.x0), min(self.y0, other.y0),
            max(self.x1, other.x1), max(self.y1, other.y1),
        )


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class NearnessKey:
    """Position of a datum along all three nearness dimensions.

    A key also keeps its six bounds and its concept as one tuple of plain
    values, ``(t0, t1, x0, y0, x1, y1, concept)``, for
    :meth:`QuerySpec.matches` and the index; equality, hash and repr
    ignore that tuple.
    """

    time: TimeInterval
    space: PlanarBox
    concept: ConceptPath
    _flat: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t, s = self.time, self.space
        object.__setattr__(self, "_flat", (t.start, t.end, s.x0, s.y0, s.x1, s.y1,
                                           self.concept))

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


def check_radii(time_radius: float, space_radius: float, concept_radius: float) -> None:
    """Refuse a negative or NaN radius of a neighborhood query, at the
    radius's name: the rule of :class:`QuerySpec` and of the runtime."""
    for name, radius in (("time_radius", time_radius), ("space_radius", space_radius),
                         ("concept_radius", concept_radius)):
        # Written so that NaN fails the test too.
        if not radius >= 0:
            raise ValidationError(f"radius must be >= 0, got {radius}", name)


class QueryMode(Enum):
    Neighborhood = "neighborhood"
    Focused = "focused"


@dataclass(frozen=True, slots=True)
class QuerySpec:
    """A neighborhood (center + radii) or focused (constraints) query.

    Use the :meth:`neighborhood` / :meth:`focused` constructors.  A spec
    is checked once, when it is built.  A neighborhood spec also keeps
    its center's time and box bounds, its radii and its concept as one
    tuple of plain values for :meth:`matches`; equality, hash and repr
    ignore that tuple.
    """

    mode: QueryMode
    center: NearnessKey | None = None
    time_radius: float = 0.0
    space_radius: float = 0.0
    concept_radius: float = 0.0
    time_window: TimeInterval | None = None
    box: PlanarBox | None = None
    concept_prefix: ConceptPath | None = None
    _near: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode is QueryMode.Neighborhood:
            center = self.center
            if center is None:
                raise ValidationError("neighborhood query needs a center", "center")
            # A spec is built on every activation, so one chained test, which
            # NaN fails too, comes before the call that names the field.
            if not (self.time_radius >= 0 and self.space_radius >= 0
                    and self.concept_radius >= 0):
                check_radii(self.time_radius, self.space_radius, self.concept_radius)
            object.__setattr__(self, "_near", center._flat[:6] + (
                self.time_radius, self.space_radius, self.concept_radius, center._flat[6]))
        elif self.mode is QueryMode.Focused:
            if self.time_window is None and self.box is None and self.concept_prefix is None:
                raise ValidationError("focused query needs at least one constraint",
                                      "constraints")
        else:
            raise ValidationError(f"unknown mode {self.mode}", "mode")

    @classmethod
    def neighborhood(cls, center: NearnessKey, time_radius: float,
                     space_radius: float, concept_radius: float) -> "QuerySpec":
        return cls(QueryMode.Neighborhood, center, time_radius, space_radius,
                   concept_radius)

    @classmethod
    def focused(cls, time_window: TimeInterval | None = None,
                box: PlanarBox | None = None,
                concept_prefix: ConceptPath | None = None) -> "QuerySpec":
        return cls(QueryMode.Focused, time_window=time_window, box=box,
                   concept_prefix=concept_prefix)

    def matches(self, key: NearnessKey) -> bool:
        """Evaluate this query's predicate against a single key."""
        near = self._near
        if near is not None:
            flat = key._flat
            # The time gap, max(a, b, 0) for the two signed differences,
            # exceeds a radius r >= 0 exactly when a or b does.  It comes
            # first, and the rest is unpacked only for keys that pass it.
            if flat[0] - near[1] > near[6] or near[0] - flat[1] > near[6]:
                return False
            # The box gap is Euclidean over the axis gaps.  An axis's gap is
            # whichever of its two differences is positive (both boxes have
            # ordered corners, so at most one is), else 0; two zero gaps are
            # within every radius.  Each bound is read where it is compared.
            dx = flat[2] - near[4] if flat[2] > near[4] else \
                near[2] - flat[4] if near[2] > flat[4] else 0.0
            dy = flat[3] - near[5] if flat[3] > near[5] else \
                near[3] - flat[5] if near[3] > flat[5] else 0.0
            if (dx or dy) and math.hypot(dx, dy) > near[7]:
                return False
            # Equal paths are at distance 0, within every valid radius.  The
            # identity test comes first because the dataclass ``__eq__`` is
            # a Python-level call, and keys of one kind share one path
            # object (every trajectory segment holds ``SEGMENT_CONCEPT``).
            concept, kc = near[9], flat[6]
            return concept is kc or concept == kc or _distance_or_inf(concept, kc) <= near[8]
        # ``TimeInterval.intersects``, ``PlanarBox.intersects`` and
        # ``ConceptPath.is_prefix_of``, on the key's plain values.
        flat = key._flat
        w = self.time_window
        if w is not None and not spans_intersect(w.start, w.end, flat[0], flat[1]):
            return False
        b = self.box
        if b is not None and not (spans_intersect(b.x0, b.x1, flat[2], flat[4])
                                  and spans_intersect(b.y0, b.y1, flat[3], flat[5])):
            return False
        p = self.concept_prefix
        return p is None or flat[6].segments[:len(p.segments)] == p.segments


def _reach(spec: QuerySpec) -> tuple | None:
    """What :meth:`NearnessIndex._candidates` reads of a query: the box
    it looks in and the space radius around it, or None when every item
    is a candidate."""
    if spec.mode is QueryMode.Neighborhood:
        _, _, x0, y0, x1, y1, _, r, _, _ = spec._near
        return None if math.isinf(r) else (x0, y0, x1, y1, r)
    b = spec.box
    return None if b is None else (b.x0, b.y0, b.x1, b.y1, 0.0)


class NearnessIndex:
    """Uniform loose grid over space of :class:`NearnessKey` items.

    Each item is filed in one grid cell, the cell of its box's low corner.
    Cell ``k`` along an axis holds the coordinates from ``k * cell_size``
    up to ``(k + 1) * cell_size``, each edge as the float product.  The
    index keeps the most cells any filed box spans past its first one
    along each axis (they only grow), and a query widens its cells on the
    low side by those counts, so it reaches every item whose box can meet
    it (the loose grid of Ulrich's loose octrees).  The grid prunes by
    space only; every candidate is run through the exact query predicate,
    so results match a linear scan.

    Queries with one reach (see :func:`_reach`) have the same candidates
    until the next write, so the index keeps each reach's candidate ids
    and keys, in id order, until an insert or a remove clears them all.
    """

    def __init__(self, cell_size: float = 1.0):
        # Written so that NaN fails the test too.
        if not 0 < cell_size < math.inf:
            raise ValidationError("cell_size must be positive and finite", "cell_size")
        self.cell_size = cell_size
        self._items: dict[str, NearnessKey] = {}
        # Id -> the cell it is filed in; oversize items are not filed.  A
        # cell maps the ids filed in it to their keys, and leaves the grid
        # when its last item is removed.
        self._filed: dict[str, tuple[int, int]] = {}
        self._grid: dict[tuple[int, int], dict[str, NearnessKey]] = {}
        self._oversize: dict[str, NearnessKey] = {}
        # The most cells any filed box has spanned past its first one,
        # along x and along y.
        self._wide = 0
        self._tall = 0
        #: Reach -> its candidates' ids in ascending order and their keys.
        self._memo: dict[tuple | None, tuple[tuple[str, ...], tuple[NearnessKey, ...]]] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._items

    def key_of(self, item_id: str) -> NearnessKey:
        try:
            return self._items[item_id]
        except KeyError:
            raise NotFoundError(item_id) from None

    def _cell(self, x: float) -> int | None:
        """The cell along an axis that holds x; None when x is unbounded
        or more than ``_MAX_INDEX`` cells from 0."""
        size = self.cell_size
        q = x / size
        if not -_MAX_INDEX < q < _MAX_INDEX:
            return None
        k = math.floor(q)
        while k * size > x:
            k -= 1
        while (k + 1) * size <= x:
            k += 1
        return k

    def _axis(self, c0: float, c1: float, r: float, widen: int) -> tuple[int, int] | None:
        """First and last cell, along one axis, of the low corner of every
        filed item whose span [k0, k1] can be within r of [c0, c1] by the
        gaps that :meth:`QuerySpec.matches` computes: ``k0 - c1 <= r`` and
        ``c0 - k1 <= r``, each difference rounded.  ``widen`` is the most
        cells a filed span reaches past its first.  None when the range is
        unbounded to the grid.

        ``c1 + r`` and ``c0 - r`` can round across a cell edge either way,
        so the end cells are checked against their edges: a cell is in
        reach when its nearest float is.
        """
        size = self.cell_size
        hi, lo = c1 + r, c0 - r
        last, first = self._cell(hi), self._cell(lo)
        if last is None or first is None:
            return None
        # Within ``_MAX_INDEX`` cells of 0 a sum rounds by less than a cell,
        # so each end moves by at most a cell or two.
        # The last cell whose least float x has x - c1 <= r.
        if hi - c1 > r:
            if last * size - c1 > r:
                last -= 1
        else:
            while (last + 1) * size - c1 <= r:
                last += 1
        # The first cell whose greatest float x has c0 - x <= r.
        if c0 - lo > r:
            if c0 - math.nextafter((first + 1) * size, -math.inf) > r:
                first += 1
        else:
            while c0 - math.nextafter(first * size, -math.inf) <= r:
                first -= 1
        return first - widen, last

    def insert(self, item_id: str, key: NearnessKey) -> None:
        if item_id in self._items:
            raise ConflictError(f"id already indexed: {item_id}")
        # Placed first, so that an error leaves the index as it was.
        _, _, x0, y0, x1, y1, _ = key._flat
        i0, j0, i1, j1 = self._cell(x0), self._cell(y0), self._cell(x1), self._cell(y1)
        self._items[item_id] = key
        self._memo.clear()
        if i0 is None or j0 is None or i1 is None or j1 is None or \
                (i1 - i0 + 1) * (j1 - j0 + 1) > _MAX_CELLS_PER_ITEM:
            self._oversize[item_id] = key
            return
        self._wide = max(self._wide, i1 - i0)
        self._tall = max(self._tall, j1 - j0)
        cell = (i0, j0)
        ids = self._grid.get(cell)
        if ids is None:
            self._grid[cell] = {item_id: key}
        else:
            ids[item_id] = key
        self._filed[item_id] = cell

    def remove(self, item_id: str) -> None:
        if self._items.pop(item_id, None) is None:
            raise NotFoundError(item_id)
        self._memo.clear()
        cell = self._filed.pop(item_id, None)
        if cell is None:
            del self._oversize[item_id]
            return
        ids = self._grid[cell]
        del ids[item_id]
        if not ids:
            del self._grid[cell]

    def _candidates(self, spec: QuerySpec) -> list[dict[str, NearnessKey]]:
        """Disjoint id -> key maps of the items the query can match: every
        oversize item and the items of each cell in reach.

        A neighborhood query looks around its center's box by the space
        radius; a focused query in its own box.  Without a usable box
        every item is a candidate.  Each filed item is in one cell and no
        oversize item is in any, so no id is in two of the maps.
        """
        reach = _reach(spec)
        if reach is None:
            return [self._items]
        x0, y0, x1, y1, r = reach
        cols = self._axis(x0, x1, r, self._wide)
        rows = self._axis(y0, y1, r, self._tall)
        if cols is None or rows is None:
            return [self._items]
        (i0, i1), (j0, j1) = cols, rows
        # Look up the range's cells, or walk the grid when it has fewer: a
        # range widened by wide items can span many empty cells.
        grid = self._grid
        if (i1 - i0 + 1) * (j1 - j0 + 1) <= len(grid):
            get = grid.get
            cells = [ids for cell in product(range(i0, i1 + 1), range(j0, j1 + 1))
                     if (ids := get(cell)) is not None]
        else:
            cells = [ids for (i, j), ids in grid.items()
                     if i0 <= i <= i1 and j0 <= j <= j1]
        return [self._oversize, *cells]

    def query(self, spec: QuerySpec) -> list[str]:
        """Ids matching the query, in ascending identifier order, as a new
        list the caller may change."""
        reach = _reach(spec)
        memo = self._memo.get(reach)
        if memo is None:
            ids = sorted(i for cell in self._candidates(spec) for i in cell)
            memo = self._memo[reach] = tuple(ids), tuple(map(self._items.__getitem__, ids))
        matches = spec.matches
        return [i for i, key in zip(*memo) if matches(key)]

    def scan(self, spec: QuerySpec) -> list[str]:
        """Reference linear scan applying the same predicate to every item."""
        return sorted(i for i, key in self._items.items() if spec.matches(key))
