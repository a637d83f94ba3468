"""Flight plans and their decomposition into per-subsector time segments.

A plan is an ordered list of waypoints flown in straight lines at
constant per-leg speed.  Segmentation slices the flight into maximal
half-open time intervals of constant subsector membership: the instant a
boundary is crossed belongs to the cell being entered, and a transit
exactly through a grid corner steps diagonally.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

from .airspace import GridSpec
from .errors import DomainError, ValidationError


@dataclass(frozen=True, slots=True)
class Waypoint:
    """A position to be reached at time ``t``, in seconds."""

    x: float
    y: float
    t: float


@dataclass(frozen=True, slots=True)
class FlightPlan:
    """Requested route: primary waypoints plus optional alternates.

    Alternates must share the primary route's first and last positions.
    ``departure_delay`` shifts the whole flight without editing waypoints.
    """

    flight_id: str
    waypoints: tuple[Waypoint, ...]
    alternates: tuple[tuple[Waypoint, ...], ...] = ()
    departure_delay: float = 0.0
    priority_rank: int = 0
    #: Placement caches are keyed by the plan, so its hash is taken once,
    #: in ``__post_init__``.  Equality and repr ignore it.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.flight_id:
            raise ValidationError("flight_id must be non-empty", "flight_id")
        _check_route(self.waypoints, "waypoints")
        if self.departure_delay < 0:
            raise ValidationError("departure_delay must be >= 0", "departure_delay")
        # Written so that NaN fails the test too.
        if not self.departure_delay < math.inf:
            raise ValidationError("departure_delay must be finite", "departure_delay")
        first, last = self.waypoints[0], self.waypoints[-1]
        for i, alt in enumerate(self.alternates):
            _check_route(alt, f"alternates[{i}]")
            if (alt[0].x, alt[0].y) != (first.x, first.y) or \
                    (alt[-1].x, alt[-1].y) != (last.x, last.y):
                raise ValidationError("alternate endpoints differ from primary route",
                                      f"alternates[{i}]")
        object.__setattr__(self, "_hash", hash((
            self.flight_id, self.waypoints, self.alternates, self.departure_delay,
            self.priority_rank)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def departure(self) -> float:
        return self.waypoints[0].t + self.departure_delay

    def route(self, route_index: int) -> tuple[Waypoint, ...]:
        """Waypoints of the filed route (-1) or of alternate ``route_index``."""
        if route_index == -1:
            return self.waypoints
        return self.alternates[route_index]


def _check_route(waypoints: tuple[Waypoint, ...], path: str) -> None:
    if len(waypoints) < 2:
        raise ValidationError("route needs at least two waypoints", path)
    for i, w in enumerate(waypoints):
        # Written so that NaN fails the test too.
        if not -math.inf < w.t < math.inf:
            raise ValidationError(f"waypoint {i} time {w.t} is not finite", path)
    for a, b in zip(waypoints, waypoints[1:]):
        if b.t <= a.t:
            raise ValidationError(f"waypoint times not strictly increasing "
                                  f"({a.t} -> {b.t})", path)


class TrajectorySegment(namedtuple("TrajectorySegment", "subsector entry exit")):
    """Time spent in one subsector: half-open [entry, exit), as the (cell,
    entry, exit) triple it equals.  The flight and its plan version are on
    the account that holds the segment."""

    __slots__ = ()

    def __new__(cls, subsector: tuple[int, int], entry: float, exit: float):
        # Written so that NaN fails the test too.
        if not entry < exit:
            raise ValidationError(f"entry {entry} is not before exit {exit}", "segment")
        return tuple.__new__(cls, (subsector, entry, exit))


def position_at(waypoints: tuple[Waypoint, ...], t: float) -> tuple[float, float]:
    """Piecewise-linear position along a route, clamped to its endpoints."""
    if t <= waypoints[0].t:
        return waypoints[0].x, waypoints[0].y
    for a, b in zip(waypoints, waypoints[1:]):
        if t <= b.t:
            f = (t - a.t) / (b.t - a.t)
            return a.x + f * (b.x - a.x), a.y + f * (b.y - a.y)
    return waypoints[-1].x, waypoints[-1].y


def _lines_met(origin: float, cell: float, p0: float, p1: float) -> tuple[int, int]:
    """First and last index k of the grid lines ``origin + k * cell`` that a
    coordinate moving from p0 to p1 meets, endpoints included."""
    return (math.ceil((min(p0, p1) - origin) / cell),
            math.floor((max(p0, p1) - origin) / cell))


def _leg_crossings(a: Waypoint, b: Waypoint, origin: float, cell: float,
                   p0: float, p1: float) -> list[float]:
    """Times strictly inside (a.t, b.t) at which one axis coordinate, moving
    linearly from p0 to p1, crosses a grid line."""
    out: list[float] = []
    if p1 == p0:
        return out
    speed = (p1 - p0) / (b.t - a.t)
    k_lo, k_hi = _lines_met(origin, cell, p0, p1)
    for k in range(k_lo, k_hi + 1):
        line = origin + k * cell
        t = a.t + (line - p0) / speed
        if a.t < t < b.t:
            out.append(t)
    return out


def route_spot_bound(waypoints: tuple[Waypoint, ...], grid: GridSpec,
                     bucket_seconds: float) -> float:
    """Upper bound on the (cell, bucket) spots a route holds at any delay.

    The route changes cell only where a leg meets a grid line, so it has
    at most one segment more than the lines its legs meet.  Each segment
    holds its own length in buckets plus at most one partial bucket at
    each end.
    """
    try:
        lines = 0
        for a, b in zip(waypoints, waypoints[1:]):
            for origin, p0, p1 in ((grid.x0, a.x, b.x), (grid.y0, a.y, b.y)):
                if p0 != p1:
                    k_lo, k_hi = _lines_met(origin, grid.cell, p0, p1)
                    lines += k_hi - k_lo + 1
        span = waypoints[-1].t - waypoints[0].t
        return span / bucket_seconds + 2 * (lines + 1)
    except OverflowError:  # more lines than a float can count
        return math.inf


def segment_trajectory(plan: FlightPlan, grid: GridSpec,
                       route_index: int = -1) -> list[TrajectorySegment]:
    """Slice a route into maximal constant-subsector time intervals.

    Crossing times of grid lines split the flight; each slice's cell is
    read from its temporal midpoint, which sits strictly between
    boundaries, so entry instants land in the cell being entered and
    corner transits step to the diagonal cell.
    """
    waypoints = plan.route(route_index)
    for i, w in enumerate(waypoints):
        if not grid.contains(w.x, w.y):
            raise DomainError(f"waypoint {i} at ({w.x}, {w.y}) outside grid")

    cuts: list[float] = [waypoints[0].t]
    for a, b in zip(waypoints, waypoints[1:]):
        times = set(_leg_crossings(a, b, grid.x0, grid.cell, a.x, b.x))
        times |= set(_leg_crossings(a, b, grid.y0, grid.cell, a.y, b.y))
        cuts.extend(sorted(times))
        cuts.append(b.t)

    # Each slice has ta < tb, so segments skip the checking constructor.
    segments: list[TrajectorySegment] = []
    for ta, tb in zip(cuts, cuts[1:]):
        if tb <= ta:
            continue
        x, y = position_at(waypoints, (ta + tb) / 2.0)
        cell = grid.cell_of(x, y)
        if segments and segments[-1].subsector == cell:
            segments[-1] = segments[-1]._replace(exit=tb)
        else:
            segments.append(tuple.__new__(TrajectorySegment, (cell, ta, tb)))
    return segments


def plan_segments(plan: FlightPlan, raw: list[TrajectorySegment],
                  added_delay: float = 0.0) -> list[TrajectorySegment]:
    """Effective segments of a plan: the segmentation ``raw`` of one of its
    routes (see :func:`segment_trajectory`) shifted by all delays.  A
    segment that the shift rounds to zero length is dropped; its
    neighbours still meet, at the instant it collapsed to.  At a zero shift
    the segments are ``raw``'s own: ``x + 0.0`` equals ``x`` for every time
    but -0.0, which reads as 0 wherever a segment time is used.
    """
    total = plan.departure_delay + added_delay
    if total == 0:
        return list(raw)
    out = []
    for cell, entry, exit_ in raw:
        entry += total
        exit_ += total
        if entry < exit_:
            out.append(tuple.__new__(TrajectorySegment, (cell, entry, exit_)))
    return out
