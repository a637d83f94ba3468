"""Flight plans and their decomposition into per-subsector time segments.

A plan is an ordered list of waypoints flown in straight lines at
constant per-leg speed.  Segmentation slices the flight into maximal
half-open time intervals of constant subsector membership: the instant a
boundary is crossed belongs to the cell being entered, and a transit
exactly through a grid corner steps diagonally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .airspace import GridSpec
from .errors import DomainError, ValidationError


@dataclass(frozen=True)
class Waypoint:
    x: float
    y: float
    t: float


@dataclass(frozen=True)
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

    def __post_init__(self):
        if not self.flight_id:
            raise ValidationError("flight_id must be non-empty", "flight_id")
        _check_route(self.waypoints, "waypoints")
        if self.departure_delay < 0:
            raise ValidationError("departure_delay must be >= 0", "departure_delay")
        first, last = self.waypoints[0], self.waypoints[-1]
        for i, alt in enumerate(self.alternates):
            _check_route(alt, f"alternates[{i}]")
            if (alt[0].x, alt[0].y) != (first.x, first.y) or \
                    (alt[-1].x, alt[-1].y) != (last.x, last.y):
                raise ValidationError("alternate endpoints differ from primary route",
                                      f"alternates[{i}]")

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
    for a, b in zip(waypoints, waypoints[1:]):
        if b.t <= a.t:
            raise ValidationError(f"waypoint times not strictly increasing "
                                  f"({a.t} -> {b.t})", path)


@dataclass(frozen=True)
class TrajectorySegment:
    """Time a flight spends in one subsector: half-open [entry, exit)."""

    flight_id: str
    subsector: tuple[int, int]
    entry: float
    exit: float
    plan_version: int = 1

    def __post_init__(self):
        if self.entry >= self.exit:
            raise ValidationError(f"entry {self.entry} >= exit {self.exit}", "segment")


def position_at(waypoints: tuple[Waypoint, ...], t: float) -> tuple[float, float]:
    """Piecewise-linear position along a route, clamped to its endpoints."""
    if t <= waypoints[0].t:
        return waypoints[0].x, waypoints[0].y
    for a, b in zip(waypoints, waypoints[1:]):
        if t <= b.t:
            f = (t - a.t) / (b.t - a.t)
            return a.x + f * (b.x - a.x), a.y + f * (b.y - a.y)
    return waypoints[-1].x, waypoints[-1].y


def _leg_crossings(a: Waypoint, b: Waypoint, origin: float, cell: float,
                   p0: float, p1: float) -> list[float]:
    """Times strictly inside (a.t, b.t) at which one axis coordinate, moving
    linearly from p0 to p1, crosses a grid line."""
    out: list[float] = []
    if p1 == p0:
        return out
    speed = (p1 - p0) / (b.t - a.t)
    k_lo = math.ceil((min(p0, p1) - origin) / cell)
    k_hi = math.floor((max(p0, p1) - origin) / cell)
    for k in range(k_lo, k_hi + 1):
        line = origin + k * cell
        t = a.t + (line - p0) / speed
        if a.t < t < b.t:
            out.append(t)
    return out


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

    segments: list[TrajectorySegment] = []
    for ta, tb in zip(cuts, cuts[1:]):
        if tb <= ta:
            continue
        x, y = position_at(waypoints, (ta + tb) / 2.0)
        cell = grid.cell_of(x, y)
        if segments and segments[-1].subsector == cell:
            last = segments[-1]
            segments[-1] = replace(last, exit=tb)
        else:
            segments.append(TrajectorySegment(plan.flight_id, cell, ta, tb))
    return segments


def plan_segments(plan: FlightPlan, grid: GridSpec, route_index: int = -1,
                  added_delay: float = 0.0, version: int = 1) -> list[TrajectorySegment]:
    """Effective segments of a plan: chosen route shifted by all delays."""
    raw = segment_trajectory(plan, grid, route_index)
    total = plan.departure_delay + added_delay
    return [replace(s, entry=s.entry + total, exit=s.exit + total,
                    plan_version=version) for s in raw]
