"""Gridded airspace: subsectors, storms, and weather-dependent capacity.

The airspace is a uniform grid of square subsectors.  Each subsector
has a calm-weather capacity, a reduced severe-weather capacity, and
optional closed intervals during which it accepts no traffic.  Storms
are axis-aligned boxes translating at constant velocity over an
activity window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ValidationError
from .nearness import PlanarBox, TimeInterval


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Uniform grid of square subsectors."""

    x0: float
    y0: float
    cols: int
    rows: int
    cell: float

    def __post_init__(self):
        if self.cols < 1 or self.rows < 1:
            raise ValidationError("grid needs at least one cell", "grid")
        # Written so that NaN fails the test too.
        if not 0 < self.cell < math.inf:
            raise ValidationError("cell edge must be positive and finite", "grid.cell")

    @property
    def x1(self) -> float:
        return self.x0 + self.cols * self.cell

    @property
    def y1(self) -> float:
        return self.y0 + self.rows * self.cell

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x < self.x1 and self.y0 <= y < self.y1

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        if not self.contains(x, y):
            raise DomainError(f"point ({x}, {y}) outside grid bounds")
        return (math.floor((x - self.x0) / self.cell),
                math.floor((y - self.y0) / self.cell))

    def cell_bounds(self, col: int, row: int) -> PlanarBox:
        if not (0 <= col < self.cols and 0 <= row < self.rows):
            raise DomainError(f"cell ({col}, {row}) outside grid")
        return PlanarBox(
            self.x0 + col * self.cell, self.y0 + row * self.cell,
            self.x0 + (col + 1) * self.cell, self.y0 + (row + 1) * self.cell)

    def all_cells(self) -> list[tuple[int, int]]:
        return [(c, r) for r in range(self.rows) for c in range(self.cols)]


@dataclass(frozen=True, slots=True)
class Subsector:
    """Smallest unit at which congestion is defined."""

    index: tuple[int, int]
    bounds: PlanarBox
    calm_capacity: int
    severe_capacity: int
    closed_intervals: tuple[TimeInterval, ...] = ()

    def __post_init__(self):
        if self.severe_capacity > self.calm_capacity:
            raise ValidationError("severe capacity exceeds calm capacity", "capacity")


@dataclass(frozen=True, slots=True)
class StormCell:
    """A severe-weather box translating at constant velocity.

    ``box`` is the storm's footprint at the start of its activity window.
    """

    id: str
    box: PlanarBox
    velocity: tuple[float, float]
    active: TimeInterval

    def box_at(self, t: float) -> PlanarBox:
        dt = t - self.active.start
        vx, vy = self.velocity
        return PlanarBox(self.box.x0 + vx * dt, self.box.y0 + vy * dt,
                         self.box.x1 + vx * dt, self.box.y1 + vy * dt)


def _axis_window(lo: float, hi: float, v: float, other_lo: float,
                 other_hi: float) -> tuple[float, float] | None:
    """dt range over which [lo+v*dt, hi+v*dt) overlaps [other_lo, other_hi)."""
    if v == 0:
        return (-math.inf, math.inf) if max(lo, other_lo) < min(hi, other_hi) else None
    # lo + v*dt < other_hi  and  other_lo < hi + v*dt
    a = (other_hi - lo) / v
    b = (other_lo - hi) / v
    window = (b, a) if v > 0 else (a, b)
    return window if window[0] < window[1] else None


def storm_overlap_window(storm: StormCell, box: PlanarBox) -> TimeInterval | None:
    """Exact time window during which the moving storm overlaps a box.

    Returns the intersection of the geometric window with the storm's
    activity interval, or None when they never overlap.
    """
    wx = _axis_window(storm.box.x0, storm.box.x1, storm.velocity[0], box.x0, box.x1)
    wy = _axis_window(storm.box.y0, storm.box.y1, storm.velocity[1], box.y0, box.y1)
    if wx is None or wy is None:
        return None
    lo = max(wx[0], wy[0]) + storm.active.start
    hi = min(wx[1], wy[1]) + storm.active.start
    lo = max(lo, storm.active.start)
    hi = min(hi, storm.active.end)
    if lo >= hi:
        return None
    return TimeInterval(lo, hi)


def bucket_capacity(subsector: Subsector, bucket: TimeInterval,
                    windows: tuple[TimeInterval, ...] | list[TimeInterval]) -> int:
    """Worst-case capacity over a time bucket.

    ``windows`` are the subsector's storm windows, as
    :func:`storm_overlap_window` gives them.  A closure or storm window
    touching any part of the bucket caps the whole bucket, which keeps
    the per-bucket congestion check conservative.
    """
    for closed in subsector.closed_intervals:
        if closed.intersects(bucket):
            return 0
    for window in windows:
        if window.intersects(bucket):
            return subsector.severe_capacity
    return subsector.calm_capacity
