"""Weather, capacity, and storm-window tests."""

import math

import pytest

from adatm import (
    GridSpec,
    PlanarBox,
    StormCell,
    Subsector,
    TimeInterval,
    bucket_capacity,
    storm_overlap_window,
)
from adatm.errors import DomainError, ValidationError


def cell_00(closed=()):
    return Subsector(index=(0, 0), bounds=PlanarBox(0.0, 0.0, 10.0, 10.0),
                     calm_capacity=6, severe_capacity=3,
                     closed_intervals=tuple(closed))


def windows(cell, *storms):
    """The storm windows ``bucket_capacity`` reads for ``cell``."""
    found = [storm_overlap_window(storm, cell.bounds) for storm in storms]
    return [window for window in found if window is not None]


def moving_storm(x0=-40.0, x1=-30.0, vx=0.05, active=(600.0, 3000.0)):
    return StormCell(id="st", box=PlanarBox(x0, 0.0, x1, 10.0),
                     velocity=(vx, 0.0), active=TimeInterval(*active))


class TestGridSpec:
    def test_grid_shape_enforced(self):
        for cols, rows, cell in [(0, 4, 10.0), (3, 0, 10.0), (3, 4, 0.0), (3, 4, -10.0)]:
            with pytest.raises(ValidationError):
                GridSpec(0, 0, cols, rows, cell)

    @pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf])
    def test_nan_or_infinite_cell_rejected(self, cell):
        # A NaN cell would put every point outside the grid bounds.
        with pytest.raises(ValidationError) as err:
            GridSpec(0, 0, 3, 4, cell)
        assert err.value.path == "grid.cell"

    def test_cell_lookup(self):
        grid = GridSpec(0, 0, 4, 4, 10.0)
        assert grid.cell_of(0.0, 0.0) == (0, 0)
        assert grid.cell_of(10.0, 9.9) == (1, 0)
        with pytest.raises(DomainError):
            grid.cell_of(40.0, 0.0)  # far edge is exclusive

    def test_cell_bounds(self):
        grid = GridSpec(-10.0, 0.0, 2, 2, 5.0)
        assert grid.cell_bounds(1, 1) == PlanarBox(-5.0, 5.0, 0.0, 10.0)


class TestWeatherAt:
    def test_no_storms_calm(self):
        assert bucket_capacity(cell_00(), TimeInterval(100.0, 101.0), []) == 6

    def test_static_storm_window(self):
        storm = StormCell(id="s", box=PlanarBox(0.0, 0.0, 10.0, 10.0),
                          velocity=(0.0, 0.0), active=TimeInterval(100.0, 200.0))
        window = storm_overlap_window(storm, cell_00().bounds)
        assert window == TimeInterval(100.0, 200.0)
        assert window.contains(150.0)
        assert not window.contains(50.0)
        assert not window.contains(200.0)  # half-open

    def test_moving_storm_matches_analytic_window(self):
        storm = moving_storm()
        window = storm_overlap_window(storm, cell_00().bounds)
        # Geometry solved by hand: enters when x1 + 0.05 dt > 0 (dt = 600),
        # leaves when x0 + 0.05 dt >= 10 (dt = 1000).
        assert window == TimeInterval(1200.0, 1600.0)
        # Independent sampling oracle: direct box intersection away from the
        # window boundaries, where the half-open convention is exact.
        bounds = cell_00().bounds
        for t in range(600, 3000):
            if t in (1200, 1600):
                continue
            geometric = storm.box_at(float(t)).intersects(bounds)
            assert geometric == window.contains(float(t)), f"t={t}"
        # Boundary instants follow the entering-inclusive convention.
        assert window.contains(1200.0)
        assert not window.contains(1600.0)

    def test_storm_outside_active_interval(self):
        storm = moving_storm(active=(600.0, 1300.0))
        # Overlap would run [1200, 1600) but activity ends at 1300.
        assert storm_overlap_window(storm, cell_00().bounds) == \
            TimeInterval(1200.0, 1300.0)

    def test_never_overlapping_storm(self):
        storm = moving_storm(vx=-0.05)
        assert storm_overlap_window(storm, cell_00().bounds) is None


class TestCapacity:
    def test_calm_capacity(self):
        assert bucket_capacity(cell_00(), TimeInterval(100.0, 101.0), []) == 6

    def test_closed_interval_zeroes_capacity(self):
        cell = cell_00(closed=[TimeInterval(50.0, 150.0)])
        assert bucket_capacity(cell, TimeInterval(100.0, 101.0), []) == 0
        assert bucket_capacity(cell, TimeInterval(150.0, 151.0), []) == 6

    def test_severe_capacity(self):
        storm = moving_storm()
        assert bucket_capacity(cell_00(), TimeInterval(1300.0, 1301.0),
                               windows(cell_00(), storm)) == 3

    def test_severe_beats_calm_but_closure_beats_severe(self):
        storm = moving_storm()
        cell = cell_00(closed=[TimeInterval(1250.0, 1350.0)])
        assert bucket_capacity(cell, TimeInterval(1300.0, 1301.0), windows(cell, storm)) == 0

    def test_invalid_capacity_ordering(self):
        with pytest.raises(ValidationError):
            Subsector(index=(0, 0), bounds=PlanarBox(0, 0, 1, 1),
                      calm_capacity=3, severe_capacity=5)


class TestBucketCapacity:
    def test_storm_touching_part_of_bucket_is_conservative(self):
        storm = moving_storm()  # severe during [1200, 1600)
        bucket = TimeInterval(1140.0, 1200.0)
        assert bucket_capacity(cell_00(), bucket, windows(cell_00(), storm)) == 6
        bucket = TimeInterval(1560.0, 1620.0)
        assert bucket_capacity(cell_00(), bucket, windows(cell_00(), storm)) == 3

    def test_closure_touching_bucket(self):
        cell = cell_00(closed=[TimeInterval(100.0, 110.0)])
        assert bucket_capacity(cell, TimeInterval(60.0, 120.0), []) == 0
        assert bucket_capacity(cell, TimeInterval(120.0, 180.0), []) == 6
