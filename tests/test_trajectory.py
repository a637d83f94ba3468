"""Segmentation tests, checked against a fine-step sampling oracle."""

import random
from dataclasses import replace

import pytest

from adatm import (
    FlightPlan,
    GridSpec,
    Waypoint,
    plan_segments,
    position_at,
    segment_trajectory,
)
from adatm.errors import DomainError, ValidationError

from conftest import random_plan_dict

GRID = GridSpec(0.0, 0.0, 8, 8, 10.0, sector_cols=4, sector_rows=4)


def plan_of(waypoints, flight_id="f1", **kwargs):
    return FlightPlan(flight_id, tuple(Waypoint(*w) for w in waypoints), **kwargs)


def sampled_cells(plan, grid, step):
    """Independent oracle: sample the position and floor it into a cell."""
    waypoints = plan.waypoints
    t0, t1 = waypoints[0].t, waypoints[-1].t
    out = []
    t = t0
    while t < t1:
        x, y = position_at(waypoints, t)
        out.append((t, grid.cell_of(x, y)))
        t += step
    return out


def covering_segment(segments, t):
    for seg in segments:
        if seg.entry <= t < seg.exit:
            return seg
    return None


def random_plan(rng, flight_id="r"):
    return plan_of(random_plan_dict(rng), flight_id=flight_id)


class TestBasicSegmentation:
    def test_single_cell_flight(self):
        plan = plan_of([[1.0, 1.0, 0.0], [8.0, 8.0, 500.0]])
        segments = segment_trajectory(plan, GRID)
        assert len(segments) == 1
        assert segments[0].subsector == (0, 0)
        assert (segments[0].entry, segments[0].exit) == (0.0, 500.0)

    def test_diagonal_corner_transit(self):
        grid = GridSpec(0.0, 0.0, 2, 2, 1.0)
        plan = plan_of([[0.5, 0.5, 0.0], [1.5, 1.5, 100.0]])
        segments = segment_trajectory(plan, grid)
        assert [(s.subsector, s.entry, s.exit) for s in segments] == [
            ((0, 0), 0.0, 50.0),
            ((1, 1), 50.0, 100.0),
        ]

    def test_diagonal_against_fine_sampling(self):
        grid = GridSpec(0.0, 0.0, 2, 2, 1.0)
        plan = plan_of([[0.5, 0.5, 0.0], [1.5, 1.5, 100.0]])
        segments = segment_trajectory(plan, grid)
        for t, cell in sampled_cells(plan, grid, step=0.01):
            seg = covering_segment(segments, t)
            if min(abs(t - b) for s in segments for b in (s.entry, s.exit)) > 0.01:
                assert seg.subsector == cell

    def test_multi_sector_path_contiguous(self):
        # Long multi-waypoint route crossing several sectors.
        plan = plan_of([[5.0, 5.0, 0.0], [35.0, 15.0, 1800.0],
                        [75.0, 55.0, 5400.0]])
        segments = segment_trajectory(plan, GRID)
        sectors = {GRID.sector_of(*s.subsector) for s in segments}
        assert len(sectors) >= 2
        assert len(segments) >= 2
        for a, b in zip(segments, segments[1:]):
            assert a.exit == b.entry
        assert segments[0].entry == 0.0
        assert segments[-1].exit == 5400.0

    def test_waypoint_outside_grid(self):
        plan = plan_of([[1.0, 1.0, 0.0], [100.0, 1.0, 100.0]])
        with pytest.raises(DomainError):
            segment_trajectory(plan, GRID)

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValidationError):
            plan_of([[1.0, 1.0, 100.0], [2.0, 2.0, 50.0]])

    def test_route_along_grid_line_belongs_to_upper_cell(self):
        plan = plan_of([[5.0, 10.0, 0.0], [15.0, 10.0, 100.0]])
        segments = segment_trajectory(plan, GRID)
        assert all(s.subsector[1] == 1 for s in segments)

    def test_alternate_endpoint_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            plan_of([[1.0, 1.0, 0.0], [8.0, 8.0, 500.0]],
                    alternates=(
                        (Waypoint(1.0, 1.0, 0.0), Waypoint(7.0, 7.0, 500.0)),))


class TestPartitionInvariant:
    @pytest.mark.parametrize("seed", range(30))
    def test_contiguous_cover(self, seed):
        rng = random.Random(seed)
        plan = random_plan(rng)
        segments = segment_trajectory(plan, GRID)
        assert segments[0].entry == plan.waypoints[0].t
        assert segments[-1].exit == plan.waypoints[-1].t
        total = 0.0
        for a, b in zip(segments, segments[1:]):
            assert a.exit == b.entry
            assert a.subsector != b.subsector
        total = sum(s.exit - s.entry for s in segments)
        duration = plan.waypoints[-1].t - plan.waypoints[0].t
        assert total == pytest.approx(duration, abs=1e-9)

    @pytest.mark.parametrize("seed", range(40))
    def test_sampled_membership_one_second(self, seed):
        rng = random.Random(1000 + seed)
        plan = random_plan(rng)
        segments = segment_trajectory(plan, GRID)
        boundaries = sorted({b for s in segments for b in (s.entry, s.exit)})
        for t, cell in sampled_cells(plan, GRID, step=1.0):
            seg = covering_segment(segments, t)
            assert seg is not None
            if seg.subsector != cell:
                # Allowed only within one sample of a segment boundary.
                nearest = min(abs(t - b) for b in boundaries)
                assert nearest <= 1.0


class TestDelayPropagation:
    def test_commutes_with_segmentation_thousand_plans(self):
        rng = random.Random(99)
        for trial in range(1000):
            plan = random_plan(rng, flight_id=f"c{trial}")
            delay = rng.choice([0.0, 60.0, 300.0, 600.0, 900.0])
            shifted_plan = replace(plan, waypoints=tuple(
                Waypoint(w.x, w.y, w.t + delay) for w in plan.waypoints))
            resegmented = segment_trajectory(shifted_plan, GRID)
            got = [(s.subsector, round(s.entry, 6), round(s.exit, 6))
                   for s in resegmented]
            want = [(s.subsector, round(s.entry, 6), round(s.exit, 6))
                    for s in plan_segments(plan, GRID, added_delay=delay)]
            assert got == want


class TestPlanSegments:
    def test_departure_delay_is_applied(self):
        plan = plan_of([[1.0, 1.0, 0.0], [75.0, 1.0, 700.0]], departure_delay=120.0)
        effective = plan_segments(plan, GRID)
        raw = segment_trajectory(plan, GRID)
        assert effective[0].entry == raw[0].entry + 120.0

    def test_alternate_route_selection(self):
        plan = plan_of(
            [[5.0, 5.0, 0.0], [75.0, 5.0, 700.0]],
            alternates=((Waypoint(5.0, 5.0, 0.0), Waypoint(35.0, 75.0, 350.0),
                         Waypoint(75.0, 5.0, 700.0)),))
        primary = plan_segments(plan, GRID, route_index=-1)
        alternate = plan_segments(plan, GRID, route_index=0)
        assert primary != alternate
        assert alternate[0].entry == 0.0
