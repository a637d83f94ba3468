"""Segmentation tests, checked against a fine-step sampling oracle."""

import math
import random
from dataclasses import fields, replace

import pytest

from adatm import (
    FlightPlan,
    GridSpec,
    TrajectorySegment,
    Waypoint,
    plan_segments,
    position_at,
    segment_trajectory,
)
from adatm.errors import DomainError, ValidationError

from conftest import random_plan_dict

GRID = GridSpec(0.0, 0.0, 8, 8, 10.0)


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
        # Long multi-waypoint route crossing many cells.
        plan = plan_of([[5.0, 5.0, 0.0], [35.0, 15.0, 1800.0],
                        [75.0, 55.0, 5400.0]])
        segments = segment_trajectory(plan, GRID)
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
            raw = segment_trajectory(plan, GRID)
            want = [(s.subsector, round(s.entry, 6), round(s.exit, 6))
                    for s in plan_segments(plan, raw, added_delay=delay)]
            assert got == want


class TestPlanSegments:
    def test_departure_delay_is_applied(self):
        plan = plan_of([[1.0, 1.0, 0.0], [75.0, 1.0, 700.0]], departure_delay=120.0)
        raw = segment_trajectory(plan, GRID)
        effective = plan_segments(plan, raw)
        assert effective[0].entry == raw[0].entry + 120.0

    def test_delay_drops_segments_it_rounds_away(self):
        # Ending exactly on a grid corner leaves a last segment one rounding
        # error long, which the shift by 600 s rounds to zero length.
        plan = plan_of([[57.47568719104904, 20.0, 103.81763510831728],
                        [30.0, 40.0, 1619.1478587583488]])
        assert min(s.exit - s.entry for s in segment_trajectory(plan, GRID)) < 1e-9
        effective = plan_segments(plan, segment_trajectory(plan, GRID), added_delay=600.0)
        assert all(s.entry < s.exit for s in effective)
        for a, b in zip(effective, effective[1:]):
            assert a.exit == b.entry
        assert effective[-1].exit == 1619.1478587583488 + 600.0

    def test_alternate_route_selection(self):
        plan = plan_of(
            [[5.0, 5.0, 0.0], [75.0, 5.0, 700.0]],
            alternates=((Waypoint(5.0, 5.0, 0.0), Waypoint(35.0, 75.0, 350.0),
                         Waypoint(75.0, 5.0, 700.0)),))
        primary = plan_segments(plan, segment_trajectory(plan, GRID, route_index=-1))
        alternate = plan_segments(plan, segment_trajectory(plan, GRID, route_index=0))
        assert primary != alternate
        assert alternate[0].entry == 0.0


class TestZeroShift:
    """At a zero total delay ``plan_segments`` returns the route's own
    segments; any other shift builds new ones."""

    def test_the_routes_own_segments(self):
        plan = plan_of([[1.0, 1.0, 0.0], [75.0, 41.0, 700.0]])
        raw = segment_trajectory(plan, GRID)
        assert len(raw) > 1
        shared = plan_segments(plan, raw)
        assert shared == raw and shared is not raw
        assert all(a is b for a, b in zip(shared, raw))
        moved = plan_segments(plan, raw, added_delay=60.0)
        assert not any(a is b for a, b in zip(moved, raw))

    def test_a_negative_zero_start_keeps_its_sign(self):
        # -0.0 + 0.0 is 0.0, so the shared segment is the one time that a
        # shift by zero would have written differently; it compares as 0.
        plan = plan_of([[1.0, 1.0, -0.0], [75.0, 1.0, 700.0]])
        first = plan_segments(plan, segment_trajectory(plan, GRID))[0]
        assert math.copysign(1.0, first.entry) == -1.0
        assert first.entry == 0.0 and hash(first.entry) == hash(0.0)


class TestSegmentInterval:
    @pytest.mark.parametrize("entry, exit_", [
        (math.nan, 10.0), (0.0, math.nan), (math.nan, math.nan), (5.0, 5.0), (6.0, 5.0)])
    def test_empty_or_nan_interval_rejected(self, entry, exit_):
        # NaN compares false both ways, so only ``not entry < exit`` catches it.
        with pytest.raises(ValidationError) as err:
            TrajectorySegment((0, 0), entry, exit_)
        assert err.value.path == "segment"


class TestPlanHash:
    """A plan hashes its fields once; placement caches key on it."""

    def test_equal_plans_hash_alike_and_differing_ones_are_told_apart(self):
        route = [[1.0, 5.0, 0.0], [9.0, 5.0, 600.0]]
        alternate = [[1.0, 5.0, 0.0], [5.0, 15.0, 300.0], [9.0, 5.0, 600.0]]
        a = plan_of(route, alternates=(tuple(Waypoint(*w) for w in alternate),))
        b = plan_of(route, alternates=(tuple(Waypoint(*w) for w in alternate),))
        assert a == b and hash(a) == hash(b)
        cache = {(a, -1): "a"}
        assert cache[b, -1] == "a"
        for changed in (replace(a, departure_delay=37.3), replace(a, priority_rank=2),
                        replace(a, alternates=()), replace(a, flight_id="f2"),
                        plan_of([[1.0, 5.0, 0.0], [9.0, 5.0, 601.0]])):
            assert changed != a
            assert (changed, -1) not in cache
            assert hash(changed) == hash(replace(changed))

    def test_the_stored_hash_is_in_neither_repr_nor_equality(self):
        a = plan_of([[1.0, 5.0, 0.0], [9.0, 5.0, 600.0]])
        b = plan_of([[1.0, 5.0, 0.0], [9.0, 5.0, 600.0]])
        assert "_hash" not in repr(a)
        assert repr(a) == repr(b)
        # A plan whose stored hash is off still equals its twin: ``==``
        # reads the fields alone.
        object.__setattr__(b, "_hash", hash(a) + 1)
        assert a == b
        assert [f.name for f in fields(FlightPlan) if f.compare] == [
            "flight_id", "waypoints", "alternates", "departure_delay", "priority_rank"]
