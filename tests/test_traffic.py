"""Insertion protocol, negotiation, weather reaction, and prediction tests.

Negotiation results are checked against an independent brute-force
enumerator that rebuilds the whole occupancy map from scratch for every
candidate assignment.
"""

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adatm import (
    AirspaceState,
    CaseKind,
    FlightPlan,
    GridSpec,
    InsertStatus,
    PlanarBox,
    StormCell,
    TimeInterval,
    TrajectorySegment,
    Waypoint,
    load_scenario,
    simulate,
)
from adatm import scenario as scenario_module
from adatm import traffic
from adatm.airspace import bucket_capacity, storm_overlap_window
from adatm.errors import ConflictError, PreconditionError, ValidationError
from adatm.traffic import DELAY_MENU, MAX_CHANGED_FLIGHTS
from adatm.trajectory import plan_segments, route_spot_bound, segment_trajectory

from conftest import (
    buckets_over,
    congestion_scenario,
    delayed_negotiation_scenario,
    storm_reroute_scenario,
)
from test_golden import _bench_workloads


def plan_of(fid, waypoints, alternates=(), priority=0, delay=0.0):
    return FlightPlan(
        fid,
        tuple(Waypoint(*w) for w in waypoints),
        alternates=tuple(tuple(Waypoint(*w) for w in alt) for alt in alternates),
        departure_delay=delay,
        priority_rank=priority,
    )


def dwell(fid, cell=(0, 0), t0=0.0, t1=3600.0, alternates=(), priority=0):
    x0, y0 = cell[0] * 10.0, cell[1] * 10.0
    return plan_of(fid, [[x0 + 1, y0 + 5, t0], [x0 + 9, y0 + 5, t1]],
                   alternates=alternates, priority=priority)


def two_by_two(calm=6, severe=3, **kwargs):
    return AirspaceState(GridSpec(0, 0, 2, 2, 10.0), bucket_seconds=60.0,
                         calm_capacity=calm, severe_capacity=severe, **kwargs)


def fresh_capacity(state, spot):
    """A spot's capacity by the reference rule, ``bucket_capacity``, over
    storm windows computed anew."""
    sub = state.subsector(*spot[0])
    windows = [storm_overlap_window(storm, sub.bounds) for storm in state.storms]
    return bucket_capacity(sub, TimeInterval(spot[1], spot[1] + state.bucket_seconds),
                           [window for window in windows if window is not None])


def fresh_segments(state, plan, route=-1, delay=0.0):
    """A placement's segments computed anew, bypassing the state's route cache."""
    return tuple(plan_segments(plan, segment_trajectory(plan, state.grid, route), delay))


def brute_force_negotiate(state, conflicts, arriving,
                          max_changed=MAX_CHANGED_FLIGHTS,
                          delay_menu=DELAY_MENU):
    """Naive search over all assignments; occupancy rebuilt from scratch."""
    occupants = set()
    for spot in conflicts:
        occupants.update(state.flights_in(*spot))
    involved = sorted(occupants)
    info = {}
    for fid in involved:
        account = state.flights[fid]
        info[fid] = (account.plan, account.route_index, account.added_delay,
                     account.segments, not state.is_en_route(fid),
                     account.plan.priority_rank)
    if arriving is not None:
        info[arriving.flight_id] = (arriving, -1, 0.0,
                                    fresh_segments(state, arriving), True,
                                    arriving.priority_rank)
        involved = sorted(involved + [arriving.flight_id])

    def options(fid):
        plan, route, delay, current, mutable, _rank = info[fid]
        current_set = {(s.subsector, s.entry, s.exit) for s in current}

        def cost(segments):
            return sum(1 for s in segments
                       if (s.subsector, s.entry, s.exit) not in current_set)

        out = [((route, delay), current, 0)]
        if mutable:
            for ai in range(len(plan.alternates)):
                segments = fresh_segments(state, plan, ai, delay)
                out.append(((ai, delay), segments, cost(segments)))
            for extra in delay_menu:
                segments = fresh_segments(state, plan, route, delay + extra)
                out.append(((route, delay + extra), segments, cost(segments)))
        return out

    menu = {fid: options(fid) for fid in involved}
    best = None
    for combo in itertools.product(*[range(len(menu[fid])) for fid in involved]):
        picked = dict(zip(involved, combo))
        deviators = tuple(sorted(f for f, idx in picked.items() if idx != 0))
        if len(deviators) > max_changed:
            continue
        occ: dict = {}
        for fid, account in state.flights.items():
            segments = menu[fid][picked[fid]][1] if fid in picked \
                else account.segments
            for seg in segments:
                for b in buckets_over(state.bucket_seconds, seg.entry, seg.exit):
                    occ.setdefault((seg.subsector, b), set()).add(fid)
        if arriving is not None:
            for seg in menu[arriving.flight_id][picked[arriving.flight_id]][1]:
                for b in buckets_over(state.bucket_seconds, seg.entry, seg.exit):
                    occ.setdefault((seg.subsector, b), set()).add(arriving.flight_id)
        if any(len(ids) > fresh_capacity(state, spot) for spot, ids in occ.items()):
            continue
        total = sum(menu[fid][picked[fid]][2] for fid in deviators)
        ranks = tuple(sorted((info[fid][5] for fid in deviators), reverse=True))
        tags = tuple(menu[fid][picked[fid]][0] for fid in deviators)
        objective = (total, len(deviators), ranks, deviators, tags)
        if best is None or objective < best:
            best = objective
    return best


class TestOccupancy:
    def test_empty_state(self):
        state = two_by_two()
        assert state.occupancy((0, 0), 0.0) == 0

    def test_four_residents(self):
        state = two_by_two()
        for i in range(4):
            assert state.try_insert(dwell(f"{i + 1:04d}")).status is \
                InsertStatus.Accepted
        assert state.occupancy((0, 0), 0.0) == 4
        assert state.flights_in((0, 0), 0.0) == ("0001", "0002", "0003", "0004")

    def test_bucket_boundary_counts_both_sides(self):
        state = two_by_two()
        state.try_insert(dwell("0001", t0=30.0, t1=90.0))
        assert state.occupancy((0, 0), 0.0) == 1
        assert state.occupancy((0, 0), 60.0) == 1
        assert state.occupancy((0, 0), 120.0) == 0

    def test_duplicate_flight_conflicts(self):
        state = two_by_two()
        state.try_insert(dwell("0001"))
        with pytest.raises(ConflictError):
            state.try_insert(dwell("0001"))


class TestWeatherInputs:
    """Each cell's record keeps its closures and storm windows, so closures
    and storms change only where the records are cleared: closures never,
    storms through ``set_storms``."""

    def test_writes_past_the_capacity_memo_raise(self):
        closed = {(0, 0): (TimeInterval(0.0, 60.0),)}
        storm = StormCell(id="st", box=PlanarBox(0.0, 0.0, 10.0, 10.0),
                          velocity=(0.0, 0.0), active=TimeInterval(0.0, 3600.0))
        assert two_by_two(closures=closed).capacity((0, 0), 0.0) == 0
        state = two_by_two()
        state.set_storms((storm,))
        assert state.capacity((0, 0), 0.0) == 3
        state = two_by_two(closures=closed)
        closed[(0, 1)] = (TimeInterval(0.0, 60.0),)
        assert state.capacity((0, 1), 0.0) == 6  # the state took a copy
        state = two_by_two()
        assert state.capacity((0, 0), 0.0) == 6
        with pytest.raises(TypeError):
            state.closures[(0, 0)] = (TimeInterval(0.0, 60.0),)
        with pytest.raises(AttributeError):
            state.storms = (storm,)
        assert state.closures == {} and state.storms == ()
        assert state.capacity((0, 0), 0.0) == 6
        state.set_storms((storm,))
        assert state.storms == (storm,)
        assert state.capacity((0, 0), 0.0) == 3


class TestClassifyInsert:
    def test_case1_with_headroom(self):
        state = two_by_two()
        for i in range(4):
            state.try_insert(dwell(f"{i + 1:04d}"))
        verdict = state.classify_insert(state.account_for(dwell("3412")).spots)
        assert verdict.kind is CaseKind.Case1

    def test_case2_at_capacity(self):
        state = two_by_two()
        for i in range(6):
            state.try_insert(dwell(f"{i + 1:04d}"))
        verdict = state.classify_insert(state.account_for(dwell("3412")).spots)
        assert verdict.kind is CaseKind.Case2
        assert (((0, 0), 0.0)) in verdict.spots

    def test_case3_closed_interval(self):
        state = two_by_two(closures={(0, 0): (TimeInterval(0.0, 600.0),)})
        verdict = state.classify_insert(state.account_for(dwell("3412")).spots)
        assert verdict.kind is CaseKind.Case3


class TestTryInsert:
    def test_accepted_with_headroom(self):
        state = two_by_two()
        for i in range(4):
            state.try_insert(dwell(f"{i + 1:04d}"))
        outcome = state.try_insert(dwell("3412"))
        assert outcome.status is InsertStatus.Accepted
        assert not [r for r in state.predict_congestion() if r.congested]

    def test_rejected_when_saturated_without_options(self):
        state = two_by_two()
        for i in range(6):
            state.try_insert(dwell(f"{i + 1:04d}"))
        outcome = state.try_insert(dwell("3412"))
        assert outcome.status is InsertStatus.Rejected
        assert outcome.violated is not None
        assert "3412" not in state.flights
        assert state.occupancy((0, 0), 0.0) == 6  # state unchanged

    def test_rejection_names_its_bucket_in_full(self):
        # Six significant digits would print 10,000,200 as 1.00002e+07.
        state = two_by_two(closures={(0, 0): (TimeInterval(10_000_200.0, 10_003_000.0),)})
        outcome = state.try_insert(dwell("3412", t0=10_000_210.0, t1=10_000_330.0))
        assert outcome.status is InsertStatus.Rejected
        assert outcome.reason == ("no feasible plan: subsector=(0, 0) bucket=10000200 "
                                  "occupancy=0 capacity=0")

    def test_rerouted_via_own_alternate(self):
        state = two_by_two()
        for i in range(6):
            state.try_insert(dwell(f"{i + 1:04d}"))
        arriving = plan_of(
            "3412",
            [[5.0, 15.0, 0.0], [5.0, 5.0, 1200.0], [15.0, 5.0, 2400.0],
             [15.0, 15.0, 3600.0]],
            alternates=[[[5.0, 15.0, 0.0], [15.0, 15.0, 3600.0]]])
        outcome = state.try_insert(arriving)
        assert outcome.status is InsertStatus.Rerouted
        assert outcome.changed_flights == ("3412",)
        assert outcome.new_plans[0].route_index == 0
        # The chosen plan avoids the saturated cell entirely.
        cells = {s.subsector for s in state.flights["3412"].segments}
        assert (0, 0) not in cells
        assert not [r for r in state.predict_congestion() if r.congested]


class TestNegotiate:
    def test_requires_conflicts(self):
        with pytest.raises(PreconditionError):
            two_by_two().negotiate((), arriving=None)

    def test_arrival_delay_chosen_when_cheapest(self):
        # Resident crosses two cells (cost 2 if moved); the arriving flight
        # dwells in one (cost 1 if delayed): delaying the arrival wins.
        state = AirspaceState(GridSpec(0, 0, 1, 2, 10.0), bucket_seconds=60.0,
                              calm_capacity=1, severe_capacity=1)
        resident = plan_of("0001", [[5.0, 15.0, 0.0], [5.0, 5.0, 240.0]])
        assert state.try_insert(resident).status is InsertStatus.Accepted
        arriving = plan_of("3412", [[1.0, 2.0, 0.0], [9.0, 2.0, 300.0]])
        verdict = state.classify_insert(state.account_for(arriving).spots)
        assert verdict.kind is CaseKind.Case2
        expected = brute_force_negotiate(state, verdict.spots, arriving)
        resolution = state.negotiate(verdict.spots, state.account_for(arriving))
        assert resolution is not None
        assert resolution.objective == expected
        assert [c.flight_id for c in resolution.choices] == ["3412"]
        assert resolution.choices[0].added_delay == 300.0
        assert resolution.choices[0].route_index == -1

    def test_no_feasible_option_returns_none(self):
        state = two_by_two()
        for i in range(6):
            state.try_insert(dwell(f"{i + 1:04d}"))
        arriving = dwell("3412")
        verdict = state.classify_insert(state.account_for(arriving).spots)
        assert state.negotiate(verdict.spots, state.account_for(arriving)) is None
        assert brute_force_negotiate(state, verdict.spots, arriving) is None

    def _occupant_vs_arrival_state(self):
        state = AirspaceState(GridSpec(0, 0, 5, 3, 10.0), bucket_seconds=60.0,
                              calm_capacity=1, severe_capacity=1)
        occupant = plan_of(
            "0001", [[15.0, 5.0, 960.0], [35.0, 5.0, 2160.0]],
            alternates=[[[15.0, 5.0, 960.0], [25.0, 15.0, 1560.0],
                         [34.0, 15.0, 2100.0], [35.0, 5.0, 2160.0]]])
        assert state.try_insert(occupant).status is InsertStatus.Accepted
        arriving = plan_of(
            "3412", [[5.0, 5.0, 0.0], [45.0, 5.0, 2400.0]],
            alternates=[[[5.0, 5.0, 0.0], [5.0, 15.0, 300.0],
                         [45.0, 15.0, 2700.0], [45.0, 5.0, 3000.0]]])
        return state, arriving

    def test_occupant_cheaper_than_newest_addition(self):
        # The resident's escape costs 3 changed segments, the arrival's 7;
        # the resident moves even though the arrival is the newcomer.
        state, arriving = self._occupant_vs_arrival_state()
        verdict = state.classify_insert(state.account_for(arriving).spots)
        assert verdict.kind is CaseKind.Case2
        expected = brute_force_negotiate(state, verdict.spots, arriving)
        resolution = state.negotiate(verdict.spots, state.account_for(arriving))
        assert resolution.objective == expected
        assert [c.flight_id for c in resolution.choices] == ["0001"]

    def test_occupant_alternate_beats_arrival_alternate(self, monkeypatch):
        # Same instance with delays disabled: both alternates are feasible
        # and the occupant's is cheaper.
        monkeypatch.setattr("adatm.traffic.DELAY_MENU", ())
        state, arriving = self._occupant_vs_arrival_state()
        verdict = state.classify_insert(state.account_for(arriving).spots)
        expected = brute_force_negotiate(state, verdict.spots, arriving,
                                         delay_menu=())
        resolution = state.negotiate(verdict.spots, state.account_for(arriving))
        assert resolution.objective == expected
        assert [c.flight_id for c in resolution.choices] == ["0001"]
        assert resolution.choices[0].route_index == 0

    def test_locality_changed_flights_touch_conflicts(self):
        state, arriving = self._occupant_vs_arrival_state()
        verdict = state.classify_insert(state.account_for(arriving).spots)
        resolution = state.negotiate(verdict.spots, state.account_for(arriving))
        conflict_spots = set(verdict.spots)
        for choice in resolution.choices:
            if choice.flight_id == arriving.flight_id:
                segments = fresh_segments(state, arriving)
            else:
                segments = state.flights[choice.flight_id].segments
            touched = set(state.segment_spots(segments))
            assert touched & conflict_spots

    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances_match_brute_force(self, seed):
        rng = random.Random(seed)
        state, arriving, verdict = draw_conflicted_instance(rng)
        expected = brute_force_negotiate(state, verdict.spots, arriving)
        resolution = state.negotiate(verdict.spots, state.account_for(arriving))
        if expected is None:
            assert resolution is None
        else:
            assert resolution.objective == expected


def draw_conflicted_instance(rng, max_flights=3):
    """Keep sampling small states until the arriving plan draws a conflict."""

    def random_plan(fid):
        cells = rng.sample([(0, 0), (1, 0), (2, 0), (3, 0)], k=rng.randint(1, 2))
        t = rng.choice([0.0, 300.0, 600.0])
        waypoints = []
        for cell in cells:
            waypoints.append([cell[0] * 10 + 1.0, 5.0, t])
            t += rng.choice([300.0, 600.0])
        if len(waypoints) == 1:
            waypoints.append([cells[0][0] * 10 + 9.0, 5.0, t])
        alternates = []
        if rng.random() < 0.6:
            first, last = waypoints[0], waypoints[-1]
            mid_t = (first[2] + last[2]) / 2
            alternates.append([first, [first[0], 15.0, mid_t], last])
        return plan_of(fid, waypoints, alternates=alternates,
                       priority=rng.randint(0, 2))

    while True:
        state = AirspaceState(GridSpec(0, 0, 4, 2, 10.0), bucket_seconds=60.0,
                              calm_capacity=1, severe_capacity=1)
        for i in range(rng.randint(1, max_flights)):
            plan = random_plan(f"{i + 1:04d}")
            if state.classify_insert(
                    state.account_for(plan).spots).kind is CaseKind.Case1:
                state.try_insert(plan)
        if not state.flights:
            continue
        arriving = random_plan("9999")
        verdict = state.classify_insert(state.account_for(arriving).spots)
        if verdict.kind is not CaseKind.Case1:
            return state, arriving, verdict


def storm_covering_00():
    # Enters cell (0, 0) at t = 1200, leaves at 1600 (see airspace tests).
    return StormCell(id="st", box=PlanarBox(-40.0, 0.0, -30.0, 10.0),
                     velocity=(0.05, 0.0), active=TimeInterval(600.0, 3000.0))


def arc_alt(cell=(0, 0), t0=0.0, t1=3600.0):
    """Alternate for ``dwell`` that spends its middle in the cell above."""
    x0, y0 = cell[0] * 10.0, cell[1] * 10.0
    return [[x0 + 1, y0 + 5, t0], [x0 + 5, y0 + 15, (t0 + t1) / 2], [x0 + 9, y0 + 5, t1]]


def draw_storm_instance(rng, max_flights=5):
    """Keep sampling small states until a storm leaves a bucket over capacity.

    Dwell flights crowd row 0 of a 3x2 grid, most with an alternate through
    row 1.  A still storm over one or two cells drops their capacity to 0
    or 1, and a clock at 300 s puts the earliest flights en route.
    """
    while True:
        state = AirspaceState(GridSpec(0, 0, 3, 2, 10.0), bucket_seconds=300.0,
                              calm_capacity=rng.randint(2, 3),
                              severe_capacity=rng.choice([0, 1, 1]))
        state.advance_weather(rng.choice([0.0, 300.0]))
        for i in range(rng.randint(2, max_flights)):
            cell = rng.choice([(0, 0), (0, 0), (1, 0), (2, 0)])
            t0 = rng.choice([0.0, 300.0, 600.0])
            t1 = t0 + rng.choice([600.0, 1200.0, 1800.0])
            alternates = [arc_alt(cell, t0, t1)] if rng.random() < 0.8 else []
            state.try_insert(dwell(f"{i + 1:04d}", cell, t0, t1, alternates,
                                   priority=rng.randint(0, 2)))
        x0 = rng.choice([0.0, 10.0])
        state.set_storms((StormCell(
            "st", PlanarBox(x0, 0.0, x0 + rng.choice([10.0, 20.0]), 10.0), (0.0, 0.0),
            TimeInterval(rng.choice([0.0, 600.0]), rng.choice([1200.0, 2400.0]))),))
        violations = state._capacity_violations()
        if violations:
            return state, violations


def short_spots(state, conflicts, arriving=None):
    """(shortfall, current holders) for each spot a negotiation must free."""
    arriving_spots = state.account_for(arriving).spots if arriving else frozenset()
    out = []
    for spot in set(conflicts) | arriving_spots:
        holders = set(state.flights_in(*spot))
        if spot in arriving_spots:
            holders.add(arriving.flight_id)
        need = len(holders) - fresh_capacity(state, spot)
        if need > 0:
            out.append((need, holders))
    return out


def spy_feasible(monkeypatch):
    """Record the deviator ids of every assignment ``_feasible`` checks."""
    reached = []
    real = traffic._feasible

    def spy(picks, *args):
        reached.append({option.plan.flight_id for option in picks})
        return real(picks, *args)

    monkeypatch.setattr(traffic, "_feasible", spy)
    return reached


class TestAdvanceWeather:
    def test_no_storms_no_events(self):
        state = two_by_two()
        state.try_insert(dwell("0001"))
        assert state.advance_weather(0.0) == []

    def test_storm_over_empty_cells_no_events(self):
        state = two_by_two()
        state.try_insert(dwell("0001", cell=(0, 1)))
        state.set_storms((storm_covering_00(),))
        assert state.advance_weather(0.0) == []

    def test_reroute_restores_capacity(self):
        state = two_by_two()
        for i in range(4):
            state.try_insert(dwell(f"{i + 1:04d}", alternates=[arc_alt()]))
        state.set_storms((storm_covering_00(),))
        events = state.advance_weather(0.0)
        kinds = [e.kind for e in events]
        assert "capacity-drop" in kinds
        assert "reroute" in kinds
        assert "bumped" not in kinds
        for start in (1200.0, 1260.0, 1560.0):
            assert state.occupancy((0, 0), start) <= state.capacity((0, 0), start)
        assert len(state.flights) == 4  # nobody removed

    def test_bump_when_no_options(self):
        state = two_by_two()
        for i in range(4):
            state.try_insert(dwell(f"{i + 1:04d}"))
        state.set_storms((storm_covering_00(),))
        events = state.advance_weather(0.0)
        bumped = [e for e in events if e.kind == "bumped"]
        assert [e.flight_ids[0] for e in bumped] == ["0001"]
        assert "0001" not in state.flights
        for start in (1200.0, 1260.0, 1560.0):
            assert state.occupancy((0, 0), start) <= state.capacity((0, 0), start)

    def test_reroute_event_names_the_spot_the_flight_left(self):
        state = AirspaceState(GridSpec(0, 0, 2, 2, 10.0), bucket_seconds=600.0,
                              calm_capacity=6, severe_capacity=1)
        for fid, cell in (("a1", (0, 0)), ("a2", (0, 0)),
                          ("b1", (1, 0)), ("b2", (1, 0))):
            state.try_insert(dwell(fid, cell=cell, t1=600.0))
        state.set_storms((StormCell(id="st", box=PlanarBox(0.0, 0.0, 20.0, 10.0),
                                    velocity=(0.0, 0.0),
                                    active=TimeInterval(0.0, 600.0)),))
        reroutes = [(e.flight_ids, e.subsector, e.bucket_start, e.detail)
                    for e in state.advance_weather(0.0) if e.kind == "reroute"]
        assert reroutes == [(("a1",), (0, 0), 0.0, "route=-1 delay=600"),
                            (("b1",), (1, 0), 0.0, "route=-1 delay=600")]

    def test_rewind_rejected(self):
        state = two_by_two()
        state.advance_weather(100.0)
        with pytest.raises(PreconditionError):
            state.advance_weather(50.0)

    @pytest.mark.parametrize("to_time", [math.nan, math.inf, -math.inf, 99.0, -1.0])
    def test_clock_moves_only_forward_to_a_finite_time(self, to_time):
        state = two_by_two()
        for i in range(4):
            state.try_insert(dwell(f"{i + 1:04d}", t0=300.0))
        state.advance_weather(100.0)
        # A re-check at any time from 100 s on would bump 0001.
        state.set_storms((storm_covering_00(),))
        flights, records = dict(state.flights), state.predict_congestion()
        with pytest.raises(PreconditionError):
            state.advance_weather(to_time)
        assert state.now == 100.0
        assert state.flights == flights and state.predict_congestion() == records


class TestWeatherNegotiate:
    """``negotiate(violations, arriving=None)``, the weather path."""

    SEEDS = range(40)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_storm_instances_match_brute_force(self, seed):
        state, violations = draw_storm_instance(random.Random(seed))
        expected = brute_force_negotiate(state, violations, None)
        resolution = state.negotiate(violations, arriving=None)
        if expected is None:
            assert resolution is None
        else:
            assert resolution.objective == expected

    def test_random_storm_instances_include_deep_and_infeasible_searches(self):
        deviators = set()
        for seed in self.SEEDS:
            state, violations = draw_storm_instance(random.Random(seed))
            resolution = state.negotiate(violations, arriving=None)
            deviators.add(None if resolution is None else len(resolution.options))
        assert {2, 3, None} <= deviators

    def test_feasibility_is_checked_only_on_covering_deviator_sets(self, monkeypatch):
        reached = spy_feasible(monkeypatch)
        checked = 0
        for seed in self.SEEDS:
            state, violations = draw_storm_instance(random.Random(seed))
            state_in, arriving, verdict = draw_conflicted_instance(random.Random(seed))
            for st, conflicts, plan in ((state, violations, None),
                                        (state_in, verdict.spots, arriving)):
                del reached[:]
                st.negotiate(conflicts, st.account_for(plan) if plan else None)
                short = short_spots(st, conflicts, plan)
                for deviators in reached:
                    assert all(len(holders & deviators) >= need
                               for need, holders in short)
                checked += len(reached)
        assert checked > 0

    def test_fewer_feasibility_checks_than_exhaustive_search(self, monkeypatch):
        # Five residents under a storm that leaves room for two: three must
        # move.  Enumerating every deviator set checks 813 assignments here.
        state = two_by_two(severe=2)
        for i in range(5):
            state.try_insert(dwell(f"{i + 1:04d}", alternates=[arc_alt()],
                                   priority=i % 3))
        state.set_storms((storm_covering_00(),))
        reached = spy_feasible(monkeypatch)
        events = state.advance_weather(0.0)
        assert [e.kind for e in events].count("reroute") == 3
        assert 0 < len(reached) < 813


def assert_occupancy_matches_accounts(state):
    """The incremental occupancy map equals one rebuilt from the accounts,
    and the segment data published for a flight carry its account's
    version."""
    rebuilt = {}
    for fid, account in state.flights.items():
        assert account.spots == set(state.segment_spots(account.segments))
        for seg in account.segments:
            for b in buckets_over(state.bucket_seconds, seg.entry, seg.exit):
                rebuilt.setdefault((seg.subsector, b), set()).add(fid)
        data = scenario_module._segment_data(state, fid)
        assert [d.payload["version"] for d in data] == [account.version] * len(data)
    assert state._occ == rebuilt


def spy_applied(monkeypatch):
    """Record each applied resolution with the accounts its movers held
    before (None for the arriving flight)."""
    applied = []
    real = AirspaceState.apply_resolution

    def spy(self, resolution):
        applied.append((resolution, {option.plan.flight_id:
                                     self.flights.get(option.plan.flight_id)
                                     for option in resolution.options}))
        return real(self, resolution)

    monkeypatch.setattr(AirspaceState, "apply_resolution", spy)
    return applied


def assert_movers_hold_the_picked_accounts(state, applied):
    """Each moved flight holds the very account picked for it, one plan
    version past its previous one (an arrival at version 1), equal to the
    same placement built by a fresh state."""
    fresh = AirspaceState(state.grid, bucket_seconds=state.bucket_seconds)
    assert applied
    for resolution, before in applied:
        for option in resolution.options:
            previous = before[option.plan.flight_id]
            version = 1 if previous is None else previous.version + 1
            assert state.flights[option.plan.flight_id] is option
            assert option == fresh.account_for(
                option.plan, option.route_index, option.added_delay, version)


def _bench_scenario(workload, seed, index):
    return load_scenario(_bench_workloads().WORKLOADS[workload].generate(seed, index))


#: Inputs whose run negotiates, each with the number of ``negotiate`` calls
#: it makes on insertion and on the weather path.  Chosen before the run,
#: so that the brute force over all of them stays near two seconds.
PIPELINE_NEGOTIATIONS = {
    "contended-seed-3-scenario-0": (lambda: _bench_scenario("contended", 3, 0), 2, 0),
    "storm-seed-3-scenario-0": (lambda: _bench_scenario("storm", 3, 0), 0, 1),
    "storm-reroute": (storm_reroute_scenario, 0, 1),
    "storm-reroute-no-alternates": (
        lambda: storm_reroute_scenario(with_alternates=False), 0, 1),
    "delayed-negotiation": (delayed_negotiation_scenario, 6, 1),
    "saturated-cell": (lambda: congestion_scenario(residents=6), 1, 0),
}


def spy_negotiations(monkeypatch) -> list[tuple[bool, tuple | None, tuple | None]]:
    """Have every ``negotiate`` call also run ``brute_force_negotiate`` on the
    same state, conflicts and arriving plan; returns the list it fills, per
    call: whether it is on the weather path, the objective found and the
    brute force's."""
    checked = []
    real = AirspaceState.negotiate

    def spy(self, conflicts, arriving):
        expected = brute_force_negotiate(
            self, conflicts, None if arriving is None else arriving.plan)
        resolution = real(self, conflicts, arriving)
        got = None if resolution is None else resolution.objective
        checked.append((arriving is None, got, expected))
        return resolution

    monkeypatch.setattr(AirspaceState, "negotiate", spy)
    return checked


class TestPipelineNegotiationsMatchBruteForce:
    """Every negotiation a run makes, in the state the run has reached, has
    the objective ``brute_force_negotiate`` finds for the same state,
    conflicts and arriving plan (None on the weather path)."""

    @pytest.mark.parametrize("name", sorted(PIPELINE_NEGOTIATIONS))
    def test_every_negotiation_matches(self, name, monkeypatch):
        build, insertions, weather = PIPELINE_NEGOTIATIONS[name]
        scenario = build()
        checked = spy_negotiations(monkeypatch)
        simulate(scenario)
        assert [got for _, got, _ in checked] == [expected for _, _, expected in checked]
        on_weather = sum(1 for weather_path, _, _ in checked if weather_path)
        assert (len(checked) - on_weather, on_weather) == (insertions, weather)


class TestOccupancyInvariant:
    @pytest.mark.parametrize("seed", range(12))
    def test_after_negotiated_insert_and_removal(self, seed, monkeypatch):
        state, arriving, _ = draw_conflicted_instance(random.Random(seed))
        applied = spy_applied(monkeypatch)
        outcome = state.try_insert(arriving)
        assert_occupancy_matches_accounts(state)
        if outcome.status is InsertStatus.Rerouted:
            assert_movers_hold_the_picked_accounts(state, applied)
        for fid in sorted(state.flights):
            state.remove_flight(fid)
            assert_occupancy_matches_accounts(state)
        assert state._occ == {}

    @pytest.mark.parametrize("alternates, kind", [([arc_alt()], "reroute"),
                                                  ((), "bumped")])
    def test_after_weather(self, alternates, kind, monkeypatch):
        state = two_by_two()
        for i in range(4):
            state.try_insert(dwell(f"{i + 1:04d}", alternates=alternates))
        state.set_storms((storm_covering_00(),))
        applied = spy_applied(monkeypatch)
        assert kind in [e.kind for e in state.advance_weather(0.0)]
        assert_occupancy_matches_accounts(state)
        if kind == "reroute":
            assert_movers_hold_the_picked_accounts(state, applied)


_ROW_0 = [(0, 0), (1, 0), (2, 0)]


class TestCapacityViolations:
    """The weather re-check reads each occupied spot once and sorts only the
    spots over capacity: after ``set_storms`` lowers capacities it equals a
    sorted scan of every occupied spot of the window against a capacity
    computed anew."""

    @settings(max_examples=150, deadline=None)
    @given(calm=st.integers(1, 3), severe=st.integers(0, 1),
           horizon=st.sampled_from([300.0, 900.0, 14400.0]),
           now=st.sampled_from([0.0, 150.0, 300.0, 900.0]),
           storm=st.tuples(st.sampled_from([0.0, 10.0]), st.sampled_from([10.0, 20.0]),
                           st.sampled_from([0.0, 600.0])),
           warm=st.integers(0, 8),
           flights=st.lists(st.tuples(
               st.sampled_from(_ROW_0), st.sampled_from([0.0, 300.0, 600.0]),
               st.sampled_from([600.0, 1200.0])), min_size=1, max_size=8))
    def test_equals_the_sorted_scan(self, calm, severe, horizon, now, storm, warm,
                                    flights):
        state = AirspaceState(GridSpec(0, 0, 3, 2, 10.0), bucket_seconds=300.0,
                              calm_capacity=calm, severe_capacity=severe,
                              horizon_seconds=horizon)
        for i, (cell, t0, length) in enumerate(flights):
            state.try_insert(dwell(f"{i + 1:04d}", cell, t0, t0 + length))
        state.set_storms((StormCell(
            "st", PlanarBox(storm[0], 0.0, storm[0] + storm[1], 10.0), (0.0, 0.0),
            TimeInterval(storm[2], storm[2] + 1800.0)),))
        state.now = now
        # Some cells' records are built before the re-check, the rest in it.
        for spot in sorted(state._occ)[:warm]:
            state.capacity(*spot)
        # The window as ``predict_congestion`` lists it.
        start = math.floor(now / state.bucket_seconds) * state.bucket_seconds
        expected = sorted(spot for spot, ids in state._occ.items()
                          if start <= spot[1] < now + horizon
                          and len(ids) > fresh_capacity(state, spot))
        assert state._capacity_violations() == tuple(expected)

    def test_the_bucket_holding_now_is_rechecked_as_the_report_lists_it(self):
        # At 0.6 s with 0.1 s buckets, 0.5 + 0.1 is not above 0.6 in floats,
        # but floor(0.6 / 0.1) is 5: bucket 0.5 holds the clock.
        state = AirspaceState(GridSpec(0, 0, 1, 1, 10.0), bucket_seconds=0.1,
                              calm_capacity=2, severe_capacity=1)
        for fid in ("0001", "0002"):
            state.try_insert(dwell(fid, t0=0.0, t1=1.0))
        state.set_storms((StormCell("st", PlanarBox(0.0, 0.0, 10.0, 10.0), (0.0, 0.0),
                                    TimeInterval(0.0, 10.0)),))
        state.now = 0.6
        over = [(r.subsector, r.bucket_start) for r in state.predict_congestion()
                if r.congested]
        assert over[0] == ((0, 0), 0.5)
        assert state._capacity_violations() == tuple(over)
        events = state.advance_weather(0.6)
        assert {(e.kind, e.bucket_start) for e in events if e.bucket_start == 0.5} == {
            ("capacity-drop", 0.5), ("excess", 0.5)}


class TestInsertionKeepsRoom:
    """No insertion leaves a spot over its room under the storms it was
    classified with: Case 1 fits by its test and a negotiated placement by
    ``_feasible``.  So, until another storm is set, ``advance_weather``
    finds nothing, and the simulation driver skips it when no reported
    storm is confirmed."""

    @settings(max_examples=150, deadline=None)
    @given(calm=st.integers(1, 2), severe=st.integers(0, 1),
           closures=st.lists(st.tuples(
               st.sampled_from(_ROW_0 + [(1, 1)]), st.sampled_from([0.0, 300.0, 900.0]),
               st.sampled_from([300.0, 600.0, 1800.0])), max_size=3),
           storm=st.none() | st.tuples(st.sampled_from([0.0, 10.0]),
                                       st.sampled_from([10.0, 20.0]),
                                       st.sampled_from([0.0, 600.0])),
           flights=st.lists(st.tuples(
               st.sampled_from(_ROW_0), st.sampled_from([0.0, 300.0, 600.0]),
               st.sampled_from([600.0, 1200.0]), st.booleans(), st.integers(0, 2)),
               min_size=1, max_size=6))
    def test_no_spot_over_its_room_after_any_insertion(self, calm, severe, closures,
                                                        storm, flights):
        closed: dict = {}
        for cell, t0, length in closures:
            closed[cell] = closed.get(cell, ()) + (TimeInterval(t0, t0 + length),)
        storms = () if storm is None else (StormCell(
            "st", PlanarBox(storm[0], 0.0, storm[0] + storm[1], 10.0), (0.0, 0.0),
            TimeInterval(storm[2], storm[2] + 1800.0)),)
        state = AirspaceState(GridSpec(0, 0, 3, 2, 10.0), bucket_seconds=300.0,
                              calm_capacity=calm, severe_capacity=severe,
                              closures=closed)
        state.set_storms(storms)
        for i, (cell, t0, length, alternate, priority) in enumerate(flights):
            alternates = [arc_alt(cell, t0, t0 + length)] if alternate else []
            state.try_insert(dwell(f"{i + 1:04d}", cell, t0, t0 + length, alternates,
                                   priority))
            assert state._capacity_violations() == ()
        assert state.advance_weather(0.0) == []


def _random_route(rng, t0, t1, legs):
    """A route over [t0, t1] in an 8x8 grid of edge 10 at the origin; about
    a third of its coordinates sit exactly on a grid line."""
    times = sorted(rng.uniform(t0, t1) for _ in range(legs - 1))
    route = []
    for t in [t0, *times, t1]:
        x, y = (rng.choice([10.0 * rng.randint(0, 7), rng.uniform(0.0, 79.9)])
                for _ in range(2))
        route.append([x, y, t])
    return route


class TestSpotBound:
    """``route_spot_bound``, which a scenario must keep within
    ``MAX_SPOTS`` to load, bounds every placement a negotiation tries."""

    @pytest.mark.parametrize("bucket", [7.0, 60.0, 600.0])
    def test_spots_within_bound_at_every_delay(self, bucket):
        rng = random.Random(f"spot-bound:{bucket}")
        grid = GridSpec(0, 0, 8, 8, 10.0)
        state = AirspaceState(grid, bucket_seconds=bucket)
        for trial in range(150):
            t0 = rng.uniform(0.0, 600.0)
            t1 = t0 + rng.uniform(60.0, 2400.0)
            route = _random_route(rng, t0, t1, rng.randint(1, 4))
            alternate = _random_route(rng, t0, t1, rng.randint(2, 4))
            alternate[0][:2], alternate[-1][:2] = route[0][:2], route[-1][:2]
            plan = plan_of(f"f{trial}", route, alternates=[alternate],
                           delay=rng.choice([0.0, rng.uniform(0.0, 900.0)]))
            for r in (-1, 0):
                bound = route_spot_bound(plan.route(r), grid, bucket)
                for d in (0.0, *DELAY_MENU):
                    assert len(state.account_for(plan, r, d).spots) <= bound


def placement_from_scratch(state, plan, route, delay, version):
    """A placement's flight, version, segments and spots from a fresh
    segmentation, the delay shift written out, and a walk over the buckets
    each segment overlaps."""
    total = plan.departure_delay + delay
    segments = []
    for s in segment_trajectory(plan, state.grid, route):
        entry, exit_ = s.entry + total, s.exit + total
        if entry < exit_:
            segments.append((s.subsector, entry, exit_))
    dt = state.bucket_seconds
    spots = {(cell, i * dt) for cell, entry, exit_ in segments
             for i in range(math.floor(entry / dt), math.ceil(exit_ / dt))}
    return plan.flight_id, version, segments, spots


def placement_of(account):
    return (account.plan.flight_id, account.version,
            [(s.subsector, s.entry, s.exit) for s in account.segments], account.spots)


class TestPlacementCache:
    """``account_for`` segments a route once per plan and shifts that
    segmentation per placement; each placement equals one from scratch."""

    def test_placements_match_a_fresh_segmentation(self):
        rng = random.Random("placement-cache")
        state = AirspaceState(GridSpec(0, 0, 8, 8, 10.0), bucket_seconds=60.0)
        for trial in range(150):
            t0 = rng.uniform(0.0, 600.0)
            t1 = t0 + rng.uniform(60.0, 2400.0)
            route = _random_route(rng, t0, t1, rng.randint(1, 4))
            if trial % 3 == 0:
                route[-1][:2] = [10.0 * rng.randint(1, 7), 10.0 * rng.randint(1, 7)]
            alternate = _random_route(rng, t0, t1, rng.randint(2, 4))
            alternate[0][:2], alternate[-1][:2] = route[0][:2], route[-1][:2]
            # Few flight ids, so different plans share one.
            plan = plan_of(f"f{trial % 4}", route, alternates=[alternate],
                           delay=rng.choice([37.3, rng.uniform(0.0, 900.0)]))
            placements = [(r, d, rng.randint(1, 4)) for r in (-1, 0)
                          for d in (0.0, *DELAY_MENU, DELAY_MENU[0] + DELAY_MENU[1])]
            rng.shuffle(placements)
            for r, d, v in placements:
                assert placement_of(state.account_for(plan, r, d, v)) == \
                    placement_from_scratch(state, plan, r, d, v)

    def test_a_new_plan_under_a_removed_flights_id(self):
        state = two_by_two()
        state.try_insert(plan_of("0001", [[1.0, 5.0, 13.7], [9.0, 5.0, 1247.9]]))
        state.remove_flight("0001")
        again = plan_of("0001", [[1.0, 5.0, 13.7], [19.0, 15.0, 1247.9]], delay=37.3)
        state.try_insert(again)
        assert placement_of(state.flights["0001"]) == \
            placement_from_scratch(state, again, -1, 0.0, 1)


def _segment_times(dt, near):
    """Times within 40 buckets of ``near``: on a bucket edge or anywhere."""
    edge = st.integers(-40, 40).map(lambda k: (math.floor(near / dt) + k) * dt)
    free = st.floats(-40.0, 40.0).map(lambda f: near + f * dt)
    return st.one_of(edge, free)


class TestSpotsFromBucketIndices:
    """``segment_spots`` reads each segment's buckets from their indices;
    it holds exactly the spots the reference ``conftest.buckets_over``
    lists."""

    @settings(max_examples=300, deadline=None)
    @given(dt=st.sampled_from([0.1, 7.0, 60.0]), data=st.data())
    def test_equals_the_buckets_over_set(self, dt, data):
        state = AirspaceState(GridSpec(0, 0, 2, 2, 10.0), bucket_seconds=dt)
        # Both ends near 0 or both near 2**40, so a segment spans few buckets.
        times = _segment_times(dt, data.draw(st.sampled_from([0.0, 2.0 ** 40])))
        segments = []
        for n in range(data.draw(st.integers(1, 4))):
            entry = data.draw(times)
            if data.draw(st.booleans()):  # shorter than a bucket
                exit_ = entry + data.draw(st.floats(0.0, 1.0, exclude_min=True,
                                                    exclude_max=True)) * dt
            else:
                exit_ = data.draw(times)
            assume(entry < exit_)
            segments.append(TrajectorySegment((n % 2, 0), entry, exit_))
        expected = {(seg.subsector, b) for seg in segments
                    for b in buckets_over(dt, seg.entry, seg.exit)}
        assert state.segment_spots(segments) == expected


class TestSpotAllocationBound:
    """``segment_spots`` counts the buckets before it builds a spot: more
    than ``MAX_SPOTS`` in all is a ``PreconditionError``.  The bound is
    patched small, so a missing guard fails an assertion, not the
    allocator."""

    def test_the_bound_is_the_scenario_bound(self):
        assert scenario_module.MAX_SPOTS is traffic.MAX_SPOTS

    def test_more_buckets_than_the_bound_raise(self, monkeypatch):
        monkeypatch.setattr(traffic, "MAX_SPOTS", 10)
        state = two_by_two()
        # Ten buckets of cell (0, 0), then one more in cell (1, 0).
        segments = [TrajectorySegment((0, 0), 0.0, 600.0)]
        assert len(state.segment_spots(segments)) == 10
        segments.append(TrajectorySegment((1, 0), 600.0, 630.0))
        with pytest.raises(PreconditionError):
            state.segment_spots(segments)

    def test_counts_every_segment_bucket_not_the_distinct_spots(self, monkeypatch):
        monkeypatch.setattr(traffic, "MAX_SPOTS", 11)
        state = two_by_two()
        # Eleven segment buckets: the two segments share bucket 540's spot.
        segments = [TrajectorySegment((0, 0), 0.0, 570.0),
                    TrajectorySegment((0, 0), 570.0, 600.0)]
        assert len(state.segment_spots(segments)) == 10
        with pytest.raises(PreconditionError):
            state.segment_spots(segments + [TrajectorySegment((0, 0), 0.0, 1.0)])

    def test_account_for_a_long_flight_raises(self, monkeypatch):
        monkeypatch.setattr(traffic, "MAX_SPOTS", 100)
        state = two_by_two()
        assert len(state.account_for(dwell("f", t1=6000.0)).spots) == 100
        with pytest.raises(PreconditionError):
            state.account_for(dwell("g", t1=6030.0))


class TestOptionsMatchTheirAccounts:
    """An option is the account it would place, priced by the number of its
    segments absent from the flight's current placement."""

    @pytest.mark.parametrize("bucket", [7.0, 60.0])
    def test_spots_and_cost_equal_account_for(self, bucket):
        rng = random.Random(f"options:{bucket}")
        state = AirspaceState(GridSpec(0, 0, 8, 8, 10.0), bucket_seconds=bucket)
        for trial in range(100):
            t0 = rng.uniform(0.0, 600.0)
            t1 = t0 + rng.uniform(60.0, 2400.0)
            route = _random_route(rng, t0, t1, rng.randint(1, 4))
            alternates = []
            for _ in range(rng.randint(0, 2)):
                alternate = _random_route(rng, t0, t1, rng.randint(2, 4))
                alternate[0][:2], alternate[-1][:2] = route[0][:2], route[-1][:2]
                alternates.append(alternate)
            # An alternate equal to the filed route costs nothing at the same delay.
            if alternates and rng.random() < 0.5:
                alternates[0] = route
            plan = plan_of(f"f{trial % 4}", route, alternates=alternates,
                           delay=rng.choice([0.0, 37.3, rng.uniform(0.0, 900.0)]))
            current = state.account_for(
                plan, rng.randrange(-1, len(alternates)),
                rng.choice([0.0, *DELAY_MENU, rng.uniform(0.0, 900.0)]), rng.randint(1, 4))
            held = {(s.subsector, s.entry, s.exit) for s in current.segments}
            options = state._options_for(current, current.version + 1)
            assert [(o.route_index, o.added_delay) for o in options] == \
                [(i, current.added_delay) for i in range(len(alternates))] + \
                [(current.route_index, current.added_delay + d) for d in DELAY_MENU]
            for option in options:
                moved = state.account_for(plan, option.route_index, option.added_delay,
                                          option.version)
                assert option.plan is plan and option.version == current.version + 1
                assert option == moved
                assert option.cost == sum(1 for s in moved.segments
                                          if (s.subsector, s.entry, s.exit) not in held)

    def test_an_over_long_option_raises(self, monkeypatch):
        # The filed dwell holds 101 buckets; its alternate enters and leaves
        # the cell above mid-bucket, so its three segments hold 103.
        monkeypatch.setattr(traffic, "MAX_SPOTS", 101)
        state = two_by_two()
        plan = dwell("f", t1=6030.0, alternates=[arc_alt(t1=6030.0)])
        current = state.account_for(plan)
        assert len(current.spots) == 101
        with pytest.raises(PreconditionError):
            state._options_for(current, 2)


def contended_bank():
    """A bench-like contended bank: five flights leave cell (0, 1) in its
    first bucket and cross row 1 of a 4x4 grid of calm capacity 4, each
    with an alternate through row 2."""
    rng = random.Random("contended-bank")
    plans = []
    for i in range(5):
        a = [rng.uniform(0.5, 9.5), rng.uniform(10.5, 19.5)]
        b = [rng.uniform(30.5, 39.5), rng.uniform(10.5, 19.5)]
        t0 = rng.uniform(0.0, 59.0)
        t1 = t0 + rng.uniform(600.0, 1800.0)
        mid = [(a[0] + b[0]) / 2, 25.0, (t0 + t1) / 2]
        plans.append(plan_of(f"c{i}", [a + [t0], b + [t1]],
                             alternates=[[a + [t0], mid, b + [t1]]]))
    state = AirspaceState(GridSpec(0, 0, 4, 4, 10.0), bucket_seconds=60.0,
                          calm_capacity=4, severe_capacity=2)
    return state, plans


class TestRoomOnFirstRead:
    """``negotiate`` looks up a spot's room when the search first reads it,
    not for every spot some option holds."""

    def test_contended_negotiation_reads_fewer_spots_than_its_options_hold(
            self, monkeypatch):
        state, plans = contended_bank()
        for plan in plans[:4]:
            assert state.try_insert(plan).status is InsertStatus.Accepted
        arriving = state.account_for(plans[4])
        verdict = state.classify_insert(arriving.spots)
        assert verdict.kind is CaseKind.Case2
        expected = brute_force_negotiate(state, verdict.spots, plans[4])
        occupants = set().union(*(state.flights_in(*spot) for spot in verdict.spots))
        accounts = [state.flights[fid] for fid in occupants] + [arriving]
        options = [option for account in accounts
                   for option in state._options_for(account, account.version + 1)]
        held = set().union(*(account.spots for account in accounts),
                           *(option.spots for option in options))
        looked_up = []
        real = AirspaceState.capacity

        def spy(self, subsector, bucket_start):
            looked_up.append((subsector, bucket_start))
            return real(self, subsector, bucket_start)

        monkeypatch.setattr(AirspaceState, "capacity", spy)
        resolution = state.negotiate(verdict.spots, arriving)
        assert resolution is not None and resolution.objective == expected
        assert len(looked_up) == len(set(looked_up))
        assert set(looked_up) <= held
        assert len(looked_up) < len(held)


class TestCapacityTable:
    def test_capacity_follows_the_weather(self):
        # (0, 1) has a zero-length closure: it caps only the bucket holding
        # its instant.
        state = two_by_two(severe=1, closures={(1, 1): (TimeInterval(600.0, 900.0),),
                                               (0, 1): (TimeInterval(300.0, 300.0),)})
        state.try_insert(dwell("0001"))
        state.try_insert(dwell("0002", cell=(0, 1), t0=900.0, t1=2400.0))
        # A one-unit-wide storm crossing row 0 eastward: it overlaps cell
        # (1, 0) during [1218, 1240), inside the bucket [1200, 1260).
        drifting = StormCell(id="drift", box=PlanarBox(0.0, 0.0, 1.0, 10.0),
                             velocity=(0.5, 0.0), active=TimeInterval(1200.0, 4000.0))

        def assert_fresh():
            for cell in state.grid.all_cells():
                for i in range(70):
                    spot = (cell, i * 60.0)
                    assert state.capacity(*spot) == fresh_capacity(state, spot)
            for full in (False, True):
                records = state.predict_congestion(include_empty=full)
                assert records
                for r in records:
                    assert r.capacity == fresh_capacity(state, (r.subsector, r.bucket_start))

        assert_fresh()
        assert state.capacity((0, 0), 1200.0) == 6
        assert state.capacity((1, 1), 600.0) == 0
        assert state.capacity((0, 1), 300.0) == 0
        assert state.capacity((0, 1), 240.0) == 6
        assert state.capacity((0, 1), 360.0) == 6
        state.set_storms((storm_covering_00(),))
        assert_fresh()
        assert state.capacity((0, 0), 1200.0) == 1
        state.set_storms((storm_covering_00(),))
        assert_fresh()
        assert state.capacity((0, 0), 1200.0) == 1
        assert state.capacity((1, 0), 1200.0) == 6
        state.set_storms((drifting,))
        assert_fresh()
        assert state.capacity((0, 0), 1500.0) == 6
        assert [state.capacity((1, 0), t) for t in (1140.0, 1200.0, 1260.0)] == [6, 1, 6]
        assert state.capacity((0, 1), 300.0) == 0
        state.set_storms(())
        assert_fresh()
        assert state.capacity((0, 0), 1200.0) == 6
        assert state.capacity((1, 0), 1200.0) == 6
        assert state.capacity((1, 1), 600.0) == 0

        # A storm standing over column 1 during [600, 1200): its window in
        # (1, 0) ends exactly on the start of bucket [1200, 1260), and in
        # (1, 1) it meets the closure [600, 900).  (0, 0) is crossed by no
        # storm and touched by no closure.
        column = StormCell(id="column", box=PlanarBox(10.0, 0.0, 20.0, 20.0),
                           velocity=(0.0, 0.0), active=TimeInterval(600.0, 1200.0))
        state.set_storms((column,))
        assert [state.capacity((0, 0), i * 60.0) for i in range(70)] == [6] * 70
        assert state._cells[(0, 0)][1] == ()
        assert [state.capacity((1, 0), t) for t in (540.0, 600.0, 1140.0, 1200.0)] == \
            [6, 1, 1, 6]
        assert [state.capacity((1, 1), t) for t in (600.0, 840.0, 900.0, 1200.0)] == \
            [0, 0, 1, 6]
        assert state._cells[(1, 0)][1] == state._cells[(1, 1)][1] == \
            (TimeInterval(600.0, 1200.0),)
        assert_fresh()
        # Clearing the storms clears the windows: (1, 0) is calm again.
        state.set_storms(())
        assert [state.capacity((1, 0), i * 60.0) for i in range(70)] == [6] * 70
        assert state._cells[(1, 0)][1] == ()
        assert_fresh()

    def test_a_new_storm_picture_rebuilds_each_cell_record_alike(self):
        state = two_by_two(severe=1, closures={(1, 1): (TimeInterval(600.0, 900.0),)})
        before = {cell: state.subsector(*cell) for cell in state.grid.all_cells()}
        state.set_storms((storm_covering_00(),))
        assert state._cells == {}
        for cell, sub in before.items():
            rebuilt = state.subsector(*cell)
            # Box, closures and calm/severe capacities: every field.
            assert rebuilt is not sub and rebuilt == sub

    def test_each_cell_record_is_built_once_per_storm_picture(self, monkeypatch):
        state = two_by_two(closures={(1, 1): (TimeInterval(600.0, 900.0),)})
        for i in range(4):
            state.try_insert(dwell(f"{i + 1:04d}"))
        built = []
        real = AirspaceState._new_cell

        def spy(self, cell):
            built.append(cell)
            return real(self, cell)

        monkeypatch.setattr(AirspaceState, "_new_cell", spy)
        cells = state.grid.all_cells()
        for storms in ((storm_covering_00(),), ()):
            state.set_storms(storms)
            del built[:]
            caps = {cell: [state.capacity(cell, i * 60.0) for i in range(70)]
                    for cell in cells}
            assert sorted(built) == sorted(cells)
            # A calm cell answers every bucket from its record.
            assert caps[(0, 1)] == [6] * 70 and state._cells[(0, 1)][1] == ()
            assert caps[(1, 1)] == [6] * 10 + [0] * 5 + [6] * 55
            # (0, 0) holds four flights: over the severe capacity while the
            # storm crosses it during [1200, 1600).
            assert bool(state._capacity_violations()) == bool(storms)
            assert caps[(0, 0)] == ([6] * 20 + [3] * 7 + [6] * 43 if storms else
                                    [6] * 70)
            assert sorted(built) == sorted(cells)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equals_the_bucket_rule_on_every_cell_and_bucket(self, data):
        """``capacity`` answers as ``bucket_capacity`` over the bucket's
        ``TimeInterval`` would, before and after each ``set_storms``."""
        cols, rows = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        dt = data.draw(st.sampled_from([0.5, 7.0, 60.0, 300.0]))
        # 2**70 + dt == 2**70 for each dt: a bucket there is a point.
        far = 2.0 ** 70
        times = st.one_of(st.integers(-3, 40).map(lambda i: i * dt),
                          st.floats(-3.0, 40.0).map(lambda f: f * dt), st.just(far))
        lengths = st.sampled_from([0.0, dt, 2.5 * dt, 7 * dt, 2.0 ** 20])
        cells = st.tuples(st.integers(0, cols - 1), st.integers(0, rows - 1))
        closures = {}
        for cell, start, length in data.draw(st.lists(st.tuples(cells, times, lengths),
                                                      max_size=4)):
            closures[cell] = closures.get(cell, ()) + (TimeInterval(start, start + length),)
        edges = st.integers(-1, cols + rows).map(lambda k: k * 10.0)
        storm = st.builds(
            lambda i, x, y, w, v, start, length: StormCell(
                f"s{i}", PlanarBox(x, y, x + w, y + w), v,
                TimeInterval(start, start + length)),
            st.integers(0, 9), edges, edges, st.sampled_from([10.0, 15.0, 30.0]),
            st.sampled_from([(0.0, 0.0), (0.0, 0.0), (0.05, 0.0), (-0.02, 0.01)]),
            times, lengths.filter(bool))
        pictures = data.draw(st.lists(st.lists(storm, max_size=3), max_size=3))
        state = AirspaceState(GridSpec(0, 0, cols, rows, 10.0), bucket_seconds=dt,
                              calm_capacity=6, severe_capacity=1, closures=closures)
        for storms in [()] + pictures:
            state.set_storms(tuple(storms))
            for cell in state.grid.all_cells():
                sub = state.subsector(*cell)
                windows = [storm_overlap_window(s, sub.bounds) for s in storms]
                # Bucket edges, the far point and the float below it, and the
                # buckets on or one bucket before each closure or window bound.
                bounds = {t for w in sub.closed_intervals + tuple(filter(None, windows))
                          for t in (w.start, w.end)}
                starts = {i * dt for i in range(-3, 45)} | {far, math.nextafter(far, 0)}
                starts |= bounds | {t - dt for t in bounds}
                for b in sorted(starts):
                    assert state.capacity(cell, b) == fresh_capacity(state, (cell, b))


class TestPredictCongestion:
    def test_empty_state(self):
        assert two_by_two().predict_congestion() == []

    def test_saturated_is_not_congested(self):
        state = two_by_two()
        for i in range(6):
            state.try_insert(dwell(f"{i + 1:04d}"))
        records = state.predict_congestion()
        assert records
        assert not any(r.congested for r in records)
        assert all(r.occupancy == 6 and r.capacity == 6
                   for r in records if r.subsector == (0, 0))

    def test_full_scan_bucket_count(self):
        state = AirspaceState(GridSpec(0, 0, 1, 1, 10.0), bucket_seconds=60.0,
                              horizon_seconds=14400.0)
        records = state.predict_congestion(include_empty=True)
        assert len(records) == 240

    def test_records_sorted(self):
        state = two_by_two()
        state.try_insert(dwell("0002", cell=(1, 1), t0=0.0, t1=200.0))
        state.try_insert(dwell("0001", cell=(0, 0), t0=100.0, t1=300.0))
        records = state.predict_congestion()
        keys = [(r.bucket_start, r.subsector[0], r.subsector[1]) for r in records]
        assert keys == sorted(keys)


class TestWindowValidation:
    @pytest.mark.parametrize("field", ["bucket_seconds", "horizon_seconds"])
    @pytest.mark.parametrize("value", [0.0, -60.0, math.nan, math.inf, -math.inf])
    def test_non_positive_nan_or_infinite_window_rejected(self, field, value):
        with pytest.raises(ValidationError) as err:
            AirspaceState(GridSpec(0, 0, 2, 2, 10.0), **{field: value})
        assert err.value.path == field


class TestCapacityValidation:
    """The state refuses the capacities that ``Scenario`` refuses, when it is
    built, rather than on a later lookup or insertion."""

    @pytest.mark.parametrize("calm, severe", [(2, 5), (-1, -2), (math.nan, 1)],
                             ids=["severe-above-calm", "negative", "nan"])
    def test_capacities_out_of_order_rejected(self, calm, severe):
        with pytest.raises(ValidationError) as err:
            two_by_two(calm=calm, severe=severe)
        assert err.value.path == "capacity"
        assert err.value.message == "capacities must satisfy 0 <= severe <= calm"
