"""Insertion protocol, negotiation, weather reaction, and prediction tests.

Negotiation results are checked against an independent brute-force
enumerator that rebuilds the whole occupancy map from scratch for every
candidate assignment.
"""

import itertools
import random

import pytest

from adatm import (
    AirspaceState,
    CaseKind,
    FlightPlan,
    GridSpec,
    InsertStatus,
    PlanarBox,
    StormCell,
    TimeInterval,
    Waypoint,
)
from adatm.errors import ConflictError, PreconditionError
from adatm.traffic import DELAY_MENU, MAX_CHANGED_FLIGHTS


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
                                    state.effective_segments(arriving), True,
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
                segments = state.effective_segments(plan, ai, delay)
                out.append(((ai, delay), segments, cost(segments)))
            for extra in delay_menu:
                segments = state.effective_segments(plan, route, delay + extra)
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
                for b in state.buckets_over(seg.entry, seg.exit):
                    occ.setdefault((seg.subsector, b), set()).add(fid)
        if arriving is not None:
            for seg in menu[arriving.flight_id][picked[arriving.flight_id]][1]:
                for b in state.buckets_over(seg.entry, seg.exit):
                    occ.setdefault((seg.subsector, b), set()).add(arriving.flight_id)
        if any(len(ids) > state.capacity(*spot) for spot, ids in occ.items()):
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
                segments = state.effective_segments(arriving)
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


def arc_alt():
    return [[1.0, 5.0, 0.0], [5.0, 15.0, 1800.0], [9.0, 5.0, 3600.0]]


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


def assert_occupancy_matches_accounts(state):
    """The incremental occupancy map equals one rebuilt from the accounts."""
    rebuilt = {}
    for fid, account in state.flights.items():
        assert account.spots == set(state.segment_spots(account.segments))
        for seg in account.segments:
            assert seg.plan_version == account.version
            for b in state.buckets_over(seg.entry, seg.exit):
                rebuilt.setdefault((seg.subsector, b), set()).add(fid)
    assert state._occ == rebuilt


class TestOccupancyInvariant:
    @pytest.mark.parametrize("seed", range(12))
    def test_after_negotiated_insert_and_removal(self, seed):
        state, arriving, _ = draw_conflicted_instance(random.Random(seed))
        state.try_insert(arriving)
        assert_occupancy_matches_accounts(state)
        for fid in sorted(state.flights):
            state.remove_flight(fid)
            assert_occupancy_matches_accounts(state)
        assert state._occ == {}

    @pytest.mark.parametrize("alternates, kind", [([arc_alt()], "reroute"),
                                                  ((), "bumped")])
    def test_after_weather(self, alternates, kind):
        state = two_by_two()
        for i in range(4):
            state.try_insert(dwell(f"{i + 1:04d}", alternates=alternates))
        state.set_storms((storm_covering_00(),))
        assert kind in [e.kind for e in state.advance_weather(0.0)]
        assert_occupancy_matches_accounts(state)


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

    def test_rejects_bad_horizon(self):
        with pytest.raises(PreconditionError):
            two_by_two().predict_congestion(horizon=0.0)
