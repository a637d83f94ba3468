"""Traffic state, the three-case insertion protocol, and congestion prediction.

Occupancy is tracked per (subsector, time bucket) as the set of distinct
flights whose segments overlap the bucket.  A new flight's segments are
classified before insertion:

* Case 1 - every touched bucket has headroom: the flight adds itself.
* Case 2 - some bucket would exceed its capacity: the involved flights
  negotiate the cheapest set of plan changes.
* Case 3 - a segment crosses a closed or zero-capacity bucket: treated
  like Case 2, but the violation is hard.

Negotiation searches assignments where each involved flight keeps its
plan, switches to an alternate, or takes an extra departure delay from a
fixed menu, with a bound on how many flights may deviate.  The objective
is the least global set of changes: total changed segments, then number
of changed flights, then deviating the least important flights first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from types import MappingProxyType

# Segmentation and storm windows are called through their modules, where
# the benchmark's tracer (bench/tracing.py) counts them.
from . import airspace, trajectory
from .airspace import GridSpec, StormCell, Subsector, bucket_capacity
from .errors import ConflictError, NotFoundError, PreconditionError, ValidationError
from .kernel import format_scalar
from .nearness import TimeInterval
from .trajectory import FlightPlan, TrajectorySegment, plan_segments

DELAY_MENU: tuple[float, ...] = (300.0, 600.0, 900.0)
MAX_CHANGED_FLIGHTS = 3

#: Most (cell, bucket) spots one placement may hold, and so a bound on the
#: work a loaded scenario can ask for: ``Scenario`` also caps the buckets
#: of its horizon and each route's ``route_spot_bound`` by it.
MAX_SPOTS = 100_000

#: A (subsector index, bucket start) pair naming one congestion slot.
Spot = tuple[tuple[int, int], float]

#: What a cell's capacity rests on under one storm picture: its subsector
#: and the windows of the storms that cross it.
CellRecord = tuple[Subsector, tuple[TimeInterval, ...]]


class CaseKind(Enum):
    Case1 = 1
    Case2 = 2
    Case3 = 3


@dataclass(frozen=True, slots=True)
class Classification:
    """The insert case of a placement, and its offending spots."""

    kind: CaseKind
    spots: tuple[Spot, ...] = ()


class InsertStatus(Enum):
    Accepted = "accepted"
    Rerouted = "rerouted"
    Rejected = "rejected"


@dataclass(frozen=True, slots=True)
class RouteChoice:
    """One flight's deviation: chosen route (-1 = filed) plus extra delay."""

    flight_id: str
    route_index: int = -1
    added_delay: float = 0.0


@dataclass(frozen=True, slots=True)
class InsertOutcome:
    """What became of a flight: its status, the flights whose plans changed
    and their choices, and for a rejection the reason and the spot."""

    status: InsertStatus
    changed_flights: tuple[str, ...] = ()
    new_plans: tuple[RouteChoice, ...] = ()
    reason: str = ""
    violated: Spot | None = None


@dataclass(frozen=True, slots=True)
class CongestionRecord:
    """Occupancy and capacity of one (subsector, bucket), with the ids of
    the flights in it."""

    subsector: tuple[int, int]
    bucket_start: float
    occupancy: int
    capacity: int
    flight_ids: tuple[str, ...]

    @property
    def congested(self) -> bool:
        return self.occupancy > self.capacity


@dataclass(frozen=True, slots=True)
class WeatherEvent:
    """One effect of a weather change at one (subsector, bucket)."""

    kind: str  # capacity-drop | reroute | bumped | excess
    subsector: tuple[int, int]
    bucket_start: float
    flight_ids: tuple[str, ...] = ()
    detail: str = ""


@dataclass(frozen=True, slots=True)
class FlightAccount:
    """A flight's placement: the one record of its route, delay, plan
    version, segments and spots."""

    plan: FlightPlan
    route_index: int = -1
    added_delay: float = 0.0
    version: int = 1
    segments: tuple[TrajectorySegment, ...] = ()
    spots: frozenset[Spot] = frozenset()

    @property
    def choice(self) -> RouteChoice:
        return RouteChoice(self.plan.flight_id, self.route_index, self.added_delay)


@dataclass(frozen=True, slots=True)
class Option:
    """A placement a flight may move to in a negotiation, with what the
    search reads of it: its spots and its cost.  The account is built only
    when the option is applied."""

    plan: FlightPlan
    route_index: int
    added_delay: float
    version: int
    spots: frozenset[Spot]
    #: Segments absent from the flight's current placement.
    cost: int


@dataclass(frozen=True, slots=True)
class Resolution:
    """Feasible negotiation result: the picked moves plus their objective."""

    options: tuple[Option, ...]
    objective: tuple

    @property
    def choices(self) -> tuple[RouteChoice, ...]:
        return tuple(RouteChoice(option.plan.flight_id, option.route_index,
                                 option.added_delay) for option in self.options)


def _objective(picks: tuple[Option, ...]) -> tuple:
    """Total order over negotiation assignments, smaller is better.

    ``picks`` are the deviators' options in flight-id order.  Compares total
    changed segments, then the number of changed flights, then prefers
    deviating the lowest-priority flights, then breaks the remaining ties
    on flight ids and chosen options so the optimum is unique and
    deterministic.
    """
    ids = tuple(option.plan.flight_id for option in picks)
    rank_key = tuple(sorted((option.plan.priority_rank for option in picks),
                            reverse=True))
    option_tags = tuple((option.route_index, option.added_delay) for option in picks)
    return (sum(option.cost for option in picks), len(picks), rank_key, ids,
            option_tags)


def _feasible(picks: tuple[Option, ...], accounts: dict[str, FlightAccount],
              base: dict[Spot, int], room: dict[Spot, int],
              state: AirspaceState) -> bool:
    """Check every touched or already-conflicted spot against its headroom.

    ``base`` holds the occupancy change before any deviation; ``room`` maps
    a spot to its capacity minus current occupancy and is filled here on
    a miss, so only the spots some checked assignment touches are looked
    up.
    """
    delta = dict(base)
    for option in picks:
        for spot in accounts[option.plan.flight_id].spots:
            delta[spot] = delta.get(spot, 0) - 1
        for spot in option.spots:
            delta[spot] = delta.get(spot, 0) + 1
    occ = state._occ
    for spot, d in delta.items():
        free = room.get(spot)
        if free is None:
            free = room[spot] = state.capacity(*spot) - len(occ.get(spot, ()))
        if d > free:
            return False
    return True


def _cover_menus(deviators: tuple[str, ...], bit: dict[str, int],
                 short: dict[tuple[int, int], list[Spot]],
                 options: dict[str, list[Option]]) -> list[list[Option]] | None:
    """The deviators' options that may still be feasible, or None if none is.

    ``short`` maps (holder mask, shortfall) to the spots that far over their
    room.  Only a deviator holding a spot lowers its count, so each spot
    needs at least its shortfall of holders among the deviators.  When it
    has exactly that many, any option landing on the spot (a holder's or
    not) leaves it over, so such options are dropped.
    """
    mask = sum(bit[fid] for fid in deviators)
    tight: list[Spot] = []
    for (holders, need), spots in short.items():
        held = (mask & holders).bit_count()
        if held < need:
            return None
        if held == need:
            tight += spots
    menus = [[option for option in options[fid] if option.spots.isdisjoint(tight)]
             for fid in deviators]
    return menus if all(menus) else None


def _spots_held(triples, dt: float) -> frozenset[Spot]:
    """The (cell, bucket start) spots that (cell, entry, exit) triples hold.

    A triple's [entry, exit) holds buckets ``floor(entry / dt)`` up to, not
    including, ``ceil(exit / dt)``, each starting at its index times
    ``dt``.  More than ``MAX_SPOTS`` of them in all is a
    ``PreconditionError``, raised before any spot is built.
    """
    spans = [(cell, math.floor(entry / dt), math.ceil(exit_ / dt))
             for cell, entry, exit_ in triples]
    if sum(hi - lo for _, lo, hi in spans) > MAX_SPOTS:
        raise PreconditionError(f"segments hold more than {MAX_SPOTS} spots")
    return frozenset((cell, i * dt) for cell, lo, hi in spans for i in range(lo, hi))


class AirspaceState:
    """Mutable traffic picture over one grid.

    All mutation happens through :meth:`try_insert`, :meth:`set_storms`,
    :meth:`advance_weather` and the helpers they call; reads are pure.
    """

    def __init__(self, grid: GridSpec, bucket_seconds: float = 60.0,
                 calm_capacity: int = 6, severe_capacity: int = 3,
                 closures: dict[tuple[int, int], tuple[TimeInterval, ...]] | None = None,
                 horizon_seconds: float = 14400.0):
        # Written so that NaN fails the tests too.
        if not 0 < bucket_seconds < math.inf:
            raise ValidationError("bucket_seconds must be positive and finite",
                                  "bucket_seconds")
        if not 0 < horizon_seconds < math.inf:
            raise ValidationError("horizon_seconds must be positive and finite",
                                  "horizon_seconds")
        self.grid = grid
        self.bucket_seconds = bucket_seconds
        self.calm_capacity = calm_capacity
        self.severe_capacity = severe_capacity
        self._storms: tuple[StormCell, ...] = ()
        #: Read-only: capacity is memoised, so later writes would be ignored.
        self.closures = MappingProxyType(dict(closures or {}))
        self.horizon_seconds = horizon_seconds
        #: The clock starts at 0 and only ``advance_weather`` moves it.
        self.now = 0.0
        self.flights: dict[str, FlightAccount] = {}
        self._occ: dict[Spot, set[str]] = {}
        #: Segmentation per (plan, route), filled on first use.  It depends
        #: on the plan and the grid alone, so equal plans share an entry.
        self._routes: dict[tuple[FlightPlan, int], list[TrajectorySegment]] = {}
        #: Per cell, filled on first lookup: its subsector and the windows of
        #: the storms that cross it.  ``set_storms`` clears it.
        self._cells: dict[tuple[int, int], CellRecord] = {}
        #: Capacity per spot of a cell with a closure or a storm window,
        #: filled on first lookup; ``set_storms`` clears it.  A calm cell's
        #: spots answer ``calm_capacity`` and keep no entry.
        self._caps: dict[Spot, int] = {}

    # -- geometry and bookkeeping -----------------------------------------

    def _new_cell(self, cell: tuple[int, int]) -> CellRecord:
        """Build and keep a cell's record."""
        sub = Subsector(cell, self.grid.cell_bounds(*cell), self.calm_capacity,
                        self.severe_capacity, self.closures.get(cell, ()))
        overlaps = (airspace.storm_overlap_window(storm, sub.bounds)
                    for storm in self._storms)
        record = self._cells[cell] = (sub, tuple(w for w in overlaps if w is not None))
        return record

    def subsector(self, col: int, row: int) -> Subsector:
        return (self._cells.get((col, row)) or self._new_cell((col, row)))[0]

    def bucket_interval(self, bucket_start: float) -> TimeInterval:
        return TimeInterval(bucket_start, bucket_start + self.bucket_seconds)

    def segment_spots(self, segments) -> frozenset[Spot]:
        """The (cell, bucket start) spots the segments hold (see
        :func:`_spots_held`)."""
        return _spots_held(((seg.subsector, seg.entry, seg.exit) for seg in segments),
                           self.bucket_seconds)

    def occupancy(self, subsector: tuple[int, int], bucket_start: float) -> int:
        return len(self._occ.get((subsector, bucket_start), ()))

    def flights_in(self, subsector: tuple[int, int], bucket_start: float) -> tuple[str, ...]:
        return tuple(sorted(self._occ.get((subsector, bucket_start), ())))

    def capacity(self, subsector: tuple[int, int], bucket_start: float) -> int:
        """The spot's capacity, the one place it is read: a calm cell's from
        its record, any other's from ``_caps``, filled on a miss."""
        sub, windows = self._cells.get(subsector) or self._new_cell(subsector)
        if not (windows or sub.closed_intervals):
            return sub.calm_capacity
        spot = (subsector, bucket_start)
        cap = self._caps.get(spot)
        if cap is None:
            cap = self._caps[spot] = bucket_capacity(
                sub, self.bucket_interval(bucket_start), windows)
        return cap

    def account_for(self, plan: FlightPlan, route_index: int = -1,
                    added_delay: float = 0.0, version: int = 1) -> FlightAccount:
        """The account a plan holds at one placement, segmented and bucketed.

        The route is segmented once per plan; each placement shifts that
        segmentation by its delays.
        """
        segments = tuple(plan_segments(plan, self._route(plan, route_index), added_delay))
        return FlightAccount(plan, route_index, added_delay, version, segments,
                             self.segment_spots(segments))

    def _route(self, plan: FlightPlan, route_index: int) -> list[TrajectorySegment]:
        """The segmentation of one of the plan's routes, before any delay."""
        raw = self._routes.get((plan, route_index))
        if raw is None:
            raw = self._routes[plan, route_index] = trajectory.segment_trajectory(
                plan, self.grid, route_index)
        return raw

    def _place(self, flight_id: str, account: FlightAccount | None) -> None:
        """Move a flight's occupancy to ``account``; None removes the flight."""
        old = self.flights.get(flight_id)
        if old is not None:
            for spot in old.spots:
                members = self._occ[spot]
                members.discard(flight_id)
                if not members:
                    del self._occ[spot]
        if account is None:
            del self.flights[flight_id]
            return
        self.flights[flight_id] = account
        for spot in account.spots:
            self._occ.setdefault(spot, set()).add(flight_id)

    def is_en_route(self, flight_id: str) -> bool:
        account = self.flights[flight_id]
        return bool(account.segments) and account.segments[0].entry < self.now

    # -- classification ----------------------------------------------------

    def classify_insert(self, spots) -> Classification:
        """Sort a proposed placement's spots into one of the three insert cases;
        the offending spots come in ascending order."""
        hard: list[Spot] = []
        soft: list[Spot] = []
        capacity = self.capacity
        occ = self._occ
        for spot in spots:
            cap = capacity(*spot)
            if cap == 0:
                hard.append(spot)
            elif len(occ.get(spot, ())) + 1 > cap:
                soft.append(spot)
        if hard:
            return Classification(CaseKind.Case3, tuple(sorted(hard)))
        if soft:
            return Classification(CaseKind.Case2, tuple(sorted(soft)))
        return Classification(CaseKind.Case1)

    # -- insertion ----------------------------------------------------------

    def try_insert(self, plan: FlightPlan) -> InsertOutcome:
        """Add a flight, negotiating plan changes when it would congest."""
        if plan.flight_id in self.flights:
            raise ConflictError(f"flight already present: {plan.flight_id}")
        account = self.account_for(plan)
        verdict = self.classify_insert(account.spots)
        if verdict.kind is CaseKind.Case1:
            self._place(plan.flight_id, account)
            return InsertOutcome(InsertStatus.Accepted)
        resolution = self.negotiate(verdict.spots, account)
        if resolution is None:
            spot = verdict.spots[0]
            return InsertOutcome(
                InsertStatus.Rejected,
                reason=f"no feasible plan: subsector={spot[0]} "
                       f"bucket={format_scalar(spot[1])} "
                       f"occupancy={self.occupancy(*spot)} capacity={self.capacity(*spot)}",
                violated=spot)
        changed = self.apply_resolution(resolution)
        if plan.flight_id not in self.flights:
            self._place(plan.flight_id, account)
        return InsertOutcome(InsertStatus.Rerouted, changed_flights=changed,
                             new_plans=resolution.choices)

    def remove_flight(self, flight_id: str) -> None:
        if flight_id not in self.flights:
            raise NotFoundError(flight_id)
        self._place(flight_id, None)

    # -- negotiation ---------------------------------------------------------

    def _options_for(self, account: FlightAccount, version: int) -> list[Option]:
        """The placements the flight may move to, at plan version ``version``.

        Each move's segments are kept as (cell, entry, exit) triples,
        shifted by the same sums as :func:`plan_segments`, so its spots and
        cost equal those of the account it would build.  Cost is the number
        of triples absent from the current placement.
        """
        plan = account.plan
        current = {(s.subsector, s.entry, s.exit) for s in account.segments}
        moves = [(alt_index, account.added_delay)
                 for alt_index in range(len(plan.alternates))]
        moves += [(account.route_index, account.added_delay + extra)
                  for extra in DELAY_MENU]
        dt = self.bucket_seconds
        options = []
        for route_index, delay in moves:
            total = plan.departure_delay + delay
            shifted = [(s.subsector, s.entry + total, s.exit + total)
                       for s in self._route(plan, route_index)]
            triples = [t for t in shifted if t[1] < t[2]]
            cost = sum(1 for t in triples if t not in current)
            options.append(Option(plan, route_index, delay, version,
                                  _spots_held(triples, dt), cost))
        return options

    def negotiate(self, conflicts: tuple[Spot, ...] | list[Spot],
                  arriving: FlightAccount | None) -> Resolution | None:
        """Search for the least global set of changes resolving the conflicts.

        Involved flights are the arriving one plus every current occupant of
        a conflicted spot.  ``arriving`` is the arriving flight's account at
        its filed placement; its moves are at plan version 1.  Returns the
        optimal feasible assignment with at most ``MAX_CHANGED_FLIGHTS``
        deviators, or None when none restores headroom.
        """
        if not conflicts:
            raise PreconditionError("negotiate requires at least one conflict")
        conflict_spots = set(conflicts)

        occupants: set[str] = set()
        for spot in conflict_spots:
            occupants |= self._occ.get(spot, set())
        accounts = {fid: self.flights[fid] for fid in occupants}
        options = {fid: self._options_for(account, account.version + 1)
                   for fid, account in accounts.items() if not self.is_en_route(fid)}
        # Occupancy deltas against the current map; the arriving flight is
        # counted at its proposed placement until it deviates.
        base: dict[Spot, int] = dict.fromkeys(conflict_spots, 0)
        if arriving is not None:
            accounts[arriving.plan.flight_id] = arriving
            options[arriving.plan.flight_id] = self._options_for(arriving, 1)
            for spot in arriving.spots:
                base[spot] = 1
        # Capacity minus occupancy, looked up on a spot's first read: here
        # for the base spots, in ``_feasible`` for the spots it checks.
        room: dict[Spot, int] = {}
        occ = self._occ

        # Spots over their room, grouped by the flights able to deviate that
        # hold them (a bit mask) and by how far over they are.
        movable = sorted(options)
        bit = {fid: 1 << i for i, fid in enumerate(movable)}
        short: dict[tuple[int, int], list[Spot]] = {}
        for spot, count in base.items():
            free = room[spot] = self.capacity(*spot) - len(occ.get(spot, ()))
            need = count - free
            if need > 0:
                holders = sum(bit[fid] for fid in movable if spot in accounts[fid].spots)
                short.setdefault((holders, need), []).append(spot)

        best: tuple | None = None
        best_picks: tuple[Option, ...] = ()
        # k deviators hold a spot at most k times.
        for k in range(max((need for _, need in short), default=0),
                       min(MAX_CHANGED_FLIGHTS, len(movable)) + 1):
            for deviators in itertools.combinations(movable, k):
                menus = _cover_menus(deviators, bit, short, options)
                if menus is None:
                    continue
                # Cost is the objective's first key: a dearer set cannot win.
                if best is not None and sum(
                        min(option.cost for option in menu) for menu in menus) > best[0]:
                    continue
                for picks in itertools.product(*menus):
                    if best is not None and sum(option.cost for option in picks) > best[0]:
                        continue
                    # Objectives are distinct, so skipping ties keeps the optimum.
                    objective = _objective(picks)
                    if best is not None and objective >= best:
                        continue
                    if _feasible(picks, accounts, base, room, self):
                        best, best_picks = objective, picks
        if best is None:
            return None
        return Resolution(options=best_picks, objective=best)

    def apply_resolution(self, resolution: Resolution) -> tuple[str, ...]:
        """Apply all deviations atomically; returns the changed flight ids.

        Each pick's account is built here, once.  A kept arriving flight is
        not placed here: its caller holds its account.
        """
        for option in resolution.options:
            self._place(option.plan.flight_id, self.account_for(
                option.plan, option.route_index, option.added_delay, option.version))
        return tuple(option.plan.flight_id for option in resolution.options)

    # -- weather reaction ----------------------------------------------------

    @property
    def storms(self) -> tuple[StormCell, ...]:
        """The storm picture; only :meth:`set_storms` changes it."""
        return self._storms

    def set_storms(self, storms: tuple[StormCell, ...]) -> None:
        self._storms = tuple(storms)
        self._cells.clear()
        self._caps.clear()

    def advance_weather(self, to_time: float) -> list[WeatherEvent]:
        """Re-check capacity under the current storm picture.

        Each future bucket whose occupancy now exceeds its capacity triggers
        a negotiation among the residents; when none succeeds, the least
        important resident flights are bumped (their outcome becomes a
        rejection) until the remaining traffic fits, leaving any excess by
        immovable en-route flights reported rather than resolved.  The
        clock moves only forward, to a finite time.
        """
        # Written so that NaN fails the test too.
        if not self.now <= to_time < math.inf:
            raise PreconditionError(f"cannot move the clock from {self.now} to {to_time}")
        self.now = to_time
        events: list[WeatherEvent] = []
        violations = self._capacity_violations()
        if not violations:
            return events
        for spot in violations:
            events.append(WeatherEvent(
                "capacity-drop", spot[0], spot[1],
                flight_ids=self.flights_in(*spot),
                detail=f"occupancy={self.occupancy(*spot)} capacity={self.capacity(*spot)}"))
        resolution = self.negotiate(violations, arriving=None)
        if resolution is not None:
            # Each event names the first violated spot the flight moves out of.
            left = {choice.flight_id:
                    min(self.flights[choice.flight_id].spots.intersection(violations))
                    for choice in resolution.choices}
            for fid in self.apply_resolution(resolution):
                account = self.flights[fid]
                events.append(WeatherEvent(
                    "reroute", left[fid][0], left[fid][1], (fid,),
                    detail=f"route={account.route_index} delay={account.added_delay:g}"))
            return events
        events.extend(self._bump_excess(violations))
        return events

    def _capacity_violations(self) -> tuple[Spot, ...]:
        """The occupied spots of the look-ahead window (:meth:`_window`) over
        their capacity, sorted."""
        first, window_end = self._window()
        start = first * self.bucket_seconds
        capacity = self.capacity
        out = [spot for spot, members in self._occ.items()
               if start <= spot[1] < window_end and len(members) > capacity(*spot)]
        out.sort()
        return tuple(out)

    def _bump_excess(self, violations: tuple[Spot, ...]) -> list[WeatherEvent]:
        events: list[WeatherEvent] = []
        for spot in violations:
            while self.occupancy(*spot) > self.capacity(*spot):
                movable = [f for f in self.flights_in(*spot) if not self.is_en_route(f)]
                if not movable:
                    events.append(WeatherEvent(
                        "excess", spot[0], spot[1], self.flights_in(*spot),
                        detail=f"en-route occupancy {self.occupancy(*spot)} exceeds "
                               f"capacity {self.capacity(*spot)}"))
                    break
                bumped = min(movable,
                             key=lambda f: (self.flights[f].plan.priority_rank, f))
                self.remove_flight(bumped)
                events.append(WeatherEvent(
                    "bumped", spot[0], spot[1], (bumped,),
                    detail="capacity lost to severe weather"))
        return events

    # -- prediction ------------------------------------------------------------

    def _window(self) -> tuple[int, float]:
        """The look-ahead window that the weather re-check and the congestion
        report read: the index of the bucket that holds ``now``, and the
        window's end, ``horizon_seconds`` after ``now``."""
        return math.floor(self.now / self.bucket_seconds), self.now + self.horizon_seconds

    def predict_congestion(self, include_empty: bool = False) -> list[CongestionRecord]:
        """Occupancy/capacity records for every bucket of the look-ahead
        window (:meth:`_window`)."""
        dt = self.bucket_seconds
        first, window_end = self._window()
        occ = self._occ
        if include_empty:
            spots = []
            i = first
            while i * dt < window_end:
                for cell in self.grid.all_cells():
                    spots.append((cell, i * dt))
                i += 1
        else:
            start = first * dt
            spots = [s for s in occ if start <= s[1] < window_end]
        # Records come in (bucket, col, row) order; spots are unique.
        spots.sort(key=itemgetter(1, 0))
        capacity = self.capacity
        records: list[CongestionRecord] = []
        for spot in spots:
            ids = occ.get(spot, ())
            records.append(CongestionRecord(spot[0], spot[1], len(ids), capacity(*spot),
                                            tuple(sorted(ids))))
        return records
