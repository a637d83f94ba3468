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
from dataclasses import dataclass, replace
from enum import Enum

from .airspace import GridSpec, StormCell, Subsector, bucket_capacity
from .errors import ConflictError, NotFoundError, PreconditionError, ValidationError
from .nearness import TimeInterval
from .trajectory import FlightPlan, TrajectorySegment, plan_segments

DELAY_MENU: tuple[float, ...] = (300.0, 600.0, 900.0)
MAX_CHANGED_FLIGHTS = 3

#: A (subsector index, bucket start) pair naming one congestion slot.
Spot = tuple[tuple[int, int], float]


class CaseKind(Enum):
    Case1 = 1
    Case2 = 2
    Case3 = 3


@dataclass(frozen=True)
class Classification:
    kind: CaseKind
    spots: tuple[Spot, ...] = ()


class InsertStatus(Enum):
    Accepted = "accepted"
    Rerouted = "rerouted"
    Rejected = "rejected"


@dataclass(frozen=True)
class RouteChoice:
    """One flight's deviation: chosen route (-1 = filed) plus extra delay."""

    flight_id: str
    route_index: int = -1
    added_delay: float = 0.0


@dataclass(frozen=True)
class InsertOutcome:
    status: InsertStatus
    changed_flights: tuple[str, ...] = ()
    new_plans: tuple[RouteChoice, ...] = ()
    reason: str = ""
    violated: Spot | None = None


@dataclass(frozen=True)
class CongestionRecord:
    subsector: tuple[int, int]
    bucket_start: float
    occupancy: int
    capacity: int
    flight_ids: tuple[str, ...]

    @property
    def congested(self) -> bool:
        return self.occupancy > self.capacity


@dataclass(frozen=True)
class Option:
    """One placement a flight may take in a negotiation, segmented once."""

    choice: RouteChoice
    segments: tuple[TrajectorySegment, ...]
    spots: frozenset[Spot]
    #: Segments absent from the flight's current placement.
    cost: int


@dataclass(frozen=True)
class WeatherEvent:
    kind: str  # capacity-drop | reroute | bumped | excess
    subsector: tuple[int, int]
    bucket_start: float
    flight_ids: tuple[str, ...] = ()
    detail: str = ""


@dataclass
class FlightAccount:
    plan: FlightPlan
    route_index: int = -1
    added_delay: float = 0.0
    version: int = 1
    segments: tuple[TrajectorySegment, ...] = ()
    spots: frozenset[Spot] = frozenset()


@dataclass(frozen=True)
class Resolution:
    """Feasible negotiation result: the picked deviations plus their cost.

    ``arriving`` is the arriving flight's version-0 account, from which its
    deviation is built when it is one of the deviators.
    """

    options: tuple[Option, ...]
    objective: tuple
    arriving: FlightAccount | None = None

    @property
    def choices(self) -> tuple[RouteChoice, ...]:
        return tuple(option.choice for option in self.options)


def _objective(picks: tuple[Option, ...],
               accounts: dict[str, FlightAccount]) -> tuple:
    """Total order over negotiation assignments, smaller is better.

    ``picks`` are the deviators' options in flight-id order.  Compares total
    changed segments, then the number of changed flights, then prefers
    deviating the lowest-priority flights, then breaks the remaining ties
    on flight ids and chosen options so the optimum is unique and
    deterministic.
    """
    ids = tuple(option.choice.flight_id for option in picks)
    rank_key = tuple(sorted((accounts[fid].plan.priority_rank for fid in ids),
                            reverse=True))
    option_tags = tuple((option.choice.route_index, option.choice.added_delay)
                        for option in picks)
    return (sum(option.cost for option in picks), len(picks), rank_key, ids,
            option_tags)


def _feasible(picks: tuple[Option, ...], accounts: dict[str, FlightAccount],
              base: dict[Spot, int], room: dict[Spot, int]) -> bool:
    """Check every touched or already-conflicted spot against its headroom.

    ``base`` holds the occupancy change before any deviation; ``room`` is
    capacity minus current occupancy.
    """
    delta = dict(base)
    for option in picks:
        for spot in accounts[option.choice.flight_id].spots:
            delta[spot] = delta.get(spot, 0) - 1
        for spot in option.spots:
            delta[spot] = delta.get(spot, 0) + 1
    return all(d <= room[spot] for spot, d in delta.items())


class AirspaceState:
    """Mutable traffic picture over one grid.

    All mutation happens through :meth:`try_insert`, :meth:`advance_weather`
    and the helpers they call; reads are pure.
    """

    def __init__(self, grid: GridSpec, bucket_seconds: float = 60.0,
                 calm_capacity: int = 6, severe_capacity: int = 3,
                 storms: tuple[StormCell, ...] = (),
                 closures: dict[tuple[int, int], tuple[TimeInterval, ...]] | None = None,
                 horizon_seconds: float = 14400.0, now: float = 0.0):
        if bucket_seconds <= 0:
            raise ValidationError("bucket_seconds must be positive", "bucket_seconds")
        if horizon_seconds <= 0:
            raise ValidationError("horizon_seconds must be positive", "horizon_seconds")
        self.grid = grid
        self.bucket_seconds = bucket_seconds
        self.calm_capacity = calm_capacity
        self.severe_capacity = severe_capacity
        self.storms: tuple[StormCell, ...] = tuple(storms)
        self.closures = dict(closures or {})
        self.horizon_seconds = horizon_seconds
        self.now = now
        self.flights: dict[str, FlightAccount] = {}
        self._occ: dict[Spot, set[str]] = {}

    # -- geometry and bookkeeping -----------------------------------------

    def subsector(self, col: int, row: int) -> Subsector:
        return Subsector(
            index=(col, row),
            bounds=self.grid.cell_bounds(col, row),
            calm_capacity=self.calm_capacity,
            severe_capacity=self.severe_capacity,
            closed_intervals=self.closures.get((col, row), ()),
        )

    def bucket_interval(self, bucket_start: float) -> TimeInterval:
        return TimeInterval(bucket_start, bucket_start + self.bucket_seconds)

    def buckets_over(self, entry: float, exit: float) -> list[float]:
        """Starts of the buckets a half-open [entry, exit) interval overlaps."""
        dt = self.bucket_seconds
        first = math.floor(entry / dt)
        last = math.ceil(exit / dt)
        return [i * dt for i in range(first, last)]

    def segment_spots(self, segments) -> list[Spot]:
        spots: set[Spot] = set()
        for seg in segments:
            for b in self.buckets_over(seg.entry, seg.exit):
                spots.add((seg.subsector, b))
        return sorted(spots)

    def occupancy(self, subsector: tuple[int, int], bucket_start: float) -> int:
        return len(self._occ.get((subsector, bucket_start), ()))

    def flights_in(self, subsector: tuple[int, int], bucket_start: float) -> tuple[str, ...]:
        return tuple(sorted(self._occ.get((subsector, bucket_start), ())))

    def capacity(self, subsector: tuple[int, int], bucket_start: float) -> int:
        return bucket_capacity(self.subsector(*subsector),
                               self.bucket_interval(bucket_start), self.storms)

    def account_for(self, plan: FlightPlan, route_index: int = -1,
                    added_delay: float = 0.0, version: int = 1) -> FlightAccount:
        """The account a plan holds at one placement, segmented and bucketed."""
        segments = self.effective_segments(plan, route_index, added_delay, version)
        return FlightAccount(plan, route_index, added_delay, version, segments,
                             frozenset(self.segment_spots(segments)))

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

    def effective_segments(self, plan: FlightPlan, route_index: int = -1,
                           added_delay: float = 0.0, version: int = 1,
                           ) -> tuple[TrajectorySegment, ...]:
        return tuple(plan_segments(plan, self.grid, route_index, added_delay, version))

    def is_en_route(self, flight_id: str) -> bool:
        account = self.flights[flight_id]
        return bool(account.segments) and account.segments[0].entry < self.now

    # -- classification ----------------------------------------------------

    def classify_insert(self, spots) -> Classification:
        """Sort a proposed placement's spots into one of the three insert cases."""
        hard: list[Spot] = []
        soft: list[Spot] = []
        for spot in sorted(spots):
            cap = self.capacity(*spot)
            if cap == 0:
                hard.append(spot)
            elif self.occupancy(*spot) + 1 > cap:
                soft.append(spot)
        if hard:
            return Classification(CaseKind.Case3, tuple(hard))
        if soft:
            return Classification(CaseKind.Case2, tuple(soft))
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
                reason=f"no feasible plan: subsector={spot[0]} bucket={spot[1]:g} "
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

    def _options_for(self, account: FlightAccount, mutable: bool) -> list[Option]:
        """The account's placements, keep-option first.

        Deviations are segmented at the account's next plan version.  Cost
        is the number of proposed segments absent from the current
        placement, compared by (cell, entry, exit).
        """
        plan = account.plan
        current_set = {(s.subsector, s.entry, s.exit) for s in account.segments}
        keep = RouteChoice(plan.flight_id, account.route_index, account.added_delay)
        options = [Option(keep, account.segments, account.spots, 0)]
        if not mutable:
            return options
        moves = [(alt_index, account.added_delay)
                 for alt_index in range(len(plan.alternates))]
        moves += [(account.route_index, account.added_delay + extra)
                  for extra in DELAY_MENU]
        for route_index, delay in moves:
            moved = self.account_for(plan, route_index, delay, account.version + 1)
            cost = sum(1 for s in moved.segments
                       if (s.subsector, s.entry, s.exit) not in current_set)
            options.append(Option(RouteChoice(plan.flight_id, route_index, delay),
                                  moved.segments, moved.spots, cost))
        return options

    def negotiate(self, conflicts: tuple[Spot, ...] | list[Spot],
                  arriving: FlightAccount | None) -> Resolution | None:
        """Search for the least global set of changes resolving the conflicts.

        Involved flights are the arriving one plus every current occupant of
        a conflicted spot.  ``arriving`` is the arriving flight's account at
        its filed placement; it negotiates at version 0, so its deviations
        are segmented at plan version 1.  Returns the optimal feasible
        assignment with at most ``MAX_CHANGED_FLIGHTS`` deviators, or None
        when none restores headroom.
        """
        if not conflicts:
            raise PreconditionError("negotiate requires at least one conflict")
        conflict_spots = set(conflicts)

        occupants: set[str] = set()
        for spot in conflict_spots:
            occupants |= self._occ.get(spot, set())
        accounts = {fid: self.flights[fid] for fid in occupants}
        options = {fid: self._options_for(account, not self.is_en_route(fid))
                   for fid, account in accounts.items()}
        # Occupancy deltas against the current map; the arriving flight is
        # counted at its proposed placement until it deviates.
        base: dict[Spot, int] = dict.fromkeys(conflict_spots, 0)
        newcomer = None
        if arriving is not None:
            newcomer = replace(arriving, version=0)
            accounts[arriving.plan.flight_id] = newcomer
            options[arriving.plan.flight_id] = self._options_for(newcomer, True)
            for spot in newcomer.spots:
                base[spot] = 1
        involved = sorted(accounts)
        room = {spot: self.capacity(*spot) - self.occupancy(*spot)
                for spot in set(base).union(
                    *(option.spots for opts in options.values() for option in opts))}

        best: tuple | None = None
        best_picks: tuple[Option, ...] = ()
        for k in range(0, min(MAX_CHANGED_FLIGHTS, len(involved)) + 1):
            for deviators in itertools.combinations(involved, k):
                for picks in itertools.product(*(options[fid][1:] for fid in deviators)):
                    if not _feasible(picks, accounts, base, room):
                        continue
                    objective = _objective(picks, accounts)
                    if best is None or objective < best:
                        best, best_picks = objective, picks
        if best is None:
            return None
        return Resolution(options=best_picks, objective=best, arriving=newcomer)

    def apply_resolution(self, resolution: Resolution) -> tuple[str, ...]:
        """Apply all deviations atomically; returns the changed flight ids.

        A kept arriving flight is not placed here: its caller holds its
        account.
        """
        for option in resolution.options:
            fid = option.choice.flight_id
            account = self.flights.get(fid, resolution.arriving)
            self._place(fid, FlightAccount(
                account.plan, option.choice.route_index, option.choice.added_delay,
                account.version + 1, option.segments, option.spots))
        return tuple(option.choice.flight_id for option in resolution.options)

    # -- weather reaction ----------------------------------------------------

    def set_storms(self, storms: tuple[StormCell, ...]) -> None:
        self.storms = tuple(storms)

    def advance_weather(self, to_time: float) -> list[WeatherEvent]:
        """Re-check capacity under the current storm picture.

        Each future bucket whose occupancy now exceeds its capacity triggers
        a negotiation among the residents; when none succeeds, the least
        important resident flights are bumped (their outcome becomes a
        rejection) until the remaining traffic fits, leaving any excess by
        immovable en-route flights reported rather than resolved.
        """
        if to_time < self.now:
            raise PreconditionError(f"cannot rewind weather from {self.now} to {to_time}")
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
        window_end = self.now + self.horizon_seconds
        out = []
        for spot in sorted(self._occ):
            start = spot[1]
            if start + self.bucket_seconds <= self.now or start >= window_end:
                continue
            if self.occupancy(*spot) > self.capacity(*spot):
                out.append(spot)
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

    def predict_congestion(self, now: float | None = None,
                           horizon: float | None = None,
                           include_empty: bool = False) -> list[CongestionRecord]:
        """Occupancy/capacity records for every bucket in the look-ahead window."""
        if now is None:
            now = self.now
        if horizon is None:
            horizon = self.horizon_seconds
        if horizon <= 0:
            raise PreconditionError("horizon must be positive")
        dt = self.bucket_seconds
        first = math.floor(now / dt)
        window_end = now + horizon
        records: list[CongestionRecord] = []
        if include_empty:
            spots = []
            i = first
            while i * dt < window_end:
                for cell in self.grid.all_cells():
                    spots.append((cell, i * dt))
                i += 1
        else:
            spots = [s for s in self._occ
                     if s[1] >= first * dt and s[1] < window_end]
        for spot in spots:
            flights = self.flights_in(*spot)
            records.append(CongestionRecord(
                subsector=spot[0], bucket_start=spot[1],
                occupancy=len(flights), capacity=self.capacity(*spot),
                flight_ids=flights))
        records.sort(key=lambda r: (r.bucket_start, r.subsector[0], r.subsector[1]))
        return records
