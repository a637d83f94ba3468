"""Scenario files, the end-to-end simulation driver, and the brute-force oracle.

A scenario is a JSON document describing a grid, capacities, flight
plans, storms, raw weather observations, and subscriptions.  Two drivers
consume it:

* :func:`run_simulation` - the full pipeline: observations are
  encapsulated and fused by the activation runtime, confirmed storms
  take effect, flights insert themselves through the three-case
  protocol, weather is advanced (residents renegotiate or are bumped),
  and congestion is predicted over the horizon.
* :func:`run_oracle` - the centralized baseline: every flight is
  accepted as filed and occupancy is recomputed globally with plain
  nested loops; no negotiation, no rejection.

Both produce a :class:`Report` with deterministic ordering, so reports
can be rendered and diffed byte-stably.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

from . import kernel
from .airspace import GridSpec, StormCell, Subsector, bucket_capacity
from .errors import ParseError, UsageError, ValidationError
from .kernel import ActiveDatum, Metadata, NotionKind, noisy_or
from .nearness import (
    ConceptPath,
    NearnessKey,
    PlanarBox,
    QueryMode,
    QuerySpec,
    TimeInterval,
)
from .scheduler import (
    ActivationReason,
    Alert,
    Runtime,
    RunStats,
    SchedulerConfig,
    Subscription,
)
from .traffic import AirspaceState, CongestionRecord, InsertOutcome, InsertStatus, RouteChoice
from .trajectory import FlightPlan, Waypoint, route_spot_bound, segment_trajectory

#: Fused observation confidence at which a reported storm is taken as real.
STORM_CONFIRMATION = 0.75

#: Most buckets a scenario's horizon may span, and most (cell, bucket)
#: spots any one of its routes may hold: a bound on the work a loaded
#: scenario can ask for.
MAX_SPOTS = 100_000

#: Concept filed for trajectory-segment data in the nearness index.
SEGMENT_CONCEPT = ConceptPath(("airspace", "traffic", "segment"))


@dataclass(frozen=True)
class ScenarioStorm:
    """A storm plus whether it needs observational confirmation."""

    cell: StormCell
    reported: bool = False


@dataclass(frozen=True)
class Observation:
    """A raw weather report to be encapsulated into the runtime."""

    payload: dict
    confidence: float
    key: NearnessKey
    metadata: Metadata


@dataclass(frozen=True)
class Scenario:
    grid: GridSpec
    bucket_seconds: float = 60.0
    horizon_seconds: float = 14400.0
    calm_capacity: int = 6
    severe_capacity: int = 3
    flights: tuple[FlightPlan, ...] = ()
    storms: tuple[ScenarioStorm, ...] = ()
    observations: tuple[Observation, ...] = ()
    subscriptions: tuple[Subscription, ...] = ()
    closures: tuple[tuple[tuple[int, int], TimeInterval], ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.bucket_seconds <= 0:
            raise ValidationError("bucket_seconds must be positive", "bucket_seconds")
        if self.horizon_seconds <= 0:
            raise ValidationError("horizon_seconds must be positive", "horizon_seconds")
        if not 0 <= self.severe_capacity <= self.calm_capacity:
            raise ValidationError("capacities must satisfy 0 <= severe <= calm", "capacity")
        if self.horizon_seconds / self.bucket_seconds > MAX_SPOTS:
            raise ValidationError(f"horizon spans more than {MAX_SPOTS} buckets",
                                  "horizon_seconds")
        for i, plan in enumerate(self.flights):
            routes = [("waypoints", plan.waypoints)] + [
                (f"alternates[{j}]", alt) for j, alt in enumerate(plan.alternates)]
            for name, route in routes:
                if route_spot_bound(route, self.grid, self.bucket_seconds) > MAX_SPOTS:
                    raise ValidationError(
                        f"route may hold more than {MAX_SPOTS} (cell, bucket) spots",
                        f"flights[{i}].{name}")


@dataclass(frozen=True)
class Report:
    seed: int
    bucket_seconds: float
    grid_cols: int
    grid_rows: int
    records: tuple[CongestionRecord, ...]
    outcomes: tuple[tuple[str, InsertOutcome], ...]  # sorted by flight id
    alerts: tuple[Alert, ...]
    stats: RunStats


@dataclass(frozen=True)
class DiffResult:
    only_in_a: tuple[tuple[tuple[int, int], float], ...]
    only_in_b: tuple[tuple[tuple[int, int], float], ...]
    mismatched: tuple[str, ...]

    @property
    def empty(self) -> bool:
        return not (self.only_in_a or self.only_in_b or self.mismatched)


@dataclass
class SimulationRun:
    """A report plus the runtime artifacts behind it."""

    report: Report
    event_log: str
    runtime: Runtime
    state: AirspaceState


# ---------------------------------------------------------------------------
# scenario JSON codec
# ---------------------------------------------------------------------------

def _need(obj, name: str, path: str):
    if not isinstance(obj, dict):
        raise ValidationError("expected an object", path)
    if name not in obj:
        raise ValidationError(f"missing required field {name!r}", path)
    return obj[name]


def _obj(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError("expected an object", path)
    return value


def _num(value, path: str) -> float:
    if type(value) not in (int, float):  # JSON true and false are not numbers
        raise ValidationError(f"expected a number, got {value!r}", path)
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, ints past any float
        raise ValidationError(f"expected a finite number, got {value!r}", path)
    return float(value)


def _count(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"expected an integer, got {value!r}", path)
    return value


def _radius(value, path: str) -> float:
    if value == "inf":
        return math.inf
    return _num(value, path)


def _list(value, path: str, shape: str, length: int | None = None) -> list:
    if not isinstance(value, list) or length is not None and len(value) != length:
        raise ValidationError(f"expected {shape}", path)
    return value


def _objects(obj: dict, name: str) -> list[tuple[str, dict]]:
    """The entries of an optional list-of-objects field, each with its path."""
    items = _list(obj.get(name, []), name, "a list of objects")
    return [(f"{name}[{i}]", _obj(item, f"{name}[{i}]")) for i, item in enumerate(items)]


def _box(value, path: str) -> PlanarBox:
    return PlanarBox(*(_num(v, path) for v in _list(value, path, "[x0, y0, x1, y1]", 4)))


def _interval(value, path: str) -> TimeInterval:
    return TimeInterval(*(_num(v, path) for v in _list(value, path, "[start, end]", 2)))


def _key_from_dict(obj: dict, path: str) -> NearnessKey:
    return NearnessKey(
        time=_interval(_need(obj, "time", path), f"{path}.time"),
        space=_box(_need(obj, "box", path), f"{path}.box"),
        concept=ConceptPath.parse(str(_need(obj, "concept", path))),
    )


def _key_to_dict(key: NearnessKey) -> dict:
    return {
        "time": [key.time.start, key.time.end],
        "box": [key.space.x0, key.space.y0, key.space.x1, key.space.y1],
        "concept": str(key.concept),
    }


def _query_from_dict(obj: dict, path: str) -> QuerySpec:
    mode = str(_need(obj, "mode", path))
    if mode == "neighborhood":
        return QuerySpec.neighborhood(
            center=_key_from_dict(_need(obj, "center", path), f"{path}.center"),
            time_radius=_radius(_need(obj, "time_radius", path), f"{path}.time_radius"),
            space_radius=_radius(_need(obj, "space_radius", path), f"{path}.space_radius"),
            concept_radius=_radius(_need(obj, "concept_radius", path),
                                   f"{path}.concept_radius"),
        )
    if mode == "focused":
        time = obj.get("time")
        box = obj.get("box")
        prefix = obj.get("concept_prefix")
        return QuerySpec.focused(
            time_window=None if time is None else _interval(time, f"{path}.time"),
            box=None if box is None else _box(box, f"{path}.box"),
            concept_prefix=None if prefix is None else ConceptPath.parse(str(prefix)),
        )
    raise ValidationError(f"unknown query mode {mode!r}", f"{path}.mode")


def _query_to_dict(spec: QuerySpec) -> dict:
    if spec.mode is QueryMode.Neighborhood:
        def radius(value: float):
            return "inf" if math.isinf(value) else value
        return {
            "mode": "neighborhood",
            "center": _key_to_dict(spec.center),
            "time_radius": radius(spec.time_radius),
            "space_radius": radius(spec.space_radius),
            "concept_radius": radius(spec.concept_radius),
        }
    out: dict = {"mode": "focused"}
    if spec.time_window is not None:
        out["time"] = [spec.time_window.start, spec.time_window.end]
    if spec.box is not None:
        out["box"] = [spec.box.x0, spec.box.y0, spec.box.x1, spec.box.y1]
    if spec.concept_prefix is not None:
        out["concept_prefix"] = str(spec.concept_prefix)
    return out


def _route(raw, path: str, grid: GridSpec) -> tuple[Waypoint, ...]:
    """Read one route; every waypoint must lie inside the grid at t >= 0."""
    waypoints = []
    for i, item in enumerate(_list(raw, path, "a list of [x, y, t] waypoints")):
        where = f"{path}[{i}]"
        if not isinstance(item, list) or len(item) not in (3, 4):
            raise ValidationError("waypoint must be [x, y, t] (an altitude, if "
                                  "present, is accepted and ignored)", where)
        # A 4-element waypoint carries altitude in slot 2; the plane is flat here.
        w = Waypoint(*(_num(v, where) for v in (item[0], item[1], item[-1])))
        if not grid.contains(w.x, w.y):
            raise ValidationError(f"waypoint ({w.x:g}, {w.y:g}) outside grid", where)
        if w.t < 0:
            raise ValidationError("waypoint time must be >= 0", where)
        waypoints.append(w)
    return tuple(waypoints)


def scenario_from_dict(obj: dict) -> Scenario:
    """Check and build a scenario.

    Every check on the input happens here, so a scenario that loads runs
    under both :func:`simulate` and :func:`run_oracle`.
    """
    if not isinstance(obj, dict):
        raise ValidationError("scenario root must be an object", "$")
    g = _obj(_need(obj, "grid", "$"), "grid")
    grid = GridSpec(
        x0=_num(g.get("x0", 0.0), "grid.x0"), y0=_num(g.get("y0", 0.0), "grid.y0"),
        cols=_count(_need(g, "cols", "grid"), "grid.cols"),
        rows=_count(_need(g, "rows", "grid"), "grid.rows"),
        cell=_num(_need(g, "cell", "grid"), "grid.cell"),
    )
    capacity = _obj(obj.get("capacity", {}), "capacity")
    flights: dict[str, FlightPlan] = {}
    for path, f in _objects(obj, "flights"):
        fid = str(_need(f, "id", path))
        if fid in flights:
            raise ValidationError(f"duplicate flight id {fid!r}", path)
        waypoints = _route(_need(f, "waypoints", path), f"{path}.waypoints", grid)
        alternates = tuple(
            _route(alt, f"{path}.alternates[{j}]", grid) for j, alt in
            enumerate(_list(f.get("alternates", []), f"{path}.alternates", "a list of routes")))
        delay = _num(f.get("departure_delay", 0.0), f"{path}.departure_delay")
        priority = _count(f.get("priority", 0), f"{path}.priority")
        try:
            flights[fid] = FlightPlan(fid, waypoints, alternates, delay, priority)
        except ValidationError as exc:
            raise ValidationError(str(exc), path) from None
    storms: list[ScenarioStorm] = []
    for path, s in _objects(obj, "storms"):
        vx, vy = _list(s.get("velocity", [0.0, 0.0]), f"{path}.velocity", "[vx, vy]", 2)
        reported = s.get("reported", False)
        if not isinstance(reported, bool):
            raise ValidationError(f"expected true or false, got {reported!r}",
                                  f"{path}.reported")
        storms.append(ScenarioStorm(
            cell=StormCell(
                id=str(_need(s, "id", path)),
                box=_box(_need(s, "box", path), f"{path}.box"),
                velocity=(_num(vx, f"{path}.velocity"), _num(vy, f"{path}.velocity")),
                active=_interval(_need(s, "active", path), f"{path}.active"),
            ),
            reported=reported,
        ))
    observations: list[Observation] = []
    for path, o in _objects(obj, "observations"):
        payload = _obj(_need(o, "payload", path), f"{path}.payload")
        for name, value in payload.items():
            if not isinstance(value, (str, int, float, bool)):
                raise ValidationError(f"payload field {name!r} must be scalar",
                                      f"{path}.payload")
        key = _key_from_dict(_need(o, "key", path), f"{path}.key")
        confidence = _num(_need(o, "confidence", path), f"{path}.confidence")
        if not 0.0 <= confidence <= 1.0:
            raise ValidationError("confidence outside [0, 1]", f"{path}.confidence")
        try:
            metadata = Metadata(
                source_id=str(_need(o, "source", path)),
                observed_at=_num(o.get("observed_at", key.time.start),
                                 f"{path}.observed_at"),
                size_hint=len(payload), schema_tag="weather-report")
        except ValidationError as exc:
            raise ValidationError(str(exc), path) from None
        observations.append(Observation(dict(payload), confidence, key, metadata))
    subscriptions: dict[str, Subscription] = {}
    for path, s in _objects(obj, "subscriptions"):
        sid = str(_need(s, "id", path))
        if sid in subscriptions:
            raise ValidationError(f"duplicate subscription id {sid!r}", path)
        kinds = s.get("kinds")
        try:
            subscriptions[sid] = Subscription(
                id=sid,
                spec=_query_from_dict(_need(s, "query", path), f"{path}.query"),
                min_confidence=_num(s.get("min_confidence", 0.0),
                                    f"{path}.min_confidence"),
                deliver_kinds=frozenset(NotionKind) if kinds is None else frozenset(
                    NotionKind(str(k))
                    for k in _list(kinds, f"{path}.kinds", "a list of kinds")),
            )
        except ValueError as exc:  # an unknown kind, or a ValidationError
            raise ValidationError(str(exc), path) from None
    closures: list[tuple[tuple[int, int], TimeInterval]] = []
    for path, c in _objects(obj, "closures"):
        col, row = (_count(v, f"{path}.cell")
                    for v in _list(_need(c, "cell", path), f"{path}.cell", "[col, row]", 2))
        if not (0 <= col < grid.cols and 0 <= row < grid.rows):
            raise ValidationError(f"cell ({col}, {row}) outside grid", f"{path}.cell")
        closures.append(((col, row), _interval(_need(c, "interval", path),
                                               f"{path}.interval")))
    return Scenario(
        grid=grid,
        bucket_seconds=_num(obj.get("bucket_seconds", 60.0), "bucket_seconds"),
        horizon_seconds=_num(obj.get("horizon_seconds", 14400.0), "horizon_seconds"),
        calm_capacity=_count(capacity.get("calm", 6), "capacity.calm"),
        severe_capacity=_count(capacity.get("severe", 3), "capacity.severe"),
        flights=tuple(flights.values()),
        storms=tuple(storms),
        observations=tuple(observations),
        subscriptions=tuple(subscriptions.values()),
        closures=tuple(closures),
        seed=_count(obj.get("seed", 0), "seed"),
    )


def scenario_to_dict(s: Scenario) -> dict:
    out: dict = {
        "grid": {
            "x0": s.grid.x0, "y0": s.grid.y0, "cols": s.grid.cols,
            "rows": s.grid.rows, "cell": s.grid.cell,
        },
        "bucket_seconds": s.bucket_seconds,
        "horizon_seconds": s.horizon_seconds,
        "capacity": {"calm": s.calm_capacity, "severe": s.severe_capacity},
        "flights": [
            {
                "id": p.flight_id,
                "priority": p.priority_rank,
                "waypoints": [[w.x, w.y, w.t] for w in p.waypoints],
                "alternates": [[[w.x, w.y, w.t] for w in alt] for alt in p.alternates],
                "departure_delay": p.departure_delay,
            }
            for p in s.flights
        ],
        "storms": [
            {
                "id": st.cell.id,
                "box": [st.cell.box.x0, st.cell.box.y0, st.cell.box.x1, st.cell.box.y1],
                "velocity": [st.cell.velocity[0], st.cell.velocity[1]],
                "active": [st.cell.active.start, st.cell.active.end],
                "reported": st.reported,
            }
            for st in s.storms
        ],
        "observations": [
            {
                "payload": dict(o.payload),
                "source": o.metadata.source_id,
                "confidence": o.confidence,
                "key": _key_to_dict(o.key),
                "observed_at": o.metadata.observed_at,
            }
            for o in s.observations
        ],
        "subscriptions": [
            {
                "id": sub.id,
                "query": _query_to_dict(sub.spec),
                "min_confidence": sub.min_confidence,
                "kinds": sorted(k.value for k in sub.deliver_kinds),
            }
            for sub in s.subscriptions
        ],
        "closures": [
            {"cell": [cell[0], cell[1]], "interval": [iv.start, iv.end]}
            for cell, iv in s.closures
        ],
        "seed": s.seed,
    }
    return out


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", f"line {exc.lineno} col {exc.colno}") \
            from None
    except (ValueError, RecursionError) as exc:  # overlong integer, deep nesting
        raise ParseError(f"invalid JSON: {exc}") from None


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario from JSON text."""
    return scenario_from_dict(_parse_json(text))


def render_scenario(s: Scenario) -> str:
    return json.dumps(scenario_to_dict(s), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# report codec
# ---------------------------------------------------------------------------

def _outcome_to_dict(outcome: InsertOutcome) -> dict:
    return {
        "status": outcome.status.value,
        "changed_flights": list(outcome.changed_flights),
        "new_plans": [
            {"flight": c.flight_id, "route": c.route_index, "added_delay": c.added_delay}
            for c in outcome.new_plans
        ],
        "reason": outcome.reason,
        "violated": None if outcome.violated is None else [
            [outcome.violated[0][0], outcome.violated[0][1]], outcome.violated[1]],
    }


def _outcome_from_dict(obj: dict) -> InsertOutcome:
    violated = obj.get("violated")
    return InsertOutcome(
        status=InsertStatus(obj["status"]),
        changed_flights=tuple(obj.get("changed_flights", [])),
        new_plans=tuple(RouteChoice(p["flight"], p["route"], p["added_delay"])
                        for p in obj.get("new_plans", [])),
        reason=obj.get("reason", ""),
        violated=None if violated is None else
        ((int(violated[0][0]), int(violated[0][1])), float(violated[1])),
    )


def report_to_dict(r: Report) -> dict:
    return {
        "seed": r.seed,
        "bucket_seconds": r.bucket_seconds,
        "grid": {"cols": r.grid_cols, "rows": r.grid_rows},
        "records": [
            {
                "subsector": [rec.subsector[0], rec.subsector[1]],
                "bucket_start": rec.bucket_start,
                "occupancy": rec.occupancy,
                "capacity": rec.capacity,
                "congested": rec.congested,
                "flight_ids": list(rec.flight_ids),
            }
            for rec in r.records
        ],
        "outcomes": {fid: _outcome_to_dict(o) for fid, o in r.outcomes},
        "alerts": [
            {"subscription": a.subscription_id, "datum": a.datum_id,
             "emitted_at": a.emitted_at, "payload_text": a.payload_text}
            for a in r.alerts
        ],
        "stats": {
            "steps": r.stats.steps, "alerts": r.stats.alerts,
            "merges": r.stats.merges, "deletions": r.stats.deletions,
            "quiescent": r.stats.quiescent,
        },
    }


def parse_report(text: str) -> Report:
    obj = _parse_json(text)
    try:
        records = tuple(
            CongestionRecord(
                subsector=(int(rec["subsector"][0]), int(rec["subsector"][1])),
                bucket_start=float(rec["bucket_start"]),
                occupancy=int(rec["occupancy"]),
                capacity=int(rec["capacity"]),
                flight_ids=tuple(rec["flight_ids"]),
            )
            for rec in obj["records"]
        )
        stats = obj["stats"]
        return Report(
            seed=int(obj["seed"]),
            bucket_seconds=float(obj["bucket_seconds"]),
            grid_cols=int(obj["grid"]["cols"]),
            grid_rows=int(obj["grid"]["rows"]),
            records=records,
            outcomes=tuple(sorted(
                (fid, _outcome_from_dict(o)) for fid, o in obj["outcomes"].items())),
            alerts=tuple(
                Alert(a["subscription"], a["datum"], float(a["emitted_at"]),
                      a["payload_text"])
                for a in obj["alerts"]
            ),
            stats=RunStats(steps=int(stats["steps"]), alerts=int(stats["alerts"]),
                           merges=int(stats["merges"]), deletions=int(stats["deletions"]),
                           quiescent=bool(stats["quiescent"])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"not a report document: {exc}", "$") from None


def render_report(r: Report, format: str = "csv") -> str:
    """Serialize a report; csv covers the congestion records only."""
    if format == "csv":
        lines = ["subsector_col,subsector_row,bucket_start,occupancy,capacity,"
                 "congested,flight_ids"]
        for rec in r.records:
            lines.append(
                f"{rec.subsector[0]},{rec.subsector[1]},"
                f"{kernel.format_scalar(rec.bucket_start)},{rec.occupancy},"
                f"{rec.capacity},{'true' if rec.congested else 'false'},"
                f"{';'.join(rec.flight_ids)}")
        return "\n".join(lines) + "\n"
    if format == "json":
        return json.dumps(report_to_dict(r), indent=2, sort_keys=True) + "\n"
    if format == "text":
        by_status: dict[str, int] = {}
        for _, outcome in r.outcomes:
            by_status[outcome.status.value] = by_status.get(outcome.status.value, 0) + 1
        congested = [rec for rec in r.records if rec.congested]
        lines = [
            f"flights: {len(r.outcomes)} "
            + " ".join(f"{k}={v}" for k, v in sorted(by_status.items())),
            f"records: {len(r.records)} occupied buckets, {len(congested)} congested",
            f"alerts: {len(r.alerts)}",
            f"scheduler: {r.stats.steps} steps, "
            f"{'quiescent' if r.stats.quiescent else 'NOT quiescent'}",
        ]
        for rec in congested:
            lines.append(
                f"  congested subsector={rec.subsector} "
                f"bucket={kernel.format_scalar(rec.bucket_start)} "
                f"occupancy={rec.occupancy} capacity={rec.capacity}")
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown report format {format!r}")


def diff_reports(a: Report, b: Report) -> DiffResult:
    """Compare the congestion-record sections of two reports."""
    if a.bucket_seconds != b.bucket_seconds or (a.grid_cols, a.grid_rows) != \
            (b.grid_cols, b.grid_rows):
        raise UsageError("reports use different grids or bucketing")
    index_a = {(rec.subsector, rec.bucket_start): rec for rec in a.records}
    index_b = {(rec.subsector, rec.bucket_start): rec for rec in b.records}
    only_a = tuple(sorted(k for k in index_a if k not in index_b))
    only_b = tuple(sorted(k for k in index_b if k not in index_a))
    mismatched = []
    for key in sorted(set(index_a) & set(index_b)):
        ra, rb = index_a[key], index_b[key]
        if (ra.occupancy, ra.capacity, ra.flight_ids) != \
                (rb.occupancy, rb.capacity, rb.flight_ids):
            mismatched.append(
                f"subsector={key[0]} bucket={kernel.format_scalar(key[1])}: "
                f"occupancy {ra.occupancy}/{ra.capacity} vs {rb.occupancy}/{rb.capacity}")
    return DiffResult(only_a, only_b, tuple(mismatched))


# ---------------------------------------------------------------------------
# simulation driver
# ---------------------------------------------------------------------------

def _fused_storm_confidence(observations, storm_id: str) -> float:
    combined = 0.0
    for obs in observations:
        if str(obs.payload.get("storm_id", "")) == storm_id:
            combined = noisy_or(combined, obs.confidence)
    return combined


def _fused_storm_confidence_from_runtime(rt: Runtime, storm_id: str) -> float:
    combined = 0.0
    for datum_id in rt.live_ids():
        d = rt.datum(datum_id)
        if str(d.payload.get("storm_id", "")) == storm_id:
            combined = noisy_or(combined, d.confidence)
    return combined


def _segment_data(state: AirspaceState, flight_id: str) -> list[ActiveDatum]:
    account = state.flights[flight_id]
    data = []
    for i, seg in enumerate(account.segments):
        payload = {
            "flight": flight_id,
            "col": seg.subsector[0],
            "row": seg.subsector[1],
            "entry": seg.entry,
            "exit": seg.exit,
            "version": seg.plan_version,
        }
        key = NearnessKey(
            time=TimeInterval(seg.entry, seg.exit),
            space=state.grid.cell_bounds(*seg.subsector),
            concept=SEGMENT_CONCEPT,
        )
        data.append(kernel.encapsulate(
            payload, NotionKind.Assumption,
            Metadata(source_id=flight_id, observed_at=max(0.0, state.now),
                     size_hint=len(payload), schema_tag="trajectory-segment"),
            source_confidence=1.0, key=key,
            datum_id=f"seg-{flight_id}-v{account.version}-{i:03d}"))
    return data


class _Driver:
    """Wires the airspace state to the activation runtime for one run."""

    def __init__(self, scenario: Scenario, max_steps: int | None,
                 include_empty: bool):
        self.scenario = scenario
        self.max_steps = max_steps
        self.include_empty = include_empty
        self.state = AirspaceState(
            grid=scenario.grid,
            bucket_seconds=scenario.bucket_seconds,
            calm_capacity=scenario.calm_capacity,
            severe_capacity=scenario.severe_capacity,
            closures=_closure_map(scenario),
            horizon_seconds=scenario.horizon_seconds,
        )
        self.rt = Runtime(SchedulerConfig(space_radius=scenario.grid.cell),
                          index_cell_size=scenario.grid.cell)
        self.outcomes: dict[str, InsertOutcome] = {}
        self.segment_data: dict[str, list[str]] = {}
        self.total = RunStats(quiescent=True)
        self.steps_used = 0

    def _budget(self) -> int:
        if self.max_steps is not None:
            return max(1, self.max_steps - self.steps_used)
        return max(1, 10 * (len(self.rt.data_ids()) + self.rt.pending_tasks() + 1))

    def _drain(self) -> None:
        if self.rt.pending_tasks() == 0:
            return
        stats = self.rt.run_until_quiescent(self._budget())
        self.steps_used += stats.steps
        self.total.steps += stats.steps
        self.total.alerts += stats.alerts
        self.total.merges += stats.merges
        self.total.deletions += stats.deletions
        self.total.quiescent = self.total.quiescent and stats.quiescent

    def _ingest_observations(self) -> None:
        for i, obs in enumerate(self.scenario.observations):
            datum = kernel.encapsulate(
                obs.payload, NotionKind.Event, obs.metadata,
                source_confidence=obs.confidence, key=obs.key,
                datum_id=f"obs-{i + 1:03d}")
            self.rt.add(datum)
            self.rt.enqueue(datum.id, ActivationReason.NewData)
        self._drain()

    def _confirm_storms(self) -> tuple[list[StormCell], list[StormCell]]:
        """Split scenario storms into (known at filing, confirmed later)."""
        filed: list[StormCell] = []
        confirmed: list[StormCell] = []
        for storm in self.scenario.storms:
            if not storm.reported:
                filed.append(storm.cell)
                continue
            confidence = _fused_storm_confidence_from_runtime(self.rt, storm.cell.id)
            if confidence >= STORM_CONFIRMATION:
                confirmed.append(storm.cell)
                self.rt.emit("storm", storm.cell.id,
                             f"confirmed confidence={confidence:.6f}")
            else:
                self.rt.emit("storm", storm.cell.id,
                             f"unconfirmed confidence={confidence:.6f}")
        return filed, confirmed

    def _publish_flight(self, flight_id: str) -> None:
        for datum_id in self.segment_data.pop(flight_id, []):
            self.rt.mark_deleted(datum_id)
        ids = []
        for datum in _segment_data(self.state, flight_id):
            self.rt.add(datum)
            self.rt.enqueue(datum.id, ActivationReason.NewData)
            ids.append(datum.id)
        self.segment_data[flight_id] = ids

    def _insert_flights(self) -> None:
        order = sorted(self.scenario.flights, key=lambda p: (p.departure, p.flight_id))
        for plan in order:
            outcome = self.state.try_insert(plan)
            self.outcomes[plan.flight_id] = outcome
            if outcome.status is InsertStatus.Rejected:
                self.rt.emit("rejected", plan.flight_id, outcome.reason)
                continue
            if outcome.status is InsertStatus.Accepted:
                self._publish_flight(plan.flight_id)
            else:
                self.rt.emit("rerouted", plan.flight_id,
                             f"changed={','.join(outcome.changed_flights)}")
                # The arriving flight entered the state even when only
                # residents deviated, so its data must be published too.
                for fid in sorted(set(outcome.changed_flights) | {plan.flight_id}):
                    self._publish_flight(fid)

    def _advance_weather(self, filed: list[StormCell],
                         confirmed: list[StormCell]) -> None:
        self.state.set_storms(tuple(filed + confirmed))
        events = self.state.advance_weather(0.0)
        touched_cells: set[tuple[int, int]] = set()
        for event in events:
            tag = f"cell:{event.subsector[0]},{event.subsector[1]}"
            self.rt.emit(f"weather-{event.kind}", tag,
                         f"bucket={kernel.format_scalar(event.bucket_start)} "
                         f"flights={','.join(event.flight_ids)} {event.detail}".strip())
            touched_cells.add(event.subsector)
            if event.kind == "bumped":
                fid = event.flight_ids[0]
                self.outcomes[fid] = InsertOutcome(
                    InsertStatus.Rejected,
                    reason=f"capacity lost to severe weather: subsector={event.subsector} "
                           f"bucket={event.bucket_start:g}",
                    violated=(event.subsector, event.bucket_start))
                for datum_id in self.segment_data.pop(fid, []):
                    self.rt.mark_deleted(datum_id)
            elif event.kind == "reroute":
                fid = event.flight_ids[0]
                account = self.state.flights[fid]
                choice = RouteChoice(fid, account.route_index, account.added_delay)
                previous = self.outcomes.get(fid)
                merged_changed = (fid,)
                if previous is not None and previous.status is InsertStatus.Rerouted:
                    merged_changed = tuple(sorted(set(previous.changed_flights) | {fid}))
                self.outcomes[fid] = InsertOutcome(
                    InsertStatus.Rerouted, changed_flights=merged_changed,
                    new_plans=(choice,), reason="severe weather reroute")
                self._publish_flight(fid)
        # Residents of weather-affected cells re-examine their placement.
        for fid in sorted(self.state.flights):
            if any(seg.subsector in touched_cells
                   for seg in self.state.flights[fid].segments):
                for datum_id in self.segment_data.get(fid, []):
                    self.rt.enqueue(datum_id, ActivationReason.WeatherChanged)

    def run(self) -> SimulationRun:
        for sub in self.scenario.subscriptions:
            self.rt.subscribe(sub)
        self._ingest_observations()
        filed, confirmed = self._confirm_storms()
        self.state.set_storms(tuple(filed))
        self._insert_flights()
        self._advance_weather(filed, confirmed)
        self._drain()
        records = self.state.predict_congestion(
            now=0.0, horizon=self.scenario.horizon_seconds,
            include_empty=self.include_empty)
        report = Report(
            seed=self.scenario.seed,
            bucket_seconds=self.scenario.bucket_seconds,
            grid_cols=self.scenario.grid.cols,
            grid_rows=self.scenario.grid.rows,
            records=tuple(records),
            outcomes=tuple(sorted(self.outcomes.items())),
            alerts=tuple(self.rt.alerts),
            stats=self.total,
        )
        return SimulationRun(report=report, event_log=self.rt.render_event_log(),
                             runtime=self.rt, state=self.state)


def _closure_map(scenario: Scenario) -> dict[tuple[int, int], tuple[TimeInterval, ...]]:
    out: dict[tuple[int, int], tuple[TimeInterval, ...]] = {}
    for cell, interval in scenario.closures:
        out[cell] = out.get(cell, ()) + (interval,)
    return out


def _check_full_report(scenario: Scenario, include_empty: bool) -> None:
    """A report of every cell and bucket may hold at most ``MAX_SPOTS`` records."""
    if not include_empty:
        return
    grid = scenario.grid
    buckets = math.ceil(scenario.horizon_seconds / scenario.bucket_seconds)
    if grid.cols * grid.rows * buckets > MAX_SPOTS:
        raise ValidationError(
            f"a full report would hold {grid.cols} x {grid.rows} cells x {buckets} "
            f"buckets, more than {MAX_SPOTS} records", "include_empty")


def simulate(scenario: Scenario, max_steps: int | None = None,
             include_empty: bool = False) -> SimulationRun:
    """Run the full decentralized pipeline, returning report plus artifacts."""
    _check_full_report(scenario, include_empty)
    return _Driver(scenario, max_steps, include_empty).run()


def run_simulation(scenario: Scenario, max_steps: int | None = None,
                   include_empty: bool = False) -> Report:
    return simulate(scenario, max_steps, include_empty).report


def run_oracle(scenario: Scenario, include_empty: bool = False) -> Report:
    """Centralized recomputation: accept everything, count everything.

    Deliberately avoids the airspace state's incremental bookkeeping; the
    occupancy map is rebuilt from scratch with nested loops.
    """
    _check_full_report(scenario, include_empty)
    dt = scenario.bucket_seconds
    grid = scenario.grid
    storms = [st.cell for st in scenario.storms
              if not st.reported
              or _fused_storm_confidence(scenario.observations, st.cell.id)
              >= STORM_CONFIRMATION]
    occupancy: dict[tuple[tuple[int, int], float], set[str]] = {}
    outcomes: list[tuple[str, InsertOutcome]] = []
    for plan in scenario.flights:
        outcomes.append((plan.flight_id, InsertOutcome(InsertStatus.Accepted)))
        for seg in segment_trajectory(plan, grid):
            entry = seg.entry + plan.departure_delay
            exit_ = seg.exit + plan.departure_delay
            first = math.floor(entry / dt)
            last = math.ceil(exit_ / dt)
            for i in range(first, last):
                occupancy.setdefault((seg.subsector, i * dt), set()).add(plan.flight_id)
    closures = _closure_map(scenario)
    window_end = scenario.horizon_seconds
    keys: list[tuple[tuple[int, int], float]]
    if include_empty:
        keys = []
        i = 0
        while i * dt < window_end:
            for cell in grid.all_cells():
                keys.append((cell, i * dt))
            i += 1
    else:
        keys = [k for k in occupancy if 0 <= k[1] < window_end]
    records = []
    for cell, bucket_start in keys:
        flights = tuple(sorted(occupancy.get((cell, bucket_start), ())))
        subsector = Subsector(cell, grid.cell_bounds(*cell), scenario.calm_capacity,
                              scenario.severe_capacity, closures.get(cell, ()))
        capacity = bucket_capacity(subsector,
                                   TimeInterval(bucket_start, bucket_start + dt),
                                   tuple(storms))
        records.append(CongestionRecord(cell, bucket_start, len(flights),
                                        capacity, flights))
    records.sort(key=lambda r: (r.bucket_start, r.subsector[0], r.subsector[1]))
    return Report(
        seed=scenario.seed,
        bucket_seconds=dt,
        grid_cols=grid.cols,
        grid_rows=grid.rows,
        records=tuple(records),
        outcomes=tuple(sorted(outcomes)),
        alerts=(),
        stats=RunStats(quiescent=True),
    )
