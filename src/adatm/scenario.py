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
from json.encoder import encode_basestring_ascii

from . import kernel
from .airspace import GridSpec, StormCell, Subsector, bucket_capacity, storm_overlap_window
from .errors import ParseError, UsageError, ValidationError
from .kernel import ActiveDatum, Metadata, NotionKind, noisy_or
from .nearness import (
    ConceptPath,
    NearnessKey,
    PlanarBox,
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
from .traffic import (
    MAX_SPOTS,
    AirspaceState,
    CongestionRecord,
    InsertOutcome,
    InsertStatus,
    RouteChoice,
)
from .trajectory import FlightPlan, Waypoint, route_spot_bound, segment_trajectory

#: Fused observation confidence at which a reported storm is taken as real.
STORM_CONFIRMATION = 0.75

#: Concept filed for trajectory-segment data in the nearness index.
SEGMENT_CONCEPT = ConceptPath(("airspace", "traffic", "segment"))


@dataclass(frozen=True, slots=True)
class ScenarioStorm:
    """A storm plus whether it needs observational confirmation."""

    cell: StormCell
    reported: bool = False


@dataclass(frozen=True, slots=True)
class Observation:
    """A raw weather report to be encapsulated into the runtime."""

    payload: dict
    confidence: float
    key: NearnessKey
    metadata: Metadata


@dataclass(frozen=True, slots=True)
class Scenario:
    """A checked scenario: the grid and its bucketing, the capacities, and
    the flights, storms, observations, subscriptions and closures to run.
    Built by :func:`scenario_from_dict`, which holds the document's defaults."""

    grid: GridSpec
    bucket_seconds: float
    horizon_seconds: float
    calm_capacity: int
    severe_capacity: int
    flights: tuple[FlightPlan, ...]
    storms: tuple[ScenarioStorm, ...]
    observations: tuple[Observation, ...]
    subscriptions: tuple[Subscription, ...]
    closures: tuple[tuple[tuple[int, int], TimeInterval], ...]
    seed: int

    def __post_init__(self):
        # Written so that NaN fails the tests too.
        if not 0 < self.bucket_seconds < math.inf:
            raise ValidationError("bucket_seconds must be positive and finite",
                                  "bucket_seconds")
        if not 0 < self.horizon_seconds < math.inf:
            raise ValidationError("horizon_seconds must be positive and finite",
                                  "horizon_seconds")
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


@dataclass(frozen=True, slots=True)
class Report:
    """The outcome of a run: congestion records, each flight's insert
    outcome, the alerts raised and the runtime's counts."""

    seed: int
    bucket_seconds: float
    grid_cols: int
    grid_rows: int
    records: tuple[CongestionRecord, ...]
    outcomes: tuple[tuple[str, InsertOutcome], ...]  # sorted by flight id
    alerts: tuple[Alert, ...]
    stats: RunStats


@dataclass(frozen=True, slots=True)
class DiffResult:
    """Spots found in only one of two reports, and the spots whose records
    disagree."""

    only_in_a: tuple[tuple[tuple[int, int], float], ...]
    only_in_b: tuple[tuple[tuple[int, int], float], ...]
    mismatched: tuple[str, ...]

    @property
    def empty(self) -> bool:
        return not (self.only_in_a or self.only_in_b or self.mismatched)


@dataclass(slots=True)
class SimulationRun:
    """A report plus the runtime artifacts behind it."""

    report: Report
    event_log: str
    runtime: Runtime
    state: AirspaceState


# ---------------------------------------------------------------------------
# scenario JSON reader
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


def _count(value, path: str, least: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"expected an integer, got {value!r}", path)
    if least is not None and value < least:
        raise ValidationError(f"expected an integer >= {least}, got {value}", path)
    return value


def _text(value, path: str) -> str:
    if type(value) is not str:
        raise ValidationError(f"expected a string, got {value!r}", path)
    return value


#: What a flight, storm or subscription id may not hold: the event log's
#: field separator, the CSV report's column and flight-id separators, and
#: every line boundary that ``str.splitlines`` splits on.
_ID_BREAKS = frozenset("|,;\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _id(value, path: str, name: str = "id") -> str:
    """An id that is non-empty and holds no ``_ID_BREAKS``; ``name`` is what
    the empty-id error calls it."""
    text = _text(value, path)
    if not text:
        raise ValidationError(f"{name} must be non-empty", path)
    for c in text:
        if c in _ID_BREAKS:
            raise ValidationError(f"id {text!r} holds {c!r}, a CSV or log separator", path)
    return text


def _payload_string(text, strings: dict[str, str], path: str) -> str:
    """``text`` recorded as its first copy in ``strings``, once it is known
    to hold no ``;`` or ``=``, so that a payload text splits one way."""
    for c in ";=":
        if c in _text(text, path):
            raise ValidationError(
                f"payload text {text!r} holds {c!r}, a payload text separator", path)
    strings[text] = text
    return text


def _ids(value, path: str) -> tuple[str, ...]:
    """A list of flight ids, each read by ``_id`` at the list's path."""
    return tuple(_id(fid, path) for fid in _list(value, path, "a list of flight ids"))


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"expected true or false, got {value!r}", path)
    return value


def _cell(value, path: str) -> tuple[int, int]:
    col, row = _list(value, path, "[col, row]", 2)
    return _count(col, path, least=0), _count(row, path, least=0)


def _radius(value, path: str) -> float:
    if value == "inf":
        return math.inf
    return _num(value, path)


#: A value object's field name -> its JSON name under the reader's path,
#: where the two differ; "" where the error names the value itself.
_JSON_NAMES = {"time": "", "box": "", "concept": "", "flight_id": "id",
               "source_id": "source"}


def _within(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, the value object read at ``path``.  Its
    ``ValidationError``, which names only its own field (``min_confidence``),
    is raised again at that field's JSON path under ``path``."""
    try:
        return make(*args, **kwargs)
    except ValidationError as exc:
        name = _JSON_NAMES.get(exc.path, exc.path)
        raise ValidationError(exc.message, f"{path}.{name}" if name else path) from None


def _kind(value, path: str) -> NotionKind:
    text = _text(value, path)
    try:
        return NotionKind(text)
    except ValueError:
        raise ValidationError(f"unknown kind {text!r}", path) from None


def _list(value, path: str, shape: str, length: int | None = None) -> list:
    if not isinstance(value, list) or length is not None and len(value) != length:
        raise ValidationError(f"expected {shape}", path)
    return value


def _objects(obj: dict, name: str) -> list[tuple[str, dict]]:
    """The entries of an optional list-of-objects field, each with its path."""
    items = _list(obj.get(name, []), name, "a list of objects")
    return [(f"{name}[{i}]", _obj(item, f"{name}[{i}]")) for i, item in enumerate(items)]


def _box(value, path: str) -> PlanarBox:
    x0, y0, x1, y1 = _list(value, path, "[x0, y0, x1, y1]", 4)
    return _within(path, PlanarBox, _num(x0, path), _num(y0, path), _num(x1, path),
                   _num(y1, path))


def _interval(value, path: str) -> TimeInterval:
    start, end = _list(value, path, "[start, end]", 2)
    return _within(path, TimeInterval, _num(start, path), _num(end, path))


def _key_from_dict(obj: dict, path: str, concepts: dict[str, ConceptPath]) -> NearnessKey:
    """A key; ``concepts`` maps each concept text read so far in this load
    to its one path, so that keys with equal concepts share it."""
    time = _interval(_need(obj, "time", path), f"{path}.time")
    space = _box(_need(obj, "box", path), f"{path}.box")
    text = _text(_need(obj, "concept", path), f"{path}.concept")
    concept = concepts.get(text)
    if concept is None:
        concept = concepts[text] = _within(f"{path}.concept", ConceptPath.parse, text)
    return NearnessKey(time, space, concept)


def _query_from_dict(obj: dict, path: str, concepts: dict[str, ConceptPath]) -> QuerySpec:
    mode = _text(_need(obj, "mode", path), f"{path}.mode")
    if mode == "neighborhood":
        return _within(
            path, QuerySpec.neighborhood,
            center=_key_from_dict(_need(obj, "center", path), f"{path}.center", concepts),
            time_radius=_radius(_need(obj, "time_radius", path), f"{path}.time_radius"),
            space_radius=_radius(_need(obj, "space_radius", path), f"{path}.space_radius"),
            concept_radius=_radius(_need(obj, "concept_radius", path),
                                   f"{path}.concept_radius"),
        )
    if mode == "focused":
        time = obj.get("time")
        box = obj.get("box")
        prefix = obj.get("concept_prefix")
        if time is not None:
            time = _interval(time, f"{path}.time")
        if box is not None:
            box = _box(box, f"{path}.box")
        if prefix is not None:
            prefix = _within(f"{path}.concept_prefix", ConceptPath.parse,
                             _text(prefix, f"{path}.concept_prefix"))
        return _within(path, QuerySpec.focused, time_window=time, box=box,
                       concept_prefix=prefix)
    raise ValidationError(f"unknown query mode {mode!r}", f"{path}.mode")


def _route(raw, path: str, grid: GridSpec) -> tuple[Waypoint, ...]:
    """Read one route; every waypoint must lie inside the grid at t >= 0."""
    waypoints = []
    for i, item in enumerate(_list(raw, path, "a list of [x, y, t] waypoints")):
        where = f"{path}[{i}]"
        if not isinstance(item, list) or len(item) not in (3, 4):
            raise ValidationError("waypoint must be [x, y, t] (an altitude, if "
                                  "present, is accepted and ignored)", where)
        # A 4-element waypoint carries altitude in slot 2; the plane is flat here.
        w = Waypoint(_num(item[0], where), _num(item[1], where), _num(item[-1], where))
        if not grid.contains(w.x, w.y):
            raise ValidationError(f"waypoint ({w.x:g}, {w.y:g}) outside grid", where)
        if w.t < 0:
            raise ValidationError("waypoint time must be >= 0", where)
        waypoints.append(w)
    return tuple(waypoints)


def scenario_from_dict(obj: dict) -> Scenario:
    """Check and build a scenario.

    Every check on the input happens here, so a scenario that loads runs
    under both :func:`simulate` and :func:`run_oracle`.  The scenario
    shares nothing mutable with ``obj``.  Within one load, equal concept
    paths are one object, and so are equal observation sources and
    payload strings, where a decoded document holds a new string for
    each occurrence.
    """
    if not isinstance(obj, dict):
        raise ValidationError("scenario root must be an object", "$")
    g = _obj(_need(obj, "grid", "$"), "grid")
    grid = GridSpec(
        x0=_num(g.get("x0", 0.0), "grid.x0"), y0=_num(g.get("y0", 0.0), "grid.y0"),
        cols=_count(_need(g, "cols", "grid"), "grid.cols", least=1),
        rows=_count(_need(g, "rows", "grid"), "grid.rows", least=1),
        cell=_num(_need(g, "cell", "grid"), "grid.cell"),
    )
    capacity = _obj(obj.get("capacity", {}), "capacity")
    flights: dict[str, FlightPlan] = {}
    for path, f in _objects(obj, "flights"):
        fid = _id(_need(f, "id", path), f"{path}.id", "flight_id")
        if fid in flights:
            raise ValidationError(f"duplicate flight id {fid!r}", path)
        waypoints = _route(_need(f, "waypoints", path), f"{path}.waypoints", grid)
        alternates = tuple(
            _route(alt, f"{path}.alternates[{j}]", grid) for j, alt in
            enumerate(_list(f.get("alternates", []), f"{path}.alternates", "a list of routes")))
        delay = _num(f.get("departure_delay", 0.0), f"{path}.departure_delay")
        priority = _count(f.get("priority", 0), f"{path}.priority")
        flights[fid] = _within(path, FlightPlan, fid, waypoints, alternates, delay, priority)
    storms: list[ScenarioStorm] = []
    for path, s in _objects(obj, "storms"):
        vx, vy = _list(s.get("velocity", [0.0, 0.0]), f"{path}.velocity", "[vx, vy]", 2)
        reported = _bool(s.get("reported", False), f"{path}.reported")
        storms.append(ScenarioStorm(
            cell=StormCell(
                id=_id(_need(s, "id", path), f"{path}.id"),
                box=_box(_need(s, "box", path), f"{path}.box"),
                velocity=(_num(vx, f"{path}.velocity"), _num(vy, f"{path}.velocity")),
                active=_interval(_need(s, "active", path), f"{path}.active"),
            ),
            reported=reported,
        ))
    # One map each, to a value's first copy: concept text -> its path, payload
    # strings (checked when first recorded) and sources (not checked).
    concepts: dict[str, ConceptPath] = {}
    strings: dict[str, str] = {}
    sources: dict[str, str] = {}
    observations: list[Observation] = []
    for path, o in _objects(obj, "observations"):
        where = f"{path}.payload"
        payload = {}
        for name, value in _obj(_need(o, "payload", path), where).items():
            name = strings.get(name) or _payload_string(name, strings, where)
            if type(value) is str:
                value = strings.get(value) or _payload_string(value, strings, where)
            elif not isinstance(value, (int, float, bool)):
                raise ValidationError(f"payload field {name!r} must be scalar", where)
            payload[name] = value
        if type(storm := payload.get("storm_id", "")) is not str:  # matched to a storm id
            raise ValidationError(f"storm_id must be a string, got {storm!r}", where)
        key = _key_from_dict(_need(o, "key", path), f"{path}.key", concepts)
        confidence = _num(_need(o, "confidence", path), f"{path}.confidence")
        if not 0.0 <= confidence <= 1.0:
            raise ValidationError("confidence outside [0, 1]", f"{path}.confidence")
        source = _text(_need(o, "source", path), f"{path}.source")
        if "observed_at" not in o and key.time.start < 0:  # the default is at fault
            raise ValidationError("time start must be >= 0 when observed_at is absent",
                                  f"{path}.key.time")
        metadata = _within(
            path, Metadata, source_id=sources.setdefault(source, source),
            observed_at=_num(o.get("observed_at", key.time.start), f"{path}.observed_at"),
            size_hint=len(payload), schema_tag="weather-report")
        observations.append(Observation(payload, confidence, key, metadata))
    subscriptions: dict[str, Subscription] = {}
    for path, s in _objects(obj, "subscriptions"):
        sid = _id(_need(s, "id", path), f"{path}.id")
        if sid in subscriptions:
            raise ValidationError(f"duplicate subscription id {sid!r}", path)
        spec = _query_from_dict(_need(s, "query", path), f"{path}.query", concepts)
        kinds = s.get("kinds")
        subscriptions[sid] = _within(
            path, Subscription, sid, spec,
            _num(s.get("min_confidence", 0.0), f"{path}.min_confidence"),
            frozenset(NotionKind) if kinds is None else frozenset(
                _kind(k, f"{path}.kinds[{j}]") for j, k in
                enumerate(_list(kinds, f"{path}.kinds", "a list of kinds"))))
    closures: list[tuple[tuple[int, int], TimeInterval]] = []
    for path, c in _objects(obj, "closures"):
        col, row = _cell(_need(c, "cell", path), f"{path}.cell")
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


def _outcome_from_dict(obj, path: str) -> InsertOutcome:
    status = _need(obj, "status", path)
    if status not in [s.value for s in InsertStatus]:
        raise ValidationError(f"unknown status {status!r}", f"{path}.status")
    new_plans = []
    for i, p in enumerate(_list(obj.get("new_plans", []), f"{path}.new_plans",
                                "a list of objects")):
        where = f"{path}.new_plans[{i}]"
        new_plans.append(RouteChoice(
            _id(_need(p, "flight", where), f"{where}.flight"),
            _count(_need(p, "route", where), f"{where}.route"),
            _num(_need(p, "added_delay", where), f"{where}.added_delay")))
    violated = obj.get("violated")
    if violated is not None:
        where = f"{path}.violated"
        cell, bucket = _list(violated, where, "[[col, row], bucket]", 2)
        violated = (_cell(cell, where), _num(bucket, where))
    return InsertOutcome(
        status=InsertStatus(status),
        changed_flights=_ids(obj.get("changed_flights", []), f"{path}.changed_flights"),
        new_plans=tuple(new_plans),
        reason=_text(obj.get("reason", ""), f"{path}.reason"),
        violated=violated,
    )


def _report_head_to_dict(r: Report) -> dict:
    """Everything of the report, with its alerts and records empty."""
    return {
        "seed": r.seed,
        "bucket_seconds": r.bucket_seconds,
        "grid": {"cols": r.grid_cols, "rows": r.grid_rows},
        "outcomes": {fid: _outcome_to_dict(o) for fid, o in r.outcomes},
        "alerts": [], "records": [],
        "stats": {
            "steps": r.stats.steps, "alerts": r.stats.alerts,
            "merges": r.stats.merges, "deletions": r.stats.deletions,
            "quiescent": r.stats.quiescent,
        },
    }


def report_to_dict(r: Report) -> dict:
    out = _report_head_to_dict(r)
    out["alerts"] = [
        {"subscription": a.subscription_id, "datum": a.datum_id,
         "emitted_at": a.emitted_at, "payload_text": a.payload_text}
        for a in r.alerts
    ]
    out["records"] = [
        {
            "subsector": [rec.subsector[0], rec.subsector[1]],
            "bucket_start": rec.bucket_start,
            "occupancy": rec.occupancy,
            "capacity": rec.capacity,
            "congested": rec.congested,
            "flight_ids": list(rec.flight_ids),
        }
        for rec in r.records
    ]
    return out


def _record_from_dict(obj, path: str) -> CongestionRecord:
    """One congestion record: counts are not negative, and the occupancy is
    the number of its distinct flight ids, which are strings."""
    subsector = _cell(_need(obj, "subsector", path), f"{path}.subsector")
    bucket_start = _num(_need(obj, "bucket_start", path), f"{path}.bucket_start")
    occupancy = _count(_need(obj, "occupancy", path), f"{path}.occupancy", least=0)
    capacity = _count(_need(obj, "capacity", path), f"{path}.capacity", least=0)
    where = f"{path}.flight_ids"
    ids = _ids(_need(obj, "flight_ids", path), where)
    if len(set(ids)) != len(ids):
        raise ValidationError("a flight id repeats", where)
    if occupancy != len(ids):
        raise ValidationError(f"occupancy {occupancy} but {len(ids)} flight ids",
                              f"{path}.occupancy")
    return CongestionRecord(subsector, bucket_start, occupancy, capacity, ids)


def parse_report(text: str) -> Report:
    """Read a JSON report through the scenario readers: anything but a
    report document, or a report holding a value that no run writes,
    raises ``ValidationError`` naming the field's path.  No run writes two
    records for one spot, a grid size below 1, a negative cell or count, a
    bucket of 0 seconds or less, a text that is not a string, or a flight
    id that ``_id`` refuses."""
    obj = _obj(_parse_json(text), "$")
    records = []
    spots = set()
    for i, rec in enumerate(_list(_need(obj, "records", "$"), "records",
                                  "a list of objects")):
        path = f"records[{i}]"
        record = _record_from_dict(rec, path)
        spot = (record.subsector, record.bucket_start)
        if spot in spots:
            raise ValidationError(
                f"a second record for subsector={record.subsector} "
                f"bucket={kernel.format_scalar(record.bucket_start)}", path)
        spots.add(spot)
        records.append(record)
    alerts = []
    for i, a in enumerate(_list(_need(obj, "alerts", "$"), "alerts", "a list of objects")):
        path = f"alerts[{i}]"
        alerts.append(Alert(
            _text(_need(a, "subscription", path), f"{path}.subscription"),
            _text(_need(a, "datum", path), f"{path}.datum"),
            _num(_need(a, "emitted_at", path), f"{path}.emitted_at"),
            _text(_need(a, "payload_text", path), f"{path}.payload_text")))
    outcomes = _obj(_need(obj, "outcomes", "$"), "outcomes")
    grid = _need(obj, "grid", "$")
    stats = _need(obj, "stats", "$")
    bucket_seconds = _num(_need(obj, "bucket_seconds", "$"), "bucket_seconds")
    if bucket_seconds <= 0:
        raise ValidationError(f"expected a number > 0, got {bucket_seconds!r}",
                              "bucket_seconds")
    return Report(
        seed=_count(_need(obj, "seed", "$"), "seed"),
        bucket_seconds=bucket_seconds,
        grid_cols=_count(_need(grid, "cols", "grid"), "grid.cols", least=1),
        grid_rows=_count(_need(grid, "rows", "grid"), "grid.rows", least=1),
        records=tuple(records),
        # Each entry's path quotes its id, so that "" or "a.b" names one entry.
        outcomes=tuple(sorted(
            (_id(fid, path), _outcome_from_dict(o, path)) for fid, o in outcomes.items()
            for path in [f"outcomes[{json.dumps(fid)}]"])),
        alerts=tuple(alerts),
        stats=RunStats(
            *(_count(_need(stats, name, "stats"), f"stats.{name}", least=0)
              for name in ("steps", "alerts", "merges", "deletions")),
            quiescent=_bool(_need(stats, "quiescent", "stats"), "stats.quiescent")),
    )


#: The top-level records key of an indented report whose records are empty.
_NO_RECORDS = '\n  "records": []'
#: The start of an indented report whose alerts, its first key, are empty.
_NO_ALERTS = '{\n  "alerts": []'


def _json_float(value: float) -> str:
    """A float as ``json.dumps`` writes it, non-finite values included."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return repr(value)


def _render_json(r: Report) -> str:
    """``json.dumps(report_to_dict(r), indent=2, sort_keys=True)`` plus a
    newline, byte for byte.

    ``indent`` keeps ``json`` on its pure-Python encoder, so the records,
    the bulk of a report, and the alerts are written from one template
    each instead: strings through the C string encoder, numbers by
    ``repr``.  The rest is dumped as before with empty records and
    alerts, and each list is spliced in at its sorted key: the alerts
    open the report, and strings are dumped with every newline escaped,
    so the top-level records key is the first match.
    """
    text = json.dumps(_report_head_to_dict(r), indent=2, sort_keys=True)
    if r.alerts:
        alerts = ",\n".join(
            f'    {{\n'
            f'      "datum": {encode_basestring_ascii(a.datum_id)},\n'
            f'      "emitted_at": {_json_float(a.emitted_at)},\n'
            f'      "payload_text": {encode_basestring_ascii(a.payload_text)},\n'
            f'      "subscription": {encode_basestring_ascii(a.subscription_id)}\n'
            f'    }}' for a in r.alerts)
        text = '{\n  "alerts": [\n' + alerts + "\n  ]" + text[len(_NO_ALERTS):]
    if not r.records:
        return text + "\n"
    records = []
    for rec in r.records:
        col, row = rec.subsector
        ids = ",\n        ".join(map(encode_basestring_ascii, rec.flight_ids))
        flight_ids = "[\n        " + ids + "\n      ]" if ids else "[]"
        records.append(
            f'    {{\n'
            f'      "bucket_start": {_json_float(rec.bucket_start)},\n'
            f'      "capacity": {rec.capacity!r},\n'
            f'      "congested": {"true" if rec.congested else "false"},\n'
            f'      "flight_ids": {flight_ids},\n'
            f'      "occupancy": {rec.occupancy!r},\n'
            f'      "subsector": [\n'
            f'        {col!r},\n'
            f'        {row!r}\n'
            f'      ]\n'
            f'    }}')
    head, _, tail = text.partition(_NO_RECORDS)
    return head + '\n  "records": [\n' + ",\n".join(records) + "\n  ]" + tail + "\n"


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
        return _render_json(r)
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
        if obs.payload.get("storm_id") == storm_id:
            combined = noisy_or(combined, obs.confidence)
    return combined


def _fused_storm_confidence_from_runtime(rt: Runtime, storm_id: str) -> float:
    combined = 0.0
    for datum_id in rt.live_ids():
        d = rt.datum(datum_id)
        if d.payload.get("storm_id") == storm_id:
            combined = noisy_or(combined, d.confidence)
    return combined


def _segment_data(state: AirspaceState, flight_id: str) -> list[ActiveDatum]:
    """One datum per segment of the flight's account.

    The data share one metadata and the hyperdata that ``kernel.encapsulate``
    gives the first of them, and a cell's box is its subsector's.
    """
    account = state.flights[flight_id]
    version = account.version
    # Every segment payload below has the same six fields.
    metadata = Metadata(source_id=flight_id, observed_at=state.now,
                        size_hint=6, schema_tag="trajectory-segment")
    hyperdata = None
    data = []
    for i, seg in enumerate(account.segments):
        cell = seg.subsector
        payload = {
            "flight": flight_id,
            "col": cell[0],
            "row": cell[1],
            "entry": seg.entry,
            "exit": seg.exit,
            "version": version,
        }
        key = NearnessKey(
            time=TimeInterval(seg.entry, seg.exit),
            space=state.subsector(*cell).bounds,
            concept=SEGMENT_CONCEPT,
        )
        datum_id = f"seg-{flight_id}-v{version}-{i:03d}"
        if hyperdata is None:
            datum = kernel.encapsulate(payload, NotionKind.Assumption, metadata,
                                       source_confidence=1.0, key=key, datum_id=datum_id)
            hyperdata = datum.hyperdata
        else:
            datum = ActiveDatum(datum_id, NotionKind.Assumption, payload, key,
                                metadata, hyperdata)
        data.append(datum)
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

    def _budget(self) -> int:
        if self.max_steps is not None:
            return self.max_steps - self.total.steps
        return max(1, 10 * (self.rt.data_count() + self.rt.pending_tasks() + 1))

    def _drain(self) -> None:
        if self.rt.pending_tasks() == 0:
            return
        budget = self._budget()
        # ``max_steps`` caps the whole run: once it is spent, tasks stay queued.
        if budget < 1:
            self.total.quiescent = False
            return
        stats = self.rt.run_until_quiescent(budget)
        self.total.steps += stats.steps
        self.total.alerts += stats.alerts
        self.total.merges += stats.merges
        self.total.deletions += stats.deletions
        self.total.quiescent = self.total.quiescent and stats.quiescent

    def _ingest_observations(self) -> None:
        encapsulate, add, enqueue = kernel.encapsulate, self.rt.add, self.rt.enqueue
        event, new_data = NotionKind.Event, ActivationReason.NewData
        for i, obs in enumerate(self.scenario.observations, 1):
            datum = encapsulate(obs.payload, event, obs.metadata, obs.confidence,
                                obs.key, f"obs-{i:03d}")
            add(datum)
            enqueue(datum.id, new_data)
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
        # Without a confirmed storm the storms are the filed ones, under
        # which every insertion was classified, and no insertion leaves a
        # spot over its room, so there is nothing to re-check.  Returning
        # also keeps the capacities memoised while inserting.
        if not confirmed:
            return
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
                           f"bucket={kernel.format_scalar(event.bucket_start)}",
                    violated=(event.subsector, event.bucket_start))
                for datum_id in self.segment_data.pop(fid, []):
                    self.rt.mark_deleted(datum_id)
            elif event.kind == "reroute":
                fid = event.flight_ids[0]
                previous = self.outcomes.get(fid)
                merged_changed = (fid,)
                if previous is not None and previous.status is InsertStatus.Rerouted:
                    merged_changed = tuple(sorted(set(previous.changed_flights) | {fid}))
                self.outcomes[fid] = InsertOutcome(
                    InsertStatus.Rerouted, changed_flights=merged_changed,
                    new_plans=(self.state.flights[fid].choice,),
                    reason="severe weather reroute")
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
        records = self.state.predict_congestion(include_empty=self.include_empty)
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
    if max_steps is not None and max_steps < 1:
        raise ValidationError(f"max_steps must be >= 1, got {max_steps}", "max_steps")
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
        windows = []
        for storm in storms:
            window = storm_overlap_window(storm, subsector.bounds)
            if window is not None:
                windows.append(window)
        capacity = bucket_capacity(subsector,
                                   TimeInterval(bucket_start, bucket_start + dt), windows)
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
