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
            for j, route in enumerate((plan.waypoints, *plan.alternates), -1):
                if route_spot_bound(route, self.grid, self.bucket_seconds) > MAX_SPOTS:
                    raise ValidationError(
                        f"route may hold more than {MAX_SPOTS} (cell, bucket) spots",
                        f"flights[{i}]." + (f"alternates[{j}]" if j >= 0 else "waypoints"))


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
# A reader raises at the path relative to the value it was handed ("" for
# the value itself), and each caller adds its own part as the error passes
# out: ``at`` (or an entry's ``field``) names the part being read, as in
# ``o[at := "key"]``, so that a path is joined only when a read fails.

#: A value object's field name -> its JSON name, where the two differ; ""
#: where the error names the value itself.
_JSON_NAMES = {"time": "", "box": "", "concept": "", "flight_id": "id",
               "source_id": "source"}


class _Placed(ValidationError):
    """An error at a JSON path, relative to the value a reader was handed."""


def _at(part: str, exc: KeyError | ValidationError) -> _Placed:
    """``exc`` raised again under ``part`` (``observations``, ``[3]``, "" for
    the value itself).  A ``KeyError`` is a required field missing from the
    value; a value object's error, not yet placed, names its own field."""
    if isinstance(exc, KeyError):
        return _Placed(f"missing required field {exc.args[0]!r}")
    path = exc.path if isinstance(exc, _Placed) else _JSON_NAMES.get(exc.path, exc.path)
    dot = "." if part and path[:1] not in ("", "[") else ""
    return _Placed(exc.message, part + dot + path)


def _obj(value) -> dict:
    if not isinstance(value, dict):
        raise ValidationError("expected an object")
    return value


_FLOAT_MAX = sys.float_info.max  # an integer above it converts to no float


def _shown(value):
    """``value``, once it is known to have a text.  An integer of more digits
    than the interpreter writes out (``sys.get_int_max_str_digits``), or a
    value holding one, has none: no error, report or log could show it."""
    try:
        repr(value)
    except ValueError:
        raise ValidationError(f"an integer of more than {sys.get_int_max_str_digits()} "
                              "digits") from None
    return value


def _num(value) -> float:
    if type(value) is float and -_FLOAT_MAX <= value <= _FLOAT_MAX:  # the usual case
        return value
    if type(value) not in (int, float):  # JSON true and false are not numbers
        raise ValidationError(f"expected a number, got {_shown(value)!r}")
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:  # NaN, infinities, ints past any float
        raise ValidationError(f"expected a finite number, got {_shown(value)!r}")
    return float(value)


def _count(value, least: int | None = None, most: float = math.inf) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"expected an integer, got {_shown(value)!r}")
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:  # error texts and reports write it out
        _shown(value)
    if least is not None and value < least:
        raise ValidationError(f"expected an integer >= {least}, got {value}")
    if value > most:
        raise ValidationError(f"expected an integer <= {most!r}")
    return value


def _text(value) -> str:
    if type(value) is not str:
        raise ValidationError(f"expected a string, got {_shown(value)!r}")
    return value


#: What a flight, storm or subscription id may not hold: the event log's
#: field separator, the CSV report's column and flight-id separators, and
#: every line boundary that ``str.splitlines`` splits on.
_ID_BREAKS = frozenset("|,;\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _id(value, name: str = "id") -> str:
    """An id that is non-empty and holds no ``_ID_BREAKS``; ``name`` is what
    the empty-id error calls it."""
    text = _text(value)
    if not text:
        raise ValidationError(f"{name} must be non-empty")
    for c in text:
        if c in _ID_BREAKS:
            raise ValidationError(f"id {text!r} holds {c!r}, a CSV or log separator")
    return text


def _payload_string(text, strings: dict[str, str]) -> str:
    """``text`` recorded as its first copy in ``strings``, once it is known
    to hold no ``;`` or ``=``, so that a payload text splits one way."""
    for c in ";=":
        if c in _text(text):
            raise ValidationError(
                f"payload text {text!r} holds {c!r}, a payload text separator")
    strings[text] = text
    return text


def _ids(value) -> tuple[str, ...]:
    return tuple(_id(fid) for fid in _list(value, "a list of flight ids"))


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"expected true or false, got {_shown(value)!r}")
    return value


def _cell(value, grid: GridSpec | None = None) -> tuple[int, int]:
    col, row = _list(value, "[col, row]", 2)
    cell = _count(col, least=0), _count(row, least=0)
    if grid is not None and not (col < grid.cols and row < grid.rows):
        raise ValidationError(f"cell ({col}, {row}) outside grid")
    return cell


def _nums(values: list) -> tuple[float, ...]:
    return tuple(map(_num, values))


def _kind(value) -> NotionKind:
    text = _text(value)
    try:
        return NotionKind(text)
    except ValueError:
        raise ValidationError(f"unknown kind {text!r}") from None


def _list(value, shape: str, length: int | None = None) -> list:
    if not isinstance(value, list) or length is not None and len(value) != length:
        raise ValidationError(f"expected {shape}")
    return value


def _objects(value) -> list[dict]:
    """A list of objects, each checked before any is read."""
    return _each(_list(value, "a list of objects"), _obj)


def _each(values: list, read, *args, **kwargs) -> list:
    """``read(value, *args, **kwargs)`` of each of ``values``, raising at its index."""
    out = []
    for i, value in enumerate(values):
        try:
            out.append(read(value, *args, **kwargs))
        except ValidationError as exc:
            raise _at(f"[{i}]", exc) from None
    return out


def _fields(obj: dict, *fields, **defaults) -> list:
    """Each ``read(obj[name], *args)`` in turn; a name not in ``defaults`` is required."""
    obj = {**defaults, **obj} if defaults else obj
    try:
        return [read(obj[at := name], *args) for name, read, *args in fields]
    except (KeyError, ValidationError) as exc:
        raise _at(at, exc) from None


def _box(value) -> PlanarBox:
    return PlanarBox(*map(_num, _list(value, "[x0, y0, x1, y1]", 4)))


def _interval(value) -> TimeInterval:
    return TimeInterval(*map(_num, _list(value, "[start, end]", 2)))


def _concept(value, concepts: dict[str, ConceptPath]) -> ConceptPath:
    """``concepts`` maps each concept text read in this load to its one path."""
    text = _text(value)
    if (concept := concepts.get(text)) is None:
        concept = concepts[text] = ConceptPath.parse(text)
    return concept


def _key(value, concepts: dict[str, ConceptPath]) -> NearnessKey:
    obj = _obj(value)
    try:
        return NearnessKey(_interval(obj[at := "time"]), _box(obj[at := "box"]),
                           _concept(obj[at := "concept"], concepts))
    except (KeyError, ValidationError) as exc:
        raise _at(at, exc) from None


def _query(value, concepts: dict[str, ConceptPath]) -> QuerySpec:
    obj = _obj(value)
    try:
        mode = _text(obj[at := "mode"])
        if mode == "neighborhood":
            center = _key(obj[at := "center"], concepts)
            radii = [math.inf if (radius := obj[at := name]) == "inf" else _num(radius)
                     for name in ("time_radius", "space_radius", "concept_radius")]
            at = ""
            return QuerySpec.neighborhood(center, *radii)
        if mode == "focused":  # each constraint may be absent or null
            parts = [None if obj.get(at := name) is None else read(obj[name], *args)
                     for name, read, *args in (("time", _interval), ("box", _box),
                                               ("concept_prefix", _concept, concepts))]
            at = ""
            return QuerySpec.focused(*parts)
        raise ValidationError(f"unknown query mode {mode!r}")
    except (KeyError, ValidationError) as exc:
        raise _at(at, exc) from None


def _route(value, grid: GridSpec) -> tuple[Waypoint, ...]:
    """A route, whose waypoints lie inside the grid at t >= 0."""
    route = []
    for i, item in enumerate(_list(value, "a list of [x, y, t] waypoints")):
        try:
            if not isinstance(item, list) or len(item) not in (3, 4):
                raise ValidationError("waypoint must be [x, y, t] (an altitude, if "
                                      "present, is accepted and ignored)")
            # A 4-element waypoint carries altitude in slot 2; the plane is flat here.
            w = Waypoint(_num(item[0]), _num(item[1]), _num(item[-1]))
            if not grid.contains(w.x, w.y):
                raise ValidationError(f"waypoint ({w.x:g}, {w.y:g}) outside grid")
            if w.t < 0:
                raise ValidationError("waypoint time must be >= 0")
        except ValidationError as exc:
            raise _at(f"[{i}]", exc) from None
        route.append(w)
    return tuple(route)


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
    # One map each, to a value's first copy: concept text -> its path, payload
    # strings (checked when first recorded) and sources (not checked).
    concepts: dict[str, ConceptPath] = {}
    strings: dict[str, str] = {}
    sources: dict[str, str] = {}
    try:
        parts = _fields(_obj(obj[at := "grid"]), ("x0", _num), ("y0", _num),
                        ("cols", _count, 1, _FLOAT_MAX), ("rows", _count, 1, _FLOAT_MAX),
                        ("cell", _num), x0=0.0, y0=0.0)
        at = ""  # a grid's error names its JSON path
        grid = GridSpec(*parts)
        capacity = _obj(obj.get(at := "capacity", {}))
        flights: dict[str, FlightPlan] = {}
        for i, f in enumerate(_objects(obj.get(at := "flights", []))):
            try:
                fid = _id(f[field := "id"], "flight_id")
                if fid in flights:
                    field = ""
                    raise ValidationError(f"duplicate flight id {fid!r}")
                waypoints = _route(f[field := "waypoints"], grid)
                alternates = tuple(_each(_list(f.get(field := "alternates", []),
                                               "a list of routes"), _route, grid))
                delay = _num(f.get(field := "departure_delay", 0.0))
                priority = _count(f.get(field := "priority", 0))
                field = ""
                flights[fid] = FlightPlan(fid, waypoints, alternates, delay, priority)
            except (KeyError, ValidationError) as exc:
                raise _at(f"[{i}]", _at(field, exc)) from None
        at = "storms"  # a velocity is read as a pair first, as numbers after the box
        storms = [ScenarioStorm(StormCell(sid, box, velocity, active), reported)
                  for _, reported, sid, box, velocity, active in _each(
                      _objects(obj.get(at, [])), _fields, ("velocity", _list, "[vx, vy]", 2),
                      ("reported", _bool), ("id", _id), ("box", _box), ("velocity", _nums),
                      ("active", _interval), velocity=[0.0, 0.0], reported=False)]
        observations: list[Observation] = []
        for i, o in enumerate(_objects(obj.get(at := "observations", []))):
            try:
                payload = {}
                for name, value in _obj(o[field := "payload"]).items():
                    name = strings.get(name) or _payload_string(name, strings)
                    if type(value) is str:
                        value = strings.get(value) or _payload_string(value, strings)
                    elif not isinstance(value, (int, float, bool)):
                        raise ValidationError(f"payload field {name!r} must be scalar")
                    elif not -_FLOAT_MAX <= value <= _FLOAT_MAX:  # written in payload text
                        _shown(value)
                    payload[name] = value
                if type(storm := payload.get("storm_id", "")) is not str:  # a storm's id
                    raise ValidationError(f"storm_id must be a string, got {storm!r}")
                key = _key(o[field := "key"], concepts)
                if not 0.0 <= (confidence := _num(o[field := "confidence"])) <= 1.0:
                    raise ValidationError("confidence outside [0, 1]")
                source = _text(o[field := "source"])
                if "observed_at" not in o and key.time.start < 0:  # the default is at fault
                    field = "key.time"
                    raise ValidationError("time start must be >= 0 when observed_at is absent")
                observed_at = _num(o.get(field := "observed_at", key.time.start))
                field = ""
                observations.append(Observation(payload, confidence, key, Metadata(
                    sources.setdefault(source, source), observed_at, len(payload),
                    "weather-report")))
            except (KeyError, ValidationError) as exc:
                raise _at(f"[{i}]", _at(field, exc)) from None
        subscriptions: dict[str, Subscription] = {}
        for i, s in enumerate(_objects(obj.get(at := "subscriptions", []))):
            try:
                sid = _id(s[field := "id"])
                if sid in subscriptions:
                    field = ""
                    raise ValidationError(f"duplicate subscription id {sid!r}")
                spec = _query(s[field := "query"], concepts)
                min_confidence = _num(s.get(field := "min_confidence", 0.0))
                kinds = s.get(field := "kinds")
                kinds = frozenset(NotionKind) if kinds is None else frozenset(
                    _each(_list(kinds, "a list of kinds"), _kind))
                field = ""
                subscriptions[sid] = Subscription(sid, spec, min_confidence, kinds)
            except (KeyError, ValidationError) as exc:
                raise _at(f"[{i}]", _at(field, exc)) from None
        at = "closures"
        closures = [tuple(c) for c in _each(_objects(obj.get(at, [])), _fields,
                                             ("cell", _cell, grid), ("interval", _interval))]
        bucket_seconds = _num(obj.get(at := "bucket_seconds", 60.0))
        horizon_seconds = _num(obj.get(at := "horizon_seconds", 14400.0))
        at = "capacity"
        calm, severe = _fields(capacity, ("calm", _count), ("severe", _count), calm=6, severe=3)
        seed = _count(obj.get(at := "seed", 0))
    except (KeyError, ValidationError) as exc:
        exc = _at(at, exc)
        raise ValidationError(exc.message, exc.path or "$") from None
    return Scenario(grid, bucket_seconds, horizon_seconds, calm, severe,
                    tuple(flights.values()), tuple(storms), tuple(observations),
                    tuple(subscriptions.values()), tuple(closures), seed)


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


def _row(value, make, *fields):
    """``make`` of the required ``fields`` of an object."""
    return make(*_fields(_obj(value), *fields))


def _outcome(value) -> InsertOutcome:
    obj = _obj(value)
    try:
        if (status := obj[at := "status"]) not in [s.value for s in InsertStatus]:
            raise ValidationError(f"unknown status {status!r}")
        new_plans = _each(_list(obj.get(at := "new_plans", []), "a list of objects"), _row,
                          RouteChoice, ("flight", _id), ("route", _count),
                          ("added_delay", _num))
        if (violated := obj.get(at := "violated")) is not None:
            cell, bucket = _list(violated, "[[col, row], bucket]", 2)
            violated = (_cell(cell), _num(bucket))
        changed = _ids(obj.get(at := "changed_flights", []))
        return InsertOutcome(InsertStatus(status), changed, tuple(new_plans),
                             _text(obj.get(at := "reason", "")), violated)
    except (KeyError, ValidationError) as exc:
        raise _at(at, exc) from None


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


def _record(value, spots: set) -> CongestionRecord:
    """A record of counts >= 0, of as many distinct flight ids as its
    occupancy, and of a spot that ``spots``, those read before, lacks."""
    subsector, bucket_start, occupancy, capacity, ids = _fields(
        _obj(value), ("subsector", _cell), ("bucket_start", _num), ("occupancy", _count, 0),
        ("capacity", _count, 0), ("flight_ids", _ids))
    if len(set(ids)) != len(ids):
        raise ValidationError("a flight id repeats", "flight_ids")
    if occupancy != len(ids):
        raise ValidationError(f"occupancy {occupancy} but {len(ids)} flight ids", "occupancy")
    if (subsector, bucket_start) in spots:
        raise ValidationError(f"a second record for subsector={subsector} "
                              f"bucket={kernel.format_scalar(bucket_start)}")
    spots.add((subsector, bucket_start))
    return CongestionRecord(subsector, bucket_start, occupancy, capacity, ids)


def parse_report(text: str) -> Report:
    """Read a JSON report through the scenario readers: anything but a
    report document, or a report holding a value that no run writes,
    raises ``ValidationError`` naming the field's path.  No run writes two
    records for one spot, a grid size below 1, a negative cell or count, a
    bucket of 0 seconds or less, a text that is not a string, or a flight
    id that ``_id`` refuses."""
    obj = _parse_json(text)
    at = ""
    try:
        records = _each(_list(_obj(obj)[at := "records"], "a list of objects"), _record,
                        set())
        alerts = _each(_list(obj[at := "alerts"], "a list of objects"), _row, Alert,
                       ("subscription", _text), ("datum", _text), ("emitted_at", _num),
                       ("payload_text", _text))
        outcomes = _obj(obj[at := "outcomes"])
        grid, stats = obj["grid"], obj["stats"]
        if (bucket_seconds := _num(obj[at := "bucket_seconds"])) <= 0:
            raise ValidationError(f"expected a number > 0, got {bucket_seconds!r}")
        seed = _count(obj[at := "seed"])
        at = "grid"
        cols, rows = _fields(_obj(grid), ("cols", _count, 1), ("rows", _count, 1))
        at = "outcomes"
        entries = []
        for fid, o in outcomes.items():
            try:
                entries.append((_id(fid), _outcome(o)))
            except ValidationError as exc:
                # The entry's path quotes its id, so that "" or "a.b" names one entry.
                raise _at(f"[{json.dumps(fid)}]", exc) from None
        at = "stats"
        quiescent, *counts = _fields(_obj(stats), ("quiescent", _bool), ("steps", _count, 0),
                                     ("alerts", _count, 0), ("merges", _count, 0),
                                     ("deletions", _count, 0))
    except (KeyError, ValidationError) as exc:
        exc = _at(at, exc)
        raise ValidationError(exc.message, exc.path or "$") from None
    return Report(seed, bucket_seconds, cols, rows, tuple(records), tuple(sorted(entries)),
                  tuple(alerts), RunStats(*counts, quiescent))


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
        # also keeps the cell records built while inserting.
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
