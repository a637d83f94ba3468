"""Scenario codec, simulation driver, oracle equivalence, and diff tests."""

import copy
import dataclasses
import hashlib
import json
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adatm import (
    AirspaceState,
    FlightPlan,
    GridSpec,
    InsertStatus,
    Metadata,
    NearnessKey,
    NotionKind,
    Observation,
    PlanarBox,
    QuerySpec,
    Scenario,
    ScenarioStorm,
    StormCell,
    Subscription,
    TimeInterval,
    Waypoint,
    diff_reports,
    load_scenario,
    parse_report,
    render_report,
    run_oracle,
    run_simulation,
    simulate,
)
from adatm import kernel
from adatm.cli import main as cli_main
from adatm.errors import AdatmError, ParseError, UsageError, ValidationError
from adatm.nearness import ConceptPath
from adatm.scenario import (
    Report,
    _Driver,
    _segment_data,
    report_to_dict,
    scenario_from_dict,
)
from adatm.scheduler import Alert, RunStats
from adatm.traffic import CongestionRecord, InsertOutcome, RouteChoice

from conftest import (
    congestion_scenario,
    dwell_route,
    fusion_scenario,
    random_case1_scenario,
    storm_reroute_scenario,
)
from test_golden import BENCH_SCENARIOS, DEMO_SCENARIOS, PINS, _bench_workloads
from test_golden import _outputs as golden_outputs
from test_golden import _scenario as golden_scenario
from test_kernel_properties import pairwise_fold


def minimal_dict(**overrides):
    base = {"grid": {"cols": 2, "rows": 2, "cell": 10.0}}
    base.update(overrides)
    return base


class TestLoadScenario:
    def test_minimal_grid_only(self):
        s = scenario_from_dict(minimal_dict())
        assert s.flights == ()
        assert s.bucket_seconds == 60.0
        assert s.horizon_seconds == 14400.0
        assert (s.calm_capacity, s.severe_capacity) == (6, 3)

    def test_not_json(self):
        with pytest.raises(ParseError):
            load_scenario("{nope")

    def test_decreasing_waypoint_times(self):
        bad = minimal_dict(flights=[{
            "id": "f1", "waypoints": [[1, 1, 100.0], [2, 2, 50.0]]}])
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(bad)
        assert "waypoints" in str(err.value)

    def test_duplicate_flight_id(self):
        bad = minimal_dict(flights=[
            {"id": "f1", "waypoints": dwell_route()},
            {"id": "f1", "waypoints": dwell_route()},
        ])
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(bad)
        assert "duplicate flight id" in str(err.value)

    def test_waypoint_outside_grid(self):
        bad = minimal_dict(flights=[{
            "id": "f1", "waypoints": [[1, 1, 0.0], [500.0, 1, 100.0]]}])
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(bad)
        assert "outside grid" in str(err.value)

    def test_altitude_accepted_and_ignored(self):
        s = scenario_from_dict(minimal_dict(flights=[{
            "id": "f1",
            "waypoints": [[1, 1, 30000, 0.0], [9, 1, 31000, 100.0]]}]))
        w = s.flights[0].waypoints[0]
        assert (w.x, w.y, w.t) == (1.0, 1.0, 0.0)

    def test_observation_confidence_range(self):
        bad = minimal_dict(observations=[{
            "payload": {"x": 1}, "source": "s", "confidence": 1.5,
            "key": {"time": [0, 1], "box": [0, 0, 1, 1], "concept": "a/b"}}])
        with pytest.raises(ValidationError):
            scenario_from_dict(bad)

    def test_alternate_time_must_be_non_negative(self):
        bad = minimal_dict(flights=[{
            "id": "f1", "waypoints": [[1, 1, 0.0], [9, 1, 600.0]],
            "alternates": [[[1, 1, -1e9], [5, 15, 300.0], [9, 1, 600.0]]]}])
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(bad)
        assert "alternates[0][0]" in str(err.value)

    def test_every_field_is_read(self):
        """``VALID`` loads to the scenario built field by field, so a field
        the loader drops or misreads fails here."""
        start, end = (1.0, 5.0, 0.0), (9.0, 5.0, 600.0)
        assert scenario_from_dict(VALID) == Scenario(
            grid=GridSpec(x0=0.0, y0=0.0, cols=2, rows=2, cell=10.0),
            bucket_seconds=60.0, horizon_seconds=7200.0,
            calm_capacity=2, severe_capacity=1,
            flights=(
                FlightPlan("a", (Waypoint(*start), Waypoint(*end)),
                           ((Waypoint(*start), Waypoint(5.0, 15.0, 300.0),
                             Waypoint(*end)),), 0.0, 1),
                FlightPlan("b", (Waypoint(1.0, 5.0, 30.0), Waypoint(9.0, 5.0, 620.0)),
                           (), 0.0, 0),
            ),
            storms=(ScenarioStorm(
                StormCell("st-1", PlanarBox(-40.0, 0.0, -30.0, 10.0), (0.05, 0.0),
                          TimeInterval(0.0, 3000.0)), reported=True),),
            observations=(Observation(
                {"storm_id": "st-1", "kind": "radar-echo"}, 0.9,
                NearnessKey(TimeInterval(0.0, 600.0), PlanarBox(0.0, 0.0, 10.0, 10.0),
                            ConceptPath(("a", "b", "c"))),
                Metadata("radar-1", 5.0, size_hint=2, schema_tag="weather-report")),),
            subscriptions=(
                Subscription("watch", QuerySpec.focused(
                    TimeInterval(0.0, 900.0), PlanarBox(0.0, 0.0, 20.0, 20.0),
                    ConceptPath(("a",))), 0.5, frozenset({NotionKind.Event})),
                Subscription("near", QuerySpec.neighborhood(
                    NearnessKey(TimeInterval(0.0, 60.0), PlanarBox(0.0, 0.0, 10.0, 10.0),
                                ConceptPath(("a", "b"))), math.inf, 5.0, 1.0),
                    0.0, frozenset(NotionKind)),
            ),
            closures=(((1, 1), TimeInterval(0.0, 600.0)),),
            seed=4,
        )

    def test_observation_metadata_built_at_load(self):
        s = scenario_from_dict(VALID)
        metadata = s.observations[0].metadata
        assert (metadata.source_id, metadata.observed_at) == ("radar-1", 5.0)
        assert (metadata.size_hint, metadata.schema_tag) == (2, "weather-report")


#: A scenario that uses every field of the format.
VALID = {
    "grid": {"x0": 0, "y0": 0, "cols": 2, "rows": 2, "cell": 10.0},
    "bucket_seconds": 60, "horizon_seconds": 7200,
    "capacity": {"calm": 2, "severe": 1},
    "flights": [
        {"id": "a", "priority": 1, "waypoints": [[1, 5, 0], [9, 5, 600]],
         "alternates": [[[1, 5, 0], [5, 15, 300], [9, 5, 600]]],
         "departure_delay": 0},
        {"id": "b", "waypoints": [[1, 5, 20, 30], [9, 5, 20, 620]]},
    ],
    "storms": [{"id": "st-1", "box": [-40, 0, -30, 10], "velocity": [0.05, 0],
                "active": [0, 3000], "reported": True}],
    "observations": [{
        "payload": {"storm_id": "st-1", "kind": "radar-echo"}, "source": "radar-1",
        "confidence": 0.9, "observed_at": 5,
        "key": {"time": [0, 600], "box": [0, 0, 10, 10], "concept": "a/b/c"}}],
    "subscriptions": [
        {"id": "watch", "min_confidence": 0.5, "kinds": ["event"],
         "query": {"mode": "focused", "time": [0, 900], "box": [0, 0, 20, 20],
                   "concept_prefix": "a"}},
        {"id": "near", "query": {
            "mode": "neighborhood",
            "center": {"time": [0, 60], "box": [0, 0, 10, 10], "concept": "a/b"},
            "time_radius": "inf", "space_radius": 5, "concept_radius": 1}},
    ],
    "closures": [{"cell": [1, 1], "interval": [0, 600]}],
    "seed": 4,
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


def _node_paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for name, child in children:
        yield from _node_paths(child, prefix + (name,))


#: Step budget of the simulation each loadable input gets.
SIMULATE_STEPS = 200


def _node_at(doc, path):
    for name in path:
        doc = doc[name]
    return doc


#: Paths of the numbers in ``VALID``, and numbers to put there: nearby
#: values, signed zeros, extremes, and integers no float holds.
NUMBER_PATHS = [path for path in _node_paths(VALID)
                if isinstance(_node_at(VALID, path), (int, float))
                and not isinstance(_node_at(VALID, path), bool)]
NUMBERS = st.integers(-3, 20) | st.floats(-1e4, 1e4) | st.sampled_from(
    [0.0, -0.0, 1e-9, -1e-9, 0.5, 1e9, -1e9, 1e300, 5e-324, 10**400, -10**400])


def _loads_or_rejects(doc) -> None:
    """Load ``doc``; a scenario that loads must also simulate, under a step
    budget, raising nothing but an ``AdatmError``, and run under
    ``run_oracle``, raising nothing."""
    try:
        scenario = scenario_from_dict(doc)
    except ValidationError:
        return
    try:
        simulate(scenario, max_steps=SIMULATE_STEPS)
    except AdatmError:
        pass
    run_oracle(scenario)


class TestNonFiniteWindow:
    """A NaN or infinite bucket or horizon is rejected when the scenario is
    built; it used to raise a raw ``ValueError`` from ``simulate`` or give an
    empty report although a flight flies."""

    @pytest.mark.parametrize("field", ["bucket_seconds", "horizon_seconds"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejected(self, field, value):
        flying = congestion_scenario(residents=1, arriving=False)
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(flying, **{field: value})
        assert err.value.path == field


#: The string fields of a scenario, as paths into ``VALID``.
STRING_FIELDS = [
    ("flights", 0, "id"),
    ("storms", 0, "id"),
    ("observations", 0, "source"),
    ("observations", 0, "key", "concept"),
    ("subscriptions", 0, "id"),
    ("subscriptions", 0, "query", "mode"),
    ("subscriptions", 0, "query", "concept_prefix"),
    ("subscriptions", 1, "query", "center", "concept"),
]


def _field_path(path) -> str:
    """``("flights", 0, "id")`` as the loader names it: ``flights[0].id``."""
    return "".join(f"[{name}]" if isinstance(name, int) else f".{name}"
                   for name in path).lstrip(".")


class TestStringFields:
    """An id, a source, a concept or a query mode that is not a string is
    rejected with the field's path; it used to be read through ``str``, so
    a null id loaded as ``"None"``."""

    # A null concept_prefix means no prefix.
    @pytest.mark.parametrize("path, value", [
        (path, value) for path in STRING_FIELDS for value in [None, True, 3, ["x", "y"]]
        if not (path[-1] == "concept_prefix" and value is None)])
    def test_non_string_rejected(self, path, value):
        doc = copy.deepcopy(VALID)
        _node_at(doc, path[:-1])[path[-1]] = value
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert f"{_field_path(path)}: expected a string, got {value!r}" in str(err.value)

    def test_null_id_beside_a_none_flight_is_not_a_duplicate(self):
        doc = copy.deepcopy(VALID)
        doc["flights"][0]["id"] = "None"
        doc["flights"][1]["id"] = None
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert err.value.path == "flights[1].id"
        assert "duplicate" not in str(err.value)


def _subscription_edit(index, *path):
    """An edit that sets the field at ``path`` of subscription ``index``."""
    def edit(doc, value):
        _node_at(doc, ("subscriptions", index) + path[:-1])[path[-1]] = value
    return edit


class TestSubscriptionPaths:
    """Each error of a subscription names the field at fault, once.  Every
    error used to be wrapped under the subscription's own path, so a bad
    ``query.mode`` read ``subscriptions[0]: subscriptions[0].query.mode:
    ...``, and a kind was read through ``str``, so null was "'None' is not
    a valid NotionKind"."""

    @pytest.mark.parametrize("edit, value, path, message", [
        (_subscription_edit(0, "query", "mode"), None,
         "subscriptions[0].query.mode", "expected a string, got None"),
        (_subscription_edit(0, "min_confidence"), 2.0,
         "subscriptions[0].min_confidence", "min_confidence outside [0, 1]"),
        (_subscription_edit(0, "kinds"), [None],
         "subscriptions[0].kinds[0]", "expected a string, got None"),
        (_subscription_edit(0, "kinds"), ["event", "rumour"],
         "subscriptions[0].kinds[1]", "unknown kind 'rumour'"),
        (_subscription_edit(0, "query"), {"mode": "focused"},
         "subscriptions[0].query.constraints",
         "focused query needs at least one constraint"),
        (_subscription_edit(0, "query", "concept_prefix"), "a//b",
         "subscriptions[0].query.concept_prefix", "bad concept label ''"),
        (_subscription_edit(0, "query", "time"), [5, 1],
         "subscriptions[0].query.time", "time bounds not ordered: start 5.0, end 1.0"),
        (_subscription_edit(0, "query", "box"), [5, 0, 1, 1],
         "subscriptions[0].query.box", "box corners out of order or NaN"),
        (_subscription_edit(1, "query", "space_radius"), -1,
         "subscriptions[1].query.space_radius", "radius must be >= 0, got -1.0"),
        (_subscription_edit(1, "query", "center", "concept"), "a/",
         "subscriptions[1].query.center.concept", "bad concept label ''"),
        (_subscription_edit(1, "query", "center", "time"), [5, 1],
         "subscriptions[1].query.center.time",
         "time bounds not ordered: start 5.0, end 1.0"),
    ])
    def test_error_names_its_own_path(self, edit, value, path, message, tmp_path, capsys):
        doc = copy.deepcopy(VALID)
        edit(doc, value)
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert (err.value.path, err.value.message) == (path, message)
        assert str(err.value) == f"{path}: {message}"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert cli_main(["simulate", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: invalid scenario: {path}: {message}\n"


def _storm_reports(first, second):
    """A 2x2 grid over 600 s, capacity calm 2 and severe 0, one reported
    storm ``s1``, and two reports on one key, so that the runtime fuses
    them when their texts are equal: ``first`` at confidence 0.5, then
    ``second`` at 0.8, which alone confirms ``s1``."""
    key = {"time": [0, 600], "box": [0, 0, 10, 10], "concept": "a/b"}
    return minimal_dict(
        horizon_seconds=600, capacity={"calm": 2, "severe": 0},
        storms=[{"id": "s1", "box": [0, 0, 10, 10], "active": [0, 600],
                 "reported": True}],
        observations=[{"payload": payload, "source": "radar", "confidence": conf,
                       "key": key} for payload, conf in ((first, 0.5), (second, 0.8))])


class TestPayloadText:
    """Duplicates are found by payload text, ``name=value`` pairs joined by
    ``;``, so a name or string value holding ``;`` or ``=``, or a
    ``storm_id`` that is not a string, is refused at the payload: two such
    reports of one text, fused, used to confirm a storm under ``run_oracle``
    and not under ``simulate``."""

    @pytest.mark.parametrize("first, second, message", [
        ({"storm_id": "s1;x=1"}, {"storm_id": "s1", "x": "1"},
         "payload text 's1;x=1' holds ';', a payload text separator"),
        ({"storm_id": True}, {"storm_id": "true"}, "storm_id must be a string, got True"),
        ({"a=b": "c", "storm_id": "s1"}, {"a": "b=c", "storm_id": "s1"},
         "payload text 'a=b' holds '=', a payload text separator"),
    ])
    def test_a_text_of_two_readings_is_refused(self, first, second, message, tmp_path,
                                                capsys):
        doc = _storm_reports(first, second)
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert (err.value.path, err.value.message) == ("observations[0].payload", message)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert cli_main(["simulate", str(bad)]) == 2
        assert capsys.readouterr().err == \
            f"error: invalid scenario: observations[0].payload: {message}\n"

    def test_a_source_is_not_payload_text(self):
        # A source may hold the separators, and a payload string equal to
        # a source seen first is still checked.
        doc = _storm_reports({"storm_id": "s1"}, {"storm_id": "s1"})
        doc["observations"][0]["source"] = "r;1=a"
        assert scenario_from_dict(doc).observations[0].metadata.source_id == "r;1=a"
        doc["observations"][1]["payload"]["kind"] = "r;1=a"
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert err.value.path == "observations[1].payload"


def _edit_at(*path):
    """An edit that sets the field of a document at ``path``."""
    def edit(doc, value):
        _node_at(doc, path[:-1])[path[-1]] = value
    return edit


class TestLoadErrorPaths:
    """A value object's error is raised again at the JSON path of the field
    it was read from, by the one rule of every reader (``_at``).  An
    unordered key time or box used to fail at ``time`` or ``box``, with no
    location in the file, and so did a bad key concept, a storm's
    ``active`` or ``box`` and a closure's ``interval``; a flight's error
    read ``flights[0]: waypoints: ...`` and an observation's
    ``observations[0]: observed_at: ...``."""

    @pytest.mark.parametrize("edit, value, path, message", [
        (_edit_at("observations", 0, "key", "time"), [5, 1],
         "observations[0].key.time", "time bounds not ordered: start 5.0, end 1.0"),
        (_edit_at("observations", 0, "key", "box"), [5, 0, 1, 1],
         "observations[0].key.box", "box corners out of order or NaN"),
        (_edit_at("observations", 0, "key", "concept"), "a//b",
         "observations[0].key.concept", "bad concept label ''"),
        (_edit_at("storms", 0, "active"), [5, 1],
         "storms[0].active", "time bounds not ordered: start 5.0, end 1.0"),
        (_edit_at("storms", 0, "box"), [5, 0, 1, 1],
         "storms[0].box", "box corners out of order or NaN"),
        (_edit_at("closures", 0, "interval"), [5, 1],
         "closures[0].interval", "time bounds not ordered: start 5.0, end 1.0"),
        (_edit_at("flights", 0, "waypoints"), [[1, 5, 0]],
         "flights[0].waypoints", "route needs at least two waypoints"),
        (_edit_at("flights", 0, "departure_delay"), -1,
         "flights[0].departure_delay", "departure_delay must be >= 0"),
        (_edit_at("flights", 0, "alternates"), [[[1, 5, 0]]],
         "flights[0].alternates[0]", "route needs at least two waypoints"),
        (_edit_at("flights", 0, "alternates"), [[[1, 5, 0], [5, 5, 600]]],
         "flights[0].alternates[0]", "alternate endpoints differ from primary route"),
        (_edit_at("observations", 0, "observed_at"), -1,
         "observations[0].observed_at", "observed_at must be >= 0"),
        (_edit_at("flights", 0, "id"), "",
         "flights[0].id", "flight_id must be non-empty"),
        (_edit_at("observations", 0, "source"), "",
         "observations[0].source", "source_id must be non-empty"),
        (_edit_at("grid", "cols"), 0, "grid.cols", "expected an integer >= 1, got 0"),
        (_edit_at("grid", "rows"), -2, "grid.rows", "expected an integer >= 1, got -2"),
    ] + [
        # A size no float holds used to load, and the first flight's route
        # check raised OverflowError from ``GridSpec.x1``.
        pytest.param(_edit_at("grid", name), 10**400, f"grid.{name}",
                     "expected an integer <= 1.7976931348623157e+308",
                     id=f"{name}-past-any-float") for name in ("cols", "rows")
    ])
    def test_error_names_the_json_field(self, edit, value, path, message, tmp_path, capsys):
        doc = copy.deepcopy(VALID)
        edit(doc, value)
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert (err.value.path, err.value.message) == (path, message)
        assert str(err.value) == f"{path}: {message}"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert cli_main(["simulate", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: invalid scenario: {path}: {message}\n"

    def test_a_defaulted_observed_at_names_the_key_time(self):
        # An absent observed_at takes the key's time start; a negative one
        # used to fail at observations[0].observed_at, a field not in the file.
        doc = copy.deepcopy(VALID)
        doc["observations"][0]["key"]["time"] = [-10, 600]
        assert scenario_from_dict(doc).observations[0].metadata.observed_at == 5.0
        del doc["observations"][0]["observed_at"]
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert (err.value.path, err.value.message) == (
            "observations[0].key.time", "time start must be >= 0 when observed_at is absent")


#: An integer of more digits than the interpreter writes out.
OVERLONG = 10 ** (sys.get_int_max_str_digits() + 700)

#: Where an overlong integer is put into ``VALID``, and the path of its error.
OVERLONG_SITES = [
    (("bucket_seconds",), OVERLONG, "bucket_seconds"),
    (("flights", 0, "waypoints", 1, 0), OVERLONG, "flights[0].waypoints[1]"),
    (("grid", "cols"), -OVERLONG, "grid.cols"),
    (("closures", 0, "cell", 0), OVERLONG, "closures[0].cell"),
    (("seed",), OVERLONG, "seed"),
    (("capacity", "calm"), OVERLONG, "capacity.calm"),
    (("flights", 0, "priority"), OVERLONG, "flights[0].priority"),
    (("observations", 0, "payload", "kind"), -OVERLONG, "observations[0].payload"),
    (("flights", 0, "id"), [OVERLONG], "flights[0].id"),
]


class TestOverlongIntegers:
    """An integer too long to write out is an error at its path wherever a
    number or a count is read.  It used to raise a bare ``ValueError`` where
    an error text formats the value, and to load at ``seed`` and
    ``capacity.calm``, where the report then could not be rendered.
    ``load_scenario`` never sees one: ``json.loads`` refuses its text."""

    MESSAGE = f"an integer of more than {sys.get_int_max_str_digits()} digits"

    @pytest.mark.parametrize("path, value, where",
                             [pytest.param(*site, id=site[2]) for site in OVERLONG_SITES])
    def test_is_an_error_at_its_path(self, path, value, where):
        doc = copy.deepcopy(VALID)
        _edit_at(*path)(doc, value)
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert (err.value.path, err.value.message) == (where, self.MESSAGE)

    def test_one_digit_shorter_still_loads_and_renders(self):
        doc = copy.deepcopy(VALID)
        doc["seed"] = doc["capacity"]["calm"] = 10 ** sys.get_int_max_str_digits() - 1
        report = simulate(scenario_from_dict(doc)).report
        assert str(report.seed) in render_report(report, "json")
        assert render_report(report, "csv")


#: What an id may not hold: the event log's field separator, the CSV
#: report's column and flight-id separators, and every line boundary of
#: ``str.splitlines``.
ID_BREAKS = "|,;\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


class TestIdCharacters:
    """A flight, storm or subscription id is written into CSV rows and
    event-log lines, so an id holding a separator or a line boundary is
    refused at its path: flight ``a,b;c`` used to add CSV columns, and
    storm ``st|1\\n2`` wrote a line that read as a second event."""

    def test_the_breaks_are_the_separators_and_line_boundaries(self):
        boundaries = {chr(i) for i in range(0x110000)
                      if len(f"a{chr(i)}b".splitlines()) > 1}
        assert set(ID_BREAKS) == boundaries | {"|", ",", ";"}

    @pytest.mark.parametrize("field", ["flights", "storms", "subscriptions"])
    @pytest.mark.parametrize("char", ID_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
    def test_a_break_in_an_id_is_refused(self, field, char, tmp_path, capsys):
        doc = copy.deepcopy(VALID)
        doc[field][0]["id"] = bad_id = f"x{char}y"
        path = f"{field}[0].id"
        message = f"id {bad_id!r} holds {char!r}, a CSV or log separator"
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert (err.value.path, err.value.message) == (path, message)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert cli_main(["simulate", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: invalid scenario: {path}: {message}\n"

    @pytest.mark.parametrize("field,name", [("flights", "flight_id"), ("storms", "id"),
                                            ("subscriptions", "id")])
    def test_an_empty_id_is_refused(self, field, name, tmp_path, capsys):
        # An empty storm or subscription id used to load: the log read
        # ``storm||...`` and an alert ``subscription_id=''``.
        doc = copy.deepcopy(VALID)
        doc[field][0]["id"] = ""
        path = f"{field}[0].id"
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert (err.value.path, err.value.message) == (path, f"{name} must be non-empty")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert cli_main(["simulate", str(bad)]) == 2
        assert capsys.readouterr().err == \
            f"error: invalid scenario: {path}: {name} must be non-empty\n"

    def test_other_characters_load(self):
        doc = copy.deepcopy(VALID)
        for field, new_id in (("flights", "f-1.x_2 (a)/b:c\t\u00e9"), ("storms", "st 1"),
                              ("subscriptions", "w\u2708")):
            doc[field][0]["id"] = new_id
        s = scenario_from_dict(doc)
        assert (s.flights[0].flight_id, s.storms[0].cell.id, s.subscriptions[0].id) == \
            ("f-1.x_2 (a)/b:c\t\u00e9", "st 1", "w\u2708")


class TestPipelineFolds:
    """Every fold a run makes equals the naive pairwise fold, compared by
    ``repr`` so that -0.0 is told from 0.0."""

    @pytest.mark.parametrize("scenario, peers", [
        (lambda: load_scenario(_bench_workloads().WORKLOADS["storm"].generate(3, 0)),
         [299, 5]),
        (lambda: golden_scenario("storm_reroute.json"), [1]),
    ], ids=["storm-3-0", "storm_reroute"])
    def test_each_fold_equals_pairwise(self, scenario, peers, monkeypatch):
        folds = []
        fuse = kernel.fuse

        def recorded(datum, same_text):
            same_text = list(same_text)
            folds.append((datum, same_text, fuse(datum, same_text)))
            return folds[-1][2]

        monkeypatch.setattr(kernel, "fuse", recorded)
        simulate(scenario())
        assert [len(same_text) for _, same_text, _ in folds] == peers
        for datum, same_text, result in folds:
            assert len(result[1]) == len(same_text)
            assert repr(result) == repr(pairwise_fold(datum, same_text))


class TestLoadProperty:
    """Loading either succeeds or raises ValidationError, whatever the input,
    and a scenario that loads simulates or raises an ``AdatmError``."""

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_any_json_value(self, value):
        _loads_or_rejects(value)

    @settings(max_examples=600, deadline=None)
    @given(st.sampled_from(list(_node_paths(VALID))[1:]), JSON_VALUES)
    def test_any_single_node_replacement(self, path, value):
        doc = copy.deepcopy(VALID)
        parent = doc
        for name in path[:-1]:
            parent = parent[name]
        parent[path[-1]] = value
        _loads_or_rejects(doc)

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(NUMBER_PATHS), NUMBERS)
    def test_any_single_number_replacement(self, path, value):
        # Most numbers load, so this reaches the simulation far more often
        # than a replacement by any JSON value does.
        doc = copy.deepcopy(VALID)
        parent = doc
        for name in path[:-1]:
            parent = parent[name]
        parent[path[-1]] = value
        _loads_or_rejects(doc)


class TestRoundTrips:
    def test_report_json_roundtrip(self, headroom_scenario):
        report = run_simulation(headroom_scenario)
        again = parse_report(render_report(report, "json"))
        assert again == report

    def test_report_csv_exact_rows(self):
        s = scenario_from_dict(minimal_dict(
            flights=[{"id": "f1", "waypoints": [[1, 1, 0.0], [9, 1, 50.0]]}]))
        report = run_simulation(s)
        lines = render_report(report, "csv").splitlines()
        assert lines[0] == ("subsector_col,subsector_row,bucket_start,"
                            "occupancy,capacity,congested,flight_ids")
        assert lines[1] == "0,0,0,1,6,false,f1"
        assert len(lines) == 2

    def test_empty_report_csv_is_header_only(self):
        report = run_simulation(scenario_from_dict(minimal_dict()))
        assert render_report(report, "csv") == (
            "subsector_col,subsector_row,bucket_start,occupancy,capacity,"
            "congested,flight_ids\n")

    def test_text_format_mentions_outcomes(self):
        report = run_simulation(congestion_scenario(residents=6))
        text = render_report(report, "text")
        assert "rejected=1" in text
        assert "quiescent" in text

    def test_unknown_format_rejected(self):
        report = run_simulation(scenario_from_dict(minimal_dict()))
        with pytest.raises(UsageError):
            render_report(report, "xml")


#: Report strings: any text, plus the escapes and the splice marker of the
#: JSON renderer.
REPORT_TEXT = st.text(max_size=8) | st.sampled_from(
    ['"records": []', '\n  "records": []', 'q"uote', "back\\slash", "\x00\x1f\x7f",
     "caf\u00e9 \u2708 \U0001f600", ""])
REPORT_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 0.1, 2.5, 1e300, -1e-300, math.inf, -math.inf, math.nan])
REPORT_INTS = st.integers(-10**20, 10**20)
#: Cell coordinates and counts, which ``parse_report`` reads only when not
#: negative.
REPORT_COUNTS = st.integers(0, 10**20)
#: Flight ids, which ``parse_report`` reads only when not empty and
#: without a separator or a line boundary.
FLIGHT_IDS = REPORT_TEXT.filter(lambda text: text and not set(text) & set(ID_BREAKS))
REPORT_IDS = st.lists(FLIGHT_IDS, max_size=3).map(tuple)
SPOTS = st.tuples(st.tuples(REPORT_COUNTS, REPORT_COUNTS), REPORT_FLOATS)
#: Records as ``parse_report`` reads them: no count is negative, the flight
#: ids are distinct and the occupancy is their number.  A report holds one
#: record per spot (0.0 and -0.0 are one spot).
RECORDS = st.lists(
    st.builds(lambda spot, capacity, ids: CongestionRecord(*spot, len(ids), capacity, ids),
              SPOTS, REPORT_COUNTS, st.lists(FLIGHT_IDS, max_size=3, unique=True).map(tuple)),
    max_size=4, unique_by=lambda rec: (rec.subsector, rec.bucket_start)).map(tuple)
OUTCOMES = st.builds(
    InsertOutcome, st.sampled_from(list(InsertStatus)), REPORT_IDS,
    st.lists(st.builds(RouteChoice, FLIGHT_IDS, REPORT_INTS, REPORT_FLOATS),
             max_size=2).map(tuple),
    REPORT_TEXT, st.none() | SPOTS)
#: Reports as ``parse_report`` reads them: the grid is at least 1 x 1 and
#: a bucket longer than 0 seconds.
REPORTS = st.builds(
    Report, REPORT_INTS, REPORT_FLOATS.filter(lambda seconds: not seconds <= 0),
    st.integers(1, 10**20), st.integers(1, 10**20),
    RECORDS,
    st.dictionaries(FLIGHT_IDS, OUTCOMES, max_size=3).map(
        lambda d: tuple(sorted(d.items()))),
    st.lists(st.builds(Alert, REPORT_TEXT, REPORT_TEXT, REPORT_FLOATS, REPORT_TEXT),
             max_size=3).map(tuple),
    st.builds(RunStats, REPORT_COUNTS, REPORT_COUNTS, REPORT_COUNTS, REPORT_COUNTS,
              st.booleans()))


def _report_floats(report):
    yield report.bucket_seconds
    yield from (rec.bucket_start for rec in report.records)
    yield from (alert.emitted_at for alert in report.alerts)
    for _, outcome in report.outcomes:
        yield from (choice.added_delay for choice in outcome.new_plans)
        if outcome.violated is not None:
            yield outcome.violated[1]


class TestReportJson:
    """The JSON renderer writes ``json.dumps(..., indent=2)``'s bytes, and a
    report reads back unless it holds a NaN or infinite number, which no
    run writes and ``parse_report`` rejects."""

    @settings(max_examples=400, deadline=None)
    @given(REPORTS)
    def test_render_matches_indented_dumps_and_round_trips(self, report):
        text = render_report(report, "json")
        assert text == json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
        if all(math.isfinite(value) for value in _report_floats(report)):
            # -0.0 equals 0.0, so the round trip compares bytes.
            assert render_report(parse_report(text), "json") == text
        else:
            with pytest.raises(ValidationError):
                parse_report(text)


#: A report document that uses every field of the format.
REPORT_DOC = report_to_dict(Report(
    seed=3, bucket_seconds=60.0, grid_cols=2, grid_rows=2,
    records=(CongestionRecord((0, 1), 60.0, 2, 1, ("a", "b")),),
    outcomes=(("a", InsertOutcome(InsertStatus.Rerouted, ("a",),
                                  (RouteChoice("a", 0, 300.0),))),
              ("b", InsertOutcome(InsertStatus.Rejected, reason="full",
                                  violated=((0, 1), 60.0)))),
    alerts=(Alert("watch", "seg-a", 5.0, "x=1"),),
    stats=RunStats(3, 1, 0, 0, True)))


class TestParseReportProperty:
    """Reading a report either succeeds or raises ValidationError, whatever
    the input: ``adatm diff`` never ends in a traceback."""

    def test_the_document_reads_back(self):
        text = json.dumps(REPORT_DOC)
        assert report_to_dict(parse_report(text)) == REPORT_DOC

    @settings(max_examples=200, deadline=None)
    @given(JSON_VALUES)
    def test_any_json_value(self, value):
        try:
            parse_report(json.dumps(value))
        except ValidationError:
            pass

    @settings(max_examples=600, deadline=None)
    @given(st.sampled_from(list(_node_paths(REPORT_DOC))[1:]), JSON_VALUES)
    def test_any_single_node_replacement(self, path, value):
        doc = copy.deepcopy(REPORT_DOC)
        parent = doc
        for name in path[:-1]:
            parent = parent[name]
        parent[path[-1]] = value
        try:
            parse_report(json.dumps(doc))
        except ValidationError:
            pass


def _rename_outcome(doc, new_id):
    doc["outcomes"][new_id] = doc["outcomes"].pop("a")


class TestParseReportRefuses:
    """``parse_report`` refuses values that no run writes, at their path;
    a negative cell or count, a bucket of 0 seconds or less and a flight id
    holding a separator or a line boundary used to read back."""

    @pytest.mark.parametrize("edit, value, path, message", [
        (_edit_at("records", 0, "subsector"), [-1, 0],
         "records[0].subsector", "expected an integer >= 0, got -1"),
        (_edit_at("outcomes", "b", "violated"), [[0, -2], 60.0],
         'outcomes["b"].violated', "expected an integer >= 0, got -2"),
        (_edit_at("stats", "steps"), -1, "stats.steps", "expected an integer >= 0, got -1"),
        (_edit_at("stats", "alerts"), -1, "stats.alerts",
         "expected an integer >= 0, got -1"),
        (_edit_at("stats", "merges"), -1, "stats.merges",
         "expected an integer >= 0, got -1"),
        (_edit_at("stats", "deletions"), -1, "stats.deletions",
         "expected an integer >= 0, got -1"),
        (_edit_at("bucket_seconds"), 0, "bucket_seconds", "expected a number > 0, got 0.0"),
        (_edit_at("bucket_seconds"), -60.0, "bucket_seconds",
         "expected a number > 0, got -60.0"),
    ] + [case for char in "|,;\n" for case in [
        (_edit_at("records", 0, "flight_ids"), ["a", f"b{char}"],
         "records[0].flight_ids", f"id {'b' + char!r} holds {char!r}, a CSV or log separator"),
        (_rename_outcome, f"a{char}", f'outcomes["a{char}"]'.replace("\n", "\\n"),
         f"id {'a' + char!r} holds {char!r}, a CSV or log separator"),
        (_edit_at("outcomes", "a", "changed_flights"), [f"a{char}"],
         'outcomes["a"].changed_flights',
         f"id {'a' + char!r} holds {char!r}, a CSV or log separator"),
        (_edit_at("outcomes", "a", "new_plans", 0, "flight"), f"a{char}",
         'outcomes["a"].new_plans[0].flight',
         f"id {'a' + char!r} holds {char!r}, a CSV or log separator"),
    ]])
    def test_refused_at_its_path(self, edit, value, path, message):
        doc = copy.deepcopy(REPORT_DOC)
        edit(doc, value)
        with pytest.raises(ValidationError) as err:
            parse_report(json.dumps(doc))
        assert (err.value.path, err.value.message) == (path, message)

    @pytest.mark.parametrize("fid, field, value, path, message", [
        ("", None, None, 'outcomes[""]', "id must be non-empty"),
        ("a.b", "changed_flights", [7], 'outcomes["a.b"].changed_flights',
         "expected a string, got 7"),
        ("a.b", "new_plans", 7, 'outcomes["a.b"].new_plans', "expected a list of objects"),
    ])
    def test_an_outcome_is_named_by_its_quoted_id(self, fid, field, value, path, message):
        """Each outcome's path quotes its flight id as JSON: an empty id
        used to fail at ``outcomes.``, and an id holding ``.`` read as a
        nested field."""
        doc = copy.deepcopy(REPORT_DOC)
        _rename_outcome(doc, fid)
        if field is not None:
            doc["outcomes"][fid][field] = value
        with pytest.raises(ValidationError) as err:
            parse_report(json.dumps(doc))
        assert (err.value.path, err.value.message) == (path, message)


#: The values that the error-text pin puts at each node of a document.
PIN_VALUES = [None, True, 0, -1, 0.5, 1e300, 10**400, "", "x", [], [0, 0], {},
              math.nan, math.inf]


def _one_node_edits(doc):
    """Each document that differs from ``doc`` at one node, named: the node
    replaced by each of ``PIN_VALUES``, or, in an object, deleted."""
    for path in _node_paths(doc):
        name = _field_path(path) or "$"
        for value in PIN_VALUES:
            edited = copy.deepcopy(doc)
            if path:
                _node_at(edited, path[:-1])[path[-1]] = value
            else:
                edited = value
            yield f"{name} = {value!r}", edited
        if path and isinstance(_node_at(doc, path[:-1]), dict):
            edited = copy.deepcopy(doc)
            del _node_at(edited, path[:-1])[path[-1]]
            yield f"{name} deleted", edited


def _outcome(read, doc) -> str:
    try:
        read(doc)
    except ValidationError as exc:
        return str(exc)
    return "loads"


def error_pin_lines() -> list[str]:
    """One sorted line per one-node edit of ``VALID`` and of ``REPORT_DOC``:
    the edit, and the loader's error text or ``loads``."""
    return sorted(
        [f"scenario {name}: {_outcome(scenario_from_dict, doc)}"
         for name, doc in _one_node_edits(VALID)]
        + [f"report {name}: {_outcome(lambda d: parse_report(json.dumps(d)), doc)}"
           for name, doc in _one_node_edits(REPORT_DOC)])


class TestErrorTextPin:
    """Every one-node edit of ``VALID`` and ``REPORT_DOC`` loads or raises
    ``ValidationError`` with the same text as when the pin was taken, so
    that a rewrite of the readers keeps each message and each path.  On a
    mismatch, ``python tests/test_scenario.py`` (with ``src`` on
    ``PYTHONPATH``) prints the lines, to diff against another tree's."""

    def test_the_error_texts_are_pinned(self):
        lines = error_pin_lines()
        assert len(lines) == 1865 + 767
        assert hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest() == \
            "b61dbe7686720c4d400f2e3c4bf63f9e8e0bb1dcd7c32d35a7d32b397d28c496"


class TestSimulateStepBudget:
    """``simulate`` refuses a step budget below 1, as
    ``Runtime.run_until_quiescent`` does; it used to return a report of 0
    steps, not quiescent, and no error."""

    @pytest.mark.parametrize("max_steps", [0, -5])
    def test_below_1_is_refused(self, max_steps):
        with pytest.raises(ValidationError) as err:
            simulate(congestion_scenario(residents=2), max_steps=max_steps)
        assert (err.value.path, err.value.message) == (
            "max_steps", f"max_steps must be >= 1, got {max_steps}")


class TestDiffReports:
    def test_identity(self, headroom_scenario):
        report = run_simulation(headroom_scenario)
        assert diff_reports(report, report).empty

    def test_one_extra_record(self, headroom_scenario):
        from dataclasses import replace
        report = run_simulation(headroom_scenario)
        trimmed = replace(report, records=report.records[1:])
        diff = diff_reports(report, trimmed)
        assert len(diff.only_in_a) == 1
        assert not diff.only_in_b
        assert not diff.mismatched

    def test_empty_diff_iff_byte_identical_records(self, headroom_scenario):
        a = run_simulation(headroom_scenario)
        b = run_oracle(headroom_scenario)
        diff = diff_reports(a, b)
        same_bytes = render_report(a, "csv") == render_report(b, "csv")
        assert diff.empty == same_bytes

    def test_bucketing_mismatch_rejected(self, headroom_scenario):
        from dataclasses import replace
        report = run_simulation(headroom_scenario)
        other = replace(report, bucket_seconds=30.0)
        with pytest.raises(UsageError):
            diff_reports(report, other)


class TestRunSimulation:
    def test_headroom_accepts_flight_3412(self, headroom_scenario):
        report = run_simulation(headroom_scenario)
        outcomes = dict(report.outcomes)
        assert outcomes["3412"].status is InsertStatus.Accepted
        assert not [r for r in report.records if r.congested]

    def test_saturated_rejects_without_alternates(self, saturated_scenario):
        report = run_simulation(saturated_scenario)
        outcomes = dict(report.outcomes)
        assert outcomes["3412"].status is InsertStatus.Rejected
        assert outcomes["3412"].violated is not None

    def test_every_flight_reported_exactly_once(self, saturated_scenario):
        report = run_simulation(saturated_scenario)
        ids = [fid for fid, _ in report.outcomes]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids)) == len(saturated_scenario.flights)

    def test_determinism_byte_identical(self, saturated_scenario):
        first = simulate(saturated_scenario)
        second = simulate(saturated_scenario)
        assert render_report(first.report, "json") == \
            render_report(second.report, "json")
        assert first.event_log == second.event_log

    def test_insertion_order_departure_then_id(self):
        # The later-departing flight must not displace the earlier one.
        s = scenario_from_dict(minimal_dict(
            capacity={"calm": 1, "severe": 1},
            flights=[
                {"id": "zz-early", "waypoints": dwell_route(t0=0.0, t1=600.0)},
                {"id": "aa-late", "waypoints": dwell_route(t0=100.0, t1=700.0)},
            ]))
        report = run_simulation(s)
        outcomes = dict(report.outcomes)
        assert outcomes["zz-early"].status is InsertStatus.Accepted

    def test_non_quiescent_flagged(self, headroom_scenario):
        report = run_simulation(headroom_scenario, max_steps=1)
        assert not report.stats.quiescent

    @pytest.mark.parametrize("name", sorted(p.name for p in DEMO_SCENARIOS.glob("*.json")))
    def test_max_steps_is_a_hard_cap(self, name):
        # The ingest drain used to get one more step after the budget was spent.
        scenario = load_scenario((DEMO_SCENARIOS / name).read_text(encoding="utf-8"))
        full = run_simulation(scenario)
        assert full.stats.quiescent
        for n in range(1, full.stats.steps + 1):
            report = run_simulation(scenario, max_steps=n)
            assert report.stats.steps <= n
            assert report.stats.quiescent == (n == full.stats.steps)
        assert report == full


class TestSubscriptionsEndToEnd:
    def _scenario(self, min_confidence=0.5):
        return scenario_from_dict(minimal_dict(
            flights=[{"id": "f1", "waypoints": dwell_route(t0=0.0, t1=300.0)}],
            observations=[{
                "payload": {"kind": "pirep", "detail": "light chop"},
                "source": "pilot-1",
                "confidence": 0.8,
                "key": {"time": [0, 600], "box": [0, 0, 10, 10],
                        "concept": "airspace/weather/report"},
            }],
            subscriptions=[{
                "id": "region-watch",
                "min_confidence": min_confidence,
                "query": {"mode": "focused", "box": [0, 0, 20, 20]},
            }],
        ))

    def test_alerts_cover_observations_and_segments(self):
        report = run_simulation(self._scenario())
        alerted = {a.datum_id for a in report.alerts}
        assert "obs-001" in alerted
        assert any(d.startswith("seg-f1-") for d in alerted)
        assert report.stats.alerts == len(report.alerts)

    def test_alerts_survive_json_roundtrip(self):
        report = run_simulation(self._scenario())
        assert report.alerts
        assert parse_report(render_report(report, "json")) == report

    def test_min_confidence_filters_segments_only(self):
        # Segment data carry confidence 1.0; the 0.8 observation drops out.
        report = run_simulation(self._scenario(min_confidence=0.9))
        alerted = {a.datum_id for a in report.alerts}
        assert "obs-001" not in alerted
        assert any(d.startswith("seg-f1-") for d in alerted)


class TestSegmentDataShareTheirParts:
    """The segment data of one publication share the first datum's
    hyperdata and metadata, and a cell's box is one object."""

    def test_one_hyperdata_and_one_box_per_cell(self):
        state = AirspaceState(GridSpec(0, 0, 2, 2, 10.0))
        # Out to cell (1, 0) and back: two segments in cell (0, 0).
        state.try_insert(FlightPlan("f1", (Waypoint(1.0, 5.0, 0.0),
                                           Waypoint(15.0, 5.0, 600.0),
                                           Waypoint(1.0, 5.0, 1200.0))))
        state.try_insert(FlightPlan("f2", (Waypoint(1.0, 5.0, 0.0),
                                           Waypoint(9.0, 5.0, 900.0))))
        boxes = {}
        for fid in ("f1", "f2"):
            data = _segment_data(state, fid)
            assert len(data) == len(state.flights[fid].segments)
            first = data[0]
            for datum in data:
                assert datum == kernel.encapsulate(
                    datum.payload, NotionKind.Assumption, datum.metadata,
                    source_confidence=1.0, key=datum.key, datum_id=datum.id)
                assert datum.hyperdata is first.hyperdata
                assert datum.metadata is first.metadata
                cell = (datum.payload["col"], datum.payload["row"])
                assert datum.key.space == state.grid.cell_bounds(*cell)
                assert boxes.setdefault(cell, datum.key.space) is datum.key.space
        assert len(_segment_data(state, "f1")) == 3 and set(boxes) == {(0, 0), (1, 0)}


class TestLoadSharesRepeatedValues:
    """One load keeps one concept path per concept text and one string per
    repeated payload string or source, and copies nothing it may share
    with its input."""

    DOC = json.dumps(minimal_dict(observations=[
        {"payload": {"storm_id": "st-1", "kind": "radar-echo", "n": 1},
         "source": "radar-1", "confidence": 0.5,
         "key": {"time": [0, 60], "box": [0, 0, 1, 1], "concept": "a/b"}},
        {"payload": {"storm_id": "st-1", "kind": "radar-echo", "n": 2},
         "source": "radar-1", "confidence": 0.5,
         "key": {"time": [0, 60], "box": [0, 0, 1, 1], "concept": "a/b"}},
        {"payload": {"storm_id": "st-1", "kind": "a/b"},
         "source": "radar-2", "confidence": 0.5,
         "key": {"time": [0, 60], "box": [0, 0, 1, 1], "concept": "a/c"}},
    ], subscriptions=[
        {"id": "near", "query": {
            "mode": "neighborhood",
            "center": {"time": [0, 60], "box": [0, 0, 1, 1], "concept": "a/b"},
            "time_radius": 1, "space_radius": 1, "concept_radius": 0}},
    ]))

    def test_equal_values_are_one_object(self):
        doc = json.loads(self.DOC)
        first, second = (o["payload"]["storm_id"] for o in doc["observations"][:2])
        assert first == second and first is not second  # as the decoder gives them
        s = scenario_from_dict(doc)
        a, b, c = s.observations
        assert a.key.concept is b.key.concept
        assert a.key.concept is s.subscriptions[0].spec.center.concept
        assert c.key.concept == ConceptPath(("a", "c"))
        for name in ("storm_id", "kind"):
            assert a.payload[name] is b.payload[name]
        assert a.payload["storm_id"] is c.payload["storm_id"]
        assert a.metadata.source_id is b.metadata.source_id == "radar-1"
        # A payload value that reads like a concept text stays a string.
        assert type(c.payload["kind"]) is str and c.payload["kind"] == "a/b"

    def test_changing_the_input_after_the_load_leaves_the_scenario(self):
        doc = json.loads(self.DOC)
        s = scenario_from_dict(doc)
        before = [dict(o.payload) for o in s.observations]
        for o in doc["observations"]:
            o["payload"]["storm_id"] = "st-9"
            o["payload"]["extra"] = True
        assert [o.payload for o in s.observations] == before
        assert s == scenario_from_dict(json.loads(self.DOC))

    def test_outputs_do_not_rest_on_shared_concepts(self):
        loaded = fusion_scenario()
        shared = loaded.observations[0].key.concept
        assert all(o.key.concept is shared for o in loaded.observations)
        apart = dataclasses.replace(loaded, observations=tuple(
            dataclasses.replace(o, key=dataclasses.replace(
                o.key, concept=ConceptPath(tuple(shared.segments))))
            for o in loaded.observations))
        assert apart.observations[0].key.concept is not apart.observations[1].key.concept
        assert golden_outputs(apart) == golden_outputs(loaded)
        assert simulate(loaded).report.stats.merges > 0


class TestNegativeZeroTime:
    """A route starting at -0.0 keeps that sign in its shared segments, and
    every output reads it as 0."""

    def test_same_outputs_as_a_start_at_zero(self):
        doc = json.loads((DEMO_SCENARIOS / "saturated_cell_reroute.json").read_text())
        doc["subscriptions"] = [{"id": "segments", "query": {
            "mode": "focused", "concept_prefix": "airspace/traffic/segment"}}]
        negative = copy.deepcopy(doc)
        for flight in negative["flights"]:
            for route in [flight["waypoints"], *flight["alternates"]]:
                assert route[0][2] == 0.0
                route[0][2] = -0.0
        zero, signed = (load_scenario(json.dumps(d)) for d in (doc, negative))
        assert math.copysign(1.0, signed.flights[0].waypoints[0].t) == -1.0
        run = simulate(signed)
        assert run.report.alerts
        assert any(math.copysign(1.0, account.segments[0].entry) == -1.0
                   for account in run.state.flights.values())
        assert golden_outputs(signed) == golden_outputs(zero)


class TestStormConfirmation:
    def test_confirmed_by_fused_observations(self):
        run = simulate(storm_reroute_scenario(observations_conf=(0.6, 0.5)))
        assert "storm|st-1|confirmed" in run.event_log
        outcomes = dict(run.report.outcomes)
        assert outcomes["0001"].status is InsertStatus.Rerouted

    def test_single_weak_observation_not_confirmed(self):
        run = simulate(storm_reroute_scenario(with_alternates=False,
                                              observations_conf=(0.5,)))
        assert "storm|st-1|unconfirmed" in run.event_log
        assert all(o.status is InsertStatus.Accepted
                   for _, o in run.report.outcomes)

    def test_threshold_matches_oracle_rule(self):
        # The runtime fuses duplicate reports by noisy-OR, so its combined
        # confidence must equal the oracle's direct product over raw reports.
        scenario = storm_reroute_scenario(observations_conf=(0.6, 0.5))
        oracle = run_oracle(scenario)
        sim = run_simulation(scenario)
        sim_caps = {(r.subsector, r.bucket_start): r.capacity for r in sim.records}
        for record in oracle.records:
            key = (record.subsector, record.bucket_start)
            if key in sim_caps:
                assert sim_caps[key] == record.capacity

    def test_bump_without_alternates(self):
        run = simulate(storm_reroute_scenario(with_alternates=False))
        outcomes = dict(run.report.outcomes)
        assert outcomes["0001"].status is InsertStatus.Rejected
        assert "capacity lost to severe weather" in outcomes["0001"].reason


class TestSafetyAfterQuiescence:
    @pytest.mark.parametrize("fixture", ["headroom", "saturated",
                                         "storm-reroute", "storm-bump"])
    def test_no_unexplained_excess(self, fixture):
        scenario = {
            "headroom": lambda: congestion_scenario(residents=4),
            "saturated": lambda: congestion_scenario(residents=6),
            "storm-reroute": lambda: storm_reroute_scenario(with_alternates=True),
            "storm-bump": lambda: storm_reroute_scenario(with_alternates=False),
        }[fixture]()
        run = simulate(scenario)
        assert run.report.stats.quiescent
        rejected = {fid for fid, o in run.report.outcomes
                    if o.status is InsertStatus.Rejected}
        state = run.state
        for record in state.predict_congestion():
            assert record.occupancy <= record.capacity, (fixture, record)
        # Flights kept out of the state are exactly the rejected ones.
        assert set(state.flights) | rejected == \
            {p.flight_id for p in scenario.flights}


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_case1_scenarios_zero_diff(self, seed):
        rng = random.Random(seed)
        scenario = random_case1_scenario(rng, max_flights=12)
        sim = run_simulation(scenario)
        oracle = run_oracle(scenario)
        assert all(o.status is InsertStatus.Accepted for _, o in sim.outcomes)
        diff = diff_reports(sim, oracle)
        assert diff.empty, (diff.only_in_a[:3], diff.only_in_b[:3],
                            diff.mismatched[:3])
        assert render_report(sim, "csv") == render_report(oracle, "csv")

    def test_case2_diff_localized(self):
        # Sim reroutes 3412 onto its alternate; the oracle keeps the filed
        # plan, so record differences must stay within the cells touched by
        # either of 3412's routes plus the conflicted cell.  A bystander in
        # a far cell must agree byte-for-byte.
        scenario = scenario_from_dict({
            "grid": {"cols": 4, "rows": 2, "cell": 10.0},
            "bucket_seconds": 60,
            "horizon_seconds": 14400,
            "capacity": {"calm": 6, "severe": 3},
            "flights": (
                [{"id": f"{i + 1:04d}", "waypoints": dwell_route()}
                 for i in range(6)]
                + [{"id": "3412",
                    "waypoints": [[5.0, 15.0, 0.0], [5.0, 5.0, 1200.0],
                                  [15.0, 5.0, 2400.0], [15.0, 15.0, 3600.0]],
                    "alternates": [[[5.0, 15.0, 0.0], [15.0, 15.0, 3600.0]]]},
                   {"id": "bystander",
                    "waypoints": dwell_route(cell=(3, 1))}]),
            "seed": 1,
        })
        sim = run_simulation(scenario)
        outcomes = dict(sim.outcomes)
        assert outcomes["3412"].status is InsertStatus.Rerouted
        oracle = run_oracle(scenario)
        diff = diff_reports(sim, oracle)
        assert not diff.empty
        allowed_cells = {(0, 0), (0, 1), (1, 0), (1, 1)}
        sim_index = {(r.subsector, r.bucket_start): r for r in sim.records}
        orc_index = {(r.subsector, r.bucket_start): r for r in oracle.records}
        touched = {k[0] for k in sim_index.keys() ^ orc_index.keys()}
        for key in sim_index.keys() & orc_index.keys():
            if sim_index[key] != orc_index[key]:
                touched.add(key[0])
        assert touched
        assert touched <= allowed_cells
        assert (3, 1) not in touched


def _inserted_under_filed_storms(scenario):
    """The airspace state after the driver's insertion phase."""
    driver = _Driver(scenario, None, False)
    driver.state.set_storms(tuple(s.cell for s in scenario.storms if not s.reported))
    driver._insert_flights()
    return driver.state


def _confirms_a_storm(run) -> bool:
    return any(e.event_type == "storm" and e.detail.startswith("confirmed")
               for e in run.runtime.event_log)


class TestNoWeatherRecheckWithoutAConfirmedStorm:
    """The driver skips ``advance_weather`` when no reported storm is
    confirmed: the storms are then the filed ones, under which every
    insertion was classified, and no insertion leaves a spot over its
    room."""

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_demos_and_fixtures(self, name):
        scenario = golden_scenario(name)
        assert _inserted_under_filed_storms(scenario)._capacity_violations() == ()
        run = simulate(scenario)
        if not _confirms_a_storm(run):
            assert run.state.advance_weather(0.0) == []

    @pytest.mark.parametrize("workload", ["headroom", "contended", "storm"])
    def test_bench_scenarios(self, workload):
        spec = _bench_workloads().WORKLOADS[workload]
        for index in range(spec.scenarios):
            scenario = load_scenario(spec.generate(1, index))
            assert _inserted_under_filed_storms(scenario)._capacity_violations() == (), \
                index
            if index < BENCH_SCENARIOS:
                run = simulate(scenario)
                if not _confirms_a_storm(run):
                    assert run.state.advance_weather(0.0) == []


if __name__ == "__main__":
    print(*error_pin_lines(), sep="\n")
