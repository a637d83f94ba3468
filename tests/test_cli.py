"""Command-line interface tests: commands, formats, exit codes."""

import json

import pytest

from adatm.cli import main
from adatm.scenario import render_scenario

from conftest import congestion_scenario, dwell_route, storm_reroute_scenario


@pytest.fixture
def headroom_path(tmp_path):
    path = tmp_path / "headroom.json"
    path.write_text(render_scenario(congestion_scenario(residents=4)),
                    encoding="utf-8")
    return path


@pytest.fixture
def saturated_path(tmp_path):
    path = tmp_path / "saturated.json"
    path.write_text(render_scenario(congestion_scenario(residents=6)),
                    encoding="utf-8")
    return path


class TestSimulate:
    def test_csv_to_stdout(self, headroom_path, capsys):
        assert main(["simulate", str(headroom_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("subsector_col,subsector_row,bucket_start")
        assert "3412" in out

    def test_report_written_to_file(self, headroom_path, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["simulate", str(headroom_path), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("subsector_col")

    def test_json_format_parses(self, headroom_path, tmp_path, capsys):
        assert main(["simulate", str(headroom_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stats"]["quiescent"] is True
        assert doc["outcomes"]["3412"]["status"] == "accepted"

    def test_event_log_flag(self, headroom_path, tmp_path):
        log = tmp_path / "events.log"
        assert main(["simulate", str(headroom_path), "--log", str(log),
                     "--out", str(tmp_path / "r.csv")]) == 0
        lines = log.read_text(encoding="utf-8").splitlines()
        assert lines
        assert all(line.count("|") >= 3 for line in lines if line)

    def test_exhausted_budget_exits_3(self, headroom_path, tmp_path, capsys):
        code = main(["simulate", str(headroom_path), "--max-steps", "1",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 3

    def test_full_flag_includes_empty_buckets(self, headroom_path, capsys):
        assert main(["simulate", str(headroom_path), "--full"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # 2x2 grid, 240 buckets: every bucket present plus the header.
        assert len(lines) == 1 + 4 * 240

    def test_invalid_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"grid": {"cols": 0, "rows": 2, "cell": 10}}),
                       encoding="utf-8")
        assert main(["simulate", str(bad)]) == 2

    def test_unparseable_scenario_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["simulate", str(bad)]) == 2

    @pytest.mark.parametrize("field, value", [
        ("bucket_seconds", "nan"), ("bucket_seconds", "inf"),
        ("waypoint_time", "nan"), ("waypoint_time", "-inf")])
    def test_non_finite_number_exits_2(self, field, value, tmp_path, capsys):
        doc = json.loads(render_scenario(congestion_scenario(residents=1)))
        if field == "bucket_seconds":
            doc["bucket_seconds"] = float(value)
        else:
            doc["flights"][0]["waypoints"][0][2] = float(value)
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["simulate", str(bad)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["simulate", str(tmp_path / "ghost.json")]) == 1

    def test_unreadable_path_exits_1(self, tmp_path):
        assert main(["oracle", str(tmp_path)]) == 1  # a directory

    def test_non_utf8_scenario_exits_2(self, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"grid": "\xff"}')
        assert main(["simulate", str(bad)]) == 2

    def test_route_ending_on_grid_corner_negotiates(self, tmp_path):
        # The last segment is one rounding error long; a delay option must
        # not turn it into an invalid segment halfway through the run.
        flights = [{"id": f"r{i}", "waypoints": [
            [57.47568719104904, 20.0, 103.81763510831728 + i],
            [30.0, 40.0, 1619.1478587583488 + i]]} for i in range(3)]
        path = tmp_path / "corner.json"
        path.write_text(json.dumps({"grid": {"cols": 8, "rows": 8, "cell": 10.0},
                                    "capacity": {"calm": 2, "severe": 1},
                                    "flights": flights}), encoding="utf-8")
        assert main(["simulate", str(path), "--out", str(tmp_path / "r.csv")]) == 0

    def test_bad_max_steps_exits_1(self, headroom_path):
        assert main(["simulate", str(headroom_path), "--max-steps", "0"]) == 1

    def test_unknown_flag_exits_1(self, headroom_path):
        assert main(["simulate", str(headroom_path), "--nope"]) == 1


class TestOracle:
    def test_csv_output(self, saturated_path, capsys):
        assert main(["oracle", str(saturated_path)]) == 0
        out = capsys.readouterr().out
        assert ",7,6,true," in out  # occupancy 7 over capacity 6

    def test_json_all_accepted(self, saturated_path, capsys):
        assert main(["oracle", str(saturated_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(o["status"] == "accepted" for o in doc["outcomes"].values())

    @pytest.mark.parametrize("field, value", [
        ("bucket_seconds", 0), ("bucket_seconds", -60),
        ("horizon_seconds", 0), ("horizon_seconds", -60)])
    def test_non_positive_window_exits_2(self, field, value, tmp_path, capsys):
        doc = json.loads(render_scenario(congestion_scenario(residents=1)))
        doc[field] = value
        bad = tmp_path / "window.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["oracle", str(bad), "--full"]) == 2
        assert f"{field} must be positive" in capsys.readouterr().err


def _query(doc):
    return doc["subscriptions"][0]["query"]


#: Edits to a valid scenario that each make it malformed.
MALFORMED = {
    "flights-not-a-list": lambda doc: doc.update(flights=5),
    "subscription-not-an-object": lambda doc: doc.update(subscriptions=[5]),
    "kinds-not-a-list": lambda doc: doc["subscriptions"][0].update(kinds=5),
    "alternates-not-a-list": lambda doc: doc["flights"][0].update(alternates=1e-9),
    "focused-time-number": lambda doc: _query(doc).update(time=1.5),
    "focused-time-empty": lambda doc: _query(doc).update(time=[]),
    "focused-time-object": lambda doc: _query(doc).update(time={}),
    "focused-box-short": lambda doc: _query(doc).update(box=[0, 0, 1]),
    "empty-source": lambda doc: doc["observations"][0].update(source=""),
    "negative-observed-at": lambda doc: doc["observations"][0].update(observed_at=-1),
    "negative-capacity": lambda doc: doc.update(capacity={"calm": 6, "severe": -1}),
    "severe-above-calm-no-flights": lambda doc: doc.update(
        capacity={"calm": 1, "severe": 2}, flights=[]),
    "negative-alternate-time": lambda doc: doc["flights"][0]["alternates"][0][0]
    .__setitem__(2, -1e9),
    "duplicate-subscription-id": lambda doc: doc["subscriptions"].append(
        dict(doc["subscriptions"][0])),
    "overlong-integer": lambda doc: doc.update(bucket_seconds=10 ** 400),
    "reported-not-a-flag": lambda doc: doc["storms"][0].update(reported="no"),
    # Scenarios that load on their own terms but ask for unbounded work.
    "flight-spanning-1e7-s": lambda doc: doc["flights"][0].update(
        waypoints=[[1, 5, 0], [9, 5, 1e7]], alternates=[]),
    "alternate-spanning-1e7-s": lambda doc: doc["flights"][0]["alternates"][0][-1]
    .__setitem__(2, 1e7),
    "route-crossing-1e5-lines": lambda doc: (
        doc["grid"].update(cols=100_001),
        doc["flights"][0].update(waypoints=[[1, 5, 0], [1_000_001, 5, 3600]],
                                 alternates=[])),
    "grid-lines-past-float-range": lambda doc: (
        doc["grid"].update(x0=-1e308, cols=10 ** 9, cell=1e300),
        doc["flights"][0].update(waypoints=[[-1e308, 5, 0], [1e308, 5, 600]],
                                 alternates=[])),
    "bucket-1e-3": lambda doc: doc.update(bucket_seconds=1e-3),
    "bucket-1e-9-waypoint-at-1e9": lambda doc: (
        doc.update(bucket_seconds=1e-9),
        doc["flights"][0]["waypoints"][-1].__setitem__(2, 1e9)),
}


class TestMalformedScenario:
    """A scenario that does not load, or a run that asks for more than the
    work bound, exits 2 from both commands."""

    @pytest.mark.parametrize("command", ["simulate", "oracle"])
    @pytest.mark.parametrize("edit", sorted(MALFORMED))
    def test_exits_2(self, edit, command, tmp_path, capsys):
        doc = json.loads(render_scenario(storm_reroute_scenario()))
        doc["subscriptions"] = [{"id": "watch", "kinds": ["event"],
                                 "query": {"mode": "focused", "time": [0, 9000]}}]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main([command, str(path)]) == 0
        MALFORMED[edit](doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main([command, str(path)]) == 2
        assert "invalid scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "oracle"])
    def test_full_report_past_bound_exits_2(self, command, tmp_path, capsys):
        doc = {"grid": {"cols": 2000, "rows": 2000, "cell": 10.0},
               "flights": [{"id": "f1", "waypoints": dwell_route()}]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main([command, str(path)]) == 0
        assert main([command, str(path), "--full"]) == 2
        assert "more than 100000 records" in capsys.readouterr().err


class TestDiff:
    def _json_report(self, scenario_path, tmp_path, name, command):
        out = tmp_path / name
        assert main([command, str(scenario_path), "--format", "json",
                     "--out", str(out)]) == 0
        return out

    def test_identical_reports(self, headroom_path, tmp_path, capsys):
        a = self._json_report(headroom_path, tmp_path, "a.json", "simulate")
        b = self._json_report(headroom_path, tmp_path, "b.json", "simulate")
        assert main(["diff", str(a), str(b)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_sim_vs_oracle_on_case2(self, saturated_path, tmp_path, capsys):
        a = self._json_report(saturated_path, tmp_path, "sim.json", "simulate")
        b = self._json_report(saturated_path, tmp_path, "orc.json", "oracle")
        assert main(["diff", str(a), str(b)]) == 4
        assert "mismatch" in capsys.readouterr().out

    def test_csv_report_is_usage_error(self, headroom_path, tmp_path, capsys):
        csv_path = tmp_path / "a.csv"
        assert main(["simulate", str(headroom_path), "--out", str(csv_path)]) == 0
        json_path = self._json_report(headroom_path, tmp_path, "b.json", "simulate")
        assert main(["diff", str(csv_path), str(json_path)]) == 1

    def test_missing_argument_is_usage_error(self):
        assert main(["diff", "only-one"]) == 1
