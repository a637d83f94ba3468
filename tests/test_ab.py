"""The in-process A/B timer ``tools/ab.py``."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"


def _ab(parent, change, *extra):
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--workload", "contended",
         "--seed", "1", "--rounds", "1", "--scenarios", "2", *extra],
        capture_output=True, text=True, timeout=120)


def test_the_working_tree_against_itself():
    done = _ab(ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "outputs agree on 2 contended scenarios (seed 1)"
    assert [line.split(":")[0] for line in lines[1:]] == [
        "parent median round", "change median round",
        "change/parent ratio, median over rounds",
        "change/parent ratio, quartiles over rounds", "rounds won by change"]
    assert lines[-1].endswith("/1")
    # One round: its ratio is the median and both quartiles.
    median = lines[3].split(": ")[1]
    assert lines[4].split(": ")[1] == f"{median} to {median}"


def test_quartiles_span_the_middle_half_of_the_rounds():
    done = _ab(ROOT, ROOT, "--rounds", "5")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    median = float(lines[3].split(": ")[1])
    q1, q3 = (float(q) for q in lines[4].split(": ")[1].split(" to "))
    assert q1 <= median <= q3


def test_differing_outputs_exit_1(tmp_path):
    # One copy whose event log words a reroute differently, and one whose
    # CSV report, and nothing else, names its flight-id column differently.
    for name, old, new, part in (
            ("log", 'self.rt.emit("rerouted"', 'self.rt.emit("moved"', "event log"),
            ("csv", '"congested,flight_ids"', '"congested,flights"', "CSV report")):
        tree = tmp_path / name
        shutil.copytree(ROOT / "src" / "adatm", tree / "src" / "adatm",
                        ignore=shutil.ignore_patterns("__pycache__"))
        source = tree / "src" / "adatm" / "scenario.py"
        text = source.read_text(encoding="utf-8")
        assert text.count(old) == 1
        source.write_text(text.replace(old, new), encoding="utf-8")
        done = _ab(ROOT, tree)
        assert done.returncode == 1
        assert done.stderr == f"error: outputs differ, scenario 0: {part} differs\n"
        assert "rounds won" not in done.stdout


def test_flights_scales_the_headroom_workload():
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload", "headroom",
         "--seed", "1", "--rounds", "1", "--scenarios", "1", "--flights", "8"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "outputs agree on 1 headroom scenarios (seed 1, 8 flights each)"
    assert lines[-1].endswith("/1")


def test_memory_reports_held_and_peak_bytes():
    done = _ab(ROOT, ROOT, "--memory")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "outputs agree on 2 contended scenarios (seed 1)"
    assert [line.split(":")[0] for line in lines[1:]] == [
        f"{side} {label}" for label in ("scenario set held", "simulate+render peak")
        for side in ("parent", "change", "change/parent")]
    values = [float(line.split(": ")[1].removesuffix(" B")) for line in lines[1:]]
    # The same tree on both sides: equal bytes, give or take what a first
    # call caches on the process's shared modules.
    for parent, change, ratio in (values[:3], values[3:]):
        assert parent > 0 and ratio == pytest.approx(change / parent, abs=1e-3)
        assert ratio == pytest.approx(1.0, abs=0.02)


def test_load_times_the_loader():
    done = _ab(ROOT, ROOT, "--load", "--rounds", "3")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "outputs agree on 2 contended scenarios (seed 1)"
    assert [line.split(":")[0] for line in lines[1:]] == [
        "parent median round", "change median round",
        "change/parent ratio, median over rounds",
        "change/parent ratio, quartiles over rounds", "rounds won by change"]
    assert lines[-1].endswith("/3")
    # Each round loads both scenario texts on each tree, parent first in
    # the first call, change first in the next.
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import ab
    finally:
        sys.path.remove(str(ROOT / "tools"))
    calls = []

    class Tree:
        def __init__(self, side):
            self.side = side

        def load_scenario(self, text):
            calls.append((self.side, text))

    rounds = ab._time_rounds([Tree("a"), Tree("b")], [["x", "y"], ["x", "y"]], 2, ab._load)
    assert len(rounds) == 2
    assert calls == [("a", "x"), ("b", "x"), ("b", "y"), ("a", "y")] * 2


def test_oracle_times_the_oracle():
    done = _ab(ROOT, ROOT, "--oracle", "--rounds", "3")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "outputs agree on 2 contended scenarios (seed 1)"
    assert [line.split(":")[0] for line in lines[1:]] == [
        "parent median round", "change median round",
        "change/parent ratio, median over rounds",
        "change/parent ratio, quartiles over rounds", "rounds won by change"]
    assert lines[-1].endswith("/3")
    # Each round runs the oracle, and nothing else, on both scenarios of
    # each tree, alternating which tree goes first.
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import ab
    finally:
        sys.path.remove(str(ROOT / "tools"))
    calls = []

    class Tree:
        def __init__(self, side):
            self.side = side

        def run_oracle(self, scenario):
            calls.append((self.side, scenario))

    rounds = ab._time_rounds([Tree("a"), Tree("b")], [["x", "y"], ["x", "y"]], 2,
                             ab._oracle)
    assert len(rounds) == 2
    assert calls == [("a", "x"), ("b", "x"), ("b", "y"), ("a", "y")] * 2


@pytest.mark.parametrize("other", ["--load", "--memory"])
def test_oracle_is_refused_with_another_measure(other):
    done = _ab(ROOT, ROOT, "--oracle", other)
    assert done.returncode == 2
    assert "--oracle times run_oracle alone; leave out --load and --memory" in done.stderr
    assert done.stdout == ""


def test_load_and_memory_are_refused_together():
    done = _ab(ROOT, ROOT, "--load", "--memory")
    assert done.returncode == 2
    assert "--load and --memory are two measures; give one" in done.stderr
    assert done.stdout == ""


def test_all_runs_each_workload_in_turn():
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload", "all",
         "--seed", "1", "--rounds", "1", "--scenarios", "1"],
        capture_output=True, text=True, timeout=240)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # One summary of six lines per workload, in the benchmark's order.
    assert len(lines) == 18
    assert [lines[i] for i in (0, 6, 12)] == [
        f"outputs agree on 1 {name} scenarios (seed 1)"
        for name in ("headroom", "contended", "storm")]
    assert all(line.startswith("rounds won by change: ") for line in lines[5::6])


def test_flights_is_refused_for_all_workloads():
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload", "all",
         "--seed", "1", "--flights", "8"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "--flights applies to the headroom workload only" in done.stderr
    assert done.stdout == ""


def test_flights_is_refused_for_another_workload():
    done = _ab(ROOT, ROOT, "--flights", "8")
    assert done.returncode == 2
    assert "--flights applies to the headroom workload only" in done.stderr
    assert done.stdout == ""
