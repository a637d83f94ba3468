"""Benchmark for adatm: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload headroom --seed 1 --seconds 30 --trace 0

The seed makes the workload's scenario texts (see ``workloads.py``); the
program receives only that text.  A run loads the scenarios, then visits
them in turn until ``--seconds`` have passed (every scenario at least
once).  Each visit simulates one scenario, renders its JSON report, times
the centralized oracle on the same scenario and checks the outputs (see
``checks.py``).  A visit that raises or fails a check counts as failed;
none aborts the run.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics
named in ``BENCHMARK.json``.  With ``--trace 1`` every visit is made twice,
untraced and then traced (see ``tracing.py``); the run reports the
per-layer metrics and writes its spans to ``bench/traces/``.

Times are scaled by a reference loop run around each timed call (see
``reference.py``), so that runs on a shared machine whose speed drifts
stay comparable; the raw wall-clock medians are printed alongside.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 15
#: Oracle runs per visit; the oracle is fast, so one sample would be noise.
ORACLE_REPEATS = 5


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def setup(texts: list[str], repeats: int = SETUP_REPEATS):
    """Import adatm afresh and load every scenario text, ``repeats`` times.

    Returns the median scaled set-up time, the ``adatm.scenario`` module of
    the last import, and the scenarios it loaded.
    """
    def load():
        importlib.import_module("adatm")
        scenario_mod = importlib.import_module("adatm.scenario")
        return scenario_mod, [scenario_mod.load_scenario(text) for text in texts]

    times = []
    for _ in range(repeats):
        for name in [m for m in sys.modules if m == "adatm" or m.startswith("adatm.")]:
            del sys.modules[name]
        gc.collect()
        (scenario_mod, scenarios), _, scaled = reference.timed(load)
        times.append(scaled)
    return statistics.median(times), scenario_mod, scenarios


@dataclass
class Visit:
    """One simulated scenario, reduced to what the run keeps of it."""

    #: SHA-256 of the JSON report plus the event log
    digest: str
    log_bytes: int
    rejected: int
    problems: list[str]


def simulate_visit(scenario_mod, scenario):
    """Time ``simulate`` plus rendering its JSON report.

    Returns the run, the report text, and the wall and scaled times."""
    def simulate():
        run = scenario_mod.simulate(scenario)
        return run, scenario_mod.render_report(run.report, "json")

    gc.collect()
    (run, report_json), wall, scaled = reference.timed(simulate)
    return run, report_json, wall, scaled


def check_visit(workload: Workload, scenario_mod, text: str, run, report_json: str,
                oracle_report) -> Visit:
    problems = checks.check_outputs(text, report_json, run.event_log)
    if workload.matches_oracle:
        problems += checks.check_against_oracle(
            report_json, scenario_mod.render_report(run.report, "csv"),
            scenario_mod.render_report(oracle_report, "csv"))
    outcomes = json.loads(report_json)["outcomes"].values()
    return Visit(hashlib.sha256((report_json + run.event_log).encode()).hexdigest(),
                 len(run.event_log.encode()),
                 sum(1 for o in outcomes if o["status"] == "rejected"), problems)


@dataclass
class Tally:
    """Everything a run measured, before it is reduced to metrics."""

    attempted: int = 0
    failed: int = 0
    #: scaled and wall-clock simulate times of untraced visits
    simulate_s: list[float] = field(default_factory=list)
    simulate_wall: list[float] = field(default_factory=list)
    #: per untraced visit: simulate wall time over the median of the oracle
    #: runs made right after it
    sim_over_oracle: list[float] = field(default_factory=list)
    #: scaled simulate times of traced visits
    traced_s: list[float] = field(default_factory=list)
    #: scenario index -> its first visit; every later one must match it
    first: dict[int, Visit] = field(default_factory=dict)
    #: scenario index -> per-layer metrics of each traced visit
    layers: dict[int, list[dict]] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    absent: set[str] = field(default_factory=set)

    def record(self, index: int, visit: Visit | None, error: str | None) -> None:
        self.attempted += 1
        problems = [error] if error else list(visit.problems)
        if visit is not None and \
                self.first.setdefault(index, visit).digest != visit.digest:
            problems.append("report and event log differ from the first visit")
        if problems:
            self.failed += 1
            for problem in problems[:3]:
                print(f"scenario {index}: {problem}", file=sys.stderr)


def untraced_visit(workload, scenario_mod, scenario, text, tally: Tally, index: int):
    try:
        run, report_json, wall, scaled = simulate_visit(scenario_mod, scenario)
        oracle_s = []
        for _ in range(ORACLE_REPEATS):
            start = time.perf_counter()
            oracle = scenario_mod.run_oracle(scenario)
            oracle_s.append(time.perf_counter() - start)
        visit = check_visit(workload, scenario_mod, text, run, report_json, oracle)
    except Exception:  # a failing scenario is counted, never fatal
        tally.record(index, None, traceback.format_exc(limit=3))
        return
    tally.simulate_s.append(scaled)
    tally.simulate_wall.append(wall)
    tally.sim_over_oracle.append(wall / statistics.median(oracle_s))
    tally.record(index, visit, None)


def traced_visit(workload, scenario_mod, text, tally: Tally, index: int, label: str):
    tracer = tracing.Tracer(label)
    installed = tracing.install(tracer)
    tally.absent.update(installed.absent)
    try:
        scenario = scenario_mod.load_scenario(text)
        run, report_json, _, scaled = simulate_visit(scenario_mod, scenario)
        # Counters stop here: the oracle's own segmentation and capacity
        # calls are not the pipeline's.
        layer = tracer.snapshot_counts()
        oracle = scenario_mod.run_oracle(scenario)
    except Exception:  # a failing scenario is counted, never fatal
        tally.record(index, None, traceback.format_exc(limit=3))
        return
    finally:
        installed.restore()
    try:
        visit = check_visit(workload, scenario_mod, text, run, report_json, oracle)
    except Exception:  # a failing scenario is counted, never fatal
        tally.record(index, None, traceback.format_exc(limit=3))
        return
    layer.update(tracer.span_metrics())
    layer["scheduler.alerts"] = len(run.report.alerts)
    scanned = layer["nearness.candidates_scanned"]
    layer["nearness.match_ratio"] = layer["nearness.matched"] / scanned if scanned else 0.0
    tally.traced_s.append(scaled)
    tally.layers.setdefault(index, []).append(layer)
    tally.spans.extend(tracer.records())
    tally.record(index, visit, None)


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[Tally, float]:
    """Set up, then visit the workload's scenarios until ``seconds`` pass."""
    texts = [workload.generate(seed, i) for i in range(workload.scenarios)]
    setup_s, scenario_mod, scenarios = setup(texts)
    tally = Tally()
    deadline = time.perf_counter() + seconds
    visit = 0
    while visit < len(texts) or time.perf_counter() < deadline:
        index = visit % len(texts)
        untraced_visit(workload, scenario_mod, scenarios[index], texts[index], tally, index)
        if trace:
            traced_visit(workload, scenario_mod, texts[index], tally, index,
                         f"{workload.name}-{seed}-{index}-{visit}")
        visit += 1
    return tally, setup_s


def end_to_end(workload: Workload, tally: Tally, setup_s: float) -> dict[str, float]:
    simulate_s = statistics.median(tally.simulate_s)
    firsts = list(tally.first.values())
    offered = workload.flights * len(firsts)
    return {
        "flights_per_s": statistics.median(workload.flights / s for s in tally.simulate_s),
        "simulate_s": simulate_s,
        "sim_over_oracle": statistics.median(tally.sim_over_oracle),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "event_log_bytes_per_flight": sum(v.log_bytes for v in firsts) / offered,
        "kept_share": 1.0 - sum(v.rejected for v in firsts) / offered,
        "passed_share": 1.0 - tally.failed / tally.attempted,
    }


def per_layer(tally: Tally, names) -> dict[str, float]:
    """Each metric's median over a scenario's traced visits, averaged over
    the scenarios; a metric of an absent entry point reads 0."""
    out = {}
    for name in names:
        per_scenario = [statistics.median(layer.get(name, 0.0) for layer in layers)
                        for layers in tally.layers.values()]
        out[name] = statistics.fmean(per_scenario) if per_scenario else 0.0
    if tally.traced_s and tally.simulate_s:
        out["trace.overhead"] = \
            statistics.median(tally.traced_s) / statistics.median(tally.simulate_s)
    return out


def write_spans(tally: Tally, workload: str, seed: int) -> Path:
    out = BENCH / "traces" / f"{workload}-seed{seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with out.open("w") as fh:
        for record in tally.spans:
            fh.write(json.dumps(record) + "\n")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "adatm").is_dir():
        print(f"no adatm sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    units = declared_metrics(trace)
    workload = WORKLOADS[args.workload]

    tally, setup_s = measure(workload, args.seed, args.seconds, trace)
    if not tally.simulate_s:
        print("no visit completed", file=sys.stderr)
        return 1
    if trace:
        values = per_layer(tally, units)
        print(f"spans written to {write_spans(tally, workload.name, args.seed)}")
        for entry in sorted(tally.absent):
            print(f"absent entry point: {entry}")
    else:
        values = end_to_end(workload, tally, setup_s)
    print(f"workload {workload.name} seed {args.seed}: {tally.attempted} visits, "
          f"{len(tally.simulate_s)} untraced simulate samples, {tally.failed} failed; "
          f"wall-clock simulate median {statistics.median(tally.simulate_wall):.4f} s")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
