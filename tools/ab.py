"""Time two trees of this repository against each other in one process.

Usage::

    python tools/ab.py PARENT_TREE CHANGE_TREE --workload contended --seed 7 --rounds 20
    python tools/ab.py PARENT_TREE CHANGE_TREE --workload all --seed 7 --rounds 8
    python tools/ab.py PARENT_TREE CHANGE_TREE --workload storm --seed 7 --load
    python tools/ab.py PARENT_TREE CHANGE_TREE --workload storm --seed 7 --oracle

Each tree's ``src/adatm`` is copied into a temporary directory under its
own package name (``adatm_a`` for PARENT_TREE, ``adatm_b`` for
CHANGE_TREE), so both load side by side.  The scenarios are those of one
benchmark workload at one seed (``bench/workloads.py`` of this
repository; ``--scenarios`` takes only the first few).  ``--workload
all`` takes the three workloads one after another in the benchmark's
order (headroom, contended, storm) and prints, for each, the lines that a
run of that workload alone prints, so that one command shows whether any
workload got slower.  ``--flights N`` gives each headroom scenario N
flights instead of the benchmark's 50, to show how a change scales; it
sets ``HEADROOM_FLIGHTS`` in the tool's own copy of
``bench/workloads.py``, and it is refused unless the workload is
headroom alone.

First every scenario is run once on each tree: unless the report JSON,
the event log, the CSV report and the ``run_oracle`` JSON have the same
SHA-256 on both, as ``tools/digests.py`` and ``tests/test_golden.py``
compare them, the tool prints the first scenario and output that differ
and exits 1.  Then each round times ``simulate``
plus the JSON render of every scenario on both trees, the tree that goes
first alternating from one call to the next.  The tool prints each tree's
median round time, the median and the quartiles over rounds of
CHANGE/PARENT round time, and the rounds that CHANGE won.

Both trees see the same machine at nearly the same moment, so the ratio
holds up when the machine's speed drifts.  That makes the tool fit for
attributing a change to its parts (each part left out in turn); a speed
claim still comes from ``bench/run.py``.  Nothing is written inside
either tree.

``--load`` times ``load_scenario`` of the workload's scenario texts
instead: each round loads every text on both trees, the tree that goes
first alternating from one call to the next as in the time rounds, and
the tool prints the same median, quartile and rounds-won lines.  The
JSON decode is part of each load, as it is of the benchmark's
``setup_s``; the import is not.

``--oracle`` times ``run_oracle`` of each scenario instead, in the same
alternating rounds and with the same lines.  The oracle's time is the
denominator of the benchmark's ``sim_over_oracle``, so a change to the
simulation can show that it left that denominator alone.  ``--load`` and
``--memory`` are refused alongside it.

``--memory`` measures memory instead of time, under ``tracemalloc``.  In
each round each tree, the first alternating as above, loads the
scenarios afresh; the tool takes the traced bytes the loaded set still
holds, then the highest traced peak, above what is held before it, of one
``simulate`` plus JSON render over the scenarios.  It prints each tree's
median of both and their CHANGE/PARENT ratios.  Traced bytes count only
what Python allocates, so they split a memory change into its parts more
finely than the benchmark's peak RSS.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Package name of each side's copy of ``adatm``.
PACKAGES = ("adatm_a", "adatm_b")


def _workloads_module():
    """``bench/workloads.py`` of this repository, imported without
    touching ``bench/``."""
    spec = importlib.util.spec_from_file_location(
        "adatm_ab_workloads", ROOT / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_trees(trees: list[Path], into: Path) -> list:
    """Each tree's ``adatm.scenario``, imported from a renamed copy."""
    sys.path.insert(0, str(into))
    modules = []
    for tree, package in zip(trees, PACKAGES):
        shutil.copytree(tree / "src" / "adatm", into / package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        modules.append(importlib.import_module(f"{package}.scenario"))
    return modules


def _run(scenario_mod, scenario) -> tuple[str, str]:
    """The report JSON and the event log of one simulation."""
    run = scenario_mod.simulate(scenario)
    return scenario_mod.render_report(run.report, "json"), run.event_log


def _outputs(scenario_mod, scenario) -> tuple[str, str, str, str]:
    """The report JSON, the event log, the CSV report and the
    ``run_oracle`` JSON of one scenario."""
    run = scenario_mod.simulate(scenario)
    render = scenario_mod.render_report
    return (render(run.report, "json"), run.event_log, render(run.report, "csv"),
            render(scenario_mod.run_oracle(scenario), "json"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _first_difference(modules, scenarios) -> str | None:
    for index, pair in enumerate(zip(*scenarios)):
        outputs = [_outputs(mod, scenario) for mod, scenario in zip(modules, pair)]
        for part, a, b in zip(("report JSON", "event log", "CSV report", "oracle JSON"),
                              *outputs):
            if _sha(a) != _sha(b):
                return f"scenario {index}: {part} differs"
    return None


def _load(scenario_mod, text: str) -> None:
    scenario_mod.load_scenario(text)


def _oracle(scenario_mod, scenario) -> None:
    scenario_mod.run_oracle(scenario)


def _time_rounds(modules, inputs, rounds: int, run=_run) -> list[tuple[float, float]]:
    """Per round, each tree's summed time of ``run(module, input)`` over
    its inputs: by default ``simulate`` plus render of each scenario."""
    out = []
    calls = 0
    for _ in range(rounds):
        totals = [0.0, 0.0]
        for pair in zip(*inputs):
            order = (0, 1) if calls % 2 == 0 else (1, 0)
            calls += 1
            for side in order:
                gc.collect()
                start = time.perf_counter()
                run(modules[side], pair[side])
                totals[side] += time.perf_counter() - start
        out.append((totals[0], totals[1]))
    return out


def _memory(scenario_mod, texts: list[str]) -> tuple[int, int]:
    """The traced bytes that the scenarios loaded from ``texts`` hold, and
    the highest traced peak of one of their simulations plus render, above
    what was held before it."""
    gc.collect()
    tracemalloc.start()
    try:
        scenarios = [scenario_mod.load_scenario(text) for text in texts]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        peak = 0
        for scenario in scenarios:
            gc.collect()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _run(scenario_mod, scenario)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return held, peak


def _memory_rounds(modules, texts: list[str], rounds: int) -> list[tuple[int, int, int, int]]:
    """Per round, the held and peak bytes of PARENT, then of CHANGE."""
    out = []
    for round_ in range(rounds):
        sides = [(0, 0), (0, 0)]
        for side in ((0, 1) if round_ % 2 == 0 else (1, 0)):
            sides[side] = _memory(modules[side], texts)
        out.append((*sides[0], *sides[1]))
    return out


def _print_memory(rounds: list[tuple[int, int, int, int]]) -> None:
    for label, parent_at, change_at in (("scenario set held", 0, 2),
                                        ("simulate+render peak", 1, 3)):
        parent = statistics.median(r[parent_at] for r in rounds)
        change = statistics.median(r[change_at] for r in rounds)
        print(f"parent {label}: {parent:.0f} B")
        print(f"change {label}: {change:.0f} B")
        print(f"change/parent {label}: {change / parent:.3f}")


def _compare(modules, spec, args) -> int:
    """Check and then time (or measure) one workload on both trees; prints
    its summary and returns the exit status."""
    count = spec.scenarios if args.scenarios is None else min(args.scenarios,
                                                              spec.scenarios)
    texts = [spec.generate(args.seed, index) for index in range(count)]
    scenarios = [[mod.load_scenario(text) for text in texts] for mod in modules]
    difference = _first_difference(modules, scenarios)
    if difference is not None:
        print(f"error: outputs differ, {difference}", file=sys.stderr)
        return 1
    # Read from the scenarios, so that the line shows the flights run.
    flights = "" if args.flights is None else \
        f", {len(scenarios[0][0].flights)} flights each"
    print(f"outputs agree on {count} {spec.name} scenarios "
          f"(seed {args.seed}{flights})")
    if args.memory:
        _print_memory(_memory_rounds(modules, texts, args.rounds))
        return 0
    rounds = _time_rounds(modules, [texts, texts], args.rounds, _load) if args.load else \
        _time_rounds(modules, scenarios, args.rounds, _oracle if args.oracle else _run)
    parent_s = statistics.median(a for a, _ in rounds)
    change_s = statistics.median(b for _, b in rounds)
    ratios = [b / a for a, b in rounds]
    # The inclusive quartiles lie within the ratios; one round is its own.
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive") \
        if len(ratios) > 1 else ratios * 3
    won = sum(1 for a, b in rounds if b < a)
    print(f"parent median round: {parent_s:.6f} s")
    print(f"change median round: {change_s:.6f} s")
    print(f"change/parent ratio, median over rounds: {statistics.median(ratios):.3f}")
    print(f"change/parent ratio, quartiles over rounds: {q1:.3f} to {q3:.3f}")
    print(f"rounds won by change: {won}/{len(rounds)}")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/ab.py", description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path, help="tree timed as PARENT")
    parser.add_argument("change", type=Path, help="tree timed as CHANGE")
    parser.add_argument("--workload", required=True,
                        help="benchmark workload name, or all")
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--rounds", type=int, default=20, help="timed rounds")
    parser.add_argument("--scenarios", type=int, default=None,
                        help="use only the first N scenarios of the workload")
    parser.add_argument("--flights", type=int, default=None,
                        help="flights per headroom scenario")
    parser.add_argument("--memory", action="store_true",
                        help="measure traced memory instead of time")
    parser.add_argument("--load", action="store_true",
                        help="time load_scenario instead of simulate")
    parser.add_argument("--oracle", action="store_true",
                        help="time run_oracle instead of simulate")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave both trees and bench/ as they were
    module = _workloads_module()
    workloads = module.WORKLOADS
    if args.workload != "all" and args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {', '.join(sorted(workloads))} or all")
    if args.rounds < 1 or args.scenarios is not None and args.scenarios < 1:
        parser.error("--rounds and --scenarios must be at least 1")
    if args.load and args.memory:
        parser.error("--load and --memory are two measures; give one")
    if args.oracle and (args.load or args.memory):
        parser.error("--oracle times run_oracle alone; leave out --load and --memory")
    if args.flights is not None:
        if args.workload != "headroom":
            parser.error("--flights applies to the headroom workload only")
        if args.flights < 1:
            parser.error("--flights must be at least 1")
        module.HEADROOM_FLIGHTS = args.flights
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "adatm").is_dir():
            parser.error(f"{tree} has no src/adatm")
    names = list(workloads) if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory(prefix="adatm-ab-") as tmp:
        modules = _load_trees(trees, Path(tmp))
        for name in names:
            if _compare(modules, workloads[name], args) != 0:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
