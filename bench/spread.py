"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workloads headroom,storm] [--trace 0]

Runs ``bench/run.py`` once per workload and seed, one process at a time,
and prints, for every metric, the median over the seeds and the distance
between the first and third quartiles as a share of that median.  For
end-to-end metrics it also prints the share of the metric's bound that
the spread uses.  With one seed it simply prints every metric of every
workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds_of(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            print(f"# {workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", file=sys.stderr, flush=True)
        print(f"{workload} ({len(results)} runs, "
              f"{sum(r['failed'] for r in results)} failed visits)")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            line = (f"  {name:40s} median {statistics.median(values):<12.6g} "
                    f"{first['unit']:6s} spread {spread(values):.4f}")
            if bounds.get(name):
                line += f"  ({spread(values) / bounds[name]:.0%} of bound {bounds[name]})"
            if len(values) > 1:
                line += "  [" + " ".join(f"{v:.4g}" for v in values) + "]"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
