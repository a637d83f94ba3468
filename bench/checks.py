"""Correctness checks on one simulated scenario.

The checks read only the scenario text the generator wrote and the
program's outputs (JSON report, CSV report, event log), so they do not
depend on the code they check.  Each returns a list of problems; an empty
list means the run is correct.
"""

from __future__ import annotations

import json

#: Fused confidence at which a reported storm counts as confirmed; the
#: scenario format fixes it (README, "Scenario format").
STORM_CONFIRMATION = 0.75


def _excess_spots(event_log: str) -> set[tuple[int, int, float]]:
    """(col, row, bucket) of every spot the log names in an excess event."""
    spots = set()
    for line in event_log.splitlines():
        parts = line.split("|", 3)
        if len(parts) == 4 and parts[1] == "weather-excess":
            col, row = parts[2].removeprefix("cell:").split(",")
            bucket = parts[3].split()[0].removeprefix("bucket=")
            spots.add((int(col), int(row), float(bucket)))
    return spots


def _storm_lines(event_log: str) -> dict[str, str]:
    """storm id -> 'confirmed' / 'unconfirmed', from the event log."""
    out = {}
    for line in event_log.splitlines():
        parts = line.split("|", 3)
        if len(parts) == 4 and parts[1] == "storm":
            out[parts[2]] = parts[3].split()[0]
    return out


def _fused(observations: list[dict], storm_id: str) -> float:
    miss = 1.0
    for obs in observations:
        if str(obs["payload"].get("storm_id", "")) == storm_id:
            miss *= 1.0 - obs["confidence"]
    return 1.0 - miss


def check_outputs(scenario_text: str, report_json: str, event_log: str) -> list[str]:
    """Checks every workload shares: a quiescent run, an outcome for every
    offered flight, no bucket over capacity unless an excess event names
    it, and storm confirmation that agrees with the raw reports."""
    scenario = json.loads(scenario_text)
    report = json.loads(report_json)
    problems = []
    if not report["stats"]["quiescent"]:
        problems.append("run ended non-quiescent")
    offered = {f["id"] for f in scenario["flights"]}
    if set(report["outcomes"]) != offered:
        missing = sorted(offered - set(report["outcomes"]))
        extra = sorted(set(report["outcomes"]) - offered)
        problems.append(f"outcomes differ from offered flights: missing {missing[:5]} "
                        f"extra {extra[:5]}")
    excess = _excess_spots(event_log)
    for rec in report["records"]:
        if rec["occupancy"] != len(rec["flight_ids"]):
            problems.append(f"record {rec['subsector']}@{rec['bucket_start']}: "
                            f"occupancy {rec['occupancy']} but "
                            f"{len(rec['flight_ids'])} flights")
        spot = (rec["subsector"][0], rec["subsector"][1], float(rec["bucket_start"]))
        if rec["occupancy"] > rec["capacity"] and spot not in excess:
            problems.append(f"record {rec['subsector']}@{rec['bucket_start']}: "
                            f"occupancy {rec['occupancy']} over capacity "
                            f"{rec['capacity']} with no excess event")
    logged = _storm_lines(event_log)
    for storm in scenario.get("storms", []):
        if not storm.get("reported"):
            continue
        fused = _fused(scenario.get("observations", []), storm["id"])
        expected = "confirmed" if fused >= STORM_CONFIRMATION else "unconfirmed"
        if logged.get(storm["id"]) != expected:
            problems.append(f"storm {storm['id']}: log says {logged.get(storm['id'])}, "
                            f"raw reports fuse to {fused:.6f} ({expected})")
    return problems


def check_against_oracle(report_json: str, sim_csv: str, oracle_csv: str) -> list[str]:
    """Headroom check: every flight accepted and the CSV byte-equal to the
    centralized oracle's."""
    problems = []
    statuses = {o["status"] for o in json.loads(report_json)["outcomes"].values()}
    if statuses - {"accepted"}:
        problems.append(f"outcomes other than accepted: {sorted(statuses)}")
    if sim_csv != oracle_csv:
        problems.append("CSV differs from the oracle's")
    return problems
