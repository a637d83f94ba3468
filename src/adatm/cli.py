"""Command-line entry points: simulate, oracle, diff.

Exit codes: 0 success, 1 usage error, 2 scenario validation error,
3 simulation stopped before quiescence, 4 ``diff`` found the reports differ,
5 the run failed with any other package error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import AdatmError, ParseError, UsageError, ValidationError
from .kernel import format_scalar
from .scenario import (diff_reports, load_scenario, parse_report, render_report, run_oracle,
                       simulate)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NOT_QUIESCENT = 3
EXIT_REPORTS_DIFFER = 4
EXIT_RUN_FAILED = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adatm",
        description="Decentralized airspace congestion prediction")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the decentralized pipeline")
    sim.add_argument("scenario", help="scenario JSON file")
    sim.add_argument("--out", help="write the report here instead of stdout")
    sim.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    sim.add_argument("--max-steps", type=int, default=None,
                     help="activation budget (default: scaled to data volume)")
    sim.add_argument("--full", action="store_true",
                     help="include zero-occupancy buckets in the records")
    sim.add_argument("--log", help="also write the runtime event log to this file")

    orc = sub.add_parser("oracle", help="run the centralized brute-force baseline")
    orc.add_argument("scenario", help="scenario JSON file")
    orc.add_argument("--out", help="write the report here instead of stdout")
    orc.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    orc.add_argument("--full", action="store_true",
                     help="include zero-occupancy buckets in the records")

    dif = sub.add_parser("diff", help="compare two JSON reports")
    dif.add_argument("a", help="first report (json format)")
    dif.add_argument("b", help="second report (json format)")
    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}", path) from None


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_simulate(args) -> int:
    scenario = load_scenario(_read(args.scenario))
    if args.max_steps is not None and args.max_steps < 1:
        raise UsageError("--max-steps must be >= 1")
    run = simulate(scenario, max_steps=args.max_steps, include_empty=args.full)
    _write(render_report(run.report, args.format), args.out)
    if args.log:
        # One line per event, so a run without events leaves an empty file.
        Path(args.log).write_text(run.event_log and run.event_log + "\n", encoding="utf-8")
    if not run.report.stats.quiescent:
        print("warning: activation budget exhausted before quiescence; "
              "report is partial", file=sys.stderr)
        return EXIT_NOT_QUIESCENT
    return EXIT_OK


def _cmd_oracle(args) -> int:
    report = run_oracle(load_scenario(_read(args.scenario)), include_empty=args.full)
    _write(render_report(report, args.format), args.out)
    return EXIT_OK


def _cmd_diff(args) -> int:
    try:
        a = parse_report(_read(args.a))
        b = parse_report(_read(args.b))
    except ValidationError as exc:
        raise UsageError(f"diff needs json-format reports: {exc}") from None
    result = diff_reports(a, b)
    if result.empty:
        print("reports are identical")
        return EXIT_OK
    for key in result.only_in_a:
        print(f"only in {args.a}: subsector={key[0]} bucket={format_scalar(key[1])}")
    for key in result.only_in_b:
        print(f"only in {args.b}: subsector={key[0]} bucket={format_scalar(key[1])}")
    for line in result.mismatched:
        print(f"mismatch: {line}")
    return EXIT_REPORTS_DIFFER


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        return _cmd_diff(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except AdatmError as exc:
        print(f"error: run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILED


if __name__ == "__main__":
    sys.exit(main())
