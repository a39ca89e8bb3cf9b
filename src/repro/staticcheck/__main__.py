"""Command-line front end: ``python -m repro.staticcheck``.

Exit status is 0 when the tree is clean (waived findings allowed), 1
when any unwaived finding remains, whatever its severity, and 2 on
configuration errors (unknown rules, unreadable waivers, unparsable
sources).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.errors import ConfigError
from repro.staticcheck.registry import all_rules, expand_selection
from repro.staticcheck.reporters import render
from repro.staticcheck.runner import analyze_paths, default_root
from repro.staticcheck.waivers import default_waivers_path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description="Project-invariant static analysis "
                    "(dimensional, determinism, pool-safety, "
                    "golden-flow, hygiene).")
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to analyse "
             "(default: the installed repro package)")
    parser.add_argument(
        "--format", dest="fmt", choices=("text", "json", "sarif"),
        default="text", help="report format (default: text)")
    parser.add_argument(
        "--rule", action="append", default=None, metavar="ID",
        help="restrict to one rule id or pass name (repeatable; a pass "
             "name selects every rule it owns)")
    parser.add_argument(
        "--waivers", type=Path, default=None, metavar="FILE",
        help="waiver file (default: tests/lint_waivers.txt when present)")
    parser.add_argument(
        "--no-waivers", action="store_true",
        help="ignore the default waiver file")
    parser.add_argument(
        "--output", type=Path, default=None, metavar="FILE",
        help="write the report to FILE instead of stdout")
    parser.add_argument(
        "--verbose", action="store_true",
        help="multi-line findings with source and fix hints (text format)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit")
    return parser


def _list_rules() -> str:
    lines = []
    for rule in all_rules().values():
        lines.append(f"{rule.id:18s} {rule.default_severity.value:8s} "
                     f"{rule.summary}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0

    rules = None
    if args.rule:
        rules = expand_selection(args.rule)

    paths = args.paths if args.paths else [default_root()]
    waivers_path = args.waivers
    waivers = [] if args.no_waivers and waivers_path is None else None
    if waivers_path is None and waivers is None:
        waivers_path = default_waivers_path()

    report = analyze_paths(paths=paths, rules=rules, waivers=waivers,
                           waivers_path=waivers_path)

    text = render(report, args.fmt, verbose=args.verbose)
    if args.output is not None:
        args.output.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0 if report.ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ConfigError as exc:
        print(f"staticcheck: {exc}", file=sys.stderr)
        sys.exit(2)
