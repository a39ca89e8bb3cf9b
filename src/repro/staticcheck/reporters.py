"""Report renderers: terminal text and machine JSON."""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.staticcheck.model import Report

TOOL_NAME = "repro.staticcheck"


def render_text(report: Report, verbose: bool = False) -> str:
    """Human-readable multi-line report."""
    lines = []
    for finding in report.findings:
        lines.append(finding.render_long() if verbose else finding.render())
    for waiver in report.unused_waivers:
        lines.append(f"warning: unused waiver '{waiver.render()}'")
    counts = report.counts_by_rule()
    summary = (", ".join(f"{rule}: {count}" for rule, count in counts.items())
               if counts else "clean")
    lines.append(
        f"{len(report.findings)} finding(s) in {report.files_analyzed} "
        f"file(s) [{summary}] "
        f"({len(report.waived)} waived)")
    return "\n".join(lines)


def to_json(report: Report) -> Dict[str, Any]:
    """JSON-serialisable dict of the full report."""
    def finding_dict(finding):
        return {
            "rule": finding.rule,
            "path": finding.path,
            "line": finding.line,
            "message": finding.message,
            "source": finding.source,
            "severity": finding.severity.value,
            "fix_hint": finding.fix_hint,
        }

    return {
        "tool": TOOL_NAME,
        "files_analyzed": report.files_analyzed,
        "findings": [finding_dict(f) for f in report.findings],
        "waived": [finding_dict(f) for f in report.waived],
        "unused_waivers": [w.render() for w in report.unused_waivers],
        "timings": [
            {"pass": t.pass_name, "wall_ms": t.wall_ms,
             "modules": t.modules, "findings": t.findings}
            for t in report.timings
        ],
        "ok": report.ok,
    }


def render(report: Report, fmt: str, verbose: bool = False) -> str:
    """Render ``report`` in one of ``text``/``json``."""
    if fmt == "text":
        return render_text(report, verbose=verbose)
    if fmt == "json":
        return json.dumps(to_json(report), indent=2)
    raise ValueError(f"unknown report format: {fmt!r}")
