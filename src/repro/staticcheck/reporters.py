"""Report renderers: terminal text, machine JSON, and SARIF 2.1.0.

The SARIF output targets the subset GitHub code scanning consumes: one
run, a driver with a rule catalog, and one result per live finding with
a physical location and a content-based partial fingerprint (so moving
a finding between lines doesn't open a duplicate alert).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

from repro.staticcheck.model import Report
from repro.staticcheck.registry import all_rules, rule_owners

#: The schema URI GitHub's SARIF ingestion validates against.
SARIF_SCHEMA_URI = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                    "master/Schemata/sarif-schema-2.1.0.json")
SARIF_VERSION = "2.1.0"
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


def _fingerprint(finding) -> str:
    """Stable content hash of a finding (line-number independent)."""
    digest = hashlib.sha256()
    digest.update(
        f"{finding.rule}|{finding.path}|{finding.source.strip()}".encode())
    return digest.hexdigest()[:32]


def to_sarif(report: Report) -> Dict[str, Any]:
    """SARIF 2.1.0 log of the report's live findings.

    Beyond the code-scanning core (driver + rules + results), the run
    carries an ``invocations`` record with ``executionSuccessful`` and
    property bags: run-level timing statistics, plus a per-rule
    bag naming the owning pass and its wall-clock share.
    """
    owners = rule_owners()
    pass_wall_ms = {t.pass_name: t.wall_ms for t in report.timings}
    rules_meta = [
        {
            "id": rule.id,
            "shortDescription": {"text": rule.summary},
            "defaultConfiguration": {
                "level": rule.default_severity.sarif_level,
            },
            **({"help": {"text": rule.default_fix_hint}}
               if rule.default_fix_hint else {}),
            "properties": {
                "pass": owners.get(rule.id, ""),
                "passWallMs": pass_wall_ms.get(owners.get(rule.id, ""), 0.0),
            },
        }
        for rule in all_rules().values()
    ]
    rule_index = {meta["id"]: i for i, meta in enumerate(rules_meta)}
    results = []
    for finding in report.findings:
        message = finding.message
        if finding.fix_hint:
            message = f"{message} (fix: {finding.fix_hint})"
        results.append({
            "ruleId": finding.rule,
            "ruleIndex": rule_index.get(finding.rule, -1),
            "level": finding.severity.sarif_level,
            "message": {"text": message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": max(1, finding.line),
                        "snippet": {"text": finding.source},
                    },
                },
            }],
            "partialFingerprints": {
                "repro/staticcheck/v1": _fingerprint(finding),
            },
        })
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": TOOL_NAME,
                    "informationUri":
                        "https://example.invalid/repro/docs/STATICCHECK.md",
                    "rules": rules_meta,
                },
            },
            "invocations": [{
                "executionSuccessful": report.ok,
            }],
            "results": results,
            "originalUriBaseIds": {
                "SRCROOT": {"description": {
                    "text": "repository source root (src/)"}},
            },
            "properties": {
                "filesAnalyzed": report.files_analyzed,
                "timings": [
                    {"pass": t.pass_name, "wallMs": t.wall_ms,
                     "modules": t.modules, "findings": t.findings}
                    for t in report.timings
                ],
            },
        }],
    }


def render(report: Report, fmt: str, verbose: bool = False) -> str:
    """Render ``report`` in one of ``text``/``json``/``sarif``."""
    if fmt == "text":
        return render_text(report, verbose=verbose)
    if fmt == "json":
        return json.dumps(to_json(report), indent=2)
    if fmt == "sarif":
        return json.dumps(to_sarif(report), indent=2)
    raise ValueError(f"unknown report format: {fmt!r}")
