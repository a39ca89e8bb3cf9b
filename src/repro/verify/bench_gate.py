"""Benchmark regression gate over pytest-benchmark JSON artifacts.

CI runs the benchmark suites with ``--benchmark-json=bench-*.json``;
this gate compares each benchmark's **median** against the committed
baseline (``benchmarks/BENCH_baseline.json``) and fails when any median
regresses beyond the tolerance (default +25% — wide enough for shared
CI runners, tight enough to catch the order-of-magnitude slips the
vectorized sampling and parallel sweep work exist to prevent).

Speed-ups never fail the gate; they show up in the delta table so a
suspiciously large one still gets eyeballs.  Benchmarks absent from the
baseline are reported as ``new`` (not failed) so adding a benchmark
does not require a lockstep baseline update.  A baseline entry with no
result in the artifacts is reported as ``missing`` and fails the gate,
so a gated benchmark cannot silently drop out of the run; retiring one
means deleting its baseline entry.  Refreshing the baseline is
explicit::

    python -m repro.verify.bench_gate --update-baseline bench-*.json

The delta table is written as GitHub-flavoured markdown to
``--summary`` (defaulting to ``$GITHUB_STEP_SUMMARY`` when set), so the
comparison appears directly on the workflow run page.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError

#: Baseline file schema version.
BASELINE_SCHEMA = 1

#: Default allowed slowdown before a benchmark fails the gate (+25%).
DEFAULT_TOLERANCE = 0.25

#: Default baseline location, relative to the repository root.
DEFAULT_BASELINE = "benchmarks/BENCH_baseline.json"


def load_benchmark_medians(path: Path) -> Dict[str, float]:
    """``{benchmark name: median seconds}`` from a pytest-benchmark JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, list):
        raise ConfigError(f"{path}: not a pytest-benchmark JSON "
                          f"(no 'benchmarks' list)")
    medians: Dict[str, float] = {}
    for bench in benchmarks:
        medians[bench["name"]] = float(bench["stats"]["median"])
    return medians


def collect_medians(paths: Sequence[Path]) -> Dict[str, float]:
    """Merged medians of several artifact files (duplicate names collide)."""
    merged: Dict[str, float] = {}
    for path in paths:
        for name, median in load_benchmark_medians(Path(path)).items():
            if name in merged:
                raise ConfigError(
                    f"benchmark {name!r} appears in more than one artifact")
            merged[name] = median
    return merged


def load_baseline(path: Path) -> Dict[str, float]:
    """The committed baseline medians; raises on schema mismatch."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema") != BASELINE_SCHEMA:
        raise ConfigError(
            f"baseline {path} has schema {payload.get('schema')!r}; this "
            f"build reads schema {BASELINE_SCHEMA} — regenerate with "
            f"--update-baseline")
    return {name: float(median)
            for name, median in payload["medians"].items()}


def write_baseline(path: Path, medians: Dict[str, float]) -> None:
    """Write a new baseline file from ``medians``."""
    payload = {
        "schema": BASELINE_SCHEMA,
        "note": ("Benchmark gate baseline: median seconds per benchmark. "
                 "Regenerate with python -m repro.verify.bench_gate "
                 "--update-baseline bench-*.json"),
        "medians": {name: medians[name] for name in sorted(medians)},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class BenchDelta:
    """One benchmark's comparison against the baseline.

    ``baseline_s`` is None for a benchmark the baseline does not know;
    ``current_s`` is None for a baselined benchmark the artifacts lack.
    """

    name: str
    baseline_s: Optional[float]
    current_s: Optional[float]
    tolerance: float

    @property
    def ratio(self) -> Optional[float]:
        """current / baseline, or ``None`` when either side is absent."""
        if (self.baseline_s is None or self.baseline_s <= 0
                or self.current_s is None):
            return None
        return self.current_s / self.baseline_s

    @property
    def status(self) -> str:
        """``ok`` | ``regression`` | ``new`` | ``missing``."""
        if self.current_s is None:
            return "missing"
        ratio = self.ratio
        if ratio is None:
            return "new"
        return "regression" if ratio > 1.0 + self.tolerance else "ok"


@dataclass
class GateReport:
    """Outcome of one gate run."""

    deltas: List[BenchDelta] = field(default_factory=list)
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def regressions(self) -> List[BenchDelta]:
        """The benchmarks that regressed beyond tolerance."""
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def missing(self) -> List[BenchDelta]:
        """Baselined benchmarks with no result in the artifacts."""
        return [d for d in self.deltas if d.status == "missing"]

    @property
    def failures(self) -> List[BenchDelta]:
        """Every delta that fails the gate: regressions, then missing."""
        return self.regressions + self.missing

    @property
    def ok(self) -> bool:
        """True when nothing regressed and no baselined bench is missing."""
        return not self.failures

    def markdown(self) -> str:
        """GitHub-flavoured markdown delta table for the step summary."""
        lines = [
            "### Benchmark gate "
            + ("✅ within tolerance" if self.ok
               else f"❌ {len(self.regressions)} regression(s), "
                    f"{len(self.missing)} missing"),
            "",
            f"Tolerance: +{self.tolerance:.0%} over committed baseline "
            f"medians.",
            "",
            "| benchmark | baseline (s) | current (s) | delta | status |",
            "|---|---:|---:|---:|---|",
        ]
        for delta in sorted(self.deltas,
                            key=lambda d: (d.status not in
                                           ("regression", "missing"),
                                           d.name)):
            base = ("—" if delta.baseline_s is None
                    else f"{delta.baseline_s:.6f}")
            current = ("—" if delta.current_s is None
                       else f"{delta.current_s:.6f}")
            if delta.ratio is None:
                change = delta.status
            else:
                change = f"{(delta.ratio - 1.0):+.1%}"
            mark = {"ok": "ok", "new": "new",
                    "regression": "**REGRESSION**",
                    "missing": "**MISSING**"}[delta.status]
            lines.append(f"| `{delta.name}` | {base} | "
                         f"{current} | {change} | {mark} |")
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        """Plain-text report for the job log."""
        lines = []
        for delta in self.deltas:
            if delta.current_s is None:
                lines.append(f"  {delta.status:<10} {delta.name}  "
                             f"no result in the artifacts")
                continue
            ratio = f"{delta.ratio:.3f}x" if delta.ratio is not None else "new"
            lines.append(f"  {delta.status:<10} {delta.name}  "
                         f"median {delta.current_s:.6f}s  ({ratio})")
        return "\n".join(lines)


def compare(baseline: Dict[str, float], current: Dict[str, float],
            tolerance: float = DEFAULT_TOLERANCE) -> GateReport:
    """Compare current medians against the baseline.

    Every name on either side gets a delta, so a baselined benchmark
    absent from ``current`` shows up as ``missing``.
    """
    report = GateReport(tolerance=tolerance)
    for name in sorted(set(baseline) | set(current)):
        report.deltas.append(BenchDelta(
            name=name, baseline_s=baseline.get(name),
            current_s=current.get(name), tolerance=tolerance))
    return report


def default_baseline_path() -> Path:
    """The committed baseline's path, resolved from the package root."""
    import repro

    repo_root = Path(repro.__file__).resolve().parent.parent.parent
    return repo_root / DEFAULT_BASELINE


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.bench_gate",
        description="Compare pytest-benchmark artifacts against the "
                    "committed baseline and fail on regressions.")
    parser.add_argument("artifacts", nargs="+", type=Path,
                        help="pytest-benchmark JSON files (bench-*.json)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help=f"baseline file (default: {DEFAULT_BASELINE})")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional slowdown "
                             "(default: %(default)s)")
    parser.add_argument("--summary", type=Path, default=None,
                        help="write the markdown delta table here "
                             "(default: $GITHUB_STEP_SUMMARY when set)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from the artifacts "
                             "instead of gating")
    args = parser.parse_args(argv)
    baseline_path = args.baseline if args.baseline is not None \
        else default_baseline_path()
    current = collect_medians(args.artifacts)
    if args.update_baseline:
        write_baseline(baseline_path, current)
        print(f"baseline updated: {baseline_path} "
              f"({len(current)} benchmarks)")
        return 0
    if not baseline_path.is_file():
        print(f"no baseline at {baseline_path}; run with --update-baseline "
              f"to create one", file=sys.stderr)
        return 2
    report = compare(load_baseline(baseline_path), current,
                     tolerance=args.tolerance)
    print(report.render())
    summary_path = args.summary
    if summary_path is None and os.environ.get("GITHUB_STEP_SUMMARY"):
        summary_path = Path(os.environ["GITHUB_STEP_SUMMARY"])
    if summary_path is not None:
        with open(summary_path, "a", encoding="utf-8") as fh:
            fh.write(report.markdown())
    if not report.ok:
        names = ", ".join(f"{d.name} ({d.status})" for d in report.failures)
        print(f"benchmark gate FAILED: {names}", file=sys.stderr)
        return 1
    print(f"benchmark gate passed: {len(report.deltas)} benchmarks within "
          f"+{args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
