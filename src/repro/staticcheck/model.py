"""Core data model of the static-analysis framework.

Everything a pass produces or a reporter consumes lives here: the
:class:`Severity` levels, the :class:`Rule` metadata and :class:`Pass`
interface every pass implements, the :class:`Finding` record (one
diagnostic at one source location, with a machine-applicable *fix
hint*), the :class:`Waiver` record (one deliberate, reviewed exception),
and the :class:`Report` aggregate a full analysis run returns.

The model is deliberately independent of both the AST layer and the
reporters so that new output formats (or new front ends) never touch the
passes.
"""

from __future__ import annotations

import enum
import fnmatch
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Protocol, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.staticcheck.context import ModuleContext, ProjectContext


@enum.unique
class Severity(enum.Enum):
    """How bad a finding is: a definite defect, or a likely one.

    Severity is triage information only; any unwaived finding fails
    the run.
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Rule:
    """Metadata of one rule id a pass can emit.

    ``default_severity`` and ``default_fix_hint`` seed the findings;
    ``summary`` feeds ``--list-rules``.
    """

    id: str
    summary: str
    default_severity: Severity = Severity.WARNING
    default_fix_hint: str = ""


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violated at a source location.

    Waivers match on ``rule``, ``path`` and ``source`` (the offending
    source line), never on the line number; ``severity`` and
    ``fix_hint`` are additive.
    """

    rule: str
    path: str
    line: int
    message: str
    source: str
    severity: Severity = Severity.WARNING
    fix_hint: str = ""
    col: int = 0

    def render(self) -> str:
        """One ``path:line: [rule] message`` report line."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def render_long(self) -> str:
        """Multi-line rendering with severity, source and fix hint."""
        lines = [f"{self.path}:{self.line}: {self.severity.value} "
                 f"[{self.rule}] {self.message}"]
        if self.source:
            lines.append(f"    | {self.source}")
        if self.fix_hint:
            lines.append(f"    fix: {self.fix_hint}")
        return "\n".join(lines)


class Pass(Protocol):
    """The interface every analysis pass implements."""

    #: Unique pass name (``dimensional``, ``determinism``, ...).
    name: str
    #: The rules this pass can emit, in reporting order.
    rules: Tuple[Rule, ...]

    def run(self, ctx: "ModuleContext",
            project: "ProjectContext") -> List[Finding]:
        """Analyse one module and return its findings."""
        ...  # pragma: no cover - protocol body


@dataclass(frozen=True)
class Waiver:
    """One deliberate exception from a waiver file.

    Grammar (one per line): ``rule path-glob [substring]`` — the rule id,
    an fnmatch glob over the finding's posix path (or a suffix of it
    starting at a ``/``: ``measure/sampler.py`` waives
    ``repro/measure/sampler.py`` but not ``repro/measure/resampler.py``),
    and an optional substring that must appear in the offending source
    line.
    """

    rule: str
    path_glob: str
    substring: Optional[str] = None

    def matches(self, finding: Finding) -> bool:
        """Whether this waiver covers ``finding``."""
        if self.rule != finding.rule:
            return False
        path = finding.path.replace(os.sep, "/")
        if not (fnmatch.fnmatch(path, self.path_glob)
                or path.endswith("/" + self.path_glob)):
            return False
        if self.substring is not None and self.substring not in finding.source:
            return False
        return True

    def render(self) -> str:
        """The waiver-file line this record corresponds to."""
        tail = f" {self.substring}" if self.substring else ""
        return f"{self.rule} {self.path_glob}{tail}"


@dataclass(frozen=True)
class PassTiming:
    """Wall-clock cost of one pass across one analysis run.

    ``modules`` counts the modules the pass ran over; ``findings``
    counts every finding the pass produced, before rule filtering.
    """

    pass_name: str
    wall_ms: float
    modules: int = 0
    findings: int = 0


@dataclass
class Report:
    """Outcome of one analysis run, split by suppression status.

    ``findings`` are live (unwaived) diagnostics of every severity;
    ``waived`` were matched by a waiver; ``unused_waivers`` are waivers
    that matched nothing and should be deleted before they rot.
    """

    findings: List[Finding] = field(default_factory=list)
    waived: List[Finding] = field(default_factory=list)
    unused_waivers: List[Waiver] = field(default_factory=list)
    #: How many files the run analysed (for the summary line).
    files_analyzed: int = 0
    #: Per-pass wall-clock timings, in pass order.
    timings: List[PassTiming] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no live finding remains, whatever its severity."""
        return not self.findings

    def counts_by_rule(self) -> "dict[str, int]":
        """Live finding count per rule id, sorted by rule."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))
