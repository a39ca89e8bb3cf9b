"""Dimensional-analysis pass: the unit system, statically enforced.

The simulator's unit conventions (``repro.units``: ns, GHz, V, A, nF —
``I[A] = C[nF]·V[V]·f[GHz]`` exactly) are load-bearing but invisible to
the type system.  This pass seeds unit tags from identifier naming
conventions and the ``<src>_to_<dst>`` converter functions, propagates
them through each function with the dataflow layer, and reports:

``unit-mix``
    Adding, subtracting, or ``min``/``max``-combining values of
    different dimensions or scales (V + A, ns + us), and assignments
    where the target's declared unit contradicts the value (``dt_s =
    ... - last_ns`` — a dropped ``ns_to_s``).
``unit-compare``
    Ordering or equality comparisons across units (``now_ns >
    idle_close_us`` — a dropped ``us_to_ns``).
``unit-arg``
    Passing a value whose unit contradicts the callee parameter's
    declared unit (``engine.schedule(timeout_us, ...)`` where the
    parameter is ``delay_ns``), resolved through the cross-module
    signature table.
``unit-return``
    Returning a value whose unit contradicts the function's own name
    (``def wake_latency_ns(...): return ..._us``).
``unit-freq-div``
    Dividing a time by a frequency.  In the GHz↔cycles/ns convention
    ``cycles = ns * f`` and ``ns = cycles / f``; ``ns / f`` yields
    time², which is never what was meant.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from repro.staticcheck.context import ModuleContext, ProjectContext
from repro.staticcheck.dataflow import Event, scan_function
from repro.staticcheck.model import Finding, Rule, Severity


def _label(event: Event) -> Tuple[str, str]:
    """The (left, right) unit labels of an event."""
    left = event.left.label() if event.left is not None else "?"
    right = event.right.label() if event.right is not None else "?"
    return left, right


class DimensionalPass:
    """Flags unit-mixing arithmetic, comparisons, calls and returns."""

    name = "dimensional"
    rules: Tuple[Rule, ...] = (
        Rule("unit-mix",
             "arithmetic or assignment mixing incompatible units",
             Severity.ERROR,
             "convert explicitly with the repro.units helpers "
             "(us_to_ns, mv_to_v, ...) before combining"),
        Rule("unit-compare",
             "comparison between values of incompatible units",
             Severity.ERROR,
             "convert both sides to the same unit before comparing"),
        Rule("unit-arg",
             "argument unit contradicts the callee parameter's unit",
             Severity.ERROR,
             "convert the argument to the parameter's unit at the "
             "call site"),
        Rule("unit-return",
             "returned unit contradicts the function name's unit suffix",
             Severity.ERROR,
             "convert the return value or rename the function to "
             "match what it returns"),
        Rule("unit-freq-div",
             "time divided by frequency (yields time^2)",
             Severity.ERROR,
             "with f in GHz and t in ns: cycles = t * f and "
             "t = cycles / f; never t / f"),
    )

    def run(self, ctx: ModuleContext,
            project: ProjectContext) -> List[Finding]:
        """Scan every function in the module through the unit dataflow."""
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for event in scan_function(node, project):
                finding = self._finding_of(event, ctx)
                if finding is not None:
                    findings.append(finding)
        return findings

    def _finding_of(self, event: Event, ctx: ModuleContext):
        line = getattr(event.node, "lineno", 0)
        source = ctx.source_line(line)
        left, right = _label(event)
        rule_by_id = {rule.id: rule for rule in self.rules}

        def build(rule_id: str, message: str) -> Finding:
            rule = rule_by_id[rule_id]
            return Finding(rule=rule_id, path=ctx.path, line=line,
                           message=message, source=source,
                           severity=rule.default_severity,
                           fix_hint=rule.default_fix_hint)

        if event.kind == "mix-arith":
            if isinstance(event.node, (ast.Assign, ast.AnnAssign,
                                       ast.AugAssign)):
                return build("unit-mix",
                             f"augmented assignment mixes {left} with {right}")
            return build("unit-mix", f"arithmetic mixes {left} with {right}")
        if event.kind == "assign-mismatch":
            return build(
                "unit-mix",
                f"assignment to '{event.name}' ({left}) from a {right} "
                f"value; a unit conversion is missing")
        if event.kind == "mix-compare":
            return build("unit-compare", f"comparison of {left} with {right}")
        if event.kind == "arg-mismatch":
            return build(
                "unit-arg",
                f"call to {event.name}() passes {right} where parameter "
                f"'{event.param}' expects {left}")
        if event.kind == "return-mismatch":
            return build(
                "unit-return",
                f"{event.name}() returns {right} but its name declares "
                f"{left}")
        if event.kind == "freq-div":
            return build(
                "unit-freq-div",
                f"dividing {left} by {right}: cycles/f gives time, "
                f"time*f gives cycles — time/f is neither")
        return None
