"""Kernel hot-path safety pass.

The trace recorder (:mod:`repro.soc.kernel`) and the array-valued PDN /
microarch helpers it calls are the only code in the tree where per-item
Python overhead is a measured cost and where float evaluation *order* is
a correctness contract (bit-identity with inline recording, see
``docs/KERNEL.md``).  This pass watches exactly those modules for the
three constructs that erode either property:

``kernel-callback``
    A Python-level callable dispatched once per item inside a loop — a
    hoisted bound method (``record = trace.record`` then ``record(...)``
    in the loop) or an indexed callable table (``records[core](...)``).
    Each call re-enters the interpreter per event and blocks any future
    vectorization of that loop.  The replay loop in ``KernelBatch.flush``
    does this *deliberately* (bit-identity requires replaying through
    the exact scalar entry points), so its occurrences live in the
    ratchet baseline: accepted, counted, and not allowed to grow.
``kernel-float-accum``
    Sequential float accumulation in a loop (``total += x``) or via
    builtin ``sum()``.  The result depends on summation order, so any
    reordering — including a later "optimisation" to ``np.sum`` or
    pairwise summation — silently changes the float trajectory the
    verify goldens pin.  Existing sites are baselined for the same
    reason: they intentionally mirror inline recording's order.
``kernel-object-dtype``
    An explicit ``dtype=object`` array.  Object arrays are pointer
    tables: every element access boxes, no lane arithmetic happens, and
    ``astype``/ufunc behaviour stops being IEEE-754.  Never correct on
    the hot path.
"""

from __future__ import annotations

import ast
from typing import List, Set, Tuple

from repro.staticcheck.context import ModuleContext, ProjectContext
from repro.staticcheck.model import Finding, Severity
from repro.staticcheck.registry import Rule, register

#: The modules this pass analyses: the trace recorder itself plus the
#: array-valued helpers on its flush path.  Everything else in the tree
#: is free to use per-item Python.
HOT_PATHS = frozenset({
    "repro/soc/kernel.py",
    "repro/pdn/regulator.py",
    "repro/pdn/loadline.py",
    "repro/pdn/droop.py",
    "repro/microarch/tsc.py",
    "repro/microarch/counters.py",
})


def _is_object_dtype(node: ast.expr) -> bool:
    """Whether an expression names the object dtype."""
    if isinstance(node, ast.Constant) and node.value == "object":
        return True
    if isinstance(node, ast.Name) and node.id == "object":
        return True
    if isinstance(node, ast.Attribute) and node.attr == "object_":
        return True
    return False


@register
class KernelSafetyPass:
    """Flags vectorization and float-order hazards on the kernel path."""

    name = "kernelsafety"
    rules: Tuple[Rule, ...] = (
        Rule("kernel-callback",
             "per-item Python callable dispatched inside a hot-path loop",
             Severity.WARNING,
             "batch the work into one array operation, or baseline the "
             "site if per-item replay is the bit-identity contract"),
        Rule("kernel-float-accum",
             "order-dependent float accumulation in a hot-path loop",
             Severity.WARNING,
             "keep inline recording's summation order (and baseline the "
             "site), or prove the reference path reorders with it"),
        Rule("kernel-object-dtype",
             "object-dtype array on the kernel hot path",
             Severity.ERROR,
             "use a numeric dtype; object arrays box every element and "
             "break IEEE-754 lane arithmetic"),
    )

    def run(self, ctx: ModuleContext,
            project: ProjectContext) -> List[Finding]:
        """Analyse one module if it lies on the kernel hot path."""
        if ctx.path not in HOT_PATHS:
            return []
        visitor = _Visitor(self, ctx)
        visitor.visit(ctx.tree)
        return visitor.findings


class _Visitor(ast.NodeVisitor):
    """Collects kernel-safety findings for one hot-path module."""

    def __init__(self, owner: KernelSafetyPass, ctx: ModuleContext) -> None:
        self.owner = owner
        self.ctx = ctx
        self.findings: List[Finding] = []
        self._rules = {rule.id: rule for rule in owner.rules}
        #: Names bound to a hoisted bound method (``rec = trace.record``).
        self._hoisted: Set[str] = set()
        #: Names bound to a table of callables (list/dict of attributes).
        self._tables: Set[str] = set()
        #: Loop-nesting depth (for/while, not comprehensions).
        self._loop_depth = 0

    def _add(self, rule_id: str, node: ast.AST, message: str) -> None:
        rule = self._rules[rule_id]
        line = getattr(node, "lineno", 0)
        self.findings.append(Finding(
            rule=rule_id, path=self.ctx.path, line=line, message=message,
            source=self.ctx.source_line(line),
            severity=rule.default_severity,
            fix_hint=rule.default_fix_hint))

    # -- binding tracking ----------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        """Track hoisted bound methods and callable tables."""
        value = node.value
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            if isinstance(value, ast.Attribute):
                self._hoisted.add(target.id)
            elif (isinstance(value, (ast.ListComp, ast.List))
                  and self._elements_are_attributes(value)):
                self._tables.add(target.id)
        self.generic_visit(node)

    @staticmethod
    def _elements_are_attributes(value: ast.expr) -> bool:
        """Whether a list literal/comprehension yields attribute lookups."""
        if isinstance(value, ast.ListComp):
            return isinstance(value.elt, ast.Attribute)
        if isinstance(value, ast.List):
            return bool(value.elts) and all(
                isinstance(elt, ast.Attribute) for elt in value.elts)
        return False

    # -- loops ---------------------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        """Descend with the loop-nesting depth bumped."""
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_While = visit_For  # same handling for while loops

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        """Flag ``x += <non-integer>`` inside a loop."""
        if (self._loop_depth > 0 and isinstance(node.op, ast.Add)
                and not self._is_integer_step(node.value)):
            target = node.target
            name = target.id if isinstance(target, ast.Name) else "<target>"
            self._add("kernel-float-accum", node,
                      f"'{name} +=' accumulates sequentially in a loop; "
                      f"the result depends on summation order")
        self.generic_visit(node)

    @staticmethod
    def _is_integer_step(value: ast.expr) -> bool:
        """Whether an increment is provably an int (counter bump)."""
        if isinstance(value, ast.Constant):
            return isinstance(value.value, int)
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            return value.func.id in ("int", "len")
        return False

    # -- calls ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        """Flag per-item callable dispatch, ``sum()`` and object dtypes."""
        func = node.func
        if self._loop_depth > 0:
            if isinstance(func, ast.Name) and func.id in self._hoisted:
                self._add("kernel-callback", node,
                          f"'{func.id}(...)' dispatches a hoisted bound "
                          f"method once per loop item")
            elif (isinstance(func, ast.Subscript)
                  and isinstance(func.value, ast.Name)
                  and func.value.id in self._tables):
                self._add("kernel-callback", node,
                          f"'{func.value.id}[...](...)' dispatches through "
                          f"a callable table once per loop item")
        if isinstance(func, ast.Name) and func.id == "sum" and node.args:
            self._add("kernel-float-accum", node,
                      "builtin sum() accumulates left to right; the result "
                      "depends on operand order")
        for keyword in node.keywords:
            if keyword.arg == "dtype" and _is_object_dtype(keyword.value):
                self._add("kernel-object-dtype", keyword.value,
                          "dtype=object defeats lane arithmetic on the "
                          "kernel hot path")
        self.generic_visit(node)
