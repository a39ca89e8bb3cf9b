"""API-hygiene pass.

Two rules kept with their original ids and messages, so existing
waivers keep working:

``float-eq``
    Bare ``==``/``!=`` between physical quantities (voltages, times,
    frequencies, temperatures — identified by name components), or
    between a physical quantity and a float literal.  Exact float
    comparison on derived physics is how silent guardband drift hides.
``mutable-default``
    Mutable default arguments (``def f(x=[])``) — shared state across
    calls is both a bug magnet and a determinism leak.

Two documentation rules new to the framework.  Their severity *note*
is only the level their SARIF results carry; it does not exempt them
from the gate: like every other finding, an unwaived one fails the run.

``missing-hints``
    A public function or method with unannotated parameters or return.
``missing-doc``
    A public module, class, function or method without a docstring.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from repro.staticcheck.context import ModuleContext, ProjectContext
from repro.staticcheck.model import Finding, Severity
from repro.staticcheck.registry import Pass, Rule, register

#: Identifier components marking a value as a physical quantity for the
#: float-eq rule.  Identifiers are split on underscores and lowercased,
#: so ``vcc_start_mv`` has components {vcc, start, mv}.
PHYSICAL_COMPONENTS = frozenset({
    "vcc", "vdd", "volt", "volts", "voltage", "mv", "icc", "amp", "amps",
    "current", "temp", "temperature", "time", "times", "t", "t0", "t1",
    "ns", "us", "ms", "ghz", "mhz", "hz", "freq", "frequency",
})


def _identifier_of(node: ast.AST) -> str:
    """The identifier a comparison side 'is about', or empty string."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        return _identifier_of(node.value)
    if isinstance(node, ast.Call):
        return _identifier_of(node.func)
    if isinstance(node, ast.UnaryOp):
        return _identifier_of(node.operand)
    return ""


def _is_physical(node: ast.AST) -> bool:
    """Whether a comparison side names a physical quantity."""
    identifier = _identifier_of(node)
    if not identifier:
        return False
    components = identifier.lower().split("_")
    return any(component in PHYSICAL_COMPONENTS for component in components)


def _is_float_literal(node: ast.AST) -> bool:
    """Whether a node is a float constant (possibly negated)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _is_public(name: str) -> bool:
    """Public = no leading underscore.

    Dunder methods (``__init__``, ``__len__``) are exempt: their
    contract is defined by the language, not the docstring.
    """
    return not name.startswith("_")


@register
class HygienePass:
    """Flags API-hygiene problems: float equality, mutable defaults,
    missing annotations and docstrings."""

    name = "hygiene"
    rules: Tuple[Rule, ...] = (
        Rule("float-eq",
             "bare float equality on a physical quantity",
             Severity.WARNING,
             "compare with an epsilon (math.isclose) or restructure to "
             "avoid exact comparison"),
        Rule("mutable-default",
             "mutable default argument",
             Severity.WARNING,
             "default to None and create the object inside the "
             "function body"),
        Rule("missing-hints",
             "public callable without complete type hints",
             Severity.NOTE,
             "annotate every parameter and the return type"),
        Rule("missing-doc",
             "public API without a docstring",
             Severity.NOTE,
             "add a one-line docstring saying what it does"),
    )

    def run(self, ctx: ModuleContext,
            project: ProjectContext) -> List[Finding]:
        """Visit the module tree with every hygiene rule armed."""
        visitor = _Visitor(self, ctx)
        if ast.get_docstring(ctx.tree) is None and ctx.tree.body:
            visitor.add("missing-doc", ctx.tree.body[0],
                        "module has no docstring")
        visitor.visit(ctx.tree)
        return visitor.findings


class _Visitor(ast.NodeVisitor):
    """Collects hygiene findings for one module."""

    def __init__(self, owner: HygienePass, ctx: ModuleContext) -> None:
        self.owner = owner
        self.ctx = ctx
        self.findings: List[Finding] = []
        self._rules = {rule.id: rule for rule in owner.rules}
        #: How many function definitions we are currently inside; a def
        #: nested in another def is a local helper, not public API.
        self._function_depth = 0

    def add(self, rule_id: str, node: ast.AST, message: str) -> None:
        """Record one finding at ``node``'s line."""
        rule = self._rules[rule_id]
        line = getattr(node, "lineno", 0)
        self.findings.append(Finding(
            rule=rule_id, path=self.ctx.path, line=line, message=message,
            source=self.ctx.source_line(line),
            severity=rule.default_severity,
            fix_hint=rule.default_fix_hint))

    # -- comparisons: float-eq ----------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        """Apply the float-eq rule to one comparison."""
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            sides = [node.left] + list(node.comparators)
            physical = [side for side in sides if _is_physical(side)]
            floats = [side for side in sides if _is_float_literal(side)]
            if physical and (floats or len(physical) >= 2):
                identifier = _identifier_of(physical[0]) or "quantity"
                self.add("float-eq", node,
                         f"bare float equality on physical quantity "
                         f"'{identifier}'; compare with an epsilon")
        self.generic_visit(node)

    # -- classes: missing-doc -----------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        """Apply the docstring rule to one class definition."""
        if _is_public(node.name) and ast.get_docstring(node) is None:
            self.add("missing-doc", node,
                     f"public class {node.name} has no docstring")
        self.generic_visit(node)

    # -- function definitions -----------------------------------------------

    def _check_defaults(self, node) -> None:
        """Apply the mutable-default rule to one function signature."""
        defaults = list(node.args.defaults)
        defaults += [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set,
                                           ast.ListComp, ast.DictComp,
                                           ast.SetComp))
            if (isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set",
                                            "bytearray")):
                mutable = True
            if mutable:
                self.add("mutable-default", default,
                         f"mutable default argument in {node.name}()")

    def _check_hints_and_doc(self, node) -> None:
        """Apply missing-hints/missing-doc to one public callable."""
        if not _is_public(node.name) or self._function_depth > 0:
            return
        if ast.get_docstring(node) is None:
            self.add("missing-doc", node,
                     f"public function {node.name}() has no docstring")
        args = (list(node.args.posonlyargs) + list(node.args.args)
                + list(node.args.kwonlyargs))
        if args and args[0].arg in ("self", "cls"):
            args = args[1:]
        missing = [a.arg for a in args if a.annotation is None]
        if node.returns is None:
            missing.append("return")
        if missing:
            self.add("missing-hints", node,
                     f"{node.name}() is missing annotations for: "
                     f"{', '.join(missing)}")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Check one function definition's defaults, hints and doc."""
        self._check_defaults(node)
        self._check_hints_and_doc(node)
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Async variant of :meth:`visit_FunctionDef`."""
        self._check_defaults(node)
        self._check_hints_and_doc(node)
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1
