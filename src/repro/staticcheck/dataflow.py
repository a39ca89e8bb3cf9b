"""Unit-tag algebra and the lightweight intra-function dataflow layer.

The simulator's unit system (``repro.units``) is coherent — ns, GHz, V,
A, nF — precisely so that the physics needs no conversion factors.  The
flip side is that nothing in the type system distinguishes a ``float``
of nanoseconds from a ``float`` of microseconds; a dropped ``us_to_ns``
is silent until a guardband is 1000x too long.

This module gives identifiers back their units:

* :func:`tag_of_identifier` infers a :class:`UnitTag` from naming
  conventions (``_ns``/``_us``/``_ghz``/``vcc``/``icc``/... suffix
  components; names containing ``per`` are compound units and stay
  untagged);
* :func:`scan_function` runs a single forward pass over one function
  body, propagating tags through assignments, calls (via the project
  signature table and the ``<src>_to_<dst>`` converter convention) and
  returns, and records :class:`Event` s — unit-mixing arithmetic,
  mismatched call arguments, conversions dropped on assignment — for
  the dimensional pass to turn into findings.

The dataflow is deliberately conservative: an unknown tag on either
side of an operation silences the check, so only provably-conflicting
code is reported.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.staticcheck.context import ProjectContext

#: Scale keyword -> dimension group.
_SCALE_GROUP: Dict[str, str] = {
    "ns": "time", "us": "time", "ms": "time", "s": "time",
    "ghz": "freq", "mhz": "freq", "khz": "freq", "hz": "freq",
    "v": "volt", "mv": "volt",
    "a": "current", "ma": "current",
    "nf": "capacitance", "pf": "capacitance",
    "ohm": "resistance", "mohm": "resistance",
    "w": "power", "mw": "power",
    "c": "temp", "degc": "temp",
    "cycles": "cycles",
    "bits": "bits",
}

#: Scales that are a single letter: matched only in constrained
#: positions (first or last component of a multi-part name) because a
#: lone ``s`` or ``v`` component is too easy to collide with.
_SINGLE_LETTER = frozenset({"s", "v", "a", "w", "c"})

#: Word components that imply a group (and sometimes the coherent
#: scale) without being a unit suffix themselves.
_WORD_TAGS: Dict[str, "UnitTag"] = {}


@dataclass(frozen=True)
class UnitTag:
    """A dimension group plus an optional concrete scale within it."""

    group: str
    scale: Optional[str] = None

    @classmethod
    def from_scale(cls, scale: str) -> "UnitTag":
        """The tag for one scale keyword (``ns`` -> time/ns)."""
        return cls(_SCALE_GROUP[scale], scale)

    def conflicts(self, other: "UnitTag") -> bool:
        """True when mixing the two tags is dimensionally wrong.

        Different groups always conflict; within a group, two *known*
        scales conflict when they differ (adding us to ns is exactly the
        dropped-conversion bug this layer exists to catch).
        """
        if self.group != other.group:
            return True
        return (self.scale is not None and other.scale is not None
                and self.scale != other.scale)

    def label(self) -> str:
        """Human-readable rendering, e.g. ``ns`` or ``time``."""
        return self.scale if self.scale is not None else self.group


_WORD_TAGS.update({
    "vcc": UnitTag("volt", "v"),
    "vdd": UnitTag("volt", "v"),
    "volt": UnitTag("volt", "v"),
    "volts": UnitTag("volt", "v"),
    "voltage": UnitTag("volt", "v"),
    "icc": UnitTag("current", "a"),
    "amp": UnitTag("current", "a"),
    "amps": UnitTag("current", "a"),
    "watts": UnitTag("power", "w"),
    "cdyn": UnitTag("capacitance", "nf"),
    "freq": UnitTag("freq", None),
    "frequency": UnitTag("freq", None),
    "temp": UnitTag("temp", "degc"),
    "temperature": UnitTag("temp", "degc"),
})

#: Bare names treated as generic simulated-time values (group known,
#: scale unknown, so they never conflict with a concrete time scale).
_GENERIC_TIME_NAMES = frozenset({"t", "t0", "t1", "dt"})

#: :mod:`repro.units` helpers whose return scale is not derivable from
#: the name by suffix scanning (``ns_for_cycles`` returns ns, but the
#: reverse component scan would read ``cycles``).
BUILTIN_RETURN_SCALES: Dict[str, Optional[str]] = {
    "dynamic_current": "a",
    "dynamic_power": "w",
    "cycles_at": "cycles",
    "ns_for_cycles": "ns",
    "bits_per_second": None,
}


def return_tag_of(name: str) -> Optional["UnitTag"]:
    """The unit tag a function named ``name`` is declared to return."""
    if name in BUILTIN_RETURN_SCALES:
        scale = BUILTIN_RETURN_SCALES[name]
        return UnitTag.from_scale(scale) if scale else None
    return tag_of_identifier(name)


def tag_of_identifier(name: str) -> Optional[UnitTag]:
    """Infer a unit tag from an identifier's naming convention.

    Components are the lowercased ``_``-separated parts; they are
    scanned from the end so ``idle_close_us`` reads as microseconds.
    Names containing a ``per`` component (``slew_mv_per_us``,
    ``r_th_c_per_w``) are compound units and stay untagged.
    """
    if not name:
        return None
    components = [c for c in name.lower().split("_") if c]
    if not components or "per" in components:
        return None
    if len(components) == 1 and components[0] in _GENERIC_TIME_NAMES:
        return UnitTag("time", None)
    for index in range(len(components) - 1, -1, -1):
        component = components[index]
        if component in _SCALE_GROUP:
            if component in _SINGLE_LETTER:
                # Single letters only bind as a clear prefix or suffix
                # of a multi-part name (``rail_v``, ``tau_s``, ``v_now``).
                if len(components) < 2 or index not in (0, len(components) - 1):
                    continue
            return UnitTag.from_scale(component)
        if component in _WORD_TAGS:
            return _WORD_TAGS[component]
    return None


@dataclass(frozen=True)
class Event:
    """One dataflow observation the dimensional pass reports on.

    ``kind`` is one of ``mix-arith``, ``mix-compare``, ``freq-div``,
    ``arg-mismatch``, ``assign-mismatch`` and ``return-mismatch``.
    """

    kind: str
    node: ast.AST
    left: Optional[UnitTag] = None
    right: Optional[UnitTag] = None
    #: Callee / target / function name, depending on kind.
    name: str = ""
    #: Parameter name for ``arg-mismatch`` events.
    param: str = ""


def _converter_tags(name: str) -> Optional[tuple]:
    """(arg_tag, return_tag) for ``<src>_to_<dst>`` converter names."""
    if "_to_" not in name:
        return None
    src, _, dst = name.partition("_to_")
    if src in _SCALE_GROUP and dst in _SCALE_GROUP:
        return UnitTag.from_scale(src), UnitTag.from_scale(dst)
    return None


def _is_constant_number(node: ast.AST) -> bool:
    """Whether a node is a bare numeric literal (possibly signed)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (int, float))


class _Scanner:
    """Expression/statement walker maintaining one unit environment."""

    _BARRIER = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def __init__(self, project: "ProjectContext") -> None:
        self.project = project
        self.env: Dict[str, Optional[UnitTag]] = {}
        self.events: List[Event] = []

    # -- expression tagging -------------------------------------------------

    def tag(self, node: Optional[ast.AST]) -> Optional[UnitTag]:
        """The unit tag of an expression, recording events on the way."""
        if node is None or isinstance(node, ast.Constant):
            return None
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return tag_of_identifier(node.id)
        if isinstance(node, ast.Attribute):
            self.tag(node.value)
            return tag_of_identifier(node.attr)
        if isinstance(node, ast.Subscript):
            self.tag(node.slice)
            base = node.value
            if isinstance(base, ast.Name):
                return tag_of_identifier(base.id)
            if isinstance(base, ast.Attribute):
                return tag_of_identifier(base.attr)
            return self.tag(base)
        if isinstance(node, ast.UnaryOp):
            return self.tag(node.operand)
        if isinstance(node, ast.BinOp):
            return self._tag_binop(node)
        if isinstance(node, ast.Compare):
            self._tag_compare(node)
            return None
        if isinstance(node, ast.Call):
            return self._tag_call(node)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.tag(value)
            return None
        if isinstance(node, ast.IfExp):
            self.tag(node.test)
            body = self.tag(node.body)
            orelse = self.tag(node.orelse)
            return body if body is not None else orelse
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            for elt in node.elts:
                self.tag(elt)
            return None
        if isinstance(node, ast.Dict):
            for key in node.keys:
                self.tag(key)
            for value in node.values:
                self.tag(value)
            return None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for gen in node.generators:
                self.tag(gen.iter)
                for cond in gen.ifs:
                    self.tag(cond)
            self.tag(node.elt)
            return None
        if isinstance(node, ast.DictComp):
            for gen in node.generators:
                self.tag(gen.iter)
            self.tag(node.key)
            self.tag(node.value)
            return None
        if isinstance(node, ast.Starred):
            return self.tag(node.value)
        # Lambdas, f-strings, awaits, etc: no unit information.
        return None

    def _tag_binop(self, node: ast.BinOp) -> Optional[UnitTag]:
        left = self.tag(node.left)
        right = self.tag(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if left is not None and right is not None:
                if left.conflicts(right):
                    self.events.append(Event("mix-arith", node, left, right))
                    return None
                return UnitTag(left.group,
                               left.scale if left.scale is not None
                               else right.scale)
            return left if left is not None else right
        if isinstance(node.op, ast.Mult):
            if _is_constant_number(node.left) or _is_constant_number(node.right):
                return None  # explicit scaling changes the unit
            tags = {left, right}
            if UnitTag("time", "ns") in tags and UnitTag("freq", "ghz") in tags:
                return UnitTag("cycles", "cycles")
            return None
        if isinstance(node.op, ast.Div):
            if left is not None and right is not None:
                if left == UnitTag("cycles", "cycles") and right.group == "freq":
                    return UnitTag("time", "ns") if right.scale == "ghz" else None
                if left.group == "time" and right.group == "freq":
                    self.events.append(Event("freq-div", node, left, right))
                    return None
            return None
        return None

    def _tag_compare(self, node: ast.Compare) -> None:
        sides = [node.left] + list(node.comparators)
        tags = [self.tag(side) for side in sides]
        for (a, b) in zip(tags, tags[1:]):
            if a is not None and b is not None and a.conflicts(b):
                self.events.append(Event("mix-compare", node, a, b))

    def _tag_call(self, node: ast.Call) -> Optional[UnitTag]:
        for arg in node.args:
            self.tag(arg)
        for kw in node.keywords:
            self.tag(kw.value)
        func = node.func
        name = ""
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            self.tag(func.value)
            name = func.attr
        if not name:
            return None
        if name in ("abs", "min", "max", "round", "float"):
            tags = [self.tag(arg) for arg in node.args]
            known = [t for t in tags if t is not None]
            for (a, b) in zip(known, known[1:]):
                if a.conflicts(b):
                    self.events.append(Event("mix-arith", node, a, b,
                                             name=name))
            return known[0] if known else None
        converter = _converter_tags(name)
        if converter is not None:
            expected, returned = converter
            if len(node.args) == 1:
                actual = self.tag(node.args[0])
                if actual is not None and actual.conflicts(expected):
                    self.events.append(Event(
                        "arg-mismatch", node, expected, actual,
                        name=name, param=name.partition("_to_")[0]))
            return returned
        sig = self.project.signature(name)
        if sig is None:
            return None
        for position, arg in enumerate(node.args):
            if position >= len(sig.params) or isinstance(arg, ast.Starred):
                break
            expected = sig.param_tags[position]
            actual = self.tag(arg)
            if (expected is not None and actual is not None
                    and actual.conflicts(expected)):
                self.events.append(Event(
                    "arg-mismatch", node, expected, actual,
                    name=name, param=sig.params[position]))
        for kw in node.keywords:
            if kw.arg is None or kw.arg not in sig.params:
                continue
            expected = sig.param_tags[sig.params.index(kw.arg)]
            actual = self.tag(kw.value)
            if (expected is not None and actual is not None
                    and actual.conflicts(expected)):
                self.events.append(Event(
                    "arg-mismatch", node, expected, actual,
                    name=name, param=kw.arg))
        return sig.return_tag

    # -- statement transfer -------------------------------------------------

    def run(self, fn: ast.AST) -> List[Event]:
        """Scan one function body; returns the recorded events."""
        assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = list(fn.args.posonlyargs) + list(fn.args.args) + \
            list(fn.args.kwonlyargs)
        for arg in args:
            if arg.arg in ("self", "cls"):
                continue
            self.env[arg.arg] = tag_of_identifier(arg.arg)
        return_tag = return_tag_of(fn.name)
        self._walk_body(fn.body, fn.name, return_tag)
        return self.events

    def _walk_body(self, body: Sequence[ast.stmt], fn_name: str,
                   return_tag: Optional[UnitTag]) -> None:
        for stmt in body:
            self._walk_stmt(stmt, fn_name, return_tag)

    def _walk_stmt(self, stmt: ast.stmt, fn_name: str,
                   return_tag: Optional[UnitTag]) -> None:
        if isinstance(stmt, self._BARRIER):
            return  # nested scopes are scanned independently
        if isinstance(stmt, ast.Assign):
            value_tag = self.tag(stmt.value)
            if len(stmt.targets) == 1:
                self._bind(stmt.targets[0], value_tag, stmt)
            else:
                for target in stmt.targets:
                    self._bind(target, value_tag, stmt)
            return
        if isinstance(stmt, ast.AnnAssign):
            value_tag = self.tag(stmt.value) if stmt.value is not None else None
            self._bind(stmt.target, value_tag, stmt)
            return
        if isinstance(stmt, ast.AugAssign):
            value_tag = self.tag(stmt.value)
            target_tag = self.tag(stmt.target)
            if (isinstance(stmt.op, (ast.Add, ast.Sub))
                    and target_tag is not None and value_tag is not None
                    and target_tag.conflicts(value_tag)):
                self.events.append(Event("mix-arith", stmt, target_tag,
                                         value_tag))
            return
        if isinstance(stmt, ast.Return):
            value_tag = self.tag(stmt.value)
            if (return_tag is not None and value_tag is not None
                    and value_tag.conflicts(return_tag)):
                self.events.append(Event("return-mismatch", stmt, return_tag,
                                         value_tag, name=fn_name))
            return
        if isinstance(stmt, ast.Expr):
            self.tag(stmt.value)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self.tag(stmt.test)
            self._walk_body(stmt.body, fn_name, return_tag)
            self._walk_body(stmt.orelse, fn_name, return_tag)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.tag(stmt.iter)
            for leaf in ast.walk(stmt.target):
                if isinstance(leaf, ast.Name):
                    self.env[leaf.id] = None
            self._walk_body(stmt.body, fn_name, return_tag)
            self._walk_body(stmt.orelse, fn_name, return_tag)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.tag(item.context_expr)
            self._walk_body(stmt.body, fn_name, return_tag)
            return
        if isinstance(stmt, ast.Try):
            self._walk_body(stmt.body, fn_name, return_tag)
            for handler in stmt.handlers:
                self._walk_body(handler.body, fn_name, return_tag)
            self._walk_body(stmt.orelse, fn_name, return_tag)
            self._walk_body(stmt.finalbody, fn_name, return_tag)
            return
        if isinstance(stmt, ast.Assert):
            self.tag(stmt.test)
            return
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.tag(stmt.exc)
            return
        # pass/break/continue/import/global/nonlocal/delete: nothing to do.

    def _bind(self, target: ast.expr, value_tag: Optional[UnitTag],
              stmt: ast.stmt) -> None:
        """Bind one assignment target, checking declared-vs-value units."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, None, stmt)
            return
        name = ""
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        elif isinstance(target, ast.Subscript):
            self.tag(target)
            return
        if not name:
            return
        declared = tag_of_identifier(name)
        if (declared is not None and value_tag is not None
                and declared.scale is not None
                and declared.conflicts(value_tag)):
            self.events.append(Event("assign-mismatch", stmt, declared,
                                     value_tag, name=name))
        if isinstance(target, ast.Name):
            self.env[name] = declared if declared is not None else value_tag


def scan_function(fn: ast.AST, project: "ProjectContext") -> List[Event]:
    """Run the unit dataflow over one function definition."""
    scanner = _Scanner(project)
    return scanner.run(fn)


@dataclass
class LocalBindings:
    """Per-function name classification used by the determinism pass.

    A second, much simpler dataflow: which local names are bound to
    freshly-built sets (for the unordered-iteration rule).
    """

    sets: Dict[str, ast.AST] = field(default_factory=dict)


def local_bindings(fn: ast.AST) -> LocalBindings:
    """Classify the local bindings of one function body."""
    bindings = LocalBindings()
    body = getattr(fn, "body", [])
    for stmt in body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name) and _is_set_expr(stmt.value):
                bindings.sets[target.id] = stmt.value
    return bindings


def _is_set_expr(node: ast.AST) -> bool:
    """Whether an expression clearly builds an (unordered) set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))
