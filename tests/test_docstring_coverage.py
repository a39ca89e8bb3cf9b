"""Docstring coverage: the repo's one docstring gate.

Checked with ``ast`` alone, so it needs no extra dependency: every
module, every public class, and every public function/method under
``src/repro`` must carry a docstring.
"""

import ast
import os

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "repro")


def iter_source_files():
    """Every ``.py`` file under ``src/repro``, repo-relative."""
    for dirpath, _, filenames in os.walk(SRC_ROOT):
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def iter_definitions(path):
    """(qualname, node, is_public, is_overload) for docstring targets.

    Targets are the module itself, classes, and functions/methods —
    nested functions (closures) are implementation detail and skipped.
    """
    tree = ast.parse(open(path, encoding="utf-8").read(), filename=path)
    rel = os.path.relpath(path, SRC_ROOT)
    yield rel, tree, True

    def walk(node, prefix, parent_public):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                public = parent_public and not child.name.startswith("_")
                yield name, child, public
                if isinstance(child, ast.ClassDef):
                    yield from walk(child, name, public)
                # function bodies are not descended into: closures are
                # not part of the documented surface

    yield from walk(tree, rel, True)


def has_docstring(node):
    """True when the node's first statement is a string literal."""
    return ast.get_docstring(node) is not None


def collect():
    """(total, documented, missing) over the counted (public) surface.

    Private defs (and anything nested under a private parent), magic
    methods and ``__init__`` are not counted.
    """
    total = 0
    documented = 0
    missing = []
    for path in iter_source_files():
        for qualname, node, public in iter_definitions(path):
            last = qualname.rsplit(".", 1)[-1]
            if not public or (last.startswith("__") and last.endswith("__")):
                continue
            total += 1
            if has_docstring(node):
                documented += 1
            else:
                missing.append(qualname)
    return total, documented, missing


def test_public_surface_fully_documented():
    """Every public module/class/function under src/repro has a docstring."""
    total, _, missing = collect()
    assert total > 500, "AST walk found suspiciously few definitions"
    assert not missing, (
        f"{len(missing)} undocumented public definitions: {missing[:20]}")
