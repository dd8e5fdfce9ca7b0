"""Offline unused-import check over the repository's Python files.

CI lints with ``ruff check``, whose pyflakes rules include unused
imports (F401).  This test applies that one rule with :mod:`ast` alone,
so it runs wherever the test suite runs.  An imported name counts as
used when an expression names it, when ``__all__`` lists it, or when a
string annotation mentions it.  ``__init__.py`` files are skipped (their
imports are re-exports), and so are ``from __future__`` imports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src/repro", "tests", "benchmarks", "examples")


def _imported(tree):
    """``(name, line)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _strings(node):
    return [
        sub.value
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    ]


def _referenced(tree):
    """Every name the module refers to."""
    names = set()
    annotation_text = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            ):
                names.update(_strings(node.value))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        else:
            annotation = None
        if annotation is not None:
            annotation_text.extend(_strings(annotation))
    for text in annotation_text:
        try:
            expr = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def unused_imports(source: str):
    """``(name, line)`` of each imported name ``source`` never uses."""
    tree = ast.parse(source)
    used = _referenced(tree)
    return sorted(
        (name, line) for name, line in _imported(tree) if name not in used
    )


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import List, Optional\n"
        "from json import dumps as to_json, loads\n"
        "__all__ = ['loads']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return os.path.join(str(x))\n"
    )
    assert unused_imports(source) == [("List", 3), ("to_json", 4)]


def test_no_unused_imports():
    found = []
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for name, line in unused_imports(path.read_text()):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)
