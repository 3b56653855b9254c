"""The public surface holds only what a user or the program itself reaches:
every name `distcov.__all__` exports is used outside the tests. And every
Python file of the repository parses as Python 3.10, the oldest version CI
tests, and reads no name that Python 3.11 added."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import distcov

ROOT = Path(__file__).resolve().parents[1]


def _python_names(path: Path) -> set[str]:
    """The names a Python file reads: bare names, attributes and imports.
    A definition's own name and a string such as an `__all__` entry are
    not among them."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_exported_name_is_used_outside_the_tests():
    sources = [p for p in (ROOT / "src" / "distcov").glob("*.py") if p.name != "__init__.py"]
    used = set().union(*map(_python_names, [*sources, *(ROOT / "perfbench").glob("*.py")]))
    # README words, whole: `_hjoin` is not `hjoin`.
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    exported = {n for n in distcov.__all__ if not (n.startswith("__") and n.endswith("__"))}
    assert sorted(exported - used) == []


# Names Python 3.11 added, which Python 3.10 lacks.
_NEW_IN_3_11 = {"tomllib", "typing.Self", "enum.StrEnum", "ExceptionGroup", "BaseExceptionGroup"}


def _imports_and_reads(tree: ast.AST) -> set[str]:
    """Every module and `module.name` a tree imports, every bare name it
    reads and every `name.attribute` it reads off a bare name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def test_every_python_file_parses_as_python_3_10():
    # The 3.10 grammar refuses `except*`; the names 3.11 added are refused here.
    dirs = ("src", "tests", "perfbench", "tools")
    paths = sorted(p for d in dirs for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        assert sorted(_imports_and_reads(tree) & _NEW_IN_3_11) == [], path
