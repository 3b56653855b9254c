"""The public surface holds only what a user or the program itself reaches:
every name `distcov.__all__` exports is used outside the tests."""

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
