"""Every name a bcmdiag module imports is used in it: an ``ast`` scan,
since no linter is installed.  A name counts as used where the module
reads it, names it in a quoted annotation, or lists it in ``__all__``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bcmdiag"
MODULES = sorted(SRC.rglob("*.py"))


def _quoted_names(annotation):
    """The names inside an annotation's strings, as in ``list["Controller"]``."""
    for node in ast.walk(annotation) if annotation is not None else ():
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for name in ast.walk(ast.parse(node.value, mode="eval")):
                if isinstance(name, ast.Name):
                    yield name.id


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            annotation = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            used.update(_quoted_names(annotation))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_the_scan_sees_what_it_must():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path, re as regex\n"
        "from typing import TYPE_CHECKING, Callable\n"
        "from .a import Exported, Quoted, Dead\n"
        "__all__ = ['Exported']\n"
        "def f(x: list['Quoted']) -> Callable:\n"
        "    'Dead'\n"
        "    return os.sep if TYPE_CHECKING else x\n"
    )
    assert unused_imports(source) == ["Dead (line 4)", "regex (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text("utf-8")) == []
