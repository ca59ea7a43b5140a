"""Every name a bcmdiag module imports, and every private name it
defines at module level, is used in it: an ``ast`` scan, since no linter
is installed.  A name counts as used where the module reads it, names it
in a quoted annotation, or lists it in ``__all__``.  No module takes
another module's private (``_``-prefixed) name, and each function and
class is named by code in bcmdiag or perfbench."""

import ast
import os
import subprocess
import sys
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


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            annotation = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            used.update(_quoted_names(annotation))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _used_names(tree)
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def unread_private_names(source: str) -> list[str]:
    """Module-level functions, classes and assignments whose names start
    with one underscore and that the module itself never reads."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    used = _used_names(tree)
    return [
        f"{name} (line {line})"
        for name, line in sorted(defined.items())
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]


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


def test_the_private_name_scan_sees_what_it_must():
    source = (
        "import struct\n"
        "_USED, _DEAD_PAIR = 1, 2\n"
        "_dead_table: dict = {}\n"
        "__version__ = '1'\n"
        "Public = 3\n"
        "def _helper(): return _USED\n"
        "def _dead(): pass\n"
        "class _Dead: pass\n"
        "def f(x: '_Quoted') -> None: return _helper()\n"
        "class _Quoted: pass\n"
    )
    assert unread_private_names(source) == [
        "_DEAD_PAIR (line 2)", "_Dead (line 8)", "_dead (line 7)", "_dead_table (line 3)"
    ]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unread_private_name(path):
    assert unread_private_names(path.read_text("utf-8")) == []


def private_imports(source: str) -> list[str]:
    """Another module's ``_``-prefixed names that the source takes: by
    ``from m import _name``, or as ``m._name`` where ``import m`` or
    ``from . import m`` bound ``m``."""
    tree = ast.parse(source)
    modules: set[str] = set()
    taken: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    taken.append(f"{alias.name} (line {node.lineno})")
                if node.module is None:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            taken.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return taken


def test_the_private_import_scan_sees_what_it_must():
    source = (
        "from __future__ import annotations\n"
        "import os.path, struct as st\n"
        "from . import h4\n"
        "from .h4 import _FRAMING, SNIFF_PREFIX\n"
        "from .diag import TestParams\n"
        "def f(session):\n"
        "    return h4._decode, st._clearcache, os._exit, h4.__name__, session._pump\n"
        "def g():\n"
        "    return TestParams._fields\n"
    )
    assert private_imports(source) == [
        "_FRAMING (line 4)", "h4._decode (line 7)", "st._clearcache (line 7)", "os._exit (line 7)"
    ]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_module_takes_another_modules_private_name(path):
    assert private_imports(path.read_text("utf-8")) == []


PERFBENCH = SRC.parent.parent / "perfbench"


def unreferenced_definitions(
    sources: dict[str, str], readers: list[str], exempt: set[str]
) -> list[str]:
    """Functions and classes, at any depth of ``sources`` (label ->
    source), that no source and no reader names: as a name, an attribute
    or an import alias.  Comments and strings do not count.  Dunders,
    ``_cmd_*`` methods (reached through ``getattr``) and ``exempt`` names
    are left out."""
    trees = {label: ast.parse(source) for label, source in sources.items()}
    defined: dict[str, str] = {}
    for label, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{node.name} ({label}:{node.lineno})")
    referenced: set[str] = set()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.update(node.name.split("."))
    return sorted(
        where for name, where in defined.items()
        if name not in referenced and name not in exempt
        and not (name.startswith("__") and name.endswith("__")) and not name.startswith("_cmd_")
    )


def test_the_reference_scan_sees_what_it_must():
    sources = {
        "a.py": (
            "from .b import imported\n"
            "class Shell:\n"
            "    def __init__(self): pass\n"
            "    def _cmd_version(self): pass\n"
            "    def run(self): return self.helper()\n"
            "    def helper(self): pass\n"
            "    def dead_method(self): pass  # dead_method\n"
            "def outer():\n"
            "    def inner(): pass\n"
            "    return 'inner'\n"
            "def Public(): pass\n"
        ),
        "b.py": "def imported(): pass\ndef by_reader(): pass\ndef dead(): pass\n",
    }
    readers = ["from a import outer\nShell().run(by_reader)\n"]
    assert unreferenced_definitions(sources, readers, {"Public"}) == [
        "dead (b.py:3)", "dead_method (a.py:7)", "inner (a.py:9)",
    ]


def test_every_definition_is_referenced_by_the_tools():
    """What ``src/bcmdiag`` defines is run by ``src/bcmdiag`` or by
    ``perfbench``: the public names aside, none is there for tests."""
    import bcmdiag
    import bcmdiag.emulator

    sources = {str(p.relative_to(SRC)): p.read_text("utf-8") for p in MODULES}
    readers = [p.read_text("utf-8") for p in sorted(PERFBENCH.glob("*.py"))]
    exempt = {*bcmdiag.__all__, *bcmdiag.emulator.__all__}
    assert unreferenced_definitions(sources, readers, exempt) == []


# The client's own modules.  The emulator loads none of them at start-up,
# and they load no emulator module, so each side compiles only its code.
CLIENT_MODULES = ("bcmdiag.session", "bcmdiag.commands", "bcmdiag.capture", "bcmdiag.cli")


def loaded_at_import(source: str, package: str) -> set[str]:
    """Every dotted name that may be a module which the source's imports
    load when it is imported: all imports but those inside a function or
    under ``if TYPE_CHECKING``.  Relative imports resolve against
    ``package``, and ``from m import n`` gives both ``m`` and ``m.n``."""
    found: set[str] = set()

    def visit(nodes) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
                visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1] if node.level else [])
                module = ".".join(p for p in (base, node.module) if p)
                found.add(module)
                found.update(f"{module}.{alias.name}" for alias in node.names)
            visit(ast.iter_child_nodes(node))

    visit(ast.parse(source).body)
    return found


def test_the_boundary_scan_sees_what_it_must():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import bcmdiag.cli\n"
        "from .. import capture\n"
        "from .controller import Controller\n"
        "if TYPE_CHECKING:\n"
        "    from ..session import Hidden\n"
        "else:\n"
        "    from ..h4 import H4Frame\n"
        "class C:\n"
        "    from bcmdiag import diag\n"
        "def f():\n"
        "    from ..session import LocalSession\n"
    )
    assert loaded_at_import(source, "bcmdiag.emulator") == {
        "typing", "typing.TYPE_CHECKING", "bcmdiag.cli", "bcmdiag", "bcmdiag.capture",
        "bcmdiag.emulator.controller", "bcmdiag.emulator.controller.Controller",
        "bcmdiag.h4", "bcmdiag.h4.H4Frame", "bcmdiag.diag",
    }


def _within(name: str, modules) -> bool:
    return any(name == m or name.startswith(m + ".") for m in modules)


def test_emulator_and_client_load_each_other_only_lazily():
    """No module but the client's own loads a client module when it is
    imported, and no client module loads an emulator module: the emulator
    may import the client's session only inside the function that runs a
    scenario's command lines."""
    crossings = []
    for path in MODULES:
        parts = ("bcmdiag", *path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        name = ".".join(parts)
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        forbidden = ("bcmdiag.emulator",) if name in CLIENT_MODULES else CLIENT_MODULES
        crossings += [
            f"{name} loads {loaded}"
            for loaded in sorted(loaded_at_import(path.read_text("utf-8"), package))
            if _within(loaded, forbidden)
        ]
    assert crossings == []


# The transient heap one module's compile() may take, when the emulator
# loads it at start-up: every start compiles the sources again (no
# bytecode is written), so the largest compile sets the emulator's peak.
# The largest are diag.py, controller.py and commands.py (which a scenario
# with command lines loads), 1.02-1.05 MiB each.
COMPILE_PEAK_MAX = int(1.2 * 2**20)
# The same for the client's start.  Its largest modules are diag.py and
# commands.py; session.py took 1.41 MiB before the vocabulary moved out
# of it, and past 4,096 parser tokens a module's token array doubles.
CLIENT_COMPILE_PEAK_MAX = int(1.6 * 2**20)

_COMPILE_PEAKS = """
import sys, tracemalloc
import {modules}
for name, module in sorted(sys.modules.items()):
    if name.partition(".")[0] != "bcmdiag" or module.__file__ is None:
        continue  # another package's, or a data folder's: no source
    with open(module.__file__, encoding="utf-8") as fh:
        source = fh.read()
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        compile(source, module.__file__, "exec")
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    print(name, min(peaks))
"""


def compile_peaks(*modules: str) -> dict[str, int]:
    """Each bcmdiag module that importing ``modules`` loads in a fresh
    interpreter, with the tracemalloc peak of compiling its source (the
    least of three compiles)."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", _COMPILE_PEAKS.format(modules=", ".join(modules))],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return {name: int(peak) for name, peak in map(str.split, out.splitlines())}


def test_no_module_of_the_emulator_start_compiles_above_the_bound():
    """Every bcmdiag module ``import bcmdiag.emulator.server`` loads
    compiles within COMPILE_PEAK_MAX."""
    peaks = compile_peaks("bcmdiag.emulator.server")
    assert "bcmdiag.emulator.controller" in peaks
    assert {name: peak for name, peak in peaks.items() if peak > COMPILE_PEAK_MAX} == {}


def test_no_module_of_a_start_with_command_lines_compiles_above_the_bound():
    """The same for a start whose scenario has command lines, which also
    loads the session that ``run_scenario`` imports to run them."""
    peaks = compile_peaks("bcmdiag.emulator.server", "bcmdiag.session")
    assert "bcmdiag.session" in peaks
    assert {name: peak for name, peak in peaks.items() if peak > COMPILE_PEAK_MAX} == {}


def test_no_module_of_the_client_start_compiles_above_the_bound():
    """Every bcmdiag module ``import bcmdiag.cli`` loads compiles within
    CLIENT_COMPILE_PEAK_MAX."""
    peaks = compile_peaks("bcmdiag.cli")
    assert "bcmdiag.session" in peaks
    assert {name: peak for name, peak in peaks.items() if peak > CLIENT_COMPILE_PEAK_MAX} == {}


# Standard-library modules a start does not need: each costs start-up
# time and memory, and the table files, annotations and spool do without
# them.  The emulator also parses its command line without argparse,
# which with its parser stays resident under every later peak.
NOT_LOADED_AT_START = (
    "importlib.resources", "pathlib", "zipfile", "typing", "tempfile", "json", "dataclasses",
)
NOT_LOADED_BY = {
    "bcmdiag.emulator.server": NOT_LOADED_AT_START + ("argparse",),
    "bcmdiag.cli": NOT_LOADED_AT_START,
}


@pytest.mark.parametrize("module", list(NOT_LOADED_BY))
def test_a_start_loads_no_module_it_does_not_need(module):
    """In a fresh interpreter without ``site`` (which may preload any of
    them), importing a start loads none of the modules in its
    NOT_LOADED_BY list."""
    code = f"import sys, {module}; print(*(m for m in {NOT_LOADED_BY[module]!r} if m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == []
