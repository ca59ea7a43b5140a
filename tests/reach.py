"""Line reach of tier-1 over ``src/bcmdiag``.

Runs the tier-1 suite in this process with line events on, then
compares the lines that ran against each function's ``co_lines()``.
On Python 3.12 and later the events come from ``sys.monitoring``, each
location turned off after its first event; before 3.12, from
``sys.settrace`` (and ``threading.settrace``, for the server and reader
threads).  Prints the unreached lines per function and exits 1 when any
lie outside ``SUBPROCESS_ONLY``, or when the suite itself fails.

    PYTHONPATH=src python tests/reach.py [pytest args...]

Module and class bodies are left out: they run at import, which may come
before the tracer starts.  The functions in ``SUBPROCESS_ONLY`` are the
console entry points; tier-1 runs them only in child interpreters, which
this tracer cannot see.  This is a tool, not a tier-1 gate: pytest does
not collect it, and ``settrace`` makes the suite several times slower.
The two back ends count different totals, since ``co_lines()`` differs
between versions; compare their unreached sets.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from inspect import CO_OPTIMIZED
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "bcmdiag"

# "module:qualname" of each function tier-1 runs only in a subprocess.
SUBPROCESS_ONLY = (
    "bcmdiag.cli:repl",
    "bcmdiag.cli:main",
    "bcmdiag.emulator.server:main",
)


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def functions(code, qualname: str = ""):
    """Yield (qualname, code) for each function compiled into ``code``,
    nested ones included."""
    for const in code.co_consts:
        if not hasattr(const, "co_lines"):
            continue
        name = f"{qualname}.{const.co_name}" if qualname else const.co_name
        if const.co_flags & CO_OPTIMIZED:
            yield name, const
        yield from functions(const, name)


def executable_lines() -> dict[str, dict[str, set[int]]]:
    """{path: {"module:qualname": lines}} for every function under SRC.
    A function's first line is left out: it is the ``def`` (or its first
    decorator), and no line event marks it."""
    table: dict[str, dict[str, set[int]]] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        per_function = table.setdefault(str(path), {})
        for qualname, code in functions(module):
            lines = {line for _, _, line in code.co_lines() if line is not None}
            lines.discard(code.co_firstlineno)
            per_function.setdefault(f"{module_name(path)}:{qualname}", set()).update(lines)
    return table


@contextmanager
def settrace_lines(prefix: str, ran: dict[str, set[int]]):
    """Record into ``ran`` each line run in a file under ``prefix``, in
    every thread, through a trace function per call."""
    def on_call(frame, event, _arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen = ran[filename]

        def on_line(frame, event, _arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        yield
    finally:
        sys.settrace(None)
        threading.settrace(None)


@contextmanager
def monitoring_lines(prefix: str, ran: dict[str, set[int]]):
    """``settrace_lines`` through ``sys.monitoring`` (3.12 and later).
    Line events are turned on only for code under ``prefix``, at its
    first start, and each location reports its first line event only."""
    monitoring = sys.monitoring
    tool, events = monitoring.COVERAGE_ID, monitoring.events

    def on_start(code, _offset):
        if code.co_filename.startswith(prefix):
            monitoring.set_local_events(tool, code, events.LINE)
        return monitoring.DISABLE

    def on_line(code, line):
        ran[code.co_filename].add(line)
        return monitoring.DISABLE

    monitoring.use_tool_id(tool, "reach")
    try:
        monitoring.register_callback(tool, events.PY_START, on_start)
        monitoring.register_callback(tool, events.LINE, on_line)
        monitoring.set_events(tool, events.PY_START)
        yield
    finally:
        monitoring.set_events(tool, events.NO_EVENTS)
        monitoring.register_callback(tool, events.PY_START, None)
        monitoring.register_callback(tool, events.LINE, None)
        monitoring.free_tool_id(tool)


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with line events on; return its exit code and the lines
    run per file under SRC."""
    import pytest

    ran: dict[str, set[int]] = defaultdict(set)
    lines = monitoring_lines if sys.version_info >= (3, 12) else settrace_lines
    with lines(str(SRC), ran):
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS), *pytest_args])
    return int(status), ran


def main(argv: list[str]) -> int:
    status, ran = run_traced(argv)
    total = unreached = exempt = 0
    failing = False
    for path, per_function in executable_lines().items():
        for name, lines in per_function.items():
            missed = sorted(lines - ran.get(path, set()))
            total += len(lines)
            unreached += len(missed)
            if not missed:
                continue
            allowed = any(name == f or name.startswith(f + ".") for f in SUBPROCESS_ONLY)
            exempt += len(missed) if allowed else 0
            failing |= not allowed
            mark = "subprocess only" if allowed else "UNREACHED"
            print(f"{name}: {mark}: {', '.join(map(str, missed))}")
    print(f"{total - unreached} of {total} executable lines reached; "
          f"{unreached} unreached, {exempt} of them in {len(SUBPROCESS_ONLY)} subprocess-only entry points")
    if status:
        print(f"pytest exited {status}")
    return 1 if failing or status else 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC.parent))
    sys.exit(main(sys.argv[1:]))
