"""Emulator child process: ``bcmdiag-emu`` with optional tracing.

Usage: ``python3 emu_launcher.py [--trace-dir DIR] -- <bcmdiag-emu args>``

With ``--trace-dir`` the tracing wrappers are installed before
``bcmdiag.emulator.server.main`` runs, and on SIGTERM the child writes
``emulator.json`` (aggregates, fan-out stamps) and ``spans-emulator.jsonl``
into that directory before it exits.
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def _terminate(_signum, _frame) -> None:
    # Unwinds the server's main loop, which stops the endpoints.
    raise SystemExit(0)


def main(argv: list[str]) -> int:
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    from bcmdiag.emulator import server

    tracing = None
    if trace_dir is not None:
        from tracing import EmulatorTracing, Tracer

        tracing = EmulatorTracing(Tracer())
        tracing.install()
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return server.main(argv)
    finally:
        if tracing is not None:
            tracing.dump(os.path.join(trace_dir, "emulator.json"))
            tracing.tracer.write_spans(
                os.path.join(trace_dir, "spans-emulator.jsonl"), f"emulator-{os.getpid()}"
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
