"""The benchmark's tracing hooks still find every name they wrap.

``perfbench/tracing.py`` replaces methods and functions of ``bcmdiag``
by name, reading class attributes from the class's own ``__dict__``, so
renaming or moving one of them breaks the benchmark.  Installing both
tracers here makes such a change fail this suite as well.
"""

import importlib.util
import socket
from pathlib import Path

from bcmdiag import capture, cli
from bcmdiag.emulator import controller, server

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_both_tracers_install_and_uninstall():
    tracing = _load_tracing()
    originals = (
        controller.Controller.__dict__["process_host_frame"],
        controller.Controller.__dict__["deliver_air"],
        server.encode_sniff_record,
        cli.render_live,
        capture.SniffStreamDecoder.__dict__["feed"],
        socket.create_connection,
    )
    tracer = tracing.Tracer()
    try:
        tracing.EmulatorTracing(tracer).install()
        tracing.ClientTracing(tracer).install()
        assert controller.Controller.__dict__["process_host_frame"] is not originals[0]
    finally:
        tracer.uninstall()
    assert (
        controller.Controller.__dict__["process_host_frame"],
        controller.Controller.__dict__["deliver_air"],
        server.encode_sniff_record,
        cli.render_live,
        capture.SniffStreamDecoder.__dict__["feed"],
        socket.create_connection,
    ) == originals
