"""The benchmark's tracing hooks still find every name they wrap, and
the client's calls still go through them.

``perfbench/tracing.py`` replaces methods and functions of ``bcmdiag``
by name, reading class attributes from the class's own ``__dict__``, so
renaming or moving one of them breaks the benchmark.  Installing both
tracers here makes such a change fail this suite as well.  A caller
that binds a wrapped function before the wrapper is installed would
leave its layer's figures at zero, so the client hooks are also driven.
"""

import importlib.util
import io
import socket
from pathlib import Path

from bcmdiag import capture, cli
from bcmdiag.emulator import controller, server

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# Commands that wait for one answer each, over every wait path of the
# client: diag, HCI Command Complete, the connection-stats records (one
# CPU load record while no connection is up) and connect.
ANSWERED = (
    "peek arm 200000",
    "dump 200000",
    "test",
    "firewall show",
    "stats br",
    "stats conn",
    "connect 00:11:22:33:44:02",
    "sendlmp 0b 62",  # LMP_setup_complete on the new connection
    "leconnect 00:11:22:33:44:02",
)


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


def test_client_hooks_are_reached(served_world, tmp_path):
    """With ClientTracing installed, a capture stop records one pcapng
    write span, each SocketSession live line one render span and each
    answered command one wait span (one per record for ``stats conn``)."""
    tracing = _load_tracing()
    _world, emulator = served_world
    sniff, inject = emulator.port_map()["A"]
    tracer = tracing.Tracer()
    try:
        tracing.ClientTracing(tracer).install()
        out = io.StringIO()
        session = cli.SocketSession(
            ("127.0.0.1", inject), ("127.0.0.1", sniff), color=False, out=out
        )
        try:
            for line in (f"capture start {tmp_path / 'c.pcapng'}", "version", "capture stop"):
                assert session.execute(line)[0], line
            for line in ANSWERED:
                assert session.execute(line)[0], line
            session.live_view = True
            assert session.execute("version")[0]
        finally:
            session.close()
    finally:
        tracer.uninstall()
    write = tracer.agg["capture.pcapng_write"]
    assert (write[tracing.CALLS], write[tracing.ITEMS]) == (1, 2)
    assert len(out.getvalue().splitlines()) == tracer.agg["capture.render"][tracing.CALLS] == 2
    # Both versions, then one wait per answer of ANSWERED.
    assert tracer.agg["session.wait"][tracing.CALLS] == 2 + len(ANSWERED)
    assert tracer.counts.get("session.timeouts", 0) == 0
