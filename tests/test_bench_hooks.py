"""The benchmark's tracing hooks still find every name they wrap, and
the calls of both processes still go through them.

``perfbench/tracing.py`` replaces methods and functions of ``bcmdiag``
by name, reading class attributes from the class's own ``__dict__``, so
renaming or moving one of them breaks the benchmark.  Installing both
tracers here makes such a change fail this suite as well.  A caller
that binds a wrapped function before the wrapper is installed would
leave its layer's figures at zero, so the hooks of both sides are also
driven.
"""

import importlib.util
import io
import socket
from pathlib import Path

from bcmdiag import capture, cli, hci
from bcmdiag.diag import MemAccessType, MemoryHexdump, MemoryPeek, build_diag
from bcmdiag.emulator import controller, server
from bcmdiag.emulator.scenario import build_world
from bcmdiag.h4 import H4Frame, H4Type, HciCommand, encode_frame

from conftest import SERVED_TOPOLOGY, unstarted_server

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


def test_emulator_hooks_count_every_record():
    """With EmulatorTracing installed before the server is built, a burst
    of N host frames injected after the sniff client is live gives N
    process_host_frame spans and 2N sniff encodings and publishes: one
    echo and one answer per frame."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    hooks = tracing.EmulatorTracing(tracer)
    hooks.install()
    emulator = None
    try:
        emulator = unstarted_server(build_world(SERVED_TOPOLOGY))
        emulator.start()
        sniff_port, inject_port = emulator.port_map()["A"]
        with socket.create_connection(("127.0.0.1", inject_port), timeout=5.0) as inject, \
                socket.create_connection(("127.0.0.1", sniff_port), timeout=5.0) as sniff:
            decoder = capture.SniffStreamDecoder()
            probe = encode_frame(H4Frame.diag(b"hooks", h4_type=H4Type.MSG_QUEUE_PUT))
            sniff.settimeout(0.05)
            for _attempt in range(200):  # probe until the sniff client is attached
                inject.sendall(probe)
                try:
                    if decoder.feed(sniff.recv(4096)):
                        break
                except socket.timeout:
                    pass
            else:
                raise AssertionError("no probe came back on the sniff stream")
            sniff.settimeout(5.0)
            # A version's answer comes after the records of every probe.
            inject.sendall(encode_frame(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame()))
            while not any(f.h4_type is H4Type.HCI_EVENT
                          for _d, f in decoder.feed(sniff.recv(4096))):
                pass
            burst = [HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame(),
                     H4Frame.diag(build_diag(MemoryPeek(MemAccessType.ARM, 0x200000))),
                     H4Frame.diag(build_diag(MemoryHexdump(0x200000)))] * 20
            before = _counts(tracer, tracing, hooks)
            inject.sendall(b"".join(encode_frame(f) for f in burst))
            got = 0
            while got < 2 * len(burst):
                got += len(decoder.feed(sniff.recv(4096)))
            assert got == 2 * len(burst)
            after = _counts(tracer, tracing, hooks)
    finally:
        if emulator is not None:
            emulator.stop()
        tracer.uninstall()
    host_frames, encoded, published = (b - a for a, b in zip(before, after))
    assert host_frames == len(burst)
    assert encoded == published == 2 * len(burst)


def _counts(tracer, tracing, hooks) -> tuple[int, int, int]:
    """process_host_frame calls, sniff encodings and publishes so far."""
    agg = tracer.summary()["agg"]
    calls = [agg.get(name, [0] * 5)[tracing.CALLS]
             for name in ("emulator.controller.host_frame", "h4.encode")]
    return calls[0], calls[1], sum(len(stamps) for stamps in hooks.fanouts)
