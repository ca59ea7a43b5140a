"""What one logged connect and disconnect costs, counted in Python calls.

As in the benchmark's ``ll_logging`` workload, two linked controllers
log link-layer PDUs at both ends and are served by an ``EmulatorServer``;
only A has a sniff client (a stub attached to its endpoint's fan-out),
and B is served but unobserved.  Cycles alternate Classic and LE.
``sys.setprofile`` counts every Python call made inside A's
``Controller.process_host_frame``: the link pump, B's side of the air
link and the endpoint taps run inside it.  It then counts the Python
calls inside ``render_live`` for each record of A's sniff stream, the
live view's cost, and the Python calls per record inside a client's
``SocketSession._pump`` as it reads that stream from a socket with the
live view on and a capture running.  Counts are deterministic, unlike
timings, so they pin these paths in tier-1.  Before B stopped building
log records nobody reads and repeated live lines were looked up rather
than rendered, they were 312.0 calls per cycle and 15.17 per record
(257.5 and 3.12 after).  Sending and reading the controller's constant
PDUs by table lookup, memoising its log-record frames and carrying the
transaction ID as a plain int took a cycle from 257.5 to 161.075 calls
and from 7 ``Enum.value`` reads to none.  Queueing live records and
writing their lines once per received chunk took the client's sniff
path from 7.16 to 4.18 calls per record, with the live-line cache
cleared first (0.29 of a record's calls are first-time renders).
"""

import enum
import gc
import io
import socket
import struct
import sys

from bcmdiag import hci
from bcmdiag.capture import CaptureRecord, SniffStreamDecoder, _live_text, render_live
from bcmdiag.cli import SocketSession
from bcmdiag.emulator import Controller
from bcmdiag.emulator.scenario import run_scenario
from bcmdiag.h4 import HciCommand, Value
from bcmdiag.session import LocalSession, Session

from conftest import SERVED_TOPOLOGY, connect_pair, unstarted_server

CYCLES = 40
CALLS_PER_CYCLE_MAX = 162
CALLS_PER_RECORD_MAX = 3.2
CLIENT_CALLS_PER_RECORD_MAX = 4.2
_PHF_CODE = Controller.process_host_frame.__code__
_RENDER_CODE = render_live.__code__
_PUMP_CODE = SocketSession._pump.__code__
_ENUM_VALUE_CODE = enum.Enum.__dict__["value"].fget.__code__


class _StubSniffClient:
    """Attached to the fan-out; nothing flushes, so the journal keeps
    every record."""


def _profiled(code, run, callees=None) -> int:
    """Python calls made inside functions with ``code``, theirs
    included, while ``run()`` runs with the collector off: a collection
    would run other tests' finalizers inside the counted calls.  With
    ``callees``, only calls of functions with those codes count."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event != "call" or callees is not None and frame.f_code not in callees:
            return
        while frame is not None:
            if frame.f_code is code:
                calls += 1
                return
            frame = frame.f_back

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def _logged_world():
    """(server, A's fan-out, a function running CYCLES logged cycles)."""
    world = run_scenario(SERVED_TOPOLOGY)[1]
    a, b = world["A"], world["B"]
    a.diag_log_enabled = b.diag_log_enabled = True
    server = unstarted_server(world)
    fanout = server.endpoints["A"].fanout
    fanout.attach(_StubSniffClient())
    server._in_pass = True  # as in the loop's pass, so no tap wakes the loop

    def cycles() -> None:
        for cycle in range(CYCLES):
            handle = connect_pair(a, b, ("classic", "le")[cycle % 2])
            a.process_host_frame(
                HciCommand(hci.OPCODE_DISCONNECT, struct.pack("<HB", handle, 0x13)).to_frame()
            )

    return server, fanout, cycles


def _recorded_stream() -> tuple[int, bytes]:
    """(Python calls inside process_host_frame over CYCLES logged cycles,
    A's sniff stream of them)."""
    server, fanout, cycles = _logged_world()
    try:
        return _profiled(_PHF_CODE, cycles), bytes(fanout)
    finally:
        server.stop()


def _count_calls() -> tuple[int, int, int]:
    """(Python calls inside process_host_frame over CYCLES logged cycles,
    records of A's sniff stream, Python calls rendering them live)."""
    emulator_calls, stream = _recorded_stream()
    records = [CaptureRecord.at_tick(tick, d, f)
               for tick, (d, f) in enumerate(SniffStreamDecoder().feed(stream))]
    _live_text.cache_clear()  # as a fresh client starts
    render_calls = _profiled(_RENDER_CODE, lambda: [render_live(r) for r in records])
    return emulator_calls, len(records), render_calls


def _client_calls(stream: bytes, capture_path: str) -> tuple[int, int, str]:
    """(Python calls inside SocketSession._pump while it reads ``stream``
    from a socket pair with the live view on and a pcapng capture running,
    records captured, live text written).  The session attaches to a
    served world as a client does, then reads the pair in place of its
    sniff socket."""
    world = run_scenario(SERVED_TOPOLOGY)[1]
    server = unstarted_server(world)
    server.start()
    sniff, inject = server.port_map()["A"]
    out = io.StringIO()
    session = SocketSession(("127.0.0.1", inject), ("127.0.0.1", sniff), color=False, out=out)
    feeder = None
    try:
        session._sniff_sock.close()
        session._sniff_sock, feeder = socket.socketpair()
        session._decoder = SniffStreamDecoder()
        for line in ("live on", f"capture start {capture_path} pcap"):
            assert session.execute(line)[0]
        feeder.sendall(stream)  # the pair's buffer holds it all, so recv sizes repeat
        _live_text.cache_clear()

        def pump_all() -> None:
            while len(session.capture_records) < CYCLES * 12:
                session._pump(5.0)

        calls = _profiled(_PUMP_CODE, pump_all)
        return calls, len(session.capture_records), out.getvalue()
    finally:
        session.close()
        if feeder is not None:
            feeder.close()
        server.stop()


def test_logged_cycle_and_live_records_are_pinned():
    emulator_calls, records, render_calls = _count_calls()
    assert records == CYCLES * 12
    assert emulator_calls / CYCLES <= CALLS_PER_CYCLE_MAX, f"{emulator_calls / CYCLES:.1f} per cycle"
    assert render_calls / records <= CALLS_PER_RECORD_MAX, f"{render_calls / records:.2f} per record"
    # Counts, not timings: a second world and server give the same ones.
    assert _count_calls() == (emulator_calls, records, render_calls)


def test_logged_cycle_hashes_no_enum_member_in_python():
    """``Enum.__hash__`` is Python code: link layers are kept, not looked
    up by transport (19 calls per cycle when they were)."""
    server, _fanout, cycles = _logged_world()
    try:
        assert _profiled(enum.Enum.__hash__.__code__, cycles) == 0
    finally:
        server.stop()


def test_logged_cycle_reads_no_enum_value():
    """``Enum.value`` is a Python property: a connection carries its
    transaction ID as a plain int (7 reads per cycle when it read the
    role's value)."""
    server, _fanout, cycles = _logged_world()
    try:
        assert _profiled(_ENUM_VALUE_CODE, cycles) == 0
    finally:
        server.stop()


def test_client_matches_echoes_without_value_comparisons():
    """A client matches each echo against its sends as plain tuples, in
    C: ``Value.__eq__``/``__ne__`` are Python code (2 calls per echo here,
    160 over the cycles, when the frames were compared as Values)."""
    world = run_scenario(SERVED_TOPOLOGY)[1]
    world["B"].diag_log_enabled = True
    session = LocalSession(world, "A")
    assert session.execute("diag on")[0]

    def cycles() -> None:
        for cycle in range(CYCLES):
            ok, lines = session.execute(("connect", "leconnect")[cycle % 2] + " 00:11:22:33:44:02")
            assert ok, lines
            handle = int(lines[0].rsplit("0x", 1)[1], 16)
            session.send_frame(
                HciCommand(hci.OPCODE_DISCONNECT, struct.pack("<HB", handle, 0x13)).to_frame()
            )

    value_comparisons = {Value.__eq__.__code__, Value.__ne__.__code__}
    try:
        assert _profiled(Session._queue_records.__code__, cycles, value_comparisons) == 0
    finally:
        session.close()


def test_client_sniff_path_is_pinned(tmp_path):
    _emulator_calls, stream = _recorded_stream()
    calls, records, text = _client_calls(stream, str(tmp_path / "a.pcapng"))
    assert records == CYCLES * 12
    assert calls / records <= CLIENT_CALLS_PER_RECORD_MAX, f"{calls / records:.2f} per record"
    # The lines written per chunk are the lines of the records, in order.
    expected = [render_live(CaptureRecord.at_tick(tick, d, f))
                for tick, (d, f) in enumerate(SniffStreamDecoder().feed(stream))]
    assert text == "".join(line + "\n" for line in expected)
    assert _client_calls(stream, str(tmp_path / "b.pcapng"))[:2] == (calls, records)
