"""What one logged connect and disconnect costs, counted in Python calls.

As in the benchmark's ``ll_logging`` workload, two linked controllers
log link-layer PDUs at both ends and are served by an ``EmulatorServer``;
only A has a sniff client (a stub attached to its endpoint's fan-out),
and B is served but unobserved.  Cycles alternate Classic and LE.
``sys.setprofile`` counts every Python call made inside A's
``Controller.process_host_frame``: the link pump, B's side of the air
link and the endpoint taps run inside it.  It then counts the Python
calls inside ``render_live`` for each record of A's sniff stream, the
live view's cost.  Counts are deterministic, unlike timings, so they pin
both paths in tier-1.  Before B stopped building log records nobody
reads and repeated live lines were looked up rather than rendered, they
were 312.0 calls per cycle and 15.17 per record (257.5 and 3.12 after).
"""

import enum
import gc
import struct
import sys

from bcmdiag import hci
from bcmdiag.capture import CaptureRecord, SniffStreamDecoder, _live_text, render_live
from bcmdiag.emulator import Controller
from bcmdiag.emulator.scenario import build_world
from bcmdiag.h4 import HciCommand

from conftest import SERVED_TOPOLOGY, connect_pair, unstarted_server

CYCLES = 40
CALLS_PER_CYCLE_MAX = 258
CALLS_PER_RECORD_MAX = 3.2
_PHF_CODE = Controller.process_host_frame.__code__
_RENDER_CODE = render_live.__code__


class _StubSniffClient:
    """Attached to the fan-out; nothing flushes, so the journal keeps
    every record."""


def _profiled(code, run) -> int:
    """Python calls made inside functions with ``code``, theirs
    included, while ``run()`` runs with the collector off: a collection
    would run other tests' finalizers inside the counted calls."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event != "call":
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
    world = build_world(SERVED_TOPOLOGY)
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


def _count_calls() -> tuple[int, int, int]:
    """(Python calls inside process_host_frame over CYCLES logged cycles,
    records of A's sniff stream, Python calls rendering them live)."""
    server, fanout, cycles = _logged_world()
    try:
        emulator_calls = _profiled(_PHF_CODE, cycles)
        stream = SniffStreamDecoder().feed(bytes(fanout))
    finally:
        server.stop()
    records = [CaptureRecord.at_tick(tick, d, f) for tick, (d, f) in enumerate(stream)]
    _live_text.cache_clear()  # as a fresh client starts
    render_calls = _profiled(_RENDER_CODE, lambda: [render_live(r) for r in records])
    return emulator_calls, len(records), render_calls


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
