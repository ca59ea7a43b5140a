"""What a long run holds stays bounded: the client spools a running
capture's records to a file instead of keeping them on the heap."""

import gc
import struct
import tracemalloc

from bcmdiag import hci
from bcmdiag.emulator.scenario import run_scenario
from bcmdiag.h4 import HciCommand
from bcmdiag.session import LocalSession

from conftest import SERVED_TOPOLOGY


def _logged_cycles(session: LocalSession, count: int) -> None:
    """``count`` connects (Classic and LE in turn), each followed by an
    HCI Disconnect, with link-layer logging on at both ends."""
    for cycle in range(count):
        ok, lines = session.execute(("connect", "leconnect")[cycle % 2] + " 00:11:22:33:44:02")
        assert ok, lines
        handle = int(lines[0].rsplit("0x", 1)[1], 16)
        session.send_frame(HciCommand(
            hci.OPCODE_DISCONNECT, struct.pack("<HB", handle, hci.ERR_REMOTE_TERMINATED)
        ).to_frame())


def _traced_now() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_a_long_capture_holds_flat_memory(tmp_path):
    """Traced memory after 50 and after 250 logged cycles with a capture
    running differs by under 32 KiB (about 600 KiB more when the records
    were kept in a list), and the stop writes every record."""
    world = run_scenario(SERVED_TOPOLOGY)[1]
    world["B"].diag_log_enabled = True
    session = LocalSession(world, "A")
    path = tmp_path / "long.pcapng"
    try:
        for line in ("diag on", f"capture start {path}"):
            assert session.execute(line)[0]
        tracemalloc.start()
        try:
            _logged_cycles(session, 50)
            after_50 = _traced_now()
            _logged_cycles(session, 200)
            after_250 = _traced_now()
        finally:
            tracemalloc.stop()
        assert abs(after_250 - after_50) < 32 * 1024, (after_50, after_250)
        records = len(session.capture_records)
        assert records >= 250 * 12
        assert session.execute("capture stop") == (True, [f"wrote {records} records to {path}"])
    finally:
        session.close()
