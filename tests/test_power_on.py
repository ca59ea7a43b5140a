"""Power-on state: what construction sets up and what a reset (HCI Reset
or a firmware crash) returns to -- memory, the handle allocator, and the
cost of building one image."""

import json
import mmap
import os
import struct
import subprocess
import sys
import tracemalloc

import pytest

from bcmdiag import hci
from bcmdiag.diag import (
    HEXDUMP_DATA_LEN,
    MemAccessType,
    MemoryHexdump,
    MemoryPeek,
    MemoryPoke,
    parse_diag,
)
from bcmdiag.emulator import Controller
from bcmdiag.emulator.controller import FIRST_HANDLE
from bcmdiag.emulator.memory import ARM_BASE, ARM_SIZE, BLUERF_BASE, VERSION_STRING
from bcmdiag.emulator.scenario import build_controller
from bcmdiag.h4 import HciCommand

from conftest import connect_pair
from helpers import MAC_A
from test_security import io_capability_req, send_lmp, start_encryption_req


def ask(ctrl, msg):
    """Send one diag request over the host path; its one answer, parsed."""
    (frame,) = ctrl.process_host_frame(msg.to_frame())
    return parse_diag(frame.payload)


def hci_reset(ctrl, _peer=None):
    ctrl.process_host_frame(HciCommand(hci.OPCODE_RESET).to_frame())


def crash(victim, attacker):
    """CVE-2019-6994: encryption start while pairing is pending, on a
    connection the attacker opens for it."""
    handle = connect_pair(attacker, victim)
    send_lmp(attacker, handle, io_capability_req())
    send_lmp(attacker, handle, start_encryption_req())
    assert victim.connections == {}


RESETS = pytest.mark.parametrize("reset", [hci_reset, crash], ids=["hci_reset", "crash"])


class TestResetRestoresMemory:
    def _scribble(self, ctrl, arm):
        """Poke the ARM region's first octet, one past its power-on octets
        and one BlueRF octet."""
        for access, address in ((MemAccessType.ARM, arm), (MemAccessType.ARM, arm + 30),
                                (MemAccessType.BLUERF, BLUERF_BASE + 7)):
            assert ask(ctrl, MemoryPoke(access, address, 0xA5)).status == 0
            assert ask(ctrl, MemoryPeek(access, address)).value == 0xA5

    @RESETS
    def test_default_image_reads_its_version_string_and_zeros(self, linked_pair_vulnerable, reset):
        attacker, victim = linked_pair_vulnerable
        for _ in range(2):  # a second reset restores as well as the first
            self._scribble(victim, ARM_BASE)
            reset(victim, attacker)
            assert ask(victim, MemoryPeek(MemAccessType.ARM, ARM_BASE)).value == VERSION_STRING[0]
            assert ask(victim, MemoryPeek(MemAccessType.BLUERF, BLUERF_BASE + 7)).value == 0
            dump = ask(victim, MemoryHexdump(ARM_BASE)).data
            assert dump == VERSION_STRING.ljust(HEXDUMP_DATA_LEN, b"\x00")

    def test_file_image_reads_the_files_contents(self, tmp_path):
        contents = bytes(range(1, 20))
        image = tmp_path / "image.json"
        image.write_text(json.dumps({"regions": [
            {"base": "0x1000", "kind": "arm", "contents": contents.hex(), "size": 64},
            {"base": 0, "kind": "bluerf", "size": 16},
        ]}))
        ctrl = build_controller("A", {"mac": "00:11:22:33:44:01", "memory": str(image)})
        for _ in range(2):
            self._scribble(ctrl, 0x1000)
            hci_reset(ctrl)
            assert ask(ctrl, MemoryHexdump(0x1000)).data == contents.ljust(HEXDUMP_DATA_LEN, b"\x00")
            assert ask(ctrl, MemoryPeek(MemAccessType.BLUERF, 7)).value == 0
            assert [len(r.data) for r in ctrl.memory.regions] == [64, 16]

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmRSS from /proc")
    def test_a_reset_leaves_the_default_image_unresident(self):
        """A reset drops the mapped ARM image's pages instead of writing
        zeros over them: in a fresh interpreter VmRSS grows by under
        64 KiB across one, and the image reads its power-on octets."""
        code = (
            "from bcmdiag.diag import MemAccessType\n"
            "from bcmdiag.emulator import Controller\n"
            "def rss():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(l.split()[1]) for l in fh if l.startswith('VmRSS:'))\n"
            "ctrl = Controller(bytes(6))\n"
            f"ctrl.memory.write(MemAccessType.ARM, {ARM_BASE + ARM_SIZE - 1}, 0xA5)\n"
            "before = rss()\n"
            "ctrl.reset()\n"
            "grown = rss() - before\n"
            f"print(grown, ctrl.memory.read_block(MemAccessType.ARM, {ARM_BASE}, {ARM_SIZE}).hex())\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        ).stdout
        grown_kib, image = out.split()
        assert int(grown_kib) < 64
        assert bytes.fromhex(image) == VERSION_STRING.ljust(ARM_SIZE, b"\x00")


class TestPowerOnIsOnePath:
    @RESETS
    def test_handles_start_over_after_a_reset(self, linked_pair_vulnerable, reset):
        attacker, victim = linked_pair_vulnerable
        handle = connect_pair(victim, attacker)
        assert handle == FIRST_HANDLE == 0x000B
        disconnect = HciCommand(hci.OPCODE_DISCONNECT, struct.pack("<HB", handle, 0x13))
        victim.process_host_frame(disconnect.to_frame())
        assert victim.connections == {} == attacker.connections
        reset(victim, attacker)  # the allocator stood at 0x000c
        assert connect_pair(victim, attacker) == 0x000B

    def test_construction_builds_one_image(self, monkeypatch):
        """One ARM image is mapped per construction, and none is copied
        onto the heap."""
        Controller(MAC_A)  # anything built once per process is built now
        mapped = []
        real = mmap.mmap
        monkeypatch.setattr(mmap, "mmap", lambda *args, **kw: mapped.append(args) or real(*args, **kw))
        tracemalloc.start()
        try:
            Controller(MAC_A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mapped == [(-1, ARM_SIZE)]
        assert peak < ARM_SIZE
