import random
import socket
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bcmdiag import hci
from bcmdiag.emulator import Controller, VirtualLink
from bcmdiag.emulator.profiles import patched_profile, vulnerable_profile
from bcmdiag.emulator.scenario import run_scenario
from bcmdiag.emulator.server import EmulatorServer

from helpers import MAC_A, MAC_B


@pytest.fixture
def linked_pair():
    """Two freshly linked controllers, default (patched) profiles."""
    a = Controller(MAC_A, name="A")
    b = Controller(MAC_B, name="B")
    VirtualLink(a, b)
    return a, b


@pytest.fixture
def linked_pair_vulnerable():
    a = Controller(MAC_A, profile=patched_profile(), name="A")
    b = Controller(MAC_B, profile=vulnerable_profile(), name="B")
    VirtualLink(a, b)
    return a, b


SERVED_TOPOLOGY = """\
controller A mac=00:11:22:33:44:01 profile=patched
controller B mac=00:11:22:33:44:02 profile=patched
link A B
"""


def _ephemeral_floor() -> int:
    """The lowest port the kernel hands to connect(); Linux's default
    when the range cannot be read."""
    try:
        with open("/proc/sys/net/ipv4/ip_local_port_range", encoding="ascii") as fh:
            return int(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 32768


def free_base_port(ports: int = 2) -> int:
    """A base port whose window of ``ports`` ports binds now.  Windows lie
    below the ephemeral range, where client sockets take their ports and
    leave TIME_WAIT entries that block a listener's bind."""
    top = max(_ephemeral_floor(), 12000) - ports
    for _attempt in range(50):
        base = random.randrange(10000, top)
        try:
            for port in range(base, base + ports):  # bound as EmulatorServer binds
                socket.create_server(("127.0.0.1", port)).close()
        except OSError:
            continue
        return base
    pytest.fail("no free port window")


def unstarted_server(world) -> EmulatorServer:
    """An EmulatorServer for ``world`` on a free loopback port window,
    not started yet.  The window can be taken between the probe and the
    bind, so a taken port is retried."""
    for _attempt in range(5):
        try:
            return EmulatorServer(world, base_port=free_base_port(2 * len(world.controllers)))
        except OSError:
            continue
    pytest.fail("no free port window")


@pytest.fixture
def served_world():
    """SERVED_TOPOLOGY behind an EmulatorServer on a free loopback port
    window; yields (world, server)."""
    world = run_scenario(SERVED_TOPOLOGY)[1]
    server = unstarted_server(world)
    server.start()
    try:
        yield world, server
    finally:
        server.stop()


def connect_pair(a: Controller, b: Controller, transport: str = "classic"):
    """Drive a full connection setup from a to b; returns a's new handle
    (the frames a emitted during setup are available as `.frames`)."""
    from bcmdiag.h4 import HciCommand

    if transport == "classic":
        cmd = HciCommand(hci.OPCODE_CREATE_CONNECTION, hci.mac_to_wire(b.mac) + bytes(7))
    else:
        cmd = HciCommand(
            hci.OPCODE_LE_CREATE_CONNECTION, bytes(6) + hci.mac_to_wire(b.mac) + bytes(13)
        )
    frames = a.process_host_frame(cmd.to_frame())
    handles = sorted(a.connections)
    assert handles, "connection setup failed"
    handle = _Handle(handles[-1])
    handle.frames = frames
    return handle


class _Handle(int):
    """Connection handle that also carries the initiator's setup frames."""

    frames: list
