"""What one injected frame costs the emulator, counted in Python calls.

The benchmark's ``inject_burst`` mix (HCI Read Local Version, diag peek
and diag hexdump, a third each) goes through a real ``EmulatorServer``
endpoint: its inject handler decodes each burst and hands every frame to
``Controller.process_host_frame``, whose echo and answer reach the
endpoint's sniff tap and fan-out, here with one stub sniff client.
``sys.setprofile`` counts every Python call made inside
``process_host_frame``, its own included.  The count is deterministic,
unlike a timing, so it pins the host path's cost in tier-1: it was 20.0
before frames were checked once on entry and built straight into their
envelope.
"""

import gc
import random
import selectors
import socket
import sys

from bcmdiag import hci
from bcmdiag.diag import MemAccessType, MemoryHexdump, MemoryPeek, build_diag
from bcmdiag.emulator import Controller
from bcmdiag.emulator.memory import ARM_BASE, ARM_SIZE
from bcmdiag.emulator.scenario import run_scenario
from bcmdiag.h4 import H4Frame, HciCommand, encode_frame

from conftest import unstarted_server

CALLS_PER_FRAME_MAX = 12
BURSTS = 24
_PHF_CODE = Controller.process_host_frame.__code__


def _bursts(seed: int) -> list[list[bytes]]:
    """Bursts of 1 to 64 encoded frames, a third of each kind overall."""
    rng = random.Random(seed)
    kinds = ["version", "peek", "dump"] * (BURSTS * 11)
    rng.shuffle(kinds)
    frames = []
    for kind in kinds:
        if kind == "version":
            frame = HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame()
        elif kind == "peek":
            msg = MemoryPeek(MemAccessType.ARM, ARM_BASE + rng.randrange(ARM_SIZE))
            frame = H4Frame.diag(build_diag(msg))
        else:
            frame = H4Frame.diag(build_diag(MemoryHexdump(ARM_BASE + rng.randrange(ARM_SIZE - 32))))
        frames.append(encode_frame(frame))
    bursts = []
    while frames:
        size = rng.randint(1, 64)
        bursts.append(frames[:size])
        frames = frames[size:]
    return bursts


class _StubSniffClient:
    """Attached to the fan-out; the count stops before any flush."""


def _count_calls(seed: int) -> tuple[int, int]:
    """(Python calls inside process_host_frame, frames) for the bursts
    of ``seed``, sent over loopback to a fresh, unstarted server whose
    handlers this thread calls as the server loop's pass would."""
    world = run_scenario("controller A mac=00:11:22:33:44:01 profile=patched\n")[1]
    server = unstarted_server(world)
    endpoint = server.endpoints["A"]
    endpoint.fanout.attach(_StubSniffClient())
    listener = endpoint._inject_sock
    inject = socket.create_connection(listener.getsockname())
    try:
        server._selector.get_key(listener).data(listener, selectors.EVENT_READ)  # accept
        (served,) = [key for key in server._selector.get_map().values()
                     if getattr(key.data, "func", None) == server._inject_ready]
        calls = frames = 0

        def profile(frame, event, _arg):
            nonlocal calls, frames
            if event != "call":
                return
            frames += frame.f_code is _PHF_CODE
            while frame is not None:  # counted only inside process_host_frame
                if frame.f_code is _PHF_CODE:
                    calls += 1
                    return
                frame = frame.f_back

        server._in_pass = True  # as in the loop's pass, so no tap wakes the loop
        # A collection would run finalizers of other tests' garbage here.
        gc.collect()
        gc.disable()
        for burst in _bursts(seed):
            inject.sendall(b"".join(burst))
            want = frames + len(burst)
            while frames < want:
                sys.setprofile(profile)
                try:
                    served.data(served.fileobj, selectors.EVENT_READ)
                finally:
                    sys.setprofile(None)
        return calls, frames
    finally:
        gc.enable()
        inject.close()
        server.stop()


def test_injected_frame_costs_at_most_twelve_python_calls():
    calls, frames = _count_calls(seed=14)
    assert frames == BURSTS * 33
    assert calls / frames <= CALLS_PER_FRAME_MAX, f"{calls / frames:.2f} calls per frame"
    # A count, not a timing: a second world and server give the same one.
    assert _count_calls(seed=14) == (calls, frames)
