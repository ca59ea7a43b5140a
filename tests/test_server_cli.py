"""Stream servers and the socket client, over real loopback TCP."""

import gc
import io
import os
import random
import re
import select
import selectors
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings

import pytest

import bcmdiag
from bcmdiag import diag, hci
from bcmdiag.capture import SniffStreamDecoder, encode_sniff_record
from bcmdiag.cli import SocketSession, run_batch
from bcmdiag.diag import MemAccessType, MemoryHexdump, MemoryPeek, build_diag, parse_diag
from bcmdiag.emulator import Controller
from bcmdiag.emulator.memory import ARM_BASE
from bcmdiag.emulator.scenario import LocalSession, build_world
from bcmdiag.emulator.server import SNIFF_BACKLOG_MAX, EmulatorServer, _SniffFanout
from bcmdiag.errors import InvariantViolation, SessionError
from bcmdiag.h4 import (
    Direction,
    H4Frame,
    H4StreamDecoder,
    H4Type,
    HciCommand,
    encode_frame,
)

from conftest import SERVED_TOPOLOGY as TOPOLOGY, connect_pair, free_base_port, unstarted_server
from helpers import HostRecorder, read_pcapng

def _reset(socks: list[socket.socket]) -> None:
    """Close with a reset, leaving no TIME_WAIT port to crowd later windows."""
    for sock in socks:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()


def _session(server: EmulatorServer, controller: str, **kwargs) -> SocketSession:
    sniff, inject = server.port_map()[controller]
    return SocketSession(
        ("127.0.0.1", inject), ("127.0.0.1", sniff), color=False, **kwargs
    )


def _barrier(session: SocketSession) -> None:
    """The logging toggle has no response; a version round trip on the
    same inject socket proves everything before it was processed."""
    ok, _ = session.execute("version")
    assert ok


class TestSocketSession:
    def test_version_round_trip(self, served_world):
        _world, server = served_world
        session = _session(server, "A")
        try:
            ok, lines = session.execute("version")
            assert ok
            assert "manufacturer 0x000f" in lines[0]
        finally:
            session.close()

    def test_connect_and_peer_log(self, served_world):
        world, server = served_world
        session_a = _session(server, "A")
        session_b = _session(server, "B")
        try:
            assert session_b.execute("diag on")[0]
            _barrier(session_b)
            ok, lines = session_a.execute("connect 00:11:22:33:44:02")
            assert ok, lines
            assert "handle 0x000b" in lines[0]
            # The peer's sniff stream carries received-PDU records.
            deadline = time.monotonic() + 2.0
            seen = False
            while time.monotonic() < deadline and not seen:
                frame = session_b.wait_frame(
                    lambda f: f.h4_type is H4Type.DIAG and f.payload[0] == 0x01,
                    timeout=0.2,
                )
                seen = frame is not None
            assert seen, "no LMP-received record on the peer sniff stream"
        finally:
            session_a.close()
            session_b.close()

    def test_sendlmp_end_to_end(self, served_world):
        _world, server = served_world
        session_a = _session(server, "A")
        session_b = _session(server, "B")
        try:
            session_b.execute("diag on")
            _barrier(session_b)
            ok, _ = session_a.execute("connect 00:11:22:33:44:02")
            assert ok
            ok, lines = session_a.execute("sendlmp 0x000b 4e0000000000000000")
            assert ok, lines
            frame = session_b.wait_frame(
                lambda f: f.h4_type is H4Type.DIAG
                and f.payload[0] == 0x01
                and f.payload[5] == 0x4E,
                timeout=2.0,
            )
            assert frame is not None
        finally:
            session_a.close()
            session_b.close()

    def test_command_octets_match_builders(self, served_world):
        world, server = served_world
        session = _session(server, "A")
        sent = HostRecorder(world["A"], Direction.HOST_TO_CONTROLLER)
        try:
            session.execute("version")
            # Late echoes of the attach probes aside.
            assert [
                encode_frame(f) for f in sent.take() if f.h4_type is not H4Type.MSG_QUEUE_PUT
            ] == [encode_frame(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame())]
        finally:
            session.close()

    def test_capture_records_both_directions(self, served_world, tmp_path):
        _world, server = served_world
        session = _session(server, "A")
        try:
            path = str(tmp_path / "cli.pcapng")
            session.execute(f"capture start {path}")
            session.execute("version")
            time.sleep(0.3)
            ok, lines = session.execute("capture stop")
            assert ok and "wrote" in lines[0]
            from helpers import read_pcapng

            _interfaces, packets = read_pcapng(path)
            assert len(packets) >= 2  # the command and its completion
        finally:
            session.close()

    def test_refused_connect_answers_at_once(self, served_world):
        _world, server = served_world
        session = _session(server, "A")
        try:
            for command in ("connect", "leconnect"):
                ok, lines = session.execute(f"{command} 00:11:22:33:44:02")
                assert ok, lines
                t0 = time.monotonic()
                ok, lines = session.execute(f"{command} 00:11:22:33:44:02")
                elapsed = time.monotonic() - t0
                assert not ok
                assert lines == [f"{command} failed: status 0x0b"]
                assert elapsed < 1.0, elapsed  # the wait's timeout is 5 s
        finally:
            session.close()

    def test_late_answer_of_timed_out_command_is_dropped(self, served_world, tmp_path):
        _world, server = served_world
        session = _session(server, "A")
        try:
            assert session.execute("poke arm 0x200000 11")[0]
            assert session.execute("poke arm 0x200001 22")[0]
            assert session.execute(f"capture start {tmp_path / 'late.pcapng'}")[0]
            # A zero timeout gives up before reading the sniff stream;
            # the answer is there by the next command.
            session.default_timeout = 0.0
            ok, lines = session.execute("peek arm 0x200000")
            session.default_timeout = 2.0
            assert not ok and "timeout" in lines[0]
            time.sleep(0.2)
            ok, lines = session.execute("peek arm 0x200001")
            assert ok and lines == ["0x00200001 = 0x22"]
            # The stale answer is in: read in the wait for the next one.
            assert [
                parse_diag(r.frame.payload).value
                for r in session.capture_records
                if r.direction is Direction.CONTROLLER_TO_HOST
            ] == [0x11, 0x22]
        finally:
            session.close()

    def test_one_thread(self, served_world):
        """A session reads its sniff stream on the caller's thread."""
        _world, server = served_world
        before = threading.active_count()
        session = _session(server, "A")
        try:
            assert session.execute("version")[0]
            assert threading.active_count() == before
        finally:
            session.close()


class TestConcurrentSessions:
    def test_each_session_gets_its_own_answers(self, served_world):
        """Two sessions on two controllers poke and peek from their own
        threads while a third thread floods controller A with unrelated
        commands; each peek must read the value its own poke wrote."""
        _world, server = served_world
        sessions = [_session(server, name) for name in ("A", "B")]
        noise = socket.create_connection(("127.0.0.1", server.port_map()["A"][1]))
        stop = threading.Event()
        errors: list[str] = []

        def drive(session: SocketSession, seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(150):
                    address = 0x200000 + rng.randrange(4096)
                    value = rng.randrange(256)
                    ok, lines = session.execute(f"poke arm {address:x} {value:x}")
                    ok2, lines2 = session.execute(f"peek arm {address:x}")
                    if not (ok and ok2 and lines2 == [f"0x{address:08x} = 0x{value:02x}"]):
                        errors.append(f"{lines} {lines2}")
                        return
            except Exception as exc:  # reported by the assertion below
                errors.append(repr(exc))

        def flood() -> None:
            version = encode_frame(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame())
            while not stop.is_set():
                noise.sendall(version * 4)
                time.sleep(0.001)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        flooder = threading.Thread(target=flood)
        drivers = [threading.Thread(target=drive, args=(s, i)) for i, s in enumerate(sessions)]
        try:
            flooder.start()
            for thread in drivers:
                thread.start()
            for thread in drivers:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in drivers)
        finally:
            stop.set()
            flooder.join(timeout=5.0)
            sys.setswitchinterval(interval)
            noise.close()
            for session in sessions:
                session.close()
        assert not flooder.is_alive()
        assert errors == []


class TestSessionsShareAController:
    def test_each_session_matches_only_its_own_answers(self, served_world):
        """Two sessions on one controller each poke their own address and
        peek it from their own threads; every controller-to-host frame
        reaches both sniff streams, and each must match only the answers
        that follow the echo of its own command."""
        _world, server = served_world
        sessions = [_session(server, "A") for _ in range(2)]
        wrong = [0, 0]
        errors: list[str] = []

        def drive(index: int) -> None:
            session = sessions[index]
            address, value = 0x200100 + index, 0x11 * (index + 1)
            try:
                assert session.execute(f"poke arm {address:x} {value:x}")[0]
                for _ in range(300):
                    ok, lines = session.execute(f"peek arm {address:x}")
                    wrong[index] += lines != [f"0x{address:08x} = 0x{value:02x}"]
            except Exception as exc:  # reported by the assertion below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=drive, args=(i,)) for i in range(2)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            for session in sessions:
                session.close()
        assert errors == []
        assert wrong == [0, 0]


class TestEndpointBinding:
    @pytest.mark.parametrize("taken", [1, 3])
    def test_failed_bind_releases_everything(self, taken):
        """With port base+taken in use, building the server fails and
        leaves every port free and no controller tapped."""
        world = build_world(TOPOLOGY)
        base = free_base_port(taken + 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            blocker = socket.create_server(("127.0.0.1", base + taken))
            try:
                with pytest.raises(OSError):
                    EmulatorServer(world, base_port=base)
                for port in range(base, base + taken):
                    socket.create_server(("127.0.0.1", port)).close()
            finally:
                blocker.close()
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert all(world[name]._taps == [] for name in world.order)


class TestSniffStreamWire:
    def test_direction_prefixed_frames(self, served_world):
        world, server = served_world
        sniff_port, inject_port = server.port_map()["A"]
        sniff = socket.create_connection(("127.0.0.1", sniff_port))
        inject = socket.create_connection(("127.0.0.1", inject_port))
        try:
            decoder = SniffStreamDecoder()
            nonce = _await_subscription(inject, sniff, decoder)
            inject.sendall(encode_frame(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame()))
            sniff.settimeout(2.0)
            got = []
            while len(got) < 2:
                got += [
                    (d, f)
                    for d, f in decoder.feed(sniff.recv(4096))
                    if not _is_probe(f, nonce)
                ]
            directions = [d for d, _f in got]
            assert directions[0] is Direction.HOST_TO_CONTROLLER
            assert Direction.CONTROLLER_TO_HOST in directions
        finally:
            sniff.close()
            inject.close()


def _drain(sock: socket.socket) -> bytes:
    """Everything a non-blocking socket holds right now."""
    out = bytearray()
    while True:
        try:
            data = sock.recv(1 << 16)
        except BlockingIOError:
            return bytes(out)
        if not data:
            return bytes(out)
        out += data


def _burst(rng: random.Random, n: int) -> bytes:
    """``n`` encoded version and peek frames; each makes two sniff
    records, its echo and one answer."""
    frames = []
    for kind in rng.choices(("version", "peek"), k=n):
        if kind == "version":
            frames.append(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame())
        else:
            address = ARM_BASE + rng.randrange(0x1000)
            frames.append(H4Frame.diag(build_diag(MemoryPeek(MemAccessType.ARM, address))))
    return b"".join(encode_frame(f) for f in frames)


def _records(sniff: socket.socket, decoder: SniffStreamDecoder, n: int) -> bytes:
    """The next ``n`` non-probe records of a sniff stream, re-encoded."""
    sniff.settimeout(5.0)
    records: list[bytes] = []
    while len(records) < n:
        records += [
            encode_sniff_record(d, f)
            for d, f in decoder.feed(sniff.recv(1 << 16))
            if f.h4_type is not H4Type.MSG_QUEUE_PUT
        ]
    assert len(records) == n
    return b"".join(records)


class TestSniffFanout:
    def test_records_in_order_and_a_stalled_client_is_cut_off(self):
        watched: list[bool] = []
        fanout = _SniffFanout(watched.append)
        pairs = [socket.socketpair() for _ in range(2)]
        try:
            for sock in (s for pair in pairs for s in pair):
                sock.setblocking(False)
            (drained, drained_peer), (stalled, stalled_peer) = pairs
            fanout.attach(drained)
            fanout.attach(stalled)
            first = [struct.pack("<I", i) * 16 for i in range(10)]
            for record in first:
                fanout.publish(record)
            assert fanout.flush() == []
            assert _drain(drained_peer) == _drain(stalled_peer) == b"".join(first)

            # The stalled peer never reads again; the other drains after
            # every few records, as the loop's passes would.  Whatever
            # the kernel buffers, the stalled backlog passes the bound.
            sent, got = bytearray(), bytearray()
            i = 0
            while stalled in fanout._offsets:
                assert len(sent) < 2 * SNIFF_BACKLOG_MAX
                record = struct.pack("<I", i) * 256
                fanout.publish(record)
                sent += record
                i += 1
                if i % 7 == 0:
                    left = fanout.flush()
                    assert drained not in left
                    got += _drain(drained_peer)
            assert len(sent) > SNIFF_BACKLOG_MAX
            fanout.flush()
            got += _drain(drained_peer)
            assert got == sent
            assert fanout.dropped == 1
            # Its socket was shut down: the peer reads a prefix, then EOF.
            stalled_peer.setblocking(True)
            stalled_peer.settimeout(2.0)
            prefix = bytearray()
            while data := stalled_peer.recv(1 << 16):
                prefix += data
            assert prefix and sent.startswith(prefix)
            assert watched == [True]
            fanout.detach(drained)
            assert not fanout._offsets
            assert watched == [True, False]  # the first attach, the last detach
        finally:
            for pair in pairs:
                for sock in pair:
                    sock.close()

    def test_four_sniff_clients_and_two_injectors_get_the_same_bytes(self, served_world):
        """Two inject connections each send 256-frame bursts at once;
        all four sniff clients get the same records in the same order."""
        _world, server = served_world
        sniff_port, inject_port = server.port_map()["A"]
        rng = random.Random(0x4C2)
        bursts = [_burst(rng, 256) for _ in range(4)]
        injects = [socket.create_connection(("127.0.0.1", inject_port)) for _ in range(2)]
        sniffs = [socket.create_connection(("127.0.0.1", sniff_port)) for _ in range(4)]
        try:
            decoders = [SniffStreamDecoder() for _ in sniffs]
            for sniff, decoder in zip(sniffs, decoders):
                _await_subscription(injects[0], sniff, decoder)

            def send(inject: socket.socket, mine: list[bytes]) -> None:
                for burst in mine:
                    inject.sendall(burst)

            senders = [
                threading.Thread(target=send, args=(inject, bursts[i::2]))
                for i, inject in enumerate(injects)
            ]
            for thread in senders:
                thread.start()
            got = [_records(sniff, decoder, 2 * 256 * 4) for sniff, decoder in zip(sniffs, decoders)]
            for thread in senders:
                thread.join(timeout=10.0)
        finally:
            for sock in injects + sniffs:
                sock.close()
        assert not any(thread.is_alive() for thread in senders)
        assert got[1:] == got[:1] * 3
        assert server.endpoints["A"].fanout.dropped == 0

    def test_two_clients_get_the_bytes_of_one(self, served_world):
        """A 256-frame burst reaches each of two sniff clients as the
        same bytes a single client receives."""
        _world, server = served_world
        sniff_port, inject_port = server.port_map()["A"]
        rng = random.Random(0xFA00)
        frames = []
        for kind in rng.choices(("version", "peek", "dump"), k=256):
            address = ARM_BASE + rng.randrange(0x1000)
            if kind == "version":
                frames.append(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame())
            elif kind == "peek":
                frames.append(H4Frame.diag(build_diag(MemoryPeek(MemAccessType.ARM, address))))
            else:
                frames.append(H4Frame.diag(build_diag(MemoryHexdump(address))))
        burst = b"".join(encode_frame(f) for f in frames)

        def run(clients: int) -> list[bytes]:
            inject = socket.create_connection(("127.0.0.1", inject_port))
            sniffs = [socket.create_connection(("127.0.0.1", sniff_port)) for _ in range(clients)]
            try:
                decoders = [SniffStreamDecoder() for _ in sniffs]
                for sniff, decoder in zip(sniffs, decoders):
                    _await_subscription(inject, sniff, decoder)
                inject.sendall(burst)
                out = []
                for sniff, decoder in zip(sniffs, decoders):
                    sniff.settimeout(5.0)
                    records = []
                    while len(records) < 2 * len(frames):
                        records += [
                            encode_sniff_record(d, f)
                            for d, f in decoder.feed(sniff.recv(4096))
                            if f.h4_type is not H4Type.MSG_QUEUE_PUT
                        ]
                    out.append(b"".join(records))
                return out
            finally:
                for sock in [inject] + sniffs:
                    sock.close()

        (single,) = run(1)
        assert run(2) == [single, single]


def _logged_world() -> tuple:
    """TOPOLOGY with link-layer logging on at both ends, behind an
    unstarted server whose handlers this thread calls as the loop would."""
    world = build_world(TOPOLOGY)
    for name in world.order:
        world[name].diag_log_enabled = True
    return world, unstarted_server(world)


def _attach_sniff(server: EmulatorServer, name: str) -> socket.socket:
    """A sniff client of controller ``name``, accepted by this thread."""
    listener = server.endpoints[name]._sniff_sock
    client = socket.create_connection(listener.getsockname(), timeout=5.0)
    server._selector.get_key(listener).data(listener, selectors.EVENT_READ)
    return client


def _detach_sniff(server: EmulatorServer, name: str, client: socket.socket) -> None:
    """Close ``client`` and run its server end's read handler, which sees
    the end of the stream."""
    fanout = server.endpoints[name].fanout
    (served,) = [s for s in fanout._offsets if s.getpeername() == client.getsockname()]
    _reset([client])
    server._sniff_ready(fanout, served, selectors.EVENT_READ)


def _logged_cycle(server: EmulatorServer, transport: str) -> None:
    """Connect A to B and disconnect, then flush every fan-out."""
    a, b = server.world["A"], server.world["B"]
    handle = connect_pair(a, b, transport)
    a.process_host_frame(
        HciCommand(hci.OPCODE_DISCONNECT, struct.pack("<HB", handle, 0x13)).to_frame()
    )
    for endpoint in server.endpoints.values():
        endpoint.fanout.flush()


def _read_cycle(sniff: socket.socket) -> bytes:
    """One logged cycle's sniff records, read up to the Disconnection
    Complete that ends the cycle at either end."""
    decoder, stream = SniffStreamDecoder(), b""
    while True:
        data = sniff.recv(1 << 16)
        assert data, "sniff stream ended"
        stream += data
        records = decoder.feed(data)
        if records and records[-1][1].h4_type is H4Type.HCI_EVENT \
                and records[-1][1].payload[0] == hci.EVT_DISCONNECTION_COMPLETE:
            return stream


class TestTapFollowsSniffClients:
    """An endpoint taps its controller only while a sniff client is
    attached, so a served controller nobody sniffs logs for no one."""

    def test_unobserved_peer_builds_no_log_records(self, monkeypatch):
        built: list = []
        for cls in (diag.LmpLogRecord, diag.LcpLogRecord):
            def to_frame(record, _original=cls.to_frame):
                built.append(record)
                return _original(record)
            monkeypatch.setattr(cls, "to_frame", to_frame)
        world, server = _logged_world()
        a, b = world["A"], world["B"]
        sniff = _attach_sniff(server, "A")
        try:
            stream = b""
            for transport in ("classic", "le"):
                _logged_cycle(server, transport)
                stream += _read_cycle(sniff)
        finally:
            _reset([sniff])
            server.stop()
        records = SniffStreamDecoder().feed(stream)
        assert b.diag_log_enabled and b._taps == []
        # A record names the other end: B's would name A.
        peers = [r.full_mac if isinstance(r, diag.LcpLogRecord) else r.low_mac for r in built]
        assert set(peers) == {b.mac, hci.low_mac(b.mac)}
        logged = [f for _d, f in records if f.h4_type is H4Type.DIAG]
        assert logged and len(logged) == len(built)

    def test_a_client_attached_mid_run_gets_the_whole_cycle(self):
        def run(attach_at: int) -> tuple[list[bytes], int]:
            world, server = _logged_world()
            sniffs = [_attach_sniff(server, "A")]
            streams = []
            try:
                for cycle, transport in enumerate(("classic", "le", "classic", "le")):
                    if cycle == attach_at:
                        sniffs.append(_attach_sniff(server, "B"))
                    _logged_cycle(server, transport)
                    streams.append(_read_cycle(sniffs[1]) if len(sniffs) > 1 else b"")
                return streams, world["B"].clock
            finally:
                _reset(sniffs)
                server.stop()

        throughout, late = run(attach_at=0), run(attach_at=2)
        assert late[0][:2] == [b"", b""]
        assert late[0][2:] == throughout[0][2:]
        assert late[1] == throughout[1]  # the same ticks
        for stream in late[0][2:]:
            frames = [f for _d, f in SniffStreamDecoder().feed(stream)]
            assert sum(f.h4_type is H4Type.DIAG for f in frames) >= 3

    def test_last_detach_and_cut_off_remove_the_tap(self):
        world, server = _logged_world()
        endpoint, controller = server.endpoints["A"], world["A"]
        stalled, stalled_peer = socket.socketpair()
        try:
            first, second = _attach_sniff(server, "A"), _attach_sniff(server, "A")
            assert controller._taps == [endpoint._tap]  # one tap for any number of clients
            _detach_sniff(server, "A", first)
            assert controller._taps == [endpoint._tap]
            _detach_sniff(server, "A", second)
            assert controller._taps == []
            # A client that stops reading is cut off past the bound.
            stalled.setblocking(False)
            endpoint.fanout.attach(stalled)
            assert controller._taps == [endpoint._tap]
            endpoint.fanout.publish(bytes(2 * SNIFF_BACKLOG_MAX))
            assert endpoint.fanout.flush() == []
            assert endpoint.fanout.dropped == 1
            assert controller._taps == []
        finally:
            stalled.close()
            stalled_peer.close()
            server.stop()

    def test_stop_without_clients_is_safe(self):
        world, server = _logged_world()
        assert all(world[name]._taps == [] for name in world.order)
        for endpoint in server.endpoints.values():
            endpoint.stop()
        server.stop()
        assert all(world[name]._taps == [] for name in world.order)


class TestServerLoop:
    def test_one_thread_serves_every_client(self):
        server = unstarted_server(build_world(TOPOLOGY))
        before = threading.active_count()
        server.start()
        socks = []
        try:
            assert threading.active_count() == before + 1
            version = encode_frame(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame())
            for name in ("A", "B"):
                sniff_port, inject_port = server.port_map()[name]
                for _ in range(3):
                    inject = socket.create_connection(("127.0.0.1", inject_port))
                    sniff = socket.create_connection(("127.0.0.1", sniff_port))
                    socks += [inject, sniff]
                    decoder = SniffStreamDecoder()
                    _await_subscription(inject, sniff, decoder)
                    inject.sendall(version)
                    _records(sniff, decoder, 2)
            assert threading.active_count() == before + 1
        finally:
            for sock in socks:
                sock.close()
            server.stop()
        assert threading.active_count() == before

    def test_connect_bursts_are_accepted_at_once(self, served_world):
        """Back-to-back connects to one inject port each complete well
        inside the kernel's 1 s SYN retry."""
        _world, server = served_world
        _sniff_port, inject_port = server.port_map()["A"]
        for _round in range(3):
            socks = []
            try:
                for _ in range(80):
                    start = time.monotonic()
                    socks.append(socket.create_connection(("127.0.0.1", inject_port), timeout=2.0))
                    assert time.monotonic() - start < 0.5
            finally:
                _reset(socks)
            # Connections are accepted in order, so an answered session
            # means the loop has taken this whole burst off the queue.
            session = _session(server, "A")
            try:
                assert session.execute("version")[0]
            finally:
                session.close()

    def test_one_wake_accepts_the_whole_listen_queue(self):
        """Three rounds of 200 connects to one inject port, with no wait
        between rounds, each finish well inside the kernel's 1 s SYN
        retry.  The test wakes the accept handler itself, once after each
        100 connects, so the kernel's listen backlog of 128 overflows
        unless one wake accepts every queued connection; with the loop
        thread running instead, when it wakes depends on the scheduler."""
        server = unstarted_server(build_world(TOPOLOGY))
        listener = server.endpoints["A"]._inject_sock
        wake = server._selector.get_key(listener).data
        try:
            for _round in range(3):
                socks = []
                start = time.monotonic()
                try:
                    for _ in range(2):
                        for _ in range(100):
                            socks.append(socket.create_connection(listener.getsockname(), timeout=1.5))
                        wake(listener, selectors.EVENT_READ)
                    elapsed = time.monotonic() - start
                finally:
                    _reset(socks)
                assert elapsed < 0.5
        finally:
            server.stop()

    def test_an_idle_emulator_takes_connect_bursts(self):
        """Three rounds of 200 back-to-back connects to a ``bcmdiag-emu``
        child left idle, each round well inside the kernel's 1 s SYN
        retry.  An idle loop can wake after the whole burst is queued, so
        the listen backlog must hold it; Python's default of 128 did not."""
        base = free_base_port(2)
        src = os.path.dirname(os.path.dirname(bcmdiag.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "bcmdiag.emulator.server", "--base-port", str(base)],
            stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
        )
        try:
            _read_until(proc, bytearray(), rb"inject 127\.0\.0\.1:\d+", time.monotonic() + 20.0)
            for _round in range(3):
                time.sleep(0.5)  # idle, as between a benchmark's rounds
                socks = []
                start = time.monotonic()
                try:
                    for _ in range(200):
                        socks.append(socket.create_connection(("127.0.0.1", base + 1), timeout=2.0))
                    elapsed = time.monotonic() - start
                finally:
                    _reset(socks)
                assert elapsed < 0.5
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()

    def test_test_command_leaves_the_loop_serving(self, served_world):
        _world, server = served_world
        session = _session(server, "A")
        try:
            ok, lines = session.execute("test")
            assert ok, lines
            assert server._thread.is_alive()
            assert session.execute("version")[0]
        finally:
            session.close()

    def test_in_process_session_records_reach_sniff_clients(self, served_world):
        """Frames a session in this process runs through a served
        controller leave for its sniff clients without waiting for
        socket traffic to wake the loop."""
        world, server = served_world
        sniff_port, inject_port = server.port_map()["A"]
        with socket.create_connection(("127.0.0.1", inject_port)) as inject, \
                socket.create_connection(("127.0.0.1", sniff_port)) as sniff:
            decoder = SniffStreamDecoder()
            _await_subscription(inject, sniff, decoder)
            session = LocalSession(world, "A")
            try:
                assert session.execute("version")[0]
                _records(sniff, decoder, 2)
            finally:
                session.close()

    def test_random_bytes_close_only_that_connection(self, served_world):
        _world, server = served_world
        session = _session(server, "A")
        _sniff_port, inject_port = server.port_map()["A"]
        junk = random.Random(0x1D1E).randbytes(1 << 20)
        try:
            with socket.create_connection(("127.0.0.1", inject_port)) as inject:
                try:
                    inject.sendall(junk)
                except OSError:
                    pass  # closed by the server part way through
                inject.settimeout(5.0)
                try:
                    assert inject.recv(1) == b""
                except ConnectionResetError:
                    pass
            ok, lines = session.execute("version")
            assert ok, lines
        finally:
            session.close()

    def test_a_failing_frame_is_noted_and_serving_goes_on(self, served_world, monkeypatch):
        world, server = served_world
        calls = []
        original, lengths = Controller._HCI_HANDLERS[hci.OPCODE_READ_LOCAL_VERSION]

        def fail_once(controller, cmd):
            calls.append(controller.name)
            if len(calls) == 1:
                raise InvariantViolation("injected fault")
            original(controller, cmd)

        monkeypatch.setitem(
            Controller._HCI_HANDLERS, hci.OPCODE_READ_LOCAL_VERSION, (fail_once, lengths)
        )
        sessions = {name: _session(server, name) for name in ("A", "B")}
        try:
            sessions["A"].default_timeout = 0.3
            ok, lines = sessions["A"].execute("version")
            assert not ok and "timeout" in lines[0]
            assert "host frame failed: injected fault" in world["A"].audit[-1]
            sessions["A"].default_timeout = 2.0
            for name, session in sessions.items():
                start = time.monotonic()
                ok, lines = session.execute("version")
                assert ok, (name, lines)
                assert time.monotonic() - start < 1.0
        finally:
            for session in sessions.values():
                session.close()


def _is_probe(frame: H4Frame, nonce: bytes) -> bool:
    return frame.h4_type is H4Type.MSG_QUEUE_PUT and frame.payload.startswith(nonce)


def _await_subscription(inject, sniff, decoder) -> bytes:
    """Send opaque message-queue probes until one echoes back on the
    sniff stream, so the subscription is known to be live; returns the
    probes' nonce (later echoes of earlier probes may still arrive)."""
    nonce = os.urandom(8)
    probe = encode_frame(H4Frame.diag(nonce, h4_type=H4Type.MSG_QUEUE_PUT))
    sniff.settimeout(0.1)
    for _attempt in range(50):
        inject.sendall(probe)
        try:
            records = decoder.feed(sniff.recv(4096))
        except socket.timeout:
            continue
        if any(_is_probe(f, nonce) for _d, f in records):
            return nonce
    pytest.fail("sniff stream never echoed the probe")


class _FakeController:
    """Inject/sniff listener pair that echoes an attach probe, then
    writes ``garbage`` to the sniff stream when told to.  The first
    ``lost_probes`` probes get no echo, as when a server has not yet
    wired its sniff subscriber up."""

    def __init__(self, garbage: bytes, lost_probes: int = 0):
        self.garbage = garbage
        self.lost_probes = lost_probes
        self.inject_srv = socket.create_server(("127.0.0.1", 0))
        self.sniff_srv = socket.create_server(("127.0.0.1", 0))
        self.send_garbage = threading.Event()
        self.conns: list[socket.socket] = []
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    @property
    def endpoints(self):
        return self.inject_srv.getsockname(), self.sniff_srv.getsockname()

    def _serve(self) -> None:
        inject, _ = self.inject_srv.accept()
        sniff, _ = self.sniff_srv.accept()
        self.conns += [inject, sniff]
        decoder, probes = H4StreamDecoder(), []
        while len(probes) <= self.lost_probes:
            probes += decoder.feed(inject.recv(4096))
        probe = probes[self.lost_probes]
        sniff.sendall(bytes([Direction.HOST_TO_CONTROLLER]) + encode_frame(probe))
        self.send_garbage.wait(5.0)
        sniff.sendall(self.garbage)

    def close(self) -> None:
        for sock in self.conns + [self.inject_srv, self.sniff_srv]:
            sock.close()


class TestAttach:
    def test_lost_first_probe_costs_milliseconds(self):
        fake = _FakeController(b"", lost_probes=1)
        inject, sniff = fake.endpoints
        try:
            t0 = time.monotonic()
            session = SocketSession(inject, sniff, color=False, out=io.StringIO())
            elapsed = time.monotonic() - t0
            session.close()
        finally:
            fake.send_garbage.set()
            fake.thread.join(timeout=5.0)
            fake.close()
        assert not fake.thread.is_alive()
        assert elapsed < 0.05, elapsed


class TestSniffStreamErrors:
    @pytest.mark.parametrize(
        "garbage, reason",
        [
            (b"\x02\x04\x0e", "unknown direction octet 0x02"),
            (b"\x01\xff\x00", "unknown H4 type 0xff"),
        ],
    )
    def test_undecodable_stream_fails_commands_at_once(self, garbage, reason):
        fake = _FakeController(garbage)
        inject, sniff = fake.endpoints
        out = io.StringIO()
        session = SocketSession(inject, sniff, color=False, out=out)
        try:
            fake.send_garbage.set()
            with pytest.raises(SessionError, match=reason):
                session.wait_frame(lambda _f: False, 2.0)
            assert reason in out.getvalue()
            t0 = time.monotonic()
            ok, lines = session.execute("version")
            assert time.monotonic() - t0 < 0.5
            assert not ok
            assert len(lines) == 1 and reason in lines[0]
        finally:
            session.close()
            fake.close()


class TestLiveView:
    def test_lines_preserve_count_and_order(self, served_world):
        """10^4 frames replayed through the sniff stream render as 10^4
        lines in tap order."""
        _world, server = served_world
        sniff_port, inject_port = server.port_map()["A"]

        lines: list[str] = []

        class _Collector(io.StringIO):
            def write(self, text):
                if text.strip():
                    lines.append(text.strip())
                return len(text)

        session = SocketSession(
            ("127.0.0.1", inject_port),
            ("127.0.0.1", sniff_port),
            color=False,
            out=_Collector(),
        )
        session.live_view = True
        try:
            blast = encode_frame(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame()) * 5000
            session._inject_sock.sendall(blast)
            deadline = time.monotonic() + 30.0
            while len(lines) < 10_000 and time.monotonic() < deadline:
                session.wait_frame(lambda _f: False, 0.05)
            assert len(lines) == 10_000
            # Strict alternation: each command is followed by its
            # completion, order preserved end to end.
            for index, line in enumerate(lines):
                if index % 2 == 0:
                    assert "HCI cmd" in line, index
                else:
                    assert "Command_Complete" in line, index
        finally:
            session.close()

    def test_timestamps_match_the_capture(self, served_world, tmp_path):
        """A capture started mid-session restarts the tick count, and
        the live view shows the same timestamps as the capture file."""
        _world, server = served_world
        out = io.StringIO()
        session = _session(server, "A", out=out)
        session.live_view = True
        path = tmp_path / "live.pcapng"
        try:
            assert session.execute("version")[0]
            assert session.execute(f"capture start {path}")[0]
            for line in ("version", f"peek arm 0x{ARM_BASE:x}", f"dump 0x{ARM_BASE:x}"):
                assert session.execute(line)[0]
            assert session.execute("capture stop")[0]
        finally:
            session.close()
        lines = out.getvalue().splitlines()
        _ifaces, packets = read_pcapng(str(path))
        assert len(lines) == 2 + len(packets) == 8
        assert [int(line.split()[0]) for line in lines[2:]] == [ts for _i, ts, _d in packets]

    def test_peer_connect_renders_setup_sequence(self, served_world):
        _world, server = served_world
        lines: list[str] = []

        class _Collector(io.StringIO):
            def write(self, text):
                if text.strip():
                    lines.append(text.strip())
                return len(text)

        sniff_b, inject_b = server.port_map()["B"]
        watcher = SocketSession(
            ("127.0.0.1", inject_b), ("127.0.0.1", sniff_b), color=False, out=_Collector()
        )
        watcher.live_view = True
        operator = _session(server, "A")
        try:
            watcher.execute("diag on")
            _barrier(watcher)
            ok, _ = operator.execute("connect 00:11:22:33:44:02")
            assert ok
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                if any("LMP_setup_complete" in line for line in lines):
                    break
                watcher.wait_frame(lambda _f: False, 0.05)
            text = "\n".join(lines)
            for name in ("LMP_features_req", "LMP_host_connection_req", "LMP_setup_complete"):
                assert name in text
        finally:
            watcher.close()
            operator.close()

    def test_no_traffic_no_output(self, served_world):
        _world, server = served_world
        lines: list[str] = []

        class _Collector(io.StringIO):
            def write(self, text):
                if text.strip():
                    lines.append(text.strip())
                return len(text)

        session = SocketSession(
            ("127.0.0.1", server.port_map()["A"][1]),
            ("127.0.0.1", server.port_map()["A"][0]),
            color=False,
            out=_Collector(),
        )
        session.live_view = True
        try:
            assert session.wait_frame(lambda _f: False, 0.3) is None
            assert lines == []
        finally:
            session.close()


class TestStreamLoss:
    def test_session_survives_server_stop(self, served_world):
        _world, server = served_world
        session = _session(server, "A")
        try:
            assert session.execute("version")[0]
            server.stop()
            time.sleep(0.4)
            ok, lines = session.execute("version")
            assert not ok
            assert lines  # a visible error, not a crash
        finally:
            session.close()


def _read_until(proc: subprocess.Popen, out: bytearray, pattern: bytes, deadline: float) -> None:
    """Read ``proc``'s stdout into ``out`` until the regex ``pattern``
    matches it."""
    fd = proc.stdout.fileno()
    while not re.search(pattern, out):
        left = deadline - time.monotonic()
        assert left > 0, f"no {pattern!r} in {bytes(out)!r}"
        if select.select([fd], [], [], left)[0]:
            chunk = os.read(fd, 4096)
            assert chunk, f"output ended without {pattern!r}: {bytes(out)!r}"
            out += chunk


# Ticks count the prompt session's own records: its version and peek,
# the other session's poke while the prompt idles, then its second peek.
REPL_TRANSCRIPT = """\
bcmdiag client; 'help' lists commands, 'quit' leaves
bcmdiag>          0 us >> HCI cmd Read_Local_Version_Information -
       625 us << HCI evt Command_Complete 01011000090010090f000922
hci 9.0x1000 lmp 9.0x2209 manufacturer 0x000f
bcmdiag>       1250 us >> DIAG peek arm 0x00200000
      1875 us << DIAG peek -> status=0 value=0x42
0x00200000 = 0x42
bcmdiag>       2500 us >> DIAG poke arm 0x00200000 = 0x5a
      3125 us << DIAG poke -> status=0
      3750 us >> DIAG peek arm 0x00200000
      4375 us << DIAG peek -> status=0 value=0x5a
0x00200000 = 0x5a
bcmdiag> 
"""


class TestRepl:
    def test_answers_and_live_lines_in_order(self, served_world):
        """Two commands in one write to the prompt, then traffic from a
        second session while the prompt idles, then one more command:
        every answer and every live line, in order; EOF exits 0."""
        _world, server = served_world
        sniff_port, inject_port = server.port_map()["A"]
        # Attached first, so its attach probes are not on the prompt's view.
        other = _session(server, "A")
        path = [os.path.dirname(os.path.dirname(bcmdiag.__file__)), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "bcmdiag.cli", "--no-color",
                "--inject", f"127.0.0.1:{inject_port}", "--sniff", f"127.0.0.1:{sniff_port}",
            ],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )
        out = bytearray()
        deadline = time.monotonic() + 20.0
        try:
            os.write(proc.stdin.fileno(), b"version\npeek arm 0x200000\n")
            _read_until(proc, out, rb"0x00200000 = 0x42\nbcmdiag> $", deadline)
            assert other.execute("poke arm 0x200000 5a")[0]
            _read_until(proc, out, rb"<< DIAG poke.*\n$", deadline)
            os.write(proc.stdin.fileno(), b"peek arm 0x200000\n")
            _read_until(proc, out, rb"0x00200000 = 0x5a\nbcmdiag> $", deadline)
            proc.stdin.close()
            assert proc.wait(timeout=10.0) == 0
            out += proc.stdout.read()
        finally:
            other.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        assert out.decode() == REPL_TRANSCRIPT


class TestBatchMode:
    def test_clean_script_exits_zero(self, served_world, tmp_path):
        _world, server = served_world
        script = tmp_path / "ok.script"
        script.write_text("version\ndiag on\npeek arm 0x200000\n")
        session = _session(server, "A")
        out = io.StringIO()
        try:
            assert run_batch(session, str(script), out=out) == 0
        finally:
            session.close()

    def test_controller_error_exits_nonzero(self, served_world, tmp_path):
        _world, server = served_world
        script = tmp_path / "bad.script"
        script.write_text("peek arm 0xdead0000\n")
        session = _session(server, "A")
        out = io.StringIO()
        try:
            assert run_batch(session, str(script), out=out) == 1
            assert "peek failed" in out.getvalue()
        finally:
            session.close()

    def test_scenario_lines_filtered_by_name(self, served_world, tmp_path):
        _world, server = served_world
        script = tmp_path / "named.script"
        script.write_text(
            "controller X mac=00:00:00:00:00:99\n"  # emulator directive
            "A: version\n"
            "B: version\n"
        )
        session = _session(server, "A", name="A")
        out = io.StringIO()
        try:
            code = run_batch(session, str(script), out=out)
            text = out.getvalue()
            assert code == 0
            assert "skipped emulator directive" in text
            assert "skipped (for controller 'B')" in text
            assert "manufacturer" in text
        finally:
            session.close()


class TestStartUp:
    def test_emulator_and_client_import_no_dataclasses_inspect_or_json(self):
        """Every bcmdiag-emu and bcmdiag client starts in a fresh
        interpreter; ``dataclasses`` alone pulls in ``inspect``, ``ast``,
        ``dis`` and ``tokenize`` there, and nothing on the start-up path
        needs them or ``json``."""
        src = os.path.dirname(os.path.dirname(bcmdiag.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys, bcmdiag.emulator.server, bcmdiag.cli\n"
            "print(*sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == []
