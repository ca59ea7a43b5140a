"""Stream servers and the socket client, over real loopback TCP."""

import io
import os
import random
import socket
import struct
import sys
import threading
import time

import pytest

from bcmdiag import hci
from bcmdiag.capture import SniffStreamDecoder, encode_sniff_record
from bcmdiag.cli import SocketSession, run_batch
from bcmdiag.diag import MemAccessType, MemoryHexdump, MemoryPeek, build_diag
from bcmdiag.emulator.memory import ARM_BASE
from bcmdiag.emulator.scenario import build_world
from bcmdiag.emulator.server import SNIFF_BACKLOG_MAX, EmulatorServer, _SniffFanout
from bcmdiag.h4 import Direction, H4Frame, H4Type, HciCommand, decode_one, encode_frame

from helpers import read_pcapng

TOPOLOGY = """\
controller A mac=00:11:22:33:44:01 profile=patched
controller B mac=00:11:22:33:44:02 profile=patched
link A B
"""


def _free_base_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture
def served_world():
    world = build_world(TOPOLOGY)
    server = None
    for _attempt in range(5):
        base = _free_base_port()
        try:
            server = EmulatorServer(world, base_port=base)
            break
        except OSError:
            continue
    assert server is not None, "no free port window"
    server.start()
    try:
        yield world, server
    finally:
        server.stop()


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
        _world, server = served_world
        session = _session(server, "A")
        try:
            session.execute("version")
            assert [encode_frame(f) for f in session.last_emitted] == [
                encode_frame(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame())
            ]
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

    def test_late_answer_of_timed_out_command_is_dropped(self, served_world):
        _world, server = served_world
        session = _session(server, "A")
        try:
            assert session.execute("poke arm 0x200000 11")[0]
            assert session.execute("poke arm 0x200001 22")[0]
            queued = session._queued
            # Holding the session lock keeps the reader from queueing the
            # answer, so the zero-timeout peek is sure to time out.
            with session._cond:
                session.default_timeout = 0.0
                ok, lines = session.execute("peek arm 0x200000")
            session.default_timeout = 2.0
            assert not ok and "timeout" in lines[0]
            deadline = time.monotonic() + 2.0
            while session._queued == queued and time.monotonic() < deadline:
                time.sleep(0.01)
            assert session._queued > queued  # the stale answer is in
            ok, lines = session.execute("peek arm 0x200001")
            assert ok and lines == ["0x00200001 = 0x22"]
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


class TestSniffFanout:
    def test_records_in_order_and_a_stalled_client_is_cut_off(self):
        fanout = _SniffFanout()
        pairs = [socket.socketpair() for _ in range(2)]
        try:
            drained, stalled = pairs[0][0], pairs[1][0]
            fanout.attach(drained)
            fanout.attach(stalled)
            first = [struct.pack("<I", i) * 16 for i in range(10)]
            for record in first:
                fanout.publish(record)
            assert fanout.take(drained, 0) == fanout.take(stalled, 0) == b"".join(first)

            # The stalled subscriber is never drained again; the other
            # takes its backlog every few records.
            sent, got = bytearray(), bytearray()
            i = 0
            while len(sent) <= SNIFF_BACKLOG_MAX + 64 * 1024:
                record = struct.pack("<I", i) * 256
                fanout.publish(record)
                sent += record
                i += 1
                if i % 7 == 0:
                    got += fanout.take(drained, 0)
            got += fanout.take(drained, 0)
            assert got == sent
            assert fanout.take(stalled, 0) is None
            assert fanout.dropped == 1
            pairs[1][1].settimeout(2.0)
            assert pairs[1][1].recv(1) == b""  # its socket was shut down
            fanout.detach(drained)
            fanout.detach(stalled)
            assert not fanout
        finally:
            for pair in pairs:
                for sock in pair:
                    sock.close()

    def test_concurrent_takers_lose_nothing(self):
        """Four senders drain while one thread publishes, with thread
        switches forced often; each gets every record once, in order."""
        fanout = _SniffFanout()
        pairs = [socket.socketpair() for _ in range(4)]
        records = [struct.pack("<I", i) * 4 for i in range(20_000)]
        got = {sock: bytearray() for sock, _peer in pairs}
        published = threading.Event()

        def drain(sock) -> None:
            while True:
                finished = published.is_set()
                data = fanout.take(sock, 0.01)
                got[sock] += data
                if finished and not data:
                    return

        for sock in got:
            fanout.attach(sock)
        takers = [threading.Thread(target=drain, args=(sock,)) for sock in got]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in takers:
                thread.start()
            for record in records:
                fanout.publish(record)
            published.set()
            for thread in takers:
                thread.join(timeout=30.0)
        finally:
            published.set()
            sys.setswitchinterval(interval)
            for pair in pairs:
                for sock in pair:
                    sock.close()
        assert not any(thread.is_alive() for thread in takers)
        assert all(data == b"".join(records) for data in got.values())
        assert fanout.dropped == 0

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
    """Inject/sniff listener pair that echoes the attach probe, then
    writes ``garbage`` to the sniff stream when told to."""

    def __init__(self, garbage: bytes):
        self.garbage = garbage
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
        probe, _used = decode_one(inject.recv(4096))
        sniff.sendall(bytes([Direction.HOST_TO_CONTROLLER]) + encode_frame(probe))
        self.send_garbage.wait(5.0)
        sniff.sendall(self.garbage)

    def close(self) -> None:
        for sock in self.conns + [self.inject_srv, self.sniff_srv]:
            sock.close()


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
            session._reader.join(timeout=2.0)
            assert not session._reader.is_alive()
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
                time.sleep(0.05)
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
                time.sleep(0.05)
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
            time.sleep(0.3)
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
