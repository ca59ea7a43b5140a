"""The three workloads: input generation from the seed, the closed-loop
client for each, and the output checks.

A run is a sequence of rounds.  Each round starts a fresh emulator
child, attaches one client, runs a fixed number of operations drawn
from the seed and stops the child.  Rounds repeat until the run's time
budget is spent.  Every round of a workload runs the same number and
mix of operations, so per-round figures are comparable between runs
and commits.
"""

from __future__ import annotations

import os
import random
import re
import socket
import struct
import time
from array import array
from dataclasses import dataclass, field

from bcmdiag import hci
from bcmdiag.capture import SniffStreamDecoder
from bcmdiag.cli import SocketSession
from bcmdiag.diag import DiagCode, MemAccessType, MemoryHexdump, MemoryPeek, build_diag
from bcmdiag.errors import BcmDiagError, SessionError
from bcmdiag.h4 import Direction, H4Frame, H4Type, HciCommand, decode_stream, encode_frame

from emulator import EmulatorChild, EmulatorError

OP_TIMEOUT_S = 5.0
MAX_CONSECUTIVE_FAILURES = 3
MAX_ERRORS_KEPT = 10

# Synthetic memory map of the default image (bcmdiag.emulator.memory).
ARM_BASE = 0x00200000
ARM_SIZE = 256 * 1024
BLUERF_SIZE = 4 * 1024


class _Discard:
    """Output sink for the live view."""

    def write(self, _text: str) -> int:
        return 0

    def flush(self) -> None:
        pass


class BenchSession(SocketSession):
    """SocketSession that counts the sniff records it decodes."""

    def __init__(self, *args, **kwargs) -> None:
        self.records = 0
        super().__init__(*args, **kwargs)

    def record_frame(self, direction: Direction, frame: H4Frame) -> None:
        self.records += 1
        super().record_frame(direction, frame)


class CheckFailed(Exception):
    pass


@dataclass
class RoundResult:
    setup_s: float = 0.0
    # array, not list: 8 octets a sample, so the client's peak RSS
    # hardly depends on how many ops a run fitted in
    latencies_s: array = field(default_factory=lambda: array("d"))
    op_time_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    records: int = 0
    emu_rss_mb: float = 0.0
    capture_write_s: float = 0.0
    client_cpu_s: float = 0.0  # this process, all threads, during the timed ops
    emu_cpu_s: float = 0.0  # the emulator child over the op loop
    errors: list[str] = field(default_factory=list)
    aborted: bool = False


def count_pcapng_packets(path: str) -> int:
    """Enhanced packet blocks in a pcapng file, walked block by block."""
    with open(path, "rb") as fh:
        data = fh.read()
    offset = packets = 0
    while offset + 12 <= len(data):
        block_type, length = struct.unpack_from("<II", data, offset)
        if length < 12 or offset + length > len(data):
            raise CheckFailed(f"pcapng block at {offset} is truncated")
        packets += block_type == 6
        offset += length
    if offset != len(data):
        raise CheckFailed("pcapng file has trailing octets")
    return packets


# What ends a round early; the ops it did not run count as failed.
SETUP_ERRORS = (CheckFailed, SessionError, EmulatorError, OSError)


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Workload:
    """One round: start the emulator, attach, run ``ops_per_round``
    operations, check, stop.  Subclasses generate the inputs and run
    the operations."""

    name = ""
    controllers = 1
    ops_per_round = 0

    def __init__(self, root: str, workdir: str, seed: int, ops_per_round: int | None = None):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        if ops_per_round is not None:
            self.ops_per_round = ops_per_round
        self.client_tracing = None  # set by the runner in traced rounds

    def round_rng(self, index: int) -> random.Random:
        """The generator of round ``index``'s inputs.  The seed fixes the
        inputs of every round, and each round draws its own: a run's
        per-round medians then average over many draws, so how one draw
        falls (for ll_logging, the order of the connects) moves them
        little."""
        return random.Random(f"{self.seed}:{index}")

    def scenario(self) -> str | None:
        return None

    def _start(self, child: EmulatorChild) -> tuple[BenchSession, float]:
        """Start the child and attach a session that has answered one
        ``version``; returns the session and the seconds this took."""
        t0 = time.monotonic()
        child.start()
        inject, sniff = child.endpoint(child.order[0])
        session = BenchSession(inject, sniff, color=False, out=_Discard(), name=child.order[0])
        try:
            session.default_timeout = OP_TIMEOUT_S
            ok, lines = session.execute("version")
            elapsed = time.monotonic() - t0
            _check(ok and _version_ok(lines), f"setup version answered {lines!r}")
        except BaseException:
            session.close()
            raise
        return session, elapsed

    def probe_setup(self) -> float:
        """Set-up time of one emulator that then stops without work."""
        child = EmulatorChild(self.root, self.workdir, self.controllers, scenario=self.scenario())
        try:
            session, elapsed = self._start(child)
            session.close()
        finally:
            child.stop()
        return elapsed

    def run_round(self, index: int, trace_dir: str | None) -> RoundResult:
        result = RoundResult()
        round_dir = os.path.join(self.workdir, f"round-{index}")
        os.makedirs(round_dir, exist_ok=True)
        inputs = self.make_inputs(index)
        child = EmulatorChild(
            self.root, round_dir, self.controllers, scenario=self.scenario(), trace_dir=trace_dir
        )
        session = None
        try:
            if self.client_tracing is not None:
                self.client_tracing.new_stream()
            session, result.setup_s = self._start(child)
            self.run_ops(child, session, inputs, round_dir, result)
            result.emu_rss_mb = child.peak_rss_mb()
        except SETUP_ERRORS as exc:
            result.errors.append(f"round {index}: {type(exc).__name__}: {exc}")
            result.aborted = True
        finally:
            if session is not None:
                session.close()
            child.stop()
        result.attempted = max(result.attempted, self.ops_per_round)
        result.failed = result.attempted - len(result.latencies_s)
        return result

    # ----- per-workload hooks -------------------------------------------

    def make_inputs(self, index: int):
        raise NotImplementedError

    def run_ops(self, child, session, inputs, round_dir, result) -> None:
        raise NotImplementedError

    # ----- shared op loop ------------------------------------------------

    def _loop(self, child, inputs, op, result: RoundResult, check) -> None:
        """Closed loop over ``inputs``: time ``op(x)``, then check its
        output outside the timed region.  ``result.op_time_s`` and
        ``result.client_cpu_s`` sum the timed regions only, so the cost
        of checking does not dilute the figures.  Failed ops are counted;
        after MAX_CONSECUTIVE_FAILURES in a row the round ends and the
        ops it did not run count as failed."""
        consecutive = 0
        emu_cpu0 = child.cpu_s()
        for i, item in enumerate(inputs):
            result.attempted += 1
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                try:
                    out = op(item)
                finally:
                    elapsed = time.perf_counter() - t0
                    result.op_time_s += elapsed
                    result.client_cpu_s += time.process_time() - c0
                check(item, out)
            # ValueError and IndexError: output text that does not parse.
            except (CheckFailed, SessionError, BcmDiagError, OSError, ValueError, IndexError) as exc:
                consecutive += 1
                if len(result.errors) < MAX_ERRORS_KEPT:
                    result.errors.append(f"op {i} {item!r:.80}: {type(exc).__name__}: {exc}")
                if consecutive >= MAX_CONSECUTIVE_FAILURES:
                    result.aborted = True
                    break
                continue
            consecutive = 0
            result.latencies_s.append(elapsed)
        result.emu_cpu_s = child.cpu_s() - emu_cpu0


def _shuffled_mix(rng: random.Random, mix, n: int) -> list:
    """``n`` kinds in the proportions of ``mix`` ((kind, weight) pairs),
    in an order drawn from ``rng``.  Fixed proportions keep the work of a
    round the same from seed to seed; the seed sets the order and the
    operands."""
    total = sum(w for _, w in mix)
    kinds = [k for k, w in mix for _ in range(n * w // total)]
    kinds += rng.choices([k for k, _ in mix], [w for _, w in mix], k=n - len(kinds))
    rng.shuffle(kinds)
    return kinds


def _version_ok(lines: list[str]) -> bool:
    """The printed version fields equal hci.local_version_params()."""
    expected = hci.parse_local_version(hci.local_version_params())
    match = re.fullmatch(
        r"hci (\d+)\.(0x[0-9a-f]+) lmp (\d+)\.(0x[0-9a-f]+) manufacturer (0x[0-9a-f]+)",
        lines[0] if lines else "",
    )
    if match is None:
        return False
    got = [int(g, 0) for g in match.groups()]
    return got == [
        expected["hci_version"],
        expected["hci_revision"],
        expected["lmp_version"],
        expected["lmp_subversion"],
        expected["manufacturer"],
    ]


# ----- interactive -----------------------------------------------------------

_STATS_FIRST_LINE = {
    "br": "BR_ACL_STATS:",
    "edr": "EDR_ACL_STATS:",
    "sco": "SCO_STATS:",
    "esco": "ESCO_STATS:",
    "aux": "AUX_RESPONSE:",
    "conn": "CPU_LOAD_RESPONSE:",  # no connections: the CPU load record only
}

# (kind, weight) of the command mix.
_INTERACTIVE_MIX = (
    [("version", 2), ("peek arm", 2), ("peek bluerf", 2), ("poke arm", 2)]
    + [("poke bluerf", 2), ("dump", 2), ("firewall show", 1)]
    + [(f"stats {g}", 1) for g in _STATS_FIRST_LINE]
)
_ARM_WINDOW = 1024  # poked/peeked/dumped ARM bytes share one window


class Interactive(Workload):
    """One controller, default profile, no link, logging off.  An
    operation is one client command line."""

    name = "interactive"
    ops_per_round = 4000

    def make_inputs(self, index: int) -> list[str]:
        rng = self.round_rng(index)
        window = ARM_BASE + rng.randrange(0, ARM_SIZE - _ARM_WINDOW, 32)
        addresses = {
            "arm": [window + rng.randrange(_ARM_WINDOW) for _ in range(64)],
            "bluerf": [rng.randrange(BLUERF_SIZE) for _ in range(32)],
        }
        dumps = [window + rng.randrange(0, _ARM_WINDOW, 32) for _ in range(16)]
        lines = []
        for kind in _shuffled_mix(rng, _INTERACTIVE_MIX, self.ops_per_round):
            if kind.startswith("peek"):
                space = kind.split()[1]
                lines.append(f"{kind} 0x{rng.choice(addresses[space]):x}")
            elif kind.startswith("poke"):
                space = kind.split()[1]
                addr = rng.choice(addresses[space])
                lines.append(f"{kind} 0x{addr:x} 0x{rng.randrange(256):02x}")
            elif kind == "dump":
                lines.append(f"dump 0x{rng.choice(dumps):x}")
            else:
                lines.append(kind)
        return lines

    def run_ops(self, child, session, inputs, round_dir, result) -> None:
        memory: dict[tuple[str, int], int] = {}  # last poked or first seen

        def check(line: str, out) -> None:
            ok, lines = out
            _check(ok and bool(lines), f"command failed: {lines!r}")
            words = line.split()
            if words[0] == "version":
                _check(_version_ok(lines), f"version fields differ: {lines!r}")
            elif words[0] == "peek":
                value = int(lines[0].rsplit("= ", 1)[1], 16)
                key = (words[1], int(words[2], 16))
                _check(memory.setdefault(key, value) == value,
                       f"peek {key} read 0x{value:02x}, expected 0x{memory[key]:02x}")
            elif words[0] == "poke":
                _check("<-" in lines[0], f"poke not acknowledged: {lines!r}")
                memory[(words[1], int(words[2], 16))] = int(words[3], 16)
            elif words[0] == "dump":
                base = int(words[1], 16)
                data = bytes.fromhex("".join(ln.split("  ", 1)[1] for ln in lines))
                _check(len(data) == 32, f"dump returned {len(data)} octets")
                for off, value in enumerate(data):
                    key = ("arm", base + off)
                    _check(memory.setdefault(key, value) == value,
                           f"dump 0x{key[1]:x} read 0x{value:02x}, expected 0x{memory[key]:02x}")
            elif words[0] == "stats":
                _check(lines[-1].startswith(_STATS_FIRST_LINE[words[1]]),
                       f"stats {words[1]} answered {lines!r}")
            else:
                _check(lines[0].startswith("firewall"), f"firewall show answered {lines!r}")

        records0 = session.records
        self._loop(child, inputs, session.execute, result, check)
        result.records = session.records - records0


# ----- ll_logging --------------------------------------------------------------

_CONTROLLER_LINE = re.compile(r"^controller\s+(\S+)\s+mac=(\S+)")


class LlLogging(Workload):
    """The two-chips topology with logging on at both ends.  The client
    attaches to the first controller with the live view and a pcapng
    capture running; an operation is one connect or leconnect to the
    peer followed by an HCI Disconnect."""

    name = "ll_logging"
    controllers = 2
    ops_per_round = 400
    scenario_file = os.path.join("scenarios", "two-chips.scenario")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        with open(os.path.join(self.root, self.scenario_file), encoding="utf-8") as fh:
            macs = [m.group(2) for m in map(_CONTROLLER_LINE.match, fh) if m]
        if len(macs) != 2:
            raise ValueError(f"{self.scenario_file} must declare two controllers")
        self.peer_mac = macs[1]

    def scenario(self) -> str:
        return self.scenario_file

    def make_inputs(self, index: int) -> list[str]:
        rng = self.round_rng(index)
        mix = (("connect", 1), ("leconnect", 1))
        return [f"{kind} {self.peer_mac}" for kind in _shuffled_mix(rng, mix, self.ops_per_round)]

    def run_ops(self, child, session, inputs, round_dir, result) -> None:
        capture_path = os.path.join(round_dir, "ll_logging.pcapng")
        for line in ("live on", f"capture start {capture_path} pcap"):
            ok, lines = session.execute(line)
            _check(ok, f"{line}: {lines!r}")
        records0 = session.records

        def op(line: str):
            ok, lines = session.execute(line)
            match = re.search(r"handle 0x([0-9a-f]{4})", lines[0]) if ok and lines else None
            if match is None:
                raise CheckFailed(f"{line}: {lines!r}")
            handle = int(match.group(1), 16)
            session.send_frame(
                HciCommand(
                    hci.OPCODE_DISCONNECT, struct.pack("<HB", handle, hci.ERR_REMOTE_TERMINATED)
                ).to_frame()
            )
            frame = session.wait_frame(
                lambda f: f.h4_type is H4Type.HCI_EVENT
                and f.payload[0] == hci.EVT_DISCONNECTION_COMPLETE
                and struct.unpack_from("<H", f.payload, 3)[0] == handle,
                OP_TIMEOUT_S,
            )
            if frame is None:
                raise SessionError(f"no Disconnection Complete for handle 0x{handle:04x}")
            return frame

        def check(_line: str, frame: H4Frame) -> None:
            _check(frame.payload[2] == hci.ERR_SUCCESS,
                   f"disconnect status 0x{frame.payload[2]:02x}")

        self._loop(child, inputs, op, result, check)
        if result.aborted:
            result.records = session.records - records0
            return
        # Barrier: every record of the last op is in before the capture stops.
        ok, lines = session.execute("version")
        _check(ok and _version_ok(lines), f"barrier version answered {lines!r}")
        result.records = session.records - records0 - 2  # not the barrier's own two
        t0 = time.perf_counter()
        ok, lines = session.execute("capture stop")
        result.capture_write_s = time.perf_counter() - t0
        _check(ok, f"capture stop: {lines!r}")
        match = re.match(r"wrote (\d+) records", lines[0])
        _check(match is not None, f"capture stop answered {lines!r}")
        captured = int(match.group(1))
        _check(captured == session.records - records0,
               f"capture reports {captured} records, client decoded {session.records - records0}")
        written = count_pcapng_packets(capture_path)
        _check(written == captured, f"pcapng holds {written} packets for {captured} records")


# ----- inject_burst -------------------------------------------------------------

_VERSION_FRAME = encode_frame(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame())
_VERSION_COMPLETE = encode_frame(
    H4Frame(
        H4Type.HCI_EVENT,
        bytes([hci.EVT_COMMAND_COMPLETE, 3 + 9])
        + hci.command_complete(hci.OPCODE_READ_LOCAL_VERSION, hci.local_version_params()),
    )
)
MAX_BURST = 256


@dataclass(frozen=True)
class Burst:
    data: bytes  # the pre-encoded frames, joined
    frames: int

    def __repr__(self) -> str:
        return f"Burst({self.frames} frames)"


class InjectBurst(Workload):
    """One controller, logging off.  An operation is one burst of
    pre-encoded host frames written with one sendall; it completes when
    the echo and the response of every frame are back on the sniff
    stream."""

    name = "inject_burst"
    ops_per_round = MAX_BURST

    def make_inputs(self, index: int):
        """A round sends one burst of each size from 1 to MAX_BURST, in an
        order drawn from the seed, so every round and every seed send the
        same number of frames.  Bursts are drawn one at a time, just
        before they are sent, so the client holds one burst and not the
        round's inputs."""
        rng = self.round_rng(index)
        sizes = [1 + i % MAX_BURST for i in range(self.ops_per_round)]
        rng.shuffle(sizes)
        for size in sizes:
            frames = []
            for kind in rng.choices(("version", "peek", "dump"), k=size):
                if kind == "version":
                    frames.append(_VERSION_FRAME)
                    continue
                if kind == "peek":
                    msg = MemoryPeek(MemAccessType.ARM, ARM_BASE + rng.randrange(ARM_SIZE))
                else:
                    msg = MemoryHexdump(ARM_BASE + rng.randrange(ARM_SIZE - 32))
                frames.append(encode_frame(H4Frame.diag(build_diag(msg))))
            yield Burst(b"".join(frames), len(frames))

    def run_ops(self, child, session, inputs, round_dir, result) -> None:
        # The attach session proved the endpoint; bursts use their own
        # raw pair so the session's reader thread does no work.
        inject_addr, sniff_addr = child.endpoint(child.order[0])
        session.close()
        if self.client_tracing is not None:
            self.client_tracing.new_stream()
        with socket.create_connection(inject_addr, timeout=OP_TIMEOUT_S) as inject, \
                socket.create_connection(sniff_addr, timeout=OP_TIMEOUT_S) as sniff:
            decoder = SniffStreamDecoder()
            self._attach_raw(inject, sniff, decoder)

            def op(burst: Burst):
                inject.sendall(burst.data)
                need = 2 * burst.frames
                got: list = []
                while len(got) < need:
                    data = sniff.recv(4096)
                    if not data:
                        raise SessionError("sniff stream closed")
                    got.extend(decoder.feed(data))
                return got

            def check(burst: Burst, records) -> None:
                _check(len(records) == 2 * burst.frames,
                       f"{len(records)} records for {burst.frames} frames")
                sent_frames, _ = decode_stream(burst.data)
                echoes, responses = records[0::2], records[1::2]
                _check(all(d is Direction.HOST_TO_CONTROLLER for d, _ in echoes)
                       and b"".join(encode_frame(f) for _, f in echoes) == burst.data,
                       "echoes differ from the burst")
                for i, (sent, (d_out, resp)) in enumerate(zip(sent_frames, responses)):
                    _check(d_out is Direction.CONTROLLER_TO_HOST, f"frame {i}: response direction")
                    raw = encode_frame(resp)
                    if sent.h4_type is H4Type.HCI_COMMAND:
                        _check(raw == _VERSION_COMPLETE,
                               f"frame {i}: Command Complete {raw.hex()}")
                    elif sent.payload[0] == DiagCode.MEMORY_PEEK:
                        _check(raw[:3] == bytes([H4Type.DIAG, DiagCode.PEEK_RESPONSE, 0]),
                               f"frame {i}: peek answered {raw[:8].hex()}")
                    else:
                        _check(raw[:6] == bytes([H4Type.DIAG, DiagCode.HEXDUMP_RESPONSE])
                               + sent.payload[2:6], f"frame {i}: hexdump answered {raw[:8].hex()}")
                result.records += len(records)

            self._loop(child, inputs, op, result, check)

    @staticmethod
    def _attach_raw(inject, sniff, decoder) -> None:
        """Probe until the sniff subscription is live, then drain the
        echoes of every probe sent, so the first burst starts clean."""
        nonce = os.urandom(8)
        sent = 0
        seen = -1
        deadline = time.monotonic() + OP_TIMEOUT_S
        sniff.settimeout(0.1)
        while seen < sent - 1 or seen < 0:
            if time.monotonic() > deadline:
                raise SessionError("sniff stream never echoed the attach probe")
            if seen < 0:
                inject.sendall(
                    encode_frame(
                        H4Frame.diag(nonce + struct.pack("<I", sent), h4_type=H4Type.MSG_QUEUE_PUT)
                    )
                )
                sent += 1
            try:
                data = sniff.recv(4096)
            except socket.timeout:
                continue
            if not data:
                raise SessionError("sniff stream closed during attach")
            for _direction, frame in decoder.feed(data):
                if frame.h4_type is not H4Type.MSG_QUEUE_PUT or not frame.payload.startswith(nonce):
                    raise CheckFailed(f"unexpected frame during attach: {frame!r:.80}")
                seen = struct.unpack_from("<I", frame.payload, 8)[0]
        sniff.settimeout(OP_TIMEOUT_S)


WORKLOADS = {w.name: w for w in (Interactive, LlLogging, InjectBurst)}
