"""Operator command vocabulary, shared by the interactive client and
the scenario runner.

Each command maps 1:1 onto a codec or emulator operation and emits
exactly the octets the codec builders produce; a session is a pure
client that only influences a controller through the frames it sends.
Addresses and values are hex with an optional ``0x`` prefix, MACs are
colon-separated hex, test parameters are decimal.
"""

from __future__ import annotations

import struct
import time
from collections import deque
from collections.abc import Callable
from functools import partialmethod

from . import capture, hci
from .diag import (
    DiagCode,
    HexdumpResponse,
    MemAccessType,
    MemoryHexdump,
    MemoryPeek,
    MemoryPoke,
    PeekResponse,
    PokeResponse,
    RESPONSE_FOR_REQUEST,
    RunTest,
    StatsRequest,
    StatsResponse,
    TestCompleted,
    TestParams,
    ToggleLmpLogging,
    parse_diag,
)
from .errors import BcmDiagError, SessionError, scenario_lines
from .h4 import SNIFF_PREFIX, Direction, H4Frame, H4Type, HciCommand, HciEvent

USAGE = {
    "diag": "diag on|off",
    "peek": "peek <arm|bluerf> <addr>",
    "poke": "poke <arm|bluerf> <addr> <val>",
    "dump": "dump <addr>",
    "stats": "stats <br|edr|sco|esco|aux|conn> [reset]",
    "test": "test [scenario hop txfreq rxfreq power ptype paylen]   (decimal)",
    "connect": "connect <mac>",
    "leconnect": "leconnect <mac>",
    "sendlmp": "sendlmp <handle> <hex-octets>",
    "firewall": "firewall add|del <mac> | firewall show",
    "scenario": "scenario run <file>",
    "capture": "capture start <path> [pcap|btsnoop] | capture stop",
    "version": "version",
    "live": "live on|off",
}

# Controller-to-host frames a session holds for response matching.
# Every send drops what earlier commands left unconsumed, so the queue
# only ever holds one command's traffic plus what arrived after it.
PENDING_MAX = 1024
UNECHOED_MAX = 64  # sent frames whose echo a session still waits for
SCENARIO_DEPTH_MAX = 8  # `scenario run` files open at once in one session
# Read per frame, so plain names: an enum class read costs about 0.15 us.
_TO_CONTROLLER, _DIAG, _HCI_EVENT = Direction.HOST_TO_CONTROLLER, H4Type.DIAG, H4Type.HCI_EVENT

_ACCESS = {"arm": MemAccessType.ARM, "bluerf": MemAccessType.BLUERF}

_STATS_GETTERS = {
    "br": DiagCode.GET_BR_ACL_STATS,
    "edr": DiagCode.GET_EDR_ACL_STATS,
    "sco": DiagCode.GET_SCO_STATS,
    "esco": DiagCode.GET_ESCO_STATS,
    "aux": DiagCode.GET_AUX_STATS,
    "conn": DiagCode.GET_CONNECTION_STATS,
}
# First octets of the records that answer `stats conn`.
_CONNECTION_STATS = (bytes([DiagCode.CONNECTION_RESPONSE]), bytes([DiagCode.CPU_LOAD_RESPONSE]))
# Octets of each `test` parameter in a RunTest body.
_TEST_OCTETS = (1, 1, 1, 1, 1, 1, 2)

# Per connect command: its opcode, the event (and LE sub-event) that
# completes it, where status and handle start in that event's payload
# past its code and length, and the words of its timeout and success lines.
_CONNECT = {
    "connect": (
        hci.OPCODE_CREATE_CONNECTION, hci.EVT_CONNECTION_COMPLETE, None, 0,
        f"event 0x{hci.EVT_CONNECTION_COMPLETE:02x}", "connected to",
    ),
    "leconnect": (
        hci.OPCODE_LE_CREATE_CONNECTION, hci.EVT_LE_META, hci.LE_SUBEVT_CONNECTION_COMPLETE, 1,
        "LE connection complete", "LE connected to",
    ),
}


# What a command returns: whether it succeeded, and its output lines.
Reply = tuple[bool, list[str]]


class CommandError(Exception):
    """Bad command line; the message is the usage string."""


def _in_range(value: int, what: str, octets: int) -> int:
    """``value``, if it is an unsigned number of ``octets`` octets."""
    if not 0 <= value < 1 << 8 * octets:
        size = "a single octet" if octets == 1 else f"at most {octets} octets"
        raise CommandError(f"{what} is {size}")
    return value


def _hex_int(text: str, what: str, octets: int = 4) -> int:
    try:
        value = int(text.removeprefix("0x"), 16)
    except ValueError:
        raise CommandError(f"{what} must be hex (got {text!r})") from None
    return _in_range(value, what, octets)


def _mac(text: str) -> bytes:
    try:
        return hci.parse_mac(text)
    except ValueError as exc:
        raise CommandError(str(exc)) from None


class Session:
    """One operator attachment to a controller's inject/sniff pair.

    A subclass is a transport and supplies two methods: ``_send`` pushes
    one frame down the inject path, and ``_pump(timeout)`` waits up to
    ``timeout`` s for controller-to-host traffic, hands every sniffed
    record to ``record_frame`` and ``_queue_records`` (the latter under
    ``lock``, the subclass's transport lock), shows the records
    ``record_frame`` queued in ``_live``, and returns False when no more
    can arrive.  ``wait_frame``, the one wait, takes the oldest queued
    frame matching a predicate and pumps until one arrives or its time
    runs out.  A command's answer is matched only against the
    controller-to-host frames that follow the echo of this session's
    newest send (other sessions may share the controller) and that
    arrive after it was sent: ``send_frame`` drops what is still queued.
    At most one capture sink is active per session.
    """

    default_timeout = 2.0

    def __init__(self, lock, name: str | None = None) -> None:
        self.name = name
        self.live_view = False
        self.capture_records: capture.CaptureSpool | None = None
        self._live: list[capture.CaptureRecord] = []  # records the live view has not shown
        self._capture_tick = 0
        self._lock = lock
        self._pending: deque[H4Frame] = deque(maxlen=PENDING_MAX)
        self._unechoed: deque[H4Frame] = deque(maxlen=UNECHOED_MAX)
        self._answering = False  # the latest echo was our newest send
        self._scenario_depth = 0

    # transport hooks -------------------------------------------------
    def _pump(self, timeout: float) -> bool:
        """No frame arrives but by ``_send``: an in-process controller
        answers before ``_send`` returns."""
        return False

    # ------------------------------------------------------------------
    def close(self) -> None:
        """End a running capture, freeing its spool."""
        if self.capture_records is not None:
            self.capture_records.close()
            self.capture_records = None

    def send_frame(self, frame: H4Frame) -> None:
        with self._lock:
            self._pending.clear()
            self._unechoed.append(tuple(frame))
        self._send(frame)

    def _queue_records(self, records: list[tuple[Direction, H4Frame]]) -> None:
        """Queue for response matching the controller-to-host frames that
        follow the echo of this session's newest send, the oldest falling
        out past PENDING_MAX.  Caller holds the lock."""
        for direction, frame in records:
            if direction is _TO_CONTROLLER:
                # Echoes come back in send order; sends whose echo was missed
                # go with the first later one seen.  Only the newest send is
                # answered: an earlier send's command has given up waiting.
                # Plain tuples compare in C, a Value in Python.
                frame = tuple(frame)
                answering = frame in self._unechoed
                while answering and self._unechoed.popleft() != frame:
                    pass
                self._answering = answering and not self._unechoed
            elif self._answering:
                self._pending.append(frame)

    def wait_frame(
        self, pred: Callable[[H4Frame], bool], timeout: float | None = None
    ) -> H4Frame | None:
        """Remove and return the oldest queued frame ``pred`` accepts;
        while there is none, ``_pump`` until ``timeout`` s (by default
        ``default_timeout``) have passed, then return None.  A transport
        that is down fails the wait with its reason before the time runs
        out.  Every try scans the queue from its head: a predicate is pure,
        so the frame returned is the oldest match either way, and a send
        empties the queue, so it holds one command's traffic."""
        deadline = time.monotonic() + (self.default_timeout if timeout is None else timeout)
        pending = self._pending
        while True:
            with self._lock:
                for i, frame in enumerate(pending):
                    if pred(frame):
                        del pending[i]
                        return frame
            remaining = deadline - time.monotonic()
            if not self._pump(max(remaining, 0.0)) or remaining <= 0:
                return None

    def record_frame(self, direction: Direction, frame: H4Frame) -> None:
        """Queue one sniffed frame for the live view, stamped with a
        session-local logical tick so runs render reproducibly, and append
        it to the running capture's spool as a sniff-stream record."""
        tick = self._capture_tick
        self._capture_tick = tick + 1
        if self.live_view:  # CaptureRecord.at_tick, inline: it runs per record
            self._live.append(
                tuple.__new__(capture.CaptureRecord, (tick * capture.TICK_US, direction, frame)))
        spool = self.capture_records
        if spool is not None:
            try:
                spool.end += spool.write(SNIFF_PREFIX[direction][frame[0]] + frame[1])
                spool.count += 1
            except OSError:  # its file cannot grow; the stop reports the loss
                spool.lose()

    # ------------------------------------------------------------------
    def execute(self, line: str) -> Reply:
        """Run one command line; returns (ok, output lines).  Parse
        errors echo usage; controller error statuses render verbatim
        and count as failures."""
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            return True, []
        name = tokens[0]
        handler = getattr(self, f"_cmd_{name}", None)
        if handler is None:
            return False, [f"unknown command {name!r}; try: " + " ".join(sorted(USAGE))]
        try:
            return handler(tokens[1:])
        except CommandError as exc:
            return False, [f"usage: {USAGE.get(name, name)}  ({exc})"]
        except SessionError as exc:
            return False, [str(exc)]
        except (BcmDiagError, IndexError, struct.error) as exc:
            # An answer matched its command but could not be read.
            return False, [f"{name}: unreadable answer ({exc})"]

    # ----- requests -----------------------------------------------------

    def _await(
        self, pred: Callable[[H4Frame], bool], what: str, timeout: float | None = None
    ) -> H4Frame:
        """The one wait for an answer: the oldest frame ``pred`` accepts.
        No predicate raises: a frame too short for a field it reads does not match."""
        frame = self.wait_frame(pred, timeout)
        if frame is None:
            raise SessionError(f"timeout waiting for {what}")
        return frame

    def _diag(self, msg, code: DiagCode | None = None, timeout: float | None = None):
        """Send one diagnostic request; with ``code``, return the parsed
        response of that code."""
        self.send_frame(msg.to_frame())
        if code is not None:
            head = bytes([code])
            frame = self._await(
                lambda f: f.h4_type is _DIAG and f.payload[:1] == head,
                f"diag 0x{code:02x}",
                timeout,
            )
            return parse_diag(frame.payload)

    def _hci(self, opcode: int, params: bytes = b"") -> bytes:
        """Send one HCI command; return its Command Complete's return values."""
        self.send_frame(HciCommand(opcode, params).to_frame())
        wire = opcode.to_bytes(2, "little")
        frame = self._await(
            lambda f: f.h4_type is _HCI_EVENT
            and f.payload[3:5] == wire
            and f.payload[0] == hci.EVT_COMMAND_COMPLETE,
            f"command complete 0x{opcode:04x}",
        )
        return HciEvent.from_frame(frame).params[3:]

    # ----- commands -----------------------------------------------------

    def _cmd_diag(self, args: list[str]) -> Reply:
        if len(args) != 1 or args[0] not in ("on", "off"):
            raise CommandError("expected on|off")
        self._diag(ToggleLmpLogging(args[0] == "on"))
        return True, [f"LMP logging {args[0]}"]

    def _cmd_peek(self, args: list[str]) -> Reply:
        if len(args) != 2 or args[0] not in _ACCESS:
            raise CommandError("expected <arm|bluerf> <addr>")
        address = _hex_int(args[1], "address")
        msg: PeekResponse = self._diag(
            MemoryPeek(_ACCESS[args[0]], address), DiagCode.PEEK_RESPONSE
        )
        if msg.status != 0:
            return False, [f"peek failed: controller status 0x{msg.status:02x}"]
        return True, [f"0x{address:08x} = 0x{msg.value:02x}"]

    def _cmd_poke(self, args: list[str]) -> Reply:
        if len(args) != 3 or args[0] not in _ACCESS:
            raise CommandError("expected <arm|bluerf> <addr> <val>")
        address = _hex_int(args[1], "address")
        value = _hex_int(args[2], "value", 1)
        msg: PokeResponse = self._diag(
            MemoryPoke(_ACCESS[args[0]], address, value), DiagCode.POKE_RESPONSE
        )
        if msg.status != 0:
            return False, [f"poke failed: controller status 0x{msg.status:02x}"]
        return True, [f"0x{address:08x} <- 0x{value:02x}"]

    def _cmd_dump(self, args: list[str]) -> Reply:
        if len(args) != 1:
            raise CommandError("expected <addr>")
        address = _hex_int(args[0], "address")
        msg: HexdumpResponse = self._diag(MemoryHexdump(address), DiagCode.HEXDUMP_RESPONSE)
        lines = []
        for off in range(0, len(msg.data), 16):
            chunk = msg.data[off : off + 16]
            lines.append(f"0x{msg.address + off:08x}  {chunk.hex(' ')}")
        return True, lines

    def _cmd_stats(self, args: list[str]) -> Reply:
        if not args or args[0] not in _STATS_GETTERS:
            raise CommandError("expected br|edr|sco|esco|aux|conn")
        if len(args) > 1:
            if len(args) > 2 or args[0] != "br" or args[1] != "reset":
                raise CommandError("only 'stats br reset' resets")
            self._diag(StatsRequest(DiagCode.RESET_BR_ACL_STATS))
            return True, ["BR ACL statistics reset"]
        getter = _STATS_GETTERS[args[0]]
        if args[0] != "conn":
            msg: StatsResponse = self._diag(StatsRequest(getter), RESPONSE_FOR_REQUEST[getter])
            return True, [msg.text(": ")]
        # One record per connection, CPU load always last.
        self._diag(StatsRequest(getter))
        lines = []
        while True:
            frame = self._await(
                lambda f: f.h4_type is _DIAG and f.payload[:1] in _CONNECTION_STATS,
                "connection stats",
            )
            msg = parse_diag(frame.payload)
            lines.append(msg.text(": "))
            if msg.kind is DiagCode.CPU_LOAD_RESPONSE:
                return True, lines

    def _cmd_test(self, args: list[str]) -> Reply:
        try:
            numbers = [int(a) for a in args]
        except ValueError:
            raise CommandError("test parameters are decimal") from None
        if len(numbers) > 7:
            raise CommandError("at most 7 parameters")
        params = TestParams(*map(_in_range, numbers, TestParams._fields, _TEST_OCTETS))
        msg: TestCompleted = self._diag(RunTest(params), DiagCode.TEST_COMPLETED, timeout=10.0)
        line = (
            f"test completed: status={msg.status} tx={msg.tx_count} "
            f"rx={msg.rx_count} reserved={msg.reserved}"
        )
        return msg.status == 0, [line]

    def _connect(self, name: str, args: list[str]) -> Reply:
        """``connect`` and ``leconnect``, one _CONNECT row each."""
        if len(args) != 1:
            raise CommandError("expected <mac>")
        opcode, event, subevent, status_at, waiting_for, connected = _CONNECT[name]
        # Zero parameters but for the peer's MAC.
        mac_at, length = hci.CREATE_CONNECTION_LAYOUT[opcode]
        params = bytes(mac_at) + hci.mac_to_wire(_mac(args[0])) + bytes(length - mac_at - 6)
        self.send_frame(HciCommand(opcode, params).to_frame())
        wire = opcode.to_bytes(2, "little")

        # The completion event, or a Command Status refusing the command:
        # no completion follows a refusal.
        def answers(f: H4Frame) -> bool:
            if f.h4_type is not _HCI_EVENT or len(f.payload) < 3:
                return False
            if f.payload[0] == hci.EVT_COMMAND_STATUS:
                return f.payload[2] != 0 and f.payload[4:6] == wire
            return f.payload[0] == event and (subevent is None or f.payload[2] == subevent)

        frame = self._await(answers, waiting_for, 5.0)
        if frame.payload[0] == hci.EVT_COMMAND_STATUS:
            status, handle = frame.payload[2], 0
        else:
            status, handle = struct.unpack_from("<BH", frame.payload, 2 + status_at)
        if status != 0:
            return False, [f"{name} failed: status 0x{status:02x}"]
        return True, [f"{connected} {args[0]}: handle 0x{handle:04x}"]

    _cmd_connect = partialmethod(_connect, "connect")
    _cmd_leconnect = partialmethod(_connect, "leconnect")

    def _cmd_sendlmp(self, args: list[str]) -> Reply:
        if len(args) < 2:
            raise CommandError("expected <handle> <hex-octets>")
        handle = _hex_int(args[0], "handle", 2)
        try:
            pdu = bytes.fromhex("".join(args[1:]))
        except ValueError:
            raise CommandError("PDU octets must be hex") from None
        if len(pdu) > 255 - 2:
            raise CommandError("at most 253 PDU octets")
        ret = self._hci(hci.OPCODE_VSC_SEND_LMP_PDU, struct.pack("<H", handle) + pdu)
        if ret and ret[0] != 0:
            return False, [f"sendlmp rejected: status 0x{ret[0]:02x}"]
        return True, [f"injected {len(pdu)} LMP octets on handle 0x{handle:04x}"]

    def _cmd_firewall(self, args: list[str]) -> Reply:
        if not args:
            raise CommandError("expected add|del|show")
        action = args[0]
        if action == "show":
            if len(args) != 1:
                raise CommandError("expected show")
            macs = hci.parse_firewall_show(self._hci(hci.OPCODE_VSC_FIREWALL_SHOW))
            if macs is None:
                return True, ["firewall disabled (all peers allowed)"]
            return True, [f"firewall allowlist ({len(macs)}):"] + [
                f"  {hci.format_mac(mac)}" for mac in macs]
        if action not in ("add", "del") or len(args) != 2:
            raise CommandError("expected add|del <mac>")
        opcode = (
            hci.OPCODE_VSC_FIREWALL_ADD if action == "add" else hci.OPCODE_VSC_FIREWALL_DEL
        )
        ret = self._hci(opcode, hci.mac_to_wire(_mac(args[1])))
        if ret and ret[0] != 0:
            return False, [f"firewall {action} failed: status 0x{ret[0]:02x}"]
        return True, [f"firewall {action} {args[1]}"]

    def _cmd_version(self, args: list[str]) -> Reply:
        if args:
            raise CommandError("takes no arguments")
        info = hci.parse_local_version(self._hci(hci.OPCODE_READ_LOCAL_VERSION))
        line = (
            f"hci {info['hci_version']}.{info['hci_revision']:#06x} "
            f"lmp {info['lmp_version']}.{info['lmp_subversion']:#06x} "
            f"manufacturer {info['manufacturer']:#06x}"
        )
        return info["status"] == 0, [line]

    def _cmd_live(self, args: list[str]) -> Reply:
        if len(args) != 1 or args[0] not in ("on", "off"):
            raise CommandError("expected on|off")
        self.live_view = args[0] == "on"
        return True, [f"live view {args[0]}"]

    def _cmd_capture(self, args: list[str]) -> Reply:
        if args == ["stop"]:
            spool = self.capture_records
            if spool is None:
                return False, ["no capture running"]
            self.capture_records = None  # nothing is appended while it is read
            try:
                line = spool.export()
            except OSError as exc:
                # Keep the records, so a stop can be retried once the
                # path is writable.
                self.capture_records = spool
                return False, [f"{exc} (capture still running)"]
            finally:
                if self.capture_records is None:  # written, or the spool was damaged
                    spool.close()
            return True, [line]
        if not 2 <= len(args) <= 3 or args[0] != "start":
            raise CommandError("expected start <path> [pcap|btsnoop] or stop")
        if self.capture_records is not None:
            return False, ["capture already running (one sink per session)"]
        fmt = args[2] if len(args) > 2 else "pcap"
        if fmt not in ("pcap", "btsnoop"):
            raise CommandError("format is pcap or btsnoop")
        if "\0" in args[1]:  # no stop could ever write it, so none could end the capture
            raise CommandError("a path cannot hold a NUL")
        self.capture_records = capture.CaptureSpool(args[1], fmt)
        self._capture_tick = 0
        return True, [f"capturing to {args[1]} ({fmt})"]

    def _cmd_scenario(self, args: list[str]) -> Reply:
        if len(args) != 2 or args[0] != "run":
            raise CommandError("expected run <file>")
        if self._scenario_depth >= SCENARIO_DEPTH_MAX:
            raise CommandError(f"scenario files nest at most {SCENARIO_DEPTH_MAX} deep")
        self._scenario_depth += 1
        try:
            return self.run_script_file(args[1])
        finally:
            self._scenario_depth -= 1

    def run_script_file(self, path: str) -> Reply:
        """Replay a scenario file against this session.  Topology
        directives need the emulator and are skipped here; command
        lines run when their controller name matches this session (a
        bare command line always matches)."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or a NUL in the path
            # Name the file as an OSError does; a decode error does not.
            return False, [str(exc) if isinstance(exc, OSError) else f"{exc}: {path!r}"]
        ok = True
        out: list[str] = []
        for lineno, directive, target, line in scenario_lines(text):
            if directive is not None:
                out.append(f"line {lineno}: skipped emulator directive {directive!r}")
                continue
            if target is not None and self.name is not None and target != self.name:
                out.append(f"line {lineno}: skipped (for controller {target!r})")
                continue
            line_ok, lines = self.execute(line)
            ok = ok and line_ok
            out.extend(lines)
        return ok, out


class LocalSession(Session):
    """Session bound directly to a controller of an in-process ``World``;
    used by the scenario runner and by tests.  Responses are synchronous,
    so waiting never blocks."""

    def __init__(self, world, name: str, on_line: Callable[[str], None] | None = None):
        super().__init__(name=name, lock=world.lock)
        self._controller = world[name]
        self._on_line = on_line
        self._controller.add_tap(self._tap)

    def _tap(self, direction: Direction, frame: H4Frame, tick: int) -> None:
        self.record_frame(direction, frame)
        with self._lock:
            self._queue_records([(direction, frame)])
        if self._on_line is not None and self._live:  # one line per record
            self._on_line(capture.render_live(self._live[0]))
        self._live.clear()

    def _send(self, frame: H4Frame) -> None:
        with self._lock:
            self._controller.process_host_frame(frame)

    def close(self) -> None:
        """Stop listening to the controller; a live view or capture ends."""
        self._controller.remove_tap(self._tap)
        super().close()
