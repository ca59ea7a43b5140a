"""Operator command vocabulary, shared by the interactive client and
the scenario runner.

Each command maps 1:1 onto a codec or emulator operation and emits
exactly the octets the codec builders produce.  ``Commands`` holds one
``_cmd_<name>`` method per command; ``bcmdiag.session.Session`` extends
it with the transport side: sending, response matching and the
capture's records.  Addresses and values are hex with an optional
``0x`` prefix, MACs are colon-separated hex, test parameters are
decimal.
"""

from __future__ import annotations

import struct
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
)
from .errors import scenario_lines
from .h4 import H4Frame, H4Type, HciCommand

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

SCENARIO_DEPTH_MAX = 8  # `scenario run` files open at once in one session
_HCI_EVENT = H4Type.HCI_EVENT

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


class Commands:
    """The vocabulary: ``Session.execute`` runs a line's first word as
    ``_cmd_<word>(rest of the line)``, which returns a Reply or raises
    CommandError on a bad argument.  The requests go through the
    session: ``send_frame``, and ``_await``, ``_diag``, ``_diag_reply``
    and ``_hci``, which send and match the answer."""

    _scenario_depth = 0  # `scenario run` files this session has open

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
            msg = self._diag_reply(_CONNECTION_STATS, "connection stats")
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
