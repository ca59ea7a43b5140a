"""Behavioral emulation of one Broadcom Bluetooth controller.

A controller owns its connection table, memory image, statistics,
logging flag and security profile, and processes three input sources
through one logical mailbox: H4 frames from its host, diagnostic
commands (a special case of the former), and link-layer PDUs arriving
over the virtual air link.  Instances are strictly serial; distinct
instances may run concurrently as long as each is driven from a single
execution context at a time.

Time is a logical tick counter advanced per processed input (and per
simulated test packet), never wall clock, so identical input sequences
produce octet-identical event and diagnostic streams.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Callable

from .. import hci
from ..diag import (
    DiagCode,
    DiagMessage,
    HexdumpResponse,
    HEXDUMP_DATA_LEN,
    LMP_RECORD_PAYLOAD_LEN,
    LcpLogRecord,
    LmpLogRecord,
    MemAccessType,
    MemoryHexdump,
    MemoryPeek,
    MemoryPoke,
    PeekResponse,
    PokeResponse,
    RESPONSE_FOR_REQUEST,
    RunTest,
    STATS_FIELDS,
    StatsRequest,
    StatsResponse,
    TestCompleted,
    ToggleLmpLogging,
    build_diag,
    code_direction,
    parse_diag,
)
from ..errors import BcmDiagError
from ..h4 import Direction, H4Frame, H4Type, HciCommand, HciEvent
from .. import ll
from .link import KIND_ACL, KIND_LCP, KIND_LMP, KIND_RESET, VirtualLink
from .memory import MemoryImage
from .profiles import HandlerAction, SecurityProfile, patched_profile

FIRST_HANDLE = 0x000B
MAX_HANDLE = 0x0EFF
# Controller-to-host frames held until the host next sends something; a
# controller that never gets host input keeps only the newest ones.
HOST_OUT_MAX = 1024

# Feature masks advertised during setup; arbitrary but fixed so streams
# stay byte-stable.
CLASSIC_FEATURES = bytes.fromhex("bffecffedbff7b87")
LE_FEATURES = bytes.fromhex("1f00000000000000")
LMP_VERSION_PARAMS = struct.pack("<BHH", 0x09, 0x000F, 0x2209)
LL_VERSION_PARAMS = struct.pack("<BHH", 0x09, 0x000F, 0x2209)
IO_CAPABILITY_PARAMS = b"\x01\x00\x03"  # display yes/no, no OOB, MITM+bonding

TapFn = Callable[[Direction, H4Frame, int], None]


class Role(Enum):
    MASTER = 0
    SLAVE = 1


class Transport(Enum):
    CLASSIC = "classic"
    LE = "le"


class Phase(Enum):
    PAGING = 0
    LMP_SETUP = 1
    CONNECTED = 2
    SSP_PENDING = 3
    ENCRYPTED = 4


@dataclass
class Connection:
    handle: int
    peer_mac: bytes
    role: Role
    transport: Transport
    phase: Phase
    script_cursor: int = 0
    ssp_confirmed: bool = False


@dataclass(frozen=True)
class ScriptStep:
    role: str  # "master" | "slave"
    pdu_name: str
    arg: str | None = None


def _load_script(filename: str) -> tuple[ScriptStep, ...]:
    text = resources.files("bcmdiag.emulator.data").joinpath(filename).read_text("utf-8")
    steps = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        steps.append(ScriptStep(parts[0], parts[1], parts[2] if len(parts) > 2 else None))
    return tuple(steps)


CLASSIC_SETUP = _load_script("classic_setup.script")
LE_SETUP = _load_script("le_setup.script")

# Default parameter bodies for scripted PDUs; anything unlisted gets a
# zero body of the table length.
_LMP_SCRIPT_PARAMS = {
    "LMP_features_req": CLASSIC_FEATURES,
    "LMP_features_res": CLASSIC_FEATURES,
    "LMP_version_req": LMP_VERSION_PARAMS,
    "LMP_version_res": LMP_VERSION_PARAMS,
}
_LCP_SCRIPT_PARAMS = {
    "LL_FEATURE_REQ": LE_FEATURES,
    "LL_FEATURE_RSP": LE_FEATURES,
    "LL_VERSION_IND": LL_VERSION_PARAMS,
}


def _script_pdu(step: ScriptStep, transport: Transport, tid: int) -> bytes:
    if transport is Transport.CLASSIC:
        opcode = ll.LMP_NAME_TO_OPCODE[step.pdu_name]
        if step.arg is not None:
            params = bytes([ll.LMP_NAME_TO_OPCODE[step.arg]])
        else:
            params = _LMP_SCRIPT_PARAMS.get(
                step.pdu_name, bytes(ll.LMP_OPCODES[opcode].param_len)
            )
        return ll.build_lmp(ll.LmpPdu(opcode, tid=tid, params=params))
    opcode = ll.LCP_NAME_TO_OPCODE[step.pdu_name]
    params = _LCP_SCRIPT_PARAMS.get(step.pdu_name, bytes(ll.LCP_OPCODES[opcode].param_len))
    return ll.build_lcp(ll.LcpPdu(opcode, params))


def _script_first_opcode(script: tuple[ScriptStep, ...], transport: Transport) -> int:
    name = script[0].pdu_name
    if transport is Transport.CLASSIC:
        return ll.LMP_NAME_TO_OPCODE[name]
    return ll.LCP_NAME_TO_OPCODE[name]


# PDUs that are replies/rejections themselves and must never be answered
# (answering them could bounce between two ends indefinitely).
_LMP_NO_REPLY = frozenset(
    {
        "LMP_accepted",
        "LMP_not_accepted",
        "LMP_accepted_ext",
        "LMP_not_accepted_ext",
        "LMP_features_res",
        "LMP_version_res",
        "LMP_setup_complete",
    }
)
_LCP_NO_REPLY = frozenset(
    {
        "LL_REJECT_IND",
        "LL_REJECT_EXT_IND",
        "LL_UNKNOWN_RSP",
        "LL_FEATURE_RSP",
        "LL_VERSION_IND",
        "LL_PING_RSP",
        "LL_TERMINATE_IND",
    }
)


def _is_lmp_reject(raw: bytes) -> bool:
    opcode = raw[0] >> 1
    if opcode == ll.LMP_NAME_TO_OPCODE["LMP_not_accepted"]:
        return True
    return (
        opcode == ll.LMP_ESCAPE_4
        and len(raw) >= 2
        and raw[1] == ll.LMP_EXT_NAME_TO_OPCODE["LMP_not_accepted_ext"]
    )


def _is_lcp_reject(raw: bytes) -> bool:
    return bool(raw) and raw[0] in (
        ll.LCP_NAME_TO_OPCODE["LL_REJECT_IND"],
        ll.LCP_NAME_TO_OPCODE["LL_REJECT_EXT_IND"],
    )


class StatsStore:
    """Monotonic counters behind the statistics getters; only the reset
    command may move them backwards (and only the BR ACL schema)."""

    _STORED = (
        DiagCode.BR_ACL_STATS,
        DiagCode.EDR_ACL_STATS,
        DiagCode.SCO_STATS,
        DiagCode.ESCO_STATS,
        DiagCode.AUX_RESPONSE,
    )

    def __init__(self) -> None:
        self._counters = {
            kind: [0] * len(STATS_FIELDS[kind]) for kind in self._STORED
        }

    def bump(self, kind: DiagCode, field: str, delta: int = 1) -> None:
        self._counters[kind][STATS_FIELDS[kind].index(field)] += delta

    def response(self, kind: DiagCode) -> StatsResponse:
        return StatsResponse(kind, tuple(self._counters[kind]))

    def reset_br_acl(self) -> None:
        self._counters[DiagCode.BR_ACL_STATS] = [0] * len(
            STATS_FIELDS[DiagCode.BR_ACL_STATS]
        )

    def snapshot(self) -> tuple:
        return tuple(
            (kind.value, tuple(values)) for kind, values in self._counters.items()
        )


class Controller:
    def __init__(
        self,
        mac: bytes,
        profile: SecurityProfile | None = None,
        memory: MemoryImage | None = None,
        name: str | None = None,
        test_packet_count: int = 100,
    ):
        if len(mac) != 6:
            raise ValueError("MAC must be 6 octets")
        self.mac = bytes(mac)
        self.name = name or hci.format_mac(mac)
        self.profile = profile or patched_profile()
        self.memory = memory or MemoryImage.default()
        self._memory_pristine = self.memory.snapshot()
        self.test_packet_count = test_packet_count

        self.link: VirtualLink | None = None
        self.clock = 0
        self.diag_log_enabled = False
        self.test_mode_active = False
        self.connections: dict[int, Connection] = {}
        self.stats = StatsStore()
        self.audit: list[str] = []
        self._host_out: deque[H4Frame] = deque(maxlen=HOST_OUT_MAX)
        self._taps: list[TapFn] = []
        self._next_handle = FIRST_HANDLE

    # ----- plumbing ---------------------------------------------------

    def add_tap(self, fn: TapFn) -> None:
        """Subscribe to every frame crossing this controller's host
        boundary, both directions, with its logical tick."""
        self._taps.append(fn)

    def _tap(self, direction: Direction, frame: H4Frame) -> None:
        for fn in self._taps:
            fn(direction, frame, self.clock)

    def _emit(self, frame: H4Frame) -> None:
        self._host_out.append(frame)
        self._tap(Direction.CONTROLLER_TO_HOST, frame)

    def _emit_event(self, code: int, params: bytes) -> None:
        self._emit(HciEvent(code, params).to_frame())

    def _emit_diag(self, msg: DiagMessage) -> None:
        self._emit(H4Frame.diag(build_diag(msg)))

    def take_host_frames(self) -> list[H4Frame]:
        out = list(self._host_out)
        self._host_out.clear()
        return out

    def _note(self, text: str) -> None:
        self.audit.append(f"[{self.clock}] {text}")

    # ----- lifecycle ----------------------------------------------------

    def reset(self) -> None:
        """Return to power-on state; MAC and security profile persist.
        The tick counter is monotonic for the controller's lifetime --
        capture timestamps must never run backwards, so a reset does not
        rewind it."""
        self.diag_log_enabled = False
        self.test_mode_active = False
        self.connections = {}
        self.stats = StatsStore()
        self.memory.restore(self._memory_pristine)
        self._next_handle = FIRST_HANDLE
        if self.link is not None:
            self.link.drop_inbound(self)

    def crash(self, reason: str) -> None:
        """Firmware fault: hardware error event to the host, then an
        autonomous reset.  The peer sees the radio disappear."""
        self._note(f"crash: {reason}")
        self._emit_event(hci.EVT_HARDWARE_ERROR, bytes([hci.HW_ERR_FIRMWARE_FAULT]))
        if self.link is not None and self.connections:
            self.link.transmit(self, KIND_RESET, None)
        self.reset()

    def snapshot(self) -> dict:
        """Observable state for before/after comparisons.  The tick
        counter and audit trail are excluded: they advance on any
        processed input, even one that must not change state."""
        return {
            "mac": self.mac,
            "profile": self.profile.fingerprint(),
            "connections": tuple(
                (
                    c.handle,
                    c.peer_mac,
                    c.role.value,
                    c.transport.value,
                    c.phase.value,
                    c.ssp_confirmed,
                )
                for c in sorted(self.connections.values(), key=lambda c: c.handle)
            ),
            "diag_log_enabled": self.diag_log_enabled,
            "test_mode_active": self.test_mode_active,
            "stats": self.stats.snapshot(),
            "memory": tuple(
                (base, kind, bytes(data)) for base, kind, data in self.memory.snapshot()
            ),
        }

    # ----- host input ---------------------------------------------------

    def process_host_frame(self, frame: H4Frame) -> list[H4Frame]:
        """Public entry: handle one host frame, run the air link to
        quiescence, and return the frames this controller emitted."""
        self.handle_host_frame(frame)
        if self.link is not None:
            self.link.pump()
        return self.take_host_frames()

    def handle_host_frame(self, frame: H4Frame) -> None:
        self.clock += 1
        self._tap(Direction.HOST_TO_CONTROLLER, frame)
        if frame.h4_type is H4Type.HCI_COMMAND:
            self._handle_hci_command(HciCommand.from_frame(frame))
        elif frame.h4_type is H4Type.DIAG:
            try:
                msg = parse_diag(frame.payload)
            except BcmDiagError as exc:
                self._note(f"undecodable diagnostic frame: {exc}")
                return
            for response in self.handle_diag(msg):
                self._emit_diag(response)
        elif frame.h4_type is H4Type.ACL_DATA:
            self._handle_host_acl(frame)
        elif frame.h4_type in (H4Type.MSG_QUEUE_PUT, H4Type.WICED):
            # Documented to exist, not documented to do anything we can
            # model: acknowledge by logging only.
            self._note(f"opaque {frame.h4_type.name} frame ({len(frame.payload)} octets)")
        else:
            self._note(f"host sent {frame.h4_type.name}; ignored")

    # ----- HCI surface ----------------------------------------------------

    def _handle_hci_command(self, cmd: HciCommand) -> None:
        handler = self._HCI_HANDLERS.get(cmd.opcode)
        if handler is None:
            self._note(f"unknown HCI opcode 0x{cmd.opcode:04x}")
            self._emit_event(
                hci.EVT_COMMAND_STATUS,
                hci.command_status(hci.ERR_UNKNOWN_COMMAND, cmd.opcode),
            )
            return
        handler(self, cmd)

    def _complete(self, opcode: int, return_params: bytes = b"") -> None:
        self._emit_event(hci.EVT_COMMAND_COMPLETE, hci.command_complete(opcode, return_params))

    def _status(self, opcode: int, status: int = hci.ERR_SUCCESS) -> None:
        self._emit_event(hci.EVT_COMMAND_STATUS, hci.command_status(status, opcode))

    def _cmd_read_local_version(self, cmd: HciCommand) -> None:
        self._complete(cmd.opcode, hci.local_version_params())

    def _cmd_reset(self, cmd: HciCommand) -> None:
        self.reset()
        self._complete(cmd.opcode, bytes([hci.ERR_SUCCESS]))

    def _cmd_enable_dut(self, cmd: HciCommand) -> None:
        self._enter_dut_mode()
        self._complete(cmd.opcode, bytes([hci.ERR_SUCCESS]))

    def _cmd_create_connection(self, cmd: HciCommand) -> None:
        if len(cmd.params) < 6:
            self._status(cmd.opcode, hci.ERR_INVALID_PARAMETERS)
            return
        peer = hci.mac_from_wire(cmd.params[:6])
        self._start_connection(cmd.opcode, peer, Transport.CLASSIC)

    def _cmd_le_create_connection(self, cmd: HciCommand) -> None:
        if len(cmd.params) < 12:
            self._status(cmd.opcode, hci.ERR_INVALID_PARAMETERS)
            return
        peer = hci.mac_from_wire(cmd.params[6:12])
        self._start_connection(cmd.opcode, peer, Transport.LE)

    def _start_connection(self, opcode: int, peer: bytes, transport: Transport) -> None:
        if self._find_connection(peer, transport) is not None:
            self._status(opcode, hci.ERR_ACL_ALREADY_EXISTS)
            return
        self._status(opcode, hci.ERR_SUCCESS)
        linked_peer = self.link.peer_of(self) if self.link is not None else None
        if linked_peer is None or linked_peer.mac != peer:
            # Nobody on the air answers the page.
            self._connection_failed(peer, transport, hci.ERR_PAGE_TIMEOUT)
            return
        conn = self._new_connection(peer, Role.MASTER, transport, Phase.PAGING)
        self._advance_script(conn)

    def _connection_failed(self, peer: bytes, transport: Transport, status: int) -> None:
        wire = hci.mac_to_wire(peer)
        if transport is Transport.CLASSIC:
            self._emit_event(
                hci.EVT_CONNECTION_COMPLETE, hci.connection_complete(status, 0, wire)
            )
        else:
            self._emit_event(
                hci.EVT_LE_META, hci.le_connection_complete(status, 0, 0, wire)
            )

    def _cmd_disconnect(self, cmd: HciCommand) -> None:
        if len(cmd.params) < 3:
            self._status(cmd.opcode, hci.ERR_INVALID_PARAMETERS)
            return
        handle, reason = struct.unpack_from("<HB", cmd.params)
        conn = self.connections.get(handle)
        if conn is None:
            self._status(cmd.opcode, hci.ERR_UNKNOWN_CONNECTION)
            return
        self._status(cmd.opcode, hci.ERR_SUCCESS)
        if conn.transport is Transport.CLASSIC:
            self._send_lmp(conn, ll.LmpPdu(ll.LMP_NAME_TO_OPCODE["LMP_detach"], params=bytes([reason])))
        else:
            self._send_lcp(conn, ll.LcpPdu(ll.LCP_NAME_TO_OPCODE["LL_TERMINATE_IND"], bytes([reason])))
        self._drop_connection(conn, reason)

    def _cmd_send_lmp_pdu(self, cmd: HciCommand) -> None:
        if len(cmd.params) < 3:
            self._complete(cmd.opcode, bytes([hci.ERR_INVALID_PARAMETERS]))
            return
        (handle,) = struct.unpack_from("<H", cmd.params)
        raw = cmd.params[2:]
        conn = self.connections.get(handle)
        if conn is None or conn.transport is not Transport.CLASSIC:
            self._complete(cmd.opcode, bytes([hci.ERR_UNKNOWN_CONNECTION]))
            return
        if not self._lmp_injectable(raw):
            self._complete(cmd.opcode, bytes([hci.ERR_INVALID_PARAMETERS]))
            return
        self._send_raw_lmp(conn.peer_mac, raw)
        self._complete(cmd.opcode, bytes([hci.ERR_SUCCESS]))

    @staticmethod
    def _lmp_injectable(raw: bytes) -> bool:
        """Injection validates standard opcodes and lengths; the vendor
        space (opcode 0) passes with any subtype -- the receiving side's
        missing range check is exactly the published bug."""
        if not raw or len(raw) > ll.LMP_MAX_PDU:
            return False
        if raw[0] >> 1 == ll.BPCS_OPCODE:
            return len(raw) >= 2
        try:
            ll.dissect_lmp(raw)
        except BcmDiagError:
            return False
        return True

    def _cmd_read_ram(self, cmd: HciCommand) -> None:
        if len(cmd.params) != 5:
            self._complete(cmd.opcode, bytes([hci.ERR_INVALID_PARAMETERS]))
            return
        address, length = struct.unpack("<IB", cmd.params)
        data = self.memory.read_block(MemAccessType.ARM, address, length)
        if data is None:
            self._complete(cmd.opcode, bytes([hci.ERR_INVALID_PARAMETERS]))
            return
        self._complete(cmd.opcode, bytes([hci.ERR_SUCCESS]) + data)

    def _cmd_write_ram(self, cmd: HciCommand) -> None:
        if len(cmd.params) < 5:
            self._complete(cmd.opcode, bytes([hci.ERR_INVALID_PARAMETERS]))
            return
        (address,) = struct.unpack_from("<I", cmd.params)
        ok = self.memory.write_block(MemAccessType.ARM, address, cmd.params[4:])
        self._complete(
            cmd.opcode,
            bytes([hci.ERR_SUCCESS if ok else hci.ERR_INVALID_PARAMETERS]),
        )

    def _cmd_super_duper_peek_poke(self, cmd: HciCommand) -> None:
        # Layout (toolkit convention): mode octet (0 peek / 1 poke),
        # 32-bit address, one value octet for poke.  BlueRF space only.
        if len(cmd.params) < 5:
            self._complete(cmd.opcode, bytes([hci.ERR_INVALID_PARAMETERS]))
            return
        mode = cmd.params[0]
        (address,) = struct.unpack_from("<I", cmd.params, 1)
        if mode == 0:
            value = self.memory.read(MemAccessType.BLUERF, address)
            if value is None:
                self._complete(cmd.opcode, bytes([hci.ERR_INVALID_PARAMETERS, 0]))
            else:
                self._complete(cmd.opcode, bytes([hci.ERR_SUCCESS, value]))
        elif mode == 1 and len(cmd.params) >= 6:
            ok = self.memory.write(MemAccessType.BLUERF, address, cmd.params[5])
            self._complete(
                cmd.opcode,
                bytes([hci.ERR_SUCCESS if ok else hci.ERR_INVALID_PARAMETERS]),
            )
        else:
            self._complete(cmd.opcode, bytes([hci.ERR_INVALID_PARAMETERS]))

    def _cmd_firewall_add(self, cmd: HciCommand) -> None:
        if len(cmd.params) != 6:
            self._complete(cmd.opcode, bytes([hci.ERR_INVALID_PARAMETERS]))
            return
        if self.profile.firewall_allowlist is None:
            self.profile.firewall_allowlist = set()
        self.profile.firewall_allowlist.add(hci.mac_from_wire(cmd.params))
        self._complete(cmd.opcode, bytes([hci.ERR_SUCCESS]))

    def _cmd_firewall_del(self, cmd: HciCommand) -> None:
        if len(cmd.params) != 6:
            self._complete(cmd.opcode, bytes([hci.ERR_INVALID_PARAMETERS]))
            return
        mac = hci.mac_from_wire(cmd.params)
        if self.profile.firewall_allowlist is not None:
            self.profile.firewall_allowlist.discard(mac)
        self._complete(cmd.opcode, bytes([hci.ERR_SUCCESS]))

    def _cmd_firewall_show(self, cmd: HciCommand) -> None:
        allow = self.profile.firewall_allowlist
        if allow is None:
            self._complete(cmd.opcode, bytes([hci.ERR_SUCCESS, 0, 0]))
            return
        body = bytes([hci.ERR_SUCCESS, 1, len(allow)])
        for mac in sorted(allow):
            body += hci.mac_to_wire(mac)
        self._complete(cmd.opcode, body)

    # opcode -> handler, built once with the class
    _HCI_HANDLERS = {
        hci.OPCODE_READ_LOCAL_VERSION: _cmd_read_local_version,
        hci.OPCODE_RESET: _cmd_reset,
        hci.OPCODE_CREATE_CONNECTION: _cmd_create_connection,
        hci.OPCODE_DISCONNECT: _cmd_disconnect,
        hci.OPCODE_LE_CREATE_CONNECTION: _cmd_le_create_connection,
        hci.OPCODE_ENABLE_DUT_MODE: _cmd_enable_dut,
        hci.OPCODE_VSC_SEND_LMP_PDU: _cmd_send_lmp_pdu,
        hci.OPCODE_VSC_READ_RAM: _cmd_read_ram,
        hci.OPCODE_VSC_WRITE_RAM: _cmd_write_ram,
        hci.OPCODE_VSC_SUPER_DUPER_PEEK_POKE: _cmd_super_duper_peek_poke,
        hci.OPCODE_VSC_FIREWALL_ADD: _cmd_firewall_add,
        hci.OPCODE_VSC_FIREWALL_DEL: _cmd_firewall_del,
        hci.OPCODE_VSC_FIREWALL_SHOW: _cmd_firewall_show,
    }

    # ----- host ACL data ---------------------------------------------------

    def _handle_host_acl(self, frame: H4Frame) -> None:
        handle_flags, _length = struct.unpack_from("<HH", frame.payload)
        handle = handle_flags & 0x0FFF
        flags = handle_flags >> 12
        conn = self.connections.get(handle)
        if conn is None:
            self._note(f"ACL data for unknown handle 0x{handle:04x}")
            return
        if conn.transport is Transport.CLASSIC:
            self.stats.bump(DiagCode.BR_ACL_STATS, "tx_packets")
        if self.link is not None:
            self.link.transmit(
                self, KIND_ACL, (conn.transport.value, flags, frame.payload[4:])
            )
        self._emit_event(hci.EVT_NUM_COMPLETED_PACKETS, hci.num_completed_packets(handle))

    # ----- diagnostic surface ------------------------------------------------

    def handle_diag(self, msg: DiagMessage) -> list[DiagMessage]:
        if code_direction(msg.code) is not Direction.HOST_TO_CONTROLLER:
            self._note(f"host sent controller->host diag code 0x{msg.code:02x}")
            return []

        if isinstance(msg, ToggleLmpLogging):
            self.diag_log_enabled = msg.enable
            return []

        if isinstance(msg, MemoryPeek):
            value = self.memory.read(msg.access, msg.address)
            if value is None:
                return [PeekResponse(status=0x01, value=0)]
            return [PeekResponse(status=0x00, value=value)]

        if isinstance(msg, MemoryPoke):
            ok = self.memory.write(msg.access, msg.address, msg.value)
            return [PokeResponse(status=0x00 if ok else 0x01)]

        if isinstance(msg, MemoryHexdump):
            data = self.memory.read_block(
                MemAccessType.HEXDUMP_ARM, msg.address, HEXDUMP_DATA_LEN
            )
            if data is None:
                self._note(f"hexdump outside ARM regions: 0x{msg.address:08x}")
                data = bytes(HEXDUMP_DATA_LEN)
            return [HexdumpResponse(msg.address, data)]

        if isinstance(msg, StatsRequest):
            return self._handle_stats_request(msg.kind)

        if isinstance(msg, RunTest):
            return [self._run_test(msg)]

        self._note(f"unhandled diag code 0x{msg.code:02x}")
        return []

    def _handle_stats_request(self, kind: DiagCode) -> list[DiagMessage]:
        if kind is DiagCode.RESET_BR_ACL_STATS:
            self.stats.reset_br_acl()
            return []
        if kind is not DiagCode.GET_CONNECTION_STATS:
            return [self.stats.response(RESPONSE_FOR_REQUEST[kind])]
        # One record per live connection; the CPU load piggybacks on
        # this request because no dedicated getter code exists.
        out: list[DiagMessage] = []
        for conn in sorted(self.connections.values(), key=lambda c: c.handle):
            out.append(
                StatsResponse(
                    DiagCode.CONNECTION_RESPONSE,
                    (
                        conn.handle,
                        struct.unpack("<I", hci.low_mac(conn.peer_mac))[0],
                        conn.role.value,
                        conn.phase.value,
                    ),
                )
            )
        out.append(
            StatsResponse(
                DiagCode.CPU_LOAD_RESPONSE, (5 * len(self.connections),)
            )
        )
        return out

    def _run_test(self, msg: RunTest) -> TestCompleted:
        """Simulate a radio test run: one packet per tick for the
        configured packet budget.  A linked peer loops every packet
        back; with no peer on the air nothing is received."""
        if not msg.params.is_valid:
            return TestCompleted(status=0x01, tx_count=0, rx_count=0)
        count = self.test_packet_count
        linked = self.link is not None
        self.clock += count
        return TestCompleted(
            status=0x00, tx_count=count, rx_count=count if linked else 0
        )

    # ----- air link ------------------------------------------------------------

    def deliver_air(self, from_mac: bytes, kind: str, data: object) -> None:
        self.clock += 1
        if kind == KIND_RESET:
            self._peer_vanished(from_mac)
            return
        if self.test_mode_active:
            # Device under test occupies its test frequencies; normal
            # traffic is jammed.
            self._note(f"DUT mode jammed {kind} traffic from {hci.format_mac(from_mac)}")
            return
        if kind == KIND_ACL:
            self._deliver_air_acl(from_mac, data)
            return
        raw = bytes(data)  # type: ignore[arg-type]
        if kind == KIND_LMP:
            self._log_lmp(sent=False, peer_mac=from_mac, pdu=raw)
            if not self.profile.firewall_allows(from_mac):
                self._note(f"firewall rejected LMP from {hci.format_mac(from_mac)}")
                # Replying to a rejection with a rejection would ping-pong
                # between two firewalled ends forever.
                if not _is_lmp_reject(raw):
                    self._reply_not_accepted(from_mac, raw[0] >> 1)
                return
            self._handle_lmp(from_mac, raw)
        elif kind == KIND_LCP:
            self._log_lcp(sent=False, peer_mac=from_mac, pdu=raw)
            if not self.profile.firewall_allows(from_mac):
                self._note(f"firewall rejected LCP from {hci.format_mac(from_mac)}")
                if not _is_lcp_reject(raw):
                    self._reply_lcp_reject(from_mac)
                return
            self._handle_lcp(from_mac, raw)

    def _peer_vanished(self, from_mac: bytes) -> None:
        for conn in [c for c in self.connections.values() if c.peer_mac == from_mac]:
            self._drop_connection(conn, hci.ERR_CONNECTION_TIMEOUT)

    def _deliver_air_acl(self, from_mac: bytes, data: object) -> None:
        transport_value, flags, payload = data  # type: ignore[misc]
        transport = Transport(transport_value)
        conn = self._find_connection(from_mac, transport)
        if conn is None:
            self._note(f"ACL data from unconnected {hci.format_mac(from_mac)}")
            return
        if transport is Transport.CLASSIC:
            self.stats.bump(DiagCode.BR_ACL_STATS, "rx_packets")
        header = struct.pack("<HH", conn.handle | (flags << 12), len(payload))
        self._emit(H4Frame(H4Type.ACL_DATA, header + payload))

    # ----- link-layer log records ---------------------------------------------

    def _log_lmp(self, sent: bool, peer_mac: bytes, pdu: bytes) -> None:
        if not self.diag_log_enabled:
            return
        # Records always carry the 17-octet maximum; receive padding is
        # the documented chip quirk, and the fixed envelope leaves no
        # way to carry a true length for sent PDUs either.
        padded = pdu.ljust(LMP_RECORD_PAYLOAD_LEN, b"\x00")[:LMP_RECORD_PAYLOAD_LEN]
        self._emit_diag(LmpLogRecord(sent=sent, low_mac=hci.low_mac(peer_mac), payload=padded))

    def _log_lcp(self, sent: bool, peer_mac: bytes, pdu: bytes) -> None:
        if not self.diag_log_enabled:
            return
        self._emit_diag(LcpLogRecord(sent=sent, full_mac=peer_mac, payload=pdu))

    # ----- sending ---------------------------------------------------------------

    def _send_raw_lmp(self, peer_mac: bytes, raw: bytes) -> None:
        self._log_lmp(sent=True, peer_mac=peer_mac, pdu=raw)
        if self.link is not None:
            self.link.transmit(self, KIND_LMP, raw)

    def _send_lmp(self, conn: Connection, pdu: ll.LmpPdu | ll.BpcsPdu) -> None:
        self._send_raw_lmp(conn.peer_mac, ll.build_lmp(pdu))

    def _send_raw_lcp(self, peer_mac: bytes, raw: bytes) -> None:
        self._log_lcp(sent=True, peer_mac=peer_mac, pdu=raw)
        if self.link is not None:
            self.link.transmit(self, KIND_LCP, raw)

    def _send_lcp(self, conn: Connection, pdu: ll.LcpPdu) -> None:
        self._send_raw_lcp(conn.peer_mac, ll.build_lcp(pdu))

    # ----- connection bookkeeping ---------------------------------------------

    def _find_connection(self, peer_mac: bytes, transport: Transport) -> Connection | None:
        for conn in self.connections.values():
            if conn.peer_mac == peer_mac and conn.transport is transport:
                return conn
        return None

    def _new_connection(
        self, peer: bytes, role: Role, transport: Transport, phase: Phase
    ) -> Connection:
        # Allocation wraps, so handles of dropped connections come back.
        for _ in range(MAX_HANDLE - FIRST_HANDLE + 1):
            handle = self._next_handle
            self._next_handle = handle + 1 if handle < MAX_HANDLE else FIRST_HANDLE
            if handle not in self.connections:
                break
        else:
            raise BcmDiagError("connection handles exhausted")
        conn = Connection(handle, peer, role, transport, phase)
        self.connections[handle] = conn
        return conn

    def _drop_connection(self, conn: Connection, reason: int) -> None:
        self.connections.pop(conn.handle, None)
        self._emit_event(
            hci.EVT_DISCONNECTION_COMPLETE,
            hci.disconnection_complete(hci.ERR_SUCCESS, conn.handle, reason),
        )

    def _setup_script(self, transport: Transport) -> tuple[ScriptStep, ...]:
        return CLASSIC_SETUP if transport is Transport.CLASSIC else LE_SETUP

    def _my_script_role(self, conn: Connection) -> str:
        return "master" if conn.role is Role.MASTER else "slave"

    def _advance_script(self, conn: Connection) -> None:
        """Send every consecutive script step owned by our role, then
        wait for the peer (or finish)."""
        script = self._setup_script(conn.transport)
        mine = self._my_script_role(conn)
        while conn.script_cursor < len(script) and script[conn.script_cursor].role == mine:
            step = script[conn.script_cursor]
            conn.script_cursor += 1
            if conn.phase is Phase.PAGING:
                conn.phase = Phase.LMP_SETUP
            tid = 0 if conn.role is Role.MASTER else 1
            raw = _script_pdu(step, conn.transport, tid if conn.transport is Transport.CLASSIC else 0)
            if conn.transport is Transport.CLASSIC:
                self._send_raw_lmp(conn.peer_mac, raw)
            else:
                self._send_raw_lcp(conn.peer_mac, raw)
        if conn.script_cursor >= len(script):
            self._finish_setup(conn)

    def _script_expectation(self, conn: Connection) -> ScriptStep | None:
        script = self._setup_script(conn.transport)
        if conn.phase not in (Phase.PAGING, Phase.LMP_SETUP):
            return None
        if conn.script_cursor >= len(script):
            return None
        step = script[conn.script_cursor]
        return step if step.role != self._my_script_role(conn) else None

    def _script_matches(self, conn: Connection, opcode_name: str) -> bool:
        expected = self._script_expectation(conn)
        return expected is not None and expected.pdu_name == opcode_name

    def _consume_script_step(self, conn: Connection) -> None:
        conn.script_cursor += 1
        if conn.phase is Phase.PAGING:
            conn.phase = Phase.LMP_SETUP
        self._advance_script(conn)

    def _finish_setup(self, conn: Connection) -> None:
        if conn.phase in (Phase.PAGING, Phase.LMP_SETUP):
            conn.phase = Phase.CONNECTED
            wire = hci.mac_to_wire(conn.peer_mac)
            if conn.transport is Transport.CLASSIC:
                self._emit_event(
                    hci.EVT_CONNECTION_COMPLETE,
                    hci.connection_complete(hci.ERR_SUCCESS, conn.handle, wire),
                )
            else:
                self._emit_event(
                    hci.EVT_LE_META,
                    hci.le_connection_complete(
                        hci.ERR_SUCCESS, conn.handle, conn.role.value, wire
                    ),
                )

    # ----- inbound link-layer handling ------------------------------------------

    def _handle_lmp(self, from_mac: bytes, raw: bytes) -> None:
        try:
            pdu = ll.dissect_lmp(raw)
        except BcmDiagError as exc:
            self._note(f"undissectable LMP from {hci.format_mac(from_mac)}: {exc}")
            self._reply_not_accepted(from_mac, raw[0] >> 1)
            return

        conn = self._find_connection(from_mac, Transport.CLASSIC)

        if isinstance(pdu, ll.BpcsPdu):
            self._handle_bpcs(from_mac, conn, pdu)
            return

        name = pdu.name

        if conn is None:
            # A fresh setup opener creates the inbound (slave) side;
            # anything else has no connection to live on.  Responses and
            # rejections are dropped rather than rejected back, so two
            # connectionless ends can never bounce replies forever.
            if pdu.opcode == _script_first_opcode(CLASSIC_SETUP, Transport.CLASSIC):
                conn = self._new_connection(
                    from_mac, Role.SLAVE, Transport.CLASSIC, Phase.LMP_SETUP
                )
                self._consume_script_step(conn)
            elif name in _LMP_NO_REPLY:
                self._note(f"{name} from unconnected {hci.format_mac(from_mac)}")
            else:
                self._reply_not_accepted(from_mac, pdu.opcode)
            return

        if self._script_matches(conn, name):
            self._consume_script_step(conn)
            return

        handler = self._LMP_HANDLERS.get(name)
        if handler is None:
            self._reply_not_accepted(from_mac, pdu.opcode, conn=conn)
            return
        handler(self, conn, pdu)

    def _reply_not_accepted(
        self, from_mac: bytes, opcode: int, conn: Connection | None = None
    ) -> None:
        self._send_raw_lmp(
            from_mac,
            ll.build_lmp(
                ll.LmpPdu(
                    ll.LMP_NAME_TO_OPCODE["LMP_not_accepted"],
                    tid=0 if conn is None or conn.role is Role.MASTER else 1,
                    params=bytes([opcode & 0x7F, hci.ERR_LMP_PDU_NOT_ALLOWED]),
                )
            ),
        )

    def _lmp_ignore(self, conn: Connection, pdu: ll.LmpPdu) -> None:
        self._note(f"ignored {pdu.name} on handle 0x{conn.handle:04x}")

    def _lmp_features_req(self, conn: Connection, pdu: ll.LmpPdu) -> None:
        self._send_lmp(
            conn,
            ll.LmpPdu(ll.LMP_NAME_TO_OPCODE["LMP_features_res"], pdu.tid, CLASSIC_FEATURES),
        )

    def _lmp_version_req(self, conn: Connection, pdu: ll.LmpPdu) -> None:
        self._send_lmp(
            conn,
            ll.LmpPdu(ll.LMP_NAME_TO_OPCODE["LMP_version_res"], pdu.tid, LMP_VERSION_PARAMS),
        )

    def _lmp_io_capability_req(self, conn: Connection, pdu: ll.LmpPdu) -> None:
        # Pairing starts: the connection waits for a user decision it
        # can never get here, which is exactly the window the
        # out-of-order encryption bug needs.
        if conn.phase is Phase.CONNECTED:
            conn.phase = Phase.SSP_PENDING
            conn.ssp_confirmed = False
        self._send_lmp(
            conn,
            ll.LmpPdu(
                ll.LMP_ESCAPE_4,
                pdu.tid,
                IO_CAPABILITY_PARAMS,
                extended_opcode=ll.LMP_EXT_NAME_TO_OPCODE["LMP_IO_capability_res"],
            ),
        )

    def _lmp_dhkey_check(self, conn: Connection, pdu: ll.LmpPdu) -> None:
        if conn.phase is Phase.SSP_PENDING:
            conn.ssp_confirmed = True
        self._send_lmp(
            conn,
            ll.LmpPdu(
                ll.LMP_NAME_TO_OPCODE["LMP_accepted"],
                pdu.tid,
                bytes([ll.LMP_NAME_TO_OPCODE["LMP_DHkey_Check"]]),
            ),
        )

    def _lmp_start_encryption_req(self, conn: Connection, pdu: ll.LmpPdu) -> None:
        opcode = ll.LMP_NAME_TO_OPCODE["LMP_start_encryption_req"]
        if conn.phase is Phase.SSP_PENDING and conn.ssp_confirmed:
            conn.phase = Phase.ENCRYPTED
            self._send_lmp(
                conn,
                ll.LmpPdu(
                    ll.LMP_NAME_TO_OPCODE["LMP_accepted"], pdu.tid, bytes([opcode])
                ),
            )
            return
        if conn.phase is Phase.SSP_PENDING and not self.profile.encryption_order_check:
            # Out-of-order encryption setup: the key calculation runs on
            # uninitialized pairing state and the firmware dies.
            self.crash("encryption start during pending pairing")
            return
        self._reply_not_accepted(conn.peer_mac, opcode, conn=conn)

    def _lmp_detach(self, conn: Connection, pdu: ll.LmpPdu) -> None:
        reason = pdu.params[0] if pdu.params else hci.ERR_REMOTE_TERMINATED
        self._drop_connection(conn, reason)

    def _lmp_accepted(self, conn: Connection, pdu: ll.LmpPdu) -> None:
        accepted = pdu.params[0] if pdu.params else 0
        if accepted == ll.LMP_NAME_TO_OPCODE["LMP_start_encryption_req"]:
            conn.phase = Phase.ENCRYPTED

    _LMP_HANDLERS = {
        "LMP_features_req": _lmp_features_req,
        "LMP_version_req": _lmp_version_req,
        "LMP_IO_capability_req": _lmp_io_capability_req,
        "LMP_DHkey_Check": _lmp_dhkey_check,
        "LMP_start_encryption_req": _lmp_start_encryption_req,
        "LMP_detach": _lmp_detach,
        # Replies need no answer; only an accepted one changes state.
        **dict.fromkeys(_LMP_NO_REPLY | {"LMP_IO_capability_res"}, _lmp_ignore),
        "LMP_accepted": _lmp_accepted,
    }

    def _handle_bpcs(
        self, from_mac: bytes, conn: Connection | None, pdu: ll.BpcsPdu
    ) -> None:
        if conn is None:
            if pdu.subtype in (ll.BPCS_FEATURES_REQUEST, ll.BPCS_BFC_SUSPEND, ll.BPCS_BFC_RESUME):
                self._reply_not_accepted(from_mac, ll.BPCS_OPCODE)
            else:
                self._note(f"{pdu.name} from unconnected {hci.format_mac(from_mac)}")
            return
        if pdu.subtype > ll.BPCS_MAX_SUBTYPE:
            if self.profile.bpcs_bounds_check:
                self._send_lmp(
                    conn,
                    ll.BpcsPdu(ll.BPCS_NOT_ACCEPT, pdu.tid, bytes([pdu.subtype])),
                )
                return
            # No range check: the subtype indexes past the handler table
            # into whatever the linker put next.
            action = self.profile.overflow_action(pdu.subtype)
            self._note(
                f"BPCS subtype 0x{pdu.subtype:02x} overflowed handler table -> {action.value}"
            )
            if action is HandlerAction.DUT_MODE:
                self._enter_dut_mode()
            elif action is HandlerAction.CRASH:
                self.crash(f"BPCS handler overflow (subtype 0x{pdu.subtype:02x})")
            return
        if pdu.subtype == ll.BPCS_FEATURES_REQUEST:
            self._send_lmp(conn, ll.BpcsPdu(ll.BPCS_FEATURES_RESPONSE, pdu.tid))
        elif pdu.subtype in (ll.BPCS_BFC_SUSPEND, ll.BPCS_BFC_RESUME):
            self._send_lmp(conn, ll.BpcsPdu(ll.BPCS_ACCEPT, pdu.tid))
        # Responses (Features Response, Not Accept, Accept) need no reply.

    def _enter_dut_mode(self) -> None:
        self.test_mode_active = True
        self._emit_event(hci.EVT_VENDOR, hci.DUT_EVENT_PARAMS)

    def _reply_lcp_reject(self, peer_mac: bytes) -> None:
        self._send_raw_lcp(
            peer_mac,
            ll.build_lcp(
                ll.LcpPdu(
                    ll.LCP_NAME_TO_OPCODE["LL_REJECT_IND"],
                    bytes([hci.ERR_LMP_PDU_NOT_ALLOWED]),
                )
            ),
        )

    def _handle_lcp(self, from_mac: bytes, raw: bytes) -> None:
        try:
            pdu = ll.dissect_lcp(raw)
        except BcmDiagError as exc:
            self._note(f"undissectable LCP from {hci.format_mac(from_mac)}: {exc}")
            return

        conn = self._find_connection(from_mac, Transport.LE)
        if conn is None:
            if pdu.opcode == _script_first_opcode(LE_SETUP, Transport.LE):
                conn = self._new_connection(from_mac, Role.SLAVE, Transport.LE, Phase.LMP_SETUP)
                self._consume_script_step(conn)
            elif pdu.name in _LCP_NO_REPLY:
                self._note(f"{pdu.name} from unconnected {hci.format_mac(from_mac)}")
            else:
                self._reply_lcp_reject(from_mac)
            return

        if self._script_matches(conn, pdu.name):
            self._consume_script_step(conn)
            return

        if pdu.name == "LL_TERMINATE_IND":
            reason = pdu.params[0] if pdu.params else hci.ERR_REMOTE_TERMINATED
            self._drop_connection(conn, reason)
            return
        if pdu.name == "LL_FEATURE_REQ":
            self._send_lcp(conn, ll.LcpPdu(ll.LCP_NAME_TO_OPCODE["LL_FEATURE_RSP"], LE_FEATURES))
            return
        if pdu.name == "LL_PING_REQ":
            self._send_lcp(conn, ll.LcpPdu(ll.LCP_NAME_TO_OPCODE["LL_PING_RSP"]))
            return
        if pdu.name in _LCP_NO_REPLY or pdu.vendor is not None:
            self._note(f"ignored {pdu.name} on handle 0x{conn.handle:04x}")
            return
        self._send_lcp(
            conn,
            ll.LcpPdu(
                ll.LCP_NAME_TO_OPCODE["LL_UNKNOWN_RSP"], bytes([pdu.opcode])
            ),
        )

    # ----- raw injection (attack tooling / harnesses) ---------------------------

    def inject_lmp(self, raw: bytes) -> None:
        """Transmit raw Classic PDU octets over the link, bypassing any
        connection.  This is the radio-level attacker primitive."""
        self._log_lmp(sent=True, peer_mac=self._linked_peer_mac(), pdu=raw)
        if self.link is not None:
            self.link.transmit(self, KIND_LMP, bytes(raw))
            self.link.pump()

    def inject_lcp(self, raw: bytes) -> None:
        self._log_lcp(sent=True, peer_mac=self._linked_peer_mac(), pdu=raw)
        if self.link is not None:
            self.link.transmit(self, KIND_LCP, bytes(raw))
            self.link.pump()

    def _linked_peer_mac(self) -> bytes:
        if self.link is None:
            return bytes(6)
        return self.link.peer_of(self).mac
