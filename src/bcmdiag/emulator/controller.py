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
from enum import Enum
from importlib import resources
from typing import Callable

from .. import diag, hci, ll
from ..diag import (
    HEXDUMP_DATA_LEN,
    LMP_RECORD_PAYLOAD_LEN,
    RESPONSE_FOR_REQUEST,
    STATS_FIELDS,
    DiagCode,
    DiagMessage,
    MemAccessType,
    code_direction,
    parse_diag,
)
from ..errors import BcmDiagError
from ..h4 import DIAG_PAYLOAD_LEN, Direction, H4Frame, H4Type, HciCommand, HciEvent, value_class
from .link import KIND_ACL, KIND_LCP, KIND_LMP, KIND_RESET, VirtualLink
from .memory import MemoryImage
from .profiles import FIREWALL_ALLOWLIST_MAX, HandlerAction, SecurityProfile, patched_profile

FIRST_HANDLE = 0x000B
MAX_HANDLE = 0x0EFF
# Audit notes kept, newest last; older ones fall out.
AUDIT_MAX = 1024

# Feature masks advertised during setup; arbitrary but fixed so streams
# stay byte-stable.
CLASSIC_FEATURES = bytes.fromhex("bffecffedbff7b87")
LE_FEATURES = bytes.fromhex("1f00000000000000")
# Version, company and subversion, the same for LMP and LL.
LMP_VERSION_PARAMS = struct.pack("<BHH", 0x09, 0x000F, 0x2209)
IO_CAPABILITY_PARAMS = b"\x01\x00\x03"  # display yes/no, no OOB, MITM+bonding

TapFn = Callable[[Direction, H4Frame, int], None]

# Members read per frame, as plain names: a read through the enum class
# takes the enum metaclass's __getattr__ hook, about 0.15 us on 3.11.
_TO_CONTROLLER, _TO_HOST = Direction
_HCI_COMMAND, _ACL_DATA, _DIAG = H4Type.HCI_COMMAND, H4Type.ACL_DATA, H4Type.DIAG
_OPAQUE = frozenset({H4Type.MSG_QUEUE_PUT, H4Type.WICED})
_HEXDUMP_ARM = MemAccessType.HEXDUMP_ARM
# Where _emit puts frames while no process_host_frame call is running:
# it keeps none, so they reach only the taps.
_NO_CALL: deque[H4Frame] = deque(maxlen=0)

# The answer to Read Local Version, which never changes.
_LOCAL_VERSION_COMPLETE = HciEvent(hci.EVT_COMMAND_COMPLETE, hci.command_complete(
    hci.OPCODE_READ_LOCAL_VERSION, hci.local_version_params())).to_frame()
READ_RAM_MAX = 255 - 4  # RAM octets in one Command Complete: 255 less header and status


class Role(Enum):
    # Values double as the LMP transaction ID of exchanges each role starts.
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


class Connection:
    __slots__ = ("handle", "peer_mac", "role", "layer", "transport", "phase", "script_cursor",
                 "ssp_confirmed")

    def __init__(self, handle: int, peer_mac: bytes, role: Role, layer: LinkLayer,
                 phase: Phase, script_cursor: int = 0, ssp_confirmed: bool = False) -> None:
        self.handle = handle
        self.peer_mac = peer_mac
        self.role = role
        self.layer = layer  # kept, not looked up: a Transport key hashes in Python
        self.transport = layer.transport
        self.phase = phase
        self.script_cursor = script_cursor
        self.ssp_confirmed = ssp_confirmed


@value_class
class ScriptStep:
    role: Role  # the end that sends it
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
        steps.append(ScriptStep(Role[parts[0].upper()], parts[1], parts[2] if len(parts) > 2 else None))
    return tuple(steps)


CLASSIC_SETUP = _load_script("classic_setup.script")
LE_SETUP = _load_script("le_setup.script")

# Bodies of the PDUs this controller sends by name (LMP and LCP names
# never collide); anything unlisted gets a zero body of its table length.
_PDU_PARAMS = {
    "LMP_features_req": CLASSIC_FEATURES,
    "LMP_features_res": CLASSIC_FEATURES,
    "LMP_version_req": LMP_VERSION_PARAMS,
    "LMP_version_res": LMP_VERSION_PARAMS,
    "LL_FEATURE_REQ": LE_FEATURES,
    "LL_FEATURE_RSP": LE_FEATURES,
    "LL_VERSION_IND": LMP_VERSION_PARAMS,
}


def _lmp_log_record(sent: bool, peer_mac: bytes, pdu: bytes) -> diag.LmpLogRecord:
    # Records always carry the 17-octet maximum; receive padding is the
    # documented chip quirk, and the fixed envelope leaves no way to
    # carry a true length for sent PDUs either.
    padded = pdu.ljust(LMP_RECORD_PAYLOAD_LEN, b"\x00")[:LMP_RECORD_PAYLOAD_LEN]
    return diag.LmpLogRecord(sent=sent, low_mac=hci.low_mac(peer_mac), payload=padded)


def _lmp_not_accepted(opcode: int, tid: int = 0) -> bytes:
    return ll.build_lmp(ll.LmpPdu(
        ll.LMP_NAME_TO_OPCODE["LMP_not_accepted"], tid,
        bytes([opcode & 0x7F, hci.ERR_LMP_PDU_NOT_ALLOWED]),
    ))


def _is_lmp_reject(raw: bytes) -> bool:
    if not raw:
        return False
    opcode = raw[0] >> 1
    if opcode == ll.LMP_NAME_TO_OPCODE["LMP_not_accepted"]:
        return True
    return (
        opcode == ll.LMP_ESCAPE_4
        and len(raw) >= 2
        and raw[1] == ll.LMP_EXT_NAME_TO_OPCODE["LMP_not_accepted_ext"]
    )


@value_class
class LinkLayer:
    """Everything the Classic (LMP) and LE (LCP) link layers do
    differently; the controller runs one path over either record."""

    transport: Transport
    kind: str  # air-link traffic kind; upper-cased in audit notes
    dissect: Callable[[bytes], object]
    build: Callable[[int, int, bytes], bytes]  # (opcode, tid, params) -> octets
    name_to_opcode: dict[str, int]
    opcodes: dict[int, ll.OpcodeEntry]
    log_record: Callable[[bool, bytes, bytes], DiagMessage]  # (sent, peer MAC, octets)
    is_reject: Callable[[bytes], bool]
    # The refusal of a PDU's octets, or None when they name nothing to refuse.
    reject: Callable[[bytes], bytes | None]
    refuse_undissectable: bool
    # The answer on a live link to a PDU no handler takes: (opcode, tid) -> octets.
    unhandled: Callable[[int, int], bytes]
    # PDUs that are replies/rejections themselves and must never be
    # answered (answering them could bounce between two ends forever).
    no_reply: frozenset[str]
    script: tuple[ScriptStep, ...]  # the connection setup; its first step opens it
    detach: str  # the PDU that ends a connection
    # (status, handle, role, peer MAC on the wire) -> (event code, parameters)
    connection_complete: Callable[[int, int, int, bytes], tuple[int, bytes]]


CLASSIC_LINK = LinkLayer(
    transport=Transport.CLASSIC,
    kind=KIND_LMP,
    dissect=ll.dissect_lmp,
    build=lambda opcode, tid, params: ll.build_lmp(ll.LmpPdu(opcode, tid, params)),
    name_to_opcode=ll.LMP_NAME_TO_OPCODE,
    opcodes=ll.LMP_OPCODES,
    log_record=_lmp_log_record,
    is_reject=_is_lmp_reject,
    reject=lambda raw: _lmp_not_accepted(raw[0] >> 1) if raw else None,
    refuse_undissectable=True,
    unhandled=_lmp_not_accepted,
    no_reply=frozenset(
        {
            "LMP_accepted",
            "LMP_not_accepted",
            "LMP_accepted_ext",
            "LMP_not_accepted_ext",
            "LMP_features_res",
            "LMP_version_res",
            "LMP_setup_complete",
        }
    ),
    script=CLASSIC_SETUP,
    detach="LMP_detach",
    connection_complete=lambda status, handle, _role, wire: (
        hci.EVT_CONNECTION_COMPLETE, hci.connection_complete(status, handle, wire)
    ),
)

LE_LINK = LinkLayer(
    transport=Transport.LE,
    kind=KIND_LCP,
    dissect=ll.dissect_lcp,
    build=lambda opcode, _tid, params: ll.build_lcp(ll.LcpPdu(opcode, params)),
    name_to_opcode=ll.LCP_NAME_TO_OPCODE,
    opcodes=ll.LCP_OPCODES,
    # A record holds at most MAX_PAYLOAD octets; a longer PDU is cut, as LMP's at 17.
    log_record=lambda sent, peer_mac, pdu: diag.LcpLogRecord(
        sent=sent, full_mac=peer_mac, payload=pdu[: diag.LcpLogRecord.MAX_PAYLOAD]
    ),
    is_reject=lambda raw: bool(raw) and raw[0] in (
        ll.LCP_NAME_TO_OPCODE["LL_REJECT_IND"], ll.LCP_NAME_TO_OPCODE["LL_REJECT_EXT_IND"]
    ),
    reject=lambda _raw: ll.build_lcp(
        ll.LcpPdu(ll.LCP_NAME_TO_OPCODE["LL_REJECT_IND"], bytes([hci.ERR_LMP_PDU_NOT_ALLOWED]))
    ),
    refuse_undissectable=False,
    unhandled=lambda opcode, _tid: ll.build_lcp(
        ll.LcpPdu(ll.LCP_NAME_TO_OPCODE["LL_UNKNOWN_RSP"], bytes([opcode]))
    ),
    no_reply=frozenset(
        {
            "LL_REJECT_IND",
            "LL_REJECT_EXT_IND",
            "LL_UNKNOWN_RSP",
            "LL_FEATURE_RSP",
            "LL_VERSION_IND",
            "LL_PING_RSP",
            "LL_TERMINATE_IND",
        }
    ),
    script=LE_SETUP,
    detach="LL_TERMINATE_IND",
    connection_complete=lambda status, handle, role, wire: (
        hci.EVT_LE_META, hci.le_connection_complete(status, handle, role, wire)
    ),
)

_LINK_BY_KIND = {KIND_LMP: CLASSIC_LINK, KIND_LCP: LE_LINK}
# Connection-creating HCI opcode -> its link layer.
_CREATE_LINK = {
    hci.OPCODE_CREATE_CONNECTION: CLASSIC_LINK,
    hci.OPCODE_LE_CREATE_CONNECTION: LE_LINK,
}
# Commands whose outcome follows in an event of its own: they answer with
# a Command Status, every other command with a Command Complete.
_ANSWERED_BY_STATUS = frozenset(_CREATE_LINK) | {hci.OPCODE_DISCONNECT}
# Parameter lengths an HCI command can carry (its length field is one
# octet), and those of a create-connection command that hold the peer's MAC.
_ANY_LENGTH = range(256)
_HOLDS_PEER_MAC = {
    opcode: range(at + 6, 256) for opcode, (at, _sent) in hci.CREATE_CONNECTION_LAYOUT.items()
}


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

    def response(self, kind: DiagCode) -> diag.StatsResponse:
        return diag.StatsResponse(kind, tuple(self._counters[kind]))

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
        if not 0 <= test_packet_count <= 0xFFFF:  # TestCompleted's count width
            raise ValueError(f"test_packet_count must be 0..65535, got {test_packet_count}")
        self.mac = bytes(mac)
        self.name = name or hci.format_mac(mac)
        self.profile = profile or patched_profile()
        self.memory = memory or MemoryImage.default()
        # None: reset rebuilds the default image; a copy would cost 256 KiB of RSS.
        self._memory_pristine = None if memory is None else memory.snapshot()
        self.test_packet_count = test_packet_count

        self.link: VirtualLink | None = None
        self.clock = 0
        self.diag_log_enabled = False
        self.test_mode_active = False
        self.connections: dict[int, Connection] = {}
        self.stats = StatsStore()
        self.audit: deque[str] = deque(maxlen=AUDIT_MAX)
        self._out = _NO_CALL  # the running process_host_frame call's frames
        self._taps: list[TapFn] = []
        self._next_handle = FIRST_HANDLE

    # ----- plumbing ---------------------------------------------------

    def add_tap(self, fn: TapFn) -> None:
        """Subscribe to every frame crossing this controller's host
        boundary, both directions, with its logical tick."""
        self._taps.append(fn)

    def remove_tap(self, fn: TapFn) -> None:
        if fn in self._taps:
            self._taps.remove(fn)

    def _emit(self, frame: H4Frame) -> None:
        self._out.append(frame)
        for fn in self._taps:
            fn(_TO_HOST, frame, self.clock)

    def _emit_event(self, code: int, params: bytes) -> None:
        self._emit(HciEvent(code, params).to_frame())

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
        if self._memory_pristine is None:
            self.memory.regions = MemoryImage.default().regions
        else:
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
        """Public entry: check one host frame, handle it, run the air link
        to quiescence, and return the frames this controller emitted
        meanwhile.  A malformed frame raises InvariantViolation before the
        clock moves or any tap sees it; past this check every frame a tap
        sees is valid by construction.  Frames it emits outside such a
        call, driven by its peer, reach only its taps."""
        h4_type, payload = frame
        if h4_type is not _DIAG or len(payload) != DIAG_PAYLOAD_LEN:
            frame.validate()  # a full diag envelope is valid by its length alone
        self.clock = clock = self.clock + 1
        for fn in self._taps:
            fn(_TO_CONTROLLER, frame, clock)
        self._out = out = []
        try:
            if h4_type is _DIAG:
                try:
                    msg = parse_diag(payload)
                except BcmDiagError as exc:
                    self._note(f"undecodable diagnostic frame: {exc}")
                else:  # handle_diag's dispatch, inline: it runs for every request
                    handler = self._DIAG_HANDLERS.get(msg.__class__, Controller._diag_unhandled)
                    for response in handler(self, msg):
                        self._emit(response.to_frame())
            elif h4_type is _HCI_COMMAND:
                opcode, params = payload[0] | payload[1] << 8, payload[3:]
                entry = self._HCI_HANDLERS.get(opcode)
                if entry is None:
                    self._note(f"unknown HCI opcode 0x{opcode:04x}")
                    self._status(opcode, hci.ERR_UNKNOWN_COMMAND)
                elif len(params) in entry[1]:
                    entry[0](self, tuple.__new__(HciCommand, (opcode, params)))
                elif opcode in _ANSWERED_BY_STATUS:
                    self._status(opcode, hci.ERR_INVALID_PARAMETERS)
                else:
                    self._complete(opcode, bytes([hci.ERR_INVALID_PARAMETERS]))
            elif h4_type is _ACL_DATA:
                self._handle_host_acl(payload)
            elif h4_type in _OPAQUE:
                # Documented to exist, not documented to do anything we
                # can model: acknowledge by logging only.
                self._note(f"opaque {h4_type.name} frame ({len(payload)} octets)")
            else:
                self._note(f"host sent {h4_type.name}; ignored")
            if self.link is not None:
                self.link.pump()
        finally:
            self._out = _NO_CALL
        return out

    # ----- HCI surface ----------------------------------------------------

    def _complete(self, opcode: int, return_params: bytes = b"") -> None:
        self._emit_event(hci.EVT_COMMAND_COMPLETE, hci.command_complete(opcode, return_params))

    def _status(self, opcode: int, status: int = hci.ERR_SUCCESS) -> None:
        self._emit_event(hci.EVT_COMMAND_STATUS, hci.command_status(status, opcode))

    def _cmd_read_local_version(self, cmd: HciCommand) -> None:
        self._emit(_LOCAL_VERSION_COMPLETE)

    def _cmd_reset(self, cmd: HciCommand) -> None:
        self.reset()
        self._complete(cmd.opcode, bytes([hci.ERR_SUCCESS]))

    def _cmd_enable_dut(self, cmd: HciCommand) -> None:
        self._enter_dut_mode()
        self._complete(cmd.opcode, bytes([hci.ERR_SUCCESS]))

    def _cmd_create_connection(self, cmd: HciCommand) -> None:
        """Create Connection and LE Create Connection."""
        layer = _CREATE_LINK[cmd.opcode]
        at = hci.CREATE_CONNECTION_LAYOUT[cmd.opcode][0]
        wire = cmd.params[at : at + 6]
        peer = hci.mac_from_wire(wire)
        if self._find_connection(peer, layer.transport) is not None:
            self._status(cmd.opcode, hci.ERR_ACL_ALREADY_EXISTS)
            return
        self._status(cmd.opcode, hci.ERR_SUCCESS)
        linked_peer = self.link.peer_of(self) if self.link is not None else None
        if linked_peer is None or linked_peer.mac != peer:
            # Nobody on the air answers the page.
            self._emit_event(*layer.connection_complete(hci.ERR_PAGE_TIMEOUT, 0, 0, wire))
            return
        conn = self._new_connection(peer, Role.MASTER, layer, Phase.PAGING)
        self._advance_script(conn)

    def _cmd_disconnect(self, cmd: HciCommand) -> None:
        handle, reason = struct.unpack_from("<HB", cmd.params)
        conn = self.connections.get(handle)
        if conn is None:
            self._status(cmd.opcode, hci.ERR_UNKNOWN_CONNECTION)
            return
        self._status(cmd.opcode, hci.ERR_SUCCESS)
        self._send_pdu(conn, conn.layer.detach, 0, bytes([reason]))
        self._drop_connection(conn, reason)

    def _cmd_send_lmp_pdu(self, cmd: HciCommand) -> None:
        (handle,) = struct.unpack_from("<H", cmd.params)
        raw = cmd.params[2:]
        conn = self.connections.get(handle)
        if conn is None or conn.transport is not Transport.CLASSIC:
            self._complete(cmd.opcode, bytes([hci.ERR_UNKNOWN_CONNECTION]))
            return
        if not self._lmp_injectable(raw):
            self._complete(cmd.opcode, bytes([hci.ERR_INVALID_PARAMETERS]))
            return
        self._send(conn, raw)
        self._complete(cmd.opcode, bytes([hci.ERR_SUCCESS]))

    @staticmethod
    def _lmp_injectable(raw: bytes) -> bool:
        """Injection validates standard opcodes and lengths; the vendor
        space (opcode 0) passes with any subtype -- the receiving side's
        missing range check is exactly the published bug."""
        if not raw or len(raw) > ll.LMP_MAX_PDU:
            return False
        try:
            ll.dissect_lmp(raw)
        except BcmDiagError:
            return False
        return True

    def _cmd_read_ram(self, cmd: HciCommand) -> None:
        address, length = struct.unpack("<IB", cmd.params)
        data = self.memory.read_block(MemAccessType.ARM, address, length)
        if data is None or length > READ_RAM_MAX:
            self._complete(cmd.opcode, bytes([hci.ERR_INVALID_PARAMETERS]))
            return
        self._complete(cmd.opcode, bytes([hci.ERR_SUCCESS]) + data)

    def _cmd_write_ram(self, cmd: HciCommand) -> None:
        (address,) = struct.unpack_from("<I", cmd.params)
        ok = self.memory.write_block(MemAccessType.ARM, address, cmd.params[4:])
        self._complete(
            cmd.opcode,
            bytes([hci.ERR_SUCCESS if ok else hci.ERR_INVALID_PARAMETERS]),
        )

    def _cmd_super_duper_peek_poke(self, cmd: HciCommand) -> None:
        # Layout (toolkit convention): mode octet (0 peek / 1 poke),
        # 32-bit address, one value octet for poke.  BlueRF space only.
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
        mac = hci.mac_from_wire(cmd.params)
        allow = self.profile.firewall_allowlist
        if allow is None:
            allow = self.profile.firewall_allowlist = set()
        if mac not in allow and len(allow) >= FIREWALL_ALLOWLIST_MAX:
            self._complete(cmd.opcode, bytes([hci.ERR_MEMORY_CAPACITY_EXCEEDED]))
            return
        allow.add(mac)
        self._complete(cmd.opcode, bytes([hci.ERR_SUCCESS]))

    def _cmd_firewall_del(self, cmd: HciCommand) -> None:
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

    # opcode -> (handler, the parameter lengths it takes), built once with
    # the class; process_host_frame refuses every other length.
    _HCI_HANDLERS = {
        hci.OPCODE_READ_LOCAL_VERSION: (_cmd_read_local_version, _ANY_LENGTH),
        hci.OPCODE_RESET: (_cmd_reset, _ANY_LENGTH),
        hci.OPCODE_CREATE_CONNECTION: (
            _cmd_create_connection, _HOLDS_PEER_MAC[hci.OPCODE_CREATE_CONNECTION]
        ),
        hci.OPCODE_DISCONNECT: (_cmd_disconnect, range(3, 256)),
        hci.OPCODE_LE_CREATE_CONNECTION: (
            _cmd_create_connection, _HOLDS_PEER_MAC[hci.OPCODE_LE_CREATE_CONNECTION]
        ),
        hci.OPCODE_ENABLE_DUT_MODE: (_cmd_enable_dut, _ANY_LENGTH),
        hci.OPCODE_VSC_SEND_LMP_PDU: (_cmd_send_lmp_pdu, range(3, 256)),
        hci.OPCODE_VSC_READ_RAM: (_cmd_read_ram, (5,)),
        hci.OPCODE_VSC_WRITE_RAM: (_cmd_write_ram, range(5, 256)),
        hci.OPCODE_VSC_SUPER_DUPER_PEEK_POKE: (_cmd_super_duper_peek_poke, range(5, 256)),
        hci.OPCODE_VSC_FIREWALL_ADD: (_cmd_firewall_add, (6,)),
        hci.OPCODE_VSC_FIREWALL_DEL: (_cmd_firewall_del, (6,)),
        hci.OPCODE_VSC_FIREWALL_SHOW: (_cmd_firewall_show, _ANY_LENGTH),
    }

    # ----- host ACL data ---------------------------------------------------

    def _handle_host_acl(self, payload: bytes) -> None:
        handle_flags, _length = struct.unpack_from("<HH", payload)
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
                self, KIND_ACL, (conn.transport.value, flags, payload[4:])
            )
        self._emit_event(hci.EVT_NUM_COMPLETED_PACKETS, hci.num_completed_packets(handle))

    # ----- diagnostic surface ------------------------------------------------

    def handle_diag(self, msg: DiagMessage) -> list[DiagMessage]:
        return self._DIAG_HANDLERS.get(msg.__class__, Controller._diag_unhandled)(self, msg)

    def _diag_unhandled(self, msg: DiagMessage) -> list[DiagMessage]:
        if code_direction(msg.code) is not Direction.HOST_TO_CONTROLLER:
            self._note(f"host sent controller->host diag code 0x{msg.code:02x}")
        else:
            self._note(f"unhandled diag code 0x{msg.code:02x}")
        return []

    def _diag_toggle_logging(self, msg: diag.ToggleLmpLogging) -> list[DiagMessage]:
        self.diag_log_enabled = msg.enable
        return []

    def _diag_peek(self, msg: diag.MemoryPeek) -> list[DiagMessage]:
        value = self.memory.read(*msg)
        return [diag.PeekResponse(0x01, 0) if value is None else diag.PeekResponse(0x00, value)]

    def _diag_poke(self, msg: diag.MemoryPoke) -> list[DiagMessage]:
        ok = self.memory.write(*msg)
        return [diag.PokeResponse(0x00 if ok else 0x01)]

    def _diag_hexdump(self, msg: diag.MemoryHexdump) -> list[DiagMessage]:
        (address,) = msg
        data = self.memory.read_block(_HEXDUMP_ARM, address, HEXDUMP_DATA_LEN)
        if data is None:
            self._note(f"hexdump outside ARM regions: 0x{address:08x}")
            data = bytes(HEXDUMP_DATA_LEN)
        return [diag.HexdumpResponse(address, data)]

    def _diag_stats(self, msg: diag.StatsRequest) -> list[DiagMessage]:
        kind = msg.kind
        if kind is DiagCode.RESET_BR_ACL_STATS:
            self.stats.reset_br_acl()
            return []
        if kind is not DiagCode.GET_CONNECTION_STATS:
            return [self.stats.response(RESPONSE_FOR_REQUEST[kind])]
        # One record per live connection; the CPU load piggybacks on
        # this request because no dedicated getter code exists.
        out: list[DiagMessage] = [
            diag.StatsResponse(
                DiagCode.CONNECTION_RESPONSE,
                (c.handle, struct.unpack("<I", hci.low_mac(c.peer_mac))[0], c.role.value, c.phase.value),
            )
            for c in sorted(self.connections.values(), key=lambda c: c.handle)
        ]
        out.append(diag.StatsResponse(DiagCode.CPU_LOAD_RESPONSE, (5 * len(self.connections),)))
        return out

    def _diag_run_test(self, msg: diag.RunTest) -> list[DiagMessage]:
        """Simulate a radio test run: one packet per tick for the
        configured packet budget.  A linked peer loops every packet
        back; with no peer on the air nothing is received."""
        if not msg.params.is_valid:
            return [diag.TestCompleted(status=0x01, tx_count=0, rx_count=0)]
        count = self.test_packet_count
        self.clock += count
        rx_count = count if self.link is not None else 0
        return [diag.TestCompleted(status=0x00, tx_count=count, rx_count=rx_count)]

    # Host-to-controller message class -> handler, built once with the
    # class; the host may not send the other classes.
    _DIAG_HANDLERS = {
        diag.ToggleLmpLogging: _diag_toggle_logging,
        diag.MemoryPeek: _diag_peek,
        diag.MemoryPoke: _diag_poke,
        diag.MemoryHexdump: _diag_hexdump,
        diag.StatsRequest: _diag_stats,
        diag.RunTest: _diag_run_test,
    }

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
        layer = _LINK_BY_KIND[kind]
        self._log(layer, False, from_mac, raw)
        if not self.profile.firewall_allows(from_mac):
            self._note(f"firewall rejected {layer.kind.upper()} from {hci.format_mac(from_mac)}")
            # Replying to a rejection with a rejection would ping-pong
            # between two firewalled ends forever.
            if not layer.is_reject(raw):
                self._refuse(layer, from_mac, raw)
            return
        self._handle_link_pdu(layer, from_mac, raw)

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

    # ----- link-layer log records and sending ------------------------------------

    def _log(self, layer: LinkLayer, sent: bool, peer_mac: bytes, pdu: bytes) -> None:
        # Built only when a tap or the running process_host_frame call takes it.
        if self.diag_log_enabled and (self._taps or self._out is not _NO_CALL):
            self._emit(layer.log_record(sent, peer_mac, pdu).to_frame())

    def _send_raw(self, layer: LinkLayer, peer_mac: bytes, raw: bytes) -> None:
        self._log(layer, True, peer_mac, raw)
        if self.link is not None:
            self.link.transmit(self, layer.kind, raw)

    def _send(self, conn: Connection, raw: bytes) -> None:
        self._send_raw(conn.layer, conn.peer_mac, raw)

    def _send_pdu(self, conn: Connection, name: str, tid: int, params: bytes | None = None) -> None:
        """Send the standard PDU ``name`` on ``conn``, by default with
        its _PDU_PARAMS body."""
        layer = conn.layer
        opcode = layer.name_to_opcode[name]
        if params is None:
            params = _PDU_PARAMS.get(name, bytes(layer.opcodes[opcode].param_len))
        self._send(conn, layer.build(opcode, tid, params))

    def _send_lmp(self, conn: Connection, pdu: ll.LmpPdu | ll.BpcsPdu) -> None:
        self._send(conn, ll.build_lmp(pdu))

    def _refuse(self, layer: LinkLayer, peer_mac: bytes, raw: bytes) -> None:
        reject = layer.reject(raw)
        if reject is not None:
            self._send_raw(layer, peer_mac, reject)

    # ----- connection bookkeeping ---------------------------------------------

    def _find_connection(self, peer_mac: bytes, transport: Transport) -> Connection | None:
        for conn in self.connections.values():
            if conn.peer_mac == peer_mac and conn.transport is transport:
                return conn
        return None

    def _new_connection(
        self, peer: bytes, role: Role, layer: LinkLayer, phase: Phase
    ) -> Connection:
        # Allocation wraps, so handles of dropped connections come back.
        for _ in range(MAX_HANDLE - FIRST_HANDLE + 1):
            handle = self._next_handle
            self._next_handle = handle + 1 if handle < MAX_HANDLE else FIRST_HANDLE
            if handle not in self.connections:
                break
        else:
            raise BcmDiagError("connection handles exhausted")
        conn = Connection(handle, peer, role, layer, phase)
        self.connections[handle] = conn
        return conn

    def _drop_connection(self, conn: Connection, reason: int) -> None:
        self.connections.pop(conn.handle, None)
        self._emit_event(
            hci.EVT_DISCONNECTION_COMPLETE,
            hci.disconnection_complete(hci.ERR_SUCCESS, conn.handle, reason),
        )

    def _advance_script(self, conn: Connection) -> None:
        """Send every consecutive script step owned by our role, so the
        cursor rests on a step of the peer's; past the last step the
        connection is up."""
        layer = conn.layer
        script = layer.script
        while conn.script_cursor < len(script) and script[conn.script_cursor].role is conn.role:
            step = script[conn.script_cursor]
            conn.script_cursor += 1
            if conn.phase is Phase.PAGING:
                conn.phase = Phase.LMP_SETUP
            arg = None if step.arg is None else bytes([layer.name_to_opcode[step.arg]])
            self._send_pdu(conn, step.pdu_name, conn.role.value, arg)
        if conn.script_cursor >= len(script):
            conn.phase = Phase.CONNECTED
            self._emit_event(*layer.connection_complete(
                hci.ERR_SUCCESS, conn.handle, conn.role.value, hci.mac_to_wire(conn.peer_mac)
            ))

    # ----- inbound link-layer handling ------------------------------------------

    def _handle_link_pdu(self, layer: LinkLayer, from_mac: bytes, raw: bytes) -> None:
        try:
            pdu = layer.dissect(raw)
        except BcmDiagError as exc:
            self._note(f"undissectable {layer.kind.upper()} from {hci.format_mac(from_mac)}: {exc}")
            if layer.refuse_undissectable:
                self._refuse(layer, from_mac, raw)
            return

        conn = self._find_connection(from_mac, layer.transport)

        if isinstance(pdu, ll.BpcsPdu):
            self._handle_bpcs(from_mac, conn, pdu)
            return

        name = pdu.name

        if conn is None:
            # A fresh setup opener creates the inbound (slave) side;
            # anything else has no connection to live on.  Responses and
            # rejections are dropped rather than rejected back, so two
            # connectionless ends can never bounce replies forever.
            if name != layer.script[0].pdu_name:
                if name in layer.no_reply:
                    self._note(f"{name} from unconnected {hci.format_mac(from_mac)}")
                else:
                    self._refuse(layer, from_mac, raw)
                return
            conn = self._new_connection(from_mac, Role.SLAVE, layer, Phase.LMP_SETUP)

        script = layer.script
        if conn.script_cursor < len(script) and script[conn.script_cursor].pdu_name == name:
            # The peer's next setup step.
            conn.script_cursor += 1
            self._advance_script(conn)
            return

        handler = self._LINK_HANDLERS.get(name)
        if handler is None:
            self._send(conn, layer.unhandled(pdu.opcode, conn.role.value))
            return
        handler(self, conn, pdu)

    def _ignore(self, conn: Connection, pdu: ll.LinkPdu) -> None:
        self._note(f"ignored {pdu.name} on handle 0x{conn.handle:04x}")

    def _detach(self, conn: Connection, pdu: ll.LmpPdu | ll.LcpPdu) -> None:
        reason = pdu.params[0] if pdu.params else hci.ERR_REMOTE_TERMINATED
        self._drop_connection(conn, reason)

    def _lmp_features_req(self, conn: Connection, pdu: ll.LmpPdu) -> None:
        self._send_pdu(conn, "LMP_features_res", pdu.tid)

    def _lmp_version_req(self, conn: Connection, pdu: ll.LmpPdu) -> None:
        self._send_pdu(conn, "LMP_version_res", pdu.tid)

    def _lcp_feature_req(self, conn: Connection, pdu: ll.LcpPdu) -> None:
        self._send_pdu(conn, "LL_FEATURE_RSP", 0)

    def _lcp_ping_req(self, conn: Connection, pdu: ll.LcpPdu) -> None:
        self._send_pdu(conn, "LL_PING_RSP", 0)

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
        accepted = bytes([ll.LMP_NAME_TO_OPCODE["LMP_DHkey_Check"]])
        self._send_pdu(conn, "LMP_accepted", pdu.tid, accepted)

    def _lmp_start_encryption_req(self, conn: Connection, pdu: ll.LmpPdu) -> None:
        opcode = ll.LMP_NAME_TO_OPCODE["LMP_start_encryption_req"]
        if conn.phase is Phase.SSP_PENDING and conn.ssp_confirmed:
            conn.phase = Phase.ENCRYPTED
            self._send_pdu(conn, "LMP_accepted", pdu.tid, bytes([opcode]))
            return
        if conn.phase is Phase.SSP_PENDING and not self.profile.encryption_order_check:
            # Out-of-order encryption setup: the key calculation runs on
            # uninitialized pairing state and the firmware dies.
            self.crash("encryption start during pending pairing")
            return
        self._send(conn, _lmp_not_accepted(opcode, conn.role.value))

    def _lmp_accepted(self, conn: Connection, pdu: ll.LmpPdu) -> None:
        accepted = pdu.params[0] if pdu.params else 0
        if accepted == ll.LMP_NAME_TO_OPCODE["LMP_start_encryption_req"]:
            conn.phase = Phase.ENCRYPTED

    # PDU name -> handler, for both link layers (their names never
    # collide); a PDU without one gets its layer's ``unhandled`` answer.
    _LINK_HANDLERS = {
        # Replies and vendor LCPs need no answer; only an accepted one
        # changes state and only a terminate ends the link.
        **dict.fromkeys(
            CLASSIC_LINK.no_reply | LE_LINK.no_reply | {"LMP_IO_capability_res"}
            | {ll.vendor_lcp(subtype).name for subtype in ll.LCP_VENDOR_NAMES},
            _ignore,
        ),
        "LMP_accepted": _lmp_accepted,
        "LMP_features_req": _lmp_features_req,
        "LMP_version_req": _lmp_version_req,
        "LMP_IO_capability_req": _lmp_io_capability_req,
        "LMP_DHkey_Check": _lmp_dhkey_check,
        "LMP_start_encryption_req": _lmp_start_encryption_req,
        "LMP_detach": _detach,
        "LL_TERMINATE_IND": _detach,
        "LL_FEATURE_REQ": _lcp_feature_req,
        "LL_PING_REQ": _lcp_ping_req,
    }

    def _handle_bpcs(
        self, from_mac: bytes, conn: Connection | None, pdu: ll.BpcsPdu
    ) -> None:
        if conn is None:
            if pdu.subtype in (ll.BPCS_FEATURES_REQUEST, ll.BPCS_BFC_SUSPEND, ll.BPCS_BFC_RESUME):
                self._send_raw(CLASSIC_LINK, from_mac, _lmp_not_accepted(ll.BPCS_OPCODE))
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

    # ----- raw injection (attack tooling / harnesses) ---------------------------

    def inject_lmp(self, raw: bytes) -> None:
        """Transmit raw Classic PDU octets over the link, bypassing any
        connection.  This is the radio-level attacker primitive."""
        self._inject(CLASSIC_LINK, raw)

    def inject_lcp(self, raw: bytes) -> None:
        self._inject(LE_LINK, raw)

    def _inject(self, layer: LinkLayer, raw: bytes) -> None:
        peer_mac = self.link.peer_of(self).mac if self.link is not None else bytes(6)
        self._send_raw(layer, peer_mac, bytes(raw))
        if self.link is not None:
            self.link.pump()
