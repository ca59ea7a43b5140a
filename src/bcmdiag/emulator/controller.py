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
from typing import Callable

from .. import diag, hci, ll
from ..diag import (
    HEXDUMP_DATA_LEN,
    RESPONSE_FOR_REQUEST,
    STATS_FIELDS,
    DiagCode,
    DiagMessage,
    MemAccessType,
    parse_diag,
)
from ..errors import BcmDiagError
from ..h4 import DIAG_PAYLOAD_LEN, Direction, H4Frame, H4Type, HciCommand, HciEvent
from .link import KIND_ACL, KIND_RESET, VirtualLink
from .linklayer import (
    BPCS_REPLIES, CLASSIC_LINK, CREATE_LINK, DHKEY_CHECK, LE_LINK, LINK_BY_KIND, REJECTIONS,
    REPLIES, START_ENCRYPTION, Connection, LinkLayer, Phase, Role, lmp_injectable,
    lmp_not_accepted,
)
from .memory import MemoryImage
from .profiles import HandlerAction, SecurityProfile, patched_profile

FIRST_HANDLE = 0x000B
MAX_HANDLE = 0x0EFF
# Audit notes kept, newest last; older ones fall out.
AUDIT_MAX = 1024
LOG_FRAMES_MAX = 64  # log-record frames a controller keeps built; then it starts over
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

# Commands whose outcome follows in an event of its own: they answer with
# a Command Status, every other command with a Command Complete.
_ANSWERED_BY_STATUS = frozenset(CREATE_LINK) | {hci.OPCODE_DISCONNECT}
# Parameter lengths an HCI command can carry (its length field is one
# octet), and those of a create-connection command that hold the peer's MAC.
_ANY_LENGTH = range(256)
_HOLDS_PEER_MAC = {
    opcode: range(at + 6, 256) for opcode, (at, _sent) in hci.CREATE_CONNECTION_LAYOUT.items()
}


# The statistics kinds a controller counts: every getter's answer but the
# connection records, which come from the connection table.  Counters
# only grow; only the reset command moves them back, and only BR ACL's.
_COUNTED = tuple(k for k in RESPONSE_FOR_REQUEST.values() if k is not DiagCode.CONNECTION_RESPONSE)
_BR_ACL = DiagCode.BR_ACL_STATS
_BR_ACL_TX, _BR_ACL_RX = map(STATS_FIELDS[_BR_ACL].index, ("tx_packets", "rx_packets"))


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
        self.test_packet_count = test_packet_count

        self.link: VirtualLink | None = None
        self.clock = 0
        self.audit: deque[str] = deque(maxlen=AUDIT_MAX)
        self._out = _NO_CALL  # the running process_host_frame call's frames
        self._log_frames: dict[tuple, H4Frame] = {}  # (kind, sent, peer MAC, PDU) -> frame
        self._taps: list[TapFn] = []
        self._power_on()

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
        self._emit(tuple.__new__(HciEvent, (code, params)).to_frame())  # no Python __new__

    def _note(self, text: str) -> None:
        self.audit.append(f"[{self.clock}] {text}")

    # ----- lifecycle ----------------------------------------------------

    def reset(self) -> None:
        """Return to power-on state; MAC and security profile persist.
        The tick counter is monotonic for the controller's lifetime --
        capture timestamps must never run backwards, so a reset does not
        rewind it."""
        self.memory.reset()
        self._power_on()
        if self.link is not None:
            self.link.drop_inbound(self)

    def _power_on(self) -> None:
        """Power-on flags, connections, counters and handle allocator.
        Memory is not here: a new image starts at its power-on octets."""
        self.diag_log_enabled = False
        self.test_mode_active = False
        self.connections: dict[int, Connection] = {}
        self.stats = {kind: [0] * len(STATS_FIELDS[kind]) for kind in _COUNTED}
        self._next_handle = FIRST_HANDLE

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
        profile, allow = self.profile, self.profile.firewall_allowlist
        return {
            "mac": self.mac,
            # Copies, so a later edit cannot reach an earlier snapshot.
            "profile": {
                **vars(profile),
                "firewall_allowlist": None if allow is None else set(allow),
                "bpcs_overflow_map": dict(profile.bpcs_overflow_map),
            },
            "connections": tuple(
                (
                    c.handle,
                    c.peer_mac,
                    c.role,
                    c.layer.kind,
                    c.phase,
                    c.ssp_confirmed,
                )
                for c in sorted(self.connections.values(), key=lambda c: c.handle)
            ),
            "diag_log_enabled": self.diag_log_enabled,
            "test_mode_active": self.test_mode_active,
            "stats": tuple((kind, tuple(values)) for kind, values in self.stats.items()),
            "memory": tuple(self.memory.snapshot()),
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
                else:
                    handler = self._DIAG_HANDLERS.get(msg.__class__)
                    if handler is None:
                        self._note(f"host sent controller->host diag code 0x{msg.code:02x}")
                    else:
                        for response in handler(self, msg):
                            self._emit(response.to_frame())
            elif h4_type is _HCI_COMMAND:
                opcode, params = payload[0] | payload[1] << 8, payload[3:]
                entry = self._HCI_HANDLERS.get(opcode)
                ret = None
                if entry is None:
                    self._note(f"unknown HCI opcode 0x{opcode:04x}")
                    self._status(opcode, hci.ERR_UNKNOWN_COMMAND)
                elif len(params) in entry[1]:
                    ret = entry[0](self, tuple.__new__(HciCommand, (opcode, params)))
                elif opcode in _ANSWERED_BY_STATUS:
                    self._status(opcode, hci.ERR_INVALID_PARAMETERS)
                else:
                    ret = bytes([hci.ERR_INVALID_PARAMETERS])
                if ret is not None:
                    self._emit_event(hci.EVT_COMMAND_COMPLETE, hci.command_complete(opcode, ret))
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

    def _status(self, opcode: int, status: int = hci.ERR_SUCCESS) -> None:
        self._emit_event(hci.EVT_COMMAND_STATUS, hci.command_status(status, opcode))

    def _cmd_read_local_version(self, cmd: HciCommand) -> None:
        self._emit(_LOCAL_VERSION_COMPLETE)

    def _cmd_reset(self, cmd: HciCommand) -> bytes:
        self.reset()
        return bytes([hci.ERR_SUCCESS])

    def _cmd_enable_dut(self, cmd: HciCommand) -> bytes:
        self._enter_dut_mode()
        return bytes([hci.ERR_SUCCESS])

    def _cmd_create_connection(self, cmd: HciCommand) -> None:
        """Create Connection and LE Create Connection."""
        layer = CREATE_LINK[cmd.opcode]
        at = hci.CREATE_CONNECTION_LAYOUT[cmd.opcode][0]
        wire = cmd.params[at : at + 6]
        peer = hci.mac_from_wire(wire)
        if self._find_connection(peer, layer) is not None:
            self._status(cmd.opcode, hci.ERR_ACL_ALREADY_EXISTS)
            return
        self._status(cmd.opcode, hci.ERR_SUCCESS)
        linked_peer = self.link.peer_of(self) if self.link is not None else None
        if linked_peer is None or linked_peer.mac != peer:
            # Nobody on the air answers the page.
            self._emit_event(*layer.connection_complete(hci.ERR_PAGE_TIMEOUT, 0, 0, wire))
            return
        conn = self._new_connection(peer, Role.MASTER, layer)
        self._advance_script(conn)

    def _cmd_disconnect(self, cmd: HciCommand) -> None:
        handle, reason = struct.unpack_from("<HB", cmd.params)
        conn = self.connections.get(handle)
        self._status(cmd.opcode, hci.ERR_UNKNOWN_CONNECTION if conn is None else hci.ERR_SUCCESS)
        if conn is not None:
            layer = conn.layer
            self._send_raw(layer, conn.peer_mac, layer.octets(layer.detach, 0, bytes([reason])))
            self._drop_connection(conn, reason)

    def _cmd_send_lmp_pdu(self, cmd: HciCommand) -> bytes:
        (handle,) = struct.unpack_from("<H", cmd.params)
        raw = cmd.params[2:]
        conn = self.connections.get(handle)
        if conn is None or conn.layer is not CLASSIC_LINK:
            return bytes([hci.ERR_UNKNOWN_CONNECTION])
        if not lmp_injectable(raw):
            return bytes([hci.ERR_INVALID_PARAMETERS])
        self._send_raw(CLASSIC_LINK, conn.peer_mac, raw)
        return bytes([hci.ERR_SUCCESS])

    def _cmd_read_ram(self, cmd: HciCommand) -> bytes:
        address, length = struct.unpack("<IB", cmd.params)
        data = self.memory.read_block(MemAccessType.ARM, address, length)
        if data is None or length > READ_RAM_MAX:
            return bytes([hci.ERR_INVALID_PARAMETERS])
        return bytes([hci.ERR_SUCCESS]) + data

    def _cmd_write_ram(self, cmd: HciCommand) -> bytes:
        (address,) = struct.unpack_from("<I", cmd.params)
        ok = self.memory.write_block(MemAccessType.ARM, address, cmd.params[4:])
        return bytes([hci.ERR_SUCCESS if ok else hci.ERR_INVALID_PARAMETERS])

    def _cmd_super_duper_peek_poke(self, cmd: HciCommand) -> bytes:
        # Layout (toolkit convention): mode octet (0 peek / 1 poke),
        # 32-bit address, one value octet for poke.  BlueRF space only.
        mode = cmd.params[0]
        (address,) = struct.unpack_from("<I", cmd.params, 1)
        if mode == 0:
            value = self.memory.read(MemAccessType.BLUERF, address)
            if value is None:
                return bytes([hci.ERR_INVALID_PARAMETERS, 0])
            return bytes([hci.ERR_SUCCESS, value])
        if mode == 1 and len(cmd.params) >= 6:
            ok = self.memory.write(MemAccessType.BLUERF, address, cmd.params[5])
            return bytes([hci.ERR_SUCCESS if ok else hci.ERR_INVALID_PARAMETERS])
        return bytes([hci.ERR_INVALID_PARAMETERS])

    def _cmd_firewall_add(self, cmd: HciCommand) -> bytes:
        mac = hci.mac_from_wire(cmd.params)
        allow = self.profile.firewall_allowlist
        if allow is None:
            allow = self.profile.firewall_allowlist = set()
        if mac not in allow and len(allow) >= hci.FIREWALL_ALLOWLIST_MAX:
            return bytes([hci.ERR_MEMORY_CAPACITY_EXCEEDED])
        allow.add(mac)
        return bytes([hci.ERR_SUCCESS])

    def _cmd_firewall_del(self, cmd: HciCommand) -> bytes:
        mac = hci.mac_from_wire(cmd.params)
        if self.profile.firewall_allowlist is not None:
            self.profile.firewall_allowlist.discard(mac)
        return bytes([hci.ERR_SUCCESS])

    def _cmd_firewall_show(self, cmd: HciCommand) -> bytes:
        return hci.firewall_show_params(self.profile.firewall_allowlist)

    # opcode -> (handler, the parameter lengths it takes), built once with
    # the class; process_host_frame refuses every other length.  Every
    # handler table keeps one contract: a handler returns its answer and the
    # caller sends it, as it sends every refusal; here the answer is the
    # Command Complete's return parameters, or None.  Handlers send only
    # Create Connection's and Disconnect's Command Status, which their own
    # Complete event must follow, Read Local Version's prebuilt Complete, so
    # the busiest command builds no event, and the setup script's steps.
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
        if conn.layer is CLASSIC_LINK:
            self.stats[_BR_ACL][_BR_ACL_TX] += 1
        if self.link is not None:
            self.link.transmit(self, KIND_ACL, (conn.layer, flags, payload[4:]))
        self._emit_event(hci.EVT_NUM_COMPLETED_PACKETS, hci.num_completed_packets(handle))

    # ----- diagnostic surface ------------------------------------------------

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
            self.stats[_BR_ACL] = [0] * len(STATS_FIELDS[_BR_ACL])
            return []
        if kind is not DiagCode.GET_CONNECTION_STATS:
            counted = RESPONSE_FOR_REQUEST[kind]
            return [diag.StatsResponse(counted, tuple(self.stats[counted]))]
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
    # class; the host may not send the other classes.  A handler returns
    # its answers and process_host_frame sends them: see _HCI_HANDLERS.
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
        """Take one air unit from the peer at ``from_mac``; send its answer, if any."""
        self.clock += 1
        if kind == KIND_RESET:  # the peer dropped off the air
            for conn in [c for c in self.connections.values() if c.peer_mac == from_mac]:
                self._drop_connection(conn, hci.ERR_CONNECTION_TIMEOUT)
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
        layer = LINK_BY_KIND[kind]
        self._log(layer, False, from_mac, raw)
        allow = self.profile.firewall_allowlist
        firewalled = allow is not None and from_mac not in allow
        if firewalled:
            self._note(f"firewall rejected {layer.kind.upper()} from {hci.format_mac(from_mac)}")
        try:  # a constant's octets are dissected already
            pdu = layer.pdus.get(raw) or layer.dissect(raw)
            name = pdu.name
        except BcmDiagError as exc:
            if not firewalled:
                self._note(f"undissectable {layer.kind.upper()} from {hci.format_mac(from_mac)}: {exc}")
            pdu = name = None
        conn = None if firewalled or pdu is None else self._find_connection(from_mac, layer)
        script = layer.script
        if conn is None and not firewalled and name == script[0].pdu_name:
            # A setup opener from an allowed peer creates the inbound (slave) side.
            conn = self._new_connection(from_mac, Role.SLAVE, layer)
        if conn is None:
            # Nothing to live on: refused, but a rejection is never answered (see REJECTIONS).
            if name in REJECTIONS:
                if not firewalled:
                    self._note(f"{name} from unconnected {hci.format_mac(from_mac)}")
                return
            answer = layer.reject(raw) if pdu is not None or layer.refuse_undissectable else None
        elif isinstance(pdu, ll.BpcsPdu):
            answer = self._handle_bpcs(pdu)
        elif conn.script_cursor < len(script) and script[conn.script_cursor].pdu_name == name:
            # The peer's next setup step.
            conn.script_cursor += 1
            self._advance_script(conn)
            return
        else:
            handler = self._LINK_HANDLERS.get(name)
            if handler is None:
                answer = layer.unhandled(pdu.opcode, conn.tid)
            else:
                answer = handler(self, conn, pdu)
        if answer is not None:
            self._send_raw(layer, from_mac, answer)

    def _deliver_air_acl(self, from_mac: bytes, data: object) -> None:
        layer, flags, payload = data  # type: ignore[misc]
        conn = self._find_connection(from_mac, layer)
        if conn is None:
            self._note(f"ACL data from unconnected {hci.format_mac(from_mac)}")
            return
        if layer is CLASSIC_LINK:
            self.stats[_BR_ACL][_BR_ACL_RX] += 1
        header = struct.pack("<HH", conn.handle | (flags << 12), len(payload))
        self._emit(H4Frame(H4Type.ACL_DATA, header + payload))

    # ----- link-layer log records and sending ------------------------------------

    def _log(self, layer: LinkLayer, sent: bool, peer_mac: bytes, pdu: bytes) -> None:
        # Built only when a tap or the running process_host_frame call
        # takes it, and once per distinct record while the memo holds it.
        if self.diag_log_enabled and (self._taps or self._out is not _NO_CALL):
            frames, key = self._log_frames, (layer.kind, sent, peer_mac, pdu)
            frame = frames.get(key)
            if frame is None:
                if len(frames) >= LOG_FRAMES_MAX:
                    frames.clear()
                frame = frames[key] = layer.log_record(sent, peer_mac, pdu).to_frame()
            self._emit(frame)

    def _send_raw(self, layer: LinkLayer, peer_mac: bytes, raw: bytes) -> None:
        self._log(layer, True, peer_mac, raw)
        if self.link is not None:
            self.link.transmit(self, layer.kind, raw)

    # ----- connection bookkeeping ---------------------------------------------

    def _find_connection(self, peer_mac: bytes, layer: LinkLayer) -> Connection | None:
        for conn in self.connections.values():
            if conn.peer_mac == peer_mac and conn.layer is layer:
                return conn
        return None

    def _new_connection(self, peer: bytes, role: Role, layer: LinkLayer) -> Connection:
        # Allocation wraps, so handles of dropped connections come back.  At
        # most two are in use (one link peer, two layers): a free one is near.
        while True:
            handle = self._next_handle
            self._next_handle = handle + 1 if handle < MAX_HANDLE else FIRST_HANDLE
            if handle not in self.connections:
                break
        conn = Connection(handle, peer, role, layer)
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
            self._send_raw(layer, conn.peer_mac, layer.octets(step.pdu_name, conn.tid, step.params))
        if conn.script_cursor >= len(script):
            conn.phase = Phase.CONNECTED
            self._emit_event(*layer.connection_complete(
                hci.ERR_SUCCESS, conn.handle, conn.tid, hci.mac_to_wire(conn.peer_mac)
            ))

    # ----- inbound link-layer handling ------------------------------------------

    def _ignore(self, conn: Connection, pdu: ll.LinkPdu) -> None:
        self._note(f"ignored {pdu.name} on handle 0x{conn.handle:04x}")

    def _detach(self, conn: Connection, pdu: ll.LmpPdu | ll.LcpPdu) -> None:
        reason = pdu.params[0] if pdu.params else hci.ERR_REMOTE_TERMINATED
        self._drop_connection(conn, reason)

    def _reply(self, conn: Connection, pdu: ll.LinkPdu) -> bytes:
        # An LMP reply carries the request's transaction ID; an LCP PDU has none.
        return conn.layer.octets(REPLIES[pdu.name], getattr(pdu, "tid", 0))

    def _lmp_io_capability_req(self, conn: Connection, pdu: ll.LmpPdu) -> bytes:
        # Pairing starts: the connection waits for a user decision it
        # can never get here, which is exactly the window the
        # out-of-order encryption bug needs.
        if conn.phase is Phase.CONNECTED:
            conn.phase = Phase.SSP_PENDING
            conn.ssp_confirmed = False
        return ll.build_lmp(ll.LmpPdu(
            ll.LMP_ESCAPE_4, pdu.tid, IO_CAPABILITY_PARAMS,
            extended_opcode=ll.LMP_EXT_NAME_TO_OPCODE["LMP_IO_capability_res"],
        ))

    def _lmp_dhkey_check(self, conn: Connection, pdu: ll.LmpPdu) -> bytes:
        if conn.phase is Phase.SSP_PENDING:
            conn.ssp_confirmed = True
        return CLASSIC_LINK.octets("LMP_accepted", pdu.tid, DHKEY_CHECK)

    def _lmp_start_encryption_req(self, conn: Connection, pdu: ll.LmpPdu) -> bytes | None:
        if conn.phase is Phase.SSP_PENDING and conn.ssp_confirmed:
            conn.phase = Phase.ENCRYPTED
            return CLASSIC_LINK.octets("LMP_accepted", pdu.tid, START_ENCRYPTION)
        if conn.phase is Phase.SSP_PENDING and not self.profile.patched:
            # Out-of-order encryption setup: the key calculation runs on
            # uninitialized pairing state and the firmware dies.
            self.crash("encryption start during pending pairing")
            return None
        return lmp_not_accepted(START_ENCRYPTION[0], conn.tid)

    def _lmp_accepted(self, conn: Connection, pdu: ll.LmpPdu) -> None:
        if pdu.params[:1] == START_ENCRYPTION:
            conn.phase = Phase.ENCRYPTED

    # PDU name -> handler, for both link layers (their names never collide).
    # A handler returns the octets that answer the PDU, or None; deliver_air
    # sends them, as it sends BPCS answers, refusals and the unhandled answer.
    _LINK_HANDLERS = {
        # Replies, rejections and vendor LCPs need no answer; only an
        # accepted one changes state and only a terminate ends the link.
        **dict.fromkeys(
            REJECTIONS | {*REPLIES.values(), "LMP_accepted_ext", "LMP_setup_complete",
                           "LL_UNKNOWN_RSP", "LL_VERSION_IND", "LMP_IO_capability_res"}
            | {ll.vendor_lcp(subtype).name for subtype in ll.LCP_VENDOR_NAMES},
            _ignore,
        ),
        **dict.fromkeys(REPLIES, _reply),
        "LMP_accepted": _lmp_accepted,
        "LMP_IO_capability_req": _lmp_io_capability_req,
        "LMP_DHkey_Check": _lmp_dhkey_check,
        "LMP_start_encryption_req": _lmp_start_encryption_req,
        "LMP_detach": _detach,
        "LL_TERMINATE_IND": _detach,
    }

    def _handle_bpcs(self, pdu: ll.BpcsPdu) -> bytes | None:
        if pdu.subtype > ll.BPCS_MAX_SUBTYPE:
            if self.profile.patched:
                return ll.build_lmp(ll.BpcsPdu(ll.BPCS_NOT_ACCEPT, pdu.tid, bytes([pdu.subtype])))
            # No range check: the subtype indexes past the handler table
            # into whatever the linker put next.
            action = self.profile.bpcs_overflow_map.get(pdu.subtype, HandlerAction.CRASH)
            self._note(
                f"BPCS subtype 0x{pdu.subtype:02x} overflowed handler table -> {action.value}"
            )
            if action is HandlerAction.DUT_MODE:
                self._enter_dut_mode()
            elif action is HandlerAction.CRASH:
                self.crash(f"BPCS handler overflow (subtype 0x{pdu.subtype:02x})")
            return None
        reply = BPCS_REPLIES.get(pdu.subtype)  # responses (Features Response, ...) need none
        return None if reply is None else ll.build_lmp(ll.BpcsPdu(reply, pdu.tid))

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
