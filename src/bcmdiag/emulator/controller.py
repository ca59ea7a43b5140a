"""Behavioral emulation of one Broadcom Bluetooth controller.

A controller owns its connection table, memory image, statistics,
logging flag and security profile, and processes three input sources
through one logical mailbox: H4 frames from its host, diagnostic
commands (a special case of the former), and link-layer PDUs arriving
over the virtual air link, each handed to its handler in ``handlers``.
Instances are strictly serial; distinct instances may run concurrently
as long as each is driven from a single execution context at a time.

Time is a logical tick counter advanced per processed input (and per
simulated test packet), never wall clock, so identical input sequences
produce octet-identical event and diagnostic streams.
"""

from __future__ import annotations

import struct
from collections import deque
from collections.abc import Callable

from .. import hci, ll
from ..diag import RESPONSE_FOR_REQUEST, STATS_FIELDS, DiagCode, parse_diag
from ..errors import BcmDiagError
from ..h4 import DIAG_PAYLOAD_LEN, Direction, H4Frame, H4Type, HciCommand, HciEvent
from .handlers import DIAG_HANDLERS, HCI_HANDLERS, LINK_HANDLERS, handle_bpcs
from .link import KIND_ACL, KIND_RESET, VirtualLink
from .linklayer import (
    CLASSIC_LINK, CREATE_LINK, LINK_BY_KIND, REJECTIONS, Connection, LinkLayer, Phase,
    Role,
)
from .memory import MemoryImage
from .profiles import SecurityProfile, patched_profile

FIRST_HANDLE = 0x000B
MAX_HANDLE = 0x0EFF
# Audit notes kept, newest last; older ones fall out.
AUDIT_MAX = 1024
LOG_FRAMES_MAX = 64  # log-record frames a controller keeps built; then it starts over

TapFn = Callable[[Direction, H4Frame], None]

# Members read per frame, as plain names: a read through the enum class
# takes the enum metaclass's __getattr__ hook, about 0.15 us on 3.11.
_TO_CONTROLLER, _TO_HOST = Direction
_HCI_COMMAND, _ACL_DATA, _DIAG = H4Type.HCI_COMMAND, H4Type.ACL_DATA, H4Type.DIAG
_OPAQUE = frozenset({H4Type.MSG_QUEUE_PUT, H4Type.WICED})
# Where emit puts frames while no process_host_frame call is running:
# it keeps none, so they reach only the taps.
_NO_CALL: deque[H4Frame] = deque(maxlen=0)

# Commands whose outcome follows in an event of its own: they answer with
# a Command Status, every other command with a Command Complete.
_ANSWERED_BY_STATUS = frozenset(CREATE_LINK) | {hci.OPCODE_DISCONNECT}


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
        boundary, both directions."""
        self._taps.append(fn)

    def remove_tap(self, fn: TapFn) -> None:
        if fn in self._taps:
            self._taps.remove(fn)

    def emit(self, frame: H4Frame) -> None:
        self._out.append(frame)
        for fn in self._taps:
            fn(_TO_HOST, frame)

    def emit_event(self, code: int, params: bytes) -> None:
        self.emit(tuple.__new__(HciEvent, (code, params)).to_frame())  # no Python __new__

    def status(self, opcode: int, status: int = hci.ERR_SUCCESS) -> None:
        self.emit_event(hci.EVT_COMMAND_STATUS, hci.command_status(status, opcode))

    def note(self, text: str) -> None:
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
        self.note(f"crash: {reason}")
        self.emit_event(hci.EVT_HARDWARE_ERROR, bytes([hci.HW_ERR_FIRMWARE_FAULT]))
        if self.link is not None and self.connections:
            self.link.transmit(self, KIND_RESET, None)
        self.reset()

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
        self.clock += 1
        for fn in self._taps:
            fn(_TO_CONTROLLER, frame)
        self._out = out = []
        try:
            if h4_type is _DIAG:
                try:
                    msg = parse_diag(payload)
                except BcmDiagError as exc:
                    self.note(f"undecodable diagnostic frame: {exc}")
                else:
                    handler = DIAG_HANDLERS.get(msg.__class__)
                    if handler is None:
                        self.note(f"host sent controller->host diag code 0x{msg.code:02x}")
                    else:
                        for response in handler(self, msg):
                            self.emit(response.to_frame())
            elif h4_type is _HCI_COMMAND:
                opcode, params = payload[0] | payload[1] << 8, payload[3:]
                entry = HCI_HANDLERS.get(opcode)
                ret = None
                if entry is None:
                    self.note(f"unknown HCI opcode 0x{opcode:04x}")
                    self.status(opcode, hci.ERR_UNKNOWN_COMMAND)
                elif len(params) in entry[1]:
                    ret = entry[0](self, tuple.__new__(HciCommand, (opcode, params)))
                elif opcode in _ANSWERED_BY_STATUS:
                    self.status(opcode, hci.ERR_INVALID_PARAMETERS)
                else:
                    ret = bytes([hci.ERR_INVALID_PARAMETERS])
                if ret is not None:
                    self.emit_event(hci.EVT_COMMAND_COMPLETE, hci.command_complete(opcode, ret))
            elif h4_type is _ACL_DATA:
                self._handle_host_acl(payload)
            elif h4_type in _OPAQUE:
                # Documented to exist, not documented to do anything we
                # can model: acknowledge by logging only.
                self.note(f"opaque {h4_type.name} frame ({len(payload)} octets)")
            else:
                self.note(f"host sent {h4_type.name}; ignored")
            if self.link is not None:
                self.link.pump()
        finally:
            self._out = _NO_CALL
        return out

    # ----- host ACL data ---------------------------------------------------

    def _handle_host_acl(self, payload: bytes) -> None:
        handle_flags, _length = struct.unpack_from("<HH", payload)
        handle = handle_flags & 0x0FFF
        flags = handle_flags >> 12
        conn = self.connections.get(handle)
        if conn is None:
            self.note(f"ACL data for unknown handle 0x{handle:04x}")
            return
        if conn.layer is CLASSIC_LINK:
            self.stats[_BR_ACL][_BR_ACL_TX] += 1
        if self.link is not None:
            self.link.transmit(self, KIND_ACL, (conn.layer, flags, payload[4:]))
        self.emit_event(hci.EVT_NUM_COMPLETED_PACKETS, hci.num_completed_packets(handle))

    # ----- air link ------------------------------------------------------------

    def deliver_air(self, from_mac: bytes, kind: str, data: object) -> None:
        """Take one air unit from the peer at ``from_mac``; send its answer, if any."""
        self.clock += 1
        if kind == KIND_RESET:  # the peer dropped off the air
            for conn in [c for c in self.connections.values() if c.peer_mac == from_mac]:
                self.drop_connection(conn, hci.ERR_CONNECTION_TIMEOUT)
            return
        if self.test_mode_active:
            # Device under test occupies its test frequencies; normal
            # traffic is jammed.
            self.note(f"DUT mode jammed {kind} traffic from {hci.format_mac(from_mac)}")
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
            self.note(f"firewall rejected {layer.kind.upper()} from {hci.format_mac(from_mac)}")
        try:  # a constant's octets are dissected already
            pdu = layer.pdus.get(raw) or layer.dissect(raw)
            name = pdu.name
        except BcmDiagError as exc:
            if not firewalled:
                self.note(f"undissectable {layer.kind.upper()} from {hci.format_mac(from_mac)}: {exc}")
            pdu = name = None
        conn = None if firewalled or pdu is None else self.find_connection(from_mac, layer)
        script = layer.script
        if conn is None and not firewalled and name == script[0].pdu_name:
            # A setup opener from an allowed peer creates the inbound (slave) side.
            conn = self.new_connection(from_mac, Role.SLAVE, layer)
        if conn is None:
            # Nothing to live on: refused, but a rejection is never answered (see REJECTIONS).
            if name in REJECTIONS:
                if not firewalled:
                    self.note(f"{name} from unconnected {hci.format_mac(from_mac)}")
                return
            answer = layer.reject(raw) if pdu is not None or layer.refuse_undissectable else None
        elif isinstance(pdu, ll.BpcsPdu):
            answer = handle_bpcs(self, pdu)
        elif conn.script_cursor < len(script) and script[conn.script_cursor].pdu_name == name:
            # The peer's next setup step.
            conn.script_cursor += 1
            self.advance_script(conn)
            return
        else:
            handler = LINK_HANDLERS.get(name)
            if handler is None:
                answer = layer.unhandled(pdu.opcode, conn.tid)
            else:
                answer = handler(self, conn, pdu)
        if answer is not None:
            self.send_raw(layer, from_mac, answer)

    def _deliver_air_acl(self, from_mac: bytes, data: object) -> None:
        layer, flags, payload = data  # type: ignore[misc]
        conn = self.find_connection(from_mac, layer)
        if conn is None:
            self.note(f"ACL data from unconnected {hci.format_mac(from_mac)}")
            return
        if layer is CLASSIC_LINK:
            self.stats[_BR_ACL][_BR_ACL_RX] += 1
        header = struct.pack("<HH", conn.handle | (flags << 12), len(payload))
        self.emit(H4Frame(H4Type.ACL_DATA, header + payload))

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
            self.emit(frame)

    def send_raw(self, layer: LinkLayer, peer_mac: bytes, raw: bytes) -> None:
        self._log(layer, True, peer_mac, raw)
        if self.link is not None:
            self.link.transmit(self, layer.kind, raw)

    # ----- connection bookkeeping ---------------------------------------------

    def find_connection(self, peer_mac: bytes, layer: LinkLayer) -> Connection | None:
        for conn in self.connections.values():
            if conn.peer_mac == peer_mac and conn.layer is layer:
                return conn
        return None

    def new_connection(self, peer: bytes, role: Role, layer: LinkLayer) -> Connection:
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

    def drop_connection(self, conn: Connection, reason: int) -> None:
        self.connections.pop(conn.handle, None)
        self.emit_event(
            hci.EVT_DISCONNECTION_COMPLETE,
            hci.disconnection_complete(hci.ERR_SUCCESS, conn.handle, reason),
        )

    def advance_script(self, conn: Connection) -> None:
        """Send every consecutive script step owned by our role, so the
        cursor rests on a step of the peer's; past the last step the
        connection is up."""
        layer = conn.layer
        script = layer.script
        while conn.script_cursor < len(script) and script[conn.script_cursor].role is conn.role:
            step = script[conn.script_cursor]
            conn.script_cursor += 1
            self.send_raw(layer, conn.peer_mac, layer.octets(step.pdu_name, conn.tid, step.params))
        if conn.script_cursor >= len(script):
            conn.phase = Phase.CONNECTED
            self.emit_event(*layer.connection_complete(
                hci.ERR_SUCCESS, conn.handle, conn.tid, hci.mac_to_wire(conn.peer_mac)
            ))

    def enter_dut_mode(self) -> None:
        self.test_mode_active = True
        self.emit_event(hci.EVT_VENDOR, hci.DUT_EVENT_PARAMS)
