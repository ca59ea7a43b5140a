"""The controller's three handler tables, as its firmware keeps them:
HCI opcode, diagnostic message class and link-layer PDU name -> handler,
and the BPCS handler, whose table CVE-2018-19860 overflows.

A handler is a function of the controller and its input that returns
its answer for the controller to send, as it sends every refusal: an
HCI handler its Command Complete's return parameters, or None; a
diagnostic handler its answers; a link-layer handler the octets that
answer the PDU, or None.  HCI handlers send only Create Connection's and
Disconnect's Command Status, which their own Complete event must follow,
Read Local Version's prebuilt Complete, so the busiest command builds no
event, and the setup script's steps.  The controller keeps the state.
"""

from __future__ import annotations

import struct

from .. import diag, hci, ll
from ..diag import (
    HEXDUMP_DATA_LEN, RESPONSE_FOR_REQUEST, STATS_FIELDS, DiagCode, DiagMessage, MemAccessType,
)
from ..h4 import HciCommand, HciEvent
from .linklayer import (
    BPCS_REPLIES, CLASSIC_LINK, CREATE_LINK, DHKEY_CHECK, REJECTIONS, REPLIES, START_ENCRYPTION,
    Connection, Phase, Role, lmp_injectable, lmp_not_accepted,
)
from .profiles import HandlerAction

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .controller import Controller

IO_CAPABILITY_PARAMS = b"\x01\x00\x03"  # display yes/no, no OOB, MITM+bonding
READ_RAM_MAX = 255 - 4  # RAM octets in one Command Complete: 255 less header and status
# Read per frame, as a plain name: a read through the enum class takes
# the enum metaclass's __getattr__ hook.
_HEXDUMP_ARM = MemAccessType.HEXDUMP_ARM

# The answer to Read Local Version, which never changes.
_LOCAL_VERSION_COMPLETE = HciEvent(hci.EVT_COMMAND_COMPLETE, hci.command_complete(
    hci.OPCODE_READ_LOCAL_VERSION, hci.local_version_params())).to_frame()
# Parameter lengths an HCI command can carry (its length field is one
# octet), and those of a create-connection command that hold the peer's MAC.
_ANY_LENGTH = range(256)
_HOLDS_PEER_MAC = {
    opcode: range(at + 6, 256) for opcode, (at, _sent) in hci.CREATE_CONNECTION_LAYOUT.items()
}


# ----- HCI ------------------------------------------------------------------

def _cmd_read_local_version(ctrl: Controller, cmd: HciCommand) -> None:
    ctrl.emit(_LOCAL_VERSION_COMPLETE)

def _cmd_reset(ctrl: Controller, cmd: HciCommand) -> bytes:
    ctrl.reset()
    return bytes([hci.ERR_SUCCESS])

def _cmd_enable_dut(ctrl: Controller, cmd: HciCommand) -> bytes:
    ctrl.enter_dut_mode()
    return bytes([hci.ERR_SUCCESS])

def _cmd_create_connection(ctrl: Controller, cmd: HciCommand) -> None:
    """Create Connection and LE Create Connection."""
    layer = CREATE_LINK[cmd.opcode]
    at = hci.CREATE_CONNECTION_LAYOUT[cmd.opcode][0]
    wire = cmd.params[at : at + 6]
    peer = hci.mac_from_wire(wire)
    if ctrl.find_connection(peer, layer) is not None:
        ctrl.status(cmd.opcode, hci.ERR_ACL_ALREADY_EXISTS)
        return
    ctrl.status(cmd.opcode, hci.ERR_SUCCESS)
    linked_peer = ctrl.link.peer_of(ctrl) if ctrl.link is not None else None
    if linked_peer is None or linked_peer.mac != peer:
        # Nobody on the air answers the page.
        ctrl.emit_event(*layer.connection_complete(hci.ERR_PAGE_TIMEOUT, 0, 0, wire))
        return
    conn = ctrl.new_connection(peer, Role.MASTER, layer)
    ctrl.advance_script(conn)

def _cmd_disconnect(ctrl: Controller, cmd: HciCommand) -> None:
    handle, reason = struct.unpack_from("<HB", cmd.params)
    conn = ctrl.connections.get(handle)
    ctrl.status(cmd.opcode, hci.ERR_UNKNOWN_CONNECTION if conn is None else hci.ERR_SUCCESS)
    if conn is not None:
        layer = conn.layer
        ctrl.send_raw(layer, conn.peer_mac, layer.octets(layer.detach, 0, bytes([reason])))
        ctrl.drop_connection(conn, reason)

def _cmd_send_lmp_pdu(ctrl: Controller, cmd: HciCommand) -> bytes:
    (handle,) = struct.unpack_from("<H", cmd.params)
    raw = cmd.params[2:]
    conn = ctrl.connections.get(handle)
    if conn is None or conn.layer is not CLASSIC_LINK:
        return bytes([hci.ERR_UNKNOWN_CONNECTION])
    if not lmp_injectable(raw):
        return bytes([hci.ERR_INVALID_PARAMETERS])
    ctrl.send_raw(CLASSIC_LINK, conn.peer_mac, raw)
    return bytes([hci.ERR_SUCCESS])

def _cmd_read_ram(ctrl: Controller, cmd: HciCommand) -> bytes:
    address, length = struct.unpack("<IB", cmd.params)
    data = ctrl.memory.read_block(MemAccessType.ARM, address, length)
    if data is None or length > READ_RAM_MAX:
        return bytes([hci.ERR_INVALID_PARAMETERS])
    return bytes([hci.ERR_SUCCESS]) + data

def _cmd_write_ram(ctrl: Controller, cmd: HciCommand) -> bytes:
    (address,) = struct.unpack_from("<I", cmd.params)
    ok = ctrl.memory.write_block(MemAccessType.ARM, address, cmd.params[4:])
    return bytes([hci.ERR_SUCCESS if ok else hci.ERR_INVALID_PARAMETERS])

def _cmd_super_duper_peek_poke(ctrl: Controller, cmd: HciCommand) -> bytes:
    # Layout (toolkit convention): mode octet (0 peek / 1 poke),
    # 32-bit address, one value octet for poke.  BlueRF space only.
    mode = cmd.params[0]
    (address,) = struct.unpack_from("<I", cmd.params, 1)
    if mode == 0:
        value = ctrl.memory.read(MemAccessType.BLUERF, address)
        if value is None:
            return bytes([hci.ERR_INVALID_PARAMETERS, 0])
        return bytes([hci.ERR_SUCCESS, value])
    if mode == 1 and len(cmd.params) >= 6:
        ok = ctrl.memory.write(MemAccessType.BLUERF, address, cmd.params[5])
        return bytes([hci.ERR_SUCCESS if ok else hci.ERR_INVALID_PARAMETERS])
    return bytes([hci.ERR_INVALID_PARAMETERS])

def _cmd_firewall_add(ctrl: Controller, cmd: HciCommand) -> bytes:
    mac = hci.mac_from_wire(cmd.params)
    allow = ctrl.profile.firewall_allowlist
    if allow is None:
        allow = ctrl.profile.firewall_allowlist = set()
    if mac not in allow and len(allow) >= hci.FIREWALL_ALLOWLIST_MAX:
        return bytes([hci.ERR_MEMORY_CAPACITY_EXCEEDED])
    allow.add(mac)
    return bytes([hci.ERR_SUCCESS])

def _cmd_firewall_del(ctrl: Controller, cmd: HciCommand) -> bytes:
    mac = hci.mac_from_wire(cmd.params)
    if ctrl.profile.firewall_allowlist is not None:
        ctrl.profile.firewall_allowlist.discard(mac)
    return bytes([hci.ERR_SUCCESS])

def _cmd_firewall_show(ctrl: Controller, cmd: HciCommand) -> bytes:
    return hci.firewall_show_params(ctrl.profile.firewall_allowlist)


# opcode -> (handler, the parameter lengths it takes); the controller
# refuses every other length.
HCI_HANDLERS = {
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


# ----- diagnostic protocol ------------------------------------------------------

def _diag_toggle_logging(ctrl: Controller, msg: diag.ToggleLmpLogging) -> list[DiagMessage]:
    ctrl.diag_log_enabled = msg.enable
    return []

def _diag_peek(ctrl: Controller, msg: diag.MemoryPeek) -> list[DiagMessage]:
    value = ctrl.memory.read(*msg)
    return [diag.PeekResponse(0x01, 0) if value is None else diag.PeekResponse(0x00, value)]

def _diag_poke(ctrl: Controller, msg: diag.MemoryPoke) -> list[DiagMessage]:
    ok = ctrl.memory.write(*msg)
    return [diag.PokeResponse(0x00 if ok else 0x01)]

def _diag_hexdump(ctrl: Controller, msg: diag.MemoryHexdump) -> list[DiagMessage]:
    (address,) = msg
    data = ctrl.memory.read_block(_HEXDUMP_ARM, address, HEXDUMP_DATA_LEN)
    if data is None:
        ctrl.note(f"hexdump outside ARM regions: 0x{address:08x}")
        data = bytes(HEXDUMP_DATA_LEN)
    return [diag.HexdumpResponse(address, data)]

def _diag_stats(ctrl: Controller, msg: diag.StatsRequest) -> list[DiagMessage]:
    kind = msg.kind
    if kind is DiagCode.RESET_BR_ACL_STATS:
        ctrl.stats[DiagCode.BR_ACL_STATS] = [0] * len(STATS_FIELDS[DiagCode.BR_ACL_STATS])
        return []
    if kind is not DiagCode.GET_CONNECTION_STATS:
        counted = RESPONSE_FOR_REQUEST[kind]
        return [diag.StatsResponse(counted, tuple(ctrl.stats[counted]))]
    # One record per live connection; the CPU load piggybacks on
    # this request because no dedicated getter code exists.
    out: list[DiagMessage] = [
        diag.StatsResponse(
            DiagCode.CONNECTION_RESPONSE,
            (c.handle, struct.unpack("<I", hci.low_mac(c.peer_mac))[0], c.role.value, c.phase.value),
        )
        for c in sorted(ctrl.connections.values(), key=lambda c: c.handle)
    ]
    out.append(diag.StatsResponse(DiagCode.CPU_LOAD_RESPONSE, (5 * len(ctrl.connections),)))
    return out

def _diag_run_test(ctrl: Controller, msg: diag.RunTest) -> list[DiagMessage]:
    """Simulate a radio test run: one packet per tick for the
    configured packet budget.  A linked peer loops every packet
    back; with no peer on the air nothing is received."""
    if not msg.params.is_valid:
        return [diag.TestCompleted(status=0x01, tx_count=0, rx_count=0)]
    count = ctrl.test_packet_count
    ctrl.clock += count
    rx_count = count if ctrl.link is not None else 0
    return [diag.TestCompleted(status=0x00, tx_count=count, rx_count=rx_count)]


# Host-to-controller message class -> handler; the host may not send the
# other classes.
DIAG_HANDLERS = {
    diag.ToggleLmpLogging: _diag_toggle_logging,
    diag.MemoryPeek: _diag_peek,
    diag.MemoryPoke: _diag_poke,
    diag.MemoryHexdump: _diag_hexdump,
    diag.StatsRequest: _diag_stats,
    diag.RunTest: _diag_run_test,
}


# ----- link layer ----------------------------------------------------------------

def _ignore(ctrl: Controller, conn: Connection, pdu: ll.LinkPdu) -> None:
    ctrl.note(f"ignored {pdu.name} on handle 0x{conn.handle:04x}")

def _detach(ctrl: Controller, conn: Connection, pdu: ll.LmpPdu | ll.LcpPdu) -> None:
    reason = pdu.params[0] if pdu.params else hci.ERR_REMOTE_TERMINATED
    ctrl.drop_connection(conn, reason)

def _reply(ctrl: Controller, conn: Connection, pdu: ll.LinkPdu) -> bytes:
    # An LMP reply carries the request's transaction ID; an LCP PDU has none.
    return conn.layer.octets(REPLIES[pdu.name], getattr(pdu, "tid", 0))

def _lmp_io_capability_req(ctrl: Controller, conn: Connection, pdu: ll.LmpPdu) -> bytes:
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

def _lmp_dhkey_check(ctrl: Controller, conn: Connection, pdu: ll.LmpPdu) -> bytes:
    if conn.phase is Phase.SSP_PENDING:
        conn.ssp_confirmed = True
    return CLASSIC_LINK.octets("LMP_accepted", pdu.tid, DHKEY_CHECK)

def _lmp_start_encryption_req(ctrl: Controller, conn: Connection, pdu: ll.LmpPdu) -> bytes | None:
    if conn.phase is Phase.SSP_PENDING and conn.ssp_confirmed:
        conn.phase = Phase.ENCRYPTED
        return CLASSIC_LINK.octets("LMP_accepted", pdu.tid, START_ENCRYPTION)
    if conn.phase is Phase.SSP_PENDING and not ctrl.profile.patched:
        # Out-of-order encryption setup: the key calculation runs on
        # uninitialized pairing state and the firmware dies.
        ctrl.crash("encryption start during pending pairing")
        return None
    return lmp_not_accepted(START_ENCRYPTION[0], conn.tid)

def _lmp_accepted(ctrl: Controller, conn: Connection, pdu: ll.LmpPdu) -> None:
    if pdu.params[:1] == START_ENCRYPTION:
        conn.phase = Phase.ENCRYPTED


# PDU name -> handler, for both link layers (their names never collide).
# The controller sends what a handler returns, as it sends BPCS answers,
# refusals and the unhandled answer.
LINK_HANDLERS = {
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


def handle_bpcs(ctrl: Controller, pdu: ll.BpcsPdu) -> bytes | None:
    if pdu.subtype > ll.BPCS_MAX_SUBTYPE:
        if ctrl.profile.patched:
            return ll.build_lmp(ll.BpcsPdu(ll.BPCS_NOT_ACCEPT, pdu.tid, bytes([pdu.subtype])))
        # No range check: the subtype indexes past the handler table
        # into whatever the linker put next.
        action = ctrl.profile.bpcs_overflow_map.get(pdu.subtype, HandlerAction.CRASH)
        ctrl.note(f"BPCS subtype 0x{pdu.subtype:02x} overflowed handler table -> {action.value}")
        if action is HandlerAction.DUT_MODE:
            ctrl.enter_dut_mode()
        elif action is HandlerAction.CRASH:
            ctrl.crash(f"BPCS handler overflow (subtype 0x{pdu.subtype:02x})")
        return None
    reply = BPCS_REPLIES.get(pdu.subtype)  # responses (Features Response, ...) need none
    return None if reply is None else ll.build_lmp(ll.BpcsPdu(reply, pdu.tid))
