"""Controller emulator behavior: HCI surface, diagnostic handlers,
virtual link, connection lifecycle, statistics, test mode."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from bcmdiag import hci, ll
from bcmdiag.h4 import encode_sniff_record
from bcmdiag.diag import (
    DiagCode,
    HexdumpResponse,
    MemAccessType,
    MemoryHexdump,
    MemoryPeek,
    MemoryPoke,
    PeekResponse,
    PokeResponse,
    RunTest,
    StatsRequest,
    TestParams,
    ToggleLmpLogging,
    build_diag,
    parse_diag,
)
from bcmdiag.emulator import Controller, Phase, Role, VirtualLink
from bcmdiag.emulator.controller import LOG_FRAMES_MAX
from bcmdiag.emulator.handlers import HCI_HANDLERS, LINK_HANDLERS
from bcmdiag.emulator.linklayer import CLASSIC_LINK, LE_LINK
from bcmdiag.emulator.memory import ARM_BASE, BLUERF_BASE, BLUERF_SIZE, VERSION_STRING
from bcmdiag.emulator.profiles import (
    PROFILE_FACTORIES, HandlerAction, patched_profile, vulnerable_profile,
)
from bcmdiag.errors import AlreadyLinked, InvariantViolation
from bcmdiag.h4 import H4Frame, H4Type, HciCommand, HciEvent, encode_frame

from conftest import connect_pair
from helpers import (
    MAC_A, MAC_B, MAC_EVIL, HostRecorder, diag_answers, diag_messages, inject, random_diag_message,
    random_lmp_pdu, snapshot,
)


def events_of(frames, code):
    return [
        HciEvent.from_frame(f)
        for f in frames
        if f.h4_type is H4Type.HCI_EVENT and f.payload[0] == code
    ]


class TestHciSurface:
    def test_read_local_version(self):
        ctrl = Controller(MAC_A)
        out = ctrl.process_host_frame(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame())
        (evt,) = events_of(out, hci.EVT_COMMAND_COMPLETE)
        assert struct.unpack_from("<H", evt.params, 1)[0] == hci.OPCODE_READ_LOCAL_VERSION
        info = hci.parse_local_version(evt.params[3:])
        assert info["status"] == 0
        assert info["manufacturer"] == 0x000F

    def test_unknown_command_gets_status_event(self):
        ctrl = Controller(MAC_A)
        out = ctrl.process_host_frame(HciCommand(0x0999).to_frame())
        (evt,) = events_of(out, hci.EVT_COMMAND_STATUS)
        assert evt.params[0] == hci.ERR_UNKNOWN_COMMAND

    def test_connect_without_link_is_page_timeout(self):
        ctrl = Controller(MAC_A)
        out = ctrl.process_host_frame(
            HciCommand(hci.OPCODE_CREATE_CONNECTION, hci.mac_to_wire(MAC_B) + bytes(7)).to_frame()
        )
        (status,) = events_of(out, hci.EVT_COMMAND_STATUS)
        assert status.params[0] == hci.ERR_SUCCESS
        (complete,) = events_of(out, hci.EVT_CONNECTION_COMPLETE)
        assert complete.params[0] == hci.ERR_PAGE_TIMEOUT
        assert not ctrl.connections

    def test_connect_success_both_sides(self, linked_pair):
        a, b = linked_pair
        host_b = HostRecorder(b)
        handle = connect_pair(a, b)
        assert a.connections[handle].phase is Phase.CONNECTED
        assert a.connections[handle].role is Role.MASTER
        (conn_b,) = b.connections.values()
        assert conn_b.role is Role.SLAVE
        assert conn_b.peer_mac == MAC_A
        (evt,) = events_of(host_b.take(), hci.EVT_CONNECTION_COMPLETE)
        assert evt.params[0] == hci.ERR_SUCCESS

    def test_duplicate_connect_rejected(self, linked_pair):
        a, b = linked_pair
        connect_pair(a, b)
        out = a.process_host_frame(
            HciCommand(hci.OPCODE_CREATE_CONNECTION, hci.mac_to_wire(MAC_B) + bytes(7)).to_frame()
        )
        (status,) = events_of(out, hci.EVT_COMMAND_STATUS)
        assert status.params[0] == hci.ERR_ACL_ALREADY_EXISTS

    def test_disconnect(self, linked_pair):
        a, b = linked_pair
        host_b = HostRecorder(b)
        handle = connect_pair(a, b)
        host_b.take()
        out = a.process_host_frame(
            HciCommand(hci.OPCODE_DISCONNECT, struct.pack("<HB", handle, 0x13)).to_frame()
        )
        (evt,) = events_of(out, hci.EVT_DISCONNECTION_COMPLETE)
        assert struct.unpack_from("<H", evt.params, 1)[0] == handle
        assert not a.connections
        assert not b.connections
        assert events_of(host_b.take(), hci.EVT_DISCONNECTION_COMPLETE)

    def test_handle_allocation_wraps_past_handles_in_use(self, linked_pair):
        from bcmdiag.emulator.controller import FIRST_HANDLE, MAX_HANDLE

        a, b = linked_pair
        assert connect_pair(a, b) == FIRST_HANDLE  # stays connected
        a._next_handle = MAX_HANDLE
        top = connect_pair(a, b, transport="le")
        assert top == MAX_HANDLE
        a.process_host_frame(
            HciCommand(hci.OPCODE_DISCONNECT, struct.pack("<HB", top, 0x13)).to_frame()
        )
        assert connect_pair(a, b, transport="le") == FIRST_HANDLE + 1

    @pytest.mark.parametrize("transport", ["classic", "le"])
    def test_an_opener_from_a_connected_peer_makes_no_second_connection(
        self, linked_pair, transport
    ):
        """B's HCI Reset drops its end without a word to A, then B's host
        connects again.  A finds the connection it holds to B on that layer
        and makes no other, so it never holds more than one per layer."""
        a, b = linked_pair
        handle = connect_pair(a, b, transport)
        before = snapshot(a)["connections"]
        b.process_host_frame(HciCommand(hci.OPCODE_RESET).to_frame())
        assert not b.connections
        connect_pair(b, a, transport)
        assert snapshot(a)["connections"] == before
        assert list(a.connections) == [handle]

    def test_a_mac_that_is_not_6_octets_is_refused(self):
        for mac in (bytes(5), bytes(7)):
            with pytest.raises(ValueError, match="MAC must be 6 octets"):
                Controller(mac)

    def test_passive_peer_holds_nothing(self, linked_pair):
        """B never gets host input during 1,000 logged connect+disconnect
        cycles driven from A; it keeps none of the frames they made it
        emit, and its next answer is its own alone."""
        a, b = linked_pair
        toggle = H4Frame.diag(build_diag(ToggleLmpLogging(True)))
        a.process_host_frame(toggle)
        b.process_host_frame(toggle)
        for _ in range(1000):
            handle = connect_pair(a, b)
            a.process_host_frame(
                HciCommand(hci.OPCODE_DISCONNECT, struct.pack("<HB", handle, 0x13)).to_frame()
            )
        assert not a.connections and not b.connections
        version = b.process_host_frame(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame())
        assert [HciEvent.from_frame(f).event_code for f in version] == [hci.EVT_COMMAND_COMPLETE]

    def test_return_holds_only_the_calls_own_frames(self, linked_pair):
        """Frames A emits while B handles a host frame reach A's taps,
        not A's next return."""
        a, b = linked_pair
        connect_pair(a, b)
        (handle,) = b.connections
        host_a = HostRecorder(a)
        b.process_host_frame(
            HciCommand(hci.OPCODE_DISCONNECT, struct.pack("<HB", handle, 0x13)).to_frame()
        )
        assert events_of(host_a.take(), hci.EVT_DISCONNECTION_COMPLETE)
        version = a.process_host_frame(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame())
        assert [HciEvent.from_frame(f).event_code for f in version] == [hci.EVT_COMMAND_COMPLETE]

    def test_le_connect(self, linked_pair):
        a, b = linked_pair
        handle = connect_pair(a, b, transport="le")
        conn = a.connections[handle]
        assert conn.layer is LE_LINK
        assert conn.phase is Phase.CONNECTED
        metas = events_of(handle.frames, hci.EVT_LE_META)
        assert metas and metas[-1].params[0] == hci.LE_SUBEVT_CONNECTION_COMPLETE

    def test_enable_dut_mode(self):
        ctrl = Controller(MAC_A)
        out = ctrl.process_host_frame(HciCommand(hci.OPCODE_ENABLE_DUT_MODE).to_frame())
        assert ctrl.test_mode_active
        (vendor,) = events_of(out, hci.EVT_VENDOR)
        assert vendor.params == hci.DUT_EVENT_PARAMS


class TestVendorHci:
    def test_ram_write_read_round_trip(self):
        ctrl = Controller(MAC_A)
        address = ARM_BASE + 0x400
        ctrl.process_host_frame(
            HciCommand(
                hci.OPCODE_VSC_WRITE_RAM, struct.pack("<I", address) + b"\xde\xad\xbe\xef"
            ).to_frame()
        )
        out = ctrl.process_host_frame(
            HciCommand(hci.OPCODE_VSC_READ_RAM, struct.pack("<IB", address, 4)).to_frame()
        )
        (evt,) = events_of(out, hci.EVT_COMMAND_COMPLETE)
        assert evt.params[3:] == b"\x00\xde\xad\xbe\xef"

    def test_read_ram_outside_region(self):
        ctrl = Controller(MAC_A)
        out = ctrl.process_host_frame(
            HciCommand(hci.OPCODE_VSC_READ_RAM, struct.pack("<IB", 0xDEAD0000, 4)).to_frame()
        )
        (evt,) = events_of(out, hci.EVT_COMMAND_COMPLETE)
        assert evt.params[3] == hci.ERR_INVALID_PARAMETERS

    @pytest.mark.parametrize("length", [240, 251, 252, 255])
    def test_read_ram_answers_every_length(self, length):
        """Command Complete holds 255 parameter octets: its 4-octet header
        leaves room for 251 octets of RAM, and longer reads are refused."""
        ctrl = Controller(MAC_A)
        out = ctrl.process_host_frame(
            HciCommand(hci.OPCODE_VSC_READ_RAM, struct.pack("<IB", ARM_BASE, length)).to_frame()
        )
        (evt,) = events_of(out, hci.EVT_COMMAND_COMPLETE)
        if length <= 251:
            assert evt.params[3:] == b"\x00" + VERSION_STRING + bytes(length - len(VERSION_STRING))
        else:
            assert evt.params[3:] == bytes([hci.ERR_INVALID_PARAMETERS])
        assert not ctrl.audit

    def test_super_duper_peek_outside_bluerf_space(self):
        ctrl = Controller(MAC_A)
        peek = HciCommand(
            hci.OPCODE_VSC_SUPER_DUPER_PEEK_POKE, b"\x00" + struct.pack("<I", BLUERF_BASE + BLUERF_SIZE)
        )
        (evt,) = events_of(ctrl.process_host_frame(peek.to_frame()), hci.EVT_COMMAND_COMPLETE)
        assert evt.params[3:] == bytes([hci.ERR_INVALID_PARAMETERS, 0])

    def test_super_duper_peek_poke_bluerf(self):
        ctrl = Controller(MAC_A)
        poke = HciCommand(
            hci.OPCODE_VSC_SUPER_DUPER_PEEK_POKE, b"\x01" + struct.pack("<I", 0x318) + b"\xaa"
        )
        out = ctrl.process_host_frame(poke.to_frame())
        (evt,) = events_of(out, hci.EVT_COMMAND_COMPLETE)
        assert evt.params[3] == hci.ERR_SUCCESS
        peek = HciCommand(
            hci.OPCODE_VSC_SUPER_DUPER_PEEK_POKE, b"\x00" + struct.pack("<I", 0x318)
        )
        out = ctrl.process_host_frame(peek.to_frame())
        (evt,) = events_of(out, hci.EVT_COMMAND_COMPLETE)
        assert evt.params[3:5] == b"\x00\xaa"

    def test_send_lmp_pdu_reaches_peer_log(self, linked_pair):
        a, b = linked_pair
        handle = connect_pair(a, b)
        b.process_host_frame(H4Frame.diag(build_diag(ToggleLmpLogging(True))))
        host_b = HostRecorder(b)
        pdu = bytes([0x4E]) + bytes(8)  # LMP_features_req
        out = a.process_host_frame(
            HciCommand(
                hci.OPCODE_VSC_SEND_LMP_PDU, struct.pack("<H", handle) + pdu
            ).to_frame()
        )
        (evt,) = events_of(out, hci.EVT_COMMAND_COMPLETE)
        assert evt.params[3] == hci.ERR_SUCCESS
        records = [
            m
            for m in diag_messages(host_b.take())
            if m.code is DiagCode.LMP_RECEIVED
        ]
        assert any(r.payload[: len(pdu)] == pdu for r in records)
        assert all(len(r.payload) == 17 for r in records)

    def test_send_lmp_pdu_18_octets_rejected(self, linked_pair):
        a, b = linked_pair
        handle = connect_pair(a, b)
        out = a.process_host_frame(
            HciCommand(
                hci.OPCODE_VSC_SEND_LMP_PDU, struct.pack("<H", handle) + bytes(18)
            ).to_frame()
        )
        (evt,) = events_of(out, hci.EVT_COMMAND_COMPLETE)
        assert evt.params[3] == hci.ERR_INVALID_PARAMETERS

    def test_send_lmp_pdu_nonconformant_length_rejected(self, linked_pair):
        a, b = linked_pair
        handle = connect_pair(a, b)
        out = a.process_host_frame(
            HciCommand(
                hci.OPCODE_VSC_SEND_LMP_PDU,
                struct.pack("<H", handle) + bytes([0x4E]) + bytes(4),
            ).to_frame()
        )
        (evt,) = events_of(out, hci.EVT_COMMAND_COMPLETE)
        assert evt.params[3] == hci.ERR_INVALID_PARAMETERS

    def test_send_lmp_pdu_bad_handle(self):
        ctrl = Controller(MAC_A)
        out = ctrl.process_host_frame(
            HciCommand(
                hci.OPCODE_VSC_SEND_LMP_PDU, struct.pack("<H", 0x0BAD) + b"\x4e" + bytes(8)
            ).to_frame()
        )
        (evt,) = events_of(out, hci.EVT_COMMAND_COMPLETE)
        assert evt.params[3] == hci.ERR_UNKNOWN_CONNECTION

    def test_firewall_vendor_commands(self):
        ctrl = Controller(MAC_A)
        assert ctrl.profile.firewall_allowlist is None
        ctrl.process_host_frame(
            HciCommand(hci.OPCODE_VSC_FIREWALL_ADD, hci.mac_to_wire(MAC_B)).to_frame()
        )
        assert ctrl.profile.firewall_allowlist == {MAC_B}
        out = ctrl.process_host_frame(HciCommand(hci.OPCODE_VSC_FIREWALL_SHOW).to_frame())
        (evt,) = events_of(out, hci.EVT_COMMAND_COMPLETE)
        assert evt.params[3:6] == bytes([0, 1, 1])
        assert evt.params[6:12] == hci.mac_to_wire(MAC_B)
        ctrl.process_host_frame(
            HciCommand(hci.OPCODE_VSC_FIREWALL_DEL, hci.mac_to_wire(MAC_B)).to_frame()
        )
        assert ctrl.profile.firewall_allowlist == set()


# What each HCI command answers at the edges of the lengths it takes,
# recorded on a linked pair with a Classic connection up (handle 0x000b).
# A command's parameters are its _HCI_HEADS octets and zeros after them,
# cut to the length tried: 0, each end of the accepted range +-1, 254
# and 255.  Rows: (opcode, length, frames emitted as H4 hex, audit notes).
_UNKNOWN_OPCODE = 0x0999
_HCI_HEADS = {
    hci.OPCODE_CREATE_CONNECTION: hci.mac_to_wire(MAC_B),
    hci.OPCODE_LE_CREATE_CONNECTION: bytes(6) + hci.mac_to_wire(MAC_B),
    hci.OPCODE_DISCONNECT: struct.pack("<HB", 0x000B, hci.ERR_REMOTE_TERMINATED),
    hci.OPCODE_VSC_SEND_LMP_PDU: struct.pack(
        "<HB", 0x000B, ll.LMP_NAME_TO_OPCODE["LMP_setup_complete"] << 1
    ),
    hci.OPCODE_VSC_READ_RAM: struct.pack("<IB", ARM_BASE, 4),
    hci.OPCODE_VSC_WRITE_RAM: struct.pack("<I", ARM_BASE),
}
_HCI_ANSWERS = [
    (0x1001, 0, ["040e0c01011000090010090f000922"], []),
    (0x1001, 1, ["040e0c01011000090010090f000922"], []),
    (0x1001, 254, ["040e0c01011000090010090f000922"], []),
    (0x1001, 255, ["040e0c01011000090010090f000922"], []),
    (0x0c03, 0, ["040e0401030c00"], []),
    (0x0c03, 1, ["040e0401030c00"], []),
    (0x0c03, 254, ["040e0401030c00"], []),
    (0x0c03, 255, ["040e0401030c00"], []),
    (0x1803, 0, ["04ff0444555401", "040e0401031800"], []),
    (0x1803, 1, ["04ff0444555401", "040e0401031800"], []),
    (0x1803, 254, ["04ff0444555401", "040e0401031800"], []),
    (0x1803, 255, ["04ff0444555401", "040e0401031800"], []),
    (0xfce2, 0, ["040e0601e2fc000000"], []),
    (0xfce2, 1, ["040e0601e2fc000000"], []),
    (0xfce2, 254, ["040e0601e2fc000000"], []),
    (0xfce2, 255, ["040e0601e2fc000000"], []),
    (0x0405, 0, ["040f0412010504"], []),
    (0x0405, 5, ["040f0412010504"], []),
    (0x0405, 6, ["040f040b010504"], []),
    (0x0405, 7, ["040f040b010504"], []),
    (0x0405, 254, ["040f040b010504"], []),
    (0x0405, 255, ["040f040b010504"], []),
    (0x200d, 0, ["040f0412010d20"], []),
    (0x200d, 11, ["040f0412010d20"], []),
    (0x200d, 12, ["040f0400010d20", "043e1301000c000000024433221100280000002a0000"], []),
    (0x200d, 13, ["040f0400010d20", "043e1301000c000000024433221100280000002a0000"], []),
    (0x200d, 254, ["040f0400010d20", "043e1301000c000000024433221100280000002a0000"], []),
    (0x200d, 255, ["040f0400010d20", "043e1301000c000000024433221100280000002a0000"], []),
    (0x0406, 0, ["040f0412010604"], []),
    (0x0406, 2, ["040f0412010604"], []),
    (0x0406, 3, ["040f0400010604", "040504000b0013"], []),
    (0x0406, 4, ["040f0400010604", "040504000b0013"], []),
    (0x0406, 254, ["040f0400010604", "040504000b0013"], []),
    (0x0406, 255, ["040f0400010604", "040504000b0013"], []),
    (0xfc58, 0, ["040e040158fc12"], []),
    (0xfc58, 2, ["040e040158fc12"], []),
    (0xfc58, 3, ["040e040158fc00"], []),
    (0xfc58, 4, ["040e040158fc12"], []),
    (0xfc58, 254, ["040e040158fc12"], []),
    (0xfc58, 255, ["040e040158fc12"], []),
    (0xfc4d, 0, ["040e04014dfc12"], []),
    (0xfc4d, 4, ["040e04014dfc12"], []),
    (0xfc4d, 5, ["040e08014dfc0042434d2d"], []),
    (0xfc4d, 6, ["040e04014dfc12"], []),
    (0xfc4d, 254, ["040e04014dfc12"], []),
    (0xfc4d, 255, ["040e04014dfc12"], []),
    (0xfc4c, 0, ["040e04014cfc12"], []),
    (0xfc4c, 4, ["040e04014cfc12"], []),
    (0xfc4c, 5, ["040e04014cfc00"], []),
    (0xfc4c, 6, ["040e04014cfc00"], []),
    (0xfc4c, 254, ["040e04014cfc00"], []),
    (0xfc4c, 255, ["040e04014cfc00"], []),
    (0xfc0c, 0, ["040e04010cfc12"], []),
    (0xfc0c, 4, ["040e04010cfc12"], []),
    (0xfc0c, 5, ["040e05010cfc0000"], []),
    (0xfc0c, 6, ["040e05010cfc0000"], []),
    (0xfc0c, 254, ["040e05010cfc0000"], []),
    (0xfc0c, 255, ["040e05010cfc0000"], []),
    (0xfce0, 0, ["040e0401e0fc12"], []),
    (0xfce0, 5, ["040e0401e0fc12"], []),
    (0xfce0, 6, ["040e0401e0fc00"], []),
    (0xfce0, 7, ["040e0401e0fc12"], []),
    (0xfce0, 254, ["040e0401e0fc12"], []),
    (0xfce0, 255, ["040e0401e0fc12"], []),
    (0xfce1, 0, ["040e0401e1fc12"], []),
    (0xfce1, 5, ["040e0401e1fc12"], []),
    (0xfce1, 6, ["040e0401e1fc00"], []),
    (0xfce1, 7, ["040e0401e1fc12"], []),
    (0xfce1, 254, ["040e0401e1fc12"], []),
    (0xfce1, 255, ["040e0401e1fc12"], []),
    (0x0999, 0, ["040f0401019909"], ["unknown HCI opcode 0x0999"]),
    (0x0999, 1, ["040f0401019909"], ["unknown HCI opcode 0x0999"]),
    (0x0999, 254, ["040f0401019909"], ["unknown HCI opcode 0x0999"]),
    (0x0999, 255, ["040f0401019909"], ["unknown HCI opcode 0x0999"]),
]


class TestHciParameterLengths:
    def test_every_handled_opcode_is_tried(self):
        tried = {row[0] for row in _HCI_ANSWERS}
        assert tried == set(HCI_HANDLERS) | {_UNKNOWN_OPCODE}

    @pytest.mark.parametrize(
        "opcode, length, frames, notes",
        _HCI_ANSWERS,
        ids=[f"0x{row[0]:04x}-{row[1]}" for row in _HCI_ANSWERS],
    )
    def test_answer(self, opcode, length, frames, notes):
        a, b = Controller(MAC_A), Controller(MAC_B)
        VirtualLink(a, b)
        connect_pair(a, b)
        seen = len(a.audit)
        params = (_HCI_HEADS.get(opcode, b"") + bytes(length))[:length]
        out = a.process_host_frame(HciCommand(opcode, params).to_frame())
        assert [encode_frame(f).hex() for f in out] == frames
        assert [note.split("] ", 1)[1] for note in list(a.audit)[seen:]] == notes


# What a controller answers on the air, recorded on a linked pair with a
# Classic (handle 0x000b) and an LE (0x000c) connection up, A the master:
# every PDU name LINK_HANDLERS takes, one of each layer that no
# handler takes, BPCS in and out of range, PDUs that cannot be dissected,
# and PDUs refused to an unconnected and to a firewalled peer.  Rows:
# (case, sender, allowlist, PDUs as (kind, hex), then under the patched and
# the vulnerable profile: (air units A sends as "kind hex", audit notes,
# frames to A's host as H4 hex)).  _SAME: as under the patched profile.
_SAME = "as patched"
_LINK_ANSWERS = [
    ("LCP Enable BCS Timeline", MAC_B, None, [("lcp", "ff03")],
     ([], ["ignored LCP Enable BCS Timeline on handle 0x000c"], []), _SAME),
    ("LCP Random Address Change", MAC_B, None, [("lcp", "ff04")],
     ([], ["ignored LCP Random Address Change on handle 0x000c"], []), _SAME),
    ("LCP Vendor Feature Request", MAC_B, None, [("lcp", "ff01")],
     ([], ["ignored LCP Vendor Feature Request on handle 0x000c"], []), _SAME),
    ("LCP Vendor Feature Response", MAC_B, None, [("lcp", "ff02")],
     ([], ["ignored LCP Vendor Feature Response on handle 0x000c"], []), _SAME),
    ("LL_FEATURE_REQ", MAC_B, None, [("lcp", "080000000000000000")],
     (["lcp 091f00000000000000"], [], []), _SAME),
    ("LL_FEATURE_RSP", MAC_B, None, [("lcp", "090000000000000000")],
     ([], ["ignored LL_FEATURE_RSP on handle 0x000c"], []), _SAME),
    ("LL_PING_REQ", MAC_B, None, [("lcp", "12")],
     (["lcp 13"], [], []), _SAME),
    ("LL_PING_RSP", MAC_B, None, [("lcp", "13")],
     ([], ["ignored LL_PING_RSP on handle 0x000c"], []), _SAME),
    ("LL_REJECT_EXT_IND", MAC_B, None, [("lcp", "110000")],
     ([], ["ignored LL_REJECT_EXT_IND on handle 0x000c"], []), _SAME),
    ("LL_REJECT_IND", MAC_B, None, [("lcp", "0d00")],
     ([], ["ignored LL_REJECT_IND on handle 0x000c"], []), _SAME),
    ("LL_TERMINATE_IND", MAC_B, None, [("lcp", "0200")],
     ([], [], ["040504000c0000"]), _SAME),
    ("LL_UNKNOWN_RSP", MAC_B, None, [("lcp", "0700")],
     ([], ["ignored LL_UNKNOWN_RSP on handle 0x000c"], []), _SAME),
    ("LL_VERSION_IND", MAC_B, None, [("lcp", "0c0000000000")],
     ([], ["ignored LL_VERSION_IND on handle 0x000c"], []), _SAME),
    ("LMP_DHkey_Check", MAC_B, None, [("lmp", "8300000000000000000000000000000000")],
     (["lmp 0741"], [], []), _SAME),
    ("LMP_IO_capability_req", MAC_B, None, [("lmp", "ff19000000")],
     (["lmp ff1a010003"], [], []), _SAME),
    ("LMP_IO_capability_res", MAC_B, None, [("lmp", "ff1a000000")],
     ([], ["ignored LMP_IO_capability_res on handle 0x000b"], []), _SAME),
    ("LMP_accepted", MAC_B, None, [("lmp", "0700")],
     ([], [], []), _SAME),
    ("LMP_accepted_ext", MAC_B, None, [("lmp", "ff010000")],
     ([], ["ignored LMP_accepted_ext on handle 0x000b"], []), _SAME),
    ("LMP_detach", MAC_B, None, [("lmp", "0f00")],
     ([], [], ["040504000b0000"]), _SAME),
    ("LMP_features_req", MAC_B, None, [("lmp", "4f0000000000000000")],
     (["lmp 51bffecffedbff7b87"], [], []), _SAME),
    ("LMP_features_res", MAC_B, None, [("lmp", "510000000000000000")],
     ([], ["ignored LMP_features_res on handle 0x000b"], []), _SAME),
    ("LMP_not_accepted", MAC_B, None, [("lmp", "090000")],
     ([], ["ignored LMP_not_accepted on handle 0x000b"], []), _SAME),
    ("LMP_not_accepted_ext", MAC_B, None, [("lmp", "ff02000000")],
     ([], ["ignored LMP_not_accepted_ext on handle 0x000b"], []), _SAME),
    ("LMP_setup_complete", MAC_B, None, [("lmp", "63")],
     ([], ["ignored LMP_setup_complete on handle 0x000b"], []), _SAME),
    ("LMP_start_encryption_req", MAC_B, None, [("lmp", "2300000000000000000000000000000000")],
     (["lmp 081124"], [], []), _SAME),
    ("LMP_version_req", MAC_B, None, [("lmp", "4b0000000000")],
     (["lmp 4d090f000922"], [], []), _SAME),
    ("LMP_version_res", MAC_B, None, [("lmp", "4d0000000000")],
     ([], ["ignored LMP_version_res on handle 0x000b"], []), _SAME),
    ("LMP no handler", MAC_B, None, [("lmp", "0300")],
     (["lmp 080124"], [], []), _SAME),
    ("LL no handler", MAC_B, None, [("lcp", "140000000000000000")],
     (["lcp 0714"], [], []), _SAME),
    ("BPCS Features Request", MAC_B, None, [("lmp", "0100")],
     (["lmp 0101"], [], []), _SAME),
    ("BPCS BFC Suspend", MAC_B, None, [("lmp", "0103")],
     (["lmp 0105"], [], []), _SAME),
    ("BPCS BFC Resume", MAC_B, None, [("lmp", "0104")],
     (["lmp 0105"], [], []), _SAME),
    ("BPCS Accept", MAC_B, None, [("lmp", "0105")],
     ([], [], []), _SAME),
    ("BPCS 0x06", MAC_B, None, [("lmp", "0106")],
     (["lmp 010206"], [], []),
     (["reset"], ["BPCS subtype 0x06 overflowed handler table -> crash",
                  "crash: BPCS handler overflow (subtype 0x06)"], ["0410015a"])),
    ("BPCS 0x95", MAC_B, None, [("lmp", "0195")],
     (["lmp 010295"], [], []),
     ([], ["BPCS subtype 0x95 overflowed handler table -> dut_mode"], ["04ff0444555401"])),
    ("LMP undissectable", MAC_B, None, [("lmp", "fd")],
     (["lmp 087e24"], ["undissectable LMP from 00:11:22:33:44:02: "
                       "LMP_escape_3 requires an extended opcode octet"], []),
     _SAME),
    ("LL undissectable", MAC_B, None, [("lcp", "ff09")],
     ([], ["undissectable LCP from 00:11:22:33:44:02: unknown vendor LCP subtype 0x09"], []),
     _SAME),
    ("LMP setup opener, unconnected", MAC_EVIL, None, [("lmp", "4e0000000000000000")],
     (["lmp 51bffecffedbff7b87"], [], []), _SAME),
    ("LL setup opener, unconnected", MAC_EVIL, None, [("lcp", "080000000000000000")],
     (["lcp 091f00000000000000"], [], []), _SAME),
    ("LMP from unconnected", MAC_EVIL, None, [("lmp", "4b0000000000")],
     (["lmp 082524"], [], []), _SAME),
    ("LL from unconnected", MAC_EVIL, None, [("lcp", "12")],
     (["lcp 0d24"], [], []), _SAME),
    ("LMP rejection from unconnected", MAC_EVIL, None, [("lmp", "090000")],
     ([], ["LMP_not_accepted from unconnected 66:55:44:33:22:11"], []), _SAME),
    ("LMP undissectable from unconnected", MAC_EVIL, None, [("lmp", "fd")],
     (["lmp 087e24"], ["undissectable LMP from 66:55:44:33:22:11: "
                       "LMP_escape_3 requires an extended opcode octet"], []),
     _SAME),
    ("LMP firewalled", MAC_B, {MAC_EVIL}, [("lmp", "4b0000000000")],
     (["lmp 082524"], ["firewall rejected LMP from 00:11:22:33:44:02"], []), _SAME),
    ("LL firewalled", MAC_B, {MAC_EVIL}, [("lcp", "12")],
     (["lcp 0d24"], ["firewall rejected LCP from 00:11:22:33:44:02"], []), _SAME),
    ("LMP rejection firewalled", MAC_B, {MAC_EVIL}, [("lmp", "090000")],
     ([], ["firewall rejected LMP from 00:11:22:33:44:02"], []), _SAME),
    ("LMP undissectable firewalled", MAC_B, {MAC_EVIL}, [("lmp", "fd")],
     (["lmp 087e24"], ["firewall rejected LMP from 00:11:22:33:44:02"], []), _SAME),
    ("LL undissectable firewalled", MAC_B, {MAC_EVIL}, [("lcp", "ff09")],
     ([], ["firewall rejected LCP from 00:11:22:33:44:02"], []), _SAME),
    ("start encryption, pairing pending", MAC_B, None,
     [("lmp", "ff19000000"), ("lmp", "2300000000000000000000000000000000")],
     (["lmp ff1a010003", "lmp 081124"], [], []),
     (["lmp ff1a010003", "reset"], ["crash: encryption start during pending pairing"],
      ["0410015a"])),
    ("start encryption, pairing confirmed", MAC_B, None,
     [("lmp", "ff19000000"), ("lmp", "8300000000000000000000000000000000"),
      ("lmp", "2300000000000000000000000000000000")],
     (["lmp ff1a010003", "lmp 0741", "lmp 0711"], [], []), _SAME),
]


class TestLinkLayerAnswers:
    def test_every_handled_name_is_tried(self):
        assert set(LINK_HANDLERS) <= {row[0] for row in _LINK_ANSWERS}

    @pytest.mark.parametrize("profile", ["patched", "vulnerable"])
    @pytest.mark.parametrize(
        "case, sender, allowlist, pdus, patched, vulnerable",
        _LINK_ANSWERS,
        ids=[row[0] for row in _LINK_ANSWERS],
    )
    def test_answer(self, case, sender, allowlist, pdus, patched, vulnerable, profile):
        a = Controller(MAC_A, profile=PROFILE_FACTORIES[profile]())
        b = Controller(MAC_B)
        VirtualLink(a, b)
        connect_pair(a, b)
        connect_pair(a, b, transport="le")
        a.profile.firewall_allowlist = allowlist
        sent = []
        a.link.transmit = lambda _src, kind, data: sent.append(
            kind if data is None else f"{kind} {data.hex()}"
        )
        host = HostRecorder(a)
        seen = len(a.audit)
        for kind, raw in pdus:
            a.deliver_air(sender, kind, bytes.fromhex(raw))
        notes = [note.split("] ", 1)[1] for note in list(a.audit)[seen:]]
        expected = vulnerable if profile == "vulnerable" and vulnerable != _SAME else patched
        assert (sent, notes, [encode_frame(f).hex() for f in host.take()]) == expected


class TestHostFrameEntry:
    """process_host_frame checks a host frame once, on entry: a malformed
    one raises before the clock moves or any tap runs, whether or not a
    tap (here one that encodes sniff records, as a server's does) is on."""

    MALFORMED = {
        # An un-enveloped peek: its body parses, but it is no DIAG frame.
        "short diag": H4Frame(H4Type.DIAG, bytes.fromhex("f10200012000")),
        "long diag": H4Frame(H4Type.DIAG, bytes(64)),
        "hci length field": H4Frame(H4Type.HCI_COMMAND, bytes.fromhex("011005")),
        "hci header": H4Frame(H4Type.HCI_COMMAND, b"\x01\x10"),
        "acl length field": H4Frame(H4Type.ACL_DATA, bytes.fromhex("0b000300aabb")),
    }

    @pytest.mark.parametrize("tapped", [False, True], ids=["no tap", "sniff tap"])
    @pytest.mark.parametrize("frame", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_frame_raises_before_anything_moves(self, frame, tapped):
        ctrl = Controller(MAC_A)
        records = []
        if tapped:
            ctrl.add_tap(lambda d, f: records.append(encode_sniff_record(d, f)))
        before = snapshot(ctrl), ctrl.clock, list(ctrl.audit)
        with pytest.raises(InvariantViolation):
            ctrl.process_host_frame(frame)
        assert (snapshot(ctrl), ctrl.clock, list(ctrl.audit)) == before
        assert records == []
        # The same peek in its envelope is answered.
        (answer,) = ctrl.process_host_frame(H4Frame.diag(bytes.fromhex("f10200012000")))
        assert parse_diag(answer.payload) == PeekResponse(0, 0)
        assert len(records) == 2 * tapped


# Lengths at the edges of what the HCI handlers take, and past them.
_EDGE_LENGTHS = (0, 1, 2, 3, 4, 5, 6, 7, 12, 13, 14, 24, 25, 26, 250, 251, 252, 254, 255)


def _octets(*lengths: int):
    """Random octets of one of ``lengths``: drawn lengths stay small
    unless they are named."""
    return st.sampled_from(lengths).flatmap(lambda n: st.binary(min_size=n, max_size=n))


_HOST_STEPS = st.one_of(
    # An HCI command of the handler table (or an unknown one), its
    # parameters the opcode's _HCI_HEADS or random octets, cut or padded.
    st.tuples(
        st.just("hci"),
        st.sampled_from(sorted(HCI_HANDLERS) + [_UNKNOWN_OPCODE]),
        st.sampled_from(_EDGE_LENGTHS),
        st.booleans(),
        st.binary(max_size=255),
    ),
    # A diag message of any kind, one octet of its body set to a value,
    # then cut or left whole; always in its envelope.
    st.tuples(st.just("diag"), st.randoms(use_true_random=False), st.integers(0, 62),
              st.integers(0, 255), st.integers(1, 63)),
    # ACL data on a live handle when there is one, or on this handle.
    st.tuples(st.just("acl"), st.booleans(), st.integers(0, 0x0FFF), st.integers(0, 3),
              _octets(0, 1, 27, 251, 1021)),
    # Raw link-layer octets, empty ones included and ones longer than a
    # log record holds, or a well-formed LMP PDU.
    st.tuples(st.just("inject"), st.sampled_from(["lmp", "lcp"]),
              _octets(0, 1, 2, 5, 17, 18, 27, 55, 56, 251)),
    st.tuples(st.just("pdu"), st.randoms(use_true_random=False)),
)


class TestEmittedFramesAreValid:
    """Every frame a controller hands its taps passes validate(), so the
    sniff encoder need not check it again: host frames are checked on
    entry, and every other frame comes from a checked builder."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(steps=st.lists(st.tuples(st.booleans(), _HOST_STEPS), max_size=30))
    def test_every_tapped_frame_is_valid(self, steps):
        a = Controller(MAC_A, profile=patched_profile(), name="A")
        b = Controller(MAC_B, profile=vulnerable_profile(), name="B")
        VirtualLink(a, b)
        tapped = []
        for ctrl in (a, b):
            ctrl.add_tap(lambda _d, frame: tapped.append(frame))
            ctrl.process_host_frame(H4Frame.diag(build_diag(ToggleLmpLogging(True))))
        connect_pair(a, b)
        for on_a, step in steps:
            ctrl = a if on_a else b
            kind = step[0]
            if kind == "hci":
                _kind, opcode, length, headed, filler = step
                head = _HCI_HEADS.get(opcode, b"") if headed else b""
                params = (head + filler + bytes(length))[:length]
                ctrl.process_host_frame(HciCommand(opcode, params).to_frame())
            elif kind == "diag":
                _kind, rng, at, value, cut = step
                body = bytearray(build_diag(random_diag_message(rng)))
                body[at % len(body)] = value
                ctrl.process_host_frame(H4Frame.diag(bytes(body[:cut])))
            elif kind == "acl":
                _kind, live, handle, flags, data = step
                if live and ctrl.connections:
                    handle = min(ctrl.connections)
                header = struct.pack("<HH", handle | flags << 12, len(data))
                ctrl.process_host_frame(H4Frame(H4Type.ACL_DATA, header + data))
            elif kind == "inject":
                _kind, layer, raw = step
                inject(ctrl, CLASSIC_LINK if layer == "lmp" else LE_LINK, raw)
            else:
                inject(ctrl, CLASSIC_LINK, ll.build_lmp(random_lmp_pdu(step[1])))
        assert tapped
        for frame in tapped:
            frame.validate()


class TestDiagSurface:
    def test_opaque_vendor_channels_logged_only(self):
        ctrl = Controller(MAC_A)
        before = snapshot(ctrl)
        out = ctrl.process_host_frame(H4Frame.diag(b"\x01\x02", h4_type=H4Type.WICED))
        assert out == []
        assert snapshot(ctrl) == before
        assert any("WICED" in note for note in ctrl.audit)

    def test_audit_keeps_the_newest_notes(self):
        from bcmdiag.emulator.controller import AUDIT_MAX

        ctrl = Controller(MAC_A)
        frame = H4Frame.diag(b"\x01", h4_type=H4Type.MSG_QUEUE_PUT)
        for _ in range(10_000):
            ctrl.process_host_frame(frame)
        assert len(ctrl.audit) <= AUDIT_MAX
        assert ctrl.audit[-1] == f"[{ctrl.clock}] opaque MSG_QUEUE_PUT frame (63 octets)"

    def test_hexdump_partially_out_of_region_is_zeros(self):
        from bcmdiag.emulator.memory import ARM_SIZE

        ctrl = Controller(MAC_A)
        (dump,) = diag_answers(ctrl, MemoryHexdump(ARM_BASE + ARM_SIZE - 16))
        assert dump.data == bytes(32)
        assert any("hexdump outside ARM regions" in note for note in ctrl.audit)

    def test_toggle_has_empty_response(self):
        ctrl = Controller(MAC_A)
        out = ctrl.process_host_frame(H4Frame.diag(bytes([0xF0, 0x01])))
        assert out == []
        assert ctrl.diag_log_enabled
        out = ctrl.process_host_frame(H4Frame.diag(bytes([0xF0, 0x00])))
        assert out == []
        assert not ctrl.diag_log_enabled

    def test_poke_then_peek(self):
        ctrl = Controller(MAC_A)
        address = ARM_BASE + 0x123
        (poke,) = diag_answers(ctrl, MemoryPoke(MemAccessType.ARM, address, 0x5C))
        assert poke == PokeResponse(0)
        (peek,) = diag_answers(ctrl, MemoryPeek(MemAccessType.ARM, address))
        assert peek == PeekResponse(0, 0x5C)

    def test_peek_out_of_region(self):
        ctrl = Controller(MAC_A)
        (peek,) = diag_answers(ctrl, MemoryPeek(MemAccessType.ARM, 0xDEAD0000))
        assert peek.status != 0

    def test_poke_out_of_region(self):
        ctrl = Controller(MAC_A)
        (poke,) = diag_answers(ctrl, MemoryPoke(MemAccessType.BLUERF, 0xDEAD0000, 1))
        assert poke.status != 0

    def test_access_type_respects_region_kind(self):
        ctrl = Controller(MAC_A)
        # The ARM image does not answer for BlueRF addresses.
        (peek,) = diag_answers(ctrl, MemoryPeek(MemAccessType.BLUERF, ARM_BASE))
        assert peek.status != 0

    def test_hexdump_exactly_32_octets(self):
        ctrl = Controller(MAC_A)
        (dump,) = diag_answers(ctrl, MemoryHexdump(ARM_BASE))
        assert isinstance(dump, HexdumpResponse)
        assert len(dump.data) == 32
        assert dump.data == VERSION_STRING.ljust(32, b"\x00")[:32]

    def test_hexdump_matches_memory_slice(self):
        ctrl = Controller(MAC_A)
        for offset, value in enumerate(b"\x10\x20\x30\x40"):
            diag_answers(ctrl, MemoryPoke(MemAccessType.ARM, ARM_BASE + 0x800 + offset, value))
        (dump,) = diag_answers(ctrl, MemoryHexdump(ARM_BASE + 0x800))
        assert dump.data[:4] == b"\x10\x20\x30\x40"
        assert dump.data[4:] == bytes(28)

    def test_wrong_direction_diag_ignored(self):
        ctrl = Controller(MAC_A)
        assert diag_answers(ctrl, PokeResponse(0)) == []
        assert ctrl.audit[-1].endswith("host sent controller->host diag code 0x11")

    @pytest.mark.parametrize("frame", [
        HciEvent(hci.EVT_COMMAND_COMPLETE, bytes(3)).to_frame(),
        H4Frame(H4Type.SCO_DATA, struct.pack("<HB", 0x000B, 2) + b"\x01\x02"),
    ], ids=["event", "sco"])
    def test_an_event_or_sco_frame_from_the_host_is_noted_only(self, frame):
        ctrl = Controller(MAC_A)
        before = snapshot(ctrl)
        assert ctrl.process_host_frame(frame) == []
        assert snapshot(ctrl) == before
        assert ctrl.audit[-1].endswith(f"host sent {frame.h4_type.name}; ignored")

    def test_connection_stats_include_cpu_load(self, linked_pair):
        a, b = linked_pair
        connect_pair(a, b)
        responses = diag_answers(a, StatsRequest(DiagCode.GET_CONNECTION_STATS))
        kinds = [r.kind for r in responses]
        assert kinds.count(DiagCode.CONNECTION_RESPONSE) == 1
        assert kinds[-1] is DiagCode.CPU_LOAD_RESPONSE


class TestMemoryImage:
    def test_overlapping_regions_rejected(self):
        from bcmdiag.emulator.memory import MemoryImage, Region

        image = MemoryImage(
            [
                Region(0x1000, "arm", bytearray(0x100)),
                Region(0x10FF, "arm", bytearray(0x100)),
            ]
        )
        with pytest.raises(ValueError):
            image.check()

    def test_same_span_different_kind_allowed(self):
        from bcmdiag.emulator.memory import MemoryImage, Region

        image = MemoryImage(
            [
                Region(0x0, "arm", bytearray(16)),
                Region(0x0, "bluerf", bytearray(16)),
            ]
        )
        image.check()


class TestStatistics:
    def _send_acl(self, ctrl, handle, payload=b"ping"):
        frame = H4Frame(
            H4Type.ACL_DATA, struct.pack("<HH", handle | 0x2000, len(payload)) + payload
        )
        return ctrl.process_host_frame(frame)

    def test_acl_counts_both_sides(self, linked_pair):
        a, b = linked_pair
        handle = connect_pair(a, b)
        host_b = HostRecorder(b)
        sent = 0  # independent tally
        for _ in range(25):
            self._send_acl(a, handle)
            sent += 1
        (stats_a,) = diag_answers(a, StatsRequest(DiagCode.GET_BR_ACL_STATS))
        assert stats_a.as_dict()["tx_packets"] == sent
        assert stats_a.as_dict()["rx_packets"] == 0
        (stats_b,) = diag_answers(b, StatsRequest(DiagCode.GET_BR_ACL_STATS))
        assert stats_b.as_dict()["rx_packets"] == sent
        # Data actually reached B's host.
        acl_frames = [
            f for f in host_b.take() if f.h4_type is H4Type.ACL_DATA
        ]
        assert len(acl_frames) == sent

    def test_acl_data_payload_preserved(self, linked_pair):
        a, b = linked_pair
        handle = connect_pair(a, b)
        host_b = HostRecorder(b)
        self._send_acl(a, handle, b"\x01\x02\x03\x04\x05")
        (frame,) = [f for f in host_b.take() if f.h4_type is H4Type.ACL_DATA]
        assert frame.payload[4:] == b"\x01\x02\x03\x04\x05"

    def test_sender_gets_completed_packets_event(self, linked_pair):
        a, b = linked_pair
        handle = connect_pair(a, b)
        out = self._send_acl(a, handle)
        (evt,) = events_of(out, hci.EVT_NUM_COMPLETED_PACKETS)
        assert struct.unpack_from("<H", evt.params, 1)[0] == handle

    def test_reset_zeroes_br_acl(self, linked_pair):
        a, b = linked_pair
        handle = connect_pair(a, b)
        for _ in range(7):
            self._send_acl(a, handle)
        assert diag_answers(a, StatsRequest(DiagCode.RESET_BR_ACL_STATS)) == []
        (stats,) = diag_answers(a, StatsRequest(DiagCode.GET_BR_ACL_STATS))
        assert set(stats.values) == {0}

    def test_acl_from_a_peer_after_its_reset_is_noted_only(self, linked_pair):
        """B's HCI Reset leaves A's end up; A's data then reaches a B with
        no connection to put it on."""
        a, b = linked_pair
        handle = connect_pair(a, b)
        b.process_host_frame(HciCommand(hci.OPCODE_RESET).to_frame())
        host_b = HostRecorder(b)
        self._send_acl(a, handle)
        assert host_b.take() == []
        assert b.audit[-1].endswith(f"ACL data from unconnected {hci.format_mac(MAC_A)}")
        (stats_b,) = diag_answers(b, StatsRequest(DiagCode.GET_BR_ACL_STATS))
        assert stats_b.as_dict()["rx_packets"] == 0

    def test_counters_monotonic_between_resets(self, linked_pair):
        a, b = linked_pair
        handle = connect_pair(a, b)
        previous = 0
        for _ in range(5):
            self._send_acl(a, handle)
            (stats,) = diag_answers(a, StatsRequest(DiagCode.GET_BR_ACL_STATS))
            current = stats.as_dict()["tx_packets"]
            assert current >= previous
            previous = current


class TestTestMode:
    def test_loopback_counts(self, linked_pair):
        a, _b = linked_pair
        out = a.process_host_frame(H4Frame.diag(build_diag(RunTest(TestParams()))))
        (msg,) = diag_messages(out)
        assert msg.code is DiagCode.TEST_COMPLETED
        assert (msg.status, msg.tx_count, msg.rx_count, msg.reserved) == (0, 100, 100, 0)

    def test_unlinked_receives_nothing(self):
        ctrl = Controller(MAC_A, test_packet_count=40)
        out = ctrl.process_host_frame(H4Frame.diag(build_diag(RunTest(TestParams()))))
        (msg,) = diag_messages(out)
        assert (msg.tx_count, msg.rx_count) == (40, 0)

    @pytest.mark.parametrize("count", [-5, -1, 65536, 70000])
    def test_packet_count_outside_the_counter_width_is_refused(self, count):
        with pytest.raises(ValueError, match="test_packet_count"):
            Controller(MAC_A, test_packet_count=count)

    def test_packet_count_at_the_counter_width(self):
        ctrl = Controller(MAC_A, test_packet_count=65535)
        out = ctrl.process_host_frame(H4Frame.diag(build_diag(RunTest(TestParams()))))
        (msg,) = diag_messages(out)
        assert (msg.tx_count, msg.rx_count) == (65535, 0)

    def test_invalid_frequency_status(self):
        ctrl = Controller(MAC_A)
        out = ctrl.process_host_frame(
            H4Frame.diag(build_diag(RunTest(TestParams(rx_frequency=200))))
        )
        (msg,) = diag_messages(out)
        assert msg.status != 0
        assert msg.tx_count == 0

    def test_ticks_advance_with_test(self, linked_pair):
        a, _b = linked_pair
        before = a.clock
        a.process_host_frame(H4Frame.diag(build_diag(RunTest(TestParams()))))
        assert a.clock >= before + 100


class TestAirLink:
    def test_relink_rejected(self, linked_pair):
        a, _b = linked_pair
        c = Controller(MAC_EVIL)
        with pytest.raises(AlreadyLinked):
            VirtualLink(a, c)

    def test_a_delivery_that_transmits_extends_the_running_pump(self, linked_pair):
        """B's host disconnects from a tap, while A's pump is delivering
        the setup that completes B's end.  B's own pump returns at once;
        A's delivers the detach, so both ends finish unconnected."""
        a, b = linked_pair
        nested = []

        def disconnect_on_connect(_direction, frame):
            if not nested and frame.h4_type is H4Type.HCI_EVENT \
                    and frame.payload[0] == hci.EVT_CONNECTION_COMPLETE:
                handle = struct.unpack_from("<H", frame.payload, 3)[0]
                nested.append(b.process_host_frame(HciCommand(
                    hci.OPCODE_DISCONNECT, struct.pack("<HB", handle, 0x13)).to_frame()))

        b.add_tap(disconnect_on_connect)
        out = a.process_host_frame(
            HciCommand(hci.OPCODE_CREATE_CONNECTION, hci.mac_to_wire(MAC_B) + bytes(7)).to_frame()
        )
        (answer,) = nested
        assert [e.event_code for e in map(HciEvent.from_frame, answer)] == [
            hci.EVT_COMMAND_STATUS, hci.EVT_DISCONNECTION_COMPLETE
        ]
        (evt,) = events_of(out, hci.EVT_DISCONNECTION_COMPLETE)
        assert evt.params[3] == 0x13
        assert not a.connections and not b.connections

    def test_same_mac_rejected(self):
        with pytest.raises(ValueError):
            VirtualLink(Controller(MAC_A), Controller(MAC_A))

    def test_classic_records_carry_low_mac(self, linked_pair):
        a, b = linked_pair
        a.process_host_frame(H4Frame.diag(bytes([0xF0, 0x01])))
        b.process_host_frame(H4Frame.diag(bytes([0xF0, 0x01])))
        host_b = HostRecorder(b)
        handle = connect_pair(a, b)
        sent_a = [m for m in diag_messages(handle.frames) if m.code is DiagCode.LMP_SENT]
        received_b = [
            m for m in diag_messages(host_b.take()) if m.code is DiagCode.LMP_RECEIVED
        ]
        assert sent_a and received_b
        assert all(m.low_mac == hci.low_mac(MAC_B) for m in sent_a)
        assert all(m.low_mac == hci.low_mac(MAC_A) for m in received_b)

    def test_le_records_carry_full_mac(self, linked_pair):
        a, b = linked_pair
        a.process_host_frame(H4Frame.diag(bytes([0xF0, 0x01])))
        b.process_host_frame(H4Frame.diag(bytes([0xF0, 0x01])))
        handle = connect_pair(a, b, transport="le")
        lcp_a = [
            m
            for m in diag_messages(handle.frames)
            if m.code in (DiagCode.LCP_SENT, DiagCode.LCP_RECEIVED)
        ]
        assert lcp_a
        assert all(m.full_mac == MAC_B and len(m.full_mac) == 6 for m in lcp_a)

    def test_no_records_when_logging_off(self, linked_pair):
        a, b = linked_pair
        host_b = HostRecorder(b)
        handle = connect_pair(a, b)
        assert diag_messages(handle.frames) == []
        assert diag_messages(host_b.take()) == []


class TestReplyLoopSafety:
    """Reply/reject PDUs must never be answered, or two ends bounce
    them forever; these runs only terminate if that holds."""

    def test_mutual_firewalls_do_not_bounce(self):
        a = Controller(MAC_A)
        b = Controller(MAC_B)
        a.profile.firewall_allowlist = set()
        b.profile.firewall_allowlist = set()
        VirtualLink(a, b)
        inject(a, CLASSIC_LINK, bytes([0x4E]) + bytes(8))  # features_req
        assert a.connections == {} and b.connections == {}

    def test_unconnected_reject_not_answered(self):
        a = Controller(MAC_A)
        b = Controller(MAC_B)
        VirtualLink(a, b)
        # A non-opener PDU with no connection draws one not-accepted,
        # which the sender must swallow.
        inject(a, CLASSIC_LINK, bytes([(11 << 1)]) + bytes(16))  # au_rand
        assert a.connections == {} and b.connections == {}
        assert any("LMP_not_accepted from unconnected" in note for note in a.audit)

    def test_unknown_lcp_response_not_answered(self, linked_pair):
        a, b = linked_pair
        connect_pair(a, b, transport="le")
        # An unhandled standard opcode draws LL_UNKNOWN_RSP, which must
        # terminate there.
        inject(a, LE_LINK, bytes([0x03]) + bytes(22))  # enc_req
        assert any("ignored LL_UNKNOWN_RSP" in note for note in a.audit)

    @pytest.mark.parametrize("firewall", [False, True], ids=["open", "firewalled"])
    @pytest.mark.parametrize("profile", [patched_profile, vulnerable_profile])
    def test_empty_lmp_is_noted_not_answered(self, profile, firewall):
        """An empty LMP PDU names no opcode to refuse."""
        a, b = Controller(MAC_A), Controller(MAC_B, profile=profile())
        VirtualLink(a, b)
        for ctrl in (a, b):
            ctrl.process_host_frame(H4Frame.diag(build_diag(ToggleLmpLogging(True))))
        if firewall:
            b.profile.firewall_allowlist = set()
        host_a, host_b = HostRecorder(a), HostRecorder(b)
        inject(a, CLASSIC_LINK, b"")
        assert [m.sent for m in diag_messages(host_a.take())] == [True]
        assert [m.sent for m in diag_messages(host_b.take())] == [False]
        mac = hci.format_mac(MAC_A)
        note = (
            f"firewall rejected LMP from {mac}"
            if firewall
            else f"undissectable LMP from {mac}: empty LMP PDU"
        )
        assert [n.split("] ", 1)[1] for n in b.audit] == [note]
        assert not a.audit and not a.connections and not b.connections

    def test_clock_monotonic_across_crash(self, linked_pair_vulnerable):
        attacker, victim = linked_pair_vulnerable
        handle = connect_pair(attacker, victim)
        ticks = []
        victim.add_tap(lambda d, f: ticks.append(victim.clock))
        crasher = ll.build_lmp(ll.BpcsPdu(subtype=0x33), allow_nonconformant=True)
        attacker.process_host_frame(
            HciCommand(
                hci.OPCODE_VSC_SEND_LMP_PDU, struct.pack("<H", handle) + crasher
            ).to_frame()
        )
        victim.process_host_frame(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame())
        assert ticks == sorted(ticks)
        assert victim.clock > 0


def _lmp(name, params=None, tid=0):
    opcode = ll.LMP_NAME_TO_OPCODE[name]
    if params is None:
        params = bytes(ll.LMP_OPCODES[opcode].param_len)
    return bytes([opcode << 1 | tid]) + params


def _lcp(name, params=None):
    opcode = ll.LCP_NAME_TO_OPCODE[name]
    if params is None:
        params = bytes(ll.LCP_OPCODES[opcode].param_len)
    return bytes([opcode]) + params


_MAC_A, _MAC_B = hci.format_mac(MAC_A), hci.format_mac(MAC_B)
_NOT_ACCEPTED_39 = "0827240000000000000000000000000000"  # features_req refused, tid 0

# One row per link-layer branch that Classic and LE both take: what A
# sends over the air (None: HCI Disconnect of the live link), whether
# the pair is connected first and whether B's firewall shuts A out;
# then both ends' log records (direction and octets) and the audit
# notes each end adds.
_BRANCHES = [
    ("undissectable", "classic", False, False, _lmp("LMP_features_req", bytes(3)),
     ["tx 4e00000000000000000000000000000000", "rx " + _NOT_ACCEPTED_39],
     [f"LMP_not_accepted from unconnected {_MAC_B}"],
     ["rx 4e00000000000000000000000000000000", "tx " + _NOT_ACCEPTED_39],
     [f"undissectable LMP from {_MAC_A}: LMP_features_req must be 9 octets, got 4"]),
    ("undissectable", "le", False, False, _lcp("LL_FEATURE_REQ", bytes(2)),
     ["tx 080000"], [],
     ["rx 080000"],
     [f"undissectable LCP from {_MAC_A}: LL_FEATURE_REQ carries 8 CtrData octets, got 2"]),
    ("firewalled", "classic", False, True, _lmp("LMP_features_req"),
     ["tx 4e00000000000000000000000000000000", "rx " + _NOT_ACCEPTED_39],
     [f"LMP_not_accepted from unconnected {_MAC_B}"],
     ["rx 4e00000000000000000000000000000000", "tx " + _NOT_ACCEPTED_39],
     [f"firewall rejected LMP from {_MAC_A}"]),
    ("firewalled", "le", False, True, _lcp("LL_FEATURE_REQ"),
     ["tx 080000000000000000", "rx 0d24"], [f"LL_REJECT_IND from unconnected {_MAC_B}"],
     ["rx 080000000000000000", "tx 0d24"], [f"firewall rejected LCP from {_MAC_A}"]),
    ("reject at firewall", "classic", False, True, _lmp("LMP_not_accepted", bytes([39, 0x24])),
     ["tx " + _NOT_ACCEPTED_39], [],
     ["rx " + _NOT_ACCEPTED_39], [f"firewall rejected LMP from {_MAC_A}"]),
    ("reject at firewall", "le", False, True, _lcp("LL_REJECT_IND", b"\x24"),
     ["tx 0d24"], [],
     ["rx 0d24"], [f"firewall rejected LCP from {_MAC_A}"]),
    ("unconnected request", "classic", False, False, _lmp("LMP_au_rand"),
     ["tx 1600000000000000000000000000000000", "rx 080b240000000000000000000000000000"],
     [f"LMP_not_accepted from unconnected {_MAC_B}"],
     ["rx 1600000000000000000000000000000000", "tx 080b240000000000000000000000000000"], []),
    ("unconnected request", "le", False, False, _lcp("LL_PING_REQ"),
     ["tx 12", "rx 0d24"], [f"LL_REJECT_IND from unconnected {_MAC_B}"],
     ["rx 12", "tx 0d24"], []),
    ("unconnected reply", "classic", False, False, _lmp("LMP_accepted", bytes([39])),
     ["tx 0627000000000000000000000000000000", "rx 0803240000000000000000000000000000"],
     [f"LMP_not_accepted from unconnected {_MAC_B}"],
     ["rx 0627000000000000000000000000000000", "tx 0803240000000000000000000000000000"], []),
    ("unconnected reply", "le", False, False, _lcp("LL_PING_RSP"),
     ["tx 13", "rx 0d24"], [f"LL_REJECT_IND from unconnected {_MAC_B}"],
     ["rx 13", "tx 0d24"], []),
    ("undissectable at firewall", "le", False, True, _lcp("LL_FEATURE_REQ", bytes(2)),
     ["tx 080000"], [],
     ["rx 080000"], [f"firewall rejected LCP from {_MAC_A}"]),
    ("unknown opcode", "classic", True, False, bytes([70 << 1, 0, 0]),
     ["tx 8c00000000000000000000000000000000", "rx 0846240000000000000000000000000000"],
     ["ignored LMP_not_accepted on handle 0x000b"],
     ["rx 8c00000000000000000000000000000000", "tx 0846240000000000000000000000000000"],
     [f"undissectable LMP from {_MAC_A}: unknown LMP opcode 0x46"]),
    ("unknown opcode", "le", True, False, bytes([0x40, 0]),
     ["tx 4000"], [],
     ["rx 4000"], [f"undissectable LCP from {_MAC_A}: unknown LCP opcode 0x40"]),
    ("unhandled", "classic", True, False, _lmp("LMP_au_rand"),
     ["tx 1600000000000000000000000000000000", "rx 090b240000000000000000000000000000"],
     ["ignored LMP_not_accepted on handle 0x000b"],
     ["rx 1600000000000000000000000000000000", "tx 090b240000000000000000000000000000"], []),
    ("unhandled", "le", True, False, _lcp("LL_ENC_REQ"),
     ["tx 0300000000000000000000000000000000000000000000", "rx 0703"],
     ["ignored LL_UNKNOWN_RSP on handle 0x000b"],
     ["rx 0300000000000000000000000000000000000000000000", "tx 0703"], []),
    ("features", "classic", True, False, _lmp("LMP_features_req"),
     ["tx 4e00000000000000000000000000000000", "rx 50bffecffedbff7b870000000000000000"],
     ["ignored LMP_features_res on handle 0x000b"],
     ["rx 4e00000000000000000000000000000000", "tx 50bffecffedbff7b870000000000000000"], []),
    ("features", "le", True, False, _lcp("LL_FEATURE_REQ"),
     ["tx 080000000000000000", "rx 091f00000000000000"],
     ["ignored LL_FEATURE_RSP on handle 0x000b"],
     ["rx 080000000000000000", "tx 091f00000000000000"], []),
    ("version", "classic", True, False, _lmp("LMP_version_req"),
     ["tx 4a00000000000000000000000000000000", "rx 4c090f0009220000000000000000000000"],
     ["ignored LMP_version_res on handle 0x000b"],
     ["rx 4a00000000000000000000000000000000", "tx 4c090f0009220000000000000000000000"], []),
    ("features tid 1", "classic", True, False, _lmp("LMP_features_req", tid=1),
     ["tx 4f00000000000000000000000000000000", "rx 51bffecffedbff7b870000000000000000"],
     ["ignored LMP_features_res on handle 0x000b"],
     ["rx 4f00000000000000000000000000000000", "tx 51bffecffedbff7b870000000000000000"], []),
    ("version tid 1", "classic", True, False, _lmp("LMP_version_req", tid=1),
     ["tx 4b00000000000000000000000000000000", "rx 4d090f0009220000000000000000000000"],
     ["ignored LMP_version_res on handle 0x000b"],
     ["rx 4b00000000000000000000000000000000", "tx 4d090f0009220000000000000000000000"], []),
    ("version", "le", True, False, _lcp("LL_VERSION_IND"),
     ["tx 0c0000000000"], [],
     ["rx 0c0000000000"], ["ignored LL_VERSION_IND on handle 0x000b"]),
    ("ping", "le", True, False, _lcp("LL_PING_REQ"),
     ["tx 12", "rx 13"], ["ignored LL_PING_RSP on handle 0x000b"],
     ["rx 12", "tx 13"], []),
    ("vendor", "classic", True, False, ll.build_lmp(ll.BpcsPdu(ll.BPCS_FEATURES_REQUEST)),
     ["tx 0000000000000000000000000000000000", "rx 0001000000000000000000000000000000"], [],
     ["rx 0000000000000000000000000000000000", "tx 0001000000000000000000000000000000"], []),
    ("vendor", "le", True, False, ll.build_lcp(ll.vendor_lcp(1, b"\x01")),
     ["tx ff0101"], [],
     ["rx ff0101"], ["ignored LCP Vendor Feature Request on handle 0x000b"]),
    ("bfc suspend", "classic", True, False, ll.build_lmp(ll.BpcsPdu(ll.BPCS_BFC_SUSPEND, 1)),
     ["tx 0103000000000000000000000000000000", "rx 0105000000000000000000000000000000"], [],
     ["rx 0103000000000000000000000000000000", "tx 0105000000000000000000000000000000"], []),
    ("bfc resume", "classic", True, False, ll.build_lmp(ll.BpcsPdu(ll.BPCS_BFC_RESUME, 1)),
     ["tx 0104000000000000000000000000000000", "rx 0105000000000000000000000000000000"], [],
     ["rx 0104000000000000000000000000000000", "tx 0105000000000000000000000000000000"], []),
    ("features response", "classic", True, False,
     ll.build_lmp(ll.BpcsPdu(ll.BPCS_FEATURES_RESPONSE)),
     ["tx 0001000000000000000000000000000000"], [],
     ["rx 0001000000000000000000000000000000"], []),
    ("disconnect", "classic", True, False, None,
     ["tx 0e13000000000000000000000000000000"], [],
     ["rx 0e13000000000000000000000000000000"], []),
    ("disconnect", "le", True, False, None,
     ["tx 0213"], [],
     ["rx 0213"], []),
]


class TestLinkLayerBranches:
    """Each Classic/LE branch of the air path, pinned by what both
    ends log and note."""

    @pytest.mark.parametrize(
        "transport, connected, firewall, raw, log_a, notes_a, log_b, notes_b",
        [row[1:] for row in _BRANCHES],
        ids=[f"{row[0]}-{row[1]}" for row in _BRANCHES],
    )
    def test_branch(self, transport, connected, firewall, raw, log_a, notes_a, log_b, notes_b):
        a, b = Controller(MAC_A), Controller(MAC_B)
        VirtualLink(a, b)
        for ctrl in (a, b):
            ctrl.process_host_frame(H4Frame.diag(build_diag(ToggleLmpLogging(True))))
        handle = connect_pair(a, b, transport) if connected else None
        if firewall:
            b.profile.firewall_allowlist = set()
        host_a, host_b = HostRecorder(a), HostRecorder(b)
        seen_a, seen_b = len(a.audit), len(b.audit)
        if raw is None:
            a.process_host_frame(
                HciCommand(hci.OPCODE_DISCONNECT, struct.pack("<HB", handle, 0x13)).to_frame()
            )
        elif transport == "classic":
            inject(a, CLASSIC_LINK, raw)
        else:
            inject(a, LE_LINK, raw)

        def log(host):
            return [("tx " if m.sent else "rx ") + m.payload.hex() for m in diag_messages(host.take())]

        def notes(ctrl, seen):
            return [note.split("] ", 1)[1] for note in list(ctrl.audit)[seen:]]

        assert (log(host_a), notes(a, seen_a)) == (log_a, notes_a)
        assert (log(host_b), notes(b, seen_b)) == (log_b, notes_b)


def _air_pdus():
    """(label, layer, octets): every name in the LMP, extended-LMP and LCP
    opcode tables with a zero body of its table length, each LCP name with
    one octet more, every BPCS subtype, vendor LCP subtypes 0x00-0x05 and
    an empty PDU of each layer; the setup openers come last."""
    pdus = [(e.name, CLASSIC_LINK, bytes([e.value << 1]) + bytes(e.param_len))
            for e in ll.LMP_OPCODES.values()]
    pdus += [(e.name, CLASSIC_LINK, bytes([ll.LMP_ESCAPE_4 << 1, e.value]) + bytes(e.param_len))
             for e in ll.LMP_EXT_OPCODES.values()]
    for e in ll.LCP_OPCODES.values():
        pdus.append((e.name, LE_LINK, bytes([e.value]) + bytes(e.param_len)))
        pdus.append((f"{e.name} + 1", LE_LINK, bytes([e.value]) + bytes(e.param_len + 1)))
    pdus += [(f"BPCS 0x{s:02x}", CLASSIC_LINK, bytes([ll.BPCS_OPCODE << 1, s])) for s in range(256)]
    pdus += [(f"LCP vendor 0x{s:02x}", LE_LINK, bytes([0xFF, s])) for s in range(6)]
    pdus += [("empty LMP", CLASSIC_LINK, b""), ("empty LCP", LE_LINK, b"")]
    return sorted(pdus, key=lambda pdu: pdu[0] in _OPENERS)


_OPENERS = {layer.script[0].pdu_name for layer in (CLASSIC_LINK, LE_LINK)}
_REJECTIONS = {"LMP_not_accepted", "LMP_not_accepted_ext", "LL_REJECT_IND", "LL_REJECT_EXT_IND"}


class TestOneAdmissionRule:
    """A PDU with no connection to live on draws the same answer whether
    B's firewall or the missing connection stopped it."""

    @staticmethod
    def _answers(allowlist):
        """What B sends A for each of _air_pdus(), and the names B notes
        as coming from an unconnected peer.  A answers nothing."""
        a, b = Controller(MAC_A), Controller(MAC_B)
        VirtualLink(a, b)
        b.profile.firewall_allowlist = allowlist
        sent = []
        a.deliver_air = lambda _mac, kind, data: sent.append(f"{kind} {data.hex()}")
        answers, noted, suffix = {}, set(), f" from unconnected {_MAC_A}"
        for label, layer, raw in _air_pdus():
            seen = len(b.audit)
            inject(a, layer, raw)
            answers[label], sent[:] = sent[:], []
            notes = [note.split("] ", 1)[1] for note in list(b.audit)[seen:]]
            noted.update(n.removesuffix(suffix) for n in notes if n.endswith(suffix))
        return answers, noted

    def test_firewalled_and_unconnected_peers_are_answered_alike(self):
        firewalled, noted_behind = self._answers(set())
        unconnected, noted = self._answers({MAC_A})
        assert len(firewalled) == len(list(_air_pdus())) == len(unconnected)
        assert {k for k in firewalled if firewalled[k] != unconnected[k]} == _OPENERS
        # Only the rejections go unanswered for being rejections.
        assert noted == _REJECTIONS and not noted_behind
        assert all(not firewalled[name] for name in _REJECTIONS)
        assert all(len(sent) <= 1 for sent in firewalled.values())


class TestSnapshot:
    def test_a_snapshot_is_a_copy(self):
        """Edits made after a snapshot reach no earlier snapshot; a new
        one differs in exactly the keys they touch."""
        a, b = Controller(MAC_A, profile=vulnerable_profile()), Controller(MAC_B)
        VirtualLink(a, b)
        before = snapshot(a)
        a.process_host_frame(
            HciCommand(hci.OPCODE_VSC_FIREWALL_ADD, hci.mac_to_wire(MAC_B)).to_frame()
        )
        a.profile.bpcs_overflow_map[0x33] = HandlerAction.NOP
        a.process_host_frame(
            H4Frame.diag(build_diag(MemoryPoke(MemAccessType.ARM, ARM_BASE + 0x100, 0x5A)))
        )
        connect_pair(a, b)
        assert before == snapshot(Controller(MAC_A, profile=vulnerable_profile()))
        after = snapshot(a)
        assert {key for key in after if after[key] != before[key]} == {
            "profile", "memory", "connections"
        }


class TestDeterminism:
    def _run_once(self):
        a = Controller(MAC_A, name="A")
        b = Controller(MAC_B, name="B")
        VirtualLink(a, b)
        stream: list[bytes] = []
        from bcmdiag.h4 import encode_sniff_record

        a.add_tap(lambda d, f: stream.append(bytes([a.clock & 0xFF]) + encode_sniff_record(d, f)))
        b.add_tap(lambda d, f: stream.append(bytes([b.clock & 0xFF]) + encode_sniff_record(d, f)))
        a.process_host_frame(H4Frame.diag(bytes([0xF0, 0x01])))
        b.process_host_frame(H4Frame.diag(bytes([0xF0, 0x01])))
        connect_pair(a, b)
        a.process_host_frame(H4Frame.diag(build_diag(RunTest(TestParams()))))
        a.process_host_frame(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame())
        return b"".join(stream)

    def test_identical_runs_identical_streams(self):
        assert self._run_once() == self._run_once()


_LAYER_CODECS = [
    (CLASSIC_LINK, ll.dissect_lmp, ll.build_lmp),
    (LE_LINK, ll.dissect_lcp, ll.build_lcp),
]


class TestConstantPdus:
    """The PDUs a controller sends unchanged are built once, at import,
    and the table agrees with the codec both ways."""

    @pytest.mark.parametrize("layer, dissect, build", _LAYER_CODECS, ids=["lmp", "lcp"])
    def test_every_entry_is_what_the_codec_gives(self, layer, dissect, build):
        for (name, tid, params), raw in layer.constants.items():
            pdu = layer.pdus[raw]
            assert dissect(raw) == pdu and build(pdu) == raw
            assert pdu.name == name and getattr(pdu, "tid", tid) == tid
            assert params is None or pdu.params == params
        # The whole setup script is there, for both ends.
        for step in layer.script:
            assert {(step.pdu_name, tid, step.params) for tid in (0, 1)} <= layer.constants.keys()

    @pytest.mark.parametrize("layer, dissect, build", _LAYER_CODECS, ids=["lmp", "lcp"])
    def test_receive_shortcut_returns_what_dissect_returns(self, layer, dissect, build):
        assert set(layer.pdus) == set(layer.constants.values())
        for raw, pdu in layer.pdus.items():
            back = dissect(raw)
            assert back.__class__ is pdu.__class__ and back == pdu

    def test_memos_stay_bounded_under_distinct_bodies(self):
        """10k distinct injected and sent bodies, both ends logging to a
        tap: each controller's log-record memo stays within its bound and
        the constant tables do not grow."""
        a, b = Controller(MAC_A), Controller(MAC_B)
        VirtualLink(a, b)
        for ctrl in (a, b):
            ctrl.diag_log_enabled = True
            ctrl.add_tap(lambda _d, _f: None)
        handle = connect_pair(a, b)
        sizes = [(len(layer.constants), len(layer.pdus)) for layer, _d, _b in _LAYER_CODECS]
        for i in range(10_000):
            body = i.to_bytes(2, "big")
            if i % 3 == 0:
                inject(a, CLASSIC_LINK, bytes([i % 256]) + body)
            elif i % 3 == 1:
                inject(a, LE_LINK, bytes([i % 256]) + body)
            else:  # a BPCS PDU: sendlmp takes any subtype, and no reply ends the link
                a.process_host_frame(HciCommand(
                    hci.OPCODE_VSC_SEND_LMP_PDU, struct.pack("<H", handle) + b"\x00\x06" + body
                ).to_frame())
            assert len(a._log_frames) <= LOG_FRAMES_MAX and len(b._log_frames) <= LOG_FRAMES_MAX
        assert a._log_frames and b._log_frames and handle in a.connections
        assert [(len(layer.constants), len(layer.pdus)) for layer, _d, _b in _LAYER_CODECS] == sizes
