"""Controller emulator behavior: HCI surface, diagnostic handlers,
virtual link, connection lifecycle, statistics, test mode."""

import struct

import pytest

from bcmdiag import hci, ll
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
from bcmdiag.emulator import Controller, Phase, Role, Transport, attach_air_link
from bcmdiag.emulator.memory import ARM_BASE, VERSION_STRING
from bcmdiag.errors import AlreadyLinked
from bcmdiag.h4 import H4Frame, H4Type, HciCommand, HciEvent

from conftest import connect_pair
from helpers import MAC_A, MAC_B, MAC_EVIL


def events_of(frames, code):
    return [
        HciEvent.from_frame(f)
        for f in frames
        if f.h4_type is H4Type.HCI_EVENT and f.payload[0] == code
    ]


def diag_messages(frames):
    return [parse_diag(f.payload) for f in frames if f.h4_type is H4Type.DIAG]


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
        handle = connect_pair(a, b)
        assert a.connections[handle].phase is Phase.CONNECTED
        assert a.connections[handle].role is Role.MASTER
        (conn_b,) = b.connections.values()
        assert conn_b.role is Role.SLAVE
        assert conn_b.peer_mac == MAC_A
        (evt,) = events_of(b.take_host_frames(), hci.EVT_CONNECTION_COMPLETE)
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
        handle = connect_pair(a, b)
        b.take_host_frames()
        out = a.process_host_frame(
            HciCommand(hci.OPCODE_DISCONNECT, struct.pack("<HB", handle, 0x13)).to_frame()
        )
        (evt,) = events_of(out, hci.EVT_DISCONNECTION_COMPLETE)
        assert struct.unpack_from("<H", evt.params, 1)[0] == handle
        assert not a.connections
        assert not b.connections
        assert events_of(b.take_host_frames(), hci.EVT_DISCONNECTION_COMPLETE)

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

    def test_passive_peer_holds_a_bounded_backlog(self, linked_pair):
        """B never gets host input during 1,000 logged connect+disconnect
        cycles driven from A; it keeps only its newest frames and still
        answers."""
        from bcmdiag.emulator.controller import HOST_OUT_MAX

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
        assert len(b.take_host_frames()) == HOST_OUT_MAX
        version = b.process_host_frame(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame())
        assert [HciEvent.from_frame(f).event_code for f in version] == [hci.EVT_COMMAND_COMPLETE]

    def test_le_connect(self, linked_pair):
        a, b = linked_pair
        handle = connect_pair(a, b, transport="le")
        conn = a.connections[handle]
        assert conn.transport is Transport.LE
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
        b.take_host_frames()
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
            for m in diag_messages(b.take_host_frames())
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


class TestDiagSurface:
    def test_opaque_vendor_channels_logged_only(self):
        ctrl = Controller(MAC_A)
        before = ctrl.snapshot()
        out = ctrl.process_host_frame(H4Frame.diag(b"\x01\x02", h4_type=H4Type.WICED))
        assert out == []
        assert ctrl.snapshot() == before
        assert any("WICED" in note for note in ctrl.audit)

    def test_hexdump_partially_out_of_region_is_zeros(self):
        from bcmdiag.emulator.memory import ARM_SIZE

        ctrl = Controller(MAC_A)
        (dump,) = ctrl.handle_diag(MemoryHexdump(ARM_BASE + ARM_SIZE - 16))
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
        (poke,) = ctrl.handle_diag(MemoryPoke(MemAccessType.ARM, address, 0x5C))
        assert poke == PokeResponse(0)
        (peek,) = ctrl.handle_diag(MemoryPeek(MemAccessType.ARM, address))
        assert peek == PeekResponse(0, 0x5C)

    def test_peek_out_of_region(self):
        ctrl = Controller(MAC_A)
        (peek,) = ctrl.handle_diag(MemoryPeek(MemAccessType.ARM, 0xDEAD0000))
        assert peek.status != 0

    def test_poke_out_of_region(self):
        ctrl = Controller(MAC_A)
        (poke,) = ctrl.handle_diag(MemoryPoke(MemAccessType.BLUERF, 0xDEAD0000, 1))
        assert poke.status != 0

    def test_access_type_respects_region_kind(self):
        ctrl = Controller(MAC_A)
        # The ARM image does not answer for BlueRF addresses.
        (peek,) = ctrl.handle_diag(MemoryPeek(MemAccessType.BLUERF, ARM_BASE))
        assert peek.status != 0

    def test_hexdump_exactly_32_octets(self):
        ctrl = Controller(MAC_A)
        (dump,) = ctrl.handle_diag(MemoryHexdump(ARM_BASE))
        assert isinstance(dump, HexdumpResponse)
        assert len(dump.data) == 32
        assert dump.data == VERSION_STRING.ljust(32, b"\x00")[:32]

    def test_hexdump_matches_memory_slice(self):
        ctrl = Controller(MAC_A)
        for offset, value in enumerate(b"\x10\x20\x30\x40"):
            ctrl.handle_diag(MemoryPoke(MemAccessType.ARM, ARM_BASE + 0x800 + offset, value))
        (dump,) = ctrl.handle_diag(MemoryHexdump(ARM_BASE + 0x800))
        assert dump.data[:4] == b"\x10\x20\x30\x40"
        assert dump.data[4:] == bytes(28)

    def test_wrong_direction_diag_ignored(self):
        ctrl = Controller(MAC_A)
        assert ctrl.handle_diag(PokeResponse(0)) == []

    def test_connection_stats_include_cpu_load(self, linked_pair):
        a, b = linked_pair
        connect_pair(a, b)
        responses = a.handle_diag(StatsRequest(DiagCode.GET_CONNECTION_STATS))
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
        b.take_host_frames()
        sent = 0  # independent tally
        for _ in range(25):
            self._send_acl(a, handle)
            sent += 1
        (stats_a,) = a.handle_diag(StatsRequest(DiagCode.GET_BR_ACL_STATS))
        assert stats_a.as_dict()["tx_packets"] == sent
        assert stats_a.as_dict()["rx_packets"] == 0
        (stats_b,) = b.handle_diag(StatsRequest(DiagCode.GET_BR_ACL_STATS))
        assert stats_b.as_dict()["rx_packets"] == sent
        # Data actually reached B's host.
        acl_frames = [
            f for f in b.take_host_frames() if f.h4_type is H4Type.ACL_DATA
        ]
        assert len(acl_frames) == sent

    def test_acl_data_payload_preserved(self, linked_pair):
        a, b = linked_pair
        handle = connect_pair(a, b)
        b.take_host_frames()
        self._send_acl(a, handle, b"\x01\x02\x03\x04\x05")
        (frame,) = [f for f in b.take_host_frames() if f.h4_type is H4Type.ACL_DATA]
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
        assert a.handle_diag(StatsRequest(DiagCode.RESET_BR_ACL_STATS)) == []
        (stats,) = a.handle_diag(StatsRequest(DiagCode.GET_BR_ACL_STATS))
        assert set(stats.values) == {0}

    def test_counters_monotonic_between_resets(self, linked_pair):
        a, b = linked_pair
        handle = connect_pair(a, b)
        previous = 0
        for _ in range(5):
            self._send_acl(a, handle)
            (stats,) = a.handle_diag(StatsRequest(DiagCode.GET_BR_ACL_STATS))
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
            attach_air_link(a, c)

    def test_same_mac_rejected(self):
        with pytest.raises(ValueError):
            attach_air_link(Controller(MAC_A), Controller(MAC_A))

    def test_classic_records_carry_low_mac(self, linked_pair):
        a, b = linked_pair
        a.process_host_frame(H4Frame.diag(bytes([0xF0, 0x01])))
        b.process_host_frame(H4Frame.diag(bytes([0xF0, 0x01])))
        a.take_host_frames(), b.take_host_frames()
        handle = connect_pair(a, b)
        sent_a = [m for m in diag_messages(handle.frames) if m.code is DiagCode.LMP_SENT]
        received_b = [
            m for m in diag_messages(b.take_host_frames()) if m.code is DiagCode.LMP_RECEIVED
        ]
        assert sent_a and received_b
        assert all(m.low_mac == hci.low_mac(MAC_B) for m in sent_a)
        assert all(m.low_mac == hci.low_mac(MAC_A) for m in received_b)

    def test_le_records_carry_full_mac(self, linked_pair):
        a, b = linked_pair
        a.process_host_frame(H4Frame.diag(bytes([0xF0, 0x01])))
        b.process_host_frame(H4Frame.diag(bytes([0xF0, 0x01])))
        a.take_host_frames(), b.take_host_frames()
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
        handle = connect_pair(a, b)
        assert diag_messages(handle.frames) == []
        assert diag_messages(b.take_host_frames()) == []


class TestReplyLoopSafety:
    """Reply/reject PDUs must never be answered, or two ends bounce
    them forever; these runs only terminate if that holds."""

    def test_mutual_firewalls_do_not_bounce(self):
        a = Controller(MAC_A)
        b = Controller(MAC_B)
        a.profile.firewall_allowlist = set()
        b.profile.firewall_allowlist = set()
        attach_air_link(a, b)
        a.inject_lmp(bytes([0x4E]) + bytes(8))  # features_req
        assert a.connections == {} and b.connections == {}

    def test_unconnected_reject_not_answered(self):
        a = Controller(MAC_A)
        b = Controller(MAC_B)
        attach_air_link(a, b)
        # A non-opener PDU with no connection draws one not-accepted,
        # which the sender must swallow.
        a.inject_lmp(bytes([(11 << 1)]) + bytes(16))  # au_rand
        assert a.connections == {} and b.connections == {}
        assert any("LMP_not_accepted from unconnected" in note for note in a.audit)

    def test_unknown_lcp_response_not_answered(self, linked_pair):
        a, b = linked_pair
        connect_pair(a, b, transport="le")
        # An unhandled standard opcode draws LL_UNKNOWN_RSP, which must
        # terminate there.
        a.inject_lcp(bytes([0x03]) + bytes(22))  # enc_req
        assert any("ignored LL_UNKNOWN_RSP" in note for note in a.audit)

    def test_clock_monotonic_across_crash(self, linked_pair_vulnerable):
        attacker, victim = linked_pair_vulnerable
        handle = connect_pair(attacker, victim)
        ticks = []
        victim.add_tap(lambda d, f, t: ticks.append(t))
        crasher = ll.build_lmp(ll.BpcsPdu(subtype=0x33), allow_nonconformant=True)
        attacker.process_host_frame(
            HciCommand(
                hci.OPCODE_VSC_SEND_LMP_PDU, struct.pack("<H", handle) + crasher
            ).to_frame()
        )
        victim.process_host_frame(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame())
        assert ticks == sorted(ticks)
        assert victim.clock > 0


class TestDeterminism:
    def _run_once(self):
        a = Controller(MAC_A, name="A")
        b = Controller(MAC_B, name="B")
        attach_air_link(a, b)
        stream: list[bytes] = []
        from bcmdiag.capture import encode_sniff_record

        a.add_tap(lambda d, f, t: stream.append(bytes([t & 0xFF]) + encode_sniff_record(d, f)))
        b.add_tap(lambda d, f, t: stream.append(bytes([t & 0xFF]) + encode_sniff_record(d, f)))
        a.process_host_frame(H4Frame.diag(bytes([0xF0, 0x01])))
        b.process_host_frame(H4Frame.diag(bytes([0xF0, 0x01])))
        connect_pair(a, b)
        a.process_host_frame(H4Frame.diag(build_diag(RunTest(TestParams()))))
        a.process_host_frame(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame())
        return b"".join(stream)

    def test_identical_runs_identical_streams(self):
        assert self._run_once() == self._run_once()
