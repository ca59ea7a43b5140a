"""Security behavior: the two published firmware regressions, the MAC
firewall, crash recovery, and profile monotonicity."""

import random
import struct

from bcmdiag import hci, ll
from bcmdiag.diag import DiagCode, parse_diag
from bcmdiag.emulator import Controller, Phase, VirtualLink
from bcmdiag.emulator.linklayer import CLASSIC_LINK
from bcmdiag.emulator.profiles import HandlerAction, patched_profile, vulnerable_profile
from bcmdiag.emulator.scenario import run_scenario
from bcmdiag.h4 import H4Frame, H4Type, HciCommand, HciEvent
from bcmdiag.session import LocalSession

from conftest import connect_pair
from helpers import MAC_A, MAC_B, MAC_EVIL, HostRecorder, inject, snapshot


def events_of(frames, code):
    return [
        HciEvent.from_frame(f)
        for f in frames
        if f.h4_type is H4Type.HCI_EVENT and f.payload[0] == code
    ]


def send_lmp(attacker, handle, pdu_bytes):
    return attacker.process_host_frame(
        HciCommand(
            hci.OPCODE_VSC_SEND_LMP_PDU, struct.pack("<H", handle) + pdu_bytes
        ).to_frame()
    )


def bpcs_0x95():
    return ll.build_lmp(ll.BpcsPdu(subtype=0x95), allow_nonconformant=True)


def io_capability_req():
    return ll.build_lmp(
        ll.LmpPdu(
            ll.LMP_ESCAPE_4,
            params=bytes.fromhex("010003"),
            extended_opcode=ll.LMP_EXT_NAME_TO_OPCODE["LMP_IO_capability_req"],
        )
    )


def start_encryption_req():
    return ll.build_lmp(
        ll.LmpPdu(ll.LMP_NAME_TO_OPCODE["LMP_start_encryption_req"], params=bytes(16))
    )


def dhkey_check():
    return ll.build_lmp(
        ll.LmpPdu(ll.LMP_NAME_TO_OPCODE["LMP_DHkey_Check"], params=bytes(16))
    )


class TestBpcsBoundsCheck:
    """Out-of-range BPCS subtypes index past the handler table on
    vulnerable builds (CVE-2018-19860)."""

    def test_vulnerable_enters_dut_mode(self, linked_pair_vulnerable):
        attacker, victim = linked_pair_vulnerable
        handle = connect_pair(attacker, victim)
        host = HostRecorder(victim)
        send_lmp(attacker, handle, bpcs_0x95())
        assert victim.test_mode_active
        (vendor,) = events_of(host.take(), hci.EVT_VENDOR)
        assert vendor.params == hci.DUT_EVENT_PARAMS

    def test_dut_mode_jams_traffic(self, linked_pair_vulnerable):
        attacker, victim = linked_pair_vulnerable
        handle = connect_pair(attacker, victim)
        send_lmp(attacker, handle, bpcs_0x95())
        host = HostRecorder(victim)
        before = snapshot(victim)
        send_lmp(attacker, handle, ll.build_lmp(ll.LmpPdu(39, params=bytes(8))))
        assert host.take() == []  # nothing processed, no reply
        assert snapshot(victim) == before

    def test_patched_replies_not_accept_and_state_unchanged(self, linked_pair):
        attacker, victim = linked_pair
        handle = connect_pair(attacker, victim)
        before = snapshot(victim)
        send_lmp(attacker, handle, bpcs_0x95())
        after = snapshot(victim)
        assert after == before
        assert not victim.test_mode_active
        # The attacker's side of the air saw the BPCS Not Accept answer.
        attacker.process_host_frame(H4Frame.diag(bytes([0xF0, 0x01])))
        out = send_lmp(attacker, handle, bpcs_0x95())
        records = [
            parse_diag(f.payload)
            for f in out
            if f.h4_type is H4Type.DIAG and f.payload[0] == DiagCode.LMP_RECEIVED
        ]
        replies = [
            ll.dissect_lmp(r.payload, padded_to_17=True) for r in records
        ]
        assert any(
            isinstance(p, ll.BpcsPdu) and p.subtype == ll.BPCS_NOT_ACCEPT for p in replies
        )

    def test_other_overflow_subtypes_crash_by_default(self, linked_pair_vulnerable):
        attacker, victim = linked_pair_vulnerable
        handle = connect_pair(attacker, victim)
        host = HostRecorder(victim)
        raw = ll.build_lmp(ll.BpcsPdu(subtype=0x33), allow_nonconformant=True)
        send_lmp(attacker, handle, raw)
        (hw,) = events_of(host.take(), hci.EVT_HARDWARE_ERROR)
        assert hw.params == bytes([hci.HW_ERR_FIRMWARE_FAULT])
        assert not victim.connections

    def test_overflow_map_overridable(self):
        profile = vulnerable_profile()
        profile.bpcs_overflow_map[0x33] = HandlerAction.NOP
        attacker = Controller(MAC_A)
        victim = Controller(MAC_B, profile=profile)
        VirtualLink(attacker, victim)
        handle = connect_pair(attacker, victim)
        before = snapshot(victim)
        send_lmp(attacker, handle, ll.build_lmp(ll.BpcsPdu(subtype=0x33), allow_nonconformant=True))
        assert snapshot(victim) == before


class TestEncryptionOrder:
    """Encryption start during pending pairing crashes vulnerable
    builds (CVE-2019-6994)."""

    def _pair_pending(self, attacker, victim):
        """Returns the attacker's handle and a recorder of what the
        victim sends its host from then on."""
        handle = connect_pair(attacker, victim)
        send_lmp(attacker, handle, io_capability_req())
        (conn,) = victim.connections.values()
        assert conn.phase is Phase.SSP_PENDING
        return handle, HostRecorder(victim)

    def test_vulnerable_crashes_and_resets(self, linked_pair_vulnerable):
        attacker, victim = linked_pair_vulnerable
        old_handles = None
        handle, host = self._pair_pending(attacker, victim)
        old_handles = list(victim.connections)
        send_lmp(attacker, handle, start_encryption_req())
        frames = host.take()
        (hw,) = events_of(frames, hci.EVT_HARDWARE_ERROR)
        assert hw.params == bytes([hci.HW_ERR_FIRMWARE_FAULT])
        # Fresh state: version query succeeds, old handles are gone.
        out = victim.process_host_frame(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame())
        (complete,) = events_of(out, hci.EVT_COMMAND_COMPLETE)
        assert complete.params[3] == hci.ERR_SUCCESS
        assert victim.connections == {}
        assert victim.diag_log_enabled is False
        fresh = Controller(MAC_B, profile=vulnerable_profile())
        victim_snap = snapshot(victim)
        fresh_snap = snapshot(fresh)
        assert victim_snap == fresh_snap
        assert old_handles

    def test_patched_replies_not_accepted(self, linked_pair):
        attacker, victim = linked_pair
        handle, host = self._pair_pending(attacker, victim)
        attacker.process_host_frame(H4Frame.diag(bytes([0xF0, 0x01])))
        before = snapshot(victim)
        out = send_lmp(attacker, handle, start_encryption_req())
        assert events_of(host.take(), hci.EVT_HARDWARE_ERROR) == []
        (conn,) = victim.connections.values()
        assert conn.phase is Phase.SSP_PENDING
        records = [
            parse_diag(f.payload)
            for f in out
            if f.h4_type is H4Type.DIAG and f.payload[0] == DiagCode.LMP_RECEIVED
        ]
        replies = [ll.dissect_lmp(r.payload, padded_to_17=True) for r in records]
        assert any(
            isinstance(p, ll.LmpPdu)
            and p.name == "LMP_not_accepted"
            and p.params[0] == ll.LMP_NAME_TO_OPCODE["LMP_start_encryption_req"]
            for p in replies
        )
        # Phase never advanced to encrypted; only the pairing flag gate
        # can do that.
        assert snapshot(victim)["connections"] == before["connections"]

    def test_legal_path_reaches_encrypted(self, linked_pair):
        attacker, victim = linked_pair
        handle, _host = self._pair_pending(attacker, victim)
        send_lmp(attacker, handle, dhkey_check())
        send_lmp(attacker, handle, start_encryption_req())
        (conn,) = victim.connections.values()
        assert conn.phase is Phase.ENCRYPTED
        (conn_a,) = attacker.connections.values()
        assert conn_a.phase is Phase.ENCRYPTED


class TestCrashSafety:
    def test_peer_sees_disconnect_on_crash(self, linked_pair_vulnerable):
        attacker, victim = linked_pair_vulnerable
        handle = connect_pair(attacker, victim)
        send_lmp(attacker, handle, io_capability_req())
        out = send_lmp(attacker, handle, start_encryption_req())
        assert events_of(out, hci.EVT_DISCONNECTION_COMPLETE)
        assert attacker.connections == {}

    def test_reset_command_equivalent_to_crash_state(self):
        ctrl = Controller(MAC_A, profile=vulnerable_profile())
        ctrl.process_host_frame(H4Frame.diag(bytes([0xF0, 0x01])))
        ctrl.process_host_frame(HciCommand(hci.OPCODE_RESET).to_frame())
        fresh = Controller(MAC_A, profile=vulnerable_profile())
        assert snapshot(ctrl) == snapshot(fresh)


class TestFirewall:
    def _firewalled_victim(self):
        attacker = Controller(MAC_EVIL, name="evil")
        victim = Controller(MAC_B, name="victim")
        victim.profile.firewall_allowlist = {MAC_A}  # attacker not in it
        VirtualLink(attacker, victim)
        return attacker, victim

    def test_connection_attempt_blocked(self):
        attacker, victim = self._firewalled_victim()
        host = HostRecorder(victim)
        out = attacker.process_host_frame(
            HciCommand(
                hci.OPCODE_CREATE_CONNECTION, hci.mac_to_wire(MAC_B) + bytes(7)
            ).to_frame()
        )
        assert victim.connections == {}
        # No host events surfaced on the victim.
        assert [
            f for f in host.take() if f.h4_type is H4Type.HCI_EVENT
        ] == []

    def test_initial_request_answered_not_accepted(self):
        attacker, victim = self._firewalled_victim()
        replies = []
        attacker.add_tap(
            lambda d, f: None
        )  # taps exist; replies observed via deliver hook below
        original = attacker.deliver_air

        def spy(from_mac, kind, data):
            if kind == "lmp":
                replies.append(bytes(data))
            return original(from_mac, kind, data)

        attacker.deliver_air = spy
        inject(attacker, CLASSIC_LINK, ll.build_lmp(ll.LmpPdu(39, params=bytes(8))))
        assert len(replies) == 1
        pdu = ll.dissect_lmp(replies[0])
        assert pdu.name == "LMP_not_accepted"
        assert pdu.params[0] == 39

    def test_randomized_sequences_never_pass_paging(self):
        rng = random.Random(0xF1BE)
        attacker, victim = self._firewalled_victim()
        opcodes = [e for e in ll.LMP_OPCODES.values() if not e.escape]
        sequences = 0
        replies: list[bytes] = []
        original = attacker.deliver_air

        def spy(from_mac, kind, data):
            if kind == "lmp":
                replies.append(bytes(data))
            return original(from_mac, kind, data)

        attacker.deliver_air = spy
        not_accepted_opcode = ll.LMP_NAME_TO_OPCODE["LMP_not_accepted"]
        while sequences < 10_000:
            sequences += 1
            replies.clear()
            first_request = None
            for _ in range(rng.randint(1, 3)):
                if rng.randrange(4) == 0:
                    raw = ll.build_lmp(
                        ll.BpcsPdu(subtype=rng.randint(0, 0xFF), tid=rng.getrandbits(1)),
                        allow_nonconformant=True,
                    )
                else:
                    entry = rng.choice(opcodes)
                    raw = ll.build_lmp(
                        ll.LmpPdu(entry.value, rng.getrandbits(1), rng.randbytes(entry.param_len))
                    )
                if first_request is None and not raw[0] >> 1 == not_accepted_opcode:
                    first_request = raw
                inject(attacker, CLASSIC_LINK, raw)
            assert victim.connections == {}, "firewalled peer advanced past paging"
            assert not victim.test_mode_active
            if first_request is not None:
                assert replies, "initial request not answered"
                first_reply = ll.dissect_lmp(replies[0])
                assert first_reply.name == "LMP_not_accepted"

    def test_allowed_mac_connects_normally(self):
        a = Controller(MAC_A)
        victim = Controller(MAC_B)
        victim.profile.firewall_allowlist = {MAC_A}
        VirtualLink(a, victim)
        handle = connect_pair(a, victim)
        assert victim.connections
        assert a.connections[handle].phase is Phase.CONNECTED


class TestFirewallCapacity:
    """`firewall show` answers with one HCI event, whose 255 parameter
    octets hold 41 MACs, so the allowlist stops there."""

    def test_add_past_the_cap_is_refused_and_show_still_answers(self):
        session = LocalSession(run_scenario("controller A mac=00:11:22:33:44:01\n")[1], "A")
        macs = [f"02:00:00:00:00:{i:02x}" for i in range(hci.FIREWALL_ALLOWLIST_MAX + 1)]
        for mac in macs[:-1]:
            assert session.execute(f"firewall add {mac}") == (True, [f"firewall add {mac}"])
        assert session.execute(f"firewall add {macs[-1]}") == (
            False,
            [f"firewall add failed: status 0x{hci.ERR_MEMORY_CAPACITY_EXCEEDED:02x}"],
        )
        assert session.execute(f"firewall add {macs[0]}")[0]  # already held: no new entry
        ok, lines = session.execute("firewall show")
        assert ok and lines == [f"firewall allowlist ({hci.FIREWALL_ALLOWLIST_MAX}):"] + [
            f"  {mac}" for mac in macs[:-1]
        ]
        assert session.execute("version")[0]


class TestProfileMonotonicity:
    def test_no_pdu_storm_reaches_handler_actions_when_patched(self):
        rng = random.Random(0x9A7C)
        attacker = Controller(MAC_A)
        victim = Controller(MAC_B, profile=patched_profile())
        VirtualLink(attacker, victim)
        handle = connect_pair(attacker, victim)
        send_lmp(attacker, handle, io_capability_req())
        opcodes = [e for e in ll.LMP_OPCODES.values() if not e.escape]
        for _ in range(2_000):
            if rng.randrange(3) == 0:
                raw = ll.build_lmp(
                    ll.BpcsPdu(subtype=rng.randint(0, 0xFF)), allow_nonconformant=True
                )
            else:
                entry = rng.choice(opcodes)
                raw = ll.build_lmp(
                    ll.LmpPdu(entry.value, rng.getrandbits(1), rng.randbytes(entry.param_len))
                )
            inject(attacker, CLASSIC_LINK, raw)
            assert not victim.test_mode_active
        # Only the explicit HCI route may enter device-under-test mode.
        victim.process_host_frame(HciCommand(hci.OPCODE_ENABLE_DUT_MODE).to_frame())
        assert victim.test_mode_active
