"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Tolerances are exact (byte or count equality) except
where a wall-clock budget is stated.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.
"""

import random
import struct
import time
from contextlib import contextmanager

import pytest

from bcmdiag import hci, ll
from bcmdiag.capture import (
    CaptureRecord,
    LINKTYPE_DIAG,
    LINKTYPE_H4_WITH_PHDR,
    write_btsnoop,
    write_pcap,
)
from bcmdiag.diag import (
    DiagCode,
    MemAccessType,
    MemoryHexdump,
    MemoryPeek,
    MemoryPoke,
    RunTest,
    StatsRequest,
    TestParams,
    ToggleLmpLogging,
    build_diag,
    parse_diag,
)
from bcmdiag.emulator import Controller, Phase, VirtualLink
from bcmdiag.emulator.linklayer import CLASSIC_LINK, CLASSIC_SETUP, LE_SETUP
from bcmdiag.emulator.profiles import patched_profile, vulnerable_profile
from bcmdiag.h4 import (
    Direction,
    H4Frame,
    H4StreamDecoder,
    H4Type,
    HciCommand,
    HciEvent,
    decode_stream,
    encode_frame,
)

from helpers import (
    MAC_A,
    MAC_B,
    MAC_EVIL,
    HostRecorder,
    diag_answers,
    inject,
    random_diag_message,
    random_h4_frame,
    random_lcp_pdu,
    random_lmp_pdu,
    read_btsnoop,
    read_pcapng,
    snapshot,
)


@contextmanager
def criterion(number: int, title: str, budget_s: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {number:2d} FAIL  {title}")
        raise
    elapsed = time.monotonic() - start
    if budget_s is not None and elapsed > budget_s:
        print(f"[ACCEPTANCE] {number:2d} FAIL  {title} (took {elapsed:.2f}s > {budget_s}s)")
        pytest.fail(f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.2f}s")
    print(f"[ACCEPTANCE] {number:2d} PASS  {title} ({elapsed:.2f}s)")


def events_of(frames, code):
    return [
        HciEvent.from_frame(f)
        for f in frames
        if f.h4_type is H4Type.HCI_EVENT and f.payload[0] == code
    ]


def send_lmp(ctrl, handle, pdu_bytes):
    return ctrl.process_host_frame(
        HciCommand(
            hci.OPCODE_VSC_SEND_LMP_PDU, struct.pack("<H", handle) + pdu_bytes
        ).to_frame()
    )


def connect(a, b, transport="classic"):
    if transport == "classic":
        cmd = HciCommand(hci.OPCODE_CREATE_CONNECTION, hci.mac_to_wire(b.mac) + bytes(7))
    else:
        cmd = HciCommand(
            hci.OPCODE_LE_CREATE_CONNECTION, bytes(6) + hci.mac_to_wire(b.mac) + bytes(13)
        )
    frames = a.process_host_frame(cmd.to_frame())
    return max(a.connections), frames


def test_criterion_01_byte_fixtures():
    with criterion(1, "byte fixtures (version cmd, logging toggles, memory layouts)", 1.0):
        # Read-local-version over H4.
        assert encode_frame(HciCommand(0x1001).to_frame()) == bytes.fromhex("01011000")
        frames, consumed = decode_stream(bytes.fromhex("01011000"))
        assert consumed == 4 and HciCommand.from_frame(frames[0]).opcode == 0x1001

        # Logging toggles inside the fixed envelope.
        on = encode_frame(H4Frame.diag(build_diag(ToggleLmpLogging(True))))
        off = encode_frame(H4Frame.diag(build_diag(ToggleLmpLogging(False))))
        assert on[:3] == bytes.fromhex("07f001") and len(on) == 64
        assert off[:3] == bytes.fromhex("07f000") and len(off) == 64

        # Memory access layouts: little-endian addresses, access types
        # 0x02 / 0x03 / 0x04.
        assert build_diag(MemoryPeek(MemAccessType.ARM, 0x00200400)) == bytes.fromhex(
            "f10200042000"
        )
        assert build_diag(
            MemoryPoke(MemAccessType.BLUERF, 0x00000318, 0xAA)
        ) == bytes.fromhex("f20318030000aa")
        assert build_diag(MemoryHexdump(0x00200400)) == bytes.fromhex("f30400042000")

        # Hexdump response carries exactly 32 data octets.
        ctrl = Controller(MAC_A)
        (dump,) = diag_answers(ctrl, MemoryHexdump(0x00200000))
        assert len(dump.data) == 32
        wire = build_diag(dump)
        assert len(wire) == 1 + 4 + 32


def test_criterion_02_round_trip_fuzzing():
    with criterion(2, "codec round-trip fuzzing, 10^4 per codec + incremental", 30.0):
        rng = random.Random(0xACCE)
        for _ in range(10_000):
            frame = random_h4_frame(rng)
            assert decode_stream(encode_frame(frame))[0] == [frame]
        for _ in range(10_000):
            msg = random_diag_message(rng)
            assert parse_diag(build_diag(msg)) == msg
        for _ in range(10_000):
            pdu = random_lmp_pdu(rng)
            assert ll.dissect_lmp(ll.build_lmp(pdu)) == pdu
        for _ in range(10_000):
            pdu = random_lcp_pdu(rng)
            assert ll.dissect_lcp(ll.build_lcp(pdu)) == pdu

        # Incremental equals one-shot at every split point.
        frames = [random_h4_frame(rng) for _ in range(24)]
        stream = b"".join(encode_frame(f) for f in frames)
        for split in range(len(stream) + 1):
            decoder = H4StreamDecoder()
            got = decoder.feed(stream[:split]) + decoder.feed(stream[split:])
            assert got == frames


def test_criterion_03_table_completeness():
    with criterion(3, "table completeness: 27 diag codes, 6+1 BPCS, 4 vendor LCP"):
        assert len(list(DiagCode)) == 27
        from test_diag import _sample_message

        for code in DiagCode:
            msg = _sample_message(code)
            assert parse_diag(build_diag(msg)) == msg

        for subtype in range(0x06):
            pdu = ll.BpcsPdu(subtype=subtype)
            assert ll.dissect_lmp(ll.build_lmp(pdu)) == pdu
        attack = ll.BpcsPdu(subtype=0x95)
        assert ll.dissect_lmp(ll.build_lmp(attack, allow_nonconformant=True)) == attack

        for subtype in (0x01, 0x02, 0x03, 0x04):
            pdu = ll.vendor_lcp(subtype, b"\x00")
            assert ll.dissect_lcp(ll.build_lcp(pdu)) == pdu


def test_criterion_04_end_to_end_logging():
    with criterion(4, "end-to-end logging: setup sequence, 17-octet RX, MAC widths"):
        a = Controller(MAC_A, name="A")
        b = Controller(MAC_B, name="B")
        link = VirtualLink(a, b)

        # Sniff-stream view per side, plus an independent harness tally
        # of PDUs crossing the air.
        streams = {"A": [], "B": []}
        a.add_tap(lambda d, f: streams["A"].append((d, f)))
        b.add_tap(lambda d, f: streams["B"].append((d, f)))
        tally = {"lmp": 0, "lcp": 0}
        original_transmit = link.transmit

        def counting_transmit(src, kind, data):
            if kind in tally:
                tally[kind] += 1
            return original_transmit(src, kind, data)

        link.transmit = counting_transmit

        a.process_host_frame(H4Frame.diag(build_diag(ToggleLmpLogging(True))))
        b.process_host_frame(H4Frame.diag(build_diag(ToggleLmpLogging(True))))
        connect(a, b)
        connect(a, b, transport="le")

        def records(side, codes):
            return [
                parse_diag(f.payload)
                for d, f in streams[side]
                if d is Direction.CONTROLLER_TO_HOST
                and f.h4_type is H4Type.DIAG
                and f.payload[0] in codes
            ]

        lmp_codes = (DiagCode.LMP_SENT, DiagCode.LMP_RECEIVED)
        lcp_codes = (DiagCode.LCP_SENT, DiagCode.LCP_RECEIVED)
        for side, peer_mac in (("A", MAC_B), ("B", MAC_A)):
            lmp_records = records(side, lmp_codes)
            # The full scripted setup sequence appears on this side's
            # sniff stream, in order.
            names = [
                ll.dissect_lmp(r.payload, padded_to_17=True).name for r in lmp_records
            ]
            expected = [step.pdu_name for step in CLASSIC_SETUP]
            assert names[: len(expected)] == expected, side
            # Every RX record is exactly 17 payload octets pre-trim and
            # carries the 4-octet low MAC of the peer.
            for record in lmp_records:
                assert len(record.payload) == 17
                assert len(record.low_mac) == 4
                assert record.low_mac == hci.low_mac(peer_mac)
            lcp_records = records(side, lcp_codes)
            le_names = [ll.dissect_lcp(r.payload).name for r in lcp_records]
            assert le_names[: len(LE_SETUP)] == [s.pdu_name for s in LE_SETUP], side
            for record in lcp_records:
                assert record.full_mac == peer_mac and len(record.full_mac) == 6
            # Harness tally equals the log record count exactly: each
            # side logs every PDU that crossed its radio exactly once.
            assert len(lmp_records) == tally["lmp"], side
            assert len(lcp_records) == tally["lcp"], side


def test_criterion_05_bpcs_overflow_regression():
    with criterion(5, "BPCS 0x95 overflow: DUT mode on vulnerable, NotAccept on patched"):
        attack = ll.build_lmp(ll.BpcsPdu(subtype=0x95), allow_nonconformant=True)

        attacker = Controller(MAC_A)
        victim = Controller(MAC_B, profile=vulnerable_profile())
        VirtualLink(attacker, victim)
        handle, _ = connect(attacker, victim)
        host = HostRecorder(victim)
        send_lmp(attacker, handle, attack)
        assert victim.test_mode_active
        (evt,) = events_of(host.take(), hci.EVT_VENDOR)
        assert evt.params == hci.DUT_EVENT_PARAMS

        attacker2 = Controller(MAC_A)
        victim2 = Controller(MAC_B, profile=patched_profile())
        VirtualLink(attacker2, victim2)
        handle2, _ = connect(attacker2, victim2)
        before = snapshot(victim2)
        out = send_lmp(attacker2, handle2, attack)
        assert snapshot(victim2) == before
        assert not victim2.test_mode_active
        # Attacker observed BPCS Not Accept (visible via its own log).
        attacker2.process_host_frame(H4Frame.diag(build_diag(ToggleLmpLogging(True))))
        out = send_lmp(attacker2, handle2, attack)
        replies = [
            ll.dissect_lmp(parse_diag(f.payload).payload, padded_to_17=True)
            for f in out
            if f.h4_type is H4Type.DIAG and f.payload[0] == DiagCode.LMP_RECEIVED
        ]
        assert any(
            isinstance(p, ll.BpcsPdu) and p.subtype == ll.BPCS_NOT_ACCEPT
            for p in replies
        )


def test_criterion_06_encryption_order_regression():
    with criterion(6, "early start-encryption: crash+reset vulnerable, refusal patched"):
        io_cap = ll.build_lmp(
            ll.LmpPdu(
                ll.LMP_ESCAPE_4,
                params=bytes.fromhex("010003"),
                extended_opcode=ll.LMP_EXT_NAME_TO_OPCODE["LMP_IO_capability_req"],
            )
        )
        start_enc = ll.build_lmp(
            ll.LmpPdu(ll.LMP_NAME_TO_OPCODE["LMP_start_encryption_req"], params=bytes(16))
        )

        attacker = Controller(MAC_A)
        victim = Controller(MAC_B, profile=vulnerable_profile())
        VirtualLink(attacker, victim)
        handle, _ = connect(attacker, victim)
        send_lmp(attacker, handle, io_cap)
        (conn,) = victim.connections.values()
        assert conn.phase is Phase.SSP_PENDING
        host = HostRecorder(victim)
        send_lmp(attacker, handle, start_enc)
        (hw,) = events_of(host.take(), hci.EVT_HARDWARE_ERROR)
        assert hw.params == bytes([hci.HW_ERR_FIRMWARE_FAULT])
        # Reset: version works again, old handles invalid.
        out = victim.process_host_frame(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame())
        assert events_of(out, hci.EVT_COMMAND_COMPLETE)[0].params[3] == 0
        assert victim.connections == {}
        out = send_lmp(victim, handle, io_cap)  # old handle now unknown
        assert events_of(out, hci.EVT_COMMAND_COMPLETE)[0].params[3] == hci.ERR_UNKNOWN_CONNECTION

        attacker2 = Controller(MAC_A)
        victim2 = Controller(MAC_B, profile=patched_profile())
        VirtualLink(attacker2, victim2)
        handle2, _ = connect(attacker2, victim2)
        host2 = HostRecorder(victim2)
        send_lmp(attacker2, handle2, io_cap)
        attacker2.process_host_frame(H4Frame.diag(build_diag(ToggleLmpLogging(True))))
        out = send_lmp(attacker2, handle2, start_enc)
        assert events_of(host2.take(), hci.EVT_HARDWARE_ERROR) == []
        replies = [
            ll.dissect_lmp(parse_diag(f.payload).payload, padded_to_17=True)
            for f in out
            if f.h4_type is H4Type.DIAG and f.payload[0] == DiagCode.LMP_RECEIVED
        ]
        assert any(
            isinstance(p, ll.LmpPdu)
            and p.name == "LMP_not_accepted"
            and p.params[0] == ll.LMP_NAME_TO_OPCODE["LMP_start_encryption_req"]
            for p in replies
        )


def test_criterion_07_firewall_property():
    with criterion(7, "firewall: 10^4 hostile sequences never pass paging", 60.0):
        rng = random.Random(0xF1AE)
        attacker = Controller(MAC_EVIL)
        victim = Controller(MAC_B)
        victim.profile.firewall_allowlist = {MAC_A}
        VirtualLink(attacker, victim)

        replies: list[bytes] = []
        original = attacker.deliver_air

        def spy(from_mac, kind, data):
            if kind == "lmp":
                replies.append(bytes(data))
            return original(from_mac, kind, data)

        attacker.deliver_air = spy
        opcodes = [e for e in ll.LMP_OPCODES.values() if not e.escape]
        not_accepted = ll.LMP_NAME_TO_OPCODE["LMP_not_accepted"]
        for _ in range(10_000):
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
                if first_request is None and raw[0] >> 1 != not_accepted:
                    first_request = raw
                inject(attacker, CLASSIC_LINK, raw)
            assert victim.connections == {}
            assert not victim.test_mode_active
            if first_request is not None:
                assert replies and ll.dissect_lmp(replies[0]).name == "LMP_not_accepted"


def test_criterion_08_statistics_consistency():
    with criterion(8, "statistics: tx/rx equal the scripted exchange, reset zeroes"):
        a = Controller(MAC_A)
        b = Controller(MAC_B)
        VirtualLink(a, b)
        handle, _ = connect(a, b)
        sent = 0
        for i in range(37):
            payload = bytes([i & 0xFF]) * 8
            a.process_host_frame(
                H4Frame(
                    H4Type.ACL_DATA,
                    struct.pack("<HH", handle | 0x2000, len(payload)) + payload,
                )
            )
            sent += 1
        (stats_a,) = diag_answers(a, StatsRequest(DiagCode.GET_BR_ACL_STATS))
        assert stats_a.as_dict()["tx_packets"] == sent
        (stats_b,) = diag_answers(b, StatsRequest(DiagCode.GET_BR_ACL_STATS))
        assert stats_b.as_dict()["rx_packets"] == sent
        assert diag_answers(a, StatsRequest(DiagCode.RESET_BR_ACL_STATS)) == []
        (zeroed,) = diag_answers(a, StatsRequest(DiagCode.GET_BR_ACL_STATS))
        assert zeroed.values == (0, 0, 0, 0, 0)


def test_criterion_09_test_mode():
    with criterion(9, "test mode: linked loopback 100/100, unlinked rx=0"):
        a = Controller(MAC_A, test_packet_count=100)
        b = Controller(MAC_B)
        VirtualLink(a, b)
        out = a.process_host_frame(H4Frame.diag(build_diag(RunTest(TestParams()))))
        (msg,) = [parse_diag(f.payload) for f in out if f.h4_type is H4Type.DIAG]
        assert (msg.status, msg.tx_count, msg.rx_count, msg.reserved) == (0, 100, 100, 0)

        lone = Controller(MAC_EVIL, test_packet_count=100)
        out = lone.process_host_frame(H4Frame.diag(build_diag(RunTest(TestParams()))))
        (msg,) = [parse_diag(f.payload) for f in out if f.h4_type is H4Type.DIAG]
        assert (msg.tx_count, msg.rx_count) == (100, 0)


def test_criterion_10_capture_fidelity(tmp_path):
    with criterion(10, "capture fidelity: pcap byte-exact re-parse, btsnoop skip count"):
        a = Controller(MAC_A)
        b = Controller(MAC_B)
        VirtualLink(a, b)
        records = []
        a.add_tap(lambda d, f: records.append(CaptureRecord.at_tick(a.clock, d, f)))
        a.process_host_frame(H4Frame.diag(build_diag(ToggleLmpLogging(True))))
        connect(a, b)
        a.process_host_frame(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame())

        pcap_path = str(tmp_path / "fidelity.pcapng")
        write_pcap(records, pcap_path)
        interfaces, packets = read_pcapng(pcap_path)
        assert len(packets) == len(records)
        assert sorted(interfaces) == sorted([LINKTYPE_H4_WITH_PHDR, LINKTYPE_DIAG])
        hci_iface = interfaces.index(LINKTYPE_H4_WITH_PHDR)
        diag_iface = interfaces.index(LINKTYPE_DIAG)
        for record, (iface, _ts, data) in zip(records, packets):
            if record.frame.h4_type in (H4Type.DIAG, H4Type.MSG_QUEUE_PUT, H4Type.WICED):
                assert iface == diag_iface
                assert data[1:] == encode_frame(record.frame)
            else:
                assert iface == hci_iface
                assert data[4:] == encode_frame(record.frame)

        snoop_path = str(tmp_path / "fidelity.btsnoop")
        skipped = write_btsnoop(records, snoop_path)
        non_hci = sum(
            1
            for r in records
            if r.frame.h4_type in (H4Type.DIAG, H4Type.MSG_QUEUE_PUT, H4Type.WICED)
        )
        assert skipped == non_hci
        _datalink, entries = read_btsnoop(snoop_path)
        assert len(entries) == len(records) - non_hci
        kept = [r for r in records if r.frame.h4_type not in (H4Type.DIAG, H4Type.MSG_QUEUE_PUT, H4Type.WICED)]
        for record, (_flags, _ts, data) in zip(kept, entries):
            assert data == encode_frame(record.frame)
