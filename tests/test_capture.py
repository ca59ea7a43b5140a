"""Capture export and rendering: pcapng and BTSnoop files checked with
independent readers, plus live-line rendering totality."""

import gc
import random
import struct
import time

import pytest
from hypothesis import given, settings, strategies as st

from bcmdiag import hci
from bcmdiag import diag
from bcmdiag.capture import (
    LIVE_CACHE_MAX,
    CaptureRecord,
    LINKTYPE_DIAG,
    LINKTYPE_H4_WITH_PHDR,
    SniffStreamDecoder,
    TICK_US,
    encode_sniff_record,
    _DIAG_RENDERERS,
    _live_text,
    render_live,
    write_btsnoop,
    write_pcap,
)
from bcmdiag.diag import DiagCode, LmpLogRecord, MemAccessType, ToggleLmpLogging, build_diag
from bcmdiag.errors import UnknownDirection, UnknownH4Type
from bcmdiag.h4 import Direction, H4Frame, H4Type, HciCommand, encode_frame

from conftest import connect_pair
from helpers import feed_in_pieces, read_btsnoop, read_pcapng, random_h4_frame

H2C = Direction.HOST_TO_CONTROLLER
C2H = Direction.CONTROLLER_TO_HOST


def _mixed_records(a, b):
    """A scripted connection with logging on, captured from the
    initiator's taps."""
    records = []
    a.add_tap(
        lambda d, f, t: records.append(CaptureRecord.at_tick(t, d, f))
    )
    a.process_host_frame(H4Frame.diag(build_diag(ToggleLmpLogging(True))))
    connect_pair(a, b)
    a.process_host_frame(HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame())
    return records


class TestPcapExport:
    def test_empty_capture_is_valid(self, tmp_path):
        path = str(tmp_path / "empty.pcapng")
        assert write_pcap([], path) == 0
        interfaces, packets = read_pcapng(path)
        assert interfaces == []
        assert packets == []

    def test_single_hci_record_reparses_identically(self, tmp_path):
        frame = HciCommand(0x1001).to_frame()
        record = CaptureRecord.at_tick(3, H2C, frame)
        path = str(tmp_path / "one.pcapng")
        write_pcap([record], path)
        interfaces, packets = read_pcapng(path)
        assert interfaces == [LINKTYPE_H4_WITH_PHDR]
        ((iface, timestamp, data),) = packets
        assert iface == 0
        assert timestamp == 3 * TICK_US
        assert data[:4] == b"\x00\x00\x00\x00"  # sent direction word
        assert data[4:] == encode_frame(frame)

    def test_mixed_capture_two_link_types(self, tmp_path, linked_pair):
        a, b = linked_pair
        records = _mixed_records(a, b)
        assert {r.frame.h4_type for r in records} >= {H4Type.DIAG, H4Type.HCI_EVENT}
        path = str(tmp_path / "mixed.pcapng")
        write_pcap(records, path)
        interfaces, packets = read_pcapng(path)
        assert sorted(interfaces) == sorted([LINKTYPE_H4_WITH_PHDR, LINKTYPE_DIAG])
        assert len(packets) == len(records)

    def test_payload_octets_bit_exact(self, tmp_path, linked_pair):
        a, b = linked_pair
        records = _mixed_records(a, b)
        path = str(tmp_path / "exact.pcapng")
        write_pcap(records, path)
        interfaces, packets = read_pcapng(path)
        hci_iface = interfaces.index(LINKTYPE_H4_WITH_PHDR)
        for record, (iface, timestamp, data) in zip(records, packets):
            assert timestamp == record.timestamp_us
            if iface == hci_iface:
                assert data[4:] == encode_frame(record.frame)
                direction = int.from_bytes(data[:4], "big")
            else:
                assert data[1:] == encode_frame(record.frame)
                assert len(data) == 1 + 64
                direction = data[0]
            assert direction == int(record.direction)

    def test_diag_frames_carry_direction_prefix(self, tmp_path):
        frame = H4Frame.diag(build_diag(ToggleLmpLogging(True)))
        records = [
            CaptureRecord.at_tick(0, H2C, frame),
            CaptureRecord.at_tick(1, C2H, frame),
        ]
        path = str(tmp_path / "diag.pcapng")
        write_pcap(records, path)
        interfaces, packets = read_pcapng(path)
        assert interfaces == [LINKTYPE_DIAG]
        assert packets[0][2][0] == 0
        assert packets[1][2][0] == 1


class TestBtsnoopExport:
    def test_hci_only_capture_skips_nothing(self, tmp_path):
        rng = random.Random(0xCAFE)
        records = []
        tick = 0
        while len(records) < 40:
            frame = random_h4_frame(rng)
            if frame.h4_type in (H4Type.DIAG, H4Type.MSG_QUEUE_PUT, H4Type.WICED):
                continue
            direction = H2C if frame.h4_type is H4Type.HCI_COMMAND else C2H
            records.append(CaptureRecord.at_tick(tick, direction, frame))
            tick += 1
        path = str(tmp_path / "hci.btsnoop")
        assert write_btsnoop(records, path) == 0
        datalink, entries = read_btsnoop(path)
        assert datalink == 1002
        assert len(entries) == len(records)

    def test_diag_frames_skipped_and_counted(self, tmp_path):
        diag_frame = H4Frame.diag(build_diag(ToggleLmpLogging(True)))
        records = [
            CaptureRecord.at_tick(0, H2C, HciCommand(0x1001).to_frame()),
            CaptureRecord.at_tick(1, H2C, diag_frame),
            CaptureRecord.at_tick(2, H2C, diag_frame),
            CaptureRecord.at_tick(3, H2C, diag_frame),
        ]
        path = str(tmp_path / "skip.btsnoop")
        assert write_btsnoop(records, path) == 3
        _datalink, entries = read_btsnoop(path)
        assert len(entries) == 1

    def test_payloads_identical_through_reader(self, tmp_path, linked_pair):
        a, b = linked_pair
        records = _mixed_records(a, b)
        path = str(tmp_path / "rt.btsnoop")
        skipped = write_btsnoop(records, path)
        hci_records = [r for r in records if r.frame.h4_type not in (H4Type.DIAG,)]
        assert skipped == len(records) - len(hci_records)
        _datalink, entries = read_btsnoop(path)
        assert len(entries) == len(hci_records)
        for record, (flags, timestamp, data) in zip(hci_records, entries):
            assert data == encode_frame(record.frame)
            assert flags & 0x01 == int(record.direction)


class TestSniffStream:
    def test_round_trip_and_chunking(self):
        rng = random.Random(0x51F0)
        items = [
            (rng.choice((H2C, C2H)), random_h4_frame(rng)) for _ in range(60)
        ]
        stream = b"".join(encode_sniff_record(d, f) for d, f in items)
        for chunk in (1, 3, 7, len(stream)):
            decoder = SniffStreamDecoder()
            got = []
            for i in range(0, len(stream), chunk):
                got += decoder.feed(stream[i : i + chunk])
            assert got == items

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 12),
        cuts=st.lists(st.integers(0, 2**16), max_size=16),
    )
    def test_any_split_yields_the_records_of_one_feed(self, seed, count, cuts):
        rng = random.Random(seed)
        items = [(rng.choice((H2C, C2H)), random_h4_frame(rng)) for _ in range(count)]
        stream = b"".join(encode_sniff_record(d, f) for d, f in items)
        assert SniffStreamDecoder().feed(stream) == items
        decoder = SniffStreamDecoder()
        assert feed_in_pieces(decoder, stream, cuts) == items
        assert decoder.pending == b""

    def test_unknown_type_reports_stream_offset(self):
        record = encode_sniff_record(H2C, HciCommand(0x1001).to_frame())  # 5 octets
        decoder = SniffStreamDecoder()
        assert len(decoder.feed(record + record[:3])) == 1
        with pytest.raises(UnknownH4Type) as excinfo:
            decoder.feed(record[3:] + b"\x01\x55")
        assert excinfo.value.offset == 11
        assert excinfo.value.byte == 0x55

    def test_bad_direction_fails_before_its_frame_arrives(self):
        decoder = SniffStreamDecoder()
        assert len(decoder.feed(encode_sniff_record(H2C, HciCommand(0x1001).to_frame()))) == 1
        with pytest.raises(UnknownDirection):
            decoder.feed(b"\x02")

    def test_one_feed_costs_time_linear_in_its_records(self):
        """Four times the records may cost at most twice the linear
        share (8x); a decoder that copies its buffer per record takes
        about 16x.  The collector is kept out of the timing: the records
        an 80k feed keeps alive trigger several full collections, whose
        cost is the collector's, not the decoder's."""
        rng = random.Random(0x51F1)
        records = [
            encode_sniff_record(rng.choice((H2C, C2H)), random_h4_frame(rng))
            for _ in range(1000)
        ]

        def cost(n: int) -> float:
            stream = b"".join(records[i % 1000] for i in range(n))
            best = float("inf")
            for _ in range(3):
                decoder = SniffStreamDecoder()
                gc.collect()
                gc.disable()
                try:
                    start = time.process_time()
                    decoded = decoder.feed(stream)
                    best = min(best, time.process_time() - start)
                finally:
                    gc.enable()
                assert len(decoded) == n
                del decoded
            return best

        assert cost(80_000) < 8 * cost(20_000)


class TestRenderLive:
    def test_toggle_line(self):
        record = CaptureRecord.at_tick(
            0, H2C, H4Frame.diag(build_diag(ToggleLmpLogging(True)))
        )
        line = render_live(record)
        assert "DIAG LMP logging ON" in line

    def test_lmp_record_line_has_mac_and_name(self):
        payload = (bytes([0x4E]) + bytes(8)).ljust(17, b"\x00")
        msg = LmpLogRecord(sent=False, low_mac=bytes.fromhex("22334402"), payload=payload)
        record = CaptureRecord.at_tick(7, C2H, H4Frame.diag(build_diag(msg)))
        line = render_live(record)
        assert "22334402" in line
        assert "LMP_features_req" in line
        assert "RX" in line

    def test_unknown_diag_code_falls_back_to_hex(self):
        record = CaptureRecord.at_tick(0, C2H, H4Frame.diag(b"\xee\x01\x02"))
        line = render_live(record)
        assert "DIAG raw" in line
        assert "ee0102" in line

    def test_rendering_is_total_over_random_frames(self):
        rng = random.Random(0x11FE)
        for tick in range(2_000):
            frame = random_h4_frame(rng)
            line = render_live(CaptureRecord.at_tick(tick, rng.choice((H2C, C2H)), frame))
            assert isinstance(line, str) and line

    def test_direction_violations_flagged(self):
        # A command seen controller-to-host, and a host-to-controller
        # frame carrying a controller-to-host diag code.
        cmd = CaptureRecord.at_tick(0, C2H, HciCommand(0x1001).to_frame())
        assert "[direction violation]" in render_live(cmd)
        record = CaptureRecord.at_tick(
            0,
            H2C,
            H4Frame.diag(
                build_diag(LmpLogRecord(sent=True, low_mac=bytes(4), payload=bytes(17)))
            ),
        )
        assert "[direction violation]" in render_live(record)
        legal = CaptureRecord.at_tick(0, H2C, HciCommand(0x1001).to_frame())
        assert "[direction violation]" not in render_live(legal)

    def test_timestamps_non_decreasing_from_ticks(self):
        records = [
            CaptureRecord.at_tick(t, H2C, HciCommand(0x1001).to_frame())
            for t in range(5)
        ]
        stamps = [r.timestamp_us for r in records]
        assert stamps == sorted(stamps)
        assert stamps[1] - stamps[0] == TICK_US


def _diag_frame(msg) -> H4Frame:
    return H4Frame.diag(build_diag(msg))


_MAC = bytes.fromhex("001122334402")
# One message of each rendered class; LMP opcode 22 and LCP 0xfe are unassigned.
_LIVE_MESSAGES = [
    ToggleLmpLogging(True),
    LmpLogRecord(sent=False, low_mac=_MAC[2:], payload=bytes([0x4E]).ljust(17, b"\0")),
    LmpLogRecord(sent=True, low_mac=_MAC[2:], payload=bytes([22 << 1]).ljust(17, b"\0")),
    diag.LcpLogRecord(sent=True, full_mac=_MAC, payload=bytes([0x08]) + bytes(8)),
    diag.LcpLogRecord(sent=False, full_mac=_MAC, payload=bytes([0xFE, 1, 2])),
    diag.MemoryPeek(MemAccessType.ARM, 0x200010),
    diag.MemoryPoke(MemAccessType.BLUERF, 0x10, 0x5A),
    diag.MemoryHexdump(0x200020),
    diag.PeekResponse(0, 0x42),
    diag.PokeResponse(1),
    diag.HexdumpResponse(0x200020, bytes(range(32))),
    diag.RunTest(diag.TestParams()),
    diag.TestCompleted(status=0, tx_count=100, rx_count=99),
    diag.StatsResponse(DiagCode.CPU_LOAD_RESPONSE, (5,)),
    diag.StatsRequest(DiagCode.GET_BR_ACL_STATS),
]


def _corpus() -> list[tuple[Direction, H4Frame]]:
    """Every H4 type and every diag renderer, an undecodable diag frame,
    unknown LMP and LCP opcodes, and both kinds of direction violation."""
    frames = [
        (H2C, HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame()),
        (H2C, HciCommand(0xFCFF, b"\x01\x02").to_frame()),
        (C2H, HciCommand(hci.OPCODE_RESET).to_frame()),  # against its direction
        (C2H, H4Frame(H4Type.HCI_EVENT, bytes([hci.EVT_COMMAND_STATUS, 4, 0, 1, 0x05, 0x04]))),
        (C2H, H4Frame(H4Type.ACL_DATA, bytes.fromhex("0b200300") + b"abc")),
        (H2C, H4Frame(H4Type.SCO_DATA, bytes.fromhex("0c0002") + b"xy")),
        (C2H, H4Frame.diag(b"\xee\x01\x02")),  # no such diag code
        (C2H, H4Frame.diag(b"\x01", H4Type.MSG_QUEUE_PUT)),
        (H2C, H4Frame.diag(b"\x02\x03", H4Type.WICED)),
    ]
    for msg in _LIVE_MESSAGES:
        frames.append((diag.code_direction(msg.code), _diag_frame(msg)))
    frames.append((H2C, _diag_frame(_LIVE_MESSAGES[1])))  # a log record against its direction
    return frames


def _outcome(render, record: CaptureRecord):
    """The line ``render`` gives, or the class of what it raised."""
    try:
        return render(record)
    except Exception as exc:
        return exc.__class__


def _uncached(record: CaptureRecord) -> str:
    return f"{record.timestamp_us:>10} us {_live_text.__wrapped__(record.direction, *record.frame)}"


class TestLiveLineCache:
    def test_cached_lines_equal_uncached_ones(self):
        corpus = _corpus()
        assert {msg.__class__ for msg in _LIVE_MESSAGES} == set(_DIAG_RENDERERS)
        assert {f.h4_type for _d, f in corpus} == set(H4Type)
        _live_text.cache_clear()
        for tick, repeat in ((3, False), (70_000, True)):  # a miss each, then a hit each
            lines = [render_live(CaptureRecord.at_tick(tick + i, d, f))
                     for i, (d, f) in enumerate(corpus)]
            assert lines == [_uncached(CaptureRecord.at_tick(tick + i, d, f))
                             for i, (d, f) in enumerate(corpus)]
            assert _live_text.cache_info().hits == (len(corpus) if repeat else 0)
        joined = "\n".join(lines)
        for marker in ("LMP_unknown(0x16)", "LCP_unknown(0xfe)", "DIAG raw ee0102"):
            assert marker in joined
        assert joined.count("[direction violation]") == 2

    def test_plain_int_twins_do_not_share_an_entry(self):
        _live_text.cache_clear()
        frame = HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame()
        int_type = H4Frame(int(frame.h4_type), frame.payload)
        assert int_type == frame and hash(int_type) == hash(frame)
        records = [
            CaptureRecord.at_tick(1, H2C, frame),
            CaptureRecord.at_tick(1, H2C, int_type),
            CaptureRecord.at_tick(1, int(H2C), frame),
            CaptureRecord.at_tick(1, int(H2C), int_type),
        ]
        for record in records + records:  # the second pass looks each up
            assert _outcome(render_live, record) == _outcome(_uncached, record)
        assert isinstance(render_live(records[0]), str)

    def test_cache_is_bounded(self):
        _live_text.cache_clear()
        for handle in range(LIVE_CACHE_MAX + 50):
            frame = H4Frame(H4Type.ACL_DATA, struct.pack("<HH", handle, 0))
            render_live(CaptureRecord.at_tick(handle, C2H, frame))
        info = _live_text.cache_info()
        assert info.maxsize == LIVE_CACHE_MAX == 128
        assert info.currsize == LIVE_CACHE_MAX and info.misses == LIVE_CACHE_MAX + 50

