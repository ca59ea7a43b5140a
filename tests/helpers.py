"""Shared test plumbing: seeded random frame/message/PDU generators and
independent capture-file readers.

The readers are deliberately written from the file-format definitions,
not from the writer code, so export tests check two separate routes.
"""

from __future__ import annotations

import random
import struct

from bcmdiag import hci, ll
from bcmdiag.diag import (
    DiagCode,
    HexdumpResponse,
    LcpLogRecord,
    LmpLogRecord,
    MemAccessType,
    MemoryHexdump,
    MemoryPeek,
    MemoryPoke,
    PeekResponse,
    PokeResponse,
    RunTest,
    STATS_FIELDS,
    STATS_REQUEST_CODES,
    StatsRequest,
    StatsResponse,
    TestCompleted,
    TestParams,
    ToggleLmpLogging,
)
from bcmdiag.h4 import DIAG_PAYLOAD_LEN, H4Frame, H4Type

MAC_A = hci.parse_mac("00:11:22:33:44:01")
MAC_B = hci.parse_mac("00:11:22:33:44:02")
MAC_EVIL = hci.parse_mac("66:55:44:33:22:11")


# ----- random generators -------------------------------------------------

def random_h4_frame(rng: random.Random) -> H4Frame:
    h4_type = rng.choice(list(H4Type))
    if h4_type is H4Type.HCI_COMMAND:
        params = rng.randbytes(rng.randint(0, 24))
        payload = struct.pack("<HB", rng.randint(0, 0xFFFF), len(params)) + params
    elif h4_type is H4Type.HCI_EVENT:
        params = rng.randbytes(rng.randint(0, 24))
        payload = bytes([rng.randint(0, 0xFF), len(params)]) + params
    elif h4_type is H4Type.ACL_DATA:
        data = rng.randbytes(rng.randint(0, 40))
        payload = struct.pack("<HH", rng.randint(0, 0xFFFF), len(data)) + data
    elif h4_type is H4Type.SCO_DATA:
        data = rng.randbytes(rng.randint(0, 24))
        payload = struct.pack("<HB", rng.randint(0, 0xFFFF), len(data)) + data
    else:
        payload = rng.randbytes(DIAG_PAYLOAD_LEN)
    return H4Frame(h4_type, payload)


def feed_in_pieces(decoder, stream: bytes, cuts: list[int]) -> list:
    """Feed ``stream`` to a stream decoder split at ``cuts`` (taken
    modulo the stream length, in any order); returns all it decoded."""
    points = sorted({c % (len(stream) + 1) for c in cuts})
    out = []
    for start, end in zip([0] + points, points + [len(stream)]):
        out += decoder.feed(stream[start:end])
    return out


def random_test_params(rng: random.Random) -> TestParams:
    return TestParams(
        scenario=rng.randint(0, 255),
        hopping_mode=rng.randint(0, 255),
        tx_frequency=rng.randint(0, 78),
        rx_frequency=rng.randint(0, 78),
        power_level=rng.randint(0, 255),
        packet_type=rng.randint(0, 255),
        payload_length=rng.randint(0, 1021),
    )


def random_diag_message(rng: random.Random):
    kind = rng.randrange(12)
    if kind == 0:
        return ToggleLmpLogging(bool(rng.getrandbits(1)))
    if kind == 1:
        return MemoryPeek(
            rng.choice((MemAccessType.ARM, MemAccessType.BLUERF)),
            rng.getrandbits(32),
        )
    if kind == 2:
        return MemoryPoke(
            rng.choice((MemAccessType.ARM, MemAccessType.BLUERF)),
            rng.getrandbits(32),
            rng.randint(0, 255),
        )
    if kind == 3:
        return MemoryHexdump(rng.getrandbits(32))
    if kind == 4:
        return PeekResponse(rng.randint(0, 255), rng.randint(0, 255))
    if kind == 5:
        return PokeResponse(rng.randint(0, 255))
    if kind == 6:
        return HexdumpResponse(rng.getrandbits(32), rng.randbytes(32))
    if kind == 7:
        return RunTest(random_test_params(rng))
    if kind == 8:
        return TestCompleted(
            status=rng.randint(0, 255),
            tx_count=rng.getrandbits(16),
            rx_count=rng.getrandbits(16),
        )
    if kind == 9:
        return LmpLogRecord(
            sent=bool(rng.getrandbits(1)),
            low_mac=rng.randbytes(4),
            payload=rng.randbytes(17),
        )
    if kind == 10:
        return LcpLogRecord(
            sent=bool(rng.getrandbits(1)),
            full_mac=rng.randbytes(6),
            payload=rng.randbytes(rng.randint(0, 55)),
        )
    response_kind = rng.choice(sorted(STATS_FIELDS))
    if rng.getrandbits(1):
        return StatsResponse(
            response_kind,
            tuple(rng.getrandbits(32) for _ in STATS_FIELDS[response_kind]),
        )
    return StatsRequest(rng.choice(sorted(STATS_REQUEST_CODES)))


_LMP_STANDARD = [e for e in ll.LMP_OPCODES.values() if not e.escape]
_LMP_EXT = sorted(ll.LMP_EXT_OPCODES.values(), key=lambda e: e.value)


def random_lmp_pdu(rng: random.Random):
    choice = rng.randrange(10)
    tid = rng.getrandbits(1)
    if choice < 6:
        entry = rng.choice(_LMP_STANDARD)
        return ll.LmpPdu(entry.value, tid, rng.randbytes(entry.param_len))
    if choice < 8:
        entry = rng.choice(_LMP_EXT)
        return ll.LmpPdu(
            ll.LMP_ESCAPE_4,
            tid,
            rng.randbytes(entry.param_len),
            extended_opcode=entry.value,
        )
    return ll.BpcsPdu(
        subtype=rng.randint(0, ll.BPCS_MAX_SUBTYPE),
        tid=tid,
        params=rng.randbytes(rng.randint(0, 15)),
    )


def random_lcp_pdu(rng: random.Random):
    if rng.randrange(5) == 0:
        return ll.vendor_lcp(rng.randint(1, 4), rng.randbytes(rng.randint(0, 12)))
    entry = rng.choice(sorted(ll.LCP_OPCODES.values(), key=lambda e: e.value))
    return ll.LcpPdu(entry.value, rng.randbytes(entry.param_len))


# ----- independent capture readers ---------------------------------------

def read_pcapng(path: str):
    """Minimal pcapng reader: returns (interfaces, packets) where
    interfaces is a list of link types in definition order and packets
    is a list of (interface_id, timestamp_us, data)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    interfaces: list[int] = []
    packets: list[tuple[int, int, bytes]] = []
    offset = 0
    while offset < len(blob):
        block_type, total_len = struct.unpack_from("<II", blob, offset)
        body = blob[offset + 8 : offset + total_len - 4]
        (trailer,) = struct.unpack_from("<I", blob, offset + total_len - 4)
        assert trailer == total_len, "block length trailer mismatch"
        if block_type == 0x0A0D0D0A:
            magic = struct.unpack_from("<I", body, 0)[0]
            assert magic == 0x1A2B3C4D, "byte-order magic"
        elif block_type == 0x00000001:
            (linktype,) = struct.unpack_from("<H", body, 0)
            interfaces.append(linktype)
        elif block_type == 0x00000006:
            iface, ts_high, ts_low, cap_len, _orig = struct.unpack_from("<IIIII", body, 0)
            data = body[20 : 20 + cap_len]
            packets.append((iface, (ts_high << 32) | ts_low, data))
        offset += total_len
    return interfaces, packets


def read_btsnoop(path: str):
    """Minimal BTSnoop reader: (datalink, [(flags, timestamp, data)])."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, version, datalink = struct.unpack_from(">8sII", blob, 0)
    assert magic == b"btsnoop\x00"
    assert version == 1
    records = []
    offset = 16
    while offset < len(blob):
        orig_len, incl_len, flags, drops, timestamp = struct.unpack_from(
            ">IIIIq", blob, offset
        )
        assert orig_len == incl_len
        assert drops == 0
        offset += 24
        records.append((flags, timestamp, blob[offset : offset + incl_len]))
        offset += incl_len
    return datalink, records
