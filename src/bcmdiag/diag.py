"""Codec for the Broadcom diagnostic channel (H4 type 0x07).

Every message starts with a one-octet command code; multi-octet
addresses and counters are little endian ("reverse byte order" in the
vendor's own layouts).  Messages ride inside the fixed H4 envelope, so
anything past a message's defined body is zero padding and is stripped
here.  Link-layer log records for BLE have no intrinsic length, so
their wire form carries a one-octet payload length -- a convention of
this toolkit, required to keep the codec bijective inside a padded
envelope.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

from .errors import InvariantViolation, MalformedBody, UnknownDiagCode
from .h4 import Direction


class DiagCode(IntEnum):
    LMP_SENT = 0x00
    LMP_RECEIVED = 0x01
    PEEK_RESPONSE = 0x03
    HEXDUMP_RESPONSE = 0x04
    TEST_COMPLETED = 0x0A
    POKE_RESPONSE = 0x11
    CPU_LOAD_RESPONSE = 0x15
    BR_ACL_STATS = 0x16
    EDR_ACL_STATS = 0x17
    AUX_RESPONSE = 0x18
    SCO_STATS = 0x1A
    ESCO_STATS = 0x1B
    CONNECTION_RESPONSE = 0x1F
    LCP_SENT = 0x80
    LCP_RECEIVED = 0x81
    RESET_BR_ACL_STATS = 0xB9
    GET_BR_ACL_STATS = 0xC1
    GET_EDR_ACL_STATS = 0xC2
    GET_AUX_STATS = 0xC3
    GET_SCO_STATS = 0xC5
    GET_ESCO_STATS = 0xC6
    GET_CONNECTION_STATS = 0xCF
    TOGGLE_LMP_LOGGING = 0xF0
    MEMORY_PEEK = 0xF1
    MEMORY_POKE = 0xF2
    MEMORY_HEXDUMP = 0xF3
    RUN_TEST = 0xF6


def code_direction(code: DiagCode) -> Direction:
    """Legal flow direction of a code: responses and log records go to
    the host, requests (0xb9 and up) go to the controller."""
    if code < 0xB9:
        return Direction.CONTROLLER_TO_HOST
    return Direction.HOST_TO_CONTROLLER


class MemAccessType(IntEnum):
    ARM = 0x02
    BLUERF = 0x03
    HEXDUMP_ARM = 0x04


HEXDUMP_DATA_LEN = 32
LMP_RECORD_PAYLOAD_LEN = 17
LMP_RECORD_MAC_LEN = 4
LCP_RECORD_MAC_LEN = 6

# Counter schemas for the statistics responses, one ordered tuple of
# 32-bit little-endian fields per response code.  The chip reports these
# blobs without any self-description; keeping the field names in one
# table lets them be corrected without touching the parsers.
STATS_FIELDS: dict[DiagCode, tuple[str, ...]] = {
    DiagCode.BR_ACL_STATS: (
        "tx_packets",
        "rx_packets",
        "rx_crc_errors",
        "rx_hec_errors",
        "retransmissions",
    ),
    DiagCode.EDR_ACL_STATS: (
        "tx_packets",
        "rx_packets",
        "rx_crc_errors",
        "rx_hec_errors",
        "retransmissions",
    ),
    DiagCode.SCO_STATS: ("tx_packets", "rx_packets", "rx_errors"),
    DiagCode.ESCO_STATS: ("tx_packets", "rx_packets", "rx_errors"),
    DiagCode.CPU_LOAD_RESPONSE: ("load_percent",),
    DiagCode.AUX_RESPONSE: ("raw_word",),
    DiagCode.CONNECTION_RESPONSE: ("handle", "low_mac", "role", "state"),
}

STATS_REQUEST_CODES = frozenset(
    {
        DiagCode.RESET_BR_ACL_STATS,
        DiagCode.GET_BR_ACL_STATS,
        DiagCode.GET_EDR_ACL_STATS,
        DiagCode.GET_AUX_STATS,
        DiagCode.GET_SCO_STATS,
        DiagCode.GET_ESCO_STATS,
        DiagCode.GET_CONNECTION_STATS,
    }
)

# Which statistics response answers which getter.
RESPONSE_FOR_REQUEST: dict[DiagCode, DiagCode] = {
    DiagCode.GET_BR_ACL_STATS: DiagCode.BR_ACL_STATS,
    DiagCode.GET_EDR_ACL_STATS: DiagCode.EDR_ACL_STATS,
    DiagCode.GET_AUX_STATS: DiagCode.AUX_RESPONSE,
    DiagCode.GET_SCO_STATS: DiagCode.SCO_STATS,
    DiagCode.GET_ESCO_STATS: DiagCode.ESCO_STATS,
    DiagCode.GET_CONNECTION_STATS: DiagCode.CONNECTION_RESPONSE,
}


@dataclass(frozen=True)
class TestParams:
    """Radio test configuration, mirroring the over-the-air test control
    parameter set."""

    __test__ = False  # keep pytest away from the Test* name

    scenario: int = 1
    hopping_mode: int = 0
    tx_frequency: int = 0
    rx_frequency: int = 0
    power_level: int = 0
    packet_type: int = 0
    payload_length: int = 0

    MAX_CHANNEL = 78
    MAX_PAYLOAD = 1021

    @property
    def is_valid(self) -> bool:
        """Semantic validity (channel indexes 0..78, payload <= 1021).

        Out-of-range values still encode and decode -- a controller must
        be able to receive a bad request in order to reject it with a
        nonzero test status.
        """
        return (
            0 <= self.tx_frequency <= self.MAX_CHANNEL
            and 0 <= self.rx_frequency <= self.MAX_CHANNEL
            and 0 <= self.payload_length <= self.MAX_PAYLOAD
        )

    def pack(self) -> bytes:
        return struct.pack(
            "<BBBBBBH",
            self.scenario,
            self.hopping_mode,
            self.tx_frequency,
            self.rx_frequency,
            self.power_level,
            self.packet_type,
            self.payload_length,
        )

    @classmethod
    def unpack(cls, body: bytes) -> "TestParams":
        return cls(*struct.unpack("<BBBBBBH", body))


@dataclass(frozen=True)
class ToggleLmpLogging:
    enable: bool

    code = DiagCode.TOGGLE_LMP_LOGGING

    def body(self) -> bytes:
        return b"\x01" if self.enable else b"\x00"


@dataclass(frozen=True)
class MemoryPeek:
    access: MemAccessType
    address: int

    code = DiagCode.MEMORY_PEEK

    def body(self) -> bytes:
        if self.access not in (MemAccessType.ARM, MemAccessType.BLUERF):
            raise InvariantViolation(f"peek access type {self.access!r} not allowed")
        return struct.pack("<BI", self.access, self.address)


@dataclass(frozen=True)
class MemoryPoke:
    access: MemAccessType
    address: int
    value: int

    code = DiagCode.MEMORY_POKE

    def body(self) -> bytes:
        if self.access not in (MemAccessType.ARM, MemAccessType.BLUERF):
            raise InvariantViolation(f"poke access type {self.access!r} not allowed")
        return struct.pack("<BIB", self.access, self.address, self.value)


@dataclass(frozen=True)
class MemoryHexdump:
    address: int

    code = DiagCode.MEMORY_HEXDUMP

    def body(self) -> bytes:
        # Hexdump always carries the ARM access tag 0x04.
        return struct.pack("<BI", MemAccessType.HEXDUMP_ARM, self.address)


@dataclass(frozen=True)
class PeekResponse:
    """Peek answer: status octet (0 = success) followed by the value."""

    status: int
    value: int

    code = DiagCode.PEEK_RESPONSE

    def body(self) -> bytes:
        return bytes([self.status, self.value])


@dataclass(frozen=True)
class PokeResponse:
    status: int

    code = DiagCode.POKE_RESPONSE

    def body(self) -> bytes:
        return bytes([self.status])


@dataclass(frozen=True)
class HexdumpResponse:
    address: int
    data: bytes

    code = DiagCode.HEXDUMP_RESPONSE

    def body(self) -> bytes:
        if len(self.data) != HEXDUMP_DATA_LEN:
            raise InvariantViolation(
                f"hexdump data must be exactly {HEXDUMP_DATA_LEN} octets, "
                f"got {len(self.data)}"
            )
        return struct.pack("<I", self.address) + self.data


@dataclass(frozen=True)
class RunTest:
    params: TestParams

    code = DiagCode.RUN_TEST

    def body(self) -> bytes:
        return self.params.pack()


@dataclass(frozen=True)
class TestCompleted:
    """Test summary: status, transmitted and received packet counts.

    ``reserved`` is zero on build; a nonzero value is tolerated on parse
    and preserved so callers can flag it.
    """

    __test__ = False  # keep pytest away from the Test* name

    status: int
    tx_count: int
    rx_count: int
    reserved: int = 0

    code = DiagCode.TEST_COMPLETED

    def body(self) -> bytes:
        return struct.pack("<BHHH", self.status, self.tx_count, self.reserved, self.rx_count)


@dataclass(frozen=True)
class LmpLogRecord:
    """One Classic link-layer PDU mirrored to the host.

    The chip addresses peers by the low 4 MAC octets only and always
    reports a 17-octet payload regardless of the PDU's true length; the
    link-layer dissector repairs the padding.
    """

    sent: bool
    low_mac: bytes
    payload: bytes

    @property
    def code(self) -> DiagCode:
        return DiagCode.LMP_SENT if self.sent else DiagCode.LMP_RECEIVED

    def body(self) -> bytes:
        if len(self.low_mac) != LMP_RECORD_MAC_LEN:
            raise InvariantViolation(
                f"LMP record MAC must be {LMP_RECORD_MAC_LEN} octets"
            )
        if len(self.payload) != LMP_RECORD_PAYLOAD_LEN:
            raise InvariantViolation(
                f"LMP record payload must be exactly {LMP_RECORD_PAYLOAD_LEN} octets, "
                f"got {len(self.payload)}"
            )
        return self.low_mac + self.payload


@dataclass(frozen=True)
class LcpLogRecord:
    """One BLE link-layer PDU mirrored to the host, with the peer's full
    6-octet MAC.  Wire form: MAC + payload length octet + payload."""

    sent: bool
    full_mac: bytes
    payload: bytes

    MAX_PAYLOAD = 55  # envelope minus code, MAC and length octets

    @property
    def code(self) -> DiagCode:
        return DiagCode.LCP_SENT if self.sent else DiagCode.LCP_RECEIVED

    def body(self) -> bytes:
        if len(self.full_mac) != LCP_RECORD_MAC_LEN:
            raise InvariantViolation(
                f"LCP record MAC must be {LCP_RECORD_MAC_LEN} octets"
            )
        if len(self.payload) > self.MAX_PAYLOAD:
            raise InvariantViolation(
                f"LCP record payload of {len(self.payload)} octets exceeds "
                f"{self.MAX_PAYLOAD}"
            )
        return self.full_mac + bytes([len(self.payload)]) + self.payload


@dataclass(frozen=True)
class StatsResponse:
    """Counter blob for one statistics kind, decoded per STATS_FIELDS."""

    kind: DiagCode
    values: tuple[int, ...]

    @property
    def code(self) -> DiagCode:
        return self.kind

    def as_dict(self) -> dict[str, int]:
        return dict(zip(STATS_FIELDS[self.kind], self.values))

    def body(self) -> bytes:
        fields = STATS_FIELDS.get(self.kind)
        if fields is None:
            raise InvariantViolation(f"{self.kind!r} is not a statistics response")
        if len(self.values) != len(fields):
            raise InvariantViolation(
                f"{self.kind.name} takes {len(fields)} counters, got {len(self.values)}"
            )
        return struct.pack(f"<{len(self.values)}I", *self.values)


@dataclass(frozen=True)
class StatsRequest:
    kind: DiagCode

    @property
    def code(self) -> DiagCode:
        return self.kind

    def body(self) -> bytes:
        if self.kind not in STATS_REQUEST_CODES:
            raise InvariantViolation(f"{self.kind!r} is not a statistics request")
        return b""


DiagMessage = (
    ToggleLmpLogging
    | MemoryPeek
    | MemoryPoke
    | MemoryHexdump
    | PeekResponse
    | PokeResponse
    | HexdumpResponse
    | RunTest
    | TestCompleted
    | LmpLogRecord
    | LcpLogRecord
    | StatsResponse
    | StatsRequest
)


def build_diag(msg: DiagMessage) -> bytes:
    """Serialize a message: code octet + body, without the H4 tag or the
    envelope padding (the H4 layer adds those)."""
    return bytes([msg.code]) + msg.body()


def _require(code: DiagCode, body: bytes, n: int) -> bytes:
    """Cut an n-octet body, demanding that everything past it is zero
    padding from the envelope."""
    if len(body) < n:
        raise MalformedBody(code, f"body shorter than {n} octets")
    if any(body[n:]):
        raise MalformedBody(code, "nonzero octets past the defined body")
    return body[:n]


def parse_diag(payload: bytes) -> DiagMessage:
    """Decode one diagnostic message from an envelope payload.

    Trailing zero padding is stripped and is not part of the message.
    """
    if not payload:
        raise MalformedBody(-1, "empty diagnostic payload")
    raw_code = payload[0]
    try:
        code = DiagCode(raw_code)
    except ValueError:
        raise UnknownDiagCode(raw_code) from None
    body = payload[1:]

    if code is DiagCode.TOGGLE_LMP_LOGGING:
        (flag,) = _require(code, body, 1)
        if flag not in (0, 1):
            raise MalformedBody(code, f"logging flag must be 0x00/0x01, got 0x{flag:02x}")
        return ToggleLmpLogging(bool(flag))

    if code is DiagCode.MEMORY_PEEK:
        cut = _require(code, body, 5)
        access, address = struct.unpack("<BI", cut)
        if access not in (MemAccessType.ARM, MemAccessType.BLUERF):
            raise MalformedBody(code, f"bad access type 0x{access:02x}")
        return MemoryPeek(MemAccessType(access), address)

    if code is DiagCode.MEMORY_POKE:
        cut = _require(code, body, 6)
        access, address, value = struct.unpack("<BIB", cut)
        if access not in (MemAccessType.ARM, MemAccessType.BLUERF):
            raise MalformedBody(code, f"bad access type 0x{access:02x}")
        return MemoryPoke(MemAccessType(access), address, value)

    if code is DiagCode.MEMORY_HEXDUMP:
        cut = _require(code, body, 5)
        access, address = struct.unpack("<BI", cut)
        if access != MemAccessType.HEXDUMP_ARM:
            raise MalformedBody(
                code, f"hexdump access type must be 0x04, got 0x{access:02x}"
            )
        return MemoryHexdump(address)

    if code is DiagCode.PEEK_RESPONSE:
        status, value = _require(code, body, 2)
        return PeekResponse(status, value)

    if code is DiagCode.POKE_RESPONSE:
        (status,) = _require(code, body, 1)
        return PokeResponse(status)

    if code is DiagCode.HEXDUMP_RESPONSE:
        cut = _require(code, body, 4 + HEXDUMP_DATA_LEN)
        (address,) = struct.unpack_from("<I", cut)
        return HexdumpResponse(address, cut[4:])

    if code is DiagCode.RUN_TEST:
        return RunTest(TestParams.unpack(_require(code, body, 8)))

    if code is DiagCode.TEST_COMPLETED:
        status, tx, reserved, rx = struct.unpack("<BHHH", _require(code, body, 7))
        return TestCompleted(status, tx, rx, reserved)

    if code in (DiagCode.LMP_SENT, DiagCode.LMP_RECEIVED):
        cut = _require(code, body, LMP_RECORD_MAC_LEN + LMP_RECORD_PAYLOAD_LEN)
        return LmpLogRecord(
            sent=code is DiagCode.LMP_SENT,
            low_mac=cut[:LMP_RECORD_MAC_LEN],
            payload=cut[LMP_RECORD_MAC_LEN:],
        )

    if code in (DiagCode.LCP_SENT, DiagCode.LCP_RECEIVED):
        if len(body) < LCP_RECORD_MAC_LEN + 1:
            raise MalformedBody(code, "LCP record header truncated")
        length = body[LCP_RECORD_MAC_LEN]
        cut = _require(code, body, LCP_RECORD_MAC_LEN + 1 + length)
        return LcpLogRecord(
            sent=code is DiagCode.LCP_SENT,
            full_mac=cut[:LCP_RECORD_MAC_LEN],
            payload=cut[LCP_RECORD_MAC_LEN + 1 :],
        )

    if code in STATS_FIELDS:
        fields = STATS_FIELDS[code]
        cut = _require(code, body, 4 * len(fields))
        return StatsResponse(code, struct.unpack(f"<{len(fields)}I", cut))

    if code in STATS_REQUEST_CODES:
        _require(code, body, 0)
        return StatsRequest(code)

    raise UnknownDiagCode(raw_code)  # pragma: no cover - enum is total
