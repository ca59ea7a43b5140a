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

import functools
import struct
from collections.abc import Callable
from enum import IntEnum

from .errors import InvariantViolation, MalformedBody, UnknownDiagCode
from .h4 import DIAG_PAYLOAD_LEN, Direction, H4Frame, H4Type, value_class


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
_ACL_FIELDS = ("tx_packets", "rx_packets", "rx_crc_errors", "rx_hec_errors", "retransmissions")
STATS_FIELDS: dict[DiagCode, tuple[str, ...]] = {
    DiagCode.BR_ACL_STATS: _ACL_FIELDS,
    DiagCode.EDR_ACL_STATS: _ACL_FIELDS,
    DiagCode.SCO_STATS: ("tx_packets", "rx_packets", "rx_errors"),
    DiagCode.ESCO_STATS: ("tx_packets", "rx_packets", "rx_errors"),
    DiagCode.CPU_LOAD_RESPONSE: ("load_percent",),
    DiagCode.AUX_RESPONSE: ("raw_word",),
    DiagCode.CONNECTION_RESPONSE: ("handle", "low_mac", "role", "state"),
}

# Which statistics response answers which getter.
RESPONSE_FOR_REQUEST: dict[DiagCode, DiagCode] = {
    DiagCode.GET_BR_ACL_STATS: DiagCode.BR_ACL_STATS,
    DiagCode.GET_EDR_ACL_STATS: DiagCode.EDR_ACL_STATS,
    DiagCode.GET_AUX_STATS: DiagCode.AUX_RESPONSE,
    DiagCode.GET_SCO_STATS: DiagCode.SCO_STATS,
    DiagCode.GET_ESCO_STATS: DiagCode.ESCO_STATS,
    DiagCode.GET_CONNECTION_STATS: DiagCode.CONNECTION_RESPONSE,
}

STATS_REQUEST_CODES = frozenset(RESPONSE_FOR_REQUEST) | {DiagCode.RESET_BR_ACL_STATS}


# Raw code octet -> parser of a whole payload; @_message fills it.
_PARSERS: dict[int, Callable[[bytes], "DiagMessage"]] = {}

_DIAG = H4Type.DIAG
# (H4 type, payload) -> H4Frame, for payloads that fill the envelope.
_frame = functools.partial(tuple.__new__, H4Frame)


def _message(*codes: DiagCode, layout: str | None = None):
    """Declare a message: an immutable value (h4.value_class) with its
    code(s) and body layout, given once.  ``layout`` is the struct format
    of a fixed body, which parsing unpacks into the fields (through the
    class's ``_from_fields`` where it has one) and ``_envelope`` packs
    with the code and the zero padding in one step: ``to_frame`` packs
    the fields in order unless the class has its own.  A variable body
    has the class's ``_parse(code, payload)``, ``to_frame`` and ``_wire_len``."""

    def declare(cls):
        cls = value_class(cls)
        code = codes[0]
        if len(codes) == 1:
            cls.code = code
        if layout is not None:
            cls._layout = body = struct.Struct(layout)
            cls._wire_len = 1 + body.size
            pad = DIAG_PAYLOAD_LEN - cls._wire_len
            cls._envelope = envelope = struct.Struct(f"<B{layout[1:]}{pad}x")
            if "to_frame" not in vars(cls):
                cls.to_frame = lambda self: _frame((_DIAG, envelope.pack(code, *self)))
        for each in codes:
            _PARSERS[each] = _parser(cls, each)
        return cls

    return declare


def _parser(cls, code: DiagCode) -> Callable[[bytes], "DiagMessage"]:
    """One code's parser.  A fixed body is checked, unpacked and built in
    one call, or handed on to the class's ``_from_fields``."""
    if not hasattr(cls, "_layout"):
        return functools.partial(cls._parse, code)
    size, unpack = cls._layout.size, cls._layout.unpack_from
    end = size + 1
    make = getattr(cls, "_from_fields", None)

    def parse(payload: bytes):
        n = len(payload)
        if n <= size or payload.count(0, end) != n - end:
            _require(code, payload, size)  # raises the precise refusal
        if make is None:
            return tuple.__new__(cls, unpack(payload, 1))
        return make(code, *unpack(payload, 1))

    return parse


def _require(code: DiagCode, payload: bytes, n: int) -> None:
    """Demand an n-octet body after the code octet, with everything past
    it zero padding from the envelope."""
    if len(payload) <= n:
        raise MalformedBody(code, f"body shorter than {n} octets")
    if payload.count(0, n + 1) != len(payload) - n - 1:
        raise MalformedBody(code, "nonzero octets past the defined body")


_PEEK_POKE_ACCESS = {a: a for a in (MemAccessType.ARM, MemAccessType.BLUERF)}  # octet -> member


def _access_from_fields(cls, code: DiagCode, access: int, *rest):
    """``_from_fields`` of the messages that name a peek/poke access type."""
    member = _PEEK_POKE_ACCESS.get(access)
    if member is None:
        raise MalformedBody(code, f"bad access type 0x{access:02x}")
    return tuple.__new__(cls, (member, *rest))


def _access_to_frame(self) -> H4Frame:
    """``to_frame`` of the messages that name a peek/poke access type."""
    if self[0] not in _PEEK_POKE_ACCESS:
        raise InvariantViolation(f"{self.__class__.__name__} access type {self[0]!r} not allowed")
    return _frame((_DIAG, self._envelope.pack(self.code, *self)))


@value_class
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


@_message(DiagCode.TOGGLE_LMP_LOGGING, layout="<B")
class ToggleLmpLogging:
    enable: bool

    @classmethod
    def _from_fields(cls, code: DiagCode, flag: int) -> "ToggleLmpLogging":
        if flag > 1:
            raise MalformedBody(code, f"logging flag must be 0x00/0x01, got 0x{flag:02x}")
        return tuple.__new__(cls, (flag == 1,))


@_message(DiagCode.MEMORY_PEEK, layout="<BI")
class MemoryPeek:
    access: MemAccessType
    address: int

    to_frame = _access_to_frame
    _from_fields = classmethod(_access_from_fields)


@_message(DiagCode.MEMORY_POKE, layout="<BIB")
class MemoryPoke:
    access: MemAccessType
    address: int
    value: int

    to_frame = _access_to_frame
    _from_fields = classmethod(_access_from_fields)


@_message(DiagCode.MEMORY_HEXDUMP, layout="<BI")
class MemoryHexdump:
    address: int

    def to_frame(self) -> H4Frame:
        # Hexdump always carries the ARM access tag 0x04.
        return _frame((_DIAG, self._envelope.pack(self.code, MemAccessType.HEXDUMP_ARM, self[0])))

    @classmethod
    def _from_fields(cls, code: DiagCode, access: int, address: int) -> "MemoryHexdump":
        if access != MemAccessType.HEXDUMP_ARM:
            raise MalformedBody(code, f"hexdump access type must be 0x04, got 0x{access:02x}")
        return tuple.__new__(cls, (address,))


@_message(DiagCode.PEEK_RESPONSE, layout="<BB")
class PeekResponse:
    """Peek answer: status octet (0 = success) followed by the value."""

    status: int
    value: int


@_message(DiagCode.POKE_RESPONSE, layout="<B")
class PokeResponse:
    status: int


@_message(DiagCode.HEXDUMP_RESPONSE, layout=f"<I{HEXDUMP_DATA_LEN}s")
class HexdumpResponse:
    address: int
    data: bytes

    def to_frame(self) -> H4Frame:
        address, data = self
        if len(data) != HEXDUMP_DATA_LEN:
            raise InvariantViolation(
                f"hexdump data must be exactly {HEXDUMP_DATA_LEN} octets, got {len(data)}"
            )
        return _frame((_DIAG, self._envelope.pack(self.code, address, data)))


@_message(DiagCode.RUN_TEST, layout="<BBBBBBH")
class RunTest:
    params: TestParams

    def to_frame(self) -> H4Frame:
        return _frame((_DIAG, self._envelope.pack(self.code, *self[0])))

    @classmethod
    def _from_fields(cls, _code: DiagCode, *fields: int) -> "RunTest":
        return cls(TestParams(*fields))


@_message(DiagCode.TEST_COMPLETED, layout="<BHHH")
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

    def to_frame(self) -> H4Frame:
        status, tx, rx, reserved = self
        return _frame((_DIAG, self._envelope.pack(self.code, status, tx, reserved, rx)))

    @classmethod
    def _from_fields(cls, _code: DiagCode, status: int, tx: int, reserved: int, rx: int):
        return cls(status, tx, rx, reserved)


@_message(
    DiagCode.LMP_SENT,
    DiagCode.LMP_RECEIVED,
    layout=f"<{LMP_RECORD_MAC_LEN}s{LMP_RECORD_PAYLOAD_LEN}s",
)
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

    def to_frame(self) -> H4Frame:
        sent, low_mac, payload = self
        if len(low_mac) != LMP_RECORD_MAC_LEN:
            raise InvariantViolation(f"LMP record MAC must be {LMP_RECORD_MAC_LEN} octets")
        if len(payload) != LMP_RECORD_PAYLOAD_LEN:
            raise InvariantViolation(
                f"LMP record payload must be exactly {LMP_RECORD_PAYLOAD_LEN} octets, "
                f"got {len(payload)}"
            )
        code = DiagCode.LMP_SENT if sent else DiagCode.LMP_RECEIVED
        return _frame((_DIAG, self._envelope.pack(code, low_mac, payload)))

    @classmethod
    def _from_fields(cls, code: DiagCode, low_mac: bytes, payload: bytes) -> "LmpLogRecord":
        return tuple.__new__(cls, (code == DiagCode.LMP_SENT, low_mac, payload))


@_message(DiagCode.LCP_SENT, DiagCode.LCP_RECEIVED)
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

    @property
    def _wire_len(self) -> int:
        return 2 + LCP_RECORD_MAC_LEN + len(self.payload)

    def to_frame(self) -> H4Frame:
        sent, full_mac, payload = self
        if len(full_mac) != LCP_RECORD_MAC_LEN:
            raise InvariantViolation(f"LCP record MAC must be {LCP_RECORD_MAC_LEN} octets")
        if len(payload) > self.MAX_PAYLOAD:
            raise InvariantViolation(
                f"LCP record payload of {len(payload)} octets exceeds {self.MAX_PAYLOAD}"
            )
        code = DiagCode.LCP_SENT if sent else DiagCode.LCP_RECEIVED
        wire = bytes((code,)) + full_mac + bytes((len(payload),)) + payload
        return _frame((_DIAG, wire.ljust(DIAG_PAYLOAD_LEN, b"\x00")))

    @classmethod
    def _parse(cls, code: DiagCode, payload: bytes) -> "LcpLogRecord":
        header = 1 + LCP_RECORD_MAC_LEN  # code octet and MAC; the length octet follows
        if len(payload) <= header:
            raise MalformedBody(code, "LCP record header truncated")
        length = payload[header]
        _require(code, payload, header + length)
        body = payload[header + 1 : header + 1 + length]
        return cls(code == DiagCode.LCP_SENT, payload[1:header], body)


# Body layout per statistics response: its counters, 32 bits each.
_STATS_LAYOUTS = {
    kind: struct.Struct(f"<{len(fields)}I") for kind, fields in STATS_FIELDS.items()
}


@_message(*STATS_FIELDS)
class StatsResponse:
    """Counter blob for one statistics kind, decoded per STATS_FIELDS."""

    kind: DiagCode
    values: tuple[int, ...]

    @property
    def code(self) -> DiagCode:
        return self.kind

    @property
    def _wire_len(self) -> int:
        return 1 + 4 * len(self.values)

    def as_dict(self) -> dict[str, int]:
        return dict(zip(STATS_FIELDS[self.kind], self.values))

    def text(self, sep: str = " ") -> str:
        """The kind's name, ``sep``, then each counter as ``name=value``."""
        fields = " ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"{DiagCode(self.kind).name}{sep}{fields}"

    def to_frame(self) -> H4Frame:
        kind, values = self
        fields = STATS_FIELDS.get(kind)
        if fields is None:
            raise InvariantViolation(f"{kind!r} is not a statistics response")
        if len(values) != len(fields):
            raise InvariantViolation(
                f"{kind.name} takes {len(fields)} counters, got {len(values)}"
            )
        wire = bytes((kind,)) + _STATS_LAYOUTS[kind].pack(*values)
        return _frame((_DIAG, wire.ljust(DIAG_PAYLOAD_LEN, b"\x00")))

    @classmethod
    def _parse(cls, code: DiagCode, payload: bytes) -> "StatsResponse":
        layout = _STATS_LAYOUTS[code]
        _require(code, payload, layout.size)
        return cls(code, layout.unpack_from(payload, 1))


@_message(*sorted(STATS_REQUEST_CODES), layout="")
class StatsRequest:
    kind: DiagCode

    @property
    def code(self) -> DiagCode:
        return self.kind

    def to_frame(self) -> H4Frame:
        if self.kind not in STATS_REQUEST_CODES:
            raise InvariantViolation(f"{self.kind!r} is not a statistics request")
        return _frame((_DIAG, self._envelope.pack(self.kind)))

    @classmethod
    def _from_fields(cls, code: DiagCode) -> "StatsRequest":
        return tuple.__new__(cls, (code,))


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
    return msg.to_frame()[1][: msg._wire_len]


def parse_diag(payload: bytes) -> DiagMessage:
    """Decode one diagnostic message from an envelope payload.

    Trailing zero padding is stripped and is not part of the message.
    """
    if not payload:
        raise MalformedBody(-1, "empty diagnostic payload")
    parse = _PARSERS.get(payload[0])
    if parse is None:
        raise UnknownDiagCode(payload[0])
    return parse(payload)
