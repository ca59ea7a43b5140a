"""The if-ladder diagnostic parser the registry in ``bcmdiag.diag``
replaced, kept as the reference that tests compare the registry
against: for every payload both return equal messages or raise the
same exception class with the same message."""

from __future__ import annotations

import struct

from bcmdiag.diag import (
    HEXDUMP_DATA_LEN,
    LCP_RECORD_MAC_LEN,
    LMP_RECORD_MAC_LEN,
    LMP_RECORD_PAYLOAD_LEN,
    STATS_FIELDS,
    STATS_REQUEST_CODES,
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
    StatsRequest,
    StatsResponse,
    TestCompleted,
    TestParams,
    ToggleLmpLogging,
)
from bcmdiag.errors import MalformedBody, UnknownDiagCode


def _require(code: DiagCode, body: bytes, n: int) -> bytes:
    if len(body) < n:
        raise MalformedBody(code, f"body shorter than {n} octets")
    if any(body[n:]):
        raise MalformedBody(code, "nonzero octets past the defined body")
    return body[:n]


def reference_parse_diag(payload: bytes):
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
        return RunTest(TestParams(*struct.unpack("<BBBBBBH", _require(code, body, 8))))

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
