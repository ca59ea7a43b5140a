"""Diagnostic codec tests: layout fixtures, the full command-code
vocabulary, round trips, malformed input."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bcmdiag.capture import CaptureRecord
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
    build_diag,
    code_direction,
    parse_diag,
)
from bcmdiag.errors import BcmDiagError, InvariantViolation, MalformedBody, UnknownDiagCode
from bcmdiag.h4 import DIAG_PAYLOAD_LEN, Direction, H4Frame, H4Type, HciCommand, HciEvent

from diag_reference import reference_parse_diag
from helpers import random_diag_message

ALL_CODES = sorted(DiagCode)


class TestFixtures:
    def test_toggle_on(self):
        assert parse_diag(b"\xf0\x01") == ToggleLmpLogging(True)
        assert build_diag(ToggleLmpLogging(True)) == b"\xf0\x01"

    def test_toggle_off(self):
        assert build_diag(ToggleLmpLogging(False)) == b"\xf0\x00"
        assert parse_diag(b"\xf0\x00") == ToggleLmpLogging(False)

    def test_peek_zero_address(self):
        assert parse_diag(bytes.fromhex("f10200000000")) == MemoryPeek(
            MemAccessType.ARM, 0x00000000
        )

    def test_peek_little_endian_address(self):
        # 4-octet address rides in reverse byte order.
        assert build_diag(MemoryPeek(MemAccessType.ARM, 0x00200400)) == bytes.fromhex(
            "f10200042000"
        )

    def test_poke_layout(self):
        wire = build_diag(MemoryPoke(MemAccessType.BLUERF, 0x00000318, 0xAA))
        assert wire == bytes.fromhex("f20318030000aa")
        assert parse_diag(wire) == MemoryPoke(MemAccessType.BLUERF, 0x318, 0xAA)

    def test_hexdump_request_uses_access_04(self):
        wire = build_diag(MemoryHexdump(0x00200400))
        assert wire == bytes.fromhex("f30400042000")

    def test_hexdump_response_32_octets(self):
        data = bytes(range(32))
        wire = b"\x04" + bytes.fromhex("00042000") + data
        msg = parse_diag(wire)
        assert msg == HexdumpResponse(0x00200400, data)
        assert len(msg.data) == 32
        assert build_diag(msg) == wire

    def test_test_completed_layout(self):
        # status(1) + tx(2) + zero(2) + rx(2), little endian.
        wire = build_diag(TestCompleted(status=0, tx_count=0x0102, rx_count=0x0304))
        assert wire == bytes.fromhex("0a" + "00" + "0201" + "0000" + "0403")

    def test_test_completed_nonzero_reserved_tolerated(self):
        wire = bytes.fromhex("0a" + "00" + "0201" + "ffff" + "0403")
        msg = parse_diag(wire)
        assert msg.reserved == 0xFFFF
        assert msg.tx_count == 0x0102 and msg.rx_count == 0x0304

    def test_padding_stripped(self):
        padded = b"\xf0\x01" + bytes(61)
        assert parse_diag(padded) == ToggleLmpLogging(True)


class TestCompleteness:
    def test_all_27_codes_enumerated(self):
        assert len(ALL_CODES) == 27

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_every_code_constructible_and_parseable(self, code):
        msg = _sample_message(code)
        wire = build_diag(msg)
        assert wire[0] == code
        assert parse_diag(wire) == msg

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_direction_metadata(self, code):
        # Responses and log records flow to the host; 0xb9 and above
        # flow to the controller.
        expected = (
            Direction.HOST_TO_CONTROLLER
            if code >= 0xB9
            else Direction.CONTROLLER_TO_HOST
        )
        assert code_direction(code) is expected

    @pytest.mark.parametrize(
        "code", [c for c in ALL_CODES if code_direction(c) is Direction.HOST_TO_CONTROLLER]
    )
    def test_every_request_parses_to_a_class_the_controller_handles(self, code):
        """The controller notes any class without a handler as one the host
        may not send: that holds only while every request class has one."""
        from bcmdiag.emulator.handlers import DIAG_HANDLERS

        assert type(parse_diag(build_diag(_sample_message(code)))) in DIAG_HANDLERS


def _sample_message(code: DiagCode):
    if code is DiagCode.TOGGLE_LMP_LOGGING:
        return ToggleLmpLogging(True)
    if code is DiagCode.MEMORY_PEEK:
        return MemoryPeek(MemAccessType.ARM, 0x200000)
    if code is DiagCode.MEMORY_POKE:
        return MemoryPoke(MemAccessType.BLUERF, 0x318, 0xAA)
    if code is DiagCode.MEMORY_HEXDUMP:
        return MemoryHexdump(0x200000)
    if code is DiagCode.PEEK_RESPONSE:
        return PeekResponse(0, 0x42)
    if code is DiagCode.POKE_RESPONSE:
        return PokeResponse(0)
    if code is DiagCode.HEXDUMP_RESPONSE:
        return HexdumpResponse(0x200000, bytes(32))
    if code is DiagCode.RUN_TEST:
        return RunTest(TestParams())
    if code is DiagCode.TEST_COMPLETED:
        return TestCompleted(0, 10, 10)
    if code in (DiagCode.LMP_SENT, DiagCode.LMP_RECEIVED):
        return LmpLogRecord(code is DiagCode.LMP_SENT, bytes(4), bytes(17))
    if code in (DiagCode.LCP_SENT, DiagCode.LCP_RECEIVED):
        return LcpLogRecord(code is DiagCode.LCP_SENT, bytes(6), b"\x12")
    if code in STATS_FIELDS:
        return StatsResponse(code, tuple(range(len(STATS_FIELDS[code]))))
    assert code in STATS_REQUEST_CODES
    return StatsRequest(code)


class TestRoundTrip:
    def test_fuzz_round_trip(self):
        rng = random.Random(0xD1A6)
        for _ in range(10_000):
            msg = random_diag_message(rng)
            assert parse_diag(build_diag(msg)) == msg

    def test_round_trip_with_envelope_padding(self):
        rng = random.Random(0xD1A7)
        for _ in range(500):
            msg = random_diag_message(rng)
            wire = build_diag(msg)
            padded = wire.ljust(63, b"\x00")
            assert parse_diag(padded) == msg


class TestErrors:
    def test_unknown_code(self):
        with pytest.raises(UnknownDiagCode) as excinfo:
            parse_diag(b"\xee\x00")
        assert excinfo.value.code == 0xEE

    def test_empty_payload(self):
        with pytest.raises(MalformedBody):
            parse_diag(b"")

    def test_bad_access_type(self):
        with pytest.raises(MalformedBody):
            parse_diag(bytes.fromhex("f10500000000"))

    def test_hexdump_wrong_access_type(self):
        with pytest.raises(MalformedBody):
            parse_diag(bytes.fromhex("f30200000000"))

    def test_short_address(self):
        with pytest.raises(MalformedBody):
            parse_diag(bytes.fromhex("f102000000"))

    def test_nonzero_padding_rejected(self):
        with pytest.raises(MalformedBody):
            parse_diag(b"\xf0\x01" + bytes(60) + b"\x01")

    def test_bad_toggle_value(self):
        with pytest.raises(MalformedBody):
            parse_diag(b"\xf0\x02")

    def test_lmp_record_payload_must_be_17(self):
        with pytest.raises(InvariantViolation):
            build_diag(LmpLogRecord(True, bytes(4), bytes(16)))

    def test_hexdump_response_data_must_be_32(self):
        with pytest.raises(InvariantViolation):
            build_diag(HexdumpResponse(0, bytes(31)))

    def test_stats_value_count_checked(self):
        with pytest.raises(InvariantViolation):
            build_diag(StatsResponse(DiagCode.BR_ACL_STATS, (1, 2)))

    def test_stats_request_kind_checked(self):
        with pytest.raises(InvariantViolation):
            build_diag(StatsRequest(DiagCode.BR_ACL_STATS))

    @pytest.mark.parametrize(
        "encode, reason",
        [
            (lambda: H4Frame.diag(b"", h4_type=H4Type.HCI_EVENT), "not an envelope channel"),
            (lambda: HciCommand(0x10000).to_frame(), "opcode 0x10000 out of range"),
            (lambda: HciCommand(-1).to_frame(), "out of range"),
            (lambda: HciCommand.from_frame(HciEvent(0x0E).to_frame()), "not an HCI command frame"),
            (lambda: HciEvent(0x100).to_frame(), "event code 0x100 out of range"),
            (lambda: HciEvent(0x0E, bytes(256)).to_frame(), "exceed 255 octets"),
            (lambda: HciEvent.from_frame(HciCommand(0x1001).to_frame()), "not an HCI event frame"),
            (lambda: MemoryPeek(MemAccessType.HEXDUMP_ARM, 0).to_frame(), "not allowed"),
            (lambda: MemoryPoke(5, 0, 0).to_frame(), "not allowed"),
            (lambda: LmpLogRecord(True, bytes(6), bytes(17)).to_frame(), "MAC must be 4 octets"),
            (lambda: LcpLogRecord(True, bytes(4), b"").to_frame(), "MAC must be 6 octets"),
            (lambda: LcpLogRecord(False, bytes(6), bytes(56)).to_frame(), "of 56 octets exceeds 55"),
            (lambda: StatsResponse(DiagCode.GET_BR_ACL_STATS, ()).to_frame(),
             "is not a statistics response"),
        ],
        ids=[
            "envelope-type", "opcode-high", "opcode-negative", "command-from-event",
            "event-code", "event-params", "event-from-command", "peek-access", "poke-access",
            "lmp-record-mac", "lcp-record-mac", "lcp-record-payload", "stats-kind",
        ],
    )
    def test_an_encoder_refuses_what_its_wire_form_cannot_hold(self, encode, reason):
        with pytest.raises(InvariantViolation, match=reason):
            encode()


class TestSemanticValidity:
    def test_out_of_range_frequency_still_encodes(self):
        # The wire must carry invalid requests so a controller can
        # reject them with a nonzero status.
        params = TestParams(rx_frequency=200)
        assert not params.is_valid
        msg = RunTest(params)
        assert parse_diag(build_diag(msg)) == msg

    def test_valid_range(self):
        assert TestParams(tx_frequency=78, rx_frequency=0, payload_length=1021).is_valid
        assert not TestParams(payload_length=1022).is_valid


# (class, fields by keyword, repr): one value of every message class, of
# both HCI records and of a capture record, with the repr each had as a
# frozen dataclass.
_VALUES = [
    (ToggleLmpLogging, {"enable": True}, "ToggleLmpLogging(enable=True)"),
    (
        MemoryPeek,
        {"access": MemAccessType.ARM, "address": 0x200000},
        "MemoryPeek(access=<MemAccessType.ARM: 2>, address=2097152)",
    ),
    (
        MemoryPoke,
        {"access": MemAccessType.BLUERF, "address": 0x318, "value": 0xAA},
        "MemoryPoke(access=<MemAccessType.BLUERF: 3>, address=792, value=170)",
    ),
    (MemoryHexdump, {"address": 0x200000}, "MemoryHexdump(address=2097152)"),
    (PeekResponse, {"status": 0, "value": 0x42}, "PeekResponse(status=0, value=66)"),
    (PokeResponse, {"status": 1}, "PokeResponse(status=1)"),
    (
        HexdumpResponse,
        {"address": 0x200000, "data": bytes(2) + b"A" * 30},
        "HexdumpResponse(address=2097152, data=b'\\x00\\x00" + "A" * 30 + "')",
    ),
    (
        RunTest,
        {"params": TestParams()},
        "RunTest(params=TestParams(scenario=1, hopping_mode=0, tx_frequency=0, "
        "rx_frequency=0, power_level=0, packet_type=0, payload_length=0))",
    ),
    (
        TestCompleted,
        {"status": 0, "tx_count": 10, "rx_count": 9, "reserved": 0},
        "TestCompleted(status=0, tx_count=10, rx_count=9, reserved=0)",
    ),
    (
        LmpLogRecord,
        {"sent": True, "low_mac": b"\x01\x02\x03\x04", "payload": bytes(17)},
        "LmpLogRecord(sent=True, low_mac=b'\\x01\\x02\\x03\\x04', payload=b'"
        + "\\x00" * 17 + "')",
    ),
    (
        LcpLogRecord,
        {"sent": False, "full_mac": bytes(6), "payload": b"\x12"},
        "LcpLogRecord(sent=False, full_mac=b'" + "\\x00" * 6 + "', payload=b'\\x12')",
    ),
    (
        StatsResponse,
        {"kind": DiagCode.SCO_STATS, "values": (1, 2, 3)},
        "StatsResponse(kind=<DiagCode.SCO_STATS: 26>, values=(1, 2, 3))",
    ),
    (
        StatsRequest,
        {"kind": DiagCode.GET_AUX_STATS},
        "StatsRequest(kind=<DiagCode.GET_AUX_STATS: 195>)",
    ),
    (HciCommand, {"opcode": 0x1001, "params": b""}, "HciCommand(opcode=4097, params=b'')"),
    (
        HciEvent,
        {"event_code": 0x0E, "params": b"\x01\x01\x10\x00"},
        "HciEvent(event_code=14, params=b'\\x01\\x01\\x10\\x00')",
    ),
    (
        CaptureRecord,
        {
            "timestamp_us": 625,
            "direction": Direction.CONTROLLER_TO_HOST,
            "frame": H4Frame(H4Type.HCI_EVENT, b"\x0e\x04\x01\x01\x10\x00"),
        },
        "CaptureRecord(timestamp_us=625, direction=<Direction.CONTROLLER_TO_HOST: 1>, "
        "frame=H4Frame(h4_type=<H4Type.HCI_EVENT: 4>, payload=b'\\x0e\\x04\\x01\\x01\\x10\\x00'))",
    ),
]
_VALUE_IDS = [cls.__name__ for cls, _fields, _repr in _VALUES]


class TestMessageValue:
    """Messages and HCI records are immutable values: equal only to the
    same class with equal fields, hashed alike when equal, read-only,
    with a repr that names their fields."""

    def test_every_message_class_is_covered(self):
        covered = {cls for cls, _fields, _repr in _VALUES}
        assert {type(_sample_message(code)) for code in ALL_CODES} <= covered

    @pytest.mark.parametrize("cls, fields, text", _VALUES, ids=_VALUE_IDS)
    def test_equal_values_hash_equal(self, cls, fields, text):
        a, b = cls(*fields.values()), cls(**fields)
        assert a == b and not a != b
        assert hash(a) == hash(b) and len({a, b}) == 1

    @pytest.mark.parametrize("cls, fields, text", _VALUES, ids=_VALUE_IDS)
    def test_equal_only_to_its_own_class(self, cls, fields, text):
        msg = cls(**fields)
        values = tuple(fields.values())
        for other in (values, list(values), None):
            assert msg != other and other != msg
            assert not msg == other and not other == msg
        for other_cls, other_fields, _text in _VALUES:
            if other_cls is not cls and len(other_fields) == len(fields):
                twin = other_cls(*values)
                assert msg != twin and twin != msg and not msg == twin

    @pytest.mark.parametrize("cls, fields, text", _VALUES, ids=_VALUE_IDS)
    def test_attributes_are_read_only(self, cls, fields, text):
        msg = cls(**fields)
        for attr in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(msg, attr, 0)
        assert [getattr(msg, name) for name in fields] == list(fields.values())

    @pytest.mark.parametrize("cls, fields, text", _VALUES, ids=_VALUE_IDS)
    def test_repr(self, cls, fields, text):
        assert repr(cls(**fields)) == text

    @pytest.mark.parametrize("cls, fields, text", _VALUES, ids=_VALUE_IDS)
    def test_copy_and_pickle_round_trip(self, cls, fields, text):
        import copy
        import pickle

        msg = cls(**fields)
        for twin in (copy.copy(msg), copy.deepcopy(msg), pickle.loads(pickle.dumps(msg))):
            assert twin == msg and type(twin) is cls and repr(twin) == text

    def test_keywords_and_defaults(self):
        assert TestCompleted(status=1, tx_count=2, rx_count=3).reserved == 0
        assert TestCompleted(1, 2, 3) == TestCompleted(1, 2, 3, reserved=0)
        assert HciCommand(0x0C03).params == HciCommand(opcode=0x0C03).params == b""
        assert HciEvent(event_code=0x10).params == b""
        assert MemoryPeek(address=5, access=MemAccessType.BLUERF) == MemoryPeek(
            MemAccessType.BLUERF, 5
        )
        with pytest.raises(TypeError):
            PeekResponse(0)
        with pytest.raises(TypeError):
            PokeResponse(0, bogus=1)


def _outcome(parse, payload: bytes):
    """The message ``parse`` returns, or the class, text and code of what
    it raises."""
    try:
        return parse(payload)
    except BcmDiagError as exc:
        return type(exc), str(exc), exc.code


def _padded(payload: bytes, padding: bytes) -> bytes:
    return payload + padding[: max(0, DIAG_PAYLOAD_LEN - len(payload))]


# No padding, zero padding to the envelope, or random octets past the body.
_PADDING = st.one_of(
    st.just(b""), st.just(bytes(DIAG_PAYLOAD_LEN)), st.binary(min_size=62, max_size=62)
)


class TestRegistryMatchesLadder:
    """The code -> layout registry behind parse_diag against the if-ladder
    it replaced (tests/diag_reference.py)."""

    def test_empty_payload(self):
        assert _outcome(parse_diag, b"") == _outcome(reference_parse_diag, b"")

    def test_every_body_length(self):
        """Each code with every body length, a small first octet and the
        rest zero or repeating it: the length and value boundaries."""
        for code in ALL_CODES + [0x02, 0x7F, 0xEE, 0xFF]:
            for length in range(63):
                for first in (0x00, 0x01, 0x02, 0x03, 0x04, 0x06, 0xFF):
                    for rest in (0x00, first):
                        payload = bytes([code, first] + [rest] * (length - 1))[: length + 1]
                        assert _outcome(parse_diag, payload) == _outcome(
                            reference_parse_diag, payload
                        ), payload.hex()

    @settings(max_examples=1000, deadline=None)
    @given(
        code=st.one_of(st.sampled_from(ALL_CODES), st.integers(0, 255)),
        body=st.binary(max_size=62),
        padding=_PADDING,
    )
    def test_any_code_and_body(self, code, body, padding):
        payload = _padded(bytes([code]) + body, padding)
        assert _outcome(parse_diag, payload) == _outcome(reference_parse_diag, payload)

    @settings(max_examples=1000, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        octet=st.integers(0, 255),
        position=st.integers(0, 62),
        padding=_PADDING,
    )
    def test_one_octet_off_a_valid_message(self, seed, octet, position, padding):
        wire = bytearray(_padded(build_diag(random_diag_message(random.Random(seed))), padding))
        if position < len(wire):
            wire[position] = octet
        payload = bytes(wire)
        assert _outcome(parse_diag, payload) == _outcome(reference_parse_diag, payload)
