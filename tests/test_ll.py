"""Link-layer codec tests: opcode tables, padding repair, vendor
spaces, round trips, rendering."""

import copy
import hashlib
import pickle
import random
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from bcmdiag import ll
from bcmdiag.errors import (
    InvariantViolation,
    LengthMismatch,
    UnknownOpcode,
    UnknownVendorSubtype,
)

from helpers import random_lcp_pdu, random_lmp_pdu

# The opcode tables are versioned data files; any edit must be a
# deliberate one.
TABLE_HASHES = {
    "lmp_opcodes.tsv": "cd88bc9beeee786e0d1ac955075390bdee4a8a8f3cc16ee1ca44fa1aa8025f79",
    "lmp_ext_opcodes.tsv": "7967a7f833219928b458d3629c63dcd580de028103310c86a24baf8861a022cd",
    "lcp_opcodes.tsv": "ce0ec0b6b5a2149157e216287dda3a03ffb1281c7b15febaeb2685f8d8a725fb",
}

# Spot checks derived independently of the data files (standard LMP
# numbering also used by existing open-source dissectors).
LMP_SPOT_CHECKS = {
    1: ("LMP_name_req", 1),
    3: ("LMP_accepted", 1),
    4: ("LMP_not_accepted", 2),
    17: ("LMP_start_encryption_req", 16),
    37: ("LMP_version_req", 5),
    39: ("LMP_features_req", 8),
    49: ("LMP_setup_complete", 0),
    51: ("LMP_host_connection_req", 0),
    57: ("LMP_test_control", 9),
    65: ("LMP_DHkey_Check", 16),
}
LCP_SPOT_CHECKS = {
    0x02: ("LL_TERMINATE_IND", 1),
    0x08: ("LL_FEATURE_REQ", 8),
    0x0C: ("LL_VERSION_IND", 5),
    0x13: ("LL_PING_RSP", 0),
}


class TestTables:
    @pytest.mark.parametrize("filename,expected", sorted(TABLE_HASHES.items()))
    def test_table_hash_pinned(self, filename, expected):
        blob = resources.files("bcmdiag.tables").joinpath(filename).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == expected

    def test_every_parameter_length_under_17(self):
        for entry in ll.LMP_OPCODES.values():
            assert entry.param_len < 17
            assert 1 + entry.param_len <= ll.LMP_MAX_PDU
        for entry in ll.LMP_EXT_OPCODES.values():
            assert entry.param_len < 17
            assert 2 + entry.param_len <= ll.LMP_MAX_PDU

    def test_escape_opcodes_demand_extended_octet(self):
        for opcode in ll.LMP_ESCAPE_OPCODES:
            assert ll.LMP_OPCODES[opcode].escape
            with pytest.raises(InvariantViolation):
                ll.build_lmp(ll.LmpPdu(opcode))
            with pytest.raises((LengthMismatch, UnknownOpcode)):
                ll.dissect_lmp(bytes([opcode << 1]))

    @pytest.mark.parametrize("opcode,expected", sorted(LMP_SPOT_CHECKS.items()))
    def test_lmp_spot_checks(self, opcode, expected):
        entry = ll.LMP_OPCODES[opcode]
        assert (entry.name, entry.param_len) == expected

    @pytest.mark.parametrize("opcode,expected", sorted(LCP_SPOT_CHECKS.items()))
    def test_lcp_spot_checks(self, opcode, expected):
        entry = ll.LCP_OPCODES[opcode]
        assert (entry.name, entry.param_len) == expected

    def test_vendor_opcode_zero_not_in_table(self):
        assert 0 not in ll.LMP_OPCODES


class TestDissectLmp:
    def test_accepted_family(self):
        # First octet 0x07 = opcode 3 (LMP_accepted), tid 1; one
        # parameter octet follows.
        pdu = ll.dissect_lmp(bytes([0x07, 51]))
        assert isinstance(pdu, ll.LmpPdu)
        assert pdu.opcode == 3 and pdu.tid == 1
        assert pdu.params == bytes([51])
        assert pdu.name == "LMP_accepted"

    def test_bpcs_features_response(self):
        pdu = ll.dissect_lmp(bytes([0x00, 0x01]))
        assert isinstance(pdu, ll.BpcsPdu)
        assert pdu.subtype == ll.BPCS_FEATURES_RESPONSE
        pdu_tid = ll.dissect_lmp(bytes([0x01, 0x01]))
        assert pdu_tid.tid == 1

    def test_padding_repair(self):
        # A 17-octet record whose true PDU is 2 octets long: 15 pad
        # octets are discarded.
        true_pdu = bytes([0x07, 51])
        record = true_pdu + bytes(15)
        pdu = ll.dissect_lmp(record, padded_to_17=True)
        assert pdu == ll.dissect_lmp(true_pdu)
        assert len(ll.build_lmp(pdu)) == 2

    def test_padding_repair_idempotent(self):
        true_pdu = bytes([0x4E]) + bytes(8)  # features_req
        once = ll.dissect_lmp(true_pdu.ljust(17, b"\x00"), padded_to_17=True)
        again = ll.dissect_lmp(ll.build_lmp(once))
        assert once == again

    def test_padded_requires_17(self):
        with pytest.raises(InvariantViolation):
            ll.dissect_lmp(bytes([0x07, 51]), padded_to_17=True)

    def test_extended_opcode(self):
        raw = bytes([(127 << 1), 25]) + bytes(3)  # IO capability request
        pdu = ll.dissect_lmp(raw)
        assert pdu.extended_opcode == 25
        assert pdu.name == "LMP_IO_capability_req"

    @pytest.mark.parametrize("opcode, ext, name", [
        (124, 25, "LMP_escape1_unknown(0x19)"),  # a known extended opcode behind another escape
        (127, 0xFE, "LMP_escape4_unknown(0xfe)"),
    ])
    def test_an_unknown_escape_is_named_by_its_octets(self, opcode, ext, name):
        assert ll.LmpPdu(opcode, extended_opcode=ext).name == name

    def test_unknown_opcode(self):
        with pytest.raises(UnknownOpcode):
            ll.dissect_lmp(bytes([100 << 1]))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ll.dissect_lmp(bytes([0x4E]) + bytes(7))  # features_req wants 8

    def test_empty(self):
        with pytest.raises(LengthMismatch):
            ll.dissect_lmp(b"")


class TestBuildLmp:
    def test_nonconformant_bpcs_needs_flag(self):
        pdu = ll.BpcsPdu(subtype=0x95)
        with pytest.raises(InvariantViolation):
            ll.build_lmp(pdu)
        raw = ll.build_lmp(pdu, allow_nonconformant=True)
        assert raw == bytes([0x00, 0x95])
        tid1 = ll.build_lmp(ll.BpcsPdu(subtype=0x95, tid=1), allow_nonconformant=True)
        assert tid1 == bytes([0x01, 0x95])

    def test_oversize_params_rejected(self):
        with pytest.raises(InvariantViolation):
            ll.build_lmp(ll.LmpPdu(39, params=bytes(17)))

    def test_wrong_length_rejected_without_flag(self):
        with pytest.raises(InvariantViolation):
            ll.build_lmp(ll.LmpPdu(39, params=bytes(4)))
        raw = ll.build_lmp(ll.LmpPdu(39, params=bytes(4)), allow_nonconformant=True)
        assert len(raw) == 5

    def test_round_trip_fuzz(self):
        rng = random.Random(0x17A0)
        for _ in range(10_000):
            pdu = random_lmp_pdu(rng)
            assert ll.dissect_lmp(ll.build_lmp(pdu)) == pdu


class TestLcp:
    def test_vendor_random_address_change(self):
        address = bytes.fromhex("010203040506")
        pdu = ll.dissect_lcp(b"\xff\x04" + address)
        assert pdu.vendor is not None
        assert pdu.vendor.subtype == ll.LCP_VENDOR_RANDOM_ADDRESS_CHANGE
        assert pdu.vendor.params == address
        assert ll.build_lcp(pdu) == b"\xff\x04" + address

    def test_terminate_ind(self):
        pdu = ll.dissect_lcp(bytes([0x02, 0x13]))
        assert pdu.name == "LL_TERMINATE_IND"
        assert pdu.params == b"\x13"

    def test_empty_input(self):
        with pytest.raises(UnknownOpcode):
            ll.dissect_lcp(b"")

    def test_unknown_opcode(self):
        with pytest.raises(UnknownOpcode):
            ll.dissect_lcp(bytes([0x7E]))

    def test_unknown_vendor_subtype(self):
        with pytest.raises(UnknownVendorSubtype):
            ll.dissect_lcp(b"\xff\x09")
        with pytest.raises(UnknownVendorSubtype):  # no subtype octet at all
            ll.dissect_lcp(b"\xff")

    def test_length_validated(self):
        with pytest.raises(LengthMismatch):
            ll.dissect_lcp(bytes([0x08]) + bytes(3))

    def test_round_trip_fuzz(self):
        rng = random.Random(0x17A1)
        for _ in range(10_000):
            pdu = random_lcp_pdu(rng)
            assert ll.dissect_lcp(ll.build_lcp(pdu)) == pdu

    def test_all_vendor_subtypes(self):
        for subtype in (0x01, 0x02, 0x03, 0x04):
            pdu = ll.vendor_lcp(subtype, b"\xaa")
            assert ll.dissect_lcp(ll.build_lcp(pdu)) == pdu


class TestBpcsVocabulary:
    def test_all_conformant_subtypes(self):
        for subtype in range(0x06):
            pdu = ll.BpcsPdu(subtype=subtype, params=b"\x01")
            assert ll.dissect_lmp(ll.build_lmp(pdu)) == pdu

    def test_attack_subtype_representable(self):
        pdu = ll.BpcsPdu(subtype=0x95)
        assert not pdu.conformant
        raw = ll.build_lmp(pdu, allow_nonconformant=True)
        back = ll.dissect_lmp(raw)
        assert isinstance(back, ll.BpcsPdu) and back.subtype == 0x95


class TestRenderText:
    def test_bpcs_bfc_suspend(self):
        line = ll.render_text(ll.BpcsPdu(ll.BPCS_BFC_SUSPEND))
        assert "BPCS BFC Suspend" in line

    def test_non_pdu_rejected_at_boundary(self):
        from bcmdiag.diag import ToggleLmpLogging

        with pytest.raises(TypeError):
            ll.render_text(ToggleLmpLogging(True))

    def test_unknown_lcp_fallback(self):
        pdu = ll.LcpPdu(0x7E, b"")
        assert "LCP_unknown(0x7e)" in ll.render_text(pdu)

    def test_unknown_bpcs_fallback(self):
        assert "BPCS_unknown(0x95)" in ll.render_text(ll.BpcsPdu(subtype=0x95))

    def test_deterministic(self):
        pdu = ll.LmpPdu(39, params=bytes(8))
        assert ll.render_text(pdu, direction="RX", mac="11:22:33:44") == ll.render_text(
            pdu, direction="RX", mac="11:22:33:44"
        )
        assert "LMP_features_req" in ll.render_text(pdu)


# (class, fields, repr recorded when the PDUs were frozen dataclasses)
_VALUES = [
    (
        ll.OpcodeEntry,
        {"value": 39, "name": "LMP_features_req", "param_len": 8, "escape": False},
        "OpcodeEntry(value=39, name='LMP_features_req', param_len=8, escape=False)",
    ),
    (
        ll.LmpPdu,
        {"opcode": 3, "tid": 1, "params": b"\x33", "extended_opcode": None},
        "LmpPdu(opcode=3, tid=1, params=b'3', extended_opcode=None)",
    ),
    (
        ll.LmpPdu,
        {"opcode": 127, "tid": 0, "params": b"\x01\x00\x02", "extended_opcode": 25},
        "LmpPdu(opcode=127, tid=0, params=b'\\x01\\x00\\x02', extended_opcode=25)",
    ),
    (
        ll.BpcsPdu,
        {"subtype": 0x95, "tid": 1, "params": b""},
        "BpcsPdu(subtype=149, tid=1, params=b'')",
    ),
    (ll.VendorLcp, {"subtype": 4, "params": b"\xaa"}, "VendorLcp(subtype=4, params=b'\\xaa')"),
    (
        ll.LcpPdu,
        {"opcode": 2, "params": b"\x13", "vendor": None},
        "LcpPdu(opcode=2, params=b'\\x13', vendor=None)",
    ),
    (
        ll.LcpPdu,
        {"opcode": 0xFF, "params": b"\x04\xaa", "vendor": ll.VendorLcp(4, b"\xaa")},
        "LcpPdu(opcode=255, params=b'\\x04\\xaa', vendor=VendorLcp(subtype=4, params=b'\\xaa'))",
    ),
]
_VALUE_IDS = [
    f"{cls.__name__}-{i}" for i, (cls, _fields, _repr) in enumerate(_VALUES)
]


class TestPduValue:
    """Opcode entries and PDUs are immutable values: equal only to the
    same class with equal fields, hashed as their field tuple, read-only,
    with a repr that names their fields."""

    @pytest.mark.parametrize("cls, fields, text", _VALUES, ids=_VALUE_IDS)
    def test_equal_values_hash_equal(self, cls, fields, text):
        a, b = cls(*fields.values()), cls(**fields)
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(tuple(fields.values())) and len({a, b}) == 1

    @pytest.mark.parametrize("cls, fields, text", _VALUES, ids=_VALUE_IDS)
    def test_equal_only_to_its_own_class(self, cls, fields, text):
        pdu = cls(**fields)
        values = tuple(fields.values())
        for other in (values, list(values), None):
            assert pdu != other and other != pdu
            assert not pdu == other and not other == pdu
        for other_cls, other_fields, _text in _VALUES:
            if other_cls is not cls and len(other_fields) == len(fields):
                twin = other_cls(*values)
                assert pdu != twin and twin != pdu and not pdu == twin

    @pytest.mark.parametrize("cls, fields, text", _VALUES, ids=_VALUE_IDS)
    def test_attributes_are_read_only(self, cls, fields, text):
        pdu = cls(**fields)
        for attr in (*fields, "name", "extra"):
            with pytest.raises(AttributeError):
                setattr(pdu, attr, 0)
        assert [getattr(pdu, name) for name in fields] == list(fields.values())

    @pytest.mark.parametrize("cls, fields, text", _VALUES, ids=_VALUE_IDS)
    def test_repr(self, cls, fields, text):
        assert repr(cls(**fields)) == text

    @pytest.mark.parametrize("cls, fields, text", _VALUES, ids=_VALUE_IDS)
    def test_copy_and_pickle_round_trip(self, cls, fields, text):
        pdu = cls(**fields)
        for twin in (copy.copy(pdu), copy.deepcopy(pdu), pickle.loads(pickle.dumps(pdu))):
            assert twin == pdu and type(twin) is cls and repr(twin) == text

    def test_keywords_and_defaults(self):
        assert ll.LmpPdu(39) == ll.LmpPdu(opcode=39, tid=0, params=b"", extended_opcode=None)
        assert ll.BpcsPdu(subtype=1) == ll.BpcsPdu(1, 0, b"")
        assert ll.VendorLcp(4).params == b""
        assert ll.LcpPdu(opcode=2).vendor is None and ll.LcpPdu(2).params == b""
        assert ll.OpcodeEntry(1, "LMP_name_req", 1).escape is False
        with pytest.raises(TypeError):
            ll.LmpPdu()
        with pytest.raises(TypeError):
            ll.BpcsPdu(1, bogus=1)
        with pytest.raises(TypeError):
            ll.OpcodeEntry(1, "LMP_name_req")


def _near(length: int) -> list[int]:
    return [n for n in (length - 1, length, length + 1) if n >= 0]


def _by_value(table: dict) -> list:
    return sorted(table.values(), key=lambda e: e.value)


def _table_pdus():
    """Every opcode-table entry at its parameter length -1/0/+1 with tid
    0/1, LMP entries with and without an extended opcode octet; BPCS
    subtypes around 0x05 at the 17-octet edge; LCP vendor subtypes."""
    for tid in (0, 1):
        for entry in _by_value(ll.LMP_OPCODES):
            for n in _near(entry.param_len):
                for ext in (None, 25):
                    yield ll.LmpPdu(entry.value, tid, bytes(range(n)), ext)
        for ext in _by_value(ll.LMP_EXT_OPCODES):
            for n in _near(ext.param_len):
                for opcode in (126, ll.LMP_ESCAPE_4):
                    yield ll.LmpPdu(opcode, tid, bytes(range(n)), ext.value)
        for subtype in range(ll.BPCS_MAX_SUBTYPE + 2):
            for n in (0, 15, 16):
                yield ll.BpcsPdu(subtype, tid, bytes(range(n)))
    for entry in _by_value(ll.LCP_OPCODES):
        for n in _near(entry.param_len):
            yield ll.LcpPdu(entry.value, bytes(range(n)))
    for subtype in range(6):
        for body in (b"", b"\xaa"):
            yield ll.vendor_lcp(subtype, body)


def _verdict(pdu) -> str:
    build = ll.build_lcp if isinstance(pdu, ll.LcpPdu) else ll.build_lmp
    try:
        return f"{pdu!r} -> {build(pdu).hex()}"
    except InvariantViolation:
        return f"{pdu!r} -> refused"


class TestBuildVerdicts:
    """The conformant build's verdict on every table-derived PDU."""

    def test_verdict_table_pinned(self):
        verdicts = [_verdict(pdu) for pdu in _table_pdus()]
        refused = sum(v.endswith("refused") for v in verdicts)
        assert (len(verdicts), refused) == (1162, 924)
        digest = hashlib.sha256("\n".join(verdicts).encode()).hexdigest()
        assert digest == "098124da57ba1dcb102050aa3da0b83325e40b239ccd7b58426cafc9cc49f33e"

    @pytest.mark.parametrize(
        "pdu, expected",
        [
            (ll.LmpPdu(39, 1, bytes(8)), "4f" + "00" * 8),
            (ll.LmpPdu(39, 0, bytes(8), extended_opcode=25), None),
            (ll.LmpPdu(39, 0, bytes(7)), None),
            (ll.LmpPdu(127, 0, bytes(3), extended_opcode=25), "fe19000000"),
            (ll.LmpPdu(127, 0, bytes(3)), None),
            (ll.LmpPdu(126, 0, bytes(3), extended_opcode=25), None),
            (ll.BpcsPdu(5, 0, bytes(15)), "0005" + "00" * 15),
            (ll.BpcsPdu(5, 0, bytes(16)), None),
            (ll.BpcsPdu(6), None),
            (ll.LcpPdu(0x02, b"\x13"), "0213"),
            (ll.LcpPdu(0x02, b""), None),
            (ll.vendor_lcp(4, b"\xaa"), "ff04aa"),
            (ll.vendor_lcp(5), None),
        ],
    )
    def test_spot_verdicts(self, pdu, expected):
        shown = "refused" if expected is None else expected
        assert _verdict(pdu) == f"{pdu!r} -> {shown}"


class TestBuildByRoundTrip:
    """A conformant build returns only octets that its dissector gives
    back as an equal PDU; a nonconformant one serializes the fields as
    they are, within the 17-octet maximum."""

    def test_nonconformant_keeps_an_extended_octet_on_a_plain_opcode(self):
        pdu = ll.LmpPdu(100, 0, b"\x01", extended_opcode=0x20)
        assert ll.build_lmp(pdu, allow_nonconformant=True).hex() == "c82001"

    def test_nonconformant_escape_without_extended_opcode(self):
        pdu = ll.LmpPdu(ll.LMP_ESCAPE_4, 0, b"\x01\x02")
        assert ll.build_lmp(pdu, allow_nonconformant=True).hex() == "fe0102"

    def test_nonconformant_vendor_lcp_without_vendor_view(self):
        pdu = ll.LcpPdu(ll.LCP_VENDOR_OPCODE, b"\x04\xaa")
        assert ll.build_lcp(pdu, allow_nonconformant=True) == b"\xff\x04\xaa"
        with pytest.raises(InvariantViolation):
            ll.build_lcp(pdu)

    def test_17_octet_maximum_binds_a_nonconformant_escape(self):
        pdu = ll.LmpPdu(ll.LMP_ESCAPE_4, 0, bytes(16), extended_opcode=25)
        with pytest.raises(InvariantViolation, match="18 octets exceeds 17"):
            ll.build_lmp(pdu, allow_nonconformant=True)

    def test_tid_wider_than_one_bit_is_refused(self):
        with pytest.raises(InvariantViolation):
            ll.build_lmp(ll.LmpPdu(39, 2, bytes(8)))

    def test_refusal_carries_the_dissectors_reason(self):
        with pytest.raises(InvariantViolation, match="LMP_features_req must be 9 octets, got 8"):
            ll.build_lmp(ll.LmpPdu(39, params=bytes(7)))
        with pytest.raises(InvariantViolation, match="unknown vendor LCP subtype 0x09"):
            ll.build_lcp(ll.vendor_lcp(9))


_TIDS = st.integers(0, 3)


def _params(length: int):
    """Parameter octets of the table length, or of any length."""
    return st.binary(min_size=length, max_size=length) | st.binary(max_size=18)


_LINK_PDUS = st.one_of(
    st.sampled_from(_by_value(ll.LMP_OPCODES)).flatmap(
        lambda e: st.builds(
            ll.LmpPdu, st.just(e.value), _TIDS, _params(e.param_len),
            st.none() | st.integers(0, 255),
        )
    ),
    st.sampled_from(_by_value(ll.LMP_EXT_OPCODES)).flatmap(
        lambda e: st.builds(
            ll.LmpPdu, st.sampled_from(ll.LMP_ESCAPE_OPCODES), _TIDS, _params(e.param_len),
            st.just(e.value) | st.none(),
        )
    ),
    st.builds(ll.BpcsPdu, st.integers(0, 255), _TIDS, st.binary(max_size=17)),
    st.sampled_from(_by_value(ll.LCP_OPCODES)).flatmap(
        lambda e: st.builds(ll.LcpPdu, st.just(e.value), _params(e.param_len))
    ),
    st.builds(ll.vendor_lcp, st.integers(0, 255), st.binary(max_size=16)),
    st.builds(
        ll.LcpPdu, st.integers(0, 255), st.binary(max_size=18),
        st.none() | st.builds(ll.VendorLcp, st.integers(0, 255), st.binary(max_size=16)),
    ),
)


class TestBuildProperty:
    @settings(max_examples=1000, deadline=None)
    @given(pdu=_LINK_PDUS)
    def test_conformant_build_round_trips_or_refuses(self, pdu):
        if isinstance(pdu, ll.LcpPdu):
            build, dissect = ll.build_lcp, ll.dissect_lcp
        else:
            build, dissect = ll.build_lmp, ll.dissect_lmp
        try:
            raw = build(pdu)
        except InvariantViolation:
            return
        assert dissect(raw) == pdu
