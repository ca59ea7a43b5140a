"""Link-layer control PDU codecs: Classic LMP, BLE LCP, and the
Broadcom vendor escape spaces in both.

The standard opcode/length tables live in versioned data files under
``tables/`` so the protocol knowledge stays auditable and out of code;
tests pin their hashes.  ``dissect_*`` hold the one rule of which
opcodes exist and how long their PDUs are; ``build_*`` serialize the
fields and check the octets by dissecting them back.  Two vendor quirks
are handled here:

* Classic PDUs reported by the diagnostic channel are always padded to
  the 17-octet maximum; ``dissect_lmp(..., padded_to_17=True)`` repairs
  that via the opcode table before constructing the PDU.
* LMP opcode 0x00 is undefined in the standard and carries the BPCS
  vendor family; LCP opcode 0xff carries the BLE vendor extensions.
"""

from __future__ import annotations

import os

from .errors import (
    BcmDiagError,
    InvariantViolation,
    LengthMismatch,
    UnknownOpcode,
    UnknownVendorSubtype,
)
from .h4 import value_class

LMP_MAX_PDU = 17
LMP_ESCAPE_OPCODES = (124, 125, 126, 127)
LMP_ESCAPE_4 = 127
BPCS_OPCODE = 0x00
LCP_VENDOR_OPCODE = 0xFF


@value_class
class OpcodeEntry:
    value: int
    name: str
    param_len: int
    escape: bool = False


def _load_table(filename: str, with_escape: bool) -> dict[int, OpcodeEntry]:
    table: dict[int, OpcodeEntry] = {}
    with open(os.path.join(os.path.dirname(__file__), "tables", filename), encoding="utf-8") as fh:
        text = fh.read()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        value, name, param_len = int(parts[0]), parts[1], int(parts[2])
        escape = with_escape and parts[3] == "1"
        table[value] = OpcodeEntry(value, name, param_len, escape)
    return table


LMP_OPCODES = _load_table("lmp_opcodes.tsv", with_escape=True)
LMP_EXT_OPCODES = _load_table("lmp_ext_opcodes.tsv", with_escape=False)
LCP_OPCODES = _load_table("lcp_opcodes.tsv", with_escape=False)

LMP_NAME_TO_OPCODE = {e.name: e.value for e in LMP_OPCODES.values()}
LMP_EXT_NAME_TO_OPCODE = {e.name: e.value for e in LMP_EXT_OPCODES.values()}
LCP_NAME_TO_OPCODE = {e.name: e.value for e in LCP_OPCODES.values()}

# Vendor BPCS subtypes carried under LMP opcode 0x00.  Anything above
# BPCS_MAX_SUBTYPE is non-conformant; representable because the
# boundary-check regression needs to express exactly those packets.
BPCS_FEATURES_REQUEST = 0x00
BPCS_FEATURES_RESPONSE = 0x01
BPCS_NOT_ACCEPT = 0x02
BPCS_BFC_SUSPEND = 0x03
BPCS_BFC_RESUME = 0x04
BPCS_ACCEPT = 0x05
BPCS_MAX_SUBTYPE = 0x05

BPCS_NAMES = {
    BPCS_FEATURES_REQUEST: "Features Request",
    BPCS_FEATURES_RESPONSE: "Features Response",
    BPCS_NOT_ACCEPT: "Not Accept",
    BPCS_BFC_SUSPEND: "BFC Suspend",
    BPCS_BFC_RESUME: "BFC Resume Request/Response",
    BPCS_ACCEPT: "BPCS Accept",
}

# Vendor LCP subtypes carried under opcode 0xff.  Parameter bodies are
# opaque; nothing validates their length.
LCP_VENDOR_FEATURE_REQUEST = 0x01
LCP_VENDOR_FEATURE_RESPONSE = 0x02
LCP_VENDOR_ENABLE_BCS_TIMELINE = 0x03
LCP_VENDOR_RANDOM_ADDRESS_CHANGE = 0x04

LCP_VENDOR_NAMES = {
    LCP_VENDOR_FEATURE_REQUEST: "Vendor Feature Request",
    LCP_VENDOR_FEATURE_RESPONSE: "Vendor Feature Response",
    LCP_VENDOR_ENABLE_BCS_TIMELINE: "Enable BCS Timeline",
    LCP_VENDOR_RANDOM_ADDRESS_CHANGE: "Random Address Change",
}


@value_class
class LmpPdu:
    """Classic link manager PDU.

    The first wire octet packs ``(opcode << 1) | tid``; escape opcodes
    (124..127) are followed by an extended opcode octet.  Total length
    never exceeds 17 octets.
    """

    opcode: int
    tid: int = 0
    params: bytes = b""
    extended_opcode: int | None = None

    @property
    def name(self) -> str:
        if self.extended_opcode is not None:
            ext = LMP_EXT_OPCODES.get(self.extended_opcode)
            if ext is not None and self.opcode == LMP_ESCAPE_4:
                return ext.name
            return f"LMP_escape{self.opcode - 123}_unknown(0x{self.extended_opcode:02x})"
        entry = LMP_OPCODES.get(self.opcode)
        return entry.name if entry else f"LMP_unknown(0x{self.opcode:02x})"


@value_class
class BpcsPdu:
    """Broadcom BPCS vendor PDU (LMP opcode 0x00 + subtype octet).

    Parameter bodies past the subtype are opaque.
    """

    subtype: int
    tid: int = 0
    params: bytes = b""

    @property
    def conformant(self) -> bool:
        return self.subtype <= BPCS_MAX_SUBTYPE

    @property
    def name(self) -> str:
        base = BPCS_NAMES.get(self.subtype)
        return f"BPCS {base}" if base else f"BPCS_unknown(0x{self.subtype:02x})"


@value_class
class VendorLcp:
    subtype: int
    params: bytes = b""

    @property
    def name(self) -> str:
        base = LCP_VENDOR_NAMES.get(self.subtype)
        return f"LCP {base}" if base else f"LCP_vendor_unknown(0x{self.subtype:02x})"


@value_class
class LcpPdu:
    """BLE link-layer control PDU; ``vendor`` is populated iff the
    opcode is the 0xff vendor escape (``params`` then holds the raw
    octets after the opcode, subtype included)."""

    opcode: int
    params: bytes = b""
    vendor: VendorLcp | None = None

    @property
    def name(self) -> str:
        if self.vendor is not None:
            return self.vendor.name
        entry = LCP_OPCODES.get(self.opcode)
        return entry.name if entry else f"LCP_unknown(0x{self.opcode:02x})"


def vendor_lcp(subtype: int, body: bytes = b"") -> LcpPdu:
    """Construct a consistent vendor-escape LCP PDU."""
    return LcpPdu(
        LCP_VENDOR_OPCODE,
        bytes([subtype]) + body,
        VendorLcp(subtype, bytes(body)),
    )


def dissect_lmp(raw: bytes, padded_to_17: bool = False) -> LmpPdu | BpcsPdu:
    """Dissect a Classic link-layer PDU.

    With ``padded_to_17`` the input must be exactly 17 octets and is
    truncated to the opcode's true length first (the diagnostic channel
    pads every received PDU to the maximum).  BPCS PDUs have no length
    table, so their padding cannot be repaired and is kept.
    """
    if not raw:
        raise LengthMismatch("empty LMP PDU")
    if padded_to_17 and len(raw) != LMP_MAX_PDU:
        raise InvariantViolation(
            f"padded record must be exactly {LMP_MAX_PDU} octets, got {len(raw)}"
        )
    first = raw[0]
    tid = first & 1
    opcode = first >> 1

    if opcode == BPCS_OPCODE:
        if len(raw) < 2:
            raise LengthMismatch("BPCS PDU lacks a subtype octet")
        return BpcsPdu(subtype=raw[1], tid=tid, params=bytes(raw[2:]))

    entry = LMP_OPCODES.get(opcode)
    if entry is None:
        raise UnknownOpcode(opcode)
    head, true_len, extended_opcode = 1, 1 + entry.param_len, None
    if entry.escape:
        if len(raw) < 2:
            raise LengthMismatch(f"{entry.name} requires an extended opcode octet")
        extended_opcode = raw[1]
        ext = LMP_EXT_OPCODES.get(extended_opcode) if opcode == LMP_ESCAPE_4 else None
        if ext is None:
            raise UnknownOpcode(extended_opcode, kind=f"{entry.name} extended")
        head, true_len = 2, 2 + ext.param_len
    if len(raw) != true_len and not padded_to_17:
        raise LengthMismatch(f"{entry.name} must be {true_len} octets, got {len(raw)}")
    return LmpPdu(opcode, tid, bytes(raw[head:true_len]), extended_opcode)


def _checked(raw: bytes, pdu: LinkPdu, dissect) -> bytes:
    """``raw`` if ``dissect`` gives back a PDU equal to ``pdu``; else
    InvariantViolation with the dissector's reason."""
    try:
        back = dissect(raw)
    except BcmDiagError as exc:
        raise InvariantViolation(str(exc)) from exc
    if back != pdu:
        raise InvariantViolation(f"{pdu!r} dissects as {back!r}")
    return raw


def build_lmp(pdu: LmpPdu | BpcsPdu, allow_nonconformant: bool = False) -> bytes:
    """Serialize a Classic PDU, checked by dissecting it back;
    `allow_nonconformant` waives that check and the BPCS subtype bound
    so attack packets can be constructed.  An LmpPdu never exceeds 17
    octets."""
    if isinstance(pdu, BpcsPdu):
        if not (allow_nonconformant or pdu.conformant):
            raise InvariantViolation(
                f"BPCS subtype 0x{pdu.subtype:02x} exceeds 0x{BPCS_MAX_SUBTYPE:02x}"
            )
        raw = bytes([(BPCS_OPCODE << 1) | (pdu.tid & 1), pdu.subtype]) + pdu.params
    else:
        ext = b"" if pdu.extended_opcode is None else bytes([pdu.extended_opcode])
        raw = bytes([((pdu.opcode & 0x7F) << 1) | (pdu.tid & 1)]) + ext + pdu.params
    if len(raw) > LMP_MAX_PDU and not (allow_nonconformant and isinstance(pdu, BpcsPdu)):
        raise InvariantViolation(f"LMP PDU of {len(raw)} octets exceeds {LMP_MAX_PDU}")
    return raw if allow_nonconformant else _checked(raw, pdu, dissect_lmp)


def dissect_lcp(raw: bytes) -> LcpPdu:
    """Dissect a BLE link-layer control PDU (vendor escape included)."""
    if not raw:
        raise UnknownOpcode(None, kind="LCP")
    opcode = raw[0]
    if opcode == LCP_VENDOR_OPCODE:
        if len(raw) < 2:
            raise UnknownVendorSubtype(-1)
        subtype = raw[1]
        if subtype not in LCP_VENDOR_NAMES:
            raise UnknownVendorSubtype(subtype)
        return vendor_lcp(subtype, raw[2:])
    entry = LCP_OPCODES.get(opcode)
    if entry is None:
        raise UnknownOpcode(opcode, kind="LCP")
    if len(raw) - 1 != entry.param_len:
        raise LengthMismatch(
            f"{entry.name} carries {entry.param_len} CtrData octets, got {len(raw) - 1}"
        )
    return LcpPdu(opcode, bytes(raw[1:]))


def build_lcp(pdu: LcpPdu, allow_nonconformant: bool = False) -> bytes:
    """Serialize a BLE PDU (a vendor PDU's ``params`` start with its
    subtype), checked by dissecting it back unless `allow_nonconformant`."""
    raw = bytes([pdu.opcode]) + pdu.params
    return raw if allow_nonconformant else _checked(raw, pdu, dissect_lcp)


LinkPdu = LmpPdu | BpcsPdu | LcpPdu


def render_text(pdu: LinkPdu, direction: str | None = None, mac: str | None = None) -> str:
    """One deterministic line for a dissected PDU: optional direction
    and MAC context, name, then parameters in hex.  Unknown opcodes and
    subtypes render with a hex fallback name instead of raising."""
    if isinstance(pdu, (LmpPdu, BpcsPdu)):
        detail = f"tid={pdu.tid}"
        params = pdu.params
    elif isinstance(pdu, LcpPdu):
        detail = None
        params = pdu.vendor.params if pdu.vendor is not None else pdu.params
    else:
        raise TypeError(f"not a link-layer PDU: {type(pdu).__name__}")
    parts = (direction, mac, pdu.name, detail, params.hex() if params else "-")
    return " ".join(part for part in parts if part)
