"""Link-layer control PDU codecs: Classic LMP, BLE LCP, and the
Broadcom vendor escape spaces in both.

The standard opcode/length tables live in versioned data files under
``tables/`` so the protocol knowledge stays auditable and out of code;
tests pin their hashes.  Two vendor quirks are handled here:

* Classic PDUs reported by the diagnostic channel are always padded to
  the 17-octet maximum; ``dissect_lmp(..., padded_to_17=True)`` repairs
  that via the opcode table before constructing the PDU.
* LMP opcode 0x00 is undefined in the standard and carries the BPCS
  vendor family; LCP opcode 0xff carries the BLE vendor extensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .errors import (
    InvariantViolation,
    LengthMismatch,
    UnknownOpcode,
    UnknownVendorSubtype,
)

LMP_MAX_PDU = 17
LMP_ESCAPE_OPCODES = (124, 125, 126, 127)
LMP_ESCAPE_4 = 127
BPCS_OPCODE = 0x00
LCP_VENDOR_OPCODE = 0xFF


@dataclass(frozen=True)
class OpcodeEntry:
    value: int
    name: str
    param_len: int
    escape: bool = False


def _load_table(filename: str, with_escape: bool) -> dict[int, OpcodeEntry]:
    table: dict[int, OpcodeEntry] = {}
    text = resources.files("bcmdiag.tables").joinpath(filename).read_text("utf-8")
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class VendorLcp:
    subtype: int
    params: bytes = b""

    @property
    def name(self) -> str:
        base = LCP_VENDOR_NAMES.get(self.subtype)
        return f"LCP {base}" if base else f"LCP_vendor_unknown(0x{self.subtype:02x})"


@dataclass(frozen=True)
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


def lmp_true_length(first_octet: int, second_octet: int | None) -> int:
    """Total on-wire length of a PDU from its opcode octet(s), per the
    opcode tables.  Used to repair diagnostic records padded to 17."""
    opcode = first_octet >> 1
    entry = LMP_OPCODES.get(opcode)
    if entry is None:
        raise UnknownOpcode(opcode)
    if not entry.escape:
        return 1 + entry.param_len
    if second_octet is None:
        raise LengthMismatch(f"{entry.name} requires an extended opcode octet")
    ext = LMP_EXT_OPCODES.get(second_octet) if opcode == LMP_ESCAPE_4 else None
    if ext is None:
        raise UnknownOpcode(second_octet, kind=f"{entry.name} extended")
    return 2 + ext.param_len


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

    second = raw[1] if len(raw) >= 2 else None
    true_len = lmp_true_length(first, second)
    if padded_to_17:
        raw = raw[:true_len]
    elif len(raw) != true_len:
        raise LengthMismatch(
            f"{LMP_OPCODES[opcode].name} must be {true_len} octets, got {len(raw)}"
        )
    if LMP_OPCODES[opcode].escape:
        return LmpPdu(opcode, tid, bytes(raw[2:]), extended_opcode=raw[1])
    return LmpPdu(opcode, tid, bytes(raw[1:]))


def build_lmp(pdu: LmpPdu | BpcsPdu, allow_nonconformant: bool = False) -> bytes:
    """Serialize a Classic PDU; `allow_nonconformant` waives the subtype
    and length checks so attack packets can be constructed."""
    if isinstance(pdu, BpcsPdu):
        out = bytes([(BPCS_OPCODE << 1) | (pdu.tid & 1), pdu.subtype]) + pdu.params
        if not allow_nonconformant:
            if not pdu.conformant:
                raise InvariantViolation(
                    f"BPCS subtype 0x{pdu.subtype:02x} exceeds 0x{BPCS_MAX_SUBTYPE:02x}"
                )
            if len(out) > LMP_MAX_PDU:
                raise InvariantViolation(f"BPCS PDU of {len(out)} octets exceeds {LMP_MAX_PDU}")
        return out

    entry = LMP_OPCODES.get(pdu.opcode)
    first = bytes([((pdu.opcode & 0x7F) << 1) | (pdu.tid & 1)])
    if entry is not None and entry.escape:
        if pdu.extended_opcode is None:
            raise InvariantViolation(f"{entry.name} requires an extended opcode")
        out = first + bytes([pdu.extended_opcode]) + pdu.params
        if not allow_nonconformant:
            ext = (
                LMP_EXT_OPCODES.get(pdu.extended_opcode)
                if pdu.opcode == LMP_ESCAPE_4
                else None
            )
            if ext is None:
                raise InvariantViolation(
                    f"no extended opcode 0x{pdu.extended_opcode:02x} under {entry.name}"
                )
            if len(pdu.params) != ext.param_len:
                raise InvariantViolation(
                    f"{ext.name} takes {ext.param_len} parameter octets, "
                    f"got {len(pdu.params)}"
                )
        return out

    out = first + pdu.params
    if not allow_nonconformant:
        if entry is None:
            raise InvariantViolation(f"unknown LMP opcode {pdu.opcode}")
        if pdu.extended_opcode is not None:
            raise InvariantViolation(f"{entry.name} takes no extended opcode")
        if len(pdu.params) != entry.param_len:
            raise InvariantViolation(
                f"{entry.name} takes {entry.param_len} parameter octets, "
                f"got {len(pdu.params)}"
            )
    if len(out) > LMP_MAX_PDU:
        raise InvariantViolation(f"LMP PDU of {len(out)} octets exceeds {LMP_MAX_PDU}")
    return out


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
    if pdu.vendor is not None or pdu.opcode == LCP_VENDOR_OPCODE:
        if pdu.vendor is None:
            raise InvariantViolation("vendor LCP PDU lacks its subtype view")
        if not allow_nonconformant and pdu.vendor.subtype not in LCP_VENDOR_NAMES:
            raise InvariantViolation(
                f"vendor LCP subtype 0x{pdu.vendor.subtype:02x} is not defined"
            )
        return bytes([LCP_VENDOR_OPCODE, pdu.vendor.subtype]) + pdu.vendor.params
    entry = LCP_OPCODES.get(pdu.opcode)
    if not allow_nonconformant:
        if entry is None:
            raise InvariantViolation(f"unknown LCP opcode 0x{pdu.opcode:02x}")
        if len(pdu.params) != entry.param_len:
            raise InvariantViolation(
                f"{entry.name} carries {entry.param_len} CtrData octets, "
                f"got {len(pdu.params)}"
            )
    return bytes([pdu.opcode]) + pdu.params


LinkPdu = LmpPdu | BpcsPdu | LcpPdu


def render_text(pdu: LinkPdu, direction: str | None = None, mac: str | None = None) -> str:
    """One deterministic line for a dissected PDU: optional direction
    and MAC context, name, then parameters in hex.  Unknown opcodes and
    subtypes render with a hex fallback name instead of raising."""
    if not isinstance(pdu, (LmpPdu, BpcsPdu, LcpPdu)):
        raise TypeError(f"not a link-layer PDU: {type(pdu).__name__}")
    if isinstance(pdu, (LmpPdu, BpcsPdu)):
        detail = f"tid={pdu.tid}"
        params = pdu.params
    else:
        detail = ""
        params = pdu.vendor.params if pdu.vendor is not None else pdu.params
    parts = []
    if direction:
        parts.append(direction)
    if mac:
        parts.append(mac)
    parts.append(pdu.name)
    if detail:
        parts.append(detail)
    parts.append(params.hex() if params else "-")
    return " ".join(parts)
