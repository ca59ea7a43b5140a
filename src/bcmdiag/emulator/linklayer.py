"""The Classic (LMP) and LE (LCP) link layers as data: one ``LinkLayer``
record each, with its setup script (``ScriptStep`` values, each carrying
its parameter octets) and the PDUs a controller sends unchanged, built
and checked once at import.  The controller runs one path over either
record."""

from __future__ import annotations

import itertools
import struct
from collections.abc import Callable
from enum import Enum

from .. import diag, hci, ll
from ..diag import LMP_RECORD_PAYLOAD_LEN, DiagMessage
from ..errors import BcmDiagError
from ..h4 import value_class
from .link import KIND_LCP, KIND_LMP

# Feature masks advertised during setup; arbitrary but fixed so streams
# stay byte-stable.
CLASSIC_FEATURES = bytes.fromhex("bffecffedbff7b87")
LE_FEATURES = bytes.fromhex("1f00000000000000")
# Version, company and subversion, the same for LMP and LL.
LMP_VERSION_PARAMS = struct.pack("<BHH", hci.LMP_VERSION, hci.MANUFACTURER, hci.LMP_SUBVERSION)


class Role(Enum):
    # Values double as the LMP transaction ID of exchanges each role starts.
    MASTER = 0
    SLAVE = 1


class Phase(Enum):
    LMP_SETUP = 1  # the values go on the wire in `stats conn` records
    CONNECTED = 2
    SSP_PENDING = 3
    ENCRYPTED = 4


class Connection:
    __slots__ = ("handle", "peer_mac", "role", "tid", "layer", "phase",
                 "script_cursor", "ssp_confirmed")

    def __init__(self, handle: int, peer_mac: bytes, role: Role, layer: LinkLayer) -> None:
        self.handle = handle
        self.peer_mac = peer_mac
        self.role = role
        self.tid = role._value_  # a plain int: the ``value`` property is Python code
        self.layer = layer  # its identity: compared with ``is``, never looked up
        self.phase = Phase.LMP_SETUP
        self.script_cursor = 0
        self.ssp_confirmed = False


@value_class
class ScriptStep:
    role: Role  # the end that sends it
    pdu_name: str
    params: bytes | None = None  # None: the _PDU_PARAMS body


_NOT_ALLOWED = bytes([hci.ERR_LMP_PDU_NOT_ALLOWED])
_HOST_CONNECTION = bytes([ll.LMP_NAME_TO_OPCODE["LMP_host_connection_req"]])
DHKEY_CHECK = bytes([ll.LMP_NAME_TO_OPCODE["LMP_DHkey_Check"]])
START_ENCRYPTION = bytes([ll.LMP_NAME_TO_OPCODE["LMP_start_encryption_req"]])

# Connection establishment, played over the virtual link; the initiator
# owns the master role, and the first step opens a connection.
CLASSIC_SETUP = (
    ScriptStep(Role.MASTER, "LMP_features_req"),
    ScriptStep(Role.SLAVE, "LMP_features_res"),
    ScriptStep(Role.MASTER, "LMP_host_connection_req"),
    ScriptStep(Role.SLAVE, "LMP_accepted", _HOST_CONNECTION),
    ScriptStep(Role.MASTER, "LMP_setup_complete"),
    ScriptStep(Role.SLAVE, "LMP_setup_complete"),
)
LE_SETUP = (
    ScriptStep(Role.MASTER, "LL_FEATURE_REQ"),
    ScriptStep(Role.SLAVE, "LL_FEATURE_RSP"),
    ScriptStep(Role.MASTER, "LL_VERSION_IND"),
    ScriptStep(Role.SLAVE, "LL_VERSION_IND"),
)

# Bodies of the PDUs this controller sends by name (LMP and LCP names
# never collide); anything unlisted gets a zero body of its table length.
_PDU_PARAMS = {
    "LMP_features_req": CLASSIC_FEATURES,
    "LMP_features_res": CLASSIC_FEATURES,
    "LMP_version_req": LMP_VERSION_PARAMS,
    "LMP_version_res": LMP_VERSION_PARAMS,
    "LL_FEATURE_REQ": LE_FEATURES,
    "LL_FEATURE_RSP": LE_FEATURES,
    "LL_VERSION_IND": LMP_VERSION_PARAMS,
}
# Requests answered with a fixed reply: request name -> reply name.
REPLIES = {
    "LMP_features_req": "LMP_features_res",
    "LMP_version_req": "LMP_version_res",
    "LL_FEATURE_REQ": "LL_FEATURE_RSP",
    "LL_PING_REQ": "LL_PING_RSP",
}
# The rejections of either layer.  A PDU with no connection to live on,
# from a firewalled or an unconnected peer, is refused unless it is one:
# answering a rejection could bounce between two ends forever.
REJECTIONS = frozenset(
    {"LMP_not_accepted", "LMP_not_accepted_ext", "LL_REJECT_IND", "LL_REJECT_EXT_IND"}
)
# BPCS request subtype -> the subtype that answers it on a live link.
BPCS_REPLIES = {
    ll.BPCS_FEATURES_REQUEST: ll.BPCS_FEATURES_RESPONSE,
    ll.BPCS_BFC_SUSPEND: ll.BPCS_ACCEPT,
    ll.BPCS_BFC_RESUME: ll.BPCS_ACCEPT,
}


def _lmp_log_record(sent: bool, peer_mac: bytes, pdu: bytes) -> diag.LmpLogRecord:
    # Records always carry the 17-octet maximum; receive padding is the
    # documented chip quirk, and the fixed envelope leaves no way to
    # carry a true length for sent PDUs either.
    padded = pdu.ljust(LMP_RECORD_PAYLOAD_LEN, b"\x00")[:LMP_RECORD_PAYLOAD_LEN]
    return diag.LmpLogRecord(sent=sent, low_mac=hci.low_mac(peer_mac), payload=padded)


def lmp_not_accepted(opcode: int, tid: int = 0) -> bytes:
    return CLASSIC_LINK.octets("LMP_not_accepted", tid, bytes([opcode & 0x7F]) + _NOT_ALLOWED)


def lmp_injectable(raw: bytes) -> bool:
    """Injection validates standard opcodes and lengths; the vendor
    space (opcode 0) passes with any subtype -- the receiving side's
    missing range check is exactly the published bug."""
    if not raw or len(raw) > ll.LMP_MAX_PDU:
        return False
    try:
        ll.dissect_lmp(raw)
    except BcmDiagError:
        return False
    return True


@value_class
class LinkLayer:
    """Everything the Classic (LMP) and LE (LCP) link layers do
    differently; the controller runs one path over either record."""

    kind: str  # air-link traffic kind; upper-cased in audit notes
    dissect: Callable[[bytes], object]
    build: Callable[[int, int, bytes], bytes]  # (opcode, tid, params) -> octets
    name_to_opcode: dict[str, int]
    opcodes: dict[int, ll.OpcodeEntry]
    log_record: Callable[[bool, bytes, bytes], DiagMessage]  # (sent, peer MAC, octets)
    # The refusal of a PDU's octets, or None when they name nothing to refuse.
    reject: Callable[[bytes], bytes | None]
    refuse_undissectable: bool
    # The answer on a live link to a PDU no handler takes: (opcode, tid) -> octets.
    unhandled: Callable[[int, int], bytes]
    script: tuple[ScriptStep, ...]  # the connection setup; its first step opens it
    detach: str  # the PDU that ends a connection
    # (status, handle, role, peer MAC on the wire) -> (event code, parameters)
    connection_complete: Callable[[int, int, int, bytes], tuple[int, bytes]]
    # The PDUs the controller sends unchanged, built at import: (name, tid,
    # params or None for the _PDU_PARAMS body) -> octets, and octets -> PDU.
    constants: dict[tuple[str, int, bytes | None], bytes]
    pdus: dict[bytes, ll.LinkPdu]

    def octets(self, name: str, tid: int, params: bytes | None = None) -> bytes:
        """A constant's octets, or the PDU built from host-given ``params``."""
        return self.constants.get((name, tid, params)) or self.build(
            self.name_to_opcode[name], tid, params)


CLASSIC_LINK = LinkLayer(
    kind=KIND_LMP,
    dissect=ll.dissect_lmp,
    build=lambda opcode, tid, params: ll.build_lmp(ll.LmpPdu(opcode, tid, params)),
    name_to_opcode=ll.LMP_NAME_TO_OPCODE,
    opcodes=ll.LMP_OPCODES,
    log_record=_lmp_log_record,
    reject=lambda raw: lmp_not_accepted(raw[0] >> 1) if raw else None,
    refuse_undissectable=True,
    unhandled=lmp_not_accepted,
    script=CLASSIC_SETUP,
    detach="LMP_detach",
    connection_complete=lambda status, handle, _role, wire: (
        hci.EVT_CONNECTION_COMPLETE, hci.connection_complete(status, handle, wire)
    ),
    constants={}, pdus={},
)

LE_LINK = LinkLayer(
    kind=KIND_LCP,
    dissect=ll.dissect_lcp,
    build=lambda opcode, _tid, params: ll.build_lcp(ll.LcpPdu(opcode, params)),
    name_to_opcode=ll.LCP_NAME_TO_OPCODE,
    opcodes=ll.LCP_OPCODES,
    # A record holds at most MAX_PAYLOAD octets; a longer PDU is cut, as LMP's at 17.
    log_record=lambda sent, peer_mac, pdu: diag.LcpLogRecord(
        sent=sent, full_mac=peer_mac, payload=pdu[: diag.LcpLogRecord.MAX_PAYLOAD]
    ),
    reject=lambda _raw: LE_LINK.octets("LL_REJECT_IND", 0, _NOT_ALLOWED),
    refuse_undissectable=False,
    unhandled=lambda opcode, _tid: LE_LINK.octets("LL_UNKNOWN_RSP", 0, bytes([opcode])),
    script=LE_SETUP,
    detach="LL_TERMINATE_IND",
    connection_complete=lambda status, handle, role, wire: (
        hci.EVT_LE_META, hci.le_connection_complete(status, handle, role, wire)
    ),
    constants={}, pdus={},
)


def _build_constants(layer: LinkLayer, *answers: tuple[str, bytes | None]) -> None:
    """Fill ``layer``'s tables with its setup script, its REPLIES and
    ``answers``, each for both transaction IDs; ``build`` checks each PDU by dissecting it."""
    opcodes = layer.name_to_opcode
    script = tuple((step.pdu_name, step.params) for step in layer.script)
    replies = tuple((reply, None) for reply in REPLIES.values() if reply in opcodes)
    for (name, params), tid in itertools.product(script + replies + answers, (0, 1)):
        body = params or _PDU_PARAMS.get(name, bytes(layer.opcodes[opcodes[name]].param_len))
        raw = layer.constants[name, tid, params] = layer.build(opcodes[name], tid, body)
        layer.pdus[raw] = layer.dissect(raw)


_build_constants(
    CLASSIC_LINK, ("LMP_accepted", DHKEY_CHECK), ("LMP_accepted", START_ENCRYPTION),
    ("LMP_not_accepted", START_ENCRYPTION + _NOT_ALLOWED),
    ("LMP_not_accepted", bytes([ll.BPCS_OPCODE]) + _NOT_ALLOWED))
_build_constants(LE_LINK, ("LL_REJECT_IND", _NOT_ALLOWED))

LINK_BY_KIND = {KIND_LMP: CLASSIC_LINK, KIND_LCP: LE_LINK}
# Connection-creating HCI opcode -> its link layer.
CREATE_LINK = {
    hci.OPCODE_CREATE_CONNECTION: CLASSIC_LINK,
    hci.OPCODE_LE_CREATE_CONNECTION: LE_LINK,
}
