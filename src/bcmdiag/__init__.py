"""Hardware-free toolkit for the Broadcom Bluetooth diagnostic
protocol: H4/diagnostic/link-layer wire codecs, a behavioral controller
emulator with switchable security profiles, capture export, and an
interactive diagnostics client.
"""

from .errors import (
    AlreadyLinked,
    BcmDiagError,
    InvariantViolation,
    LengthMismatch,
    MalformedBody,
    UnknownDiagCode,
    UnknownDirection,
    UnknownH4Type,
    UnknownOpcode,
    UnknownVendorSubtype,
)
from .h4 import (
    Direction,
    H4Frame,
    H4StreamDecoder,
    H4Type,
    HciCommand,
    HciEvent,
    decode_stream,
    encode_frame,
)
from .diag import DiagCode, DiagMessage, MemAccessType, build_diag, parse_diag
from .ll import BpcsPdu, LcpPdu, LmpPdu, build_lcp, build_lmp, dissect_lcp, dissect_lmp, render_text

__version__ = "0.1.0"

__all__ = [
    "AlreadyLinked",
    "BcmDiagError",
    "BpcsPdu",
    "DiagCode",
    "DiagMessage",
    "Direction",
    "H4Frame",
    "H4StreamDecoder",
    "H4Type",
    "HciCommand",
    "HciEvent",
    "InvariantViolation",
    "LcpPdu",
    "LengthMismatch",
    "LmpPdu",
    "MalformedBody",
    "MemAccessType",
    "UnknownDiagCode",
    "UnknownDirection",
    "UnknownH4Type",
    "UnknownOpcode",
    "UnknownVendorSubtype",
    "build_diag",
    "build_lcp",
    "build_lmp",
    "decode_stream",
    "dissect_lcp",
    "dissect_lmp",
    "encode_frame",
    "parse_diag",
    "render_text",
]
