"""H4 serial framing codec.

One byte stream multiplexes HCI commands, events, ACL/SCO data and the
Broadcom vendor channels (diagnostics, message queue put, WICED).  The
leading octet of every frame tags the traffic type; the rest of the
layout is type specific.  Standard HCI traffic is self-delimiting via
its length fields; the vendor channels carry no length field, so they
travel in a fixed 64-octet envelope (1 type octet + 63 payload octets,
zero padded).  The envelope size is a convention of this toolkit, not
something the chip documents -- it is flagged again wherever it leaks
into files.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from enum import IntEnum

from .errors import InvariantViolation, UnknownDirection, UnknownH4Type

# Payload octets in one fixed-size vendor-channel envelope (type octet
# excluded).  Total frame size on the wire is DIAG_FRAME_LEN.
DIAG_PAYLOAD_LEN = 63
DIAG_FRAME_LEN = 1 + DIAG_PAYLOAD_LEN


class H4Type(IntEnum):
    HCI_COMMAND = 0x01
    ACL_DATA = 0x02
    SCO_DATA = 0x03
    HCI_EVENT = 0x04
    DIAG = 0x07
    MSG_QUEUE_PUT = 0x0A
    WICED = 0x19


class Direction(IntEnum):
    """Which way a frame crossed the host/controller boundary."""

    HOST_TO_CONTROLLER = 0
    CONTROLLER_TO_HOST = 1

    @property
    def arrow(self) -> str:
        return "<<" if self else ">>"  # CONTROLLER_TO_HOST is 1


# Type tag -> (type, header octets after the tag, octets of the
# little-endian length field ending the header).  The payload is the
# header plus what that field counts; a vendor envelope has no length
# field, its header is the whole envelope.
_FRAMING: dict[int, tuple[H4Type, int, int]] = {
    H4Type.HCI_COMMAND: (H4Type.HCI_COMMAND, 3, 1),
    H4Type.ACL_DATA: (H4Type.ACL_DATA, 4, 2),
    H4Type.SCO_DATA: (H4Type.SCO_DATA, 3, 1),
    H4Type.HCI_EVENT: (H4Type.HCI_EVENT, 2, 1),
    H4Type.DIAG: (H4Type.DIAG, DIAG_PAYLOAD_LEN, 0),
    H4Type.MSG_QUEUE_PUT: (H4Type.MSG_QUEUE_PUT, DIAG_PAYLOAD_LEN, 0),
    H4Type.WICED: (H4Type.WICED, DIAG_PAYLOAD_LEN, 0),
}

ENVELOPE_TYPES = frozenset(t for t, (_t, _need, width) in _FRAMING.items() if not width)
_DIRECTIONS = (Direction.HOST_TO_CONTROLLER, Direction.CONTROLLER_TO_HOST)
# Read per frame, so plain names: an enum class read costs about 0.15 us.
_HCI_COMMAND, _HCI_EVENT = H4Type.HCI_COMMAND, H4Type.HCI_EVENT


class Value(tuple):
    """Base of the immutable tuple-backed values (frames, HCI records,
    diagnostic messages): one allocation to make, equal only to a value
    of the same class, hashed and pickled as its field tuple."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{self.__class__.__name__}({fields})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)


def value_class(cls: type) -> type:
    """Rebuild a class that declares annotated fields, trailing ones with
    defaults, as a Value built by position or keyword, fields read-only."""
    namespace = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    fields = tuple(namespace.pop("__annotations__"))
    defaults = [namespace.pop(name) for name in fields if name in namespace]
    record = namedtuple(cls.__name__, fields, defaults=defaults)
    return type(cls.__name__, (Value, record), {**namespace, "__slots__": ()})


@value_class
class H4Frame:
    """One transport-framed unit crossing the host/controller boundary."""

    h4_type: H4Type
    payload: bytes

    @classmethod
    def diag(cls, body: bytes, h4_type: H4Type = H4Type.DIAG) -> "H4Frame":
        """Wrap a diagnostic (or other vendor-channel) body, zero padding
        it to the fixed envelope size."""
        if h4_type not in ENVELOPE_TYPES:
            raise InvariantViolation(f"{h4_type!r} is not an envelope channel")
        if len(body) > DIAG_PAYLOAD_LEN:
            raise InvariantViolation(
                f"vendor-channel body of {len(body)} octets exceeds "
                f"the {DIAG_PAYLOAD_LEN}-octet envelope"
            )
        body = body if body.__class__ is bytes else bytes(body)
        return tuple.__new__(cls, (h4_type, body.ljust(DIAG_PAYLOAD_LEN, b"\x00")))

    def validate(self) -> None:
        h4_type, p = self
        _type, need, width = _FRAMING[h4_type]
        if not width and len(p) == need:
            return  # a full envelope
        expected = need + int.from_bytes(p[need - width : need], "little")
        if len(p) < need or expected != len(p):
            raise InvariantViolation(
                f"{h4_type.name} payload of {len(p)} octets disagrees with "
                f"its length field (expected {expected if len(p) >= need else need})"
            )


def encode_frame(frame: H4Frame) -> bytes:
    """Serialize one frame; the output begins with the type tag octet."""
    frame.validate()
    return bytes([frame.h4_type]) + frame.payload


def decode_stream(
    buffer: bytes | bytearray, base: int = 0, prefixed: bool = False
) -> tuple[list, int]:
    """Decode all complete frames from ``buffer``.

    Returns the frames in order plus the number of octets consumed; a
    trailing partial frame is left unconsumed so decoding can resume
    once more octets arrive.  An octet that is not a known type tag
    raises :class:`UnknownH4Type` with its stream offset (``base`` is the
    offset of ``buffer[0]``) -- the stream is never silently
    resynchronized.  Each payload is sliced from one bytes copy of the
    buffer, taken once a frame is complete.  With ``prefixed`` each frame
    follows a direction octet and comes back as ``(Direction, H4Frame)``;
    a bad direction octet raises as soon as it is in ``buffer``.
    """
    out: list = []
    i = 0
    data, n = buffer, len(buffer)
    framing = _FRAMING
    new_frame = tuple.__new__
    while i < n:
        p = i + prefixed
        if prefixed:
            if data[i] > 1:
                raise UnknownDirection(data[i])
            if p == n:
                break
        entry = framing.get(data[p])
        if entry is None:
            raise UnknownH4Type(data[p], base + p)
        h4_type, need, width = entry
        end = p + 1 + need
        if end > n:
            break  # partial header, wait for more octets
        if width == 1:
            end += data[end - 1]
        elif width:
            end += data[end - 2] | data[end - 1] << 8
        if end > n:
            break  # partial body
        if data.__class__ is not bytes:
            data = bytes(buffer)
        frame = new_frame(H4Frame, (h4_type, data[p + 1 : end]))
        out.append((_DIRECTIONS[data[i]], frame) if prefixed else frame)
        i = end
    return out, i


# [direction][H4 type] -> the two octets that open a sniff record.
SNIFF_PREFIX = tuple({t: bytes([d, t]) for t in H4Type} for d in Direction)


def encode_sniff_record(direction: Direction, frame: H4Frame) -> bytes:
    """Wire form of one sniff-port record: a 1-octet direction prefix,
    then the self-delimiting H4 frame.  The frame is not checked again:
    every frame a controller hands its taps is valid by construction."""
    return SNIFF_PREFIX[direction][frame[0]] + frame[1]


class H4StreamDecoder:
    """Resumable decoder for a live H4 byte stream.

    Carries explicit buffer state and must be owned by exactly one
    stream consumer at a time; the pure functions above are safe for
    unrestricted concurrent use.  A feed costs time linear in its octets.
    """

    _prefixed = False  # subclasses set it for direction-prefixed streams

    def __init__(self) -> None:
        self._buf = bytearray()
        self._base = 0  # absolute stream offset of _buf[0]

    def feed(self, data: bytes) -> list[H4Frame]:
        """Append octets and return every newly completed frame."""
        buf = self._buf
        buf += data
        out, used = decode_stream(buf, self._base, self._prefixed)
        del buf[:used]
        self._base += used
        return out

    @property
    def pending(self) -> bytes:
        """Octets of the trailing partial frame, if any."""
        return bytes(self._buf)


# Direction legality per traffic type: commands only flow host to
# controller, events only controller to host, everything else both ways.
_ONE_WAY = {
    H4Type.HCI_COMMAND: Direction.HOST_TO_CONTROLLER, H4Type.HCI_EVENT: Direction.CONTROLLER_TO_HOST
}


def direction_legal(h4_type: H4Type, direction: Direction) -> bool:
    return _ONE_WAY.get(h4_type, direction) is direction


@value_class
class HciCommand:
    """Host-to-controller command: 16-bit opcode (OGF/OCF packed) + params."""

    opcode: int
    params: bytes = b""

    def to_frame(self) -> H4Frame:
        if not 0 <= self.opcode <= 0xFFFF:
            raise InvariantViolation(f"opcode 0x{self.opcode:x} out of range")
        if len(self.params) > 255:
            raise InvariantViolation("HCI command parameters exceed 255 octets")
        payload = struct.pack("<HB", self.opcode, len(self.params)) + self.params
        return tuple.__new__(H4Frame, (_HCI_COMMAND, payload))

    @classmethod
    def from_frame(cls, frame: H4Frame) -> "HciCommand":
        if frame[0] is not _HCI_COMMAND:
            raise InvariantViolation(f"not an HCI command frame: {frame[0]!r}")
        frame.validate()
        return tuple.__new__(cls, (int.from_bytes(frame[1][:2], "little"), frame[1][3:]))


@value_class
class HciEvent:
    """Controller-to-host event: event code + params."""

    event_code: int
    params: bytes = b""

    def to_frame(self) -> H4Frame:
        code, params = self
        if not 0 <= code <= 0xFF:
            raise InvariantViolation(f"event code 0x{code:x} out of range")
        if len(params) > 255:
            raise InvariantViolation("HCI event parameters exceed 255 octets")
        return tuple.__new__(H4Frame, (_HCI_EVENT, bytes((code, len(params))) + params))

    @classmethod
    def from_frame(cls, frame: H4Frame) -> "HciEvent":
        if frame[0] is not _HCI_EVENT:
            raise InvariantViolation(f"not an HCI event frame: {frame[0]!r}")
        frame.validate()
        return tuple.__new__(cls, (frame[1][0], frame[1][2:]))
