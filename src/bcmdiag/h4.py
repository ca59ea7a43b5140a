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
from dataclasses import dataclass
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
        return ">>" if self is Direction.HOST_TO_CONTROLLER else "<<"


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

_DIRECTIONS = (Direction.HOST_TO_CONTROLLER, Direction.CONTROLLER_TO_HOST)


@dataclass(frozen=True)
class H4Frame:
    """One transport-framed unit crossing the host/controller boundary."""

    h4_type: H4Type
    payload: bytes

    @classmethod
    def diag(cls, body: bytes, h4_type: H4Type = H4Type.DIAG) -> "H4Frame":
        """Wrap a diagnostic (or other vendor-channel) body, zero padding
        it to the fixed envelope size."""
        if h4_type not in (H4Type.DIAG, H4Type.MSG_QUEUE_PUT, H4Type.WICED):
            raise InvariantViolation(f"{h4_type!r} is not an envelope channel")
        if len(body) > DIAG_PAYLOAD_LEN:
            raise InvariantViolation(
                f"vendor-channel body of {len(body)} octets exceeds "
                f"the {DIAG_PAYLOAD_LEN}-octet envelope"
            )
        return cls(h4_type, bytes(body).ljust(DIAG_PAYLOAD_LEN, b"\x00"))

    def validate(self) -> None:
        _type, need, width = _FRAMING[self.h4_type]
        p = self.payload
        expected = need + int.from_bytes(p[need - width : need], "little")
        if len(p) < need or expected != len(p):
            raise InvariantViolation(
                f"{self.h4_type.name} payload of {len(p)} octets disagrees with "
                f"its length field (expected {expected if len(p) >= need else need})"
            )


def encode_frame(frame: H4Frame) -> bytes:
    """Serialize one frame; the output begins with the type tag octet."""
    frame.validate()
    return bytes([frame.h4_type]) + frame.payload


def _decode(
    buf: bytes | bytearray, base: int, prefixed: bool = False, limit: int = -1
) -> tuple[list, int]:
    """Decode complete frames from ``buf``, copying each payload once;
    returns them and the octets consumed.  ``base`` is the stream offset
    of ``buf[0]``.  With ``prefixed`` each frame follows a direction
    octet and comes back as ``(Direction, H4Frame)``; a bad direction
    octet raises as soon as it is in ``buf``."""
    out: list = []
    i = 0
    n = len(buf)
    framing = _FRAMING
    with memoryview(buf) as view:
        while i < n and limit != len(out):
            p = i + prefixed
            if prefixed:
                if buf[i] > 1:
                    raise UnknownDirection(buf[i])
                if p == n:
                    break
            entry = framing.get(buf[p])
            if entry is None:
                raise UnknownH4Type(buf[p], base + p)
            h4_type, need, width = entry
            end = p + 1 + need
            if end > n:
                break  # partial header, wait for more octets
            if width == 1:
                end += buf[end - 1]
            elif width:
                end += buf[end - 2] | buf[end - 1] << 8
            if end > n:
                break  # partial body
            frame = H4Frame(h4_type, view[p + 1 : end].tobytes())
            out.append((_DIRECTIONS[buf[i]], frame) if prefixed else frame)
            i = end
    return out, i


def decode_stream(buffer: bytes) -> tuple[list[H4Frame], int]:
    """Decode all complete frames from ``buffer``.

    Returns the frames in order plus the number of octets consumed; a
    trailing partial frame is left unconsumed so decoding can resume
    once more octets arrive.  An octet that is not a known type tag
    raises :class:`UnknownH4Type` with its stream offset -- the stream
    is never silently resynchronized.
    """
    return _decode(buffer, 0)


def decode_one(buffer: bytes) -> tuple[H4Frame | None, int]:
    """Decode at most one frame; returns (frame or None, consumed)."""
    frames, consumed = _decode(buffer, 0, limit=1)
    return (frames[0] if frames else None), consumed


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
        out, used = _decode(buf, self._base, self._prefixed)
        del buf[:used]
        self._base += used
        return out

    @property
    def pending(self) -> bytes:
        """Octets of the trailing partial frame, if any."""
        return bytes(self._buf)


# Direction legality per traffic type: commands only flow host to
# controller, events only controller to host, everything else both ways.
_HOST_ONLY = {H4Type.HCI_COMMAND}
_CONTROLLER_ONLY = {H4Type.HCI_EVENT}


def direction_legal(h4_type: H4Type, direction: Direction) -> bool:
    if h4_type in _HOST_ONLY:
        return direction is Direction.HOST_TO_CONTROLLER
    if h4_type in _CONTROLLER_ONLY:
        return direction is Direction.CONTROLLER_TO_HOST
    return True


def audit_direction(frame: H4Frame, direction: Direction) -> str | None:
    """Return a warning line for an illegal-direction frame, else None.

    This is an audit, not a decode failure: misdirected frames still
    parse so they can be inspected.
    """
    if direction_legal(frame.h4_type, direction):
        return None
    return (
        f"direction violation: {frame.h4_type.name} seen "
        f"{'controller->host' if direction else 'host->controller'}"
    )


@dataclass(frozen=True)
class HciCommand:
    """Host-to-controller command: 16-bit opcode (OGF/OCF packed) + params."""

    opcode: int
    params: bytes = b""

    @property
    def ogf(self) -> int:
        return self.opcode >> 10

    @property
    def ocf(self) -> int:
        return self.opcode & 0x3FF

    def to_frame(self) -> H4Frame:
        if not 0 <= self.opcode <= 0xFFFF:
            raise InvariantViolation(f"opcode 0x{self.opcode:x} out of range")
        if len(self.params) > 255:
            raise InvariantViolation("HCI command parameters exceed 255 octets")
        payload = struct.pack("<HB", self.opcode, len(self.params)) + self.params
        return H4Frame(H4Type.HCI_COMMAND, payload)

    @classmethod
    def from_frame(cls, frame: H4Frame) -> "HciCommand":
        if frame.h4_type is not H4Type.HCI_COMMAND:
            raise InvariantViolation(f"not an HCI command frame: {frame.h4_type!r}")
        frame.validate()
        opcode, _n = struct.unpack_from("<HB", frame.payload)
        return cls(opcode, frame.payload[3:])


@dataclass(frozen=True)
class HciEvent:
    """Controller-to-host event: event code + params."""

    event_code: int
    params: bytes = b""

    def to_frame(self) -> H4Frame:
        if not 0 <= self.event_code <= 0xFF:
            raise InvariantViolation(f"event code 0x{self.event_code:x} out of range")
        if len(self.params) > 255:
            raise InvariantViolation("HCI event parameters exceed 255 octets")
        payload = bytes([self.event_code, len(self.params)]) + self.params
        return H4Frame(H4Type.HCI_EVENT, payload)

    @classmethod
    def from_frame(cls, frame: H4Frame) -> "HciEvent":
        if frame.h4_type is not H4Type.HCI_EVENT:
            raise InvariantViolation(f"not an HCI event frame: {frame.h4_type!r}")
        frame.validate()
        return cls(frame.payload[0], frame.payload[2:])
