"""Exception types shared by the codecs and the emulator, and the one
scenario-line grammar, which the emulator and the client both read."""

from collections.abc import Iterator


class BcmDiagError(Exception):
    """Base class for every error raised by this package."""


class UnknownH4Type(BcmDiagError):
    """Leading stream octet is not a known H4 traffic type."""

    def __init__(self, byte: int, offset: int):
        super().__init__(f"unknown H4 type 0x{byte:02x} at stream offset {offset}")
        self.byte = byte
        self.offset = offset


class UnknownDirection(BcmDiagError):
    """Sniff-stream record prefix is not a known direction octet."""

    def __init__(self, byte: int):
        super().__init__(f"unknown direction octet 0x{byte:02x}")
        self.byte = byte


class InvariantViolation(BcmDiagError):
    """A value handed to an encoder violates its wire invariants."""


class UnknownDiagCode(BcmDiagError):
    def __init__(self, code: int):
        super().__init__(f"unknown diagnostic code 0x{code:02x}")
        self.code = code


class MalformedBody(BcmDiagError):
    """Diagnostic message body does not match the layout for its code."""

    def __init__(self, code: int, reason: str):
        super().__init__(f"malformed body for code 0x{code:02x}: {reason}")
        self.code = code
        self.reason = reason


class UnknownOpcode(BcmDiagError):
    """Link-layer opcode with no table entry."""

    def __init__(self, opcode: int | None, kind: str = "LMP"):
        shown = "<empty>" if opcode is None else f"0x{opcode:02x}"
        super().__init__(f"unknown {kind} opcode {shown}")
        self.opcode = opcode
        self.kind = kind


class UnknownVendorSubtype(BcmDiagError):
    def __init__(self, subtype: int):
        super().__init__(f"unknown vendor LCP subtype 0x{subtype:02x}")
        self.subtype = subtype


class LengthMismatch(BcmDiagError):
    """PDU length disagrees with the opcode table."""


class AlreadyLinked(BcmDiagError):
    """Controller is already attached to a virtual air link."""


class ScenarioError(BcmDiagError):
    """Bad scenario file line."""

    def __init__(self, lineno: int, reason: str):
        super().__init__(f"scenario line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


def scenario_lines(text: str) -> Iterator[tuple[int, str | None, str | None, str]]:
    """The one scenario-line grammar, read by the scenario runner and by
    ``scenario run``.  Yields ``(lineno, directive, target, rest)`` per
    line left after its ``#`` comment, words split on any whitespace: a
    first word ``controller`` or ``link`` is a directive, one ending in
    ``:`` names the target, and any other line is a bare command."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        first = line.split(None, 1)[0]
        rest = line[len(first) :].lstrip()
        if first in ("controller", "link"):
            yield lineno, first, None, rest
        elif first.endswith(":"):
            yield lineno, None, first[:-1], rest
        else:
            yield lineno, None, None, line


class SessionError(BcmDiagError):
    """Client session failure (stream down, timeout, controller error)."""
