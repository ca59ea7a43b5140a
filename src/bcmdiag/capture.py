"""Capture persistence and live rendering.

Timestamps are logical-tick derived (1 tick = 625 microseconds, one
Bluetooth slot) so captures of identical runs are byte-identical.

File formats:

* pcapng with one interface per link type.  Standard HCI traffic
  (commands, events, ACL, SCO) uses LINKTYPE_BLUETOOTH_HCI_H4_WITH_PHDR
  (201) with the usual 4-octet big-endian direction word.  Diagnostic
  and other vendor-envelope frames have no registered link type, so
  they use LINKTYPE_USER0 (147) with a 1-octet direction prefix before
  the 64-octet envelope; the section header carries a comment spelling
  that convention out.
* BTSnoop (datalink 1002, H4 with type octet).  BTSnoop is HCI-only:
  vendor-envelope frames are skipped and counted.

A running capture spools its records, as sniff-stream records, to an
anonymous temporary file, not memory; ``capture stop`` streams them from it.
"""

from __future__ import annotations

import functools
import os
import struct
from collections.abc import Collection, Iterator

from . import diag, hci, ll
from .diag import DiagCode, code_direction, parse_diag
from .errors import BcmDiagError, SessionError
from .h4 import (
    ENVELOPE_TYPES,
    Direction,
    H4Frame,
    H4StreamDecoder,
    H4Type,
    HciCommand,
    HciEvent,
    decode_stream,
    direction_legal,
    encode_frame,
    value_class,
)

TICK_US = 625

LINKTYPE_H4_WITH_PHDR = 201
LINKTYPE_DIAG = 147  # LINKTYPE_USER0, private to this toolkit

_HCI_TYPES = frozenset(H4Type) - ENVELOPE_TYPES

# BTSnoop epoch offset: microseconds between year 0 and 2000-01-01.
_BTSNOOP_EPOCH_2000 = 0x00E03AB44A676000


@value_class
class CaptureRecord:
    """One sniffed frame, stamped with its logical tick in microseconds."""

    timestamp_us: int
    direction: Direction
    frame: H4Frame

    @classmethod
    def at_tick(cls, tick: int, direction: Direction, frame: H4Frame) -> "CaptureRecord":
        return tuple.__new__(cls, (tick * TICK_US, direction, frame))


def _pcapng_block(block_type: int, body: bytes) -> bytes:
    total = 12 + len(body) + (-len(body) % 4)
    return (
        struct.pack("<II", block_type, total)
        + body
        + b"\x00" * (-len(body) % 4)
        + struct.pack("<I", total)
    )


def _pcapng_option(code: int, value: bytes) -> bytes:
    return struct.pack("<HH", code, len(value)) + value + b"\x00" * (-len(value) % 4)


_SHB_COMMENT = (
    b"bcmdiag capture; diagnostic frames use LINKTYPE_USER0 (147): "
    b"1-octet direction (0=host->controller) + 64-octet vendor envelope"
)


def write_pcap(records: Collection[CaptureRecord], path: str) -> int:
    """Export a capture as pcapng, one block at a time; returns the
    record count.

    Interfaces are created lazily in first-use order, so an HCI-only
    capture carries a single link type.
    """
    iface_ids: dict[int, int] = {}
    with open(path, "wb") as fh:
        body = (
            struct.pack("<IHHq", 0x1A2B3C4D, 1, 0, -1)
            + _pcapng_option(1, _SHB_COMMENT)
            + _pcapng_option(0, b"")
        )
        fh.write(_pcapng_block(0x0A0D0D0A, body))
        for record in records:
            if record.frame.h4_type in _HCI_TYPES:
                linktype, name = LINKTYPE_H4_WITH_PHDR, b"hci"
                data = struct.pack(">I", int(record.direction)) + encode_frame(record.frame)
            else:
                linktype, name = LINKTYPE_DIAG, b"diag"
                data = bytes([int(record.direction)]) + encode_frame(record.frame)
            iface = iface_ids.get(linktype)
            if iface is None:
                iface = iface_ids[linktype] = len(iface_ids)
                body = (
                    struct.pack("<HHI", linktype, 0, 0)
                    + _pcapng_option(2, name)  # if_name
                    + _pcapng_option(0, b"")
                )
                fh.write(_pcapng_block(0x00000001, body))
            body = (
                struct.pack(
                    "<IIIII",
                    iface,
                    record.timestamp_us >> 32,
                    record.timestamp_us & 0xFFFFFFFF,
                    len(data),
                    len(data),
                )
                + data
            )
            fh.write(_pcapng_block(0x00000006, body))
    return len(records)


def write_btsnoop(records: Collection[CaptureRecord], path: str) -> int:
    """Export the HCI subset of a capture, one record at a time; returns
    how many non-HCI records were skipped."""
    skipped = 0
    with open(path, "wb") as fh:
        fh.write(struct.pack(">8sII", b"btsnoop\x00", 1, 1002))
        for record in records:
            if record.frame.h4_type not in _HCI_TYPES:
                skipped += 1
                continue
            data = encode_frame(record.frame)
            flags = int(record.direction)
            if record.frame.h4_type in (H4Type.HCI_COMMAND, H4Type.HCI_EVENT):
                flags |= 0x02
            fh.write(
                struct.pack(
                    ">IIIIq",
                    len(data),
                    len(data),
                    flags,
                    0,
                    _BTSNOOP_EPOCH_2000 + record.timestamp_us,
                )
            )
            fh.write(data)
    return skipped


# ----- capture spool -----------------------------------------------------

# Octets read back at a time, kept small: the records decoded from one
# block live together (4 KiB holds about 60 envelopes).  A longer record
# (an ACL frame takes up to 65,541 octets) is gathered over several reads.
_SPOOL_BLOCK = 1 << 12


class CaptureSpool:
    """A running capture: the path and format ``capture stop`` writes,
    and the records so far, appended in arrival order to an anonymous
    temporary file as sniff-stream records, so a capture holds a fixed
    amount of memory however long it runs.  A record is appended with C
    calls only: ``end += write(SNIFF_PREFIX[direction][h4_type] + payload)``,
    then ``count += 1``, or ``lose()`` when the write fails.  Iterating
    reads them back as CaptureRecords stamped with their positions, the
    live view's ticks until a record is lost and that many behind after."""

    def __init__(self, path: str, fmt: str) -> None:
        import tempfile  # only a capture needs it, so a session starts without it

        try:
            self._file = tempfile.TemporaryFile()
        except OSError as exc:
            raise SessionError(f"cannot open a capture spool: {exc}") from None
        self.path = path
        self.format = fmt
        self.count = 0
        self.lost = 0  # records the file could not take
        self.end = 0  # where the last whole record ends
        self.write = self._file.write

    def __len__(self) -> int:
        return self.count

    def lose(self) -> None:
        """Count a record the file could not take and cut off what of it
        was written; records still in the write buffer wait for a flush."""
        self.lost += 1
        fd = self._file.fileno()
        if os.fstat(fd).st_size > self.end:
            os.ftruncate(fd, self.end)
            self._file.seek(self.end)  # the buffer is empty: it went out before the record

    def __iter__(self) -> Iterator[CaptureRecord]:
        """The records in arrival order, read a block at a time with
        ``pread``, which leaves the append position where it is, through
        h4's decode loop; SessionError unless they are ``count`` whole records."""
        self._file.flush()
        fd, offset, tick, buf = self._file.fileno(), 0, 0, bytearray()
        while block := os.pread(fd, _SPOOL_BLOCK, offset):
            offset += len(block)
            buf += block
            records, used = decode_stream(buf, offset - len(buf), prefixed=True)
            del buf[:used]
            for direction, frame in records:
                yield tuple.__new__(CaptureRecord, (tick * TICK_US, direction, frame))
                tick += 1
        if buf or tick != self.count:
            raise SessionError(f"capture spool damaged: {tick} whole records of "
                               f"{self.count}, {len(buf)} octets over")

    def export(self) -> str:
        """Write the records to the path in the format; returns the line
        that reports it.  A failure leaves the spool as it was, so the
        export can be retried, and removes the file the writer opened, so
        no partial file is left at the path; a file the open failed on
        was not the writer's and stays."""
        lost = f"; {self.lost} records lost, the spool could not grow" if self.lost else ""
        try:
            if self.format == "btsnoop":
                skipped = write_btsnoop(self, self.path)
                return (f"wrote {self.count - skipped} HCI records to {self.path} "
                        f"(skipped {skipped} non-HCI){lost}")
            return f"wrote {write_pcap(self, self.path)} records to {self.path}{lost}"
        except (OSError, BcmDiagError) as exc:
            if getattr(exc, "filename", None) != self.path:  # only the open's error names it
                try:
                    os.remove(self.path)
                except OSError:  # gone already, or not ours to remove: the export still fails
                    pass
            raise

    def close(self) -> None:
        """Drop the records and free their file."""
        self._file.close()


# ----- sniff stream framing ----------------------------------------------

class SniffStreamDecoder(H4StreamDecoder):
    """Incremental decoder for the direction-prefixed sniff stream;
    ``feed`` returns ``(Direction, H4Frame)`` records."""

    _prefixed = True
    # A class attribute of its own, so wrapping one decoder's feed (as
    # the tracing harness does) leaves the other's alone.
    feed = H4StreamDecoder.feed


# ----- live rendering ---------------------------------------------------

def _render_hci_command(frame: H4Frame) -> str:
    cmd = HciCommand.from_frame(frame)
    name = hci.OPCODE_NAMES.get(cmd.opcode, f"0x{cmd.opcode:04x}")
    params = cmd.params.hex() if cmd.params else "-"
    return f"HCI cmd {name} {params}"

def _render_hci_event(frame: H4Frame) -> str:
    evt = HciEvent.from_frame(frame)
    name = hci.EVENT_NAMES.get(evt.event_code, f"0x{evt.event_code:02x}")
    params = evt.params.hex() if evt.params else "-"
    return f"HCI evt {name} {params}"

def _render_ll_record(msg: diag.LmpLogRecord | diag.LcpLogRecord) -> str:
    mac = hci.format_mac(msg.full_mac) if isinstance(msg, diag.LcpLogRecord) else msg.low_mac.hex()
    way = "TX" if msg.sent else "RX"
    try:
        if isinstance(msg, diag.LmpLogRecord):
            pdu = ll.dissect_lmp(msg.payload, padded_to_17=True)
        else:
            pdu = ll.dissect_lcp(msg.payload)
        return f"DIAG LL {way} {ll.render_text(pdu, mac=mac)}"
    except BcmDiagError:
        kind = "LMP" if isinstance(msg, diag.LmpLogRecord) else "LCP"
        opcode = msg.payload[0] >> 1 if isinstance(msg, diag.LmpLogRecord) else msg.payload[0]
        return f"DIAG LL {way} {mac} {kind}_unknown(0x{opcode:02x}) {msg.payload.hex()}"

# message class -> its live-view summary
_DIAG_RENDERERS = {
    diag.ToggleLmpLogging: lambda m: f"DIAG LMP logging {'ON' if m.enable else 'OFF'}",
    diag.LmpLogRecord: _render_ll_record,
    diag.LcpLogRecord: _render_ll_record,
    diag.MemoryPeek: lambda m: f"DIAG peek {m.access.name.lower()} 0x{m.address:08x}",
    diag.MemoryPoke: lambda m: f"DIAG poke {m.access.name.lower()} 0x{m.address:08x} = 0x{m.value:02x}",
    diag.MemoryHexdump: lambda m: f"DIAG hexdump 0x{m.address:08x}",
    diag.PeekResponse: lambda m: f"DIAG peek -> status={m.status} value=0x{m.value:02x}",
    diag.PokeResponse: lambda m: f"DIAG poke -> status={m.status}",
    diag.HexdumpResponse: lambda m: f"DIAG hexdump 0x{m.address:08x} -> {m.data.hex()}",
    diag.RunTest: lambda m: f"DIAG run test {diag.build_diag(m)[1:].hex()}",
    diag.TestCompleted: lambda m: (
        f"DIAG test completed status={m.status} tx={m.tx_count} "
        f"rx={m.rx_count} reserved={m.reserved}"
    ),
    diag.StatsResponse: lambda m: f"DIAG stats {m.text()}",
    diag.StatsRequest: lambda m: f"DIAG stats request {DiagCode(m.kind).name}",
}

def _render_diag(frame: H4Frame, msg) -> str:
    """``msg`` is the parsed payload, None where it does not parse."""
    if msg is None:
        return f"DIAG raw {frame.payload.rstrip(chr(0).encode()).hex() or '00'}"
    return _DIAG_RENDERERS[msg.__class__](msg)


# Distinct live lines kept rendered: a logged cycle repeats its link-layer
# records octet for octet, while HCI lines with a fresh handle fall out.
LIVE_CACHE_MAX = 128


@functools.lru_cache(maxsize=LIVE_CACHE_MAX, typed=True)
def _live_text(direction: Direction, h4_type: H4Type, payload: bytes) -> str:
    """Direction arrow and frame summary, looked up when repeated.  ``typed``
    keeps a plain-int type or direction apart from its enum twin."""
    frame = tuple.__new__(H4Frame, (h4_type, payload))
    msg = None
    try:
        if h4_type is H4Type.HCI_COMMAND:
            summary = _render_hci_command(frame)
        elif h4_type is H4Type.HCI_EVENT:
            summary = _render_hci_event(frame)
        elif h4_type is H4Type.ACL_DATA:
            handle_flags, length = struct.unpack_from("<HH", payload)
            summary = f"ACL handle=0x{handle_flags & 0x0fff:04x} len={length}"
        elif h4_type is H4Type.SCO_DATA:
            handle = struct.unpack_from("<H", payload)[0] & 0x0FFF
            summary = f"SCO handle=0x{handle:04x} len={payload[2]}"
        elif h4_type is H4Type.DIAG:
            try:
                msg = parse_diag(payload)
            except BcmDiagError:
                pass
            summary = _render_diag(frame, msg)
        else:
            summary = f"{h4_type.name} {payload.rstrip(chr(0).encode()).hex() or '00'}"
        # Direction audit: a frame against its legal direction (or a diag
        # code against its own) gets a warning on its line, never a failure.
        if not direction_legal(h4_type, direction) or (
            msg is not None and code_direction(msg.code) is not direction
        ):
            summary += "  [direction violation]"
    except Exception:
        summary = f"{h4_type.name} raw {payload.hex()}"
    return f"{direction.arrow} {summary}"


def render_live(record: CaptureRecord) -> str:
    """One deterministic line per record: timestamp, direction arrow,
    frame summary.  Total over every frame kind -- undecodable content
    falls back to hex rather than raising."""
    timestamp_us, direction, frame = record
    return f"{timestamp_us:>10} us {_live_text(direction, *frame)}"
