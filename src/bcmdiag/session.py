"""A client session: one operator attachment to a controller, running
the command vocabulary of ``bcmdiag.commands``.

A session is a pure client that only influences a controller through
the frames it sends.  This module holds the transport-independent half
of it: running a command line, sending requests and matching their
answers, and the live view's and the capture's records.
``LocalSession`` binds a session to a controller of an in-process
world; ``bcmdiag.cli.SocketSession`` binds one to a stream server.
"""

from __future__ import annotations

import struct
import time
from collections import deque
from collections.abc import Callable

from . import capture, hci
from .commands import USAGE, CommandError, Commands, Reply
from .diag import DiagCode, parse_diag
from .errors import BcmDiagError, SessionError
from .h4 import SNIFF_PREFIX, Direction, H4Frame, H4Type, HciCommand, HciEvent

# Controller-to-host frames a session holds for response matching.
# Every send drops what earlier commands left unconsumed, so the queue
# only ever holds one command's traffic plus what arrived after it.
PENDING_MAX = 1024
UNECHOED_MAX = 64  # sent frames whose echo a session still waits for
# Read per frame, so plain names: an enum class read costs about 0.15 us.
_TO_CONTROLLER, _DIAG, _HCI_EVENT = Direction.HOST_TO_CONTROLLER, H4Type.DIAG, H4Type.HCI_EVENT


class Session(Commands):
    """One operator attachment to a controller's inject/sniff pair.

    A subclass is a transport and supplies two methods: ``_send`` pushes
    one frame down the inject path, and ``_pump(timeout)`` waits up to
    ``timeout`` s for controller-to-host traffic, hands every sniffed
    record to ``record_frame`` and ``_queue_records`` (the latter under
    ``lock``, the subclass's transport lock), shows the records
    ``record_frame`` queued in ``_live``, and returns False when no more
    can arrive.  ``wait_frame``, the one wait, takes the oldest queued
    frame matching a predicate and pumps until one arrives or its time
    runs out.  A command's answer is matched only against the
    controller-to-host frames that follow the echo of this session's
    newest send (other sessions may share the controller) and that
    arrive after it was sent: ``send_frame`` drops what is still queued.
    At most one capture sink is active per session.
    """

    default_timeout = 2.0

    def __init__(self, lock, name: str | None = None) -> None:
        self.name = name
        self.live_view = False
        self.capture_records: capture.CaptureSpool | None = None
        self._live: list[capture.CaptureRecord] = []  # records the live view has not shown
        self._capture_tick = 0
        self._lock = lock
        self._pending: deque[H4Frame] = deque(maxlen=PENDING_MAX)
        self._unechoed: deque[H4Frame] = deque(maxlen=UNECHOED_MAX)
        self._answering = False  # the latest echo was our newest send

    # transport hooks -------------------------------------------------
    def _pump(self, timeout: float) -> bool:
        """No frame arrives but by ``_send``: an in-process controller
        answers before ``_send`` returns."""
        return False

    # ------------------------------------------------------------------
    def close(self) -> None:
        """End a running capture, freeing its spool."""
        if self.capture_records is not None:
            self.capture_records.close()
            self.capture_records = None

    def send_frame(self, frame: H4Frame) -> None:
        with self._lock:
            self._pending.clear()
            self._unechoed.append(tuple(frame))
        self._send(frame)

    def _queue_records(self, records: list[tuple[Direction, H4Frame]]) -> None:
        """Queue for response matching the controller-to-host frames that
        follow the echo of this session's newest send, the oldest falling
        out past PENDING_MAX.  Caller holds the lock."""
        for direction, frame in records:
            if direction is _TO_CONTROLLER:
                # Echoes come back in send order; sends whose echo was missed
                # go with the first later one seen.  Only the newest send is
                # answered: an earlier send's command has given up waiting.
                # Plain tuples compare in C, a Value in Python.
                frame = tuple(frame)
                answering = frame in self._unechoed
                while answering and self._unechoed.popleft() != frame:
                    pass
                self._answering = answering and not self._unechoed
            elif self._answering:
                self._pending.append(frame)

    def wait_frame(
        self, pred: Callable[[H4Frame], bool], timeout: float | None = None
    ) -> H4Frame | None:
        """Remove and return the oldest queued frame ``pred`` accepts;
        while there is none, ``_pump`` until ``timeout`` s (by default
        ``default_timeout``) have passed, then return None.  A transport
        that is down fails the wait with its reason before the time runs
        out.  Every try scans the queue from its head: a predicate is pure,
        so the frame returned is the oldest match either way, and a send
        empties the queue, so it holds one command's traffic."""
        deadline = time.monotonic() + (self.default_timeout if timeout is None else timeout)
        pending = self._pending
        while True:
            with self._lock:
                for i, frame in enumerate(pending):
                    if pred(frame):
                        del pending[i]
                        return frame
            remaining = deadline - time.monotonic()
            if not self._pump(max(remaining, 0.0)) or remaining <= 0:
                return None

    def record_frame(self, direction: Direction, frame: H4Frame) -> None:
        """Queue one sniffed frame for the live view, stamped with a
        session-local logical tick so runs render reproducibly, and append
        it to the running capture's spool as a sniff-stream record."""
        tick = self._capture_tick
        self._capture_tick = tick + 1
        if self.live_view:  # CaptureRecord.at_tick, inline: it runs per record
            self._live.append(
                tuple.__new__(capture.CaptureRecord, (tick * capture.TICK_US, direction, frame)))
        spool = self.capture_records
        if spool is not None:
            try:
                spool.end += spool.write(SNIFF_PREFIX[direction][frame[0]] + frame[1])
                spool.count += 1
            except OSError:  # its file cannot grow; the stop reports the loss
                spool.lose()

    # ------------------------------------------------------------------
    def execute(self, line: str) -> Reply:
        """Run one command line; returns (ok, output lines).  Parse
        errors echo usage; controller error statuses render verbatim
        and count as failures."""
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            return True, []
        name = tokens[0]
        handler = getattr(self, f"_cmd_{name}", None)
        if handler is None:
            return False, [f"unknown command {name!r}; try: " + " ".join(sorted(USAGE))]
        try:
            return handler(tokens[1:])
        except CommandError as exc:
            return False, [f"usage: {USAGE.get(name, name)}  ({exc})"]
        except SessionError as exc:
            return False, [str(exc)]
        except (BcmDiagError, IndexError, struct.error) as exc:
            # An answer matched its command but could not be read.
            return False, [f"{name}: unreadable answer ({exc})"]

    # ----- requests -----------------------------------------------------

    def _await(
        self, pred: Callable[[H4Frame], bool], what: str, timeout: float | None = None
    ) -> H4Frame:
        """The one wait for an answer: the oldest frame ``pred`` accepts.
        No predicate raises: a frame too short for a field it reads does not match."""
        frame = self.wait_frame(pred, timeout)
        if frame is None:
            raise SessionError(f"timeout waiting for {what}")
        return frame

    def _diag(self, msg, code: DiagCode | None = None, timeout: float | None = None):
        """Send one diagnostic request; with ``code``, return the parsed
        response of that code."""
        self.send_frame(msg.to_frame())
        if code is not None:
            return self._diag_reply((bytes([code]),), f"diag 0x{code:02x}", timeout)

    def _diag_reply(self, heads: tuple[bytes, ...], what: str, timeout: float | None = None):
        """The oldest diagnostic response whose code octet is one of ``heads``, parsed."""
        frame = self._await(lambda f: f.h4_type is _DIAG and f.payload[:1] in heads, what, timeout)
        return parse_diag(frame.payload)

    def _hci(self, opcode: int, params: bytes = b"") -> bytes:
        """Send one HCI command; return its Command Complete's return values."""
        self.send_frame(HciCommand(opcode, params).to_frame())
        wire = opcode.to_bytes(2, "little")
        frame = self._await(
            lambda f: f.h4_type is _HCI_EVENT
            and f.payload[3:5] == wire
            and f.payload[0] == hci.EVT_COMMAND_COMPLETE,
            f"command complete 0x{opcode:04x}",
        )
        return HciEvent.from_frame(frame).params[3:]


class LocalSession(Session):
    """Session bound directly to a controller of an in-process ``World``;
    used by the scenario runner and by tests.  Responses are synchronous,
    so waiting never blocks."""

    def __init__(self, world, name: str, on_line: Callable[[str], None] | None = None):
        super().__init__(name=name, lock=world.lock)
        self._controller = world[name]
        self._on_line = on_line
        self._controller.add_tap(self._tap)

    def _tap(self, direction: Direction, frame: H4Frame) -> None:
        self.record_frame(direction, frame)
        with self._lock:
            self._queue_records([(direction, frame)])
        if self._on_line is not None and self._live:  # one line per record
            self._on_line(capture.render_live(self._live[0]))
        self._live.clear()

    def _send(self, frame: H4Frame) -> None:
        with self._lock:
            self._controller.process_host_frame(frame)

    def close(self) -> None:
        """Stop listening to the controller; a live view or capture ends."""
        self._controller.remove_tap(self._tap)
        super().close()
