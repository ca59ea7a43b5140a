"""Interactive diagnostics client.

Attaches to one emulated controller over its stream ports: commands go
down the inject port, everything the controller sees or says comes back
direction-prefixed on the sniff port.  A reader thread renders the live
view and records captures, so heavy sniff traffic never blocks the
prompt or the inject path.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading
import time

from .capture import CaptureRecord, SniffStreamDecoder, render_live
from .errors import BcmDiagError, SessionError
from .h4 import Direction, H4Frame, H4Type, encode_frame
from .session import Session

_GREEN = "\x1b[32m"
_CYAN = "\x1b[36m"
_RESET = "\x1b[0m"


def _parse_hostport(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected host:port, got {text!r}")
    return host, int(port)


class SocketSession(Session):
    """Session over TCP sniff/inject streams."""

    def __init__(
        self,
        inject: tuple[str, int],
        sniff: tuple[str, int],
        color: bool = True,
        out=sys.stdout,
        name: str | None = None,
    ):
        self._cond = threading.Condition()
        super().__init__(name=name, lock=self._cond)
        self._out = out
        self._color = color
        self._inject_ok = True
        # Why the sniff stream stopped, once the reader has ended.
        self._sniff_down: str | None = None
        self._closing = False

        self._inject_sock = socket.create_connection(inject, timeout=5.0)
        self._sniff_sock = socket.create_connection(sniff, timeout=5.0)
        self._sniff_sock.settimeout(0.25)
        self._probe_nonce = os.urandom(8)
        self._probe_seen = threading.Event()
        self._reader = threading.Thread(target=self._reader_loop, daemon=True)
        self._reader.start()
        self._synchronize()

    def _synchronize(self) -> None:
        """A TCP connect only proves the handshake; the server may not
        have wired this sniff subscriber up yet, and a command sent in
        that window would lose its response.  Opaque message-queue
        frames are real host-to-controller traffic with no state
        effects, so they make safe probes: once one echoes back on the
        sniff stream, the subscription is live."""
        probe = encode_frame(
            H4Frame.diag(self._probe_nonce, h4_type=H4Type.MSG_QUEUE_PUT)
        )
        for _attempt in range(50):
            try:
                self._inject_sock.sendall(probe)
            except OSError as exc:
                raise SessionError(f"inject stream lost during attach: {exc}") from None
            if self._probe_seen.wait(timeout=0.1):
                return
            if self._sniff_down is not None:
                raise SessionError(self._sniff_down)
        raise SessionError("sniff stream never echoed the attach probe")

    # --- transport ----------------------------------------------------

    @property
    def inject_up(self) -> bool:
        return self._inject_ok

    def _send(self, frame: H4Frame) -> None:
        try:
            self._inject_sock.sendall(encode_frame(frame))
        except OSError as exc:
            self._inject_ok = False
            raise SessionError(f"inject stream lost: {exc}") from None

    def _reader_loop(self) -> None:
        decoder = SniffStreamDecoder()
        while not self._closing:
            try:
                data = self._sniff_sock.recv(4096)
            except socket.timeout:
                continue
            except OSError:
                data = b""
            if not data:
                if not self._closing:
                    self._stream_down("sniff stream disconnected")
                return
            try:
                records = decoder.feed(data)
            except BcmDiagError as exc:
                self._stream_down(f"sniff stream undecodable: {exc}")
                return
            answers = []
            for direction, frame in records:
                if (
                    frame.h4_type is H4Type.MSG_QUEUE_PUT
                    and frame.payload.startswith(self._probe_nonce)
                ):
                    # Our own attach probe (or a duplicate); invisible
                    # to captures, the live view and response matching.
                    self._probe_seen.set()
                    continue
                if self.live_view:
                    record = CaptureRecord.at_tick(self._capture_tick, direction, frame)
                    self._print(self._render(record))
                self.record_frame(direction, frame)
                if direction is Direction.CONTROLLER_TO_HOST:
                    answers.append(frame)
            if answers:
                with self._cond:
                    self._queue_frames(answers)
                    self._cond.notify_all()

    def _stream_down(self, reason: str) -> None:
        """The reader is ending: fail waits at once from now on."""
        with self._cond:
            self._sniff_down = reason
            self._cond.notify_all()
        self._print(f"{reason}; commands that wait for an answer now fail")

    def _render(self, record: CaptureRecord) -> str:
        line = render_live(record)
        if not self._color:
            return line
        tint = _CYAN if record.direction is Direction.CONTROLLER_TO_HOST else _GREEN
        return f"{tint}{line}{_RESET}"

    def _print(self, line: str) -> None:
        self._out.write(line + "\n")
        self._out.flush()

    def wait_frame(self, pred, timeout=None):
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.default_timeout
        )
        since = 0
        with self._cond:
            while True:
                frame = self._take_frame(pred, since)
                if frame is not None:
                    return frame
                if self._sniff_down is not None:
                    raise SessionError(self._sniff_down)
                since = self._queued
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._cond.wait(remaining)

    def close(self) -> None:
        self._closing = True
        for sock in (self._inject_sock, self._sniff_sock):
            try:
                sock.close()
            except OSError:
                pass


def repl(session: SocketSession, out=sys.stdout) -> int:
    out.write("bcmdiag client; 'help' lists commands, 'quit' leaves\n")
    while True:
        try:
            line = input("bcmdiag> ").strip()
        except (EOFError, KeyboardInterrupt):
            out.write("\n")
            return 0
        if line in ("quit", "exit"):
            return 0
        if line == "help":
            from .session import USAGE

            for usage in sorted(USAGE.values()):
                out.write(f"  {usage}\n")
            continue
        ok, lines = session.execute(line)
        for text in lines:
            out.write(text + "\n")
        out.flush()


def run_batch(session: SocketSession, path: str, out=sys.stdout) -> int:
    """Non-interactive mode: run every line of the script; exit nonzero
    on any controller error status or failed command."""
    ok, lines = session.run_script_file(path)
    for text in lines:
        out.write(text + "\n")
    out.flush()
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bcmdiag",
        description="Interactive client for emulated Broadcom diagnostic controllers.",
    )
    parser.add_argument(
        "--inject",
        type=_parse_hostport,
        default=("127.0.0.1", 8873),
        help="inject port (default 127.0.0.1:8873)",
    )
    parser.add_argument(
        "--sniff",
        type=_parse_hostport,
        default=("127.0.0.1", 8872),
        help="sniff port (default 127.0.0.1:8872)",
    )
    parser.add_argument("--script", help="run this command file and exit (batch mode)")
    parser.add_argument("--name", help="controller name this session addresses in scenario files")
    parser.add_argument("--no-color", action="store_true")
    args = parser.parse_args(argv)

    try:
        session = SocketSession(
            args.inject, args.sniff, color=not args.no_color, name=args.name
        )
    except OSError as exc:
        print(f"cannot attach to controller: {exc}", file=sys.stderr)
        return 1

    try:
        if args.script:
            return run_batch(session, args.script)
        session.live_view = True
        return repl(session)
    finally:
        session.close()


if __name__ == "__main__":
    sys.exit(main())
