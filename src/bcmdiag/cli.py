"""Interactive diagnostics client.

Attaches to one emulated controller over its stream ports: commands go
down the inject port, everything the controller sees or says comes back
direction-prefixed on the sniff port.  One thread reads both: a session
reads its sniff socket while it waits for an answer or a prompt line, so
a record arriving after an answer shows at the next wait.  The live
lines of one received chunk are written and flushed together.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import select
import socket
import sys
import time

from .capture import SniffStreamDecoder, render_live
from .commands import USAGE
from .errors import BcmDiagError, SessionError
from .h4 import H4Frame, H4Type, encode_frame
from .session import Session

_GREEN = "\x1b[32m"
_CYAN = "\x1b[36m"
_RESET = "\x1b[0m"


def _parse_hostport(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    # A port past 65535 is refused: a connect would take it modulo 65536.
    if not host or not port.isdigit() or int(port) > 0xFFFF:
        raise argparse.ArgumentTypeError(f"expected host:port with a port in 0-65535, got {text!r}")
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
        super().__init__(name=name, lock=contextlib.nullcontext())
        self._out = out
        self._color = color
        self._inject_ok = True
        # Why the sniff stream stopped, once it has.
        self._sniff_down: str | None = None

        with contextlib.ExitStack() as opened:  # a failed attach closes what it opened
            self._inject_sock = opened.enter_context(socket.create_connection(inject, timeout=5.0))
            self._sniff_sock = opened.enter_context(socket.create_connection(sniff, timeout=5.0))
            self._decoder = SniffStreamDecoder()
            self._probe_nonce = os.urandom(8)
            self._probe_seen = False
            self._synchronize()
            opened.pop_all()

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
        # A probe sent before the subscriber is wired up is lost: probe
        # again after 1 ms, doubling the wait up to 100 ms, for 5 s.
        deadline = time.monotonic() + 5.0
        resend, wait = 0.0, 0.001
        while not self._probe_seen:
            now = time.monotonic()
            if now >= deadline:
                raise SessionError("sniff stream never echoed the attach probe")
            if now >= resend:
                try:
                    self._inject_sock.sendall(probe)
                except OSError as exc:
                    raise SessionError(f"inject stream lost during attach: {exc}") from None
                resend, wait = now + wait, min(2 * wait, 0.1)
            self._pump(min(resend, deadline) - now)

    # --- transport ----------------------------------------------------

    # Its own attribute, so a wrapper set on this class leaves Session's alone.
    wait_frame = Session.wait_frame

    def _send(self, frame: H4Frame) -> None:
        if not self._inject_ok:
            raise SessionError("inject stream is down; command rejected")
        try:
            self._inject_sock.sendall(encode_frame(frame))
        except OSError as exc:
            self._inject_ok = False
            raise SessionError(f"inject stream lost: {exc}") from None

    def _pump(self, timeout: float | None, fd=None) -> bool:
        """Wait up to ``timeout`` s (None: no limit) for the sniff socket or
        ``fd``; hand what one ``recv`` brings to ``record_frame`` and
        ``_queue_records``.  Returns True, or with ``fd`` whether it is
        readable; raises SessionError once the sniff stream is down."""
        if self._sniff_down is not None:
            raise SessionError(self._sniff_down)
        watched = [self._sniff_sock] if fd is None else [self._sniff_sock, fd]
        ready = select.select(watched, [], [], timeout)[0]
        if self._sniff_sock in ready:
            try:
                data = self._sniff_sock.recv(4096)
            except OSError:
                data = b""
            if not data:
                raise self._stream_down("sniff stream disconnected")
            try:
                records = self._decoder.feed(data)
            except BcmDiagError as exc:
                raise self._stream_down(f"sniff stream undecodable: {exc}") from None
            for direction, frame in records:
                if (  # the nonce test first: it is cheaper than an enum class read
                    frame.payload.startswith(self._probe_nonce)
                    and frame.h4_type is H4Type.MSG_QUEUE_PUT
                ):
                    # Our own attach probe (or a duplicate); invisible
                    # to captures and the live view.
                    self._probe_seen = True
                    continue
                self.record_frame(direction, frame)
            self._queue_records(records)
            if self._live:
                self._show_live()
        return fd is None or fd in ready

    def _stream_down(self, reason: str) -> SessionError:
        """The sniff stream has ended: fail waits at once from now on."""
        self._sniff_down = reason
        if self._probe_seen:  # else the attach fails, and its SessionError says why
            self._out.write(f"{reason}; commands that wait for an answer now fail\n")
            self._out.flush()
        return SessionError(reason)

    def _show_live(self) -> None:
        """Write the queued records' live lines with one write and one flush."""
        tints, end = ((_GREEN, _CYAN), _RESET) if self._color else (("", ""), "")
        self._out.write("".join([f"{tints[r[1]]}{render_live(r)}{end}\n" for r in self._live]))
        self._out.flush()
        self._live.clear()

    def close(self) -> None:
        for sock in (self._inject_sock, self._sniff_sock):
            try:
                sock.close()
            except OSError:
                pass
        super().close()


def repl(session: SocketSession, out=sys.stdout) -> int:
    out.write("bcmdiag client; 'help' lists commands, 'quit' leaves\n")
    # Unbuffered, so a select on it sees every line not yet read.
    stdin = sys.stdin.buffer.raw
    while True:
        out.write("bcmdiag> ")
        out.flush()
        try:
            with contextlib.suppress(SessionError):  # sniff stream down: stdin alone
                while not session._pump(None, stdin):  # live lines meanwhile
                    pass
            raw = stdin.readline()
        except KeyboardInterrupt:
            raw = b""
        if not raw:
            out.write("\n")
            return 0
        line = raw.decode(errors="replace").strip()
        if line in ("quit", "exit"):
            return 0
        if line == "help":
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
    except (OSError, SessionError) as exc:
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
