"""Stream servers: one sniff port and one inject port per controller.

The sniff port emits every H4 frame crossing the controller's host
boundary, both directions, each prefixed with a direction octet.  The
inject port accepts raw H4 frames and feeds them to the controller.
Defaults follow the 8872 (sniff) / 8873 (inject) convention, with each
further controller instance offset by two ports.
"""

from __future__ import annotations

import contextlib
import functools
import getopt
import selectors
import socket
import sys
import threading
from collections.abc import Callable

from ..errors import BcmDiagError, ScenarioError
from ..h4 import Direction, H4Frame, H4StreamDecoder, encode_sniff_record
from .controller import Controller
from .scenario import World, run_scenario

SNIFF_PORT_BASE = 8872

# Octets a sniff client may fall behind before it is disconnected; a
# client that silently lost records would mismatch answers instead.
SNIFF_BACKLOG_MAX = 4 << 20

# Octets one inject read takes, so one busy client cannot starve others.
RECV_MAX = 64 << 10

_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE


class _SniffFanout(bytearray):
    """Broadcasts tap records to every connected sniff client: it is the
    journal of records some client has not been sent, stored once, each
    client an offset into it.  A flush sends each client its tail once on
    a non-blocking socket, so a slow reader never stalls the emulator."""

    publish = bytearray.extend  # one C call per record

    def __init__(self, watch: Callable[[bool], None]) -> None:
        super().__init__()
        self._offsets: dict[socket.socket, int] = {}  # client -> journal octets it was sent
        self.dropped = 0  # clients cut off for falling behind
        self._watch = watch  # called with True at the first attach, False after the last

    def attach(self, client: socket.socket) -> None:
        if not self._offsets:
            self._watch(True)
        self._offsets[client] = len(self)

    def detach(self, client: socket.socket) -> None:
        if self._offsets.pop(client, None) is not None and not self._offsets:
            self._watch(False)

    def flush(self) -> list[socket.socket]:
        """Send each client its pending tail once, then drop what every
        client has been sent; return the clients left with octets the
        kernel did not take.  A client left more than SNIFF_BACKLOG_MAX
        behind is detached, counted and shut down, which its reader sees
        as the end of the stream."""
        left = []
        offsets, end = self._offsets, len(self)
        done = end  # journal octets every client has been sent
        for client, sent in list(offsets.items()):
            if sent < end:
                try:
                    if not sent:
                        sent = client.send(self)
                    else:  # a view of the tail, released before the journal is cut
                        with memoryview(self)[sent:] as tail:
                            sent += client.send(tail)
                except BlockingIOError:
                    pass
                except OSError:  # the peer is gone; the loop reads its end
                    sent = end
                if end - sent > SNIFF_BACKLOG_MAX:
                    self.detach(client)
                    self.dropped += 1
                    with contextlib.suppress(OSError):
                        client.shutdown(socket.SHUT_RDWR)
                    continue
                offsets[client] = sent
                if sent < end:
                    left.append(client)
            done = min(done, sent)
        if done:
            del self[:done]
            for client in offsets:
                offsets[client] -= done
        return left


class ControllerEndpoint:
    """One controller's sniff and inject listeners and sniff fan-out.  It
    taps the controller only while a sniff client is attached, so a
    controller nobody observes builds no link-layer log records."""

    def __init__(self, server: EmulatorServer, controller: Controller, host: str,
                 sniff_port: int, inject_port: int):
        self.server = server
        self.controller = controller
        self.sniff_port = sniff_port
        self.inject_port = inject_port
        self.fanout = _SniffFanout(
            lambda attached: (controller.add_tap if attached else controller.remove_tap)(self._tap))
        # create_server closes its socket when the bind fails.  An idle loop
        # can wake after a whole burst of connects is queued, so the
        # listen queue is as long as the kernel allows.
        self._sniff_sock = socket.create_server((host, sniff_port), backlog=socket.SOMAXCONN)
        try:
            self._inject_sock = socket.create_server((host, inject_port), backlog=socket.SOMAXCONN)
        except OSError:
            self._sniff_sock.close()
            raise
        fanout = self.fanout

        def tap(direction: Direction, frame: H4Frame) -> None:
            fanout.publish(encode_sniff_record(direction, frame))
            if not server._in_pass:  # an in-process session, not the loop
                server._wake()

        self._tap = tap  # a closure: a record costs few attribute loads

    def stop(self) -> None:
        self.controller.remove_tap(self._tap)
        self._sniff_sock.close()
        self._inject_sock.close()


class EmulatorServer:
    """Serves every endpoint from one thread.  Each pass of its loop
    handles the ready sockets, then sends each sniff client's backlog
    once, so records leave in the pass that read their frames; a client
    left with octets gets write interest until its backlog drains."""

    def __init__(self, world: World, host: str = "127.0.0.1", base_port: int = SNIFF_PORT_BASE):
        self.world = world
        self.endpoints: dict[str, ControllerEndpoint] = {}
        self._selector: selectors.BaseSelector | None = None
        self._wake_pair: tuple[socket.socket, ...] = ()
        self._thread: threading.Thread | None = None
        self._in_pass = self._stopping = False
        # Before any bind: create_server leaks its socket on a port outside 0-65535.
        last = base_port + 2 * len(world.controllers) - 1
        if base_port < 0 or last > 0xFFFF:
            raise ValueError(f"ports {base_port}-{last} are not all within 0-65535")
        try:
            for index, name in enumerate(world.controllers):
                port = base_port + 2 * index
                self.endpoints[name] = ControllerEndpoint(self, world[name], host, port, port + 1)
            # After the binds, so a failed one leaves nothing more to close.
            self._selector = selectors.DefaultSelector()
            self._wake_pair = socket.socketpair()
        except OSError:
            self.stop()  # release the endpoints already bound
            raise
        self._wake_pair[1].setblocking(False)
        self._selector.register(self._wake_pair[0], _READ, lambda sock, _mask: sock.recv(4096))
        for ep in self.endpoints.values():
            for listener, sniff in ((ep._sniff_sock, True), (ep._inject_sock, False)):
                listener.setblocking(False)
                self._selector.register(listener, _READ, functools.partial(self._accept, ep, sniff))

    def start(self) -> None:
        self._thread = threading.Thread(target=self._serve, name="bcmdiag-emu", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:
            self._stopping = True
            self._wake()
            self._thread.join()
        for endpoint in self.endpoints.values():
            endpoint.stop()
        if self._selector is not None:
            for key in list(self._selector.get_map().values()):
                key.fileobj.close()
            self._selector.close()
            self._selector = None
        for sock in self._wake_pair:
            sock.close()

    def port_map(self) -> dict[str, tuple[int, int]]:
        return {name: (ep.sniff_port, ep.inject_port) for name, ep in self.endpoints.items()}

    def _serve(self) -> None:
        select, fanouts = self._selector.select, [ep.fanout for ep in self.endpoints.values()]
        while not self._stopping:
            events = select()
            with self.world.lock:
                self._in_pass = True
                for key, mask in events:
                    key.data(key.fileobj, mask)
                for fanout in fanouts:
                    if fanout:  # records not yet sent to every client
                        for client in fanout.flush():  # write interest until drained
                            key = self._selector.get_key(client)
                            if not key.events & _WRITE:
                                self._selector.modify(client, _READ | _WRITE, key.data)
                self._in_pass = False

    def _wake(self) -> None:
        with contextlib.suppress(OSError):  # full, so a wake is pending anyway; or closed
            self._wake_pair[1].send(b"\0")

    def _accept(self, endpoint: ControllerEndpoint, sniff: bool, listener, _mask) -> None:
        while True:  # the whole queue: one accept per wake lets a burst overflow the backlog
            try:
                client, _addr = listener.accept()
            except OSError:  # drained (BlockingIOError), or e.g. the peer reset first
                return
            client.setblocking(False)
            if sniff:
                endpoint.fanout.attach(client)
                serve = functools.partial(self._sniff_ready, endpoint.fanout)
            else:
                serve = functools.partial(self._inject_ready, endpoint.controller, H4StreamDecoder())
            self._selector.register(client, _READ, serve)

    def _sniff_ready(self, fanout: _SniffFanout, client: socket.socket, mask: int) -> None:
        if mask & _WRITE:  # the pass's flush sends, and asks again while octets are left
            self._selector.modify(client, _READ, self._selector.get_key(client).data)
        try:
            if not mask & _READ or client.recv(4096):
                return  # a sniff client has nothing to say
        except BlockingIOError:
            return
        except OSError:
            pass
        fanout.detach(client)
        self._close(client)

    def _inject_ready(self, controller: Controller, decoder, client: socket.socket, _mask) -> None:
        try:
            data = client.recv(RECV_MAX)
            # A framing error on a lossless stream means a broken client;
            # drop the connection rather than resync.
            frames = decoder.feed(data) if data else None
        except BlockingIOError:
            return
        except (OSError, BcmDiagError):
            frames = None
        if frames is None:
            return self._close(client)
        for frame in frames:
            try:
                controller.process_host_frame(frame)
            except Exception as exc:  # must not end the loop that serves every client
                controller.note(f"host frame failed: {exc} ({exc.__class__.__name__})")

    def _close(self, client: socket.socket) -> None:
        self._selector.unregister(client)
        client.close()


_DEFAULT_SCENARIO = """\
controller main mac=00:11:22:33:44:55 profile=default
"""


# getopt, not argparse: argparse, its parser and one parse keep about
# 500 KiB of heap (tracemalloc) under every later peak, getopt 75.
_OPTIONS = ("help", "scenario=", "host=", "base-port=")
_USAGE = "usage: bcmdiag-emu [-h] [--scenario SCENARIO] [--host HOST] [--base-port BASE_PORT]\n"
_HELP = _USAGE + f"""
Serve emulated Bluetooth controllers over sniff/inject stream ports.

options:
  -h, --help            show this help message and exit
  --scenario SCENARIO   scenario file (topology + startup commands)
  --host HOST           address to listen on (default 127.0.0.1)
  --base-port BASE_PORT
                        sniff port of the first controller; inject is +1,
                        later controllers +2 each (default {SNIFF_PORT_BASE})
"""


def _usage_error(message: str) -> int:
    print(f"{_USAGE}bcmdiag-emu: error: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    """``bcmdiag-emu``: long options, each also taken as ``--opt=value``
    or by a unique prefix; a bad command line exits 2."""
    try:
        opts, stray = getopt.gnu_getopt(sys.argv[1:] if argv is None else argv, "h", _OPTIONS)
    except getopt.GetoptError as exc:
        return _usage_error(str(exc))
    if stray:
        return _usage_error(f"unrecognized arguments: {' '.join(stray)}")
    options = dict(opts)  # a repeated option: the last one counts
    if "-h" in options or "--help" in options:
        print(_HELP, end="")
        return 0
    scenario, host = options.get("--scenario"), options.get("--host", "127.0.0.1")
    try:
        base_port = int(options.get("--base-port", SNIFF_PORT_BASE))
    except ValueError:
        return _usage_error(f"argument --base-port: invalid int value: {options['--base-port']!r}")

    text = _DEFAULT_SCENARIO
    try:  # a bad scenario file or a port taken or out of range ends the start with one line
        if scenario:
            with open(scenario, "r", encoding="utf-8") as fh:
                text = fh.read()
        ok, world, _transcript = run_scenario(text, on_line=lambda line: print(line, flush=True))
        server = EmulatorServer(world, host=host, base_port=base_port)
    except (OSError, ValueError, BcmDiagError) as exc:
        # A decode or scenario error names no file; name it as an OSError does.
        unnamed = isinstance(exc, (UnicodeDecodeError, ScenarioError))
        where = f": {scenario!r}" if unnamed else ""
        print(f"bcmdiag-emu: {exc}{where}", file=sys.stderr)
        return 2
    server.start()
    for name, (sniff, inject) in server.port_map().items():
        print(f"{name}: sniff {host}:{sniff}  inject {host}:{inject}", flush=True)
    if not ok:
        print("warning: scenario startup commands reported errors", file=sys.stderr)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
