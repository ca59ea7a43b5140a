"""Stream servers: one sniff port and one inject port per controller.

The sniff port emits every H4 frame crossing the controller's host
boundary, both directions, each prefixed with a direction octet.  The
inject port accepts raw H4 frames and feeds them to the controller.
Defaults follow the 8872 (sniff) / 8873 (inject) convention, with each
further controller instance offset by two ports.
"""

from __future__ import annotations

import argparse
import socket
import sys
import threading

from ..capture import encode_sniff_record
from ..errors import BcmDiagError
from ..h4 import Direction, H4Frame, H4StreamDecoder
from .controller import Controller
from .scenario import World, run_scenario

SNIFF_PORT_BASE = 8872
INJECT_PORT_BASE = 8873


# Octets a sniff client may fall behind before it is disconnected; a
# client that silently lost records would mismatch answers instead.
SNIFF_BACKLOG_MAX = 4 << 20


class _SniffFanout:
    """Broadcasts tap records to every connected sniff client.  Each
    client has its own byte backlog, which its sender drains with one
    write, so a slow reader never stalls the emulator or the inject
    path."""

    def __init__(self) -> None:
        self._backlogs: dict[socket.socket, bytearray] = {}
        # publish enters the lock itself, cheaper than the Condition's __enter__
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self.dropped = 0  # clients cut off for falling behind

    def __bool__(self) -> bool:  # any client attached
        return bool(self._backlogs)

    def attach(self, client: socket.socket) -> None:
        with self._cond:
            self._backlogs[client] = bytearray()

    def detach(self, client: socket.socket) -> None:
        with self._cond:
            self._backlogs.pop(client, None)

    def publish(self, data: bytes) -> None:
        with self._lock:
            wake = False
            behind = []
            for client, backlog in self._backlogs.items():
                wake = wake or not backlog
                backlog += data
                if len(backlog) > SNIFF_BACKLOG_MAX:
                    behind.append(client)
            for client in behind:
                # Its sender is blocked writing to a client that stopped
                # reading; shutting the socket down unblocks it.
                del self._backlogs[client]
                self.dropped += 1
                try:
                    client.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            if wake:
                self._cond.notify_all()

    def take(self, client: socket.socket, timeout: float) -> bytearray | None:
        """Everything published for ``client`` since its last take,
        after waiting up to ``timeout`` for something; None once it is
        no longer attached."""
        with self._cond:
            if self._backlogs.get(client) == b"":  # attached, nothing pending
                self._cond.wait(timeout)
            backlog = self._backlogs.get(client)
            if backlog is not None:
                self._backlogs[client] = bytearray()
            return backlog


class ControllerEndpoint:
    def __init__(
        self,
        world: World,
        controller: Controller,
        host: str,
        sniff_port: int,
        inject_port: int,
    ):
        self.world = world
        self.controller = controller
        self.host = host
        self.sniff_port = sniff_port
        self.inject_port = inject_port
        self.fanout = _SniffFanout()
        # create_server closes its socket when the bind fails.
        self._sniff_sock = socket.create_server((host, sniff_port), backlog=8)
        try:
            self._inject_sock = socket.create_server((host, inject_port), backlog=8)
        except OSError:
            self._sniff_sock.close()
            raise
        self._threads: list[threading.Thread] = []
        self._clients: set[socket.socket] = set()
        self._clients_lock = threading.Lock()
        self._stop = threading.Event()
        # Last, so a failed bind leaves the controller untouched.
        controller.add_tap(self._tap)

    def _track(self, client: socket.socket) -> None:
        with self._clients_lock:
            self._clients.add(client)

    def _untrack(self, client: socket.socket) -> None:
        with self._clients_lock:
            self._clients.discard(client)

    def _tap(self, direction: Direction, frame: H4Frame, tick: int) -> None:
        if self.fanout._backlogs:  # any client attached
            self.fanout.publish(encode_sniff_record(direction, frame))

    def start(self) -> None:
        for listener, serve in (
            (self._sniff_sock, self._sniff_client_loop),
            (self._inject_sock, self._inject_client_loop),
        ):
            thread = threading.Thread(
                target=self._accept_loop, args=(listener, serve), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        self._stop.set()
        self.controller.remove_tap(self._tap)
        for sock in (self._sniff_sock, self._inject_sock):
            try:
                sock.close()
            except OSError:
                pass
        with self._clients_lock:
            clients = list(self._clients)
        for client in clients:
            try:
                client.close()
            except OSError:
                pass

    def _accept_loop(self, listener: socket.socket, serve) -> None:
        while not self._stop.is_set():
            try:
                client, _addr = listener.accept()
            except OSError:
                return
            threading.Thread(target=serve, args=(client,), daemon=True).start()

    def _sniff_client_loop(self, client: socket.socket) -> None:
        self._track(client)
        self.fanout.attach(client)
        try:
            while not self._stop.is_set():
                data = self.fanout.take(client, timeout=0.25)
                if data is None:
                    return  # cut off for falling behind
                if data:
                    client.sendall(data)
        except OSError:
            pass
        finally:
            self.fanout.detach(client)
            self._untrack(client)
            client.close()

    def _inject_client_loop(self, client: socket.socket) -> None:
        self._track(client)
        decoder = H4StreamDecoder()
        try:
            while not self._stop.is_set():
                data = client.recv(4096)
                if not data:
                    return
                try:
                    frames = decoder.feed(data)
                except BcmDiagError:
                    # A framing error on a lossless stream means a broken
                    # client; drop the connection rather than resync.
                    return
                for frame in frames:
                    with self.world.lock:
                        self.controller.process_host_frame(frame)
        except OSError:
            pass
        finally:
            self._untrack(client)
            client.close()


class EmulatorServer:
    def __init__(self, world: World, host: str = "127.0.0.1", base_port: int = SNIFF_PORT_BASE):
        self.world = world
        self.endpoints: dict[str, ControllerEndpoint] = {}
        try:
            for index, name in enumerate(world.order):
                port = base_port + 2 * index
                self.endpoints[name] = ControllerEndpoint(world, world[name], host, port, port + 1)
        except OSError:
            self.stop()  # release the endpoints already bound
            raise

    def start(self) -> None:
        for endpoint in self.endpoints.values():
            endpoint.start()

    def stop(self) -> None:
        for endpoint in self.endpoints.values():
            endpoint.stop()

    def port_map(self) -> dict[str, tuple[int, int]]:
        return {
            name: (ep.sniff_port, ep.inject_port) for name, ep in self.endpoints.items()
        }


_DEFAULT_SCENARIO = """\
controller main mac=00:11:22:33:44:55 profile=default
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bcmdiag-emu",
        description="Serve emulated Bluetooth controllers over sniff/inject stream ports.",
    )
    parser.add_argument("--scenario", help="scenario file (topology + startup commands)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--base-port",
        type=int,
        default=SNIFF_PORT_BASE,
        help="sniff port of the first controller; inject is +1, later controllers +2 each",
    )
    args = parser.parse_args(argv)

    if args.scenario:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = _DEFAULT_SCENARIO

    ok, world, transcript = run_scenario(
        text, on_line=lambda line: print(line, flush=True)
    )
    server = EmulatorServer(world, host=args.host, base_port=args.base_port)
    server.start()
    for name, (sniff, inject) in server.port_map().items():
        print(f"{name}: sniff {args.host}:{sniff}  inject {args.host}:{inject}", flush=True)
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
