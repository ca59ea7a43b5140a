"""Span and count tracing applied from outside the program.

A :class:`Tracer` replaces functions and methods of ``bcmdiag`` modules
with wrappers that time each call.  Nothing under ``src/`` knows about
it: the benchmark installs the wrappers in its own process (client
side) and, through ``emu_launcher.py``, in the emulator child before
the server starts.

Every wrapped call becomes a span ``(id, name, start_ns, end_ns,
parent_id)`` on the shared monotonic clock, so spans from both
processes line up.  Spans are kept in memory up to a cap and written
out when the run ends; per-name aggregates (calls, total time, self
time, items, errors) are kept for every call, also past the cap.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from array import array
from collections import deque

SPAN_CAP = 20_000
STAMP_TAIL = 20_000

# Aggregate fields per span name.
CALLS, TOTAL_NS, SELF_NS, ITEMS, ERRORS = range(5)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")  # flat: id, name_id, start, end, parent
        self.spans_dropped = 0
        self.agg: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ----- recording ---------------------------------------------------

    def _stack(self) -> list[list[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def span(self, name: str, fn, args=(), kwargs=None, items=None):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``.
        ``items(result, args)`` returns the number of work items the
        call handled."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        frame = [next(self._ids), 0]  # span id, time covered by children
        stack.append(frame)
        error = 0
        start = time.monotonic_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException:
            error = 1
            raise
        finally:
            end = time.monotonic_ns()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            n = 0
            if not error and items is not None:
                n = items(result, args)
            self._record(name, frame[0], start, end, parent, duration - frame[1], n, error)
        return result

    def _record(self, name, span_id, start, end, parent, self_ns, n, error) -> None:
        nid = self._name_id(name)
        with self._lock:
            agg = self.agg.get(name)
            if agg is None:
                agg = self.agg[name] = [0, 0, 0, 0, 0]
            agg[CALLS] += 1
            agg[TOTAL_NS] += end - start
            agg[SELF_NS] += self_ns
            agg[ITEMS] += n
            agg[ERRORS] += error
            if len(self.spans) < 5 * SPAN_CAP:
                self.spans.extend((span_id, nid, start, end, parent))
            else:
                self.spans_dropped += 1

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    # ----- installing wrappers -------------------------------------------

    def patch(self, owner, attr: str, wrapper_for) -> None:
        """Replace ``owner.attr`` by ``wrapper_for(original)``; undone by
        :meth:`uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        wrapped = wrapper_for(original)
        functools.update_wrapper(wrapped, original)
        setattr(owner, attr, wrapped)

    def timed(self, owner, attr: str, name: str, items=None) -> None:
        def wrapper_for(original):
            def wrapper(*args, **kwargs):
                return self.span(name, original, args, kwargs, items)

            return wrapper

        self.patch(owner, attr, wrapper_for)

    def counted(self, owner, attr: str, name: str) -> None:
        def wrapper_for(original):
            def wrapper(*args, **kwargs):
                self.count(name)
                return original(*args, **kwargs)

            return wrapper

        self.patch(owner, attr, wrapper_for)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ----- output ----------------------------------------------------------

    def summary(self) -> dict:
        with self._lock:
            return {
                "agg": {k: list(v) for k, v in self.agg.items()},
                "counts": dict(self.counts),
                "spans_dropped": self.spans_dropped,
            }

    def write_spans(self, path: str, process: str) -> None:
        with self._lock:
            spans = self.spans[:]
            names = list(self.names)
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(0, len(spans), 5):
                span_id, nid, start, end, parent = spans[i : i + 5]
                fh.write(
                    json.dumps(
                        {
                            "process": process,
                            "id": span_id,
                            "name": names[nid],
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


def _len_result(result, _args) -> int:
    return len(result)


def _len_first_arg(_result, args) -> int:
    return len(args[0])


def _diag_modules():
    import bcmdiag.capture
    import bcmdiag.diag
    import bcmdiag.emulator.controller
    import bcmdiag.session

    return (bcmdiag.diag, bcmdiag.session, bcmdiag.capture, bcmdiag.emulator.controller)


def _install_codecs(tracer: Tracer) -> None:
    """Diag and LL codec wrappers; both processes call them."""
    import bcmdiag.ll

    for module in _diag_modules():
        for attr, name in (("parse_diag", "diag.parse"), ("build_diag", "diag.build")):
            if attr in vars(module):
                tracer.timed(module, attr, name)
    tracer.timed(bcmdiag.ll, "dissect_lmp", "ll.dissect")
    tracer.timed(bcmdiag.ll, "dissect_lcp", "ll.dissect")


class EmulatorTracing:
    """Wrappers for the emulator child: inject-side H4 decoding,
    controller dispatch, the air link, sniff encoding and fan-out."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.host_frames_at_start: int | None = None
        # Per fan-out (in endpoint order): publish stamps of the newest
        # records, for the encode-to-client-decode wait.
        self.fanouts: list[deque] = []
        self._fanout_index: dict[int, int] = {}

    def install(self) -> None:
        from bcmdiag import h4
        from bcmdiag.emulator import controller, link, server

        t = self.tracer
        _install_codecs(t)
        t.timed(h4.H4StreamDecoder, "feed", "h4.decode", items=_len_result)
        t.timed(
            controller.Controller, "process_host_frame", "emulator.controller.host_frame",
            items=_len_result,
        )
        t.timed(controller.Controller, "__init__", "emulator.controller.construct")
        t.timed(controller.Controller, "reset", "emulator.controller.reset")
        t.counted(controller.Controller, "deliver_air", "emulator.link.air_units")
        t.timed(link.VirtualLink, "pump", "emulator.link.pump")
        t.timed(server, "encode_sniff_record", "h4.encode")

        def fanout_init(original):
            def wrapper(fanout, *args, **kwargs):
                original(fanout, *args, **kwargs)
                self._fanout_index[id(fanout)] = len(self.fanouts)
                self.fanouts.append(deque(maxlen=STAMP_TAIL))

            return wrapper

        def publish(original):
            def wrapper(fanout, data):
                self.fanouts[self._fanout_index[id(fanout)]].append(time.monotonic_ns())
                return original(fanout, data)

            return wrapper

        def start(original):
            def wrapper(srv, *args, **kwargs):
                agg = t.agg.get("emulator.controller.host_frame")
                self.host_frames_at_start = agg[CALLS] if agg else 0
                return original(srv, *args, **kwargs)

            return wrapper

        t.patch(server._SniffFanout, "__init__", fanout_init)
        t.patch(server._SniffFanout, "publish", publish)
        t.patch(server.EmulatorServer, "start", start)

    def dump(self, path: str) -> None:
        out = self.tracer.summary()
        out["host_frames_at_start"] = self.host_frames_at_start or 0
        out["publish_stamps"] = [list(d) for d in self.fanouts]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)


class ClientTracing:
    """Wrappers for the benchmark's own process: the session layer, the
    sniff decoder, live rendering and capture export."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        # Decode stamps of the newest records of the current sniff stream.
        self.decode_stamps: deque = deque(maxlen=STAMP_TAIL)

    def new_stream(self) -> None:
        """Called before a new sniff stream is attached."""
        self.decode_stamps.clear()

    def install(self) -> None:
        import socket

        from bcmdiag import capture, cli, h4, session

        t = self.tracer
        _install_codecs(t)
        t.timed(session.Session, "execute", "session.execute")
        t.timed(cli, "render_live", "capture.render")
        t.timed(capture, "write_pcap", "capture.pcapng_write", items=_len_first_arg)

        def feed(original):
            def wrapper(decoder, data):
                out = t.span("capture.sniff_decode", original, (decoder, data), items=_len_result)
                now = time.monotonic_ns()
                self.decode_stamps.extend(now for _ in out)
                return out

            return wrapper

        def wait_frame(original):
            def wrapper(sess, pred, timeout=None):
                calls = [0]

                def counted_pred(frame):
                    calls[0] += 1
                    return pred(frame)

                frame = t.span("session.wait", original, (sess, counted_pred, timeout))
                t.count("session.pred_calls", calls[0])
                if frame is None:
                    t.count("session.timeouts")
                return frame

            return wrapper

        def create_connection(original):
            def wrapper(*args, **kwargs):
                return _CountingSocket(original(*args, **kwargs), t, h4.decode_stream)

            return wrapper

        t.patch(capture.SniffStreamDecoder, "feed", feed)
        t.patch(cli.SocketSession, "wait_frame", wait_frame)
        t.patch(socket, "create_connection", create_connection)


class _CountingSocket:
    """Socket proxy counting the H4 frames the client injects."""

    def __init__(self, sock, tracer: Tracer, decode_stream) -> None:
        self._sock = sock
        self._tracer = tracer
        self._decode_stream = decode_stream

    def sendall(self, data) -> None:
        self._sock.sendall(data)
        self._tracer.count("bench.frames_injected", len(self._decode_stream(bytes(data))[0]))

    def __getattr__(self, attr):
        return getattr(self._sock, attr)

    def __enter__(self) -> "_CountingSocket":
        return self

    def __exit__(self, *_exc) -> None:
        self._sock.close()
