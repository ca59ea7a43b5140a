"""The traced run: per-layer metrics and the tracing overhead."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time

from measure import MIN_ROUNDS, Run
from tracing import CALLS, ERRORS, ITEMS, SELF_NS, TOTAL_NS, ClientTracing, Tracer

PROBES = 20

PER_LAYER_UNITS = {
    "h4.decode_us_per_frame": "us",
    "h4.frames_per_feed": "frames",
    "h4.frames_decoded": "count",
    "h4.encode_us_per_frame": "us",
    "h4.decode_errors": "count",
    "diag.parse_us": "us",
    "diag.build_us": "us",
    "diag.parse_errors": "count",
    "ll.dissect_us_per_pdu": "us",
    "ll.pdus_dissected": "count",
    "emulator.controller.host_frame_us": "us",
    "emulator.controller.host_frames": "count",
    "emulator.controller.frames_out_per_host_frame": "frames",
    "emulator.controller.construct_us": "us",
    "emulator.controller.construct_warm_us": "us",
    "emulator.controller.reset_us": "us",
    "emulator.link.pump_us": "us",
    "emulator.link.air_units_per_op": "count",
    "emulator.server.fanout_wait_us": "us",
    "capture.sniff_decode_us_per_frame": "us",
    "capture.frames_per_feed": "frames",
    "capture.render_us_per_record": "us",
    "capture.pcapng_write_us_per_record": "us",
    "session.execute_us": "us",
    "session.wait_us": "us",
    "session.pred_calls_per_wait": "count",
    "session.timeouts": "count",
    "bench.frames_injected": "count",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_frac": "ratio",
    "trace.spans_dropped": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Totals:
    """Aggregates summed over the traced rounds of both processes."""

    def __init__(self) -> None:
        self.agg: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self.host_frames_served = 0
        self.spans_dropped = 0
        self.fanout_waits_ns: list[int] = []

    def add(self, summary: dict) -> None:
        for name, values in summary["agg"].items():
            mine = self.agg.setdefault(name, [0] * len(values))
            for i, v in enumerate(values):
                mine[i] += v
        for name, n in summary["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + n
        self.spans_dropped += summary["spans_dropped"]

    def get(self, name: str, field: int) -> int:
        return self.agg.get(name, [0] * 5)[field]

    def us_per(self, name: str, per: int, field: int = TOTAL_NS) -> float:
        return _ratio(self.get(name, field), self.get(name, per)) / 1e3


def _rate(r) -> float:
    return _ratio(len(r.latencies_s), r.op_time_s)


def traced_run(workload, seconds: float, trace_root: str):
    """Alternate untraced and traced rounds for ``seconds``, so that both
    sets meet the same stretches of host load.  Per-layer figures come
    from the traced rounds; the overhead is the median over the pairs of
    one traced round's throughput against the untraced round before it."""
    shutil.rmtree(trace_root, ignore_errors=True)
    os.makedirs(trace_root)
    run, pairs = Run(), []
    problems: list[str] = []
    totals = _Totals()
    tracer = Tracer()
    client = ClientTracing(tracer)
    deadline = time.monotonic() + seconds
    index = 0
    while len(pairs) < MIN_ROUNDS or time.monotonic() < deadline:
        plain = workload.run_round(index, None)
        run.add(plain)
        if plain.aborted:
            break
        trace_dir = os.path.join(trace_root, f"round-{index + 1}")
        os.makedirs(trace_dir)
        injected = tracer.counts.get("bench.frames_injected", 0)
        client.install()
        workload.client_tracing = client
        try:
            result = workload.run_round(index + 1, trace_dir)
        finally:
            tracer.uninstall()
            workload.client_tracing = None
        run.add(result)
        pairs.append((plain, result))
        injected = tracer.counts.get("bench.frames_injected", 0) - injected
        problems += _absorb_round(trace_dir, client, injected, totals, result)
        index += 2
        if result.aborted:
            break
    _probe_controller(tracer)
    tracer.write_spans(os.path.join(trace_root, "spans-client.jsonl"), f"client-{os.getpid()}")
    totals.add(tracer.summary())

    pairs = [(u, t) for u, t in pairs if not t.aborted]
    untraced_rate = statistics.median(_rate(u) for u, _ in pairs) if pairs else 0.0
    traced_rate = statistics.median(_rate(t) for _, t in pairs) if pairs else 0.0
    overhead = 1.0 - statistics.median(_ratio(_rate(t), _rate(u)) for u, t in pairs) if pairs else 0.0
    ops = sum(len(t.latencies_s) for _, t in pairs)
    t = totals
    metrics = {
        "h4.decode_us_per_frame": t.us_per("h4.decode", ITEMS),
        "h4.frames_per_feed": _ratio(t.get("h4.decode", ITEMS), t.get("h4.decode", CALLS)),
        "h4.frames_decoded": t.get("h4.decode", ITEMS),
        "h4.encode_us_per_frame": t.us_per("h4.encode", CALLS),
        "h4.decode_errors": t.get("h4.decode", ERRORS),
        "diag.parse_us": t.us_per("diag.parse", CALLS),
        "diag.build_us": t.us_per("diag.build", CALLS),
        "diag.parse_errors": t.get("diag.parse", ERRORS),
        "ll.dissect_us_per_pdu": t.us_per("ll.dissect", CALLS),
        "ll.pdus_dissected": t.get("ll.dissect", CALLS),
        "emulator.controller.host_frame_us": t.us_per(
            "emulator.controller.host_frame", CALLS, SELF_NS
        ),
        "emulator.controller.host_frames": t.host_frames_served,
        "emulator.controller.frames_out_per_host_frame": _ratio(
            t.get("emulator.controller.host_frame", ITEMS),
            t.get("emulator.controller.host_frame", CALLS),
        ),
        "emulator.controller.construct_us": t.us_per("emulator.controller.construct", CALLS),
        "emulator.controller.construct_warm_us": t.us_per("probe.controller.construct", CALLS),
        "emulator.controller.reset_us": t.us_per("probe.controller.reset", CALLS),
        "emulator.link.pump_us": t.us_per("emulator.link.pump", CALLS),
        "emulator.link.air_units_per_op": _ratio(t.counts.get("emulator.link.air_units", 0), ops),
        "emulator.server.fanout_wait_us": (
            statistics.median(t.fanout_waits_ns) / 1e3 if t.fanout_waits_ns else 0.0
        ),
        "capture.sniff_decode_us_per_frame": t.us_per("capture.sniff_decode", ITEMS),
        "capture.frames_per_feed": _ratio(
            t.get("capture.sniff_decode", ITEMS), t.get("capture.sniff_decode", CALLS)
        ),
        "capture.render_us_per_record": t.us_per("capture.render", CALLS),
        "capture.pcapng_write_us_per_record": t.us_per("capture.pcapng_write", ITEMS),
        "session.execute_us": t.us_per("session.execute", CALLS),
        "session.wait_us": t.us_per("session.wait", CALLS),
        "session.pred_calls_per_wait": _ratio(
            t.counts.get("session.pred_calls", 0), t.get("session.wait", CALLS)
        ),
        "session.timeouts": t.counts.get("session.timeouts", 0),
        "bench.frames_injected": t.counts.get("bench.frames_injected", 0),
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead_frac": overhead,
        "trace.spans_dropped": t.spans_dropped,
    }
    return run, metrics, PER_LAYER_UNITS, problems


def _absorb_round(trace_dir: str, client: ClientTracing, injected: int, totals: _Totals, result):
    """Fold one traced round's emulator trace into ``totals`` and check
    its counts against what the client sent."""
    path = os.path.join(trace_dir, "emulator.json")
    if not os.path.exists(path):
        return [f"{trace_dir}: emulator wrote no trace"]
    with open(path, encoding="utf-8") as fh:
        emu = json.load(fh)
    totals.add(emu)
    problems = []
    decoded = emu["agg"].get("h4.decode", [0] * 5)[ITEMS]
    host_frames = emu["agg"].get("emulator.controller.host_frame", [0] * 5)[CALLS]
    served = host_frames - emu["host_frames_at_start"]
    totals.host_frames_served += served
    if not result.aborted:
        if decoded != injected:
            problems.append(f"{trace_dir}: emulator decoded {decoded} frames, client injected {injected}")
        if served != decoded:
            problems.append(f"{trace_dir}: {served} process_host_frame calls for {decoded} frames")
    # Encode-to-decode wait: the newest record published on the attached
    # endpoint is the newest record the client decoded.
    published = emu["publish_stamps"][0] if emu["publish_stamps"] else []
    seen = list(client.decode_stamps)
    n = min(len(published), len(seen))
    waits = [c - p for p, c in zip(published[len(published) - n:], seen[len(seen) - n:])]
    if waits and min(waits) < 0:
        problems.append(f"{trace_dir}: record decoded before it was published (misaligned)")
    totals.fanout_waits_ns += waits
    return problems


def _probe_controller(tracer: Tracer) -> None:
    """Warm, in-process construction and reset of a default controller.
    The emulator constructs each controller once, cold, at start-up, and
    no workload sends HCI Reset, so both are also probed here."""
    from bcmdiag.diag import MemAccessType
    from bcmdiag.emulator import Controller

    mac = bytes.fromhex("001122334455")
    for i in range(PROBES):
        ctrl = tracer.span("probe.controller.construct", Controller, (mac,))
        ctrl.memory.write(MemAccessType.ARM, 0x00200000 + i, i)
        tracer.span("probe.controller.reset", ctrl.reset)
