"""Round loop and end-to-end metrics."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

# The gated figures.  The per-op cost is gated as CPU time, which the
# host's other tenants move less than wall time: in a slow stretch that
# cut a run's ops_per_s by a third, its CPU time per op rose by a tenth
# (the rest was time stolen from the guest or spent waiting).
END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_ms_per_op": "ms",
    "ops_ok_frac": "ratio",
    "emu_peak_rss_mb": "MiB",
    "client_peak_rss_mb": "MiB",
}
# Printed with the gated figures but not gated: wall-clock figures, which
# moved by up to 3x between runs of the same code on a shared host.
REPORTED_UNITS = {
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "ops_per_s": "1/s",
    "records_per_s": "1/s",
    "capture_write_ms": "ms",
    "ops_failed_frac": "ratio",
}

MIN_ROUNDS = 3  # per-round figures rest on several rounds even in short runs
SETUP_PROBES = 5  # set-ups without work, on top of one per round


@dataclass
class Run:
    rounds: list = field(default_factory=list)
    setups_s: list[float] = field(default_factory=list)  # probes and rounds
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.rounds)

    def add(self, result) -> None:
        self.rounds.append(result)
        self.setups_s.append(result.setup_s)
        self.errors += result.errors


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = -(-len(sorted_values) * q // 100)
    return sorted_values[max(1, int(rank)) - 1]


def probe_setups(workload, run: Run, probes: int = SETUP_PROBES) -> None:
    """Set-up times of ``probes`` emulators that stop without work."""
    from workloads import SETUP_ERRORS

    for _ in range(probes):
        try:
            run.setups_s.append(workload.probe_setup())
        except SETUP_ERRORS as exc:
            run.errors.append(f"setup probe: {type(exc).__name__}: {exc}")


def run_rounds(workload, seconds: float, min_rounds: int = MIN_ROUNDS) -> Run:
    """Probe set-up, then run rounds until ``seconds`` have passed and at
    least ``min_rounds`` ran; stop early after an aborted round."""
    run = Run()
    probe_setups(workload, run)
    deadline = time.monotonic() + seconds
    while len(run.rounds) < min_rounds or time.monotonic() < deadline:
        result = workload.run_round(len(run.rounds), None)
        run.add(result)
        if result.aborted:
            break
    return run


def _median_per_round(rounds, figure) -> float:
    return statistics.median(figure(r) for r in rounds)


def _per_op(value: float, r) -> float:
    return value / len(r.latencies_s) if r.latencies_s else 0.0


def _rate(count: int, r) -> float:
    return count / r.op_time_s if r.op_time_s else 0.0


def _p50_ms(r) -> float:
    return 1e3 * percentile(sorted(r.latencies_s), 50) if r.latencies_s else 0.0


def end_to_end(run: Run) -> dict[str, float]:
    """The figures of END_TO_END_UNITS and REPORTED_UNITS, the latter's
    ``capture_write_ms`` only where the workload writes a capture.  Most
    are the median over the run's rounds of a per-round figure (every
    round runs the same mix of ops), so interference that hits a few rounds
    moves them little.  ``op_p99_ms`` is taken over every op of the run,
    so that enough samples lie beyond it."""
    # Before the sorting below, whose copy of every latency would count.
    client_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    complete = [r for r in run.rounds if not r.aborted] or run.rounds
    attempted = run.attempted
    latencies = sorted(x for r in run.rounds for x in r.latencies_s)
    figures = {
        "setup_s": statistics.median(run.setups_s) if run.setups_s else 0.0,
        "cpu_ms_per_op": _median_per_round(
            complete, lambda r: 1e3 * _per_op(r.client_cpu_s + r.emu_cpu_s, r)
        ),
        "ops_ok_frac": (attempted - run.failed) / attempted if attempted else 0.0,
        "emu_peak_rss_mb": _median_per_round(complete, lambda r: r.emu_rss_mb),
        "client_peak_rss_mb": client_rss_mb,
        "op_p50_ms": _median_per_round(complete, _p50_ms),
        "op_p99_ms": 1e3 * percentile(latencies, 99) if latencies else 0.0,
        "ops_per_s": _median_per_round(complete, lambda r: _rate(len(r.latencies_s), r)),
        "records_per_s": _median_per_round(complete, lambda r: _rate(r.records, r)),
        "ops_failed_frac": run.failed / attempted if attempted else 0.0,
    }
    if any(r.capture_write_s for r in complete):  # only ll_logging writes a capture
        figures["capture_write_ms"] = _median_per_round(complete, lambda r: 1e3 * r.capture_write_s)
    return figures
