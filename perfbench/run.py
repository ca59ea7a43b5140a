"""Loopback benchmark for bcmdiag.

Starts the real emulator (``bcmdiag-emu``) as a child process and drives
it over loopback TCP from this one client process, in a closed loop.

    python3 perfbench/run.py --workload interactive|ll_logging|inject_burst|all \\
        --seed N --seconds S --trace 0|1

Prints one line per figure (name, value, unit), then as the last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the gated end-to-end metrics with ``--trace 0``; the wall-clock
figures are printed above it, marked "not gated"; the per-layer metrics
with ``--trace 1``; with ``--workload all`` every name is prefixed by its
workload, and ``client_peak_rss_mb`` is the process's high-water mark
so far).  Exits 1 when any output check fails and 2 when the program's
sources are missing.

With ``--trace 1`` untraced rounds alternate with rounds that run with
tracing wrappers in both processes; per-layer figures come from the
traced rounds, and the throughput of each traced round against the
untraced round before it gives the tracing overhead.  Spans are written to
``.perfbench/trace/<workload>/``, replacing the previous traced run's.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("interactive", "ll_logging", "inject_burst")


def _print_summary(workload: str, seed: int, run, metrics: dict, units: dict) -> None:
    from measure import REPORTED_UNITS

    ops = sum(len(r.latencies_s) for r in run.rounds)
    print(f"# workload {workload} seed {seed}: {len(run.rounds)} rounds, {ops} ops timed, "
          f"{len(run.setups_s)} set-ups (loopback TCP, closed loop, one client)")
    for name, value in metrics.items():
        note = "  (not gated)" if name in REPORTED_UNITS else ""
        if name == "op_p99_ms":
            note = f"  (p99 of {ops} ops; not gated)"
        elif name == "ops_failed_frac":
            note = f"  ({run.failed} of {run.attempted} ops; not gated)"
        print(f"{name:44s} {value:14.6f} {units[name]}{note}")
    for err in run.errors:
        print(f"# error: {err}")


def _run_workload(name: str, args) -> tuple[bool, int, int, dict, dict]:
    """One workload: rounds, metrics, summary lines.  Returns (correct,
    attempted, failed, metrics, units), with the metrics the JSON line
    carries."""
    from measure import END_TO_END_UNITS, REPORTED_UNITS, end_to_end, run_rounds
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[name](ROOT, workdir, args.seed)
        if args.trace:
            from traced import traced_run

            run, metrics, units, problems = traced_run(
                workload, args.seconds, os.path.join(OUT_DIR, "trace", name)
            )
        else:
            run = run_rounds(workload, args.seconds)
            metrics, problems = end_to_end(run), []
            units = {**END_TO_END_UNITS, **REPORTED_UNITS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _print_summary(name, args.seed, run, metrics, units)
    for problem in problems:
        print(f"# check failed: {problem}")
    correct = run.failed == 0 and not problems and not run.errors
    if not args.trace:
        metrics = {k: metrics[k] for k in END_TO_END_UNITS}
    return correct, run.attempted, run.failed, metrics, units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs every workload in turn, each for --seconds")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bcmdiag", "__init__.py")):
        print(f"error: bcmdiag sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    # A SIGTERM unwinds through the finally blocks that stop the children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from emulator import pin_client

    pin_client()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, n, bad, values, units = _run_workload(name, args)
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update(
            {prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()}
        )
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
