"""Tests of the benchmark itself, at tiny run lengths.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from measure import END_TO_END_UNITS, REPORTED_UNITS, end_to_end, percentile, run_rounds  # noqa: E402
from traced import PER_LAYER_UNITS, traced_run  # noqa: E402
from workloads import WORKLOADS, _version_ok, count_pcapng_packets  # noqa: E402

TINY = {"interactive": 300, "ll_logging": 20, "inject_burst": 10}


def _tiny(workload: str, tmp_path, trace: bool):
    """Run ``workload`` in this process at a tiny round length: one round
    untraced, or the minimum number of untraced/traced pairs."""
    wl = WORKLOADS[workload](ROOT, str(tmp_path), 7, TINY[workload])
    if trace:
        run, metrics, _units, problems = traced_run(wl, 0, str(tmp_path / "trace"))
    else:
        run, problems = run_rounds(wl, 0, 1), []
        metrics = end_to_end(run)
    assert not run.errors and not problems, run.errors + problems
    assert run.failed == 0 and run.attempted == TINY[workload] * len(run.rounds)
    return metrics


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_passes_its_checks(workload, tmp_path):
    metrics = _tiny(workload, tmp_path, trace=False)
    captures = {"capture_write_ms"} if workload == "ll_logging" else set()
    assert set(metrics) == set(END_TO_END_UNITS) | set(REPORTED_UNITS) - {"capture_write_ms"} | captures
    assert all(metrics[name] > 0 for name in END_TO_END_UNITS), metrics
    assert metrics["ops_ok_frac"] == 1.0 and metrics["ops_failed_frac"] == 0.0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_match_what_the_client_sent(workload, tmp_path):
    m = _tiny(workload, tmp_path, trace=True)
    assert set(m) == set(PER_LAYER_UNITS)
    # Every frame the client injected (attach probes included) was
    # decoded by the emulator's inject side and dispatched once.
    assert m["bench.frames_injected"] > TINY[workload]
    assert m["h4.frames_decoded"] == m["bench.frames_injected"]
    assert m["emulator.controller.host_frames"] == m["bench.frames_injected"]
    assert m["h4.decode_errors"] == m["diag.parse_errors"] == m["session.timeouts"] == 0
    assert m["emulator.server.fanout_wait_us"] > 0
    assert m["emulator.controller.construct_us"] > 0
    assert m["emulator.controller.reset_us"] > 0
    assert m["trace.traced_ops_per_s"] > 0 and m["trace.untraced_ops_per_s"] > 0
    linked = workload == "ll_logging"
    assert (m["emulator.link.pump_us"] > 0) == linked
    assert (m["ll.pdus_dissected"] > 0) == linked
    assert (m["capture.render_us_per_record"] > 0) == linked
    if workload == "inject_burst":
        assert m["h4.frames_per_feed"] > 1
    else:
        assert m["session.pred_calls_per_wait"] >= 1


def test_benchmark_json_lists_what_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "interactive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_follow_the_seed(tmp_path):
    for cls in WORKLOADS.values():
        a = cls(ROOT, str(tmp_path), 11, 50)
        b = cls(ROOT, str(tmp_path), 12, 50)
        first = list(a.make_inputs(0))
        assert first == list(a.make_inputs(0)) != list(b.make_inputs(0))
        assert first != list(a.make_inputs(1))


def test_version_check_rejects_wrong_fields():
    from bcmdiag import hci

    info = hci.parse_local_version(hci.local_version_params())
    line = (
        f"hci {info['hci_version']}.{info['hci_revision']:#06x} "
        f"lmp {info['lmp_version']}.{info['lmp_subversion']:#06x} "
        f"manufacturer {info['manufacturer']:#06x}"
    )
    assert _version_ok([line])
    assert not _version_ok([line.replace("manufacturer 0x000f", "manufacturer 0x0010")])
    assert not _version_ok([])


def test_pcapng_packet_count(tmp_path):
    from bcmdiag.capture import CaptureRecord, write_pcap
    from bcmdiag.h4 import Direction, H4Frame, HciCommand

    frame = HciCommand(0x1001).to_frame()
    records = [CaptureRecord.at_tick(i, Direction.HOST_TO_CONTROLLER, frame) for i in range(5)]
    records.append(CaptureRecord.at_tick(5, Direction.CONTROLLER_TO_HOST, H4Frame.diag(b"\x03")))
    path = str(tmp_path / "c.pcapng")
    write_pcap(records, path)
    assert count_pcapng_packets(path) == 6


def test_percentile_is_nearest_rank():
    values = [float(i) for i in range(1, 1001)]
    assert percentile(values, 50) == 500.0
    assert percentile(values, 99) == 990.0
    assert percentile([3.0], 99) == 3.0


def test_failed_ops_are_counted_and_a_failing_streak_ends_the_round(tmp_path):
    from workloads import CheckFailed, RoundResult

    wl = WORKLOADS["interactive"](ROOT, str(tmp_path), 1, 5)

    def reject(value):
        def check(item, out):
            if out == value or value is None:
                raise CheckFailed(f"wrong answer for {item}")

        return check

    class IdleChild:
        def cpu_s(self) -> float:
            return 0.0

    result = RoundResult()
    wl._loop(IdleChild(), [1, 2, 3, 4, 5], lambda x: x, result, reject(2))
    assert len(result.latencies_s) == 4 and result.attempted == 5 and not result.aborted
    result = RoundResult()
    wl._loop(IdleChild(), [1, 2, 3, 4, 5], lambda x: x, result, reject(None))
    assert result.aborted and result.attempted == 3 and not result.latencies_s


def test_dead_emulator_ends_the_round_with_its_ops_failed(tmp_path):
    wl = WORKLOADS["interactive"](ROOT, str(tmp_path), 3, 40)
    run_ops = wl.run_ops

    def kill_then_run(child, *args):
        child.proc.kill()
        child.proc.wait()
        run_ops(child, *args)

    wl.run_ops = kill_then_run
    t0 = time.monotonic()
    result = wl.run_round(0, None)
    assert time.monotonic() - t0 < 60
    assert result.aborted and result.failed == result.attempted == 40
