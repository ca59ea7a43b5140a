"""Parent side of the emulator child: port windows, start-up, teardown."""

from __future__ import annotations

import os
import random
import re
import selectors
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "emu_launcher.py")

# Windows are drawn below Linux's default ephemeral range (32768 and up),
# where tests that bind port 0 get theirs, and away from the 8872
# default, so a child never collides with a test server.
PORT_LOW, PORT_HIGH = 20000, 32000
START_TIMEOUT_S = 20.0
STOP_TIMEOUT_S = 5.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

# The client and the emulator each run on a CPU of their own.  Left to
# the scheduler, their threads migrate between the two CPUs of a small
# host, and the CPU time per op of ll_logging rose by a third and varied
# with where the threads landed.  Read once, before pin_client() narrows
# this process's set.
_CPUS = sorted(os.sched_getaffinity(0))


def pin_client() -> None:
    """Keep this process, and the threads it starts, on the first CPU."""
    if len(_CPUS) > 1:
        os.sched_setaffinity(0, {_CPUS[0]})


_PORT_LINE = re.compile(r"^(\S+): sniff ([\d.]+):(\d+)\s+inject ([\d.]+):(\d+)$")


class EmulatorError(Exception):
    pass


def _window_free(base: int, width: int) -> bool:
    """True when every port of the window can be bound right now.  No
    SO_REUSEADDR, so ports still in TIME_WAIT count as taken."""
    for port in range(base, base + width):
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            try:
                probe.bind(("127.0.0.1", port))
            except OSError:
                return False
    return True


def free_window(width: int, rng: random.Random) -> int:
    for _attempt in range(200):
        base = rng.randrange(PORT_LOW, PORT_HIGH - width)
        if _window_free(base, width):
            return base
    raise EmulatorError("no free port window")


class EmulatorChild:
    """One ``bcmdiag-emu`` process serving ``controllers`` endpoints.

    ``start()`` returns once every endpoint's port line is printed, i.e.
    the listeners are bound.  ``stop()`` always ends the process; with
    tracing it first lets the child write its trace (SIGTERM)."""

    def __init__(
        self,
        root: str,
        workdir: str,
        controllers: int,
        scenario: str | None = None,
        trace_dir: str | None = None,
    ) -> None:
        self.root = root
        self.workdir = workdir
        self.controllers = controllers
        self.scenario = scenario
        self.trace_dir = trace_dir
        self.proc: subprocess.Popen | None = None
        self.ports: dict[str, tuple[int, int]] = {}
        self.order: list[str] = []
        self._port_rng = random.Random()  # not the workload seed: ports are no input

    def start(self) -> None:
        for _attempt in range(5):
            base = free_window(2 * self.controllers, self._port_rng)
            if self._spawn(base):
                return
        raise EmulatorError("emulator child could not bind a port window")

    def _spawn(self, base: int) -> bool:
        cmd = [sys.executable, LAUNCHER]
        if self.trace_dir is not None:
            cmd += ["--trace-dir", self.trace_dir]
        cmd += ["--", "--base-port", str(base)]
        if self.scenario is not None:
            cmd += ["--scenario", self.scenario]
        with open(os.path.join(self.workdir, "emulator.stderr"), "ab") as err:
            self.proc = subprocess.Popen(cmd, cwd=self.root, stdout=subprocess.PIPE, stderr=err)
        if len(_CPUS) > 1:
            # Before the child starts its threads, which inherit the set.
            os.sched_setaffinity(self.proc.pid, {_CPUS[1]})
        self.ports, self.order = {}, []
        deadline = time.monotonic() + START_TIMEOUT_S
        buf = b""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while len(self.ports) < self.controllers:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not sel.select(remaining):
                    self.stop()
                    raise EmulatorError("emulator child did not report its ports")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:  # exited, e.g. a port was taken meanwhile
                    self.stop()
                    return False
                buf += chunk
                *lines, buf = buf.split(b"\n")
                for line in lines:
                    match = _PORT_LINE.match(line.decode(errors="replace").strip())
                    if match:
                        name = match.group(1)
                        self.order.append(name)
                        self.ports[name] = (int(match.group(3)), int(match.group(5)))
        return True

    def endpoint(self, name: str) -> tuple[tuple[str, int], tuple[str, int]]:
        """(inject, sniff) addresses of one controller."""
        sniff, inject = self.ports[name]
        return ("127.0.0.1", inject), ("127.0.0.1", sniff)

    def peak_rss_mb(self) -> float:
        """VmHWM of the child, read while it is still running."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise EmulatorError("VmHWM missing from /proc status")

    def cpu_s(self) -> float:
        """User plus system CPU seconds of the child so far, over all its
        threads, at the kernel's clock-tick resolution.  On a kernel with
        paravirtual steal accounting, time the hypervisor steals from the
        guest is not counted."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def stop(self) -> None:
        proc = self.proc
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        finally:
            proc.stdout.close()
            self.proc = None
