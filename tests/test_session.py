"""``Session.execute`` never raises.  On a controller's answer: a frame
too short for a field an answer predicate reads does not match, and an
answer that matches but cannot be read fails its command with one line.
On an operator's line: any command with edge-value arguments, and any
``scenario run`` file, whatever its octets or nesting, returns (ok, lines)."""

import errno
import gc
import os
import re
import struct
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bcmdiag import capture, hci
from bcmdiag.capture import TICK_US
from bcmdiag.cli import SocketSession
from bcmdiag.diag import DiagCode
from bcmdiag.emulator.scenario import run_scenario
from bcmdiag.h4 import DIAG_PAYLOAD_LEN, Direction, H4Frame, H4Type, HciEvent
from bcmdiag.commands import USAGE
from bcmdiag.session import LocalSession, Session

from helpers import read_btsnoop, read_pcapng


class StubSession(Session):
    """Answers every send with the same frames, queued after its echo."""

    def __init__(self, answers: list[H4Frame]) -> None:
        super().__init__(lock=nullcontext())
        self.answers = answers

    def _send(self, frame: H4Frame) -> None:
        self._queue_records(
            [(Direction.HOST_TO_CONTROLLER, frame)]
            + [(Direction.CONTROLLER_TO_HOST, answer) for answer in self.answers]
        )


def _diag(code: DiagCode) -> H4Frame:
    """A full envelope of ``code`` whose last octet is not zero padding."""
    return H4Frame.diag(bytes([code]) + bytes(DIAG_PAYLOAD_LEN - 2) + b"\x01")


def _complete(opcode: int, return_params: bytes) -> H4Frame:
    return HciEvent(hci.EVT_COMMAND_COMPLETE, hci.command_complete(opcode, return_params)).to_frame()


_UNREADABLE = {  # test id -> (command line, answer)
    "peek": ("peek arm 0x200000", _diag(DiagCode.PEEK_RESPONSE)),
    "poke": ("poke arm 0x200000 11", _diag(DiagCode.POKE_RESPONSE)),
    "dump": ("dump 0x200000", _diag(DiagCode.HEXDUMP_RESPONSE)),
    "test": ("test", _diag(DiagCode.TEST_COMPLETED)),
    "stats br": ("stats br", _diag(DiagCode.BR_ACL_STATS)),
    "stats conn": ("stats conn", _diag(DiagCode.CONNECTION_RESPONSE)),
    "version": ("version", _complete(hci.OPCODE_READ_LOCAL_VERSION, b"\x00")),
    "firewall show": ("firewall show", _complete(hci.OPCODE_VSC_FIREWALL_SHOW, b"")),
    "firewall show, one MAC of two": (
        "firewall show",
        _complete(hci.OPCODE_VSC_FIREWALL_SHOW, bytes([0, 1, 2]) + bytes(6)),
    ),
    "connect": (
        "connect 00:11:22:33:44:02", HciEvent(hci.EVT_CONNECTION_COMPLETE, b"\x00").to_frame()
    ),
    "leconnect": ("leconnect 00:11:22:33:44:02", HciEvent(hci.EVT_LE_META, b"\x01").to_frame()),
    # Too short to name its opcode: it matches nothing.
    "sendlmp": ("sendlmp 000b 00", H4Frame(H4Type.HCI_EVENT, b"\x0e\x02\x01\x58")),
}


@pytest.mark.parametrize("empty_first", [False, True], ids=["alone", "after-empty"])
@pytest.mark.parametrize("line, answer", list(_UNREADABLE.values()), ids=list(_UNREADABLE))
def test_an_unreadable_answer_fails_its_command(line, answer, empty_first):
    """Each waiting command sees an answer it cannot read, alone or after
    an empty frame of the same type, which no predicate may match."""
    session = StubSession([H4Frame(answer.h4_type, b"")] * empty_first + [answer])
    ok, lines = session.execute(line)
    name = line.split()[0]
    if name == "sendlmp":
        assert (ok, lines) == (False, ["timeout waiting for command complete 0xfc58"])
    else:
        assert not ok and len(lines) == 1 and lines[0].startswith(f"{name}: unreadable answer ("), lines


_TWO_CHIPS = "controller A mac=00:11:22:33:44:01\ncontroller B mac=00:11:22:33:44:02\nlink A B\n"
# Argument edge values: hex and decimal edges, MACs, every word of USAGE
# and text no codec expects.  Paths are added per test, under tmp_path.
_TOKENS = [
    "0", "0x0", "0xff", "0x100", "0xffff", "0x10000", "0xffffffff", "0x100000000", "0x200000",
    "-1", "0x", "zz", "000b", "0e13", "000", "9" * 4301,
    "00:11:22:33:44:01", "00:11:22:33:44:02", "ff:ff:ff:ff:ff:ff", "00:11:22:33:44", "0:1:2:3:4:5:6",
    "\u00e9", "\u0663", "\u00ff\u0100", "\udcff", "\x00", "#",
    *sorted({word for usage in USAGE.values() for word in re.findall(r"[\w-]+", usage)}),
]
_NAMES = sorted(USAGE)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_no_command_line_raises(tmp_path, monkeypatch, data):
    """Lines of each USAGE name with 0-4 edge tokens, and ``scenario run``
    of generated files: random octets, invalid UTF-8, generated lines, and
    a file that runs itself deeper than SCENARIO_DEPTH_MAX.  A bare token
    such as ``edr`` can name a capture file, so the working directory is
    tmp_path too."""
    monkeypatch.chdir(tmp_path)
    files = [str(tmp_path / f"s{i}.scenario") for i in range(3)]
    tokens = st.sampled_from(_TOKENS + files + [str(tmp_path), str(tmp_path / "cap.pcapng")])
    lines = st.builds(
        lambda name, args: " ".join([name, *args]),
        st.sampled_from(_NAMES), st.lists(tokens, max_size=4))
    for path in files:
        body = data.draw(st.one_of(
            st.binary(max_size=64),
            st.lists(lines, max_size=4).map(lambda ls: "\n".join(ls).encode("utf-8", "surrogatepass")),
            st.just(b"version\n\xff\xfe\n"),  # invalid UTF-8 after a good line
            st.just(f"A: version\nscenario run {path}\n".encode()),  # nests past the bound
        ))
        with open(path, "wb") as fh:
            fh.write(body)
    session = LocalSession(run_scenario(_TWO_CHIPS)[1], "A")
    for line in [f"scenario run {path}" for path in files] + data.draw(st.lists(lines, max_size=6)):
        ok, out = session.execute(line)
        assert ok in (True, False) and isinstance(out, list)
        assert all(isinstance(text, str) for text in out), line


def test_a_local_wait_returns_at_once_on_a_miss():
    """An in-process controller has answered before ``_send`` returns,
    so a wait that finds no match ends without waiting for its timeout."""
    session = LocalSession(run_scenario(_TWO_CHIPS)[1], "A")
    t0 = time.monotonic()
    assert session.wait_frame(lambda _f: False, 5.0) is None
    assert time.monotonic() - t0 < 0.5


def test_a_capture_that_cannot_spool_fails_its_start(tmp_path, monkeypatch):
    """With no temporary directory to spool to, the start fails with one
    line and leaves no capture running."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    session = LocalSession(run_scenario(_TWO_CHIPS)[1], "A")
    ok, lines = session.execute(f"capture start {tmp_path / 'x.pcapng'}")
    assert not ok and len(lines) == 1 and "missing" in lines[0], lines
    assert session.capture_records is None
    assert session.execute("capture stop") == (False, ["no capture running"])


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_closing_mid_capture_releases_the_spool(tmp_path, served_world, transport):
    """A session closed with a capture running closes its spool's file:
    no descriptor stays open and none is left for the collector to warn of."""
    world, server = served_world
    if transport == "local":
        session = LocalSession(world, "A")
    else:
        sniff, inject = server.port_map()["A"]
        session = SocketSession(("127.0.0.1", inject), ("127.0.0.1", sniff), color=False)
    assert session.execute(f"capture start {tmp_path / 'x.pcapng'}")[0]
    assert session.execute("version")[0]
    spool = session.capture_records
    assert len(spool) > 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        session.close()
        file = spool._file
        del spool, session
        gc.collect()
    assert file.closed
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert not (tmp_path / "x.pcapng").exists()


def test_a_spool_that_cannot_grow_loses_records_not_commands(tmp_path):
    """A record the spool's file cannot take (a full disk, a file-size
    limit) is counted, not raised through the command that was waiting;
    the stop writes the records the spool holds and names the loss.  Each
    record is stamped with its position, so those after the loss follow
    on without a gap."""
    session = LocalSession(run_scenario(_TWO_CHIPS)[1], "A")
    path = tmp_path / "x.pcapng"
    assert session.execute(f"capture start {path}")[0]
    assert session.execute("version")[0]
    spool = session.capture_records
    write = spool.write

    def full(_octets):
        raise OSError(errno.EFBIG, "File too large")

    spool.write = full
    assert session.execute("version")[0]
    spool.write = write
    assert session.execute("version")[0]
    assert session.execute("capture stop") == (
        True, [f"wrote 4 records to {path}; 2 records lost, the spool could not grow"]
    )
    _interfaces, packets = read_pcapng(str(path))
    assert [timestamp for _iface, timestamp, _data in packets] == [tick * TICK_US for tick in range(4)]


def test_a_part_written_record_is_cut_off(tmp_path):
    """A write that fails part-way through a record (the buffered file
    put some of its octets on disk) loses that record only: the spool is
    cut back to the end of the record before it, and the records after
    it follow on."""
    session = LocalSession(run_scenario(_TWO_CHIPS)[1], "A")
    path = tmp_path / "x.pcapng"
    assert session.execute(f"capture start {path}")[0]
    assert session.execute("version")[0]
    spool = session.capture_records
    write = spool.write

    def part(octets):
        write(octets[:3])
        spool._file.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    spool.write = part
    assert session.execute("version")[0]
    spool.write = write
    assert session.execute("version")[0]
    assert session.execute("capture stop") == (
        True, [f"wrote 4 records to {path}; 2 records lost, the spool could not grow"]
    )
    assert len(read_pcapng(str(path))[1]) == 4


# A child interpreter, so the file-size limit binds no other test: two
# 60,004-octet ACL records under a 100,000-octet limit, then the limit lifted.
_TWO_RECORDS_PAST_THE_LIMIT = """
import resource, struct, sys, threading
from bcmdiag.h4 import Direction, H4Frame, H4Type
from bcmdiag.session import Session
session = Session(threading.Lock())
assert session.execute(f"capture start {sys.argv[1]} {sys.argv[2]}")[0]
soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, hard))
frame = H4Frame(H4Type.ACL_DATA, struct.pack("<HH", 0x000B, 60_000) + bytes(60_000))
for _ in range(2):
    session.record_frame(Direction.CONTROLLER_TO_HOST, frame)
resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
print(session.execute("capture stop"))
"""


@pytest.mark.parametrize("fmt", ["pcap", "btsnoop"])
def test_a_file_size_limit_loses_the_record_it_cuts_not_the_capture(tmp_path, fmt):
    """The second record meets the limit part-way (CPython ignores
    SIGXFSZ, so the write fails with EFBIG): the stop writes the first
    and reports the second lost."""
    path = tmp_path / f"x.{fmt}"
    out = subprocess.run(
        [sys.executable, "-c", _TWO_RECORDS_PAST_THE_LIMIT, str(path), fmt],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        capture_output=True, text=True, check=True,
    ).stdout
    lost = "1 records lost, the spool could not grow"
    if fmt == "pcap":
        assert out == repr((True, [f"wrote 1 records to {path}; {lost}"])) + "\n"
        datas = [data for _iface, _ts, data in read_pcapng(str(path))[1]]
    else:
        assert out == repr((True, [f"wrote 1 HCI records to {path} (skipped 0 non-HCI); {lost}"])) + "\n"
        datas = [data for _flags, _ts, data in read_btsnoop(str(path))[1]]
    (data,) = datas
    assert data.endswith(struct.pack("<HH", 0x000B, 60_000) + bytes(60_000))


@pytest.mark.parametrize("damage, reason", [
    ("count", "capture spool damaged: 2 whole records of 3, 0 octets over"),
    ("stray octet", "unknown direction octet 0x05"),  # as a write cut short leaves
])
@pytest.mark.parametrize("fmt", ["pcap", "btsnoop"])
def test_a_damaged_spool_ends_the_capture_with_one_line(tmp_path, fmt, damage, reason):
    """A spool that holds fewer records than it counts, or octets that
    are no record, cannot be read back: the stop fails with one line,
    closes the spool's file and leaves no partial file at the path."""
    session = LocalSession(run_scenario(_TWO_CHIPS)[1], "A")
    path = tmp_path / "x.cap"
    assert session.execute(f"capture start {path} {fmt}")[0]
    assert session.execute("version")[0]
    spool = session.capture_records
    if damage == "count":
        spool.count += 1
    else:
        spool.write(b"\x05")
        assert session.execute("version")[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        ok, lines = session.execute("capture stop")
        file = spool._file
        del spool
        gc.collect()
    assert not ok and len(lines) == 1 and reason in lines[0], lines
    assert file.closed and session.capture_records is None
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert not path.exists()
    assert session.execute("capture stop") == (False, ["no capture running"])


def test_a_damaged_spool_ends_the_capture_when_its_file_cannot_be_removed(tmp_path, monkeypatch):
    """A partial file that cannot be removed stays, and the stop still
    reports the damage, not the removal, and ends the capture."""
    session = LocalSession(run_scenario(_TWO_CHIPS)[1], "A")
    path = tmp_path / "x.pcapng"
    assert session.execute(f"capture start {path}")[0]
    assert session.execute("version")[0]
    session.capture_records.count += 1

    def refuse(_path):
        raise PermissionError(errno.EACCES, "Permission denied")

    monkeypatch.setattr(os, "remove", refuse)
    ok, lines = session.execute("capture stop")
    assert (ok, lines) == (False, ["capture spool damaged: 2 whole records of 3, 0 octets over"])
    assert session.capture_records is None and path.exists()


@pytest.mark.parametrize("fmt", ["pcap", "btsnoop"])
def test_a_stop_that_fails_past_the_open_leaves_no_file(tmp_path, monkeypatch, fmt):
    """An OSError after the writer opened the path (a full disk, a
    file-size limit) removes the partial file; the capture keeps running,
    and a retry writes all of it."""
    session = LocalSession(run_scenario(_TWO_CHIPS)[1], "A")
    path = tmp_path / "x.cap"
    assert session.execute(f"capture start {path} {fmt}")[0]
    assert session.execute("version")[0]

    def full(_frame):
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(capture, "encode_frame", full)
        ok, lines = session.execute("capture stop")
    assert (ok, lines) == (False, ["[Errno 28] No space left on device (capture still running)"])
    assert not path.exists()
    assert session.execute("version")[0]
    ok, lines = session.execute("capture stop")
    assert ok and "wrote 4" in lines[0], lines
    read = read_pcapng if fmt == "pcap" else read_btsnoop
    assert len(read(str(path))[1]) == 4


def test_a_stop_whose_open_fails_leaves_the_file_there(tmp_path, monkeypatch):
    """A file already at the path that the writer cannot open is not the
    writer's: the stop fails and leaves it as it was."""
    session = LocalSession(run_scenario(_TWO_CHIPS)[1], "A")
    path = tmp_path / "x.pcapng"
    path.write_bytes(b"not ours")
    try:
        assert session.execute(f"capture start {path}")[0]

        def refuse(name, _mode):
            raise PermissionError(errno.EACCES, "Permission denied", name)

        monkeypatch.setattr(capture, "open", refuse, raising=False)
        ok, lines = session.execute("capture stop")
        assert not ok
        assert lines == [f"[Errno 13] Permission denied: '{path}' (capture still running)"]
        assert path.read_bytes() == b"not ours"
    finally:
        session.close()  # the capture still runs: closing frees its spool


@pytest.mark.parametrize("line", [
    "firewall show junk",
    "stats br reset junk",
    "capture start {path} pcap junk",
    "capture stop junk",
])
def test_a_trailing_word_is_refused_with_the_usage_line(tmp_path, line):
    """A command that takes a fixed number of words refuses one more and
    does nothing: no reset, no capture started, no file written."""
    session = LocalSession(run_scenario(_TWO_CHIPS)[1], "A")
    path = tmp_path / "x.pcapng"
    try:
        if line == "capture stop junk":
            assert session.execute(f"capture start {path}")[0]
        ok, lines = session.execute(line.format(path=path))
        assert not ok and len(lines) == 1, lines
        assert lines[0].startswith(f"usage: {USAGE[line.split()[0]]}  ("), lines
        assert (session.capture_records is None) == (line != "capture stop junk")
        assert not path.exists()
    finally:
        session.close()


class _PumpedSession(StubSession):
    """Answers a send with ``answers``, then each pump with the next batch."""

    def __init__(self, answers: list[H4Frame], batches: list[list[H4Frame]]) -> None:
        super().__init__(answers)
        self.batches = batches

    def _pump(self, timeout: float) -> bool:
        if not self.batches:
            return False
        self._queue_records([(Direction.CONTROLLER_TO_HOST, f) for f in self.batches.pop(0)])
        return True


def test_a_wait_that_misses_returns_the_oldest_match():
    """The first scan finds only frames the predicate rejects; pumps queue
    more of them and then two matches.  The wait takes the older match
    and leaves every other frame queued in order."""
    miss = [_diag(DiagCode.PEEK_RESPONSE), _diag(DiagCode.POKE_RESPONSE)]
    first, second = (H4Frame.diag(bytes([DiagCode.HEXDUMP_RESPONSE, n])) for n in (1, 2))
    session = _PumpedSession(miss, [[miss[1]], [miss[0], first, second]])
    session.send_frame(H4Frame.diag(bytes([DiagCode.MEMORY_HEXDUMP])))
    head = bytes([DiagCode.HEXDUMP_RESPONSE])
    assert session.wait_frame(lambda f: f.payload[:1] == head, 1.0) == first
    assert list(session._pending) == miss + [miss[1], miss[0], second]
