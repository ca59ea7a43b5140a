"""Scenario file parsing and the in-process runner."""

import pytest

from bcmdiag.emulator.scenario import (
    parse_scenario,
    run_scenario,
)
from bcmdiag.errors import ScenarioError
from bcmdiag.h4 import Direction, encode_frame
from bcmdiag.commands import USAGE
from bcmdiag.session import LocalSession, Session

from helpers import MAC_A, MAC_B, HostRecorder, read_pcapng

TOPOLOGY = """\
# two chips on one air link
controller A mac=00:11:22:33:44:01 profile=patched
controller B mac=00:11:22:33:44:02 profile=vulnerable test-packets=25
link A B
"""


class TestParsing:
    def test_directives_and_commands_split(self):
        directives, commands = parse_scenario(TOPOLOGY + "A: diag on\nB: version\n")
        assert [d[1] for d in directives] == ["controller", "controller", "link"]
        assert commands == [(5, "A", "diag on"), (6, "B", "version")]

    def test_comments_and_blanks_ignored(self):
        directives, commands = parse_scenario("\n# nothing\n   \n")
        assert directives == [] and commands == []

    def test_bad_line_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("frobnicate all the things\n")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ScenarioError):
            run_scenario("controller A mac=00:11:22:33:44:01 profile=bogus\n")

    def test_missing_mac_rejected(self):
        with pytest.raises(ScenarioError):
            run_scenario("controller A profile=patched\n")

    def test_unknown_option_rejected(self):
        with pytest.raises(ScenarioError):
            run_scenario("controller A mac=00:11:22:33:44:01 color=red\n")

    def test_link_unknown_controller_rejected(self):
        with pytest.raises(ScenarioError):
            run_scenario("controller A mac=00:11:22:33:44:01\nlink A B\n")

    @pytest.mark.parametrize("text, lineno, reason", [
        ("controller a mac=00:11:22:33:44:01\ncontroller a mac=00:11:22:33:44:02\n",
         2, "duplicate controller name 'a'"),
        ("controller a mac=00:11:22:33:44:01\nlink a a\n",
         2, "a link needs two distinct controllers"),
        ("controller a mac=00:11:22:33:44:01\ncontroller b mac=00:11:22:33:44:01\nlink a b\n",
         3, "a link needs two distinct controllers"),
        ("controller a mac=00:11:22:33:44:01\ncontroller b mac=00:11:22:33:44:02\n"
         "controller c mac=00:11:22:33:44:03\nlink a b\nlink a c\n",
         5, "one of the controllers is already linked"),
        ("controller a mac=00:11:22:33:44:01 patched\n", 1, "expected key=value, got 'patched'"),
        ("controller\n", 1, "controller needs a name"),
        ("controller a mac=00:11:22:33:44:01\nlink a\n", 2, "link takes exactly two names"),
    ], ids=["duplicate-name", "self-link", "shared-mac", "second-link", "bare-option",
            "no-name", "one-name"])
    def test_a_topology_error_names_its_line(self, tmp_path, capsys, text, lineno, reason):
        """The runner raises ScenarioError for the line, and ``bcmdiag-emu
        --scenario`` prints it with the file's name and exits 2."""
        from bcmdiag.emulator.server import main as emulator_main

        with pytest.raises(ScenarioError) as raised:
            run_scenario(text)
        assert (raised.value.lineno, raised.value.reason) == (lineno, reason)
        path = tmp_path / "topology.scenario"
        path.write_text(text)
        assert emulator_main(["--scenario", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"bcmdiag-emu: scenario line {lineno}: {reason}: {str(path)!r}\n"
        )


# One line each and how both readers of the scenario grammar classify
# it: ("directive", word), ("command", target), "bare", or None when
# nothing is left of it.
_GRAMMAR = [
    pytest.param("controller A mac=00:11:22:33:44:01", ("directive", "controller"), id="directive"),
    pytest.param("controller\tA mac=00:11:22:33:44:01", ("directive", "controller"), id="directive-tab"),
    pytest.param("A: version", ("command", "A"), id="target"),
    pytest.param("A:\tversion", ("command", "A"), id="target-tab"),
    pytest.param("A:version", "bare", id="target-no-space"),
    pytest.param("version", "bare", id="bare"),
    pytest.param("   # only a comment", None, id="comment"),
    pytest.param("", None, id="blank"),
]


def _runner_reads(line: str):
    try:
        directives, commands = parse_scenario(line + "\n")
    except ScenarioError:
        return "bare"  # the runner needs a target on every command line
    if directives:
        return "directive", directives[0][1]
    if commands:
        assert commands[0][2] == "version", line
        return "command", commands[0][1]
    return None


def _client_reads(session: LocalSession, path, line: str):
    path.write_text(line + "\n")
    _ok, out = session.run_script_file(str(path))
    if not out:
        return None
    if "skipped emulator directive" in out[0]:
        return "directive", out[0].split("'")[1]
    if "skipped (for controller" in out[0]:
        return "command", out[0].split("'")[1]
    return "bare"  # the client ran the whole line


class TestGrammar:
    @pytest.mark.parametrize("line, expected", _GRAMMAR)
    def test_runner_and_client_classify_alike(self, tmp_path, line, expected):
        """parse_scenario and ``scenario run`` read one grammar; a session
        named B skips what is addressed to A and runs bare lines."""
        session = LocalSession(run_scenario("controller B mac=00:11:22:33:44:02\n")[1], "B")
        path = tmp_path / "one.scenario"
        assert _runner_reads(line) == _client_reads(session, path, line) == expected


class TestWorldBuilding:
    def test_topology(self):
        world = run_scenario(TOPOLOGY)[1]
        assert list(world.controllers) == ["A", "B"]
        assert world["A"].mac == MAC_A
        assert world["B"].profile.patched is False
        assert world["B"].test_packet_count == 25
        assert world["A"].link is world["B"].link is not None

    def test_allowlist_option(self):
        world = run_scenario(
            "controller A mac=00:11:22:33:44:01 allowlist=00:11:22:33:44:02\n"
        )[1]
        assert world["A"].profile.firewall_allowlist == {MAC_B}

    def test_allowlist_past_the_firewall_cap_is_refused(self):
        macs = ",".join(f"02:00:00:00:00:{i:02x}" for i in range(42))
        with pytest.raises(ScenarioError, match="at most 41"):
            run_scenario(f"controller A mac=00:11:22:33:44:01 allowlist={macs}\n")
        run_scenario(f"controller A mac=00:11:22:33:44:01 allowlist={macs.rsplit(',', 1)[0]}\n")

    @pytest.mark.parametrize(
        "option",
        [
            "test-packets=70000",
            "test-packets=-5",
            "test-packets=many",
            "allowlist=00:11:22",
            "memory=<tmp>/missing.json",
        ],
    )
    def test_bad_controller_option_is_a_scenario_error(self, tmp_path, option):
        option = option.replace("<tmp>", str(tmp_path))
        with pytest.raises(ScenarioError, match="scenario line 1: "):
            run_scenario(f"controller A mac=00:11:22:33:44:01 {option}\n")

    @pytest.mark.parametrize(
        ("layout", "field"),
        [
            ("{}", "'regions'"),
            ("[]", "'regions'"),
            ('{"regions": 5}', "'regions'"),
            ('{"regions": [{"kind": "arm", "size": 4}]}', "'base'"),
            ('{"regions": [{"base": 0, "kind": "arm"}]}', "'size'"),
            ('{"regions": [{"base": "0xzz", "kind": "arm", "size": 4}]}', "'base'"),
            ('{"regions": [{"base": 0, "kind": "dsp", "size": 4}]}', "'kind'"),
            ('{"regions": [{"base": 0, "kind": "arm", "contents": "c0f"}]}', "'contents'"),
            ('{"regions": [[0, "arm", 4]]}', "region 0"),
        ],
        ids=["empty-object", "list", "regions-not-list", "no-base", "no-size-or-contents",
             "bad-base", "bad-kind", "odd-hex", "region-not-object"],
    )
    def test_malformed_memory_file_is_a_scenario_error(self, tmp_path, layout, field):
        image = tmp_path / "image.json"
        image.write_text(layout)
        with pytest.raises(ScenarioError, match=f"scenario line 1: .*{field}"):
            run_scenario(f"controller A mac=00:11:22:33:44:01 memory={image}\n")

    def test_test_packets_at_the_counter_width(self):
        for count in (0, 65535):
            world = run_scenario(f"controller A mac=00:11:22:33:44:01 test-packets={count}\n")[1]
            assert world["A"].test_packet_count == count

    def test_memory_option_loads_json_image(self, tmp_path):
        import json

        from bcmdiag.diag import MemAccessType

        image = tmp_path / "image.json"
        image.write_text(
            json.dumps(
                {
                    "regions": [
                        {"base": "0x00200000", "kind": "arm", "contents": "c0ffee", "size": 64},
                        {"base": 0, "kind": "bluerf", "size": 16},
                    ]
                }
            )
        )
        world = run_scenario(
            f"controller A mac=00:11:22:33:44:01 memory={image}\n"
        )[1]
        assert world["A"].memory.read(MemAccessType.ARM, 0x00200000) == 0xC0
        assert world["A"].memory.read(MemAccessType.ARM, 0x00200002) == 0xEE
        assert world["A"].memory.read(MemAccessType.ARM, 0x00200040) is None
        assert world["A"].memory.read(MemAccessType.BLUERF, 0) == 0


class TestRunning:
    def test_full_scenario(self):
        text = TOPOLOGY + (
            "A: diag on\n"
            "B: diag on\n"
            "A: connect 00:11:22:33:44:02\n"
            "A: leconnect 00:11:22:33:44:02\n"
            "A: stats br\n"
            "A: firewall add 00:11:22:33:44:02\n"
            "A: firewall show\n"
            "B: test\n"
        )
        printed: list[str] = []
        ok, world, transcript = run_scenario(text, on_line=printed.append)
        assert ok
        assert printed == transcript  # the live view is off: command output only
        assert world["A"].connections and world["B"].connections
        assert any("connected to 00:11:22:33:44:02" in line for line in transcript)
        assert any("LE connected to 00:11:22:33:44:02" in line for line in transcript)
        assert any("firewall allowlist (1)" in line for line in transcript)
        assert any("tx=25 rx=25" in line for line in transcript)
        assert world["A"].profile.firewall_allowlist == {MAC_B}

    def test_sessions_release_their_taps(self, tmp_path):
        """The controllers outlive the run; a live view or capture the
        scenario started ends with it."""
        text = TOPOLOGY + (
            f"A: capture start {tmp_path / 'run.pcapng'}\n"
            "A: live on\n"
            "A: connect 00:11:22:33:44:02\n"
            "B: version\n"
        )
        ok, world, _transcript = run_scenario(text)
        assert ok
        assert world["A"]._taps == [] and world["B"]._taps == []

    def test_scenario_run_command_nests(self, tmp_path):
        inner = tmp_path / "inner.scenario"
        inner.write_text("A: version\n")
        world = run_scenario("controller A mac=00:11:22:33:44:01\n")[1]
        session = LocalSession(world, "A")
        ok, lines = session.execute(f"scenario run {inner}")
        assert ok
        assert any("manufacturer" in line for line in lines)

    def test_scenario_run_of_itself_is_bounded(self, tmp_path):
        """A file that runs itself nests SCENARIO_DEPTH_MAX deep, then
        answers usage."""
        from bcmdiag.commands import SCENARIO_DEPTH_MAX

        path = tmp_path / "self.scenario"
        path.write_text(f"A: version\nA: scenario run {path}\n")
        world = run_scenario("controller A mac=00:11:22:33:44:01\n")[1]
        session = LocalSession(world, "A")
        ok, lines = session.execute(f"scenario run {path}")
        assert not ok
        assert sum("manufacturer" in line for line in lines) == SCENARIO_DEPTH_MAX
        assert lines[-1] == (
            f"usage: {USAGE['scenario']}  "
            f"(scenario files nest at most {SCENARIO_DEPTH_MAX} deep)"
        )
        assert session.execute("version")[0]

    def test_scenario_run_of_an_undecodable_file_fails_with_one_line(self, tmp_path):
        path = tmp_path / "latin1.scenario"
        path.write_bytes(b"A: version\nA: peek arm 0x200000 # \xe9t\xe9\n")
        world = run_scenario("controller A mac=00:11:22:33:44:01\n")[1]
        session = LocalSession(world, "A")
        ok, lines = session.execute(f"scenario run {path}")
        assert not ok and len(lines) == 1 and "utf-8" in lines[0]
        assert str(path) in lines[0]
        assert session.execute("version")[0]

    def test_failure_propagates(self):
        ok, _world, transcript = run_scenario(
            TOPOLOGY + "A: peek arm 0xdead0000\nA: poke arm 0xdead0000 1\n"
        )
        assert not ok
        assert any("peek failed" in line for line in transcript)
        assert "A: poke failed: controller status 0x01" in transcript

    def test_unknown_target_rejected(self):
        with pytest.raises(ScenarioError):
            run_scenario("controller A mac=00:11:22:33:44:01\nZ: version\n")

    def test_local_session_golden_frames(self):
        """Commands emit exactly the octets the codec builders make."""
        from bcmdiag import hci
        from bcmdiag.diag import (
            MemoryHexdump,
            MemoryPeek,
            MemAccessType,
            ToggleLmpLogging,
            build_diag,
        )
        from bcmdiag.h4 import H4Frame, HciCommand

        world = run_scenario("controller A mac=00:11:22:33:44:01\n")[1]
        session = LocalSession(world, "A")
        sent = HostRecorder(world["A"], Direction.HOST_TO_CONTROLLER)
        expectations = [
            ("diag on", H4Frame.diag(build_diag(ToggleLmpLogging(True)))),
            ("version", HciCommand(hci.OPCODE_READ_LOCAL_VERSION).to_frame()),
            ("peek arm 0x200000", H4Frame.diag(build_diag(MemoryPeek(MemAccessType.ARM, 0x200000)))),
            ("dump 200000", H4Frame.diag(build_diag(MemoryHexdump(0x200000)))),
        ]
        for line, expected in expectations:
            session.execute(line)
            assert [encode_frame(f) for f in sent.take()] == [encode_frame(expected)], line

    def test_diag_on_emits_padded_toggle(self):
        world = run_scenario("controller A mac=00:11:22:33:44:01\n")[1]
        session = LocalSession(world, "A")
        sent = HostRecorder(world["A"], Direction.HOST_TO_CONTROLLER)
        session.execute("diag on")
        (frame,) = sent.take()
        wire = encode_frame(frame)
        assert wire[:3] == b"\x07\xf0\x01"
        assert len(wire) == 64

    def test_usage_errors_echo_usage(self):
        world = run_scenario("controller A mac=00:11:22:33:44:01\n")[1]
        session = LocalSession(world, "A")
        ok, lines = session.execute("peek sideways 0x0")
        assert not ok
        assert lines and lines[0].startswith("usage: peek")
        ok, lines = session.execute("warp 9")
        assert not ok and "unknown command" in lines[0]
        assert session.execute("") == session.execute("  # a note") == (True, [])

    @pytest.mark.parametrize(
        "line",
        [
            "sendlmp 10000 00",
            "test 300",
            "test 1 0 0 0 0 0 70000",
            "peek arm 100000000",
            "poke arm 100000000 1",
            "dump 1ffffffff",
            "peek arm -1",
            "sendlmp 0b " + "00" * 300,
            "test 1 0 0 0 0 0 1 1",
            "sendlmp 0b 0z",
            "capture start x.pcapng pcapng",
        ],
        ids=[
            "sendlmp-handle",
            "test-scenario",
            "test-payload-length",
            "peek-address",
            "poke-address",
            "dump-address",
            "peek-negative",
            "sendlmp-pdu",
            "test-count",
            "sendlmp-octets",
            "capture-format",
        ],
    )
    def test_out_of_range_operand_echoes_usage(self, line):
        """An operand too wide for its field, one too many, or one of the
        wrong form is a usage error, caught before anything is sent."""
        world = run_scenario("controller A mac=00:11:22:33:44:01\n")[1]
        session = LocalSession(world, "A")
        sent = HostRecorder(world["A"], Direction.HOST_TO_CONTROLLER)
        ok, lines = session.execute(line)
        assert not ok and len(lines) == 1
        assert lines[0].startswith(f"usage: {USAGE[line.split()[0]]}  (")
        assert not sent.take()

    def test_live_line_carries_the_capture_timestamp(self, tmp_path):
        """An in-process live view stamps a frame with the tick its
        capture gives it, not with the controller's clock."""
        world = run_scenario("controller A mac=00:11:22:33:44:01\n")[1]
        lines: list[str] = []
        session = LocalSession(world, "A", on_line=lines.append)
        for _ in range(20):
            assert session.execute("version")[0]
        path = tmp_path / "live.pcapng"
        for line in ("live on", f"capture start {path}", "version", "capture stop"):
            assert session.execute(line)[0], line
        _ifaces, packets = read_pcapng(str(path))
        assert [int(line.split()[0]) for line in lines] == [ts for _i, ts, _d in packets]
        assert [ts for _i, ts, _d in packets] == [0, 625]

    @pytest.mark.parametrize("fmt", ["pcap", "btsnoop"])
    def test_unwritable_capture_path_fails_the_stop(self, tmp_path, fmt):
        """The stop answers with the reason and keeps the records, so it
        can be retried once the path is writable."""
        world = run_scenario("controller A mac=00:11:22:33:44:01\n")[1]
        session = LocalSession(world, "A")
        path = tmp_path / "missing" / "x.cap"
        assert session.execute(f"capture start {path} {fmt}")[0]
        assert session.execute("version")[0]
        ok, lines = session.execute("capture stop")
        assert not ok and len(lines) == 1 and str(path) in lines[0]
        assert session.execute("version")[0]
        path.parent.mkdir()
        ok, lines = session.execute("capture stop")
        assert ok and "wrote 4" in lines[0] and path.stat().st_size > 0
        assert session.execute("capture stop") == (False, ["no capture running"])

    def test_capture_path_with_a_nul_is_refused_at_the_start(self, tmp_path):
        """No stop could write such a path, so no stop could end the
        capture: the start refuses it, and a capture elsewhere still runs."""
        world = run_scenario("controller A mac=00:11:22:33:44:01\n")[1]
        session = LocalSession(world, "A")
        ok, lines = session.execute(f"capture start {tmp_path}/a\x00b")
        assert not ok and len(lines) == 1 and "NUL" in lines[0]
        assert session.capture_records is None
        path = tmp_path / "x.pcapng"
        assert session.execute(f"capture start {path}")[0]
        assert session.execute("version")[0]
        ok, lines = session.execute("capture stop")
        assert ok and "wrote 2" in lines[0] and path.stat().st_size > 0

    def test_one_capture_sink_per_session(self, tmp_path):
        world = run_scenario("controller A mac=00:11:22:33:44:01\n")[1]
        session = LocalSession(world, "A")
        first = str(tmp_path / "one.pcapng")
        ok, _ = session.execute(f"capture start {first}")
        assert ok
        ok, lines = session.execute(f"capture start {tmp_path / 'two.pcapng'}")
        assert not ok and "already running" in lines[0]
        ok, _ = session.execute("capture stop")
        assert ok
        ok, lines = session.execute("capture stop")
        assert not ok and "no capture running" in lines[0]


class TestVocabulary:
    def test_usage_and_handlers_agree(self):
        """Every USAGE entry names a command whose handler answers a bad
        argument with that entry, and every handler has an entry."""
        handlers = {name[len("_cmd_") :] for name in dir(Session) if name.startswith("_cmd_")}
        assert handlers == set(USAGE)
        session = LocalSession(run_scenario("controller A mac=00:11:22:33:44:01\n")[1], "A")
        for name, usage in USAGE.items():
            ok, lines = session.execute(f"{name} !")
            assert not ok and lines[0].startswith(f"usage: {usage}  ("), (name, lines)

class TestSessionMatching:
    PAIR = (
        "controller A mac=00:11:22:33:44:01\n"
        "controller B mac=00:11:22:33:44:02\n"
        "link A B\n"
    )

    def test_refused_connect_answers_with_its_status(self):
        world = run_scenario(self.PAIR)[1]
        session = LocalSession(world, "A")
        for command in ("connect", "leconnect"):
            ok, lines = session.execute(f"{command} 00:11:22:33:44:02")
            assert ok, lines
            ok, lines = session.execute(f"{command} 00:11:22:33:44:02")
            assert not ok
            assert lines == [f"{command} failed: status 0x0b"]

    @pytest.mark.parametrize(
        "command, case, expected",
        [
            ("connect", "success", (True, ["connected to 00:11:22:33:44:02: handle 0x000b"])),
            ("connect", "refused", (False, ["connect failed: status 0x0b"])),
            ("connect", "page-timeout", (False, ["connect failed: status 0x04"])),
            ("leconnect", "success", (True, ["LE connected to 00:11:22:33:44:02: handle 0x000b"])),
            ("leconnect", "refused", (False, ["leconnect failed: status 0x0b"])),
            ("leconnect", "page-timeout", (False, ["leconnect failed: status 0x04"])),
        ],
    )
    def test_connect_output(self, command, case, expected):
        """Success; refusal of a peer already connected; nobody on the
        air answering the page."""
        session = LocalSession(run_scenario(self.PAIR)[1], "A")
        mac = "00:11:22:33:44:03" if case == "page-timeout" else "00:11:22:33:44:02"
        if case == "refused":
            assert session.execute(f"{command} {mac}")[0]
        assert session.execute(f"{command} {mac}") == expected

    def test_answer_sent_by_another_host_is_not_taken(self):
        """A peek response already queued before the command was sent
        (here: a peek another host injected) must not answer it."""
        from bcmdiag.diag import MemAccessType, MemoryPeek, build_diag
        from bcmdiag.h4 import H4Frame

        world = run_scenario("controller A mac=00:11:22:33:44:01\n")[1]
        session = LocalSession(world, "A")
        assert session.execute("poke arm 0x200000 11")[0]
        assert session.execute("poke arm 0x200001 22")[0]
        world["A"].process_host_frame(
            H4Frame.diag(build_diag(MemoryPeek(MemAccessType.ARM, 0x200000)))
        )
        ok, lines = session.execute("peek arm 0x200001")
        assert ok and lines == ["0x00200001 = 0x22"]

    def test_only_the_newest_send_is_answered(self):
        """With sends A and B both awaiting their echoes, A's answer is
        not queued: it can only answer a command that has given up."""
        from contextlib import nullcontext

        from bcmdiag.diag import MemAccessType, MemoryPeek, PeekResponse, build_diag
        from bcmdiag.h4 import H4Frame

        sends = [
            H4Frame.diag(build_diag(MemoryPeek(MemAccessType.ARM, address)))
            for address in (0x200000, 0x200001)
        ]
        answers = [H4Frame.diag(build_diag(PeekResponse(0, value))) for value in (0x11, 0x22)]
        session = Session(lock=nullcontext())
        session._send = lambda frame: None  # both sends are on their way
        for frame in sends:
            session.send_frame(frame)
        session._queue_records(
            [
                (Direction.HOST_TO_CONTROLLER, sends[0]),
                (Direction.CONTROLLER_TO_HOST, answers[0]),
                (Direction.HOST_TO_CONTROLLER, sends[1]),
                (Direction.CONTROLLER_TO_HOST, answers[1]),
            ]
        )
        assert list(session._pending) == [answers[1]]

    def test_an_echo_of_the_newest_send_drops_the_older_ones(self):
        """Sends Y then X await their echoes when another client's
        identical X echoes first.  Y's command has given up, so Y is dropped
        and the answer after that X is queued; the echoes of this session's
        own Y and X then find nothing awaited and queue nothing."""
        from contextlib import nullcontext

        from bcmdiag.diag import MemAccessType, MemoryPeek, PeekResponse, build_diag
        from bcmdiag.h4 import H4Frame

        y, x = (
            H4Frame.diag(build_diag(MemoryPeek(MemAccessType.ARM, address)))
            for address in (0x200000, 0x200001)
        )
        answer_y, answer_x = (
            H4Frame.diag(build_diag(PeekResponse(0, value))) for value in (0x11, 0x22)
        )
        session = Session(lock=nullcontext())
        session._send = lambda frame: None
        session.send_frame(y)
        session.send_frame(x)
        session._queue_records(
            [
                (Direction.HOST_TO_CONTROLLER, x),  # the other client's
                (Direction.CONTROLLER_TO_HOST, answer_x),
                (Direction.HOST_TO_CONTROLLER, y),
                (Direction.CONTROLLER_TO_HOST, answer_y),
                (Direction.HOST_TO_CONTROLLER, x),
                (Direction.CONTROLLER_TO_HOST, answer_x),
            ]
        )
        assert list(session._pending) == [answer_x]
        assert not session._unechoed

    def test_sessions_stay_bounded_over_many_cycles(self):
        """10^4 connect/disconnect cycles with logging on: the operator's
        queue holds one cycle's leftovers, the peer's (which never sends)
        holds at most PENDING_MAX frames, and both still answer."""
        import struct

        from bcmdiag import hci
        from bcmdiag.h4 import HciCommand
        from bcmdiag.session import PENDING_MAX

        world = run_scenario(self.PAIR)[1]
        operator = LocalSession(world, "A")
        peer = LocalSession(world, "B")
        assert operator.execute("diag on")[0] and peer.execute("diag on")[0]
        operator_max = peer_max = 0
        for cycle in range(10_000):
            command = "connect" if cycle % 2 == 0 else "leconnect"
            ok, lines = operator.execute(f"{command} 00:11:22:33:44:02")
            assert ok, (cycle, lines)
            handle = int(lines[0].rsplit("0x", 1)[1], 16)
            operator.send_frame(
                HciCommand(
                    hci.OPCODE_DISCONNECT,
                    struct.pack("<HB", handle, hci.ERR_REMOTE_TERMINATED),
                ).to_frame()
            )
            operator_max = max(operator_max, len(operator._pending))
            peer_max = max(peer_max, len(peer._pending))
        assert operator_max < 16
        assert peer_max == PENDING_MAX
        assert operator.execute("version")[0] and peer.execute("version")[0]
