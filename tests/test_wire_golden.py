"""Pinned wire digests: one fixed operator script on the two-chips
scenario, run in process, must produce the same pcapng, BTSnoop,
transcript and live-view bytes on every change.

A digest that moves means some octet on the wire, in a capture file or
in the operator's view moved.  If that was meant, say why in CHANGES.md
and record the new digests; otherwise the change is a regression.
"""

import hashlib
from pathlib import Path

from bcmdiag.emulator.scenario import run_scenario
from bcmdiag.session import LocalSession

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "two-chips.scenario"

SCRIPT = """\
live on
diag on
version
connect 00:11:22:33:44:02
connect 00:11:22:33:44:02
connect 00:11:22:33:44:09
leconnect 00:11:22:33:44:02
stats br
stats conn
stats br reset
stats br
poke arm 0x200010 0xaa
peek arm 0x200010
peek arm 0x1000
poke bluerf 0x18 0x5a
peek bluerf 0x18
dump 0x200000
sendlmp 0x000b 4a 09 0f 00 09 22
sendlmp 0x000b 00
firewall add 00:11:22:33:44:02
firewall show
firewall del 00:11:22:33:44:02
firewall show
test
test 1 0 99 0 0 0 0
diag off
version
"""

DIGESTS = {
    "pcapng": "aba311cf2736772ddb3cff1588d8b449262e06605af2f03bb78b44c5e077dfb2",
    "btsnoop": "0fbcb3ce0209a7ab18d9f545d1593973f527b02041a3f12060a89d20af718be2",
    "transcript": "8d167c90b695df0f1bf5a8352d4e23fbeeee7be7021fac215eec19ff70415775",
    "live": "3b135916a855e73a5988d39d42e0291bb7557db0490783521f59173b822d5b3e",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_script(tmp_path: Path) -> dict[str, str]:
    """Run SCRIPT on the left chip; a second session on the same chip
    captures the same traffic as BTSnoop.  Returns the four digests."""
    ok, world, transcript = run_scenario(SCENARIO.read_text(encoding="utf-8"))
    assert ok, transcript
    live: list[str] = []
    session = LocalSession(world, "left", on_line=live.append)
    snoop = LocalSession(world, "left")
    pcapng, btsnoop = tmp_path / "golden.pcapng", tmp_path / "golden.btsnoop"
    assert snoop.execute(f"capture start {btsnoop} btsnoop")[0]
    lines = session.execute(f"capture start {pcapng} pcap")[1]
    for line in SCRIPT.splitlines():
        lines += [f"> {line}"] + session.execute(line)[1]
    lines += session.execute("capture stop")[1] + snoop.execute("capture stop")[1]
    session.close()
    snoop.close()
    text = "\n".join(transcript + lines).replace(str(tmp_path), "<tmp>")
    return {
        "pcapng": _sha256(pcapng.read_bytes()),
        "btsnoop": _sha256(btsnoop.read_bytes()),
        "transcript": _sha256(text.encode()),
        "live": _sha256("\n".join(live).encode()),
    }


def test_wire_digests_are_pinned(tmp_path):
    assert run_script(tmp_path) == DIGESTS


def test_script_exercises_what_it_pins():
    """The digests only guard what the script reaches: every command
    answers, and exactly the refusals it sends are refused."""
    _ok, world, _ = run_scenario(SCENARIO.read_text(encoding="utf-8"))
    session = LocalSession(world, "left")
    results = [(line, *session.execute(line)) for line in SCRIPT.splitlines()]
    assert all(lines for _line, _ok, lines in results), results
    assert [line for line, line_ok, _lines in results if not line_ok] == [
        "connect 00:11:22:33:44:02",  # the second one: the link exists
        "connect 00:11:22:33:44:09",  # nobody answers the page
        "peek arm 0x1000",  # outside every ARM region
        "sendlmp 0x000b 00",  # not an injectable PDU
        "test 1 0 99 0 0 0 0",  # channel 99 is out of range
    ]
