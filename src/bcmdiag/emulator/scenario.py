"""Declarative scenarios: a line-oriented text format describing
controller profiles, link topology and operator command sequences.

Grammar (``#`` starts a comment; ``bcmdiag.errors.scenario_lines``
holds the line rule):

    controller <name> mac=<mac> [profile=vulnerable|patched|default]
               [allowlist=<mac>[,<mac>...]] [test-packets=<n>]
               [memory=<json-file>]
    link <a> <b>
    <name>: <operator command>

Operator command lines use exactly the interactive client vocabulary
and are executed through an in-process session, so a scenario run
produces the same frames an operator would.  The client's session
(``bcmdiag.session``, with ``bcmdiag.commands`` and ``bcmdiag.capture``)
loads only for a scenario that has such lines; each of those modules
compiles within the transient heap bound of the emulator's own.  The
client's ``scenario run`` consumes the same files, executing the
command lines addressed to its one controller and skipping topology
directives.
"""

from __future__ import annotations

import threading
from collections.abc import Callable

from .. import hci
from ..errors import AlreadyLinked, ScenarioError, scenario_lines
from .controller import Controller
from .link import VirtualLink
from .memory import MemoryImage
from .profiles import PROFILE_FACTORIES


class World:
    """A set of named controllers plus their links.  One lock guards
    all inputs: each controller processes strictly serially, and the
    servers' socket threads funnel through here."""

    def __init__(self) -> None:
        self.controllers: dict[str, Controller] = {}  # in the order they were added
        self.lock = threading.RLock()

    def __getitem__(self, name: str) -> Controller:
        return self.controllers[name]


def _parse_kv(parts: list[str], lineno: int) -> dict[str, str]:
    opts = {}
    for part in parts:
        if "=" not in part:
            raise ScenarioError(lineno, f"expected key=value, got {part!r}")
        key, _, value = part.partition("=")
        opts[key] = value
    return opts


def build_controller(name: str, opts: dict[str, str], lineno: int = 0) -> Controller:
    """A controller from its options; a bad value, a memory file that
    cannot be read or a count Controller refuses is a ScenarioError."""
    if "mac" not in opts:
        raise ScenarioError(lineno, "controller needs mac=<mac>")
    try:
        mac = hci.parse_mac(opts.pop("mac"))
        profile_name = opts.pop("profile", "default")
        factory = PROFILE_FACTORIES.get(profile_name)
        if factory is None:
            raise ScenarioError(lineno, f"unknown profile {profile_name!r}")
        profile = factory()
        if "allowlist" in opts:
            profile.firewall_allowlist = {
                hci.parse_mac(m) for m in opts.pop("allowlist").split(",") if m
            }
            if len(profile.firewall_allowlist) > hci.FIREWALL_ALLOWLIST_MAX:
                raise ScenarioError(
                    lineno, f"allowlist holds at most {hci.FIREWALL_ALLOWLIST_MAX} MACs"
                )
        memory = None
        if "memory" in opts:
            memory = MemoryImage.from_file(opts.pop("memory"))
        test_packets = int(opts.pop("test-packets", "100"))
        if opts:
            raise ScenarioError(lineno, f"unknown controller options: {sorted(opts)}")
        return Controller(
            mac, profile=profile, memory=memory, name=name, test_packet_count=test_packets
        )
    except (OSError, ValueError) as exc:
        raise ScenarioError(lineno, str(exc)) from None


def parse_scenario(text: str) -> tuple[list[tuple[int, str, list[str]]], list[tuple[int, str, str]]]:
    """Split a scenario into topology directives and command lines.
    Returns ([(lineno, directive, args)], [(lineno, controller, command)]).
    """
    directives: list[tuple[int, str, list[str]]] = []
    commands: list[tuple[int, str, str]] = []
    for lineno, directive, target, rest in scenario_lines(text):
        if directive is not None:
            directives.append((lineno, directive, rest.split()))
        elif target is not None:
            commands.append((lineno, target, rest))
        else:
            raise ScenarioError(
                lineno, f"expected a directive or '<name>: <command>', got {rest!r}"
            )
    return directives, commands


def _world_from(directives: list[tuple[int, str, list[str]]]) -> World:
    world = World()
    for lineno, directive, args in directives:
        if directive == "controller":
            if not args:
                raise ScenarioError(lineno, "controller needs a name")
            name = args[0]
            if name in world.controllers:
                raise ScenarioError(lineno, f"duplicate controller name {name!r}")
            world.controllers[name] = build_controller(name, _parse_kv(args[1:], lineno), lineno)
        else:
            if len(args) != 2:
                raise ScenarioError(lineno, "link takes exactly two names")
            for name in args:
                if name not in world.controllers:
                    raise ScenarioError(lineno, f"unknown controller {name!r}")
            try:  # the same controller twice, a shared MAC, or one already linked
                VirtualLink(world[args[0]], world[args[1]])
            except (ValueError, AlreadyLinked) as exc:
                raise ScenarioError(lineno, str(exc)) from None
    return world


def run_scenario(
    text: str, on_line: Callable[[str], None] | None = None
) -> tuple[bool, World, list[str]]:
    """Execute a full scenario: build the topology, then run every
    command line through a local session on its controller.  Returns
    (ok, world, transcript)."""
    directives, commands = parse_scenario(text)
    if commands:  # imported before the world is built, so its compile peaks on a smaller heap
        from ..session import LocalSession
    world = _world_from(directives)
    sessions: dict[str, LocalSession] = {}
    transcript: list[str] = []
    ok = True
    try:
        for lineno, target, command in commands:
            if target not in world.controllers:
                raise ScenarioError(lineno, f"unknown controller {target!r}")
            session = sessions.get(target)
            if session is None:
                session = sessions[target] = LocalSession(world, target, on_line=on_line)
            line_ok, lines = session.execute(command)
            ok = ok and line_ok
            for out in lines:
                entry = f"{target}: {out}"
                transcript.append(entry)
                if on_line is not None:
                    on_line(entry)
    finally:
        # The controllers outlive the run; its sessions must not keep
        # listening to every frame they process.
        for session in sessions.values():
            session.close()
    return ok, world, transcript
