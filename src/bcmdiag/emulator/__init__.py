"""Controller emulation: state machine, virtual air link, memory image,
security profiles, scenario runner and stream servers."""

from .controller import Connection, Controller, Phase, Role
from .link import VirtualLink
from .memory import MemoryImage
from .profiles import (
    HandlerAction,
    SecurityProfile,
    patched_profile,
    vulnerable_profile,
)

__all__ = [
    "Connection",
    "Controller",
    "HandlerAction",
    "MemoryImage",
    "Phase",
    "Role",
    "SecurityProfile",
    "VirtualLink",
    "patched_profile",
    "vulnerable_profile",
]
