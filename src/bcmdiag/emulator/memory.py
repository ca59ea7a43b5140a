"""Synthetic controller memory: one ARM core image and one BlueRF modem
register bank, addressable through the diagnostic peek/poke/hexdump
commands and the RAM vendor HCI commands.

The default map is entirely synthetic (no real chip layout): a 256 KiB
ARM region at 0x00200000 with a recognizable version string planted at
its base, and a 4 KiB BlueRF region at 0x0.  A map can also be loaded
from a JSON file for more realistic images.  A reset returns each region
to its power-on octets: the version string, or the file's contents.
"""

from __future__ import annotations

import mmap
from contextlib import suppress

from ..diag import MemAccessType

ARM_BASE = 0x00200000
ARM_SIZE = 256 * 1024
BLUERF_BASE = 0x00000000
BLUERF_SIZE = 4 * 1024

VERSION_STRING = b"BCM-EMU fw 001.002.003.0004\x00"

KIND_ARM = "arm"
KIND_BLUERF = "bluerf"

_ACCESS_KIND = {
    MemAccessType.ARM: KIND_ARM,
    MemAccessType.HEXDUMP_ARM: KIND_ARM,
    MemAccessType.BLUERF: KIND_BLUERF,
}


class Region:
    __slots__ = ("base", "kind", "data", "initial")

    def __init__(self, base: int, kind: str, data: bytearray, initial: bytes = b"") -> None:
        self.base = base
        self.kind = kind
        self.data = data
        self.initial = initial  # the power-on octets at its start; zeros follow


class MemoryImage:
    def __init__(self, regions: list[Region] | None = None) -> None:
        self.regions = [] if regions is None else regions

    @classmethod
    def default(cls) -> "MemoryImage":
        # Mapped, not a bytearray: a page takes memory only once it is written.
        arm = mmap.mmap(-1, ARM_SIZE, flags=mmap.MAP_PRIVATE)
        arm[: len(VERSION_STRING)] = VERSION_STRING
        return cls([Region(ARM_BASE, KIND_ARM, arm, VERSION_STRING),
                    Region(BLUERF_BASE, KIND_BLUERF, bytearray(BLUERF_SIZE))])

    @classmethod
    def from_file(cls, path: str) -> "MemoryImage":
        """Load a map from JSON: ``{"regions": [...]}``, each region with
        ``base`` (an int or a string such as ``"0x200000"``), ``kind``
        (arm|bluerf), and ``size`` and/or hex ``contents``.  A file that
        breaks this layout raises ValueError naming the field."""
        import json  # only this option reads JSON, so the emulator starts without it

        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        entries = spec.get("regions") if isinstance(spec, dict) else None
        if not isinstance(entries, list):
            raise ValueError("memory file needs 'regions': a list of regions")
        regions = []
        for n, entry in enumerate(entries):
            where = f"memory region {n}"
            if not isinstance(entry, dict):
                raise ValueError(f"{where} must be an object")
            base = entry.get("base")
            with suppress(ValueError):  # a string that is no int is refused just below
                base = int(base, 0) if isinstance(base, str) else base
            if type(base) is not int or base < 0:
                raise ValueError(f"{where}: 'base' must be an int >= 0 or a \"0x...\" string")
            kind = entry.get("kind")
            if kind not in (KIND_ARM, KIND_BLUERF):
                raise ValueError(f"{where}: 'kind' must be arm or bluerf, not {kind!r}")
            contents = entry.get("contents", "")
            size = entry.get("size", 0 if "contents" in entry else None)
            if type(size) is not int or size < 0:
                raise ValueError(f"{where} needs 'size' (an int >= 0) or hex 'contents'")
            try:
                initial = bytes.fromhex(contents)
            except (TypeError, ValueError):
                raise ValueError(f"{where}: 'contents' must be a hex string") from None
            regions.append(Region(base, kind, bytearray(initial.ljust(size, b"\x00")), initial))
        image = cls(regions)
        image.check()
        return image

    def check(self) -> None:
        """Regions of one kind must not overlap."""
        by_kind: dict[str, list[Region]] = {}
        for r in self.regions:
            by_kind.setdefault(r.kind, []).append(r)
        for kind, regions in by_kind.items():
            spans = sorted((r.base, r.base + len(r.data)) for r in regions)
            for (s0, e0), (s1, _e1) in zip(spans, spans[1:]):
                if s1 < e0:
                    raise ValueError(f"overlapping {kind} regions at 0x{s1:08x}")

    def read(self, access: MemAccessType, address: int) -> int | None:
        kind = _ACCESS_KIND[access]
        for r in self.regions:
            offset = address - r.base
            if r.kind == kind and 0 <= offset < len(r.data):
                return r.data[offset]
        return None

    def read_block(self, access: MemAccessType, address: int, length: int) -> bytes | None:
        kind = _ACCESS_KIND[access]
        for r in self.regions:
            offset = address - r.base
            if r.kind == kind and 0 <= offset <= len(r.data) - length:
                return bytes(r.data[offset : offset + length])
        return None

    def write(self, access: MemAccessType, address: int, value: int) -> bool:
        return self.write_block(access, address, bytes([value & 0xFF]))

    def write_block(self, access: MemAccessType, address: int, data: bytes) -> bool:
        kind = _ACCESS_KIND[access]
        for r in self.regions:
            offset = address - r.base
            if r.kind == kind and 0 <= offset <= len(r.data) - len(data):
                r.data[offset : offset + len(data)] = data
                return True
        return False

    def reset(self) -> None:
        """Rewrite every region, in place, with its power-on octets.  A
        mapped region drops its pages instead of being written with zeros,
        so it takes memory again only where it is written."""
        for r in self.regions:
            n = len(r.initial)
            if isinstance(r.data, mmap.mmap):
                r.data.madvise(mmap.MADV_DONTNEED)  # private anonymous: reads zeros again
            else:
                r.data[n:] = bytes(len(r.data) - n)  # calloc'd zeros: no RSS of their own
            r.data[:n] = r.initial
