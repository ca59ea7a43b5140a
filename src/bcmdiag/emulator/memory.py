"""Synthetic controller memory: one ARM core image and one BlueRF modem
register bank, addressable through the diagnostic peek/poke/hexdump
commands and the RAM vendor HCI commands.

The default map is entirely synthetic (no real chip layout): a 256 KiB
ARM region at 0x00200000 with a recognizable version string planted at
its base, and a 4 KiB BlueRF region at 0x0.  A map can also be loaded
from a JSON file for more realistic images.
"""

from __future__ import annotations

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
    __slots__ = ("base", "kind", "data")

    def __init__(self, base: int, kind: str, data: bytearray) -> None:
        self.base = base
        self.kind = kind
        self.data = data


class MemoryImage:
    def __init__(self, regions: list[Region] | None = None) -> None:
        self.regions = [] if regions is None else regions

    @classmethod
    def default(cls) -> "MemoryImage":
        arm = bytearray(ARM_SIZE)
        arm[: len(VERSION_STRING)] = VERSION_STRING
        return cls([Region(ARM_BASE, KIND_ARM, arm),
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
                data = bytearray.fromhex(contents)
            except (TypeError, ValueError):
                raise ValueError(f"{where}: 'contents' must be a hex string") from None
            regions.append(Region(base, kind, data + bytes(max(0, size - len(data)))))
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

    def _region_for(self, kind: str, address: int, length: int = 1) -> Region | None:
        for r in self.regions:
            if r.kind == kind and r.base <= address <= r.base + len(r.data) - length:
                return r
        return None

    def read(self, access: MemAccessType, address: int) -> int | None:
        region = self._region_for(_ACCESS_KIND[access], address)
        if region is None:
            return None
        return region.data[address - region.base]

    def write(self, access: MemAccessType, address: int, value: int) -> bool:
        region = self._region_for(_ACCESS_KIND[access], address)
        if region is None:
            return False
        region.data[address - region.base] = value & 0xFF
        return True

    def read_block(self, access: MemAccessType, address: int, length: int) -> bytes | None:
        region = self._region_for(_ACCESS_KIND[access], address, length)
        if region is None:
            return None
        offset = address - region.base
        return bytes(region.data[offset : offset + length])

    def write_block(self, access: MemAccessType, address: int, data: bytes) -> bool:
        region = self._region_for(_ACCESS_KIND[access], address, len(data))
        if region is None:
            return False
        offset = address - region.base
        region.data[offset : offset + len(data)] = data
        return True

    def snapshot(self) -> list[tuple[int, str, bytes]]:
        return [(r.base, r.kind, bytes(r.data)) for r in self.regions]

    def restore(self, snap: list[tuple[int, str, bytes]]) -> None:
        self.regions = [Region(base, kind, bytearray(data)) for base, kind, data in snap]
