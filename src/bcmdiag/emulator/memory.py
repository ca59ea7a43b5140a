"""Synthetic controller memory: one ARM core image and one BlueRF modem
register bank, addressable through the diagnostic peek/poke/hexdump
commands and the RAM vendor HCI commands.

The default map is entirely synthetic (no real chip layout): a 256 KiB
ARM region at 0x00200000 with a recognizable version string planted at
its base, and a 4 KiB BlueRF region at 0x0.  A map can also be loaded
from a JSON file for more realistic images.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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


@dataclass
class Region:
    base: int
    kind: str
    data: bytearray


@dataclass
class MemoryImage:
    regions: list[Region] = field(default_factory=list)

    @classmethod
    def default(cls) -> "MemoryImage":
        arm = bytearray(ARM_SIZE)
        arm[: len(VERSION_STRING)] = VERSION_STRING
        return cls(
            [
                Region(ARM_BASE, KIND_ARM, arm),
                Region(BLUERF_BASE, KIND_BLUERF, bytearray(BLUERF_SIZE)),
            ]
        )

    @classmethod
    def from_file(cls, path: str) -> "MemoryImage":
        """Load a map from JSON: a list of regions with ``base``,
        ``kind`` (arm|bluerf), and either ``size`` or hex ``contents``."""
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        regions = []
        for entry in spec["regions"]:
            kind = entry["kind"]
            if kind not in (KIND_ARM, KIND_BLUERF):
                raise ValueError(f"unknown region kind {kind!r}")
            if "contents" in entry:
                data = bytearray(bytes.fromhex(entry["contents"]))
                if "size" in entry and entry["size"] > len(data):
                    data += bytearray(entry["size"] - len(data))
            else:
                data = bytearray(entry["size"])
            regions.append(Region(int(entry["base"], 0) if isinstance(entry["base"], str) else entry["base"], kind, data))
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
