"""A functional CryptSan-style MAC-on-access tagged-memory model.

CryptSan (PACMem/CryptSan lineage, see PAPERS.md) binds every heap
object to a cryptographic MAC computed over its base address and an
allocation version, replicates the MAC into a shadow tag for each
16-byte granule the object owns, and carries the same MAC in the
pointer.  Every load/store recomputes nothing — it simply compares the
pointer's MAC against the granule's shadow tag, so *any* access through
a pointer to memory the pointer's object does not own faults:

- spatial violations (adjacent, linear, and non-linear OOB alike —
  unlike trip-wire redzones, a strided jump lands on a granule with a
  foreign or absent tag);
- temporal violations (free clears the granule tags; reallocation bumps
  the version, so a stale MAC never matches the recycled slot);
- MAC forgery (a flipped tag bit in the pointer misses every granule).

Intra-object overflows stay invisible — the whole object shares one
MAC — which keeps the model honest about the object-granularity
threat model it shares with AOS (§III-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..crypto.pac import PACGenerator, PAKeys
from ..memory.layout import AddressSpaceLayout, DEFAULT_LAYOUT
from ..memory.runtime import HeapRuntime

#: Shadow-tag granularity (bytes of data per MAC tag).
GRANULE = 16


class CryptSanFault(Exception):
    """A MAC check failed (pointer MAC != granule shadow tag)."""


@dataclass(frozen=True)
class MACPointer:
    """A pointer carrying the MAC of the object it was derived from."""

    address: int
    base: int
    mac: int

    def offset(self, delta: int) -> "MACPointer":
        return MACPointer(address=self.address + delta, base=self.base, mac=self.mac)

    def __int__(self) -> int:
        return self.address


class CryptSanRuntime(HeapRuntime):
    """A heap whose every access is checked against per-granule MACs."""

    name = "cryptsan"

    def __init__(
        self,
        layout: AddressSpaceLayout = DEFAULT_LAYOUT,
        mac_bits: int = 16,
        pac_mode: str = "fast",
    ) -> None:
        super().__init__(layout)
        self.generator = PACGenerator(keys=PAKeys(), pac_bits=mac_bits, mode=pac_mode)
        #: granule index -> owning object's MAC shadow tag.
        self._tags: Dict[int, int] = {}
        #: base address -> allocation version (bumped on every reuse).
        self._versions: Dict[int, int] = {}
        self.checks = 0
        self.mac_faults = 0

    # ------------------------------------------------------------------ MACs

    @staticmethod
    def _granules(address: int, size: int):
        start = address // GRANULE
        end = (address + max(size, 1) - 1) // GRANULE
        return range(start, end + 1)

    def _mac(self, base: int, version: int) -> int:
        return self.generator.compute(base, version, key_name="da")

    # ------------------------------------------------------------------ heap

    def malloc(self, size: int) -> MACPointer:
        base = self.allocator.malloc(size)
        version = self._versions.get(base, 0) + 1
        self._versions[base] = version
        mac = self._mac(base, version)
        for granule in self._granules(base, size):
            self._tags[granule] = mac
        return MACPointer(address=base, base=base, mac=mac)

    def free(self, pointer) -> MACPointer:
        self.check(pointer)
        size = self.allocator.allocated_size(pointer.address)
        self.allocator.free(pointer.address)
        # Untagging on free: a stale MAC can never match again.
        for granule in self._granules(pointer.address, size):
            self._tags.pop(granule, None)
        return pointer

    # ---------------------------------------------------------------- checks

    @staticmethod
    def _require_mac(pointer) -> MACPointer:
        if not isinstance(pointer, MACPointer):
            # A crafted integer carries no MAC: every granule check fails.
            raise CryptSanFault("crafted pointer carries no MAC")
        return pointer

    def check(self, pointer, size: int = 8) -> None:
        pointer = self._require_mac(pointer)
        self.checks += 1
        for granule in self._granules(pointer.address, size):
            tag = self._tags.get(granule)
            if tag != pointer.mac:
                self.mac_faults += 1
                have = "untagged" if tag is None else f"{tag:#x}"
                raise CryptSanFault(
                    f"MAC check fault at {pointer.address:#x}: pointer MAC "
                    f"{pointer.mac:#x} vs granule tag {have}"
                )

    def load(self, pointer, size: int = 8) -> int:
        self.check(pointer, size)
        return self.read(pointer.address, size)

    def store(self, pointer, value: int, size: int = 8) -> None:
        self.check(pointer, size)
        self.write(pointer.address, value, size)

    def offset(self, pointer, delta: int) -> MACPointer:
        return self._require_mac(pointer).offset(delta)

    def forge_pac(self, pointer, wrong: int) -> MACPointer:
        """Attacker flips bits in the pointer's MAC field."""
        p = self._require_mac(pointer)
        mask = self.generator.pac_space - 1
        return MACPointer(p.address, p.base, p.mac ^ ((wrong or 1) & mask))
