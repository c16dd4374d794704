"""Shadow-memory metadata store for the Watchdog/ASan-style baselines.

The paper contrasts AOS's hashed bounds table against shadow-space schemes
(Fig. 4b): a fixed mapping ``f(addr)`` mirrors application addresses into a
metadata region, which wastes address space (Challenge 4) but makes lookup
trivial.  Watchdog keeps 24-byte identifier/bounds records per pointer;
ASan keeps one shadow byte per 8 application bytes.

We implement the Watchdog flavour: a direct-mapped shadow of the heap that
stores (lock address, key, lower bound, upper bound) records at
``shadow_base + (addr - heap_base) * scale``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import MemoryError_
from .layout import AddressSpaceLayout, DEFAULT_LAYOUT
from .memory import SparseMemory

#: Watchdog metadata is 24 bytes per tracked word (§IX-A: "larger metadata
#: of 24 bytes, compared to 8 bytes in AOS").
WATCHDOG_RECORD_BYTES = 24
#: Application bytes one shadow record covers, by default.
SHADOW_GRANULARITY = 16


def shadow_addresses(
    addresses,
    layout: AddressSpaceLayout = DEFAULT_LAYOUT,
    granularity: int = SHADOW_GRANULARITY,
):
    """The f(addr) mapping of Fig. 4b, for one heap address or for a
    ``uint64`` array of them.  The range is not checked: an array lane
    below the heap wraps."""
    slots = (addresses - layout.heap_base) // granularity
    return layout.shadow_base + slots * WATCHDOG_RECORD_BYTES


@dataclass(frozen=True)
class ShadowRecord:
    """One Watchdog-style metadata record."""

    key: int
    lock_address: int
    lower: int
    upper: int


class ShadowMemory:
    """Direct-mapped shadow space over the heap region (Fig. 4b)."""

    def __init__(
        self,
        memory: SparseMemory,
        layout: AddressSpaceLayout = DEFAULT_LAYOUT,
        granularity: int = SHADOW_GRANULARITY,
    ) -> None:
        self.memory = memory
        self.layout = layout
        #: Application bytes covered by one shadow record.
        self.granularity = granularity
        #: Side registry so records round-trip exactly (the packed in-memory
        #: form is lossy, which is fine for traffic modelling but not for
        #: checking).
        self._records: dict = {}

    def shadow_address(self, address: int) -> int:
        """The f(addr) mapping of Fig. 4b."""
        if not self.layout.in_heap(address):
            raise MemoryError_(f"{address:#x} is not a heap address")
        return shadow_addresses(address, self.layout, self.granularity)

    def store(self, address: int, record: ShadowRecord) -> int:
        """Write a record for ``address``; returns the shadow address touched."""
        base = self.shadow_address(address)
        self.memory.write_u64(base, record.key)
        self.memory.write_u64(base + 8, record.lock_address)
        # Pack bounds into the third word: the real Watchdog keeps them in
        # extended registers; the shadow copy holds the spill format.
        self.memory.write_u64(base + 16, (record.lower ^ record.upper) & ((1 << 64) - 1))
        self._records[base] = record
        return base

    def load(self, address: int) -> Tuple[Optional[ShadowRecord], int]:
        """Read the record for ``address``; returns (record, shadow address)."""
        base = self.shadow_address(address)
        return self._records.get(base), base

    def clear(self, address: int) -> int:
        base = self.shadow_address(address)
        self.memory.write_u64(base, 0)
        self.memory.write_u64(base + 8, 0)
        self.memory.write_u64(base + 16, 0)
        self._records.pop(base, None)
        return base

    def shadow_bytes_per_app_byte(self) -> float:
        """Memory overhead ratio (Challenge 4 accounting)."""
        return WATCHDOG_RECORD_BYTES / self.granularity
