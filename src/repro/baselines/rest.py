"""A functional REST-style redzone (trip-wire) model [8] (§X).

REST surrounds allocations with blacklisted regions holding random tokens
and traps any access touching them.  It is cheap, but — as the paper's
introduction stresses — it cannot stop *non-adjacent* violations that jump
over the redzones, and its temporal protection relies on a quarantine pool
(freed chunks stay poisoned until recycled).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Tuple

from ..memory.layout import AddressSpaceLayout, DEFAULT_LAYOUT
from ..memory.runtime import HeapRuntime

REDZONE_BYTES = 64


class RedzoneFault(Exception):
    """An access touched a blacklisted (redzone or quarantined) region."""


class RestRuntime(HeapRuntime):
    """Redzone-protected heap with a quarantine pool."""

    name = "rest"

    def __init__(
        self,
        layout: AddressSpaceLayout = DEFAULT_LAYOUT,
        quarantine_chunks: int = 64,
    ) -> None:
        super().__init__(layout)
        #: Blacklisted byte ranges: set of (start, end) tuples.
        self._redzones: Dict[int, Tuple[int, int]] = {}
        self._quarantine: Deque[Tuple[int, Tuple[int, int]]] = deque()
        self.quarantine_chunks = quarantine_chunks
        self.detections = 0

    def malloc(self, size: int) -> int:
        """Allocate with leading and trailing redzones."""
        padded = self.allocator.malloc(size + 2 * REDZONE_BYTES)
        base = padded + REDZONE_BYTES
        self._redzones[base] = (padded, padded + REDZONE_BYTES + size + REDZONE_BYTES)
        return base

    def free(self, pointer: int) -> int:
        """Quarantine the chunk: the whole object becomes a trip-wire until
        it is recycled (the quarantine pool whose cost §IV-C calls out)."""
        zone = self._redzones.pop(pointer, None)
        if zone is None:
            raise RedzoneFault("free(): unknown or already-freed pointer")
        self._quarantine.append((pointer, zone))
        while len(self._quarantine) > self.quarantine_chunks:
            old_ptr, old_zone = self._quarantine.popleft()
            self.allocator.free(old_ptr - REDZONE_BYTES)
        return pointer

    def check(self, address: int, size: int = 8) -> None:
        """Trap accesses that touch a redzone or a quarantined chunk."""
        end = address + size
        for base, (lo, hi) in self._redzones.items():
            inner_lo, inner_hi = lo + REDZONE_BYTES, hi - REDZONE_BYTES
            # Touching the guard bands around a live object is a violation.
            if address < inner_lo and end > lo:
                self.detections += 1
                raise RedzoneFault(f"access {address:#x} hits leading redzone of {base:#x}")
            if end > inner_hi and address < hi:
                self.detections += 1
                raise RedzoneFault(f"access {address:#x} hits trailing redzone of {base:#x}")
        for _ptr, (lo, hi) in self._quarantine:
            if address < hi and end > lo:
                self.detections += 1
                raise RedzoneFault(f"access {address:#x} hits quarantined chunk")

    def load(self, address: int, size: int = 8) -> int:
        self.check(address, size)
        return self.read(address, size)

    def store(self, address: int, value: int, size: int = 8) -> None:
        self.check(address, size)
        self.write(address, value, size)
