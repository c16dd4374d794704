"""A functional model of Watchdog [11] (lock-and-key + bounds checking).

Watchdog attaches a 4-tuple of metadata to every pointer *register* —
(base, bound, key, lock address) — propagated through pointer arithmetic
in widened registers (Fig. 4a / Fig. 5a).  Dereferences check

1. temporal safety: ``*(lock) == key`` (the lock is invalidated on free);
2. spatial safety: ``base <= addr < bound``.

Because Python integers cannot carry sidecar metadata the way widened
registers do, pointers here are :class:`WatchdogPointer` values whose
``offset`` method models the metadata propagation of Fig. 5a (° and ±).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict

from ..memory.layout import AddressSpaceLayout, DEFAULT_LAYOUT
from ..memory.runtime import HeapRuntime

INVALID_KEY = 0


class WatchdogFault(Exception):
    """A Watchdog check µop failed."""


@dataclass(frozen=True)
class WatchdogPointer:
    """A fat pointer: address plus the Watchdog metadata (Fig. 4a)."""

    address: int
    base: int
    bound: int           # exclusive upper bound
    key: int
    lock_address: int

    def offset(self, delta: int) -> "WatchdogPointer":
        """Pointer arithmetic: the destination inherits the metadata
        (the extra propagation instructions of Fig. 5a, ° and ±)."""
        return replace(self, address=self.address + delta)

    def __int__(self) -> int:
        return self.address


class WatchdogRuntime(HeapRuntime):
    """A Watchdog-protected heap."""

    name = "watchdog"

    def __init__(self, layout: AddressSpaceLayout = DEFAULT_LAYOUT) -> None:
        super().__init__(layout)
        self.layout = layout
        self._key_source = itertools.count(1)
        #: lock address -> current key value ("lock locations").
        self._locks: Dict[int, int] = {}
        self._next_lock = layout.shadow_base
        self.checks = 0
        self.check_failures = 0

    # ------------------------------------------------------------------ heap

    def malloc(self, size: int) -> WatchdogPointer:
        address = self.allocator.malloc(size)
        key = next(self._key_source)
        lock_address = self._next_lock
        self._next_lock += 8
        self._locks[lock_address] = key
        return WatchdogPointer(
            address=address,
            base=address,
            bound=address + size,
            key=key,
            lock_address=lock_address,
        )

    @staticmethod
    def _require_fat(pointer) -> WatchdogPointer:
        if not isinstance(pointer, WatchdogPointer):
            # An attacker-crafted integer has no register metadata: every
            # Watchdog check µop on it fails by construction.
            raise WatchdogFault("crafted pointer carries no lock/key metadata")
        return pointer

    def free(self, pointer) -> WatchdogPointer:
        """Invalidate the lock, then free (Fig. 5a ­: *(id.lock) = INVALID)."""
        pointer = self._require_fat(pointer)
        if self._locks.get(pointer.lock_address, INVALID_KEY) != pointer.key:
            raise WatchdogFault("free(): stale or double free detected")
        self._locks[pointer.lock_address] = INVALID_KEY
        self.allocator.free(pointer.base)
        return pointer

    # ---------------------------------------------------------------- checks

    def check(self, pointer) -> None:
        """The check µop inserted before every dereference (Fig. 5a ®¯)."""
        pointer = self._require_fat(pointer)
        self.checks += 1
        if self._locks.get(pointer.lock_address, INVALID_KEY) != pointer.key:
            self.check_failures += 1
            raise WatchdogFault(
                f"use-after-free: lock at {pointer.lock_address:#x} no longer "
                f"holds key {pointer.key}"
            )
        if not pointer.base <= pointer.address < pointer.bound:
            self.check_failures += 1
            raise WatchdogFault(
                f"out-of-bounds: {pointer.address:#x} outside "
                f"[{pointer.base:#x}, {pointer.bound:#x})"
            )

    def load(self, pointer, size: int = 8) -> int:
        self.check(pointer)
        return self.read(pointer.address, size)

    def store(self, pointer, value: int, size: int = 8) -> None:
        self.check(pointer)
        self.write(pointer.address, value, size)

    def offset(self, pointer, delta: int) -> WatchdogPointer:
        return self._require_fat(pointer).offset(delta)
