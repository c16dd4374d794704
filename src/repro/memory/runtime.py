"""The functional surface every mechanism's runtime shares.

:class:`HeapRuntime` is an unprotected glibc-style heap exposing the
surface the scenario corpus (:mod:`repro.adversary`) drives: ``malloc``,
``free``, ``load``, ``store``, ``offset`` and the attacker's
``raw_write``.  Each mechanism's runtime subclasses it and adds its
checks; the attacker primitives a mechanism models (``forge_pac``,
``forge_ahc_zero``, ``forge_tag``) live on that runtime alone, so a
recipe needing one a runtime lacks is ``unsupported`` for it.

The call-stack ops ``call`` / ``ret`` / ``smash_ret`` are likewise
optional: :class:`ReturnStack` gives the raw saved-return-address stack
(baseline, AOS), and the runtimes that sign return addresses (PA,
PA+AOS, PACTight, PACStack) override ``call`` and ``ret``.
"""

from __future__ import annotations

from typing import List

from .allocator import HeapAllocator
from .layout import AddressSpaceLayout, DEFAULT_LAYOUT
from .memory import SparseMemory

#: Synthetic call-site base for the modelled return-address stacks.
CALL_SITE = 0x400000


class HeapRuntime:
    """An unprotected heap: every attack on it should succeed."""

    name = "baseline"

    def __init__(self, layout: AddressSpaceLayout = DEFAULT_LAYOUT) -> None:
        self.memory = SparseMemory()
        self.allocator = HeapAllocator(self.memory, layout)

    # --------------------------------------------------------- byte helpers

    def read(self, address: int, size: int = 8) -> int:
        return int.from_bytes(self.memory.read_bytes(address, size), "little")

    def write(self, address: int, value: int, size: int = 8) -> None:
        self.memory.write_bytes(
            address, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        )

    # ------------------------------------------------------------- surface

    def malloc(self, size: int):
        return self.allocator.malloc(size)

    def free(self, pointer):
        self.allocator.free(pointer)
        return pointer  # dangling pointer remains usable

    def load(self, pointer, size: int = 8) -> int:
        return self.read(pointer, size)

    def store(self, pointer, value: int, size: int = 8) -> None:
        self.write(pointer, value, size)

    def offset(self, pointer, delta: int):
        return pointer + delta

    def raw_write(self, address: int, value: int) -> None:
        """Attacker primitive: arbitrary memory write (threat model §III-D)."""
        self.memory.write_u64(address, value)


class ReturnStack:
    """Mixin: saved return addresses as mutable ``[address, ...]`` frames,
    oldest first.

    As is, the stack is raw: the attacker overwrite in ``smash_ret`` lands
    silently and ``ret`` follows it.  A signing runtime overrides ``call``
    to keep a token beside the address and ``ret`` to check it.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._frames: List[list] = []

    def call_site(self) -> int:
        """The return address the next ``call`` pushes."""
        return CALL_SITE + 16 * len(self._frames)

    def call(self) -> None:
        self._frames.append([self.call_site()])

    def smash_ret(self, value: int) -> None:
        """Attacker data-write over the topmost saved return address."""
        if self._frames:
            frame = self._frames[-1]
            frame[0] = value if value != frame[0] else value ^ 0x10

    def ret(self) -> int:
        return self._frames.pop()[0] if self._frames else 0


class BaselineRuntime(ReturnStack, HeapRuntime):
    """The unprotected heap with a raw return-address stack."""
