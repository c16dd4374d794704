"""A functional CHERI-style capability model (§X, [22]/[23]).

Capability machines replace raw pointers with unforgeable *capabilities*:
fat pointers carrying bounds and permissions, validated on every
dereference and protected by a hardware tag bit that clears whenever
capability bytes are manipulated as data.  The paper positions CHERI as
the strongest related class but notes "the implementation requires
changes to the entire system ... the performance overhead and design
complexity are high" (§X).

The model implements monotonic capability derivation (bounds can only
shrink, permissions only drop), per-dereference bounds/permission checks,
and the tag-invalidation rule that makes forging impossible — the
properties the security matrix exercises.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Flag, auto

from ..memory.layout import AddressSpaceLayout, DEFAULT_LAYOUT
from ..memory.runtime import HeapRuntime


class CheriFault(Exception):
    """A capability check failed."""


class Perm(Flag):
    """Capability permission bits (a small subset of CHERI's)."""

    LOAD = auto()
    STORE = auto()

    @classmethod
    def rw(cls) -> "Perm":
        return cls.LOAD | cls.STORE


@dataclass(frozen=True)
class Capability:
    """A tagged fat pointer: address + bounds + permissions (Fig. 4a)."""

    address: int
    base: int
    length: int
    perms: Perm
    tag: bool = True

    @property
    def top(self) -> int:
        return self.base + self.length

    # --------------------------------------------------- monotonic derivation

    def offset(self, delta: int) -> "Capability":
        """Pointer arithmetic preserves bounds and permissions."""
        return replace(self, address=self.address + delta)

    def narrow(self, base_offset: int, length: int) -> "Capability":
        """CSetBounds: bounds may only shrink (monotonicity)."""
        new_base = self.base + base_offset
        if base_offset < 0 or new_base + length > self.top:
            raise CheriFault("CSetBounds: cannot grow a capability's bounds")
        return replace(self, address=new_base, base=new_base, length=length)

    def drop_perms(self, perms: Perm) -> "Capability":
        """CAndPerm: permissions may only be removed."""
        return replace(self, perms=self.perms & perms)

    def untagged(self) -> "Capability":
        """What survives a data-plane overwrite: the tag clears."""
        return replace(self, tag=False)


class CheriRuntime(HeapRuntime):
    """A capability-protected heap."""

    name = "cheri"

    def __init__(self, layout: AddressSpaceLayout = DEFAULT_LAYOUT) -> None:
        super().__init__(layout)
        self.checks = 0
        self.faults = 0

    def malloc(self, size: int) -> Capability:
        address = self.allocator.malloc(size)
        return Capability(
            address=address, base=address, length=size, perms=Perm.rw()
        )

    def free(self, cap: Capability) -> Capability:
        """Free the allocation.  Base CHERI leaves temporal safety to
        revocation sweeps (CHERIvoke, §X [42]); the returned capability is
        *still tagged* — the model preserves that documented gap."""
        self._check(cap, Perm.LOAD, size=1)
        self.allocator.free(cap.base)
        return cap

    # ---------------------------------------------------------------- checks

    def _check(self, cap: Capability, perm: Perm, size: int) -> None:
        self.checks += 1
        if not isinstance(cap, Capability) or not cap.tag:
            self.faults += 1
            raise CheriFault("tag violation: not a valid capability")
        if perm not in cap.perms:
            self.faults += 1
            raise CheriFault(f"permission violation: {perm} not granted")
        if cap.address < cap.base or cap.address + size > cap.top:
            self.faults += 1
            raise CheriFault(
                f"bounds violation: [{cap.address:#x}, {cap.address + size:#x}) "
                f"outside [{cap.base:#x}, {cap.top:#x})"
            )

    def load(self, cap: Capability, size: int = 8) -> int:
        self._check(cap, Perm.LOAD, size)
        return self.read(cap.address, size)

    def store(self, cap: Capability, value: int, size: int = 8) -> None:
        self._check(cap, Perm.STORE, size)
        self.write(cap.address, value, size)

    def offset(self, pointer, delta: int) -> Capability:
        if not isinstance(pointer, Capability):
            # A crafted integer is not a tagged capability; every check traps.
            pointer = Capability(
                address=int(pointer), base=int(pointer), length=8,
                perms=Perm.rw(), tag=False,
            )
        return pointer.offset(delta)
