"""A functional PACSan-style shadow-metadata PAC-check model.

PACSan (see PAPERS.md) signs every heap pointer at its birth site and
keeps the object's bounds and liveness in a shadow table indexed by the
allocation id the signature binds.  Every access first authenticates
the signature (catching forged or bit-flipped pointers), then checks
the shadow entry: liveness (use-after-free, double free) and bounds
(any OOB, linear or strided).  Like every object-granularity scheme it
cannot see intra-object overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..crypto.pac import PACGenerator, PAKeys
from ..memory.layout import AddressSpaceLayout, DEFAULT_LAYOUT
from ..memory.runtime import HeapRuntime


class PACSanFault(Exception):
    """A PACSan check failed (signature, liveness, or bounds)."""


@dataclass(frozen=True)
class SignedPointer:
    """A pointer carrying its allocation id and birth signature."""

    address: int
    oid: int
    pac: int

    def offset(self, delta: int) -> "SignedPointer":
        return SignedPointer(address=self.address + delta, oid=self.oid, pac=self.pac)

    def __int__(self) -> int:
        return self.address


@dataclass
class _ShadowEntry:
    base: int
    size: int
    alive: bool


class PACSanRuntime(HeapRuntime):
    """Shadow-metadata table + per-pointer signatures."""

    name = "pacsan"

    def __init__(
        self,
        layout: AddressSpaceLayout = DEFAULT_LAYOUT,
        pac_bits: int = 16,
        pac_mode: str = "fast",
    ) -> None:
        super().__init__(layout)
        self.generator = PACGenerator(keys=PAKeys(), pac_bits=pac_bits, mode=pac_mode)
        self._shadow: Dict[int, _ShadowEntry] = {}
        self._next_oid = 1
        self.checks = 0
        self.auth_failures = 0

    # -------------------------------------------------------------- signing

    def _sign(self, base: int, oid: int) -> int:
        return self.generator.compute(base, oid, key_name="da")

    @staticmethod
    def _require_signed(pointer) -> SignedPointer:
        if not isinstance(pointer, SignedPointer):
            raise PACSanFault("crafted pointer carries no signature")
        return pointer

    def _authenticate(self, pointer: SignedPointer) -> _ShadowEntry:
        entry = self._shadow.get(pointer.oid)
        if entry is None:
            self.auth_failures += 1
            raise PACSanFault(
                f"no shadow metadata for allocation id {pointer.oid}"
            )
        if pointer.pac != self._sign(entry.base, pointer.oid):
            self.auth_failures += 1
            raise PACSanFault(
                f"signature mismatch for pointer {pointer.address:#x}"
            )
        return entry

    # ------------------------------------------------------------------ heap

    def malloc(self, size: int) -> SignedPointer:
        base = self.allocator.malloc(size)
        oid = self._next_oid
        self._next_oid += 1
        self._shadow[oid] = _ShadowEntry(base=base, size=size, alive=True)
        return SignedPointer(address=base, oid=oid, pac=self._sign(base, oid))

    def free(self, pointer) -> SignedPointer:
        pointer = self._require_signed(pointer)
        entry = self._authenticate(pointer)
        if not entry.alive:
            raise PACSanFault(
                f"double free of allocation id {pointer.oid} "
                f"({entry.base:#x})"
            )
        if pointer.address != entry.base:
            raise PACSanFault(
                f"free of interior pointer {pointer.address:#x} "
                f"(object base {entry.base:#x})"
            )
        entry.alive = False
        self.allocator.free(entry.base)
        return pointer

    # ---------------------------------------------------------------- checks

    def check(self, pointer, size: int = 8) -> None:
        pointer = self._require_signed(pointer)
        self.checks += 1
        entry = self._authenticate(pointer)
        if not entry.alive:
            raise PACSanFault(
                f"use-after-free through allocation id {pointer.oid} "
                f"({entry.base:#x})"
            )
        if not (entry.base <= pointer.address
                and pointer.address + size <= entry.base + entry.size):
            raise PACSanFault(
                f"out-of-bounds access at {pointer.address:#x}: object is "
                f"[{entry.base:#x}, {entry.base + entry.size:#x})"
            )

    def load(self, pointer, size: int = 8) -> int:
        self.check(pointer, size)
        return self.read(pointer.address, size)

    def store(self, pointer, value: int, size: int = 8) -> None:
        self.check(pointer, size)
        self.write(pointer.address, value, size)

    def offset(self, pointer, delta: int) -> SignedPointer:
        return self._require_signed(pointer).offset(delta)

    def forge_pac(self, pointer, wrong: int) -> SignedPointer:
        p = self._require_signed(pointer)
        mask = self.generator.pac_space - 1
        return SignedPointer(p.address, p.oid, p.pac ^ ((wrong or 1) & mask))
