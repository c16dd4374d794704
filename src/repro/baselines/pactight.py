"""A functional PACTight-style pointer-identity sealing model.

PACTight (see PAPERS.md) seals each sensitive pointer with a PAC whose
modifier is a per-object random tag, giving three properties:
unforgeability (a crafted or bit-flipped pointer fails the seal),
copy-detection for stale copies (the tag rotates when the object's
storage is reused), and temporal safety (the tag is destroyed on free).
It performs *no bounds checking* — a legitimately sealed pointer may
wander out of bounds freely, which is exactly the spatial blind spot
the oracle records — and also seals return addresses, covering the
control-flow path AOS leaves open.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from ..crypto.pac import PACGenerator, PAKeys
from ..memory.layout import AddressSpaceLayout, DEFAULT_LAYOUT
from ..memory.runtime import HeapRuntime, ReturnStack


class PACTightFault(Exception):
    """A seal authentication failed (forged, stale, or freed pointer)."""


@dataclass(frozen=True)
class SealedPointer:
    """A pointer sealed to its object's identity tag."""

    address: int
    base: int
    pac: int

    def offset(self, delta: int) -> "SealedPointer":
        return SealedPointer(address=self.address + delta, base=self.base, pac=self.pac)

    def __int__(self) -> int:
        return self.address


class PACTightRuntime(ReturnStack, HeapRuntime):
    """Identity-sealed pointers over a raw heap (no bounds checks)."""

    name = "pactight"

    def __init__(
        self,
        layout: AddressSpaceLayout = DEFAULT_LAYOUT,
        pac_bits: int = 16,
        pac_mode: str = "fast",
        seed: int = 0x71647,
    ) -> None:
        super().__init__(layout)
        self.generator = PACGenerator(keys=PAKeys(), pac_bits=pac_bits, mode=pac_mode)
        self._rng = random.Random(seed)
        #: object base -> live identity tag (absent once freed).
        self._tags: Dict[int, int] = {}
        self.auth_failures = 0

    # -------------------------------------------------------------- sealing

    def _seal(self, address: int, tag: int) -> int:
        return self.generator.compute(address, tag, key_name="da")

    @staticmethod
    def _require_sealed(pointer) -> SealedPointer:
        if not isinstance(pointer, SealedPointer):
            raise PACTightFault("crafted pointer carries no identity seal")
        return pointer

    def authenticate(self, pointer) -> int:
        pointer = self._require_sealed(pointer)
        tag = self._tags.get(pointer.base)
        if tag is None:
            self.auth_failures += 1
            raise PACTightFault(
                f"no identity tag for object {pointer.base:#x} "
                f"(freed or never allocated)"
            )
        if pointer.pac != self._seal(pointer.base, tag):
            self.auth_failures += 1
            raise PACTightFault(
                f"seal mismatch for pointer {pointer.address:#x} "
                f"(object {pointer.base:#x})"
            )
        return pointer.address

    # ------------------------------------------------------------------ heap

    def malloc(self, size: int) -> SealedPointer:
        base = self.allocator.malloc(size)
        tag = self._rng.getrandbits(32) | 1
        self._tags[base] = tag
        return SealedPointer(address=base, base=base, pac=self._seal(base, tag))

    def free(self, pointer) -> SealedPointer:
        self.authenticate(pointer)
        self.allocator.free(pointer.base)
        del self._tags[pointer.base]
        return pointer

    def load(self, pointer, size: int = 8) -> int:
        return self.read(self.authenticate(pointer), size)

    def store(self, pointer, value: int, size: int = 8) -> None:
        self.write(self.authenticate(pointer), value, size)

    def offset(self, pointer, delta: int) -> SealedPointer:
        return self._require_sealed(pointer).offset(delta)

    def forge_pac(self, pointer, wrong: int) -> SealedPointer:
        p = self._require_sealed(pointer)
        mask = self.generator.pac_space - 1
        return SealedPointer(p.address, p.base, p.pac ^ ((wrong or 1) & mask))

    # ---------------------------------------------------------- return path
    #
    # Return addresses are sealed too (PACTight's pcptr class); a
    # ``smash_ret`` data write cannot recompute the seal without the key.

    def call(self) -> None:
        address = self.call_site()
        seal = self.generator.compute(address, len(self._frames), key_name="ia")
        self._frames.append([address, seal])

    def ret(self) -> int:
        if not self._frames:
            raise PACTightFault("return-stack underflow")
        address, seal = self._frames.pop()
        expected = self.generator.compute(address, len(self._frames), key_name="ia")
        if seal != expected:
            self.auth_failures += 1
            raise PACTightFault(
                f"return address {address:#x} fails its seal"
            )
        return address
