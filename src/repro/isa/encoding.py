"""Pointer bit layout: where the VA, AHC and PAC live in a 64-bit pointer.

AOS stores two metadata fields in the unused upper bits of a data pointer
(Fig. 6):

- a 2-bit **AHC** (address hashing code, Alg. 1): nonzero means the pointer
  is signed/protected and encodes the object's size class;
- the **PAC**, the truncated QARMA output used to index the HBT.

Real AArch64 splits the PAC field around bit 55 (the address-space-half
bit).  We model a clean contiguous layout that preserves the field *sizes*
the paper evaluates — ``va_bits`` of address, 2 bits of AHC, ``pac_bits``
of PAC — which is what the mechanism's behaviour depends on:

::

    63            48 47  46 45                                   0
    +---------------+------+--------------------------------------+
    |      PAC      | AHC  |            virtual address           |
    +---------------+------+--------------------------------------+
                          (va_bits = 46, pac_bits = 16 default)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import EncodingError

MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class PointerLayout:
    """Field layout of a (possibly signed) 64-bit pointer."""

    va_bits: int = 46
    ahc_bits: int = 2
    pac_bits: int = 16

    def __post_init__(self) -> None:
        if self.va_bits + self.ahc_bits + self.pac_bits > 64:
            raise EncodingError("pointer layout exceeds 64 bits")
        if self.ahc_bits != 2:
            raise EncodingError("AOS defines a 2-bit AHC (§IV-A)")
        if not 11 <= self.pac_bits <= 32:
            raise EncodingError("PAC size must be 11..32 bits (§II-B)")

    # -- field masks ---------------------------------------------------------

    @property
    def va_mask(self) -> int:
        return (1 << self.va_bits) - 1

    @property
    def ahc_shift(self) -> int:
        return self.va_bits

    @property
    def ahc_mask(self) -> int:
        return ((1 << self.ahc_bits) - 1) << self.ahc_shift

    @property
    def pac_shift(self) -> int:
        return self.va_bits + self.ahc_bits

    @property
    def pac_mask(self) -> int:
        return ((1 << self.pac_bits) - 1) << self.pac_shift

    # -- encode / decode -----------------------------------------------------

    def sign(self, address: int, pac: int, ahc: int) -> int:
        """Embed ``pac`` and ``ahc`` into the upper bits of ``address``."""
        if address & ~self.va_mask:
            raise EncodingError(
                f"address {address:#x} does not fit in {self.va_bits} VA bits"
            )
        if not 0 <= pac < (1 << self.pac_bits):
            raise EncodingError(f"PAC {pac:#x} does not fit in {self.pac_bits} bits")
        if not 0 <= ahc < (1 << self.ahc_bits):
            raise EncodingError(f"AHC {ahc} does not fit in {self.ahc_bits} bits")
        return (pac << self.pac_shift) | (ahc << self.ahc_shift) | address

    def strip(self, pointer: int) -> int:
        """Remove PAC and AHC — the ``xpacm`` operation (§IV-A)."""
        return pointer & self.va_mask

    def address(self, pointer: int) -> int:
        """The virtual address carried by a (possibly signed) pointer."""
        return pointer & self.va_mask

    def pac(self, pointer: int) -> int:
        return (pointer & self.pac_mask) >> self.pac_shift

    def ahc(self, pointer: int) -> int:
        return (pointer & self.ahc_mask) >> self.ahc_shift

    def is_signed(self, pointer: int) -> bool:
        """Nonzero AHC marks a pointer as signed by AOS (Fig. 6)."""
        return self.ahc(pointer) != 0

    def decode(self, pointer: int) -> "SignedPointer":
        # address(), pac() and ahc() in one pass (the MCU decodes every
        # checked pointer).
        va_bits = self.va_bits
        pac_shift = va_bits + self.ahc_bits
        return SignedPointer(
            raw=pointer & MASK64,
            address=pointer & ((1 << va_bits) - 1),
            pac=(pointer >> pac_shift) & ((1 << self.pac_bits) - 1),
            ahc=(pointer >> va_bits) & ((1 << self.ahc_bits) - 1),
        )


@dataclass(frozen=True)
class SignedPointer:
    """A decoded view of a 64-bit pointer's fields."""

    raw: int
    address: int
    pac: int
    ahc: int

    @property
    def is_signed(self) -> bool:
        return self.ahc != 0

    def __int__(self) -> int:
        return self.raw
