"""Functional semantics of the AOS signing instructions — §IV-A.

``pacma``   sign a data pointer: PAC from QARMA(base address, modifier),
            AHC from Algorithm 1.  A nonzero AHC marks the pointer as
            protected; the PAC indexes the HBT.
``xpacm``   strip PAC and AHC (used around ``free()``, §IV-C).
``autm``    authenticate that the pointer carries a nonzero AHC — the
            on-load authentication of Fig. 13 (§VII-B).  Unlike ``autda``
            it does not recompute a PAC, because AOS PACs are bound to the
            *base* address of the object, not the current pointer value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..crypto.pac import MASK64, PACGenerator
from ..isa.encoding import PointerLayout
from .ahc import compute_ahc
from .exceptions import AuthenticationFault, FaultInfo


@dataclass
class PointerSigner:
    """Implements pacma/pacmb, xpacm and autm over a pointer layout."""

    generator: PACGenerator = field(default_factory=PACGenerator)
    layout: PointerLayout = field(default_factory=PointerLayout)

    def __post_init__(self) -> None:
        if self.generator.pac_bits != self.layout.pac_bits:
            raise ValueError("PAC generator and pointer layout disagree on PAC size")

    def pacma(self, pointer: int, modifier: int, size: int, key: str = "ma") -> int:
        """Sign ``pointer``: embed PAC and AHC (the third operand is the
        allocation size; ``xzr`` i.e. 0 is used when re-signing on free)."""
        address = self.layout.address(pointer)
        ahc = compute_ahc(address, size if size > 0 else 1, self.layout.va_bits)
        pac = self.generator.compute(address, modifier, key_name=key)
        return self.layout.sign(address, pac, ahc)

    def pacmb(self, pointer: int, modifier: int, size: int) -> int:
        return self.pacma(pointer, modifier, size, key="mb")

    def pacma_batch(self, pointers, modifier: int, sizes, key: str = "ma") -> list:
        """Sign many pointers under one modifier (preamble bulk signing).

        Element-for-element identical to calling :meth:`pacma` in a loop —
        pinned by ``tests/test_properties.py`` — but computed over
        ``uint64`` arrays: the PAC by :meth:`PACGenerator.compute_array`,
        the AHC (Alg. 1) and the field packing array-wise.
        """
        if len(pointers) == 0:
            return []
        layout = self.layout
        try:
            words = np.array(pointers, dtype=np.uint64)
        except OverflowError:  # wider than 64 bits: reduce like pacma does
            words = np.array([p & MASK64 for p in pointers], dtype=np.uint64)
        addresses = words & np.uint64(layout.va_mask)
        # Algorithm 1 on (address, size or 1): tAddr = Addr ^ (Addr + Size - 1).
        spans = np.maximum(np.array(sizes, dtype=np.int64), 1).astype(np.uint64)
        varying = addresses ^ (addresses + (spans - np.uint64(1)))
        ahc = np.where(
            varying >> np.uint64(7) == 0,
            np.uint64(1),
            np.where(varying >> np.uint64(10) == 0, np.uint64(2), np.uint64(3)),
        )
        pacs = self.generator.compute_array(addresses, modifier, key_name=key)
        signed = (
            (pacs << np.uint64(layout.pac_shift))
            | (ahc << np.uint64(layout.ahc_shift))
            | addresses
        )
        return signed.tolist()

    def xpacm(self, pointer: int) -> int:
        """Strip both PAC and AHC from the pointer."""
        return self.layout.strip(pointer)

    def autm(self, pointer: int) -> int:
        """Authenticate an AOS pointer: fault if the AHC is zero (Fig. 13).

        Returns the pointer unchanged (autm does not strip the AHC, §IV-A).
        """
        decoded = self.layout.decode(pointer)
        if decoded.ahc == 0:
            raise AuthenticationFault(
                FaultInfo(
                    pointer=pointer,
                    pac=decoded.pac,
                    ahc=decoded.ahc,
                    detail="autm: pointer is not AOS-signed (corrupted AHC)",
                )
            )
        return pointer

    def pac_of(self, pointer: int) -> int:
        return self.layout.pac(pointer)

    def ahc_of(self, pointer: int) -> int:
        return self.layout.ahc(pointer)

    def is_signed(self, pointer: int) -> bool:
        return self.layout.is_signed(pointer)
