"""A functional PARTS-style Arm PA pointer-integrity model [21] (§II-B).

PA signs pointers (return addresses on ``pacia``, data pointers on store)
and authenticates them before use.  It detects *pointer corruption* — any
modification of a signed pointer's bits — but provides neither spatial nor
temporal safety: a legitimately derived out-of-bounds pointer, or a freed
pointer, authenticates just fine.  That gap (Fig. 2's heap OOB / UAF rows)
is precisely the motivation for AOS (§II-B last paragraph).
"""

from __future__ import annotations

from ..crypto.pac import PACGenerator, PAKeys
from ..isa.encoding import PointerLayout
from ..memory.layout import AddressSpaceLayout, DEFAULT_LAYOUT
from ..memory.runtime import HeapRuntime, ReturnStack


class PAFault(Exception):
    """A PA authentication failed (corrupted pointer)."""


class PARuntime(ReturnStack, HeapRuntime):
    """Return-address and data-pointer signing/authentication.

    PA does not protect heap objects: ``malloc`` returns a raw pointer and
    ``free`` frees it unchecked."""

    name = "pa"

    def __init__(
        self,
        layout: AddressSpaceLayout = DEFAULT_LAYOUT,
        pac_bits: int = 16,
        pac_mode: str = "qarma",
    ) -> None:
        super().__init__(layout)
        self.pointer_layout = PointerLayout(pac_bits=pac_bits)
        self.generator = PACGenerator(keys=PAKeys(), pac_bits=pac_bits, mode=pac_mode)
        self.auth_failures = 0

    # -------------------------------------------------- pointer sign / auth

    def pacda(self, pointer: int, modifier: int) -> int:
        """Sign a data pointer (on-store signing in PARTS)."""
        address = self.pointer_layout.address(pointer)
        pac = self.generator.compute(address, modifier, key_name="da")
        # PA has no AHC; reuse the layout with AHC=0 semantics by placing
        # the PAC only (an unsigned-looking AHC field).
        return (pac << self.pointer_layout.pac_shift) | address

    def autda(self, pointer: int, modifier: int) -> int:
        """Authenticate a data pointer (on-load authentication)."""
        address = self.pointer_layout.address(pointer)
        pac = (pointer & self.pointer_layout.pac_mask) >> self.pointer_layout.pac_shift
        expected = self.generator.compute(address, modifier, key_name="da")
        if pac != expected:
            self.auth_failures += 1
            raise PAFault(f"autda: PAC mismatch for {address:#x}")
        return address

    def pacia(self, return_address: int, sp: int) -> int:
        """Sign a return address with SP as modifier (Fig. 3)."""
        address = self.pointer_layout.address(return_address)
        pac = self.generator.compute(address, sp, key_name="ia")
        return (pac << self.pointer_layout.pac_shift) | address

    def autia(self, signed_lr: int, sp: int) -> int:
        address = self.pointer_layout.address(signed_lr)
        pac = (signed_lr & self.pointer_layout.pac_mask) >> self.pointer_layout.pac_shift
        expected = self.generator.compute(address, sp, key_name="ia")
        if pac != expected:
            self.auth_failures += 1
            raise PAFault(f"autia: return address {address:#x} corrupted")
        return address

    # ----------------------------------------------------------- return path
    #
    # PARTS signs return addresses with SP as modifier (Fig. 3).

    def _frame_sp(self, depth: int) -> int:
        return self.allocator.layout.stack_top - 16 * depth

    def call(self) -> None:
        depth = len(self._frames)
        self._frames.append([self.pacia(self.call_site(), self._frame_sp(depth))])

    def ret(self) -> int:
        if not self._frames:
            return 0
        (signed,) = self._frames.pop()
        return self.autia(signed, self._frame_sp(len(self._frames)))

    # ------------------------------------------------------------ heap shim

    def load(self, pointer: int, size: int = 8) -> int:
        """Unchecked: PA performs no bounds or liveness checks on access."""
        return self.read(self.pointer_layout.address(pointer), size)

    def store(self, pointer: int, value: int, size: int = 8) -> None:
        self.write(self.pointer_layout.address(pointer), value, size)
