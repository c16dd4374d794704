"""The AOS functional runtime: the library's main user-facing facade.

Ties the heap allocator, pointer signing, HBT and MCU together into a
protected heap, executing exactly the instrumentation sequences of Fig. 7:

``aos_malloc`` (Fig. 7a)::

    ptr = malloc(size)
    pacma  ptr, sp, size      # sign: embed PAC + AHC
    bndstr ptr, size          # store bounds in the HBT

``aos_free`` (Fig. 7b)::

    bndclr ptr                # clear bounds (fails on double free)
    xpacm  ptr                # strip so free() may touch chunk headers
    free(ptr)
    pacma  ptr, sp, xzr       # re-sign: lock the dangling pointer

Every :meth:`load` / :meth:`store` through a signed pointer is bounds
checked by the MCU; a failed check raises :class:`BoundsCheckFault`
*before* any memory state changes (the paper's precise-exception
guarantee, §III-C.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..baselines.pa import PAFault
from ..config import SystemConfig, default_config
from ..crypto.pac import PACGenerator, PAKeys
from ..isa.encoding import PointerLayout
from ..memory.layout import AddressSpaceLayout, DEFAULT_LAYOUT
from ..memory.runtime import HeapRuntime, ReturnStack
from .hbt import HashedBoundsTable
from .mcu import MemoryCheckUnit, ValidationResult
from .signing import PointerSigner


@dataclass
class AOSRuntimeStats:
    """Convenience roll-up of the runtime's component statistics."""

    mallocs: int = 0
    frees: int = 0
    loads: int = 0
    stores: int = 0
    faults_raised: int = 0


class AOSRuntime(ReturnStack, HeapRuntime):
    """A functional AOS-protected process: heap + signed pointers + HBT.

    Pointer arithmetic is the base's plain ``offset``: the PAC/AHC ride
    along with the address, the no-extra-instructions propagation of
    §III-B.  No on-load authentication: a pointer whose AHC was zeroed
    looks unsigned and skips bounds checking (the §VII-C escape), and
    return addresses stay raw (the return path AOS leaves to PA, §VII-B)."""

    name = "aos"

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        address_layout: AddressSpaceLayout = DEFAULT_LAYOUT,
        pac_mode: str = "qarma",
        obs=None,
    ) -> None:
        super().__init__(address_layout)
        self.config = config or default_config("aos")
        self.address_layout = address_layout
        pointer_layout = PointerLayout(pac_bits=self.config.pa.pac_bits)
        generator = PACGenerator(
            keys=PAKeys(apma=self.config.pa.key),
            pac_bits=self.config.pa.pac_bits,
            mode=pac_mode,
        )
        self.signer = PointerSigner(generator=generator, layout=pointer_layout)
        self.hbt = HashedBoundsTable(
            pac_bits=self.config.pa.pac_bits,
            initial_ways=self.config.hbt.initial_ways,
            layout=address_layout,
            compression=self.config.aos.bounds_compression,
        )
        #: Optional :class:`repro.obs.Observability` threaded through the
        #: MCU and HBT (functional runs have no pipeline, so events are
        #: stamped at whatever cycle the caller publishes — 0 by default).
        self.obs = obs
        self.hbt.set_obs(obs)
        self.mcu = MemoryCheckUnit(
            hbt=self.hbt,
            layout=pointer_layout,
            options=self.config.aos,
            bwb_config=self.config.bwb,
            mcq_capacity=self.config.core.mcq_entries,
            obs=obs,
        )
        self.stats = AOSRuntimeStats()
        #: The stack-pointer modifier used by pacma at malloc sites (§IV-C).
        #: Real programs sign at different stack depths; we model a small
        #: set of frame depths so a re-signed (locked) dangling pointer does
        #: not share its PAC with a later allocation reusing the address.
        self.sp = address_layout.stack_top - 0x100
        self._frame = 0

    # ------------------------------------------------------------- heap API

    def _call_site_sp(self) -> int:
        """The SP modifier at the current (rotating) call site."""
        self._frame = (self._frame + 1) % 64
        return self.sp - 16 * self._frame

    def malloc(self, size: int) -> int:
        """Allocate and protect ``size`` bytes; returns a *signed* pointer."""
        raw = self.allocator.malloc(size)
        signed = self.signer.pacma(raw, self._call_site_sp(), size)
        result = self.mcu.bounds_store(signed, size)
        self._raise_on_fault(result)
        self.stats.mallocs += 1
        return signed

    def free(self, pointer: int) -> int:
        """Free a signed pointer; returns the re-signed (locked) pointer.

        Raises :class:`BoundsClearFault` on double free or a crafted
        address — the check that stops House of Spirit (§VII-A).
        """
        result = self.mcu.bounds_clear(pointer)
        self._raise_on_fault(result)
        stripped = self.signer.xpacm(pointer)
        self.allocator.free(stripped)
        self.stats.frees += 1
        # Re-sign with xzr as the size operand: locks the dangling pointer.
        return self.signer.pacma(stripped, self._call_site_sp(), 0)

    # ----------------------------------------------------------- memory API

    def load(self, pointer: int, size: int = 8) -> int:
        """Bounds-checked load; raises BoundsCheckFault on violation."""
        self._validate(pointer, is_store=False)
        self.stats.loads += 1
        return self.read(self.signer.xpacm(pointer), size)

    def store(self, pointer: int, value: int, size: int = 8) -> None:
        """Bounds-checked store.  The check completes before memory is
        updated (precise exceptions): a faulting store writes nothing."""
        self._validate(pointer, is_store=True)
        self.stats.stores += 1
        self.write(self.signer.xpacm(pointer), value, size)

    def load_bytes(self, pointer: int, size: int) -> bytes:
        self._validate(pointer, is_store=False)
        self.stats.loads += 1
        return self.memory.read_bytes(self.signer.xpacm(pointer), size)

    def store_bytes(self, pointer: int, data: bytes) -> None:
        self._validate(pointer, is_store=True)
        self.stats.stores += 1
        self.memory.write_bytes(self.signer.xpacm(pointer), data)

    # ------------------------------------------------------------- plumbing

    def _validate(self, pointer: int, is_store: bool) -> ValidationResult:
        result = self.mcu.check_access(pointer, is_store=is_store)
        self._raise_on_fault(result)
        return result

    def _raise_on_fault(self, result: ValidationResult) -> None:
        if not result.ok and result.fault is not None:
            self.stats.faults_raised += 1
            raise result.fault

    # ---------------------------------------------------- attacker primitives

    def forge_ahc_zero(self, pointer: int) -> int:
        """Attacker clears the AHC field to dodge bounds checking (§VII-C)."""
        return pointer & ~self.signer.layout.ahc_mask

    def forge_pac(self, pointer: int, new_pac: int) -> int:
        """Attacker overwrites the PAC field (``new_pac`` mod its width)."""
        layout = self.signer.layout
        return (pointer & ~layout.pac_mask) | (
            (new_pac << layout.pac_shift) & layout.pac_mask
        )

    def publish_metrics(self) -> None:
        """Harvest runtime + allocator + MCU stats into ``obs.registry``."""
        if self.obs is None:
            return
        registry = self.obs.registry
        registry.count("runtime.mallocs", self.stats.mallocs)
        registry.count("runtime.frees", self.stats.frees)
        registry.count("runtime.loads", self.stats.loads)
        registry.count("runtime.stores", self.stats.stores)
        registry.count("runtime.faults_raised", self.stats.faults_raised)
        self.allocator.publish_metrics(registry)
        self.mcu.publish_metrics(registry)


class PAAOSRuntime(AOSRuntime):
    """PA+AOS (Fig. 13): ``autm`` authenticates every pointer at use.

    Plain AOS skips bounds checks on unsigned pointers, which is the
    §VII-C AHC-zeroing escape; this variant closes it by authenticating on
    every load/store/free, so a zeroed AHC faults before the access.  It
    keeps the PARTS half too: return addresses are signed."""

    name = "pa+aos"

    def autm(self, pointer: int) -> int:
        """The on-load authentication (Fig. 13)."""
        return self.signer.autm(pointer)

    def free(self, pointer: int) -> int:
        return super().free(self.autm(pointer))

    def load(self, pointer: int, size: int = 8) -> int:
        return super().load(self.autm(pointer), size)

    def store(self, pointer: int, value: int, size: int = 8) -> None:
        super().store(self.autm(pointer), value, size)

    def _return_token(self, address: int, depth: int) -> int:
        return self.signer.generator.compute(address, depth, key_name="ia")

    def call(self) -> None:
        address = self.call_site()
        token = self._return_token(address, len(self._frames))
        self._frames.append([address, token])

    def ret(self) -> int:
        if not self._frames:
            return 0
        address, token = self._frames.pop()
        if token != self._return_token(address, len(self._frames)):
            raise PAFault(f"return address {address:#x} fails authentication")
        return address
