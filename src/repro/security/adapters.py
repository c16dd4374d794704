"""Uniform mechanism adapters for the adversary corpus.

Each adapter exposes the same small surface — ``malloc``, ``free``,
``load``, ``store``, ``offset`` and the attacker's ``raw_write`` — plus
the optional attacker primitives its mechanism models: ``forge_pac``,
``forge_ahc_zero``, ``forge_tag`` and the call-stack ops (``call``,
``ret``, ``smash_ret``).  The scenario recipes of
:mod:`repro.adversary.scenarios` are written once against this surface;
a recipe that needs a primitive an adapter lacks is ``unsupported`` for
that mechanism (``n/a`` in the §VII matrix).
``DETECTION_EXCEPTIONS`` is the set of exception types that count as
"the mechanism detected the violation"; anything else is a robustness
bug.  Enumeration (which mechanisms exist, how to build one)
lives in :mod:`repro.mechanisms` — ``MECHANISM_ADAPTERS`` here is a
live read-only view of that registry, kept for its many call sites.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Tuple

from ..baselines.cheri import Capability, CheriFault, CheriRuntime, Perm
from ..baselines.cryptsan import CryptSanFault, CryptSanRuntime, MACPointer
from ..baselines.mpx import MPXFault
from ..baselines.mte import MTEFault, MTERuntime, TaggedPointer
from ..baselines.pa import PAFault, PARuntime
from ..baselines.pacsan import PACSanFault, PACSanRuntime, SignedPointer
from ..baselines.pacstack import PACStackFault, PACStackRuntime
from ..baselines.pactight import PACTightFault, PACTightRuntime, SealedPointer
from ..baselines.rest import RedzoneFault, RestRuntime
from ..baselines.watchdog import WatchdogFault, WatchdogPointer, WatchdogRuntime
from ..core.aos import AOSRuntime
from ..core.exceptions import AOSException
from ..errors import AllocatorError
from ..mechanisms.registry import REGISTRY
from ..memory.allocator import HeapAllocator
from ..memory.layout import DEFAULT_LAYOUT
from ..memory.memory import SparseMemory

#: Exception types that count as a successful detection.  The registry
#: union (:meth:`~repro.mechanisms.registry.MechanismRegistry.detection_exceptions`)
#: additionally covers plugin mechanisms registered at runtime.
DETECTION_EXCEPTIONS: Tuple[type, ...] = (
    AOSException,
    WatchdogFault,
    RedzoneFault,
    PAFault,
    MPXFault,
    MTEFault,
    CheriFault,
    CryptSanFault,
    PACSanFault,
    PACTightFault,
    PACStackFault,
    AllocatorError,
)

#: Synthetic call-site base for the modelled return-address stacks.
_CALL_SITE = 0x400000


class BaselineAdapter:
    """An unprotected glibc-style heap: every attack should succeed."""

    name = "baseline"

    def __init__(self) -> None:
        self.memory = SparseMemory()
        self.allocator = HeapAllocator(self.memory, DEFAULT_LAYOUT)

    def malloc(self, size: int) -> int:
        return self.allocator.malloc(size)

    def free(self, pointer: int):
        self.allocator.free(pointer)
        return pointer  # dangling pointer remains usable

    def load(self, pointer: int, size: int = 8) -> int:
        return int.from_bytes(self.memory.read_bytes(pointer, size), "little")

    def store(self, pointer: int, value: int, size: int = 8) -> None:
        self.memory.write_bytes(
            pointer, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        )

    def offset(self, pointer: int, delta: int) -> int:
        return pointer + delta

    def raw_write(self, address: int, value: int) -> None:
        """Attacker primitive: arbitrary memory write (threat model §III-D)."""
        self.memory.write_u64(address, value)

    # ------------------------------------------------------------ call stack
    #
    # An unprotected saved-return-address stack: the attacker overwrite in
    # ``smash_ret`` lands silently and ``ret`` follows it.  Lazily created
    # so subclasses with their own __init__ (AOS, PA) inherit it for free.

    def _frames(self) -> list:
        frames = self.__dict__.get("_return_frames")
        if frames is None:
            frames = self.__dict__["_return_frames"] = []
        return frames

    def call(self) -> None:
        frames = self._frames()
        frames.append(_CALL_SITE + 16 * len(frames))

    def smash_ret(self, value: int) -> None:
        """Attacker data-write over the topmost saved return address."""
        frames = self._frames()
        if frames:
            frames[-1] = value if value != frames[-1] else value ^ 0x10

    def ret(self) -> int:
        frames = self._frames()
        return frames.pop() if frames else 0


class AOSAdapter(BaselineAdapter):
    """AOS-protected heap (Fig. 7 instrumentation via AOSRuntime).

    No on-load authentication: a pointer whose AHC was zeroed looks
    unsigned and skips bounds checking (the §VII-C escape)."""

    name = "aos"

    def __init__(self, pac_mode: str = "fast") -> None:
        self.runtime = AOSRuntime(pac_mode=pac_mode)
        self.memory = self.runtime.memory
        self.allocator = self.runtime.allocator

    def malloc(self, size: int) -> int:
        return self.runtime.malloc(size)

    def free(self, pointer: int):
        return self.runtime.free(pointer)

    def load(self, pointer: int, size: int = 8) -> int:
        return self.runtime.load(pointer, size)

    def store(self, pointer: int, value: int, size: int = 8) -> None:
        self.runtime.store(pointer, value, size)

    def offset(self, pointer: int, delta: int) -> int:
        return self.runtime.offset(pointer, delta)

    def strip(self, pointer: int) -> int:
        return self.runtime.signer.xpacm(pointer)

    def forge_ahc_zero(self, pointer: int) -> int:
        """Attacker clears the AHC field to dodge bounds checking (§VII-C)."""
        layout = self.runtime.signer.layout
        return pointer & ~layout.ahc_mask

    def forge_pac(self, pointer: int, new_pac: int) -> int:
        """Attacker overwrites the PAC field (``new_pac`` mod its width)."""
        layout = self.runtime.signer.layout
        return (pointer & ~layout.pac_mask) | (
            (new_pac << layout.pac_shift) & layout.pac_mask
        )


class PAAOSAdapter(AOSAdapter):
    """PA+AOS (Fig. 13): ``autm`` authenticates every pointer at use.

    Plain AOS skips bounds checks on unsigned pointers, which is the
    §VII-C AHC-zeroing escape; this variant closes it by authenticating on
    every load/store/free, so a zeroed AHC faults before the access."""

    name = "pa+aos"

    def autm(self, pointer: int) -> int:
        """The on-load authentication (Fig. 13)."""
        return self.runtime.signer.autm(pointer)

    def free(self, pointer: int):
        return super().free(self.autm(pointer))

    def load(self, pointer: int, size: int = 8) -> int:
        return super().load(self.autm(pointer), size)

    def store(self, pointer: int, value: int, size: int = 8) -> None:
        super().store(self.autm(pointer), value, size)

    # PA+AOS keeps the PARTS half: return addresses are signed (Fig. 13's
    # integrated configuration), unlike plain AOS which leaves them raw.

    def call(self) -> None:
        frames = self._frames()
        depth = len(frames)
        lr = _CALL_SITE + 16 * depth
        token = self.runtime.signer.generator.compute(lr, depth, key_name="ia")
        frames.append([lr, token])

    def smash_ret(self, value: int) -> None:
        frames = self._frames()
        if frames:
            frame = frames[-1]
            frame[0] = value if value != frame[0] else value ^ 0x10

    def ret(self) -> int:
        frames = self._frames()
        if not frames:
            return 0
        lr, token = frames.pop()
        expected = self.runtime.signer.generator.compute(
            lr, len(frames), key_name="ia"
        )
        if token != expected:
            raise PAFault(f"return address {lr:#x} fails authentication")
        return lr


class WatchdogAdapter:
    """Watchdog lock-and-key + bounds."""

    name = "watchdog"

    def __init__(self) -> None:
        self.runtime = WatchdogRuntime()
        self.memory = self.runtime.memory
        self.allocator = self.runtime.allocator

    def malloc(self, size: int) -> WatchdogPointer:
        return self.runtime.malloc(size)

    @staticmethod
    def _require_fat(pointer) -> WatchdogPointer:
        if not isinstance(pointer, WatchdogPointer):
            # An attacker-crafted integer has no register metadata: every
            # Watchdog check µop on it fails by construction.
            raise WatchdogFault("crafted pointer carries no lock/key metadata")
        return pointer

    def free(self, pointer):
        self.runtime.free(self._require_fat(pointer))
        return pointer

    def load(self, pointer, size: int = 8) -> int:
        return self.runtime.load(self._require_fat(pointer), size)

    def store(self, pointer, value: int, size: int = 8) -> None:
        self.runtime.store(self._require_fat(pointer), value, size)

    def offset(self, pointer: WatchdogPointer, delta: int) -> WatchdogPointer:
        return pointer.offset(delta)

    def raw_write(self, address: int, value: int) -> None:
        self.memory.write_u64(address, value)


class RestAdapter:
    """REST-style redzones with a quarantine pool."""

    name = "rest"

    def __init__(self) -> None:
        self.runtime = RestRuntime()
        self.memory = self.runtime.memory
        self.allocator = self.runtime.allocator

    def malloc(self, size: int) -> int:
        return self.runtime.malloc(size)

    def free(self, pointer: int):
        self.runtime.free(pointer)
        return pointer

    def load(self, pointer: int, size: int = 8) -> int:
        return self.runtime.load(pointer, size)

    def store(self, pointer: int, value: int, size: int = 8) -> None:
        self.runtime.store(pointer, value, size)

    def offset(self, pointer: int, delta: int) -> int:
        return pointer + delta

    def raw_write(self, address: int, value: int) -> None:
        self.memory.write_u64(address, value)


class PAAdapter(BaselineAdapter):
    """PA-only pointer integrity: no spatial/temporal protection."""

    name = "pa"

    def __init__(self) -> None:
        self.runtime = PARuntime(pac_mode="fast")
        self.memory = self.runtime.memory
        self.allocator = self.runtime.allocator

    def malloc(self, size: int) -> int:
        return self.runtime.malloc(size)

    def free(self, pointer: int):
        self.runtime.free(pointer)
        return pointer

    def load(self, pointer: int, size: int = 8) -> int:
        return self.runtime.load(pointer, size)

    def store(self, pointer: int, value: int, size: int = 8) -> None:
        self.runtime.store(pointer, value, size)

    # PARTS signs return addresses with SP as modifier (Fig. 3).

    def call(self) -> None:
        frames = self._frames()
        depth = len(frames)
        lr = _CALL_SITE + 16 * depth
        frames.append(self.runtime.pacia(lr, self._frame_sp(depth)))

    def ret(self) -> int:
        frames = self._frames()
        if not frames:
            return 0
        signed = frames.pop()
        return self.runtime.autia(signed, self._frame_sp(len(frames)))

    def _frame_sp(self, depth: int) -> int:
        return self.allocator.layout.stack_top - 16 * depth


class MTEAdapter:
    """Arm-MTE/ADI-style 4-bit memory tagging (§X)."""

    name = "mte"

    def __init__(self) -> None:
        self.runtime = MTERuntime(tag_bits=4)
        self.memory = self.runtime.memory
        self.allocator = self.runtime.allocator

    @staticmethod
    def _as_tagged(pointer) -> TaggedPointer:
        if isinstance(pointer, TaggedPointer):
            return pointer
        # An attacker-crafted integer pointer carries whatever key tag the
        # attacker picked; untagged memory reads as tag 0, so the best
        # strategy is tag 0 (MTE does not tag non-heap regions).
        return TaggedPointer(address=int(pointer), tag=0)

    def malloc(self, size: int) -> TaggedPointer:
        return self.runtime.malloc(size)

    def free(self, pointer):
        return self.runtime.free(self._as_tagged(pointer))

    def load(self, pointer, size: int = 8) -> int:
        return self.runtime.load(self._as_tagged(pointer), size)

    def store(self, pointer, value: int, size: int = 8) -> None:
        self.runtime.store(self._as_tagged(pointer), value, size)

    def offset(self, pointer, delta: int):
        return self._as_tagged(pointer).offset(delta)

    def forge_tag(self, pointer, tag: int) -> TaggedPointer:
        """Attacker rewrites the pointer's key tag (``tag`` mod its width)."""
        return TaggedPointer(
            self._as_tagged(pointer).address, tag % self.runtime.tag_space
        )

    def raw_write(self, address: int, value: int) -> None:
        self.memory.write_u64(address, value)


class CheriAdapter:
    """CHERI-style capabilities (§X): spatial safety by construction,
    temporal safety deferred to revocation sweeps."""

    name = "cheri"

    def __init__(self) -> None:
        self.runtime = CheriRuntime()
        self.memory = self.runtime.memory
        self.allocator = self.runtime.allocator

    @staticmethod
    def _as_cap(pointer):
        if isinstance(pointer, Capability):
            return pointer
        # A crafted integer is not a tagged capability; every check traps.
        return Capability(
            address=int(pointer), base=int(pointer), length=8,
            perms=Perm.rw(), tag=False,
        )

    def malloc(self, size: int) -> Capability:
        return self.runtime.malloc(size)

    def free(self, pointer):
        return self.runtime.free(self._as_cap(pointer))

    def load(self, pointer, size: int = 8) -> int:
        return self.runtime.load(self._as_cap(pointer), size)

    def store(self, pointer, value: int, size: int = 8) -> None:
        self.runtime.store(self._as_cap(pointer), value, size)

    def offset(self, pointer, delta: int):
        return self._as_cap(pointer).offset(delta)

    def raw_write(self, address: int, value: int) -> None:
        self.memory.write_u64(address, value)


class CryptSanAdapter:
    """CryptSan-style per-object MACs checked on every load/store."""

    name = "cryptsan"

    def __init__(self) -> None:
        self.runtime = CryptSanRuntime()
        self.memory = self.runtime.memory
        self.allocator = self.runtime.allocator

    @staticmethod
    def _require_mac(pointer) -> MACPointer:
        if not isinstance(pointer, MACPointer):
            # A crafted integer carries no MAC: every granule check fails.
            raise CryptSanFault("crafted pointer carries no MAC")
        return pointer

    def malloc(self, size: int) -> MACPointer:
        return self.runtime.malloc(size)

    def free(self, pointer):
        return self.runtime.free(self._require_mac(pointer))

    def load(self, pointer, size: int = 8) -> int:
        return self.runtime.load(self._require_mac(pointer), size)

    def store(self, pointer, value: int, size: int = 8) -> None:
        self.runtime.store(self._require_mac(pointer), value, size)

    def offset(self, pointer, delta: int) -> MACPointer:
        return self._require_mac(pointer).offset(delta)

    def forge_pac(self, pointer, wrong: int) -> MACPointer:
        """Attacker flips bits in the pointer's MAC field."""
        p = self._require_mac(pointer)
        mask = self.runtime.generator.pac_space - 1
        return MACPointer(p.address, p.base, p.mac ^ ((wrong or 1) & mask))

    def raw_write(self, address: int, value: int) -> None:
        self.memory.write_u64(address, value)


class PACSanAdapter:
    """PACSan-style shadow-metadata PAC checks on every access."""

    name = "pacsan"

    def __init__(self) -> None:
        self.runtime = PACSanRuntime()
        self.memory = self.runtime.memory
        self.allocator = self.runtime.allocator

    @staticmethod
    def _require_signed(pointer) -> SignedPointer:
        if not isinstance(pointer, SignedPointer):
            raise PACSanFault("crafted pointer carries no signature")
        return pointer

    def malloc(self, size: int) -> SignedPointer:
        return self.runtime.malloc(size)

    def free(self, pointer):
        return self.runtime.free(self._require_signed(pointer))

    def load(self, pointer, size: int = 8) -> int:
        return self.runtime.load(self._require_signed(pointer), size)

    def store(self, pointer, value: int, size: int = 8) -> None:
        self.runtime.store(self._require_signed(pointer), value, size)

    def offset(self, pointer, delta: int) -> SignedPointer:
        return self._require_signed(pointer).offset(delta)

    def forge_pac(self, pointer, wrong: int) -> SignedPointer:
        p = self._require_signed(pointer)
        mask = self.runtime.generator.pac_space - 1
        return SignedPointer(p.address, p.oid, p.pac ^ ((wrong or 1) & mask))

    def raw_write(self, address: int, value: int) -> None:
        self.memory.write_u64(address, value)


class PACTightAdapter:
    """PACTight-style pointer-identity sealing (no bounds checks)."""

    name = "pactight"

    def __init__(self) -> None:
        self.runtime = PACTightRuntime()
        self.memory = self.runtime.memory
        self.allocator = self.runtime.allocator

    @staticmethod
    def _require_sealed(pointer) -> SealedPointer:
        if not isinstance(pointer, SealedPointer):
            raise PACTightFault("crafted pointer carries no identity seal")
        return pointer

    def malloc(self, size: int) -> SealedPointer:
        return self.runtime.malloc(size)

    def free(self, pointer):
        return self.runtime.free(self._require_sealed(pointer))

    def load(self, pointer, size: int = 8) -> int:
        return self.runtime.load(self._require_sealed(pointer), size)

    def store(self, pointer, value: int, size: int = 8) -> None:
        self.runtime.store(self._require_sealed(pointer), value, size)

    def offset(self, pointer, delta: int) -> SealedPointer:
        return self._require_sealed(pointer).offset(delta)

    def forge_pac(self, pointer, wrong: int) -> SealedPointer:
        p = self._require_sealed(pointer)
        mask = self.runtime.generator.pac_space - 1
        return SealedPointer(p.address, p.base, p.pac ^ ((wrong or 1) & mask))

    def raw_write(self, address: int, value: int) -> None:
        self.memory.write_u64(address, value)

    # PACTight seals return addresses too (its pcptr class).

    def call(self) -> None:
        self.runtime.call(_CALL_SITE + 16 * self.runtime.depth)

    def smash_ret(self, value: int) -> None:
        self.runtime.smash_return(value)

    def ret(self) -> int:
        return self.runtime.ret()


class PACStackAdapter(BaselineAdapter):
    """PACStack-style authenticated return-address chain over a raw heap."""

    name = "pacstack"

    def __init__(self) -> None:
        super().__init__()
        self.stack = PACStackRuntime()

    def call(self) -> None:
        self.stack.call(_CALL_SITE + 16 * self.stack.depth)

    def smash_ret(self, value: int) -> None:
        self.stack.smash_return(value)

    def ret(self) -> int:
        return self.stack.ret()


class _RegistryAdapters(Mapping):
    """Live ``name -> factory`` view over the mechanism registry, so the
    pre-registry call sites (and tests) keep working unchanged."""

    def __getitem__(self, name: str):
        return REGISTRY.spec(name).factory

    def __iter__(self) -> Iterator[str]:
        return iter(REGISTRY.names())

    def __len__(self) -> int:
        return len(REGISTRY)

    def __contains__(self, name: object) -> bool:
        return name in REGISTRY

    def keys(self) -> List[str]:  # type: ignore[override]
        return REGISTRY.names()


#: Every registered mechanism, in registry order (a live registry view).
MECHANISM_ADAPTERS: Mapping[str, object] = _RegistryAdapters()


def make_adapter(mechanism: str):
    """Instantiate a fresh adapter for ``mechanism`` (strict: an unknown
    name raises :class:`~repro.mechanisms.registry.UnknownMechanismError`
    listing the registered choices)."""
    return REGISTRY.make_adapter(mechanism)
