"""Mechanism-specific lowering of workload traces to instruction streams.

Lowering a trace is one base pass plus one splice per mechanism, both over
typed columns:

- the **base pass** (:class:`~repro.compiler.base.BasePass`) is the
  mechanism-independent half: the trace's allocation sequence run against
  a real heap, the dependency dice and each access's raw address, one
  record per trace event as ``numpy`` columns.  It runs once per (trace,
  allocator policy): REST's quarantine pool defers frees and so changes
  the address stream; every other mechanism frees immediately.
- a **splice** (one :class:`_LoweringBase` subclass per mechanism, here)
  declares the µops of each record kind as templates over arrays of
  records: the µops every mechanism shares plus only its own
  instrumentation, and variable-length runs (REST's tokens, MTE's
  colouring, CryptSan's granule tags) with a µop count per record.
  :class:`~repro.compiler.base.Splice` merges them into the program's
  columns at once: a cumulative sum of the µop counts places each
  record's first µop, and every template is one scatter.  Chase
  dependencies are computed there, because they depend on µop positions.
  The AOS splices also sign pointers — the preamble live set and every
  window malloc and free, in one batch per base and PA config — and
  pre-populate the HBT with the preamble live set, the objects that were
  already allocated when the measured window begins.

:func:`lower_trace` takes an optional ``base`` from an earlier lowering of
the same trace (see :class:`~repro.experiments.parallel.TraceMemo`);
without one it runs the base pass itself.  Either way both halves run
inside the call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..config import SystemConfig, default_config
from ..crypto.pac import PACGenerator, PAKeys
from ..errors import WorkloadError
from ..isa.encoding import PointerLayout
from ..isa.instructions import Op
from ..isa.program import Program
from ..memory.layout import AddressSpaceLayout, DEFAULT_LAYOUT
from ..memory.shadow import shadow_addresses
from ..core.hbt import HashedBoundsTable
from ..core.signing import PointerSigner
from ..workloads.generator import (
    TAG_ALU,
    TAG_BR,
    TAG_CALL,
    TAG_FALU,
    TAG_FREE,
    TAG_LD,
    TAG_MALLOC,
    TAG_PTR_ARITH,
    TAG_RET,
    TAG_ST,
    TAG_ULD,
    TAG_UST,
    WorkloadTrace,
)
from .base import (
    IMMEDIATE,
    QUARANTINE,
    BasePass,
    Operand,
    SignedPointers,
    Splice,
    as_u64,
    gather,
    latest_def,
)

#: PAC function of the AOS lowerings: timing needs only distinct, stable
#: PACs, so they use the fast keyed hash rather than bit-exact QARMA.
PAC_MODE = "fast"

# Op codes of the program's ``ops`` column (``Op.value``).
_ALU = Op.ALU.value
_FALU = Op.FALU.value
_BRANCH = Op.BRANCH.value
_CALL = Op.CALL.value
_RET = Op.RET.value
_LOAD = Op.LOAD.value
_STORE = Op.STORE.value
_PACIA = Op.PACIA.value
_AUTIA = Op.AUTIA.value
_PACDA = Op.PACDA.value
_AUTDA = Op.AUTDA.value
_PACMA = Op.PACMA.value
_XPACM = Op.XPACM.value
_AUTM = Op.AUTM.value
_BNDSTR = Op.BNDSTR.value
_BNDCLR = Op.BNDCLR.value
_WCHK = Op.WCHK.value
_WMETA = Op.WMETA.value


@dataclass
class LoweredWorkload:
    """A lowered trace plus the state the simulator needs to run it."""

    name: str
    mechanism: str
    program: Program
    pointer_layout: Optional[PointerLayout] = None
    #: Builds a *fresh* pre-warmed HBT; called once per simulation run so
    #: repeated runs (pytest-benchmark rounds) don't accumulate state.
    hbt_factory: Optional["HBTFactory"] = None
    #: Dynamic-instruction count of the unprotected lowering, for
    #: instruction-overhead reporting (§I's "44 % more dynamic instructions").
    trace_events: int = 0
    #: The AOS lowerings' signed pointers (None for other mechanisms).
    signed: Optional[SignedPointers] = None
    #: The base pass this lowering spliced into: hand it to later
    #: :func:`lower_trace` calls of the same trace and policy.
    base: Optional[BasePass] = field(default=None, repr=False)

    @property
    def hbt(self) -> Optional[HashedBoundsTable]:
        """A fresh pre-warmed HBT (None for non-AOS mechanisms)."""
        if self.hbt_factory is None:
            return None
        return self.hbt_factory()


class _LoweringBase:
    """The splice every mechanism shares: the unprotected µops of each
    base record, and the hooks a mechanism overrides to add its own.

    Each ``lower_*`` hook appends the µops of one record kind to the
    :class:`Splice`, for the records ``r`` of that kind.
    """

    mechanism = "baseline"
    policy = IMMEDIATE

    def __init__(
        self,
        trace: WorkloadTrace,
        config: Optional[SystemConfig] = None,
        address_layout: AddressSpaceLayout = DEFAULT_LAYOUT,
        base: Optional[BasePass] = None,
    ) -> None:
        self.trace = trace
        self.config = config or default_config(self.mechanism)
        self.address_layout = address_layout
        self.base = base

    # ---------------------------------------------------------------- hooks

    def setup_preamble(self) -> None:
        """Per-mechanism preamble state (the base allocated the live set)."""

    def lower_malloc(self, s: Splice, r: np.ndarray) -> None:
        self._emit_allocator_work(s, r, self.base.sizes[r])

    def lower_free(self, s: Splice, r: np.ndarray) -> None:
        self._emit_allocator_work(s, r, 0)

    def lower_heap_load(self, s: Splice, r: np.ndarray) -> None:
        base = self.base
        s.emit_load(r, base.addresses[r], base.deps[r], base.chase[r])

    def lower_heap_store(self, s: Splice, r: np.ndarray) -> None:
        s.emit(r, _STORE, self.base.addresses[r], self.base.deps[r])

    def lower_call(self, s: Splice, r: np.ndarray) -> None:
        s.emit(r, _CALL)

    def lower_ret(self, s: Splice, r: np.ndarray) -> None:
        s.emit(r, _RET)

    def lower_ptr_arith(self, s: Splice, r: np.ndarray) -> None:
        s.emit(r, _ALU)

    # ------------------------------------------------------------ utilities

    def _emit_allocator_work(self, s: Splice, r: np.ndarray, sizes: Operand) -> None:
        """The allocator's own footprint: bin search + header update."""
        s.emit(r, _ALU)
        s.emit(r, _ALU)
        meta = self.address_layout.heap_base + sizes % 4096
        s.emit(r, _LOAD, meta)
        s.emit(r, _STORE, meta)

    # ------------------------------------------------------------- pipeline

    def lower(self) -> LoweredWorkload:
        base = self.base
        if base is None:
            base = self.base = BasePass(self.trace, self.policy, self.address_layout)
        elif base.trace is not self.trace or base.policy != self.policy:
            raise ValueError(
                f"base pass of {base.trace.name!r} ({base.policy}) does not fit "
                f"a {self.mechanism} lowering of {self.trace.name!r} ({self.policy})"
            )
        self.setup_preamble()
        s = Splice(len(base))
        by_tag = base.by_tag
        for tag, op in ((TAG_ALU, _ALU), (TAG_FALU, _FALU)):
            r = by_tag[tag]
            s.emit(r, op, deps=base.deps[r])
        self.lower_heap_load(s, by_tag[TAG_LD])
        self.lower_heap_store(s, by_tag[TAG_ST])
        r = by_tag[TAG_BR]
        s.emit(r, _BRANCH, mispredicted=base.mispredicted[r])
        r = by_tag[TAG_ULD]
        s.emit_load(r, base.addresses[r], base.deps[r])
        r = by_tag[TAG_UST]
        s.emit(r, _STORE, base.addresses[r], base.deps[r])
        self.lower_malloc(s, by_tag[TAG_MALLOC])
        self.lower_free(s, by_tag[TAG_FREE])
        self.lower_call(s, by_tag[TAG_CALL])
        self.lower_ret(s, by_tag[TAG_RET])
        self.lower_ptr_arith(s, by_tag[TAG_PTR_ARITH])
        return self._finish(s.program(f"{self.trace.name}:{self.mechanism}"))

    def _finish(self, program: Program) -> LoweredWorkload:
        return LoweredWorkload(
            name=self.trace.name,
            mechanism=self.mechanism,
            program=program,
            trace_events=len(self.trace),
            base=self.base,
        )


class BaselineLowering(_LoweringBase):
    """No security features: the normalisation denominator of Figs. 14/18."""

    mechanism = "baseline"


class WatchdogLowering(_LoweringBase):
    """Watchdog (Fig. 5a): check µops before every access, lock-and-key
    allocation metadata, and explicit metadata-propagation instructions."""

    mechanism = "watchdog"

    def _shadow_addr(self, addresses: np.ndarray) -> np.ndarray:
        layout = self.address_layout
        in_heap = (addresses >= layout.heap_base) & (addresses < layout.heap_end)
        # The non-heap lanes wrap in the heap mapping; the select drops them.
        heap = shadow_addresses(addresses, layout)
        # Non-heap pointers still have identifier slots in Watchdog.
        span = layout.shadow_size // 2
        other = layout.shadow_base + span + addresses % span
        return np.where(in_heap, heap, other)

    def lower_malloc(self, s: Splice, r: np.ndarray) -> None:
        super().lower_malloc(s, r)
        # key = unique_id++; lock = new_lock(); *(lock) = key; setid (Fig. 5a).
        s.emit(r, _ALU)
        s.emit(r, _ALU)
        s.emit(r, _STORE, self._lock_addr(r))
        s.emit(r, _WMETA)

    def lower_free(self, s: Splice, r: np.ndarray) -> None:
        # *(id.lock) = INVALID; add_free_list(lock) (Fig. 5a).
        s.emit(r, _STORE, self._lock_addr(r))
        s.emit(r, _ALU)
        super().lower_free(s, r)

    def _lock_addr(self, r: np.ndarray) -> np.ndarray:
        """One lock word per object: the compact lock-location table that
        Watchdog's check µops read (and its lock-location cache caches)."""
        return self.address_layout.shadow_base + 8 * as_u64(self.base.objs[r])

    def lower_heap_load(self, s: Splice, r: np.ndarray) -> None:
        base = self.base
        # check R2.id µop loads *(id.lock) (Fig. 5a line 14); the access
        # consumes its verdict (precise traps), serialising check->use.
        s.emit(r, _WCHK, self._lock_addr(r))
        s.emit_load(r, base.addresses[r], np.maximum(base.deps[r], 1), base.chase[r])
        # ld R1.id <- ShadowMem[R2].id: pointer loads pull the stored
        # pointer's metadata from shadow space (a scattered 24B record).
        p = r[base.is_ptr[r]]
        s.emit(p, _LOAD, self._shadow_addr(base.addresses[p]), 1)

    def lower_heap_store(self, s: Splice, r: np.ndarray) -> None:
        base = self.base
        s.emit(r, _WCHK, self._lock_addr(r))
        s.emit(r, _STORE, base.addresses[r], np.maximum(base.deps[r], 1))
        # ShadowMem[R2].id <- R1.id: metadata propagates with the store.
        p = r[base.is_ptr[r]]
        s.emit(p, _STORE, self._shadow_addr(base.addresses[p]))

    def lower_ptr_arith(self, s: Splice, r: np.ndarray) -> None:
        # R1.id <- R2.id metadata copy accompanies pointer arithmetic.
        s.emit(r, _ALU)
        s.emit(r, _WMETA)


class PALowering(_LoweringBase):
    """PARTS-style PA: return-address signing on call/ret plus data-pointer
    on-store signing and on-load authentication (§VII-B, [21])."""

    mechanism = "pa"

    def lower_call(self, s: Splice, r: np.ndarray) -> None:
        s.emit(r, _PACIA)
        s.emit(r, _CALL)

    def lower_ret(self, s: Splice, r: np.ndarray) -> None:
        s.emit(r, _AUTIA)
        s.emit(r, _RET, deps=1)

    def lower_heap_load(self, s: Splice, r: np.ndarray) -> None:
        super().lower_heap_load(s, r)
        s.emit(r[self.base.is_ptr[r]], _AUTDA, deps=1)

    def lower_heap_store(self, s: Splice, r: np.ndarray) -> None:
        base = self.base
        is_ptr = base.is_ptr[r]
        deps = np.where(is_ptr, np.maximum(base.deps[r], 1), base.deps[r])
        s.emit(r[is_ptr], _PACDA)
        s.emit(r, _STORE, base.addresses[r], deps)


class RESTLowering(_LoweringBase):
    """REST-style trip-wire timing model [8] (§IV-C's comparison point).

    Allocation writes 64-byte token redzones around each chunk; free
    *poisons the whole chunk with tokens* and parks it in a quarantine
    pool, un-poisoning (and re-writing) it only when the pool recycles the
    chunk.  Those O(object-size) token fills on the free path are exactly
    what the paper credits for most of REST's overhead — "avoiding the use
    of a quarantine pool will be beneficial in terms of performance"
    (§IV-C).  The pool is the base pass's :data:`QUARANTINE` policy: it
    decides which chunk the allocator really frees at each free.
    """

    mechanism = "rest"
    policy = QUARANTINE

    #: Token granularity: one 8-byte token store per 64 bytes poisoned
    #: (REST tokens are cache-line granular).
    TOKEN_SPAN = 64
    REDZONE = 64

    def _emit_tokens(
        self, s: Splice, r: np.ndarray, addresses: Operand, lengths: Operand
    ) -> None:
        span = self.TOKEN_SPAN
        counts = (np.maximum(lengths, 1) + (span - 1)) // span
        s.emit(r, _STORE, addresses, meta="token", counts=counts, stride=span)

    def lower_malloc(self, s: Splice, r: np.ndarray) -> None:
        super().lower_malloc(s, r)
        raw, size = self.base.addresses[r], self.base.sizes[r]
        # Blacklist the surrounding regions (leading + trailing redzones).
        self._emit_tokens(s, r, raw - self.REDZONE, self.REDZONE)
        self._emit_tokens(s, r, raw + size, self.REDZONE)

    def lower_free(self, s: Splice, r: np.ndarray) -> None:
        # ``size`` is the allocated chunk's, so a preamble object freed in
        # the window is poisoned and recycled in full.
        base = self.base
        raw, size = base.addresses[r], base.sizes[r]
        if self.policy == QUARANTINE:
            # Poison the whole chunk and park it (deferred free).
            self._emit_tokens(s, r, raw, size)
            # Recycling un-poisons the old chunk, then really frees it.
            q = r[base.released[r]]
            self._emit_tokens(s, q, base.released_addresses[q], base.released_sizes[q])
            self._emit_allocator_work(s, q, 0)
        else:
            # No quarantine: clear the redzones and free immediately.
            self._emit_tokens(s, r, raw - self.REDZONE, self.REDZONE)
            self._emit_tokens(s, r, raw + size, self.REDZONE)
            self._emit_allocator_work(s, r, 0)


class RESTNoQuarantineLowering(RESTLowering):
    """REST without its quarantine pool: each free clears the chunk's
    redzones and frees it at once (§IV-C's ablation, lowering token
    ``rest-noq``).  Not a registered mechanism: it runs on REST's config.
    """

    policy = IMMEDIATE


class MTELowering(_LoweringBase):
    """Memory-tagging (Arm MTE / SPARC ADI) timing model — the §X
    comparison point AOS is positioned against.

    Tag checks ride along with each access (the tag travels with the
    line and is checked in parallel — no added latency per access), but
    allocation and deallocation pay tag-colouring stores: one STG-style
    instruction per pair of 16-byte granules, which is what gives tagging
    its malloc-rate- and object-size-proportional overhead.
    """

    mechanism = "mte"

    #: Granules coloured per stg-like instruction (ST2G colours 32 B).
    GRANULES_PER_STG = 2

    def _emit_colouring(self, s: Splice, r: np.ndarray) -> None:
        granules = np.maximum((self.base.sizes[r] + 15) // 16, 1)
        stores = (granules + self.GRANULES_PER_STG - 1) // self.GRANULES_PER_STG
        # Tag stores touch the object's own lines (tags travel with the
        # data in the modelled hierarchy).
        s.emit(r, _STORE, self.base.addresses[r], meta="stg", counts=stores, stride=32)

    def lower_malloc(self, s: Splice, r: np.ndarray) -> None:
        super().lower_malloc(s, r)
        s.emit(r, _ALU)  # IRG: draw a random tag
        self._emit_colouring(s, r)

    def lower_free(self, s: Splice, r: np.ndarray) -> None:
        # Re-colour the allocated chunk on free (temporal protection),
        # then release.
        self._emit_colouring(s, r)
        super().lower_free(s, r)


class PACStackLowering(_LoweringBase):
    """PACStack: an authenticated return-address chain and nothing else.

    Each call chains the new return address to the previous authentication
    token (one ``pacia``), each return verifies it (one ``autia``); the
    heap path is byte-for-byte the baseline lowering.  The cheapest of the
    PA-based related-work points — and the narrowest.
    """

    mechanism = "pacstack"

    def lower_call(self, s: Splice, r: np.ndarray) -> None:
        s.emit(r, _PACIA)
        s.emit(r, _CALL)

    def lower_ret(self, s: Splice, r: np.ndarray) -> None:
        s.emit(r, _AUTIA)
        s.emit(r, _RET, deps=1)


class PACTightLowering(PALowering):
    """PACTight: identity-sealed pointers over the PA data-path lowering.

    On top of PARTS-style call/ret and pointer-move signing, allocation
    draws a per-object identity tag and seals the new pointer with it
    (tag-table store + ``pacda``); free authenticates the seal and
    destroys the tag (``autda`` + tag-table store).  No bounds checks —
    per-access cost is identical to plain PA.
    """

    mechanism = "pactight"

    def _tag_addr(self, r: np.ndarray) -> np.ndarray:
        return self.address_layout.shadow_base + 8 * as_u64(self.base.objs[r])

    def lower_malloc(self, s: Splice, r: np.ndarray) -> None:
        super().lower_malloc(s, r)
        # tag = random_tag(); tag_table[obj] = tag ; seal = pacda(ptr, tag)
        s.emit(r, _ALU)
        s.emit(r, _STORE, self._tag_addr(r), meta="tag")
        s.emit(r, _PACDA)

    def lower_free(self, s: Splice, r: np.ndarray) -> None:
        # autda(ptr, tag_table[obj]) ; tag_table[obj] = INVALID
        tag = self._tag_addr(r)
        s.emit(r, _LOAD, tag)
        s.emit(r, _AUTDA, deps=1)
        s.emit(r, _STORE, tag, meta="tag")
        super().lower_free(s, r)


class PACSanLowering(_LoweringBase):
    """PACSan: shadow-metadata PAC checks on *every* heap access.

    Allocation signs a shadow record (base, size, liveness) for the new
    object; every load and store first loads that record and authenticates
    the pointer against it (shadow ``load`` + ``autda``), serialising
    check before use — the sanitizer-style always-checked point in the
    Pareto plot.
    """

    mechanism = "pacsan"

    def _shadow_addr(self, r: np.ndarray) -> np.ndarray:
        return self.address_layout.shadow_base + 16 * as_u64(self.base.objs[r])

    def _emit_check(self, s: Splice, r: np.ndarray) -> None:
        s.emit(r, _LOAD, self._shadow_addr(r))
        s.emit(r, _AUTDA, deps=1)

    def lower_malloc(self, s: Splice, r: np.ndarray) -> None:
        super().lower_malloc(s, r)
        # shadow[obj] = pacda(base, oid) || (base, size, alive)
        s.emit(r, _PACDA)
        s.emit(r, _STORE, self._shadow_addr(r), meta="shadow")

    def lower_free(self, s: Splice, r: np.ndarray) -> None:
        # Authenticate, then clear the liveness bit in the shadow record.
        self._emit_check(s, r)
        s.emit(r, _STORE, self._shadow_addr(r), meta="shadow")
        super().lower_free(s, r)

    def lower_heap_load(self, s: Splice, r: np.ndarray) -> None:
        base = self.base
        self._emit_check(s, r)
        s.emit_load(r, base.addresses[r], np.maximum(base.deps[r], 1), base.chase[r])

    def lower_heap_store(self, s: Splice, r: np.ndarray) -> None:
        self._emit_check(s, r)
        s.emit(r, _STORE, self.base.addresses[r], np.maximum(self.base.deps[r], 1))


class CryptSanLowering(_LoweringBase):
    """CryptSan: per-object MACs over 16-byte granules, checked everywhere.

    Allocation computes the object MAC (``pacma``) and tags every granule
    (one tag store per 16 B — twice MTE's colouring traffic); free
    re-authenticates and untags.  Every access recomputes and compares the
    MAC (``autda`` on the QARMA-latency path), making this the heaviest —
    and spatially/temporally strongest — related-work point.
    """

    mechanism = "cryptsan"

    GRANULE = 16

    def _emit_granule_tags(self, s: Splice, r: np.ndarray) -> None:
        sizes = np.maximum(self.base.sizes[r], 1)
        granules = (sizes + (self.GRANULE - 1)) // self.GRANULE
        s.emit(
            r,
            _STORE,
            self.base.addresses[r],
            meta="mac-tag",
            counts=granules,
            stride=self.GRANULE,
        )

    def lower_malloc(self, s: Splice, r: np.ndarray) -> None:
        super().lower_malloc(s, r)
        s.emit(r, _PACMA)  # MAC over (base, version)
        self._emit_granule_tags(s, r)

    def lower_free(self, s: Splice, r: np.ndarray) -> None:
        s.emit(r, _AUTDA)  # authenticate before releasing
        self._emit_granule_tags(s, r)  # untag the allocated chunk
        super().lower_free(s, r)

    def lower_heap_load(self, s: Splice, r: np.ndarray) -> None:
        base = self.base
        s.emit(r, _AUTDA)  # MAC check gates the access
        s.emit_load(r, base.addresses[r], np.maximum(base.deps[r], 1), base.chase[r])

    def lower_heap_store(self, s: Splice, r: np.ndarray) -> None:
        s.emit(r, _AUTDA)
        s.emit(r, _STORE, self.base.addresses[r], np.maximum(self.base.deps[r], 1))


class AOSLowering(_LoweringBase):
    """AOS (Fig. 7): sign heap pointers, manage bounds, no per-access
    instrumentation.  ``pa_integrity=True`` gives the PA+AOS configuration:
    call/ret signing plus 1-cycle ``autm`` on-load authentication."""

    mechanism = "aos"

    def __init__(
        self,
        trace: WorkloadTrace,
        config: Optional[SystemConfig] = None,
        address_layout: AddressSpaceLayout = DEFAULT_LAYOUT,
        pa_integrity: bool = False,
        base: Optional[BasePass] = None,
    ) -> None:
        if pa_integrity:
            self.mechanism = "pa+aos"
        super().__init__(trace, config, address_layout, base)
        self.pa_integrity = pa_integrity

        # Scale the PAC space with the live-set scale so HBT occupancy per
        # row matches the full-size system (see workloads.generator).
        scale_bits = int(math.log2(trace.scale)) if trace.scale > 1 else 0
        self.pac_bits = max(11, self.config.pa.pac_bits - scale_bits)
        self.pointer_layout = PointerLayout(pac_bits=self.pac_bits)
        generator = PACGenerator(
            keys=PAKeys(apma=self.config.pa.key),
            pac_bits=self.pac_bits,
            mode=PAC_MODE,
        )
        self.signer = PointerSigner(generator=generator, layout=self.pointer_layout)
        self.sp = address_layout.stack_top - 0x100
        #: The signed pointers, shared through the base per PA config.
        self.signed: Optional[SignedPointers] = None
        #: Per record: the PAC and AHC bits its object's pointer carries on
        #: top of the raw heap address (signed pointer minus raw payload),
        #: and the pointer a malloc signs.
        self._upper: Optional[np.ndarray] = None
        self._signed_at: Optional[np.ndarray] = None

    # ------------------------------------------------------------- preamble

    def setup_preamble(self) -> None:
        base = self.base
        heap = base.heap
        signs = np.isin(base.tags[heap], (TAG_MALLOC, TAG_FREE))
        window = heap[signs]
        # Sign the preamble and every window malloc (its size) and free
        # (size 0) in one batch, once per base and PA config.
        key = (self.config.pa.pac_bits, self.config.pa.key)
        signed = base.signed.get(key)
        if signed is None:
            layout = self.pointer_layout
            sizes = np.where(base.tags[window] == TAG_MALLOC, base.sizes[window], 0)
            pointers = as_u64(
                self.signer.pacma_batch(
                    np.concatenate([base.preamble, base.addresses[window]]),
                    self.sp,
                    np.concatenate([base.preamble_sizes, sizes]),
                )
            )
            count = len(base.preamble)
            preamble = pointers[:count]
            signed = base.signed[key] = SignedPointers(
                preamble=preamble,
                window=pointers[count:],
                pacs=(preamble >> layout.pac_shift) & ((1 << layout.pac_bits) - 1),
                addresses=preamble & layout.va_mask,
                sizes=base.preamble_sizes,
            )
        self.signed = signed
        # Each record's object carries the upper bits of its latest earlier
        # signing: a window malloc or free, or else the preamble's.
        latest = latest_def(base.objs[heap], signs)
        resigned = latest >= 0
        window_of = np.cumsum(signs) - 1
        upper = gather(signed.preamble - base.preamble, base.preamble_slots)
        window_upper = signed.window - base.addresses[window]
        upper[resigned] = window_upper[window_of[latest[resigned]]]
        self._upper = np.zeros(len(base), dtype=np.uint64)
        self._upper[heap] = upper
        self._signed_at = np.zeros(len(base), dtype=np.uint64)
        self._signed_at[window] = signed.window

    def _make_hbt(self, config: SystemConfig) -> HashedBoundsTable:
        """The HBT pre-warm: a table of ``config``'s initial ways and bounds
        compression holding every preamble bound."""
        hbt = HashedBoundsTable(
            pac_bits=self.pac_bits,
            initial_ways=config.hbt.initial_ways,
            layout=self.address_layout,
            compression=config.aos.bounds_compression,
        )
        # Every insertion failure is an AOS exception the OS answers with a
        # blocking resize (§IV-D): the pre-warm fills all rows in one pass.
        signed = self.signed
        hbt.prewarm(signed.pacs, signed.addresses, signed.sizes)
        return hbt

    # ------------------------------------------------------------ lowerings

    def lower_malloc(self, s: Splice, r: np.ndarray) -> None:
        sizes = self.base.sizes[r]
        self._emit_allocator_work(s, r, sizes)
        signed = self._signed_at[r]
        # Fig. 7a: pacma ptr, sp, size ; bndstr ptr, size
        s.emit(r, _PACMA, signed, size=sizes)
        s.emit(r, _BNDSTR, signed, 1, size=sizes)

    def lower_free(self, s: Splice, r: np.ndarray) -> None:
        raw = self.base.addresses[r]
        # Fig. 7b: bndclr ; xpacm ; free() ; pacma ptr, sp, xzr
        s.emit(r, _BNDCLR, raw + self._upper[r])
        s.emit(r, _XPACM)
        self._emit_allocator_work(s, r, 0)
        s.emit(r, _PACMA, raw, size=0)

    def lower_heap_load(self, s: Splice, r: np.ndarray) -> None:
        base = self.base
        address = base.addresses[r] + self._upper[r]
        s.emit_load(r, address, base.deps[r], base.chase[r])
        if self.pa_integrity:
            # Fig. 13: on-load authentication with autm (1 cycle, no QARMA).
            s.emit(r[base.is_ptr[r]], _AUTM, deps=1)

    def lower_heap_store(self, s: Splice, r: np.ndarray) -> None:
        address = self.base.addresses[r] + self._upper[r]
        s.emit(r, _STORE, address, self.base.deps[r])

    def lower_call(self, s: Splice, r: np.ndarray) -> None:
        if self.pa_integrity:
            s.emit(r, _PACIA)
        s.emit(r, _CALL)

    def lower_ret(self, s: Splice, r: np.ndarray) -> None:
        if self.pa_integrity:
            s.emit(r, _AUTIA)
            s.emit(r, _RET, deps=1)
        else:
            s.emit(r, _RET)

    def _finish(self, program: Program) -> LoweredWorkload:
        lowered = LoweredWorkload(
            name=self.trace.name,
            mechanism=self.mechanism,
            program=program,
            pointer_layout=self.pointer_layout,
            hbt_factory=HBTFactory(self, self.config),
            trace_events=len(self.trace),
            signed=self.signed,
            base=self.base,
        )
        # The HBT factory keeps this lowering alive for the pre-warm, which
        # reads only the signed preamble: drop the splice's own state.
        self._upper = self._signed_at = None
        return lowered


class HBTFactory:
    """Fresh pre-warmed HBTs for one AOS lowering and one HBT geometry.

    The first call pre-warms a prototype (:meth:`AOSLowering._make_hbt`);
    every call returns a clone of it, so repeated runs never accumulate
    state and only the first pays for the preamble inserts.  The
    prototype depends only on the signed preamble and the geometry, so
    the AOS and PA+AOS lowerings of one trace and PA config can share a
    factory (see :class:`~repro.experiments.parallel.TraceMemo`).
    """

    def __init__(self, lowering: AOSLowering, config: SystemConfig) -> None:
        self._lowering = lowering
        self._config = config
        self._prototype: Optional[HashedBoundsTable] = None

    def __call__(self) -> HashedBoundsTable:
        if self._prototype is None:
            self._prototype = self._lowering._make_hbt(self._config)
        return self._prototype.clone()

    def for_config(self, config: SystemConfig) -> "HBTFactory":
        """A factory of the same lowering under ``config``'s HBT geometry
        (``hbt.initial_ways``, ``aos.bounds_compression``): the only
        configuration the pre-warm reads that lowering does not."""
        return HBTFactory(self._lowering, config)


_LOWERINGS = {
    "baseline": BaselineLowering,
    "watchdog": WatchdogLowering,
    "pa": PALowering,
    "mte": MTELowering,
    "rest": RESTLowering,
    "rest-noq": RESTNoQuarantineLowering,
    "pacstack": PACStackLowering,
    "pactight": PACTightLowering,
    "pacsan": PACSanLowering,
    "cryptsan": CryptSanLowering,
}


def resolve_lowering(mechanism: str) -> str:
    """Map a registered mechanism name to its lowering token.

    Known lowering tokens pass through; anything else is looked up in the
    mechanism registry, whose :class:`~repro.mechanisms.registry.MechanismSpec`
    may alias an existing lowering (how a plugin reuses, say, the baseline
    timing model).  Untimed mechanisms (``lowering=None``) and unknown
    names raise :class:`~repro.errors.WorkloadError`.
    """
    if mechanism in _LOWERINGS or mechanism in ("aos", "pa+aos"):
        return mechanism
    from ..mechanisms.registry import REGISTRY

    if mechanism in REGISTRY:
        alias = REGISTRY.spec(mechanism).lowering
        if alias is not None and alias != mechanism:
            return resolve_lowering(alias)
        raise WorkloadError(f"mechanism {mechanism!r} has no timing lowering (untimed)")
    raise WorkloadError(f"unknown mechanism {mechanism!r}")


def base_policy(mechanism: str) -> str:
    """The allocator policy of ``mechanism``'s base pass."""
    return _LOWERINGS.get(resolve_lowering(mechanism), AOSLowering).policy


def lower_trace(
    trace: WorkloadTrace,
    mechanism: str,
    config: Optional[SystemConfig] = None,
    base: Optional[BasePass] = None,
) -> LoweredWorkload:
    """Lower ``trace`` for one protection mechanism.

    Lowering reads only ``pa.pac_bits`` and ``pa.key`` of ``config``; the
    HBT factory also reads ``hbt.initial_ways`` and
    ``aos.bounds_compression`` (see :meth:`HBTFactory.for_config`).
    ``base`` is the :class:`BasePass` of an earlier lowering of the same
    trace object under the same allocator policy (:func:`base_policy`);
    without it the base pass runs here.
    """
    mechanism = resolve_lowering(mechanism)
    if mechanism in _LOWERINGS:
        lowering = _LOWERINGS[mechanism](trace, config, base=base)
    else:
        lowering = AOSLowering(
            trace, config, pa_integrity=mechanism == "pa+aos", base=base
        )
    return lowering.lower()
