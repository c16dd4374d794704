"""Mechanism-specific lowering of workload traces to instruction streams.

Lowering a trace is one base pass plus one splice per mechanism:

- the **base pass** (:class:`BasePass`) is the mechanism-independent half.
  It executes the trace's allocation sequence against a real
  :class:`~repro.memory.allocator.HeapAllocator` (so every mechanism sees
  the identical, deterministic address stream), draws the dependency dice
  (one seeded stream per trace) and resolves every heap access to its raw
  address.  It runs once per (trace, allocator policy): REST's quarantine
  pool defers frees and so changes the address stream; every other
  mechanism frees immediately.
- a **splice** (one :class:`_LoweringBase` subclass per mechanism) walks
  the base's records and emits the program: the µops every mechanism
  shares plus only its own instrumentation.  Chase-dependency distances
  are computed here, because they depend on µop positions.  The AOS
  splices also sign pointers and pre-populate the HBT with the preamble
  live set — the objects that were already allocated when the measured
  window begins.

:func:`lower_trace` takes an optional ``base`` from an earlier lowering of
the same trace (see :class:`~repro.experiments.parallel.TraceMemo`);
without one it runs the base pass itself.  Either way both halves run
inside the call.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import SystemConfig, default_config
from ..crypto.pac import PACGenerator, PAKeys
from ..errors import WorkloadError
from ..isa.encoding import PointerLayout
from ..isa.instructions import Op
from ..isa.program import Program, ProgramBuilder
from ..memory.allocator import HeapAllocator
from ..memory.layout import AddressSpaceLayout, DEFAULT_LAYOUT
from ..memory.memory import SparseMemory
from ..memory.shadow import ShadowMemory
from ..core.hbt import HashedBoundsTable
from ..core.signing import PointerSigner
from ..workloads.generator import WorkloadTrace

#: Maximum dependency distance the pipeline's completion ring supports.
MAX_DEP_DISTANCE = 480

#: Base-pass allocator policies: free at the free event, or park the chunk
#: in REST's quarantine pool and free the oldest parked one on overflow.
IMMEDIATE = "immediate"
QUARANTINE = "quarantine"
#: Chunks REST's quarantine pool holds before it recycles the oldest.
QUARANTINE_CHUNKS = 64

#: PAC function of the AOS lowerings: timing needs only distinct, stable
#: PACs, so they use the fast keyed hash rather than bit-exact QARMA.
PAC_MODE = "fast"

#: Interned single-dependency tuples: ``_DEPS[d]`` is ``(d,)``, ``()`` for 0.
_DEPS: List[Tuple[int, ...]] = [()] + [(d,) for d in range(1, MAX_DEP_DISTANCE + 1)]
_ON_PREVIOUS = _DEPS[1]

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
_BNDCLR = Op.BNDCLR.value
_WCHK = Op.WCHK.value
_WMETA = Op.WMETA.value

#: Trace events that draw from the dependency dice.
_DRAWS = frozenset({"alu", "falu", "ld", "st", "uld", "ust"})


@dataclass(frozen=True, eq=False)
class SignedPreamble:
    """The AOS preamble live set after ``pacma`` signing: ``uint64``
    columns with one entry per preamble object, in trace order.

    It depends only on the trace and ``pa.pac_bits``/``pa.key``, so the
    AOS and PA+AOS lowerings of one base share it.
    """

    #: Signed pointer per preamble object.
    pointers: np.ndarray
    #: The HBT pre-warm's records: PAC, address and size per object.
    pacs: np.ndarray
    addresses: np.ndarray
    sizes: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedPreamble):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("pointers", "pacs", "addresses", "sizes")
        )


class BasePass:
    """The mechanism-independent half of lowering one trace.

    ``records`` holds one tuple per trace event, tagged like the event:

    ========================================= ===========================
    ``(alu|falu, dep)``                        compute
    ``(ld, obj, address, is_ptr, chase, dep)`` heap load, raw address
    ``(st, obj, address, is_ptr, dep)``        heap store, raw address
    ``(uld|ust, address, dep)``                stack/globals access
    ``(br, mispredicted)``                     branch
    ``(m, obj, size, raw)``                    malloc of ``size`` at ``raw``
    ``(f, obj, raw, size, released)``          free; ``size`` is the
                                               allocated size
    ``(call,)``, ``(ret,)``, ``(pa,)``         control flow, ptr arithmetic
    ========================================= ===========================

    ``dep`` is the event's dependency draw, already capped at
    :data:`MAX_DEP_DISTANCE`.  ``released`` is the ``(obj, raw, size)`` the
    allocator really frees at that event: the freed object itself under
    :data:`IMMEDIATE`, the recycled oldest chunk (or None) under
    :data:`QUARANTINE`.

    The base also memoises the signed preamble the AOS splices derive
    from it, per (``pa.pac_bits``, ``pa.key``), so the AOS and PA+AOS
    lowerings of one base sign it once.
    """

    def __init__(
        self,
        trace: WorkloadTrace,
        policy: str = IMMEDIATE,
        address_layout: AddressSpaceLayout = DEFAULT_LAYOUT,
    ) -> None:
        self.trace = trace
        self.policy = policy
        self.address_layout = address_layout
        # The heap is dropped once resolved: the records hold all it decided.
        allocator = HeapAllocator(SparseMemory(), address_layout)
        #: Raw payload per preamble object, in trace order.
        self.preamble: List[int] = self._allocate_preamble(allocator)
        self.records: List[tuple] = self._resolve(allocator)
        self.signed_preambles: Dict[tuple, SignedPreamble] = {}

    def _allocate_preamble(self, allocator: HeapAllocator) -> List[int]:
        """Allocate the preamble live set (untimed warm state) in bulk."""
        return allocator.malloc_many([size for _, size in self.trace.preamble])

    def _resolve(self, allocator: HeapAllocator) -> List[tuple]:
        trace = self.trace
        profile = trace.profile
        layout = self.address_layout
        dice = random.Random(trace.seed ^ 0x5EED)
        chance, pick = dice.random, dice.randrange
        dep_prob, ilp_distance = profile.dep_prob, profile.ilp_distance
        stack_hot = layout.stack_top - 0x2000
        globals_base = layout.globals_base
        quarantine = self.policy == QUARANTINE
        pool: deque = deque()
        # obj id -> raw payload (kept after free: later accesses use it).
        raw = dict(zip((obj for obj, _ in trace.preamble), self.preamble))

        records: List[tuple] = []
        append = records.append
        for event in trace.events:
            tag = event[0]
            if tag in _DRAWS:
                dep = 1 + pick(ilp_distance) if chance() < dep_prob else 0
                if dep > MAX_DEP_DISTANCE:
                    dep = MAX_DEP_DISTANCE
                if tag == "alu" or tag == "falu":
                    append((tag, dep))
                elif tag == "ld":
                    _, obj, offset, is_ptr, chase = event
                    append((tag, obj, raw[obj] + offset, is_ptr, chase, dep))
                elif tag == "st":
                    _, obj, offset, is_ptr = event
                    append((tag, obj, raw[obj] + offset, is_ptr, dep))
                else:
                    _, kind, offset = event
                    base = stack_hot if kind == 0 else globals_base
                    append((tag, base + offset, dep))
            elif tag == "br" or tag == "call" or tag == "ret" or tag == "pa":
                append(event)
            elif tag == "m":
                _, obj, size = event
                pointer = raw[obj] = allocator.malloc(size)
                append((tag, obj, size, pointer))
            elif tag == "f":
                obj = event[1]
                pointer = raw[obj]
                freed = (obj, pointer, allocator.allocated_size(pointer))
                released: Optional[tuple] = freed
                if quarantine:
                    pool.append(freed)
                    released = pool.popleft() if len(pool) > QUARANTINE_CHUNKS else None
                if released is not None:
                    allocator.free(released[1])
                append((tag, *freed, released))
            else:
                raise WorkloadError(f"unknown trace event {tag!r}")
        return records


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
    #: The AOS lowerings' signed preamble (None for other mechanisms).
    preamble: Optional[SignedPreamble] = None
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
    base record, and the hooks a mechanism overrides to add its own."""

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
        self.builder = ProgramBuilder(name=f"{trace.name}:{self.mechanism}")
        self._last_load_index: Optional[int] = None

    # ---------------------------------------------------------------- hooks

    def setup_preamble(self) -> None:
        """Per-mechanism preamble state (the base allocated the live set)."""

    def lower_malloc(self, obj: int, size: int, raw: int) -> None:
        self._emit_allocator_work(size)

    def lower_free(self, obj: int, raw: int, size: int, released) -> None:
        self._emit_allocator_work(0)

    def lower_heap_load(
        self, obj: int, address: int, is_ptr: bool, chase: bool, dep: int
    ) -> None:
        self._emit_load(address, chase, dep)

    def lower_heap_store(self, obj: int, address: int, is_ptr: bool, dep: int) -> None:
        self._emit_store(address, dep)

    def lower_call(self) -> None:
        self.builder.emit(_CALL)

    def lower_ret(self) -> None:
        self.builder.emit(_RET)

    def lower_ptr_arith(self) -> None:
        self.builder.emit(_ALU)

    # ------------------------------------------------------------ utilities

    def _emit_allocator_work(self, size: int) -> None:
        """The allocator's own footprint: bin search + header update."""
        emit = self.builder.emit
        emit(_ALU)
        emit(_ALU)
        meta = self.address_layout.heap_base + (size % 4096)
        emit(_LOAD, meta)
        emit(_STORE, meta)

    def _emit_load(self, address: int, chase: bool, dep: int) -> None:
        builder = self.builder
        index = len(builder)
        deps = _DEPS[dep]
        if chase and self._last_load_index is not None:
            distance = index - self._last_load_index
            if 0 < distance <= MAX_DEP_DISTANCE:
                deps = (dep, distance) if dep else _DEPS[distance]
        builder.emit(_LOAD, address, deps)
        self._last_load_index = index

    def _emit_store(self, address: int, dep: int) -> None:
        self.builder.emit(_STORE, address, _DEPS[dep])

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
        builder = self.builder
        emit = builder.emit
        for record in base.records:
            tag = record[0]
            if tag == "alu":
                emit(_ALU, 0, _DEPS[record[1]])
            elif tag == "ld":
                _, obj, address, is_ptr, chase, dep = record
                self.lower_heap_load(obj, address, is_ptr, chase, dep)
            elif tag == "st":
                _, obj, address, is_ptr, dep = record
                self.lower_heap_store(obj, address, is_ptr, dep)
            elif tag == "br":
                if record[1]:
                    builder.emit_op(Op.BRANCH, mispredicted=True)
                else:
                    emit(_BRANCH)
            elif tag == "uld":
                self._emit_load(record[1], False, record[2])
            elif tag == "ust":
                self._emit_store(record[1], record[2])
            elif tag == "falu":
                emit(_FALU, 0, _DEPS[record[1]])
            elif tag == "m":
                self.lower_malloc(*record[1:])
            elif tag == "f":
                self.lower_free(*record[1:])
            elif tag == "call":
                self.lower_call()
            elif tag == "ret":
                self.lower_ret()
            else:
                self.lower_ptr_arith()
        return self._finish()

    def _finish(self) -> LoweredWorkload:
        return LoweredWorkload(
            name=self.trace.name,
            mechanism=self.mechanism,
            program=self.builder.build(),
            trace_events=len(self.trace.events),
            base=self.base,
        )


class BaselineLowering(_LoweringBase):
    """No security features: the normalisation denominator of Figs. 14/18."""

    mechanism = "baseline"


class WatchdogLowering(_LoweringBase):
    """Watchdog (Fig. 5a): check µops before every access, lock-and-key
    allocation metadata, and explicit metadata-propagation instructions."""

    mechanism = "watchdog"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.shadow = ShadowMemory(SparseMemory(), self.address_layout)

    def _shadow_addr(self, address: int) -> int:
        heap = self.address_layout
        if heap.in_heap(address):
            return self.shadow.shadow_address(address)
        # Non-heap pointers still have identifier slots in Watchdog.
        span = heap.shadow_size // 2
        return heap.shadow_base + span + (address % span)

    def lower_malloc(self, obj: int, size: int, raw: int) -> None:
        super().lower_malloc(obj, size, raw)
        # key = unique_id++; lock = new_lock(); *(lock) = key; setid (Fig. 5a).
        emit = self.builder.emit
        emit(_ALU)
        emit(_ALU)
        emit(_STORE, self._lock_addr(obj))
        emit(_WMETA)

    def lower_free(self, obj: int, raw: int, size: int, released) -> None:
        # *(id.lock) = INVALID; add_free_list(lock) (Fig. 5a).
        self.builder.emit(_STORE, self._lock_addr(obj))
        self.builder.emit(_ALU)
        super().lower_free(obj, raw, size, released)

    def _lock_addr(self, obj: int) -> int:
        """One lock word per object: the compact lock-location table that
        Watchdog's check µops read (and its lock-location cache caches)."""
        return self.address_layout.shadow_base + 8 * obj

    def lower_heap_load(
        self, obj: int, address: int, is_ptr: bool, chase: bool, dep: int
    ) -> None:
        # check R2.id µop loads *(id.lock) (Fig. 5a line 14); the access
        # consumes its verdict (precise traps), serialising check->use.
        self.builder.emit(_WCHK, self._lock_addr(obj))
        self._emit_load(address, chase, dep if dep else 1)
        if is_ptr:
            # ld R1.id <- ShadowMem[R2].id: pointer loads pull the stored
            # pointer's metadata from shadow space (a scattered 24B record).
            self.builder.emit(_LOAD, self._shadow_addr(address), _ON_PREVIOUS)

    def lower_heap_store(self, obj: int, address: int, is_ptr: bool, dep: int) -> None:
        self.builder.emit(_WCHK, self._lock_addr(obj))
        self._emit_store(address, dep if dep else 1)
        if is_ptr:
            # ShadowMem[R2].id <- R1.id: metadata propagates with the store.
            self.builder.emit(_STORE, self._shadow_addr(address))

    def lower_ptr_arith(self) -> None:
        # R1.id <- R2.id metadata copy accompanies pointer arithmetic.
        self.builder.emit(_ALU)
        self.builder.emit(_WMETA)


class PALowering(_LoweringBase):
    """PARTS-style PA: return-address signing on call/ret plus data-pointer
    on-store signing and on-load authentication (§VII-B, [21])."""

    mechanism = "pa"

    def lower_call(self) -> None:
        self.builder.emit(_PACIA)
        self.builder.emit(_CALL)

    def lower_ret(self) -> None:
        self.builder.emit(_AUTIA)
        self.builder.emit(_RET, 0, _ON_PREVIOUS)

    def lower_heap_load(
        self, obj: int, address: int, is_ptr: bool, chase: bool, dep: int
    ) -> None:
        self._emit_load(address, chase, dep)
        if is_ptr:
            self.builder.emit(_AUTDA, 0, _ON_PREVIOUS)

    def lower_heap_store(self, obj: int, address: int, is_ptr: bool, dep: int) -> None:
        if is_ptr:
            self.builder.emit(_PACDA)
            self._emit_store(address, dep if dep else 1)
        else:
            self._emit_store(address, dep)


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

    def setup_preamble(self) -> None:
        #: Objects poisoned and parked, oldest first, as the base's pool.
        self._pool: deque = deque()

    def _emit_tokens(self, address: int, length: int) -> None:
        tokens = range(address, address + max(length, 1), self.TOKEN_SPAN)
        self.builder.emit_run(_STORE, tokens, "token")

    def lower_malloc(self, obj: int, size: int, raw: int) -> None:
        super().lower_malloc(obj, size, raw)
        # Blacklist the surrounding regions (leading + trailing redzones).
        self._emit_tokens(raw - self.REDZONE, self.REDZONE)
        self._emit_tokens(raw + size, self.REDZONE)

    def lower_free(self, obj: int, raw: int, size: int, released) -> None:
        # ``size`` is the allocated chunk's, so a preamble object freed in
        # the window is poisoned and recycled in full.
        if self.policy == QUARANTINE:
            # Poison the whole chunk and park it (deferred free).
            self._emit_tokens(raw, size)
            self._pool.append(obj)
            if released is not None:
                # Recycling un-poisons the old chunk, then really frees it.
                _, old_raw, old_size = released
                self._pool.popleft()
                self._emit_tokens(old_raw, old_size)
                self._emit_allocator_work(0)
        else:
            # No quarantine: clear the redzones and free immediately.
            self._emit_tokens(raw - self.REDZONE, self.REDZONE)
            self._emit_tokens(raw + size, self.REDZONE)
            self._emit_allocator_work(0)


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

    def _emit_colouring(self, address: int, size: int) -> None:
        granules = max(1, (size + 15) // 16)
        stores = (granules + self.GRANULES_PER_STG - 1) // self.GRANULES_PER_STG
        # Tag stores touch the object's own lines (tags travel with the
        # data in the modelled hierarchy).
        self.builder.emit_run(_STORE, range(address, address + 32 * stores, 32), "stg")

    def lower_malloc(self, obj: int, size: int, raw: int) -> None:
        super().lower_malloc(obj, size, raw)
        self.builder.emit(_ALU)  # IRG: draw a random tag
        self._emit_colouring(raw, size)

    def lower_free(self, obj: int, raw: int, size: int, released) -> None:
        # Re-colour the allocated chunk on free (temporal protection),
        # then release.
        self._emit_colouring(raw, size)
        super().lower_free(obj, raw, size, released)


class PACStackLowering(_LoweringBase):
    """PACStack: an authenticated return-address chain and nothing else.

    Each call chains the new return address to the previous authentication
    token (one ``pacia``), each return verifies it (one ``autia``); the
    heap path is byte-for-byte the baseline lowering.  The cheapest of the
    PA-based related-work points — and the narrowest.
    """

    mechanism = "pacstack"

    def lower_call(self) -> None:
        self.builder.emit(_PACIA)
        self.builder.emit(_CALL)

    def lower_ret(self) -> None:
        self.builder.emit(_AUTIA)
        self.builder.emit(_RET, 0, _ON_PREVIOUS)


class PACTightLowering(PALowering):
    """PACTight: identity-sealed pointers over the PA data-path lowering.

    On top of PARTS-style call/ret and pointer-move signing, allocation
    draws a per-object identity tag and seals the new pointer with it
    (tag-table store + ``pacda``); free authenticates the seal and
    destroys the tag (``autda`` + tag-table store).  No bounds checks —
    per-access cost is identical to plain PA.
    """

    mechanism = "pactight"

    def _tag_addr(self, obj: int) -> int:
        return self.address_layout.shadow_base + 8 * obj

    def lower_malloc(self, obj: int, size: int, raw: int) -> None:
        super().lower_malloc(obj, size, raw)
        # tag = random_tag(); tag_table[obj] = tag ; seal = pacda(ptr, tag)
        builder = self.builder
        builder.emit(_ALU)
        builder.emit_op(Op.STORE, address=self._tag_addr(obj), meta="tag")
        builder.emit(_PACDA)

    def lower_free(self, obj: int, raw: int, size: int, released) -> None:
        # autda(ptr, tag_table[obj]) ; tag_table[obj] = INVALID
        builder = self.builder
        builder.emit(_LOAD, self._tag_addr(obj))
        builder.emit(_AUTDA, 0, _ON_PREVIOUS)
        builder.emit_op(Op.STORE, address=self._tag_addr(obj), meta="tag")
        super().lower_free(obj, raw, size, released)


class PACSanLowering(_LoweringBase):
    """PACSan: shadow-metadata PAC checks on *every* heap access.

    Allocation signs a shadow record (base, size, liveness) for the new
    object; every load and store first loads that record and authenticates
    the pointer against it (shadow ``load`` + ``autda``), serialising
    check before use — the sanitizer-style always-checked point in the
    Pareto plot.
    """

    mechanism = "pacsan"

    def _shadow_addr(self, obj: int) -> int:
        return self.address_layout.shadow_base + 16 * obj

    def lower_malloc(self, obj: int, size: int, raw: int) -> None:
        super().lower_malloc(obj, size, raw)
        # shadow[obj] = pacda(base, oid) || (base, size, alive)
        self.builder.emit(_PACDA)
        self.builder.emit_op(Op.STORE, address=self._shadow_addr(obj), meta="shadow")

    def lower_free(self, obj: int, raw: int, size: int, released) -> None:
        # Authenticate, then clear the liveness bit in the shadow record.
        builder = self.builder
        builder.emit(_LOAD, self._shadow_addr(obj))
        builder.emit(_AUTDA, 0, _ON_PREVIOUS)
        builder.emit_op(Op.STORE, address=self._shadow_addr(obj), meta="shadow")
        super().lower_free(obj, raw, size, released)

    def lower_heap_load(
        self, obj: int, address: int, is_ptr: bool, chase: bool, dep: int
    ) -> None:
        self.builder.emit(_LOAD, self._shadow_addr(obj))
        self.builder.emit(_AUTDA, 0, _ON_PREVIOUS)
        self._emit_load(address, chase, dep if dep else 1)

    def lower_heap_store(self, obj: int, address: int, is_ptr: bool, dep: int) -> None:
        self.builder.emit(_LOAD, self._shadow_addr(obj))
        self.builder.emit(_AUTDA, 0, _ON_PREVIOUS)
        self._emit_store(address, dep if dep else 1)


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

    def _emit_granule_tags(self, address: int, size: int) -> None:
        granules = range(address, address + max(size, 1), self.GRANULE)
        self.builder.emit_run(_STORE, granules, "mac-tag")

    def lower_malloc(self, obj: int, size: int, raw: int) -> None:
        super().lower_malloc(obj, size, raw)
        self.builder.emit(_PACMA)  # MAC over (base, version)
        self._emit_granule_tags(raw, size)

    def lower_free(self, obj: int, raw: int, size: int, released) -> None:
        self.builder.emit(_AUTDA)  # authenticate before releasing
        self._emit_granule_tags(raw, size)  # untag the allocated chunk
        super().lower_free(obj, raw, size, released)

    def lower_heap_load(
        self, obj: int, address: int, is_ptr: bool, chase: bool, dep: int
    ) -> None:
        self.builder.emit(_AUTDA)  # MAC check gates the access
        self._emit_load(address, chase, dep if dep else 1)

    def lower_heap_store(self, obj: int, address: int, is_ptr: bool, dep: int) -> None:
        self.builder.emit(_AUTDA)
        self._emit_store(address, dep if dep else 1)


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
        #: The signed preamble, shared through the base per PA config.
        self.preamble: Optional[SignedPreamble] = None
        #: obj id -> the PAC and AHC bits its program pointer carries on
        #: top of the raw heap address (signed pointer minus raw payload).
        self._upper: Dict[int, int] = {}

    # ------------------------------------------------------------- preamble

    def setup_preamble(self) -> None:
        # Sign the whole preamble in one batch, once per base and PA config.
        base = self.base
        key = (self.config.pa.pac_bits, self.config.pa.key)
        preamble = base.signed_preambles.get(key)
        if preamble is None:
            layout = self.pointer_layout
            sizes = [size for _, size in self.trace.preamble]
            signed = np.array(
                self.signer.pacma_batch(base.preamble, self.sp, sizes), dtype=np.uint64
            )
            preamble = base.signed_preambles[key] = SignedPreamble(
                pointers=signed,
                pacs=(signed >> layout.pac_shift) & ((1 << layout.pac_bits) - 1),
                addresses=signed & layout.va_mask,
                sizes=np.array(sizes, dtype=np.uint64),
            )
        self.preamble = preamble
        upper = preamble.pointers - np.array(base.preamble, dtype=np.uint64)
        self._upper = dict(zip((obj for obj, _ in self.trace.preamble), upper.tolist()))

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
        preamble = self.preamble
        hbt.prewarm(preamble.pacs, preamble.addresses, preamble.sizes)
        return hbt

    # ------------------------------------------------------------ lowerings

    def lower_malloc(self, obj: int, size: int, raw: int) -> None:
        self._emit_allocator_work(size)
        signed = self.signer.pacma(raw, self.sp, size)
        self._upper[obj] = signed - raw
        # Fig. 7a: pacma ptr, sp, size ; bndstr ptr, size
        self.builder.emit_op(Op.PACMA, address=signed, size=size)
        self.builder.emit_op(Op.BNDSTR, address=signed, size=size, deps=_ON_PREVIOUS)

    def lower_free(self, obj: int, raw: int, size: int, released) -> None:
        # Fig. 7b: bndclr ; xpacm ; free() ; pacma ptr, sp, xzr
        builder = self.builder
        builder.emit(_BNDCLR, raw + self._upper[obj])
        builder.emit(_XPACM)
        self._emit_allocator_work(0)
        builder.emit_op(Op.PACMA, address=raw, size=0)
        self._upper[obj] = self.signer.pacma(raw, self.sp, 0) - raw

    def lower_heap_load(
        self, obj: int, address: int, is_ptr: bool, chase: bool, dep: int
    ) -> None:
        self._emit_load(address + self._upper[obj], chase, dep)
        if self.pa_integrity and is_ptr:
            # Fig. 13: on-load authentication with autm (1 cycle, no QARMA).
            self.builder.emit(_AUTM, 0, _ON_PREVIOUS)

    def lower_heap_store(self, obj: int, address: int, is_ptr: bool, dep: int) -> None:
        self._emit_store(address + self._upper[obj], dep)

    def lower_call(self) -> None:
        if self.pa_integrity:
            self.builder.emit(_PACIA)
        self.builder.emit(_CALL)

    def lower_ret(self) -> None:
        if self.pa_integrity:
            self.builder.emit(_AUTIA)
            self.builder.emit(_RET, 0, _ON_PREVIOUS)
        else:
            self.builder.emit(_RET)

    def _finish(self) -> LoweredWorkload:
        lowered = LoweredWorkload(
            name=self.trace.name,
            mechanism=self.mechanism,
            program=self.builder.build(),
            pointer_layout=self.pointer_layout,
            hbt_factory=HBTFactory(self, self.config),
            trace_events=len(self.trace.events),
            preamble=self.preamble,
            base=self.base,
        )
        # The HBT factory keeps this lowering alive for the pre-warm, which
        # reads only the signed preamble: drop the splice's own state.
        self.builder = self._upper = None
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
        raise WorkloadError(
            f"mechanism {mechanism!r} has no timing lowering (untimed)"
        )
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
