"""The mechanism-independent half of lowering, held as columns.

- :class:`BasePass` runs once per (trace, allocator policy).  It reads the
  trace's event columns as they are, executes the trace's allocation
  sequence against a real :class:`~repro.memory.allocator.HeapAllocator`
  (so every mechanism sees the identical, deterministic address stream),
  draws the dependency dice (one seeded stream per trace) and resolves
  every heap access to its raw address, and keeps one record per trace
  event as ``numpy`` columns.  Only the window's mallocs and frees are a
  Python loop (and the dice, where the C module cannot be built).
- :class:`Splice` is what a mechanism's lowering
  (:mod:`repro.compiler.passes`) writes into: µop templates over arrays of
  records, merged into a :class:`~repro.isa.program.Program`'s typed
  columns in one pass.
"""

from __future__ import annotations

import operator
import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..errors import WorkloadError
from ..isa.instructions import Op
from ..isa.program import Program
from ..memory.allocator import HeapAllocator
from ..memory.layout import AddressSpaceLayout, DEFAULT_LAYOUT
from ..memory.memory import SparseMemory
from ..workloads.generator import (
    FLAG_CHASE,
    FLAG_GLOBALS,
    FLAG_MISPREDICTED,
    FLAG_PTR,
    TAG_COUNT,
    TAG_FREE,
    TAG_LD,
    TAG_MALLOC,
    TAG_ST,
    TAG_ULD,
    TAG_UST,
    WorkloadTrace,
)

#: Maximum dependency distance the pipeline's completion ring supports.
MAX_DEP_DISTANCE = 480

#: Base-pass allocator policies: free at the free event, or park the chunk
#: in REST's quarantine pool and free the oldest parked one on overflow.
IMMEDIATE = "immediate"
QUARANTINE = "quarantine"
#: Chunks REST's quarantine pool holds before it recycles the oldest.
QUARANTINE_CHUNKS = 64

_HEAP_TAGS = (TAG_LD, TAG_ST, TAG_MALLOC, TAG_FREE)

#: The op code of the loads :meth:`Splice.emit_load` appends.
_LOAD = Op.LOAD.value

#: A per-record operand: one value for every record, or one per record.
Operand = Union[int, np.ndarray]


def as_u64(values) -> np.ndarray:
    """``values`` as a ``uint64`` array (no copy if it already is one)."""
    return np.asarray(values, dtype=np.uint64)


def latest_def(keys: np.ndarray, is_def: np.ndarray) -> np.ndarray:
    """For each event (in trace order), the index of the latest *earlier*
    event with the same key for which ``is_def`` holds; -1 if none."""
    n = len(keys)
    order = np.argsort(keys, kind="stable")  # by key, then trace order
    last = np.maximum.accumulate(np.where(is_def[order], np.arange(n), -1))
    before = np.full(n, -1, dtype=np.int64)
    before[1:] = last[:-1]
    sorted_keys = keys[order]
    found = before >= 0
    found[found] = sorted_keys[before[found]] == sorted_keys[found]
    latest = np.full(n, -1, dtype=np.int64)
    latest[order[found]] = order[before[found]]
    return latest


def dependency_draws(
    seed: int, count: int, dep_prob: float, ilp_distance: int
) -> np.ndarray:
    """``count`` dependency draws from ``random.Random(seed)``, as ``int64``:
    the values of ``[1 + rng.randrange(ilp_distance) if rng.random() <
    dep_prob else 0 for _ in range(count)]``, from the same stream.

    ``randrange(n)`` is inlined as CPython runs it (``getrandbits`` of
    ``n.bit_length()`` bits, retried while the value is ``>= n``), which
    saves two Python calls per pick.  An ``ilp_distance`` below 1 has no
    draw, and one of 2**63 or more no ``int64`` draw: both raise
    :class:`ValueError`.  The loop runs in the C module of
    :mod:`repro.kernel.fast` on the same stream (``_fast.dependency_draws``);
    the loop below is its reference, and runs where the module cannot be
    built.
    """
    from ..kernel.fast import native, on_stream

    ilp_distance = operator.index(ilp_distance)
    if ilp_distance < 1:
        raise ValueError(f"ilp_distance must be at least 1, not {ilp_distance}")
    if ilp_distance.bit_length() > 63:
        raise ValueError(f"ilp_distance must be below 2**63, not {ilp_distance}")
    rng = random.Random(seed)
    kernel = native()
    if kernel is not None:
        drawn = np.empty(count, dtype=np.int64)
        on_stream(kernel.dependency_draws)(rng, dep_prob, ilp_distance, drawn)
        return drawn
    chance, getrandbits = rng.random, rng.getrandbits
    bits = ilp_distance.bit_length()
    drawn = [0] * count
    for index in range(count):
        if chance() < dep_prob:
            value = getrandbits(bits)
            while value >= ilp_distance:
                value = getrandbits(bits)
            drawn[index] = 1 + value
    return np.array(drawn, dtype=np.int64)


def gather(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``values[index]``, with 0 where ``index`` is -1."""
    gathered = np.zeros(len(index), dtype=values.dtype)
    found = index >= 0
    gathered[found] = values[index[found]]
    return gathered


def _slots(ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The position of each key in ``ids`` (the last one, if repeated);
    -1 where it is absent."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    at = np.searchsorted(sorted_ids, keys, side="right") - 1
    found = at >= 0
    found[found] = sorted_ids[at[found]] == keys[found]
    slots = np.full(len(keys), -1, dtype=np.int64)
    slots[found] = order[at[found]]
    return slots


@dataclass(frozen=True, eq=False)
class SignedPointers:
    """The AOS lowerings' signed pointers: ``uint64`` columns from one
    ``pacma_batch`` call per base pass and PA config.

    They depend only on the base pass and ``pa.pac_bits``/``pa.key``, so
    the AOS and PA+AOS lowerings of one base share them.
    """

    #: Signed pointer per preamble object, in trace order.
    preamble: np.ndarray
    #: Signed pointer per window malloc and free record, in trace order
    #: (a free re-signs its object with size 0, Fig. 7b).
    window: np.ndarray
    #: The HBT pre-warm's records: PAC, address and size per preamble object.
    pacs: np.ndarray
    addresses: np.ndarray
    sizes: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedPointers):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("preamble", "window", "pacs", "addresses", "sizes")
        )


class BasePass:
    """The mechanism-independent half of lowering one trace.

    It holds one record per trace event, as columns indexed by event:

    ======================== =================================================
    ``tags``, ``objs``       the trace's columns: the event's ``TAG_*`` code
                             and object id
    ``deps``                 dependency draw, capped at
                             :data:`MAX_DEP_DISTANCE` (compute and accesses)
    ``addresses``            raw address (``uint64``): the heap access
                             (object payload plus offset), the stack/globals
                             access, the malloc'd or the freed payload
    ``is_ptr``, ``chase``    the access moves a pointer; the load chases one
    ``mispredicted``         the branch mispredicts
    ``sizes``                requested size (malloc), allocated size (free)
    ``released``             the free really releases a chunk, whose payload
                             and allocated size are ``released_addresses``
                             and ``released_sizes``
    ======================== =================================================

    ``by_tag[tag]`` lists the records of each tag, in trace order.  The
    released chunk is the freed object itself under :data:`IMMEDIATE`, the
    recycled oldest chunk (if the pool overflows) under :data:`QUARANTINE`.

    ``heap`` lists the records that name an object (loads, stores, mallocs
    and frees) and ``preamble_slots`` the preamble position of each one's
    object (-1 for a window object).  The base also memoises the signed
    pointers the AOS splices derive from it, per (``pa.pac_bits``,
    ``pa.key``), so the AOS and PA+AOS lowerings of one base sign once.
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
        #: Requested size per preamble object, in trace order.
        self.preamble_sizes = trace.preamble_sizes.view(np.uint64)
        # The heap is dropped once resolved: the records hold all it decided.
        allocator = HeapAllocator(SparseMemory(), address_layout)
        #: Raw payload per preamble object, in trace order.
        self.preamble = as_u64(self._allocate_preamble(allocator))
        self._resolve(allocator)
        self.signed: Dict[tuple, SignedPointers] = {}

    def __len__(self) -> int:
        return len(self.tags)

    def _allocate_preamble(self, allocator: HeapAllocator) -> List[int]:
        """Allocate the preamble live set (untimed warm state) in bulk."""
        return allocator.malloc_many(self.trace.preamble_sizes)

    def _resolve(self, allocator: HeapAllocator) -> None:
        trace = self.trace
        self.tags = tags = trace.tags
        self.objs = objs = trace.objs
        flags = trace.flags
        n = len(tags)
        if n and int(tags.max()) >= TAG_COUNT:
            raise WorkloadError(f"unknown trace tag {int(tags.max())}")
        self.by_tag = by_tag = [np.flatnonzero(tags == tag) for tag in range(TAG_COUNT)]
        self.is_ptr = (flags & FLAG_PTR) != 0
        self.chase = (flags & FLAG_CHASE) != 0
        self.mispredicted = (flags & FLAG_MISPREDICTED) != 0

        # The dependency dice: one draw per compute or access event, in
        # trace order, from the trace's own seeded stream.
        profile = trace.profile
        draws = tags <= TAG_UST
        drawn = dependency_draws(
            trace.seed ^ 0x5EED,
            int(np.count_nonzero(draws)),
            profile.dep_prob,
            profile.ilp_distance,
        )
        self.deps = np.zeros(n, dtype=np.int64)
        self.deps[draws] = np.minimum(drawn, MAX_DEP_DISTANCE)

        self.addresses = addresses = np.zeros(n, dtype=np.uint64)
        self.sizes = trace.sizes.astype(np.uint64)
        self.released = np.zeros(n, dtype=bool)
        self.released_addresses = np.zeros(n, dtype=np.uint64)
        self.released_sizes = np.zeros(n, dtype=np.uint64)
        # uint64 arithmetic wraps a negative offset onto its base.
        offsets = trace.offsets.astype(np.uint64)

        # Stack and globals accesses: a fixed hot region plus an offset.
        layout = self.address_layout
        records = np.flatnonzero((tags == TAG_ULD) | (tags == TAG_UST))
        bases = np.where(
            flags[records] & FLAG_GLOBALS,
            layout.globals_base,
            layout.stack_top - 0x2000,
        )
        addresses[records] = as_u64(bases) + offsets[records]

        # Each access or free finds its object's payload at the latest
        # earlier malloc of the object, or else in the preamble.
        self.heap = heap = np.flatnonzero(np.isin(tags, _HEAP_TAGS))
        heap_tags = tags[heap]
        self.preamble_slots = slots = _slots(trace.preamble_ids, objs[heap])
        latest = latest_def(objs[heap], heap_tags == TAG_MALLOC)
        sources = np.where(latest >= 0, heap[np.maximum(latest, 0)], -1)
        undefined = (sources < 0) & (slots < 0) & (heap_tags != TAG_MALLOC)
        if undefined.any():
            obj = int(objs[heap[np.argmax(undefined)]])
            raise WorkloadError(f"trace uses object {obj} before allocating it")
        self._run_allocator(allocator, sources)
        payloads = gather(self.preamble, slots)
        allocated = sources >= 0
        payloads[allocated] = addresses[sources[allocated]]
        addresses[by_tag[TAG_FREE]] = payloads[heap_tags == TAG_FREE]
        access = (heap_tags == TAG_LD) | (heap_tags == TAG_ST)
        addresses[heap[access]] = payloads[access] + offsets[heap[access]]

    def _run_allocator(self, allocator: HeapAllocator, sources: np.ndarray) -> None:
        """Run the window's mallocs and frees, in order, against the heap.

        ``sources`` is, per ``heap`` record, the record of the latest
        earlier malloc of its object (-1: its payload is in the preamble).
        """
        heap_tags = self.tags[self.heap]
        window = np.flatnonzero((heap_tags == TAG_MALLOC) | (heap_tags == TAG_FREE))
        records = self.heap[window]
        payloads = self.addresses
        quarantine = self.policy == QUARANTINE
        pool: deque = deque()
        for record, tag, source, slot, size in zip(
            records.tolist(),
            heap_tags[window].tolist(),
            sources[window].tolist(),
            self.preamble_slots[window].tolist(),
            self.sizes[records].tolist(),
        ):
            if tag == TAG_MALLOC:
                payloads[record] = allocator.malloc(size)
                continue
            pointer = int(payloads[source] if source >= 0 else self.preamble[slot])
            freed = (pointer, allocator.allocated_size(pointer))
            released: Optional[tuple] = freed
            if quarantine:
                pool.append(freed)
                released = pool.popleft() if len(pool) > QUARANTINE_CHUNKS else None
            self.sizes[record] = freed[1]
            if released is not None:
                allocator.free(released[0])
                self.released[record] = True
                self.released_addresses[record] = released[0]
                self.released_sizes[record] = released[1]


def _runs(starts: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The positions of runs of ``counts`` µops from ``starts``, and the
    index of each µop within its run."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    within = np.arange(total) - np.repeat(ends - counts, counts)
    return np.repeat(starts, counts) + within, within


class _Template(NamedTuple):
    """One µop (or run of µops) appended to each of ``records``."""

    records: np.ndarray
    #: Where the µops start within each record.
    offsets: np.ndarray
    #: The run length per record; None for one µop per record.
    counts: Optional[np.ndarray]
    #: Bytes between the addresses of a run's µops.
    stride: int
    op: int
    address: Operand
    deps: Operand
    size: Operand
    meta: Optional[str]
    mispredicted: Optional[np.ndarray]


class Splice:
    """One mechanism's µops for a base pass's records, merged into a program.

    :meth:`emit` appends one µop to each record of ``records`` (an index
    array in trace order) after the µops earlier calls appended to the same
    record, or with ``counts`` a run of that many µops per record, their
    addresses ``stride`` bytes apart; :meth:`emit_load` appends a load the
    chase dependencies track.  An operand is one value for all the records
    or one array entry per record; ``deps`` is a single dependency
    distance (0 for none).  :meth:`program` lays the records out in trace
    order and scatters each template into the program's columns.
    """

    def __init__(self, records: int) -> None:
        #: µops appended to each record so far.
        self._counts = np.zeros(records, dtype=np.int64)
        self._templates: List[_Template] = []
        #: The tracked loads: (records, offsets, chase).
        self._loads: List[tuple] = []

    def emit(
        self,
        records: np.ndarray,
        op: int,
        address: Operand = 0,
        deps: Operand = 0,
        size: Operand = 8,
        meta: Optional[str] = None,
        mispredicted: Optional[np.ndarray] = None,
        counts: Optional[Operand] = None,
        stride: int = 0,
    ) -> np.ndarray:
        """Append the µops; returns where they start within each record."""
        if counts is not None:
            counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), records.shape)
        offsets = self._counts[records]
        self._counts[records] += 1 if counts is None else counts
        self._templates.append(
            _Template(
                records,
                offsets,
                counts,
                stride,
                op,
                address,
                deps,
                size,
                meta,
                mispredicted,
            )
        )
        return offsets

    def emit_load(
        self,
        records: np.ndarray,
        address: Operand,
        deps: Operand,
        chase: Optional[np.ndarray] = None,
    ) -> None:
        offsets = self.emit(records, _LOAD, address, deps)
        if chase is None:
            chase = np.zeros(len(records), dtype=bool)
        self._loads.append((records, offsets, chase))

    def program(self, name: str) -> Program:
        counts = self._counts
        first = np.cumsum(counts) - counts
        n = int(counts.sum())
        ops = np.zeros(n, dtype=np.uint8)
        addresses = np.zeros(n, dtype=np.uint64)
        sizes = np.full(n, 8, dtype=np.uint64)
        #: Up to two dependency distances per µop; 0 is none.
        deps = np.zeros((n, 2), dtype=np.int64)
        mispredicted = np.zeros(n, dtype=np.uint8)
        meta: Dict[int, object] = {}
        for t in self._templates:
            at = first[t.records] + t.offsets
            address = t.address
            if t.counts is not None:
                at, within = _runs(at, t.counts)
                firsts = np.broadcast_to(as_u64(address), t.records.shape)
                steps = within.astype(np.uint64) * np.uint64(t.stride)
                address = np.repeat(firsts, t.counts) + steps
            ops[at] = t.op
            if not isinstance(address, int) or address:
                addresses[at] = address
            if not isinstance(t.deps, int) or t.deps:
                deps[at, 0] = t.deps
            if not isinstance(t.size, int) or t.size != 8:
                sizes[at] = t.size
            if t.meta is not None:
                meta.update(dict.fromkeys(at.tolist(), t.meta))
            if t.mispredicted is not None:
                mispredicted[at] = t.mispredicted
        if self._loads:
            # A chasing load depends on the previous tracked load, if that
            # is within the completion ring's reach.
            at = np.concatenate([first[r] + o for r, o, _ in self._loads])
            chase = np.concatenate([c for _, _, c in self._loads])
            order = np.argsort(at, kind="stable")
            at, chase = at[order], chase[order]
            gaps = np.diff(at)
            linked = chase[1:] & (gaps <= MAX_DEP_DISTANCE)
            deps[at[1:][linked], 1] = gaps[linked]
        present = deps > 0
        dep_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(present, axis=1), out=dep_offsets[1:])
        return Program.from_columns(
            name,
            ops,
            addresses,
            sizes,
            dep_offsets,
            deps[present],
            mispredicted,
            meta,
        )
