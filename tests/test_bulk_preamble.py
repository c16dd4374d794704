"""The bulk preamble allocation is the ``malloc`` loop, byte for byte.

``HeapAllocator.malloc_many`` lays the preamble live set out in one pass
instead of one ``malloc`` per object, as a lazy run whose chunks and
header pages are built when first touched.  Its contract is exact
equality with the loop it replaces: the same payload addresses, chunk
registry, header bytes (``SparseMemory`` pages) and ``AllocatorStats``,
before and after any later sequence of heap operations — and, through the
lowerings that use it, the same lowered program and pre-warmed HBT for
every workload profile and every timed mechanism.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import lower_trace, passes
from repro.errors import AllocatorError, MemoryError_
from repro.experiments.common import scaled_config
from repro.mechanisms import REGISTRY
from repro.memory.allocator import TCACHE_MAX, HeapAllocator
from repro.memory.layout import AddressSpaceLayout
from repro.memory.memory import PAGE_SIZE, SparseMemory
from repro.workloads import generate_trace, get_profile
from repro.workloads.profiles import ALL_PROFILES

SCALE = 64
INSTRUCTIONS = 1000


def malloc_loop(allocator, requests):
    """The reference: one ``malloc`` per request (an array's as ints)."""
    return [allocator.malloc(int(request)) for request in requests]


def heap_state(allocator: HeapAllocator) -> dict:
    """Everything the allocator owns, in comparable form: every chunk by
    address and every touched page's bytes, pending header words applied
    (reading them builds the lazy run's chunks and pages)."""
    memory = allocator.memory
    return {
        "brk": allocator.heap_used,
        "chunks": [dataclasses.astuple(chunk) for chunk in allocator.chunks()],
        "resident": memory.resident_pages,
        "pages": {
            index: memory.read_bytes(index * PAGE_SIZE, PAGE_SIZE)
            for index in memory.page_indices()
        },
        "stats": dataclasses.asdict(allocator.stats),
        "bins": (allocator._bins, allocator._fastbins, allocator._tcache),
    }


def program_digest(program) -> str:
    """A sha256 over every column of ``program``, its meta and name."""
    digest = hashlib.sha256()
    for field in dataclasses.fields(program):
        value = getattr(program, field.name)
        if isinstance(value, np.ndarray):
            digest.update(value.tobytes())
        else:
            digest.update(repr(value).encode())
    return digest.hexdigest()


def lowering_state(trace, mechanism, config) -> dict:
    """Lower ``trace`` and capture the lowered program digest, the HBT
    prototype and the lowering's heap."""
    captured = []
    real_resolve = passes.BasePass._resolve

    def spy(self, allocator):
        captured.append(allocator)
        return real_resolve(self, allocator)

    passes.BasePass._resolve = spy
    try:
        lowered = lower_trace(trace, mechanism, config=config)
    finally:
        passes.BasePass._resolve = real_resolve
    state = {"program": program_digest(lowered.program), "heap": heap_state(captured[0])}
    hbt = lowered.hbt
    if hbt is not None:
        state["hbt"] = (hbt.records(), hbt.ways, dataclasses.asdict(hbt.stats))
    return state


@pytest.mark.parametrize("workload", sorted(ALL_PROFILES))
def test_lowering_matches_malloc_loop(workload, monkeypatch):
    """Every profile x every timed mechanism: the bulk preamble gives the
    same program, HBT rows and heap as the per-object loop."""
    trace = generate_trace(
        get_profile(workload), instructions=INSTRUCTIONS, seed=7, scale=SCALE
    )
    for mechanism in REGISTRY.timed_names():
        config = scaled_config(mechanism, SCALE)
        bulk = lowering_state(trace, mechanism, config)
        with monkeypatch.context() as patch:
            patch.setattr(HeapAllocator, "malloc_many", malloc_loop)
            loop = lowering_state(trace, mechanism, config)
        assert bulk == loop, f"{workload}/{mechanism}"


sizes = st.lists(
    st.one_of(
        st.just(0),
        st.integers(min_value=1, max_value=256),
        st.integers(min_value=TCACHE_MAX - 32, max_value=3 * 4096),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(requests=sizes)
def test_fresh_heap_property(requests):
    """Random request lists, 0 and sizes beyond ``TCACHE_MAX`` included,
    as a list and as the ``int64`` column a base pass hands over."""
    bulk, column, loop = (HeapAllocator(SparseMemory()) for _ in range(3))
    want = malloc_loop(loop, requests)
    assert bulk.malloc_many(requests) == want
    payloads = column.malloc_many(np.array(requests, dtype=np.int64))
    assert payloads == want
    assert all(type(payload) is int for payload in payloads)
    assert heap_state(bulk) == heap_state(loop) == heap_state(column)


@settings(max_examples=60, deadline=None)
@given(live=sizes, freed=st.sets(st.integers(min_value=0, max_value=59)), more=sizes)
def test_heap_with_free_chunks_behaves_like_loop(live, freed, more):
    """On a heap whose bins hold freed chunks the bulk path is the loop:
    the same reuse of cached and binned chunks, the same state."""
    heaps = []
    for _ in range(2):
        allocator = HeapAllocator(SparseMemory())
        payloads = malloc_loop(allocator, live)
        for index in sorted(freed):
            if index < len(payloads):
                allocator.free(payloads[index])
        heaps.append(allocator)
    bulk, loop = heaps
    assert bulk.malloc_many(more) == malloc_loop(loop, more)
    assert heap_state(bulk) == heap_state(loop)


operations = st.lists(
    st.one_of(
        st.tuples(st.just("malloc"), st.integers(min_value=0, max_value=3 * 4096)),
        st.tuples(st.just("free"), st.integers(min_value=0, max_value=15)),
        st.tuples(st.just("size"), st.integers(min_value=0, max_value=15)),
        st.tuples(st.just("read"), st.integers(min_value=0, max_value=1 << 20)),
        st.tuples(
            st.just("write"),
            st.integers(min_value=0, max_value=1 << 20),
            st.integers(min_value=0, max_value=(1 << 64) - 1),
        ),
        st.tuples(st.just("live")),
    ),
    max_size=60,
)


def apply(allocator: HeapAllocator, payloads: list, operation: tuple):
    """Run one heap operation; its answer, or the error it raised.

    ``free``/``size`` pick a payload ever returned (a double free
    included); ``read``/``write`` pick any byte of the heap, so a word may
    straddle two pages or clobber a chunk header."""
    kind, *args = operation
    heap_base = allocator.layout.heap_base
    try:
        if kind == "malloc":
            payloads.append(allocator.malloc(args[0]))
            return payloads[-1]
        if kind == "live":
            return [dataclasses.astuple(c) for c in allocator.live_chunks()]
        if kind in ("read", "write"):
            address = heap_base + args[0] % (allocator.heap_used + 64)
            if kind == "read":
                return allocator.memory.read_u64(address)
            return allocator.memory.write_u64(address, args[1])
        payload = payloads[args[0] % len(payloads)] if payloads else 0
        if kind == "size":
            return allocator.allocated_size(payload)
        return allocator.free(payload)
    except (AllocatorError, MemoryError_) as exc:
        return repr(exc)


def run_both(preamble, operations) -> list:
    """Run ``operations`` on a bulk-preamble heap and a ``malloc``-loop
    heap; they must agree on every answer and on the final state."""
    bulk, loop = HeapAllocator(SparseMemory()), HeapAllocator(SparseMemory())
    heaps = [(bulk, bulk.malloc_many(preamble)), (loop, malloc_loop(loop, preamble))]
    assert heaps[0][1] == heaps[1][1]
    answers = [[apply(h, payloads, op) for op in operations] for h, payloads in heaps]
    assert answers[0] == answers[1]
    assert heap_state(bulk) == heap_state(loop)
    return answers[0]


@settings(max_examples=150, deadline=None)
@given(preamble=sizes, operations=operations)
def test_lazy_run_answers_like_the_loop(preamble, operations):
    """Random ``malloc``, ``free``, size lookups, reads and writes after a
    bulk preamble answer as after the loop."""
    run_both(preamble, operations)


def test_coalesced_run_chunk_stays_gone():
    """A run chunk merged into its free neighbour is not rebuilt: a later
    lookup of its payload fails as it does on the loop heap."""
    answers = run_both([2000] * 3, [("free", 1), ("free", 0), ("size", 1)])
    assert "not a live allocation" in answers[-1]


def test_split_over_untouched_run_chunk():
    """A clobbered ``prev_size`` lets coalescing swallow an untouched run
    chunk; the remainder a later split leaves at its address replaces it
    for good, as on the loop heap."""
    chunk = 2016  # the chunk of a 2,000-byte request
    answers = run_both(
        [2000, 2000, 2000, 6000, 2000],
        [
            ("free", 0),
            ("write", 3 * chunk, 3 * chunk),  # chunk 3's prev_size -> chunk 0
            ("free", 3),  # chunk 0 grows over chunks 1 and 2
            ("malloc", 2 * chunk - 16),  # splits: the remainder sits at chunk 2
            ("free", 0),  # coalesces the remainder away
            ("size", 2),
        ],
    )
    assert "not a live allocation" in answers[-1]


def test_lazy_run_builds_only_what_is_touched():
    """Freeing one preamble chunk builds it and its next neighbour only,
    and touches no header page but theirs."""
    allocator = HeapAllocator(SparseMemory())
    payloads = allocator.malloc_many([2000] * 100)  # 2,016-byte chunks
    assert allocator._chunks == {}
    assert allocator.memory.resident_pages == 49  # headers over 197 KB
    allocator.free(payloads[10])  # too big for tcache: coalescing path
    assert sorted(allocator._chunks) == [payloads[10] - 16, payloads[11] - 16]
    assert len(allocator.memory._pages) == 2
    assert len(allocator.live_chunks()) == 99


def test_non_fresh_heap_reuses_freed_chunk():
    """A concrete non-fresh case: the freed chunk comes back first."""
    allocator = HeapAllocator(SparseMemory())
    first = allocator.malloc(64)
    allocator.malloc(64)
    allocator.free(first)
    assert allocator.malloc_many([64, 64])[0] == first


@pytest.mark.parametrize("requests", [[64, -1, 64], [1024] * 8])
def test_refusals_raise_where_the_loop_does(requests):
    """A negative request, or more than the heap holds: the same error
    after the same partial allocation."""
    layout = AddressSpaceLayout(heap_size=0x1000)
    heaps = [HeapAllocator(SparseMemory(), layout) for _ in range(3)]
    with pytest.raises(AllocatorError):
        heaps[0].malloc_many(requests)
    with pytest.raises(AllocatorError):
        heaps[1].malloc_many(np.array(requests, dtype=np.int64))
    with pytest.raises(AllocatorError):
        malloc_loop(heaps[2], requests)
    assert heap_state(heaps[0]) == heap_state(heaps[2]) == heap_state(heaps[1])
