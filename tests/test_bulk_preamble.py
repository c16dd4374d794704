"""The bulk preamble allocation is the ``malloc`` loop, byte for byte.

``HeapAllocator.malloc_many`` lays the preamble live set out in one pass
instead of one ``malloc`` per object.  Its contract is exact equality with
the loop it replaces: the same payload addresses, chunk registry, header
bytes (``SparseMemory`` pages) and ``AllocatorStats`` — and, through the
lowerings that use it, the same lowered program and pre-warmed HBT for
every workload profile and every timed mechanism.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import lower_trace, passes
from repro.errors import AllocatorError
from repro.experiments.common import scaled_config
from repro.mechanisms import REGISTRY
from repro.memory.allocator import TCACHE_MAX, HeapAllocator
from repro.memory.layout import AddressSpaceLayout
from repro.memory.memory import SparseMemory
from repro.workloads import generate_trace, get_profile
from repro.workloads.profiles import ALL_PROFILES

SCALE = 64
INSTRUCTIONS = 1000


def malloc_loop(allocator, requests):
    """The reference: one ``malloc`` per request."""
    return [allocator.malloc(request) for request in requests]


def heap_state(allocator: HeapAllocator) -> dict:
    """Everything the allocator owns, in comparable form."""
    return {
        "brk": allocator.heap_used,
        "chunks": [
            (address, dataclasses.astuple(chunk))
            for address, chunk in allocator._chunks.items()
        ],
        "pages": {
            index: bytes(page) for index, page in allocator.memory._pages.items()
        },
        "stats": dataclasses.asdict(allocator.stats),
        "bins": (allocator._bins, allocator._fastbins, allocator._tcache),
    }


def lowering_state(trace, mechanism, config) -> dict:
    """Lower ``trace`` and capture the lowered program digest, the HBT
    prototype and the lowering's heap."""
    captured = []
    real_lower = passes._LoweringBase.lower

    def spy(self):
        captured.append(self)
        return real_lower(self)

    passes._LoweringBase.lower = spy
    try:
        lowered = lower_trace(trace, mechanism, config=config)
    finally:
        passes._LoweringBase.lower = real_lower
    program = hashlib.sha256(repr(lowered.program.instructions).encode()).hexdigest()
    state = {"program": program, "heap": heap_state(captured[0].allocator)}
    hbt = lowered.hbt
    if hbt is not None:
        state["hbt"] = (hbt._rows, hbt.ways, dataclasses.asdict(hbt.stats))
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
    """Random request lists, 0 and sizes beyond ``TCACHE_MAX`` included."""
    bulk, loop = HeapAllocator(SparseMemory()), HeapAllocator(SparseMemory())
    assert bulk.malloc_many(requests) == malloc_loop(loop, requests)
    assert heap_state(bulk) == heap_state(loop)


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
    heaps = [HeapAllocator(SparseMemory(), layout) for _ in range(2)]
    with pytest.raises(AllocatorError):
        heaps[0].malloc_many(requests)
    with pytest.raises(AllocatorError):
        malloc_loop(heaps[1], requests)
    assert heap_state(heaps[0]) == heap_state(heaps[1])
