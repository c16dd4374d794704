"""Trace profiler tests (the Valgrind --trace-malloc analogue)."""

import pytest

from repro.workloads import generate_trace, get_profile
from repro.workloads.generator import TAG_FREE, TAG_MALLOC
from repro.workloads.profiler import profile_report, profile_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace(get_profile("omnetpp"), instructions=30_000, seed=3, scale=64)


class TestProfileTrace:
    def test_counts_consistent(self, trace):
        measured = profile_trace(trace)
        window_mallocs = trace.tags.tolist().count(TAG_MALLOC)
        window_frees = trace.tags.tolist().count(TAG_FREE)
        assert measured.allocations == len(trace.preamble_ids) + window_mallocs
        assert measured.deallocations == window_frees

    def test_max_active_at_least_preamble(self, trace):
        measured = profile_trace(trace)
        assert measured.max_active >= len(trace.preamble_ids)

    def test_steady_state_balance(self, trace):
        """omnetpp frees what it allocates (Table II: 21.2M == 21.2M)."""
        measured = profile_trace(trace)
        window_allocs = measured.allocations - len(trace.preamble_ids)
        assert measured.deallocations >= window_allocs * 0.8

    def test_growth_phase_profile(self):
        grown = generate_trace(
            get_profile("omnetpp"), instructions=20_000, seed=3, scale=64,
            grow_live_by=10_000_000,
        )
        measured = profile_trace(grown)
        assert measured.deallocations == 0
        assert measured.max_active > len(grown.preamble_ids)

    def test_report_renders(self, trace):
        text = profile_report({"omnetpp": profile_trace(trace)})
        assert "omnetpp" in text
        assert "max active" in text


class TestAllocatorHardening:
    def test_tcache_key_check_blocks_double_free(self):
        from repro.errors import AllocatorError
        from repro.memory.allocator import HeapAllocator
        from repro.memory.memory import SparseMemory

        alloc = HeapAllocator(SparseMemory(), tcache_key_check=True)
        p = alloc.malloc(48)
        alloc.free(p)
        with pytest.raises(AllocatorError):
            alloc.free(p)  # glibc 2.29 "double free detected in tcache 2"

    def test_legacy_glibc_remains_vulnerable(self):
        from repro.memory.allocator import HeapAllocator
        from repro.memory.memory import SparseMemory

        alloc = HeapAllocator(SparseMemory(), tcache_key_check=False)
        p = alloc.malloc(48)
        alloc.free(p)
        alloc.free(p)  # silently accepted (glibc 2.26, §VII-D)
