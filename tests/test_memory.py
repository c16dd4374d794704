"""Sparse memory model tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.memory.memory import PAGE_SIZE, SparseMemory


class TestBasics:
    def test_reads_zero_by_default(self):
        mem = SparseMemory()
        assert mem.read_u64(0x1000) == 0
        assert mem.read_bytes(0x2000, 16) == b"\x00" * 16

    def test_write_read_roundtrip(self):
        mem = SparseMemory()
        mem.write_u64(0x1000, 0xDEADBEEFCAFEBABE)
        assert mem.read_u64(0x1000) == 0xDEADBEEFCAFEBABE

    def test_little_endian(self):
        mem = SparseMemory()
        mem.write_u64(0x1000, 0x0102030405060708)
        assert mem.read_bytes(0x1000, 1) == b"\x08"

    def test_u32(self):
        mem = SparseMemory()
        mem.write_u32(0x1000, 0x12345678)
        assert mem.read_u32(0x1000) == 0x12345678

    def test_write_masks_to_64_bits(self):
        mem = SparseMemory()
        mem.write_u64(0x1000, (1 << 70) | 5)
        assert mem.read_u64(0x1000) == 5

    def test_fill(self):
        mem = SparseMemory()
        mem.fill(0x1000, 32, 0xAB)
        assert mem.read_bytes(0x1000, 32) == b"\xab" * 32


class TestPageBoundaries:
    def test_cross_page_write(self):
        mem = SparseMemory()
        addr = PAGE_SIZE - 4
        mem.write_u64(addr, 0x1122334455667788)
        assert mem.read_u64(addr) == 0x1122334455667788

    def test_cross_many_pages(self):
        mem = SparseMemory()
        data = bytes(range(256)) * 64  # 16 KB
        mem.write_bytes(PAGE_SIZE - 100, data)
        assert mem.read_bytes(PAGE_SIZE - 100, len(data)) == data

    def test_resident_pages_grow_on_demand(self):
        mem = SparseMemory()
        assert mem.resident_pages == 0
        mem.write_u64(0x1000, 1)
        assert mem.resident_pages == 1
        mem.write_u64(100 * PAGE_SIZE, 1)
        assert mem.resident_pages == 2

    def test_reads_do_not_allocate(self):
        mem = SparseMemory()
        mem.read_bytes(0x100000, 4096)
        assert mem.resident_pages == 0


class TestBoundsChecks:
    def test_rejects_negative_address(self):
        with pytest.raises(MemoryError_):
            SparseMemory().read_bytes(-1, 8)

    def test_rejects_out_of_range(self):
        mem = SparseMemory(va_bits=46)
        with pytest.raises(MemoryError_):
            mem.write_u64(1 << 46, 1)

    def test_accepts_top_of_range(self):
        mem = SparseMemory(va_bits=46)
        mem.write_u64((1 << 46) - 8, 7)
        assert mem.read_u64((1 << 46) - 8) == 7


class TestWriteMany:
    """``write_u64_many``: pending pages read as written, bad input refused."""

    def test_pending_words_read_as_written(self):
        mem = SparseMemory()
        mem.write_u64(0x2000, 5)
        addresses = np.array([0x2008, 0x3000, 0x3ff8, 0x9000], dtype=np.int64)
        mem.write_u64_many(addresses, np.array([1, 2, 3, 4], dtype=np.int64))
        assert mem.resident_pages == 3
        assert mem.page_indices() == [2, 3, 9]
        assert [mem.read_u64(int(a)) for a in addresses] == [1, 2, 3, 4]
        assert mem.read_u64(0x2000) == 5

    def test_later_writes_land_over_pending_words(self):
        mem = SparseMemory()
        mem.write_u64_many(np.array([0x5000, 0x5008]), np.array([1, 2]))
        mem.write_u64_many(np.array([0x5008]), np.array([3]))
        mem.write_u64(0x5ffc, 0xFFFFFFFFFFFFFFFF)  # straddles into page 6
        assert mem.read_bytes(0x5000, 16) == (1).to_bytes(8, "little") + (
            3
        ).to_bytes(8, "little")
        assert mem.read_u64(0x5ffc) == 0xFFFFFFFFFFFFFFFF
        assert mem.resident_pages == 2

    def test_pending_pages_match_eager_writes(self):
        lazy, eager = SparseMemory(), SparseMemory()
        addresses = np.arange(0x1ff0, 0x4010, 24, dtype=np.int64) & ~7
        values = np.arange(len(addresses), dtype=np.int64) * 0x0101
        lazy.write_u64_many(addresses, values)
        for address, value in zip(addresses.tolist(), values.tolist()):
            eager.write_u64(address, value)
        span = (0x1000, 0x4000)
        assert lazy.read_bytes(*span) == eager.read_bytes(*span)
        assert lazy.resident_pages == eager.resident_pages

    def test_rejects_unsorted_addresses(self):
        """An unsorted array cannot slip a page past ``va_bits`` between
        an in-range first and last address."""
        mem = SparseMemory(va_bits=20)
        addresses = np.array([0x1000, 1 << 24, 0x2000], dtype=np.int64)
        with pytest.raises(ValueError, match="ascending"):
            mem.write_u64_many(addresses, np.ones(3, dtype=np.int64))
        assert mem.resident_pages == 0

    def test_rejects_misaligned_addresses(self):
        mem = SparseMemory()
        with pytest.raises(ValueError, match="aligned"):
            mem.write_u64_many(np.array([0x1000, 0x1004]), np.array([1, 2]))
        assert mem.resident_pages == 0

    def test_rejects_out_of_range(self):
        mem = SparseMemory(va_bits=20)
        with pytest.raises(MemoryError_):
            mem.write_u64_many(np.array([0x1000, 1 << 20]), np.array([1, 2]))
        with pytest.raises(MemoryError_):
            mem.write_u64_many(np.array([-8, 0x1000]), np.array([1, 2]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="one value per address"):
            SparseMemory().write_u64_many(np.array([0x1000]), np.array([1, 2]))


@given(
    st.integers(min_value=0, max_value=(1 << 30)),
    st.binary(min_size=1, max_size=512),
)
def test_roundtrip_property(address, data):
    mem = SparseMemory()
    mem.write_bytes(address, data)
    assert mem.read_bytes(address, len(data)) == data


@given(st.integers(min_value=0, max_value=(1 << 30)))
def test_adjacent_writes_do_not_clobber(address):
    mem = SparseMemory()
    mem.write_u64(address, 0xAAAAAAAAAAAAAAAA)
    mem.write_u64(address + 8, 0xBBBBBBBBBBBBBBBB)
    assert mem.read_u64(address) == 0xAAAAAAAAAAAAAAAA


@given(
    st.integers(min_value=0, max_value=1 << 18),
    st.one_of(
        st.integers(min_value=PAGE_SIZE - 12, max_value=PAGE_SIZE - 1),
        st.integers(min_value=0, max_value=PAGE_SIZE - 1),
    ),
    st.integers(min_value=-(1 << 65), max_value=1 << 70),
)
def test_write_u64_matches_write_bytes(page, offset, value):
    """In a page or across two, a word write leaves the same pages as
    writing its masked little-endian bytes."""
    words, raw = SparseMemory(), SparseMemory()
    address = page * PAGE_SIZE + offset
    words.write_u64(address, value)
    raw.write_bytes(address, (value & ((1 << 64) - 1)).to_bytes(8, "little"))
    assert words._pages == raw._pages
