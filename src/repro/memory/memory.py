"""A sparse, byte-addressable 64-bit memory model.

Backed by 4 KB ``bytearray`` pages allocated on first touch, so a 46-bit
address space costs only what the simulation actually touches.  Words are
little-endian, matching AArch64.

A bulk word write (:meth:`SparseMemory.write_u64_many`, how the allocator
lays out a preamble's chunk headers) does not create the pages it names:
it writes into pages that exist and keeps its words for the others, which
are applied when something first touches the page.  Reads, later writes
and :attr:`SparseMemory.resident_pages` see those pending words as
written.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Set

import numpy as np

from ..errors import MemoryError_

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1
_U64 = struct.Struct("<Q")
_U64_MASK = (1 << 64) - 1


class SparseMemory:
    """Byte-addressable memory with on-demand 4 KB pages."""

    def __init__(self, va_bits: int = 46) -> None:
        self.va_bits = va_bits
        self._limit = 1 << va_bits
        self._pages: Dict[int, bytearray] = {}
        #: Every :meth:`write_u64_many` batch, in write order: the pages it
        #: names (ascending), where each page's words start and stop, and
        #: the word slots and values.
        self._batches: List[tuple] = []
        #: Pages a batch named before they existed.  :meth:`_page` applies
        #: every batch that names one when it creates it.
        self._pending: Set[int] = set()

    # -- bookkeeping ----------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        """Number of pages actually touched (memory-overhead accounting)."""
        return len(self._pages) + len(self._pending)

    def page_indices(self) -> List[int]:
        """The index of every touched page, ascending."""
        return sorted([*self._pages, *self._pending])

    def _page(self, page_index: int) -> bytearray:
        page = self._pages.get(page_index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_index] = page
            if page_index in self._pending:
                self._pending.discard(page_index)
                for batch in self._batches:
                    _apply(batch, page_index, page)
        return page

    def _check_range(self, address: int, size: int) -> None:
        if address < 0 or size < 0 or address + size > self._limit:
            raise MemoryError_(
                f"access [{address:#x}, {address + size:#x}) outside "
                f"{self.va_bits}-bit address space"
            )

    # -- raw byte access -------------------------------------------------------

    def read_bytes(self, address: int, size: int) -> bytes:
        self._check_range(address, size)
        out = bytearray()
        while size > 0:
            page_index, offset = address >> PAGE_SHIFT, address & PAGE_MASK
            chunk = min(size, PAGE_SIZE - offset)
            page = self._pages.get(page_index)
            if page is None and page_index in self._pending:
                page = self._page(page_index)
            if page is None:
                out.extend(b"\x00" * chunk)
            else:
                out.extend(page[offset : offset + chunk])
            address += chunk
            size -= chunk
        return bytes(out)

    def write_bytes(self, address: int, data: bytes) -> None:
        self._check_range(address, len(data))
        pos = 0
        size = len(data)
        while pos < size:
            page_index = (address + pos) >> PAGE_SHIFT
            offset = (address + pos) & PAGE_MASK
            chunk = min(size - pos, PAGE_SIZE - offset)
            self._page(page_index)[offset : offset + chunk] = data[pos : pos + chunk]
            pos += chunk

    # -- word access -----------------------------------------------------------

    def read_u64(self, address: int) -> int:
        return int.from_bytes(self.read_bytes(address, 8), "little")

    def write_u64(self, address: int, value: int) -> None:
        value &= _U64_MASK
        offset = address & PAGE_MASK
        if offset > PAGE_SIZE - 8:  # the word straddles two pages
            self.write_bytes(address, value.to_bytes(8, "little"))
            return
        self._check_range(address, 8)
        _U64.pack_into(self._page(address >> PAGE_SHIFT), offset, value)

    def write_u64_many(self, addresses: np.ndarray, values: np.ndarray) -> None:
        """``write_u64(a, v)`` for every pair, in order.

        The ``addresses`` must be ascending and 8-byte aligned
        (``ValueError`` otherwise) and inside the address space
        (``MemoryError_``).  A page that exists is written at once; the
        words for any other page wait until the page is first touched.
        """
        if len(addresses) != len(values):
            raise ValueError("write_u64_many needs one value per address")
        if len(addresses) == 0:
            return
        if np.any(addresses[1:] < addresses[:-1]):
            raise ValueError("write_u64_many addresses must be ascending")
        if np.any(addresses & 7):
            raise ValueError("write_u64_many addresses must be 8-byte aligned")
        self._check_range(int(addresses[0]), 8)
        self._check_range(int(addresses[-1]), 8)
        pages = addresses >> PAGE_SHIFT
        starts = np.flatnonzero(np.diff(pages, prepend=-1))
        stops = np.append(starts[1:], len(addresses))
        slots = (addresses & PAGE_MASK) >> 3
        batch = (pages[starts], starts, stops, slots, values.astype("<u8"))
        self._batches.append(batch)
        named = set(batch[0].tolist())
        existing = self._pages.keys() & named
        for page_index in existing:
            _apply(batch, page_index, self._pages[page_index])
        self._pending |= named - existing

    def read_u32(self, address: int) -> int:
        return int.from_bytes(self.read_bytes(address, 4), "little")

    def write_u32(self, address: int, value: int) -> None:
        self.write_bytes(address, (value & ((1 << 32) - 1)).to_bytes(4, "little"))

    def fill(self, address: int, size: int, byte: int = 0) -> None:
        self.write_bytes(address, bytes([byte]) * size)


def _apply(batch: tuple, page_index: int, page: bytearray) -> None:
    """Write ``batch``'s words for page ``page_index``, if it names it."""
    named, starts, stops, slots, words = batch
    at = int(np.searchsorted(named, page_index))
    if at < len(named) and named[at] == page_index:
        start, stop = starts[at], stops[at]
        np.frombuffer(page, dtype="<u8")[slots[start:stop]] = words[start:stop]
