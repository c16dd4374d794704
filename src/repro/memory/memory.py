"""A sparse, byte-addressable 64-bit memory model.

Backed by 4 KB ``bytearray`` pages allocated on first touch, so a 46-bit
address space costs only what the simulation actually touches.  Words are
little-endian, matching AArch64.
"""

from __future__ import annotations

import struct
from typing import Dict

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

    # -- bookkeeping ----------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        """Number of pages actually touched (memory-overhead accounting)."""
        return len(self._pages)

    @property
    def resident_bytes(self) -> int:
        return len(self._pages) * PAGE_SIZE

    def _page(self, page_index: int) -> bytearray:
        page = self._pages.get(page_index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_index] = page
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

    def read_u32(self, address: int) -> int:
        return int.from_bytes(self.read_bytes(address, 4), "little")

    def write_u32(self, address: int, value: int) -> None:
        self.write_bytes(address, (value & ((1 << 32) - 1)).to_bytes(4, "little"))

    def fill(self, address: int, size: int, byte: int = 0) -> None:
        self.write_bytes(address, bytes([byte]) * size)
