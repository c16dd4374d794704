"""A glibc-flavoured heap allocator over :class:`SparseMemory`.

This models ptmalloc closely enough for the paper's security and temporal-
safety arguments to be exercised for real:

- chunks carry boundary tags (``prev_size`` / ``size`` with a
  ``PREV_INUSE`` flag) and payloads are 16-byte aligned — the property the
  AOS bounds-compression format relies on (§V-D);
- small freed chunks go to **fastbins** (and optionally a glibc-2.26-style
  **tcache**) without coalescing, so the House-of-Spirit attack (Fig. 1)
  works against an unprotected heap: ``free()`` trusts the in-memory size
  field, and a crafted fake chunk is handed back by a later ``malloc``;
- larger frees coalesce with free neighbours via boundary tags — the
  legitimate out-of-bounds header accesses that force AOS to ``xpacm``
  pointers before ``free()`` (§IV-C);
- freed-then-reused memory means a dangling pointer really does alias a new
  object, which is what AOS's bounds-clearing must catch.

The allocator also keeps the statistics the paper profiles in Tables II/III
(allocation/deallocation counts and the maximum number of simultaneously
active chunks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import AllocatorError
from .layout import AddressSpaceLayout, DEFAULT_LAYOUT
from .memory import SparseMemory

ALIGNMENT = 16
HEADER_SIZE = 16          # prev_size + size words
MIN_CHUNK = 32
PREV_INUSE = 0x1
FLAG_MASK = 0x7
#: Largest chunk size served from fastbins (glibc default ballpark).
FASTBIN_MAX = 128
#: Max chunks per tcache bin (glibc 2.26 default).
TCACHE_COUNT = 7
#: Largest chunk size cached by the tcache.
TCACHE_MAX = 1040


def _align_up(value: int, alignment: int = ALIGNMENT) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


def chunk_size_for_request(request: int) -> int:
    """Chunk size (header included) for a user request of ``request`` bytes."""
    if request < 0:
        raise AllocatorError("negative allocation size")
    return max(MIN_CHUNK, _align_up(request + HEADER_SIZE))


@dataclass
class Chunk:
    """Registry view of a live or free chunk (mirror of in-memory tags)."""

    address: int          # chunk base (header start)
    size: int             # full chunk size incl. header
    in_use: bool

    @property
    def payload(self) -> int:
        return self.address + HEADER_SIZE

    @property
    def end(self) -> int:
        return self.address + self.size

    @property
    def usable(self) -> int:
        return self.size - HEADER_SIZE


@dataclass
class AllocatorStats:
    """The Table II / Table III profile counters."""

    allocations: int = 0
    deallocations: int = 0
    active: int = 0
    max_active: int = 0
    bytes_allocated: int = 0
    bytes_freed: int = 0

    def on_alloc(self, size: int) -> None:
        self.allocations += 1
        self.active += 1
        self.bytes_allocated += size
        if self.active > self.max_active:
            self.max_active = self.active

    def on_free(self, size: int) -> None:
        self.deallocations += 1
        self.active -= 1
        self.bytes_freed += size


class HeapAllocator:
    """ptmalloc-style allocator with fastbins, tcache and coalescing."""

    def __init__(
        self,
        memory: SparseMemory,
        layout: AddressSpaceLayout = DEFAULT_LAYOUT,
        use_tcache: bool = True,
        tcache_key_check: bool = False,
    ) -> None:
        self.memory = memory
        self.layout = layout
        self.use_tcache = use_tcache
        #: glibc 2.29 added a per-chunk "tcache key" to detect the naive
        #: tcache double free (the 2.26 hole the paper cites, §VII-D).
        #: Off by default to model the glibc generation the paper targets.
        self.tcache_key_check = tcache_key_check
        self.stats = AllocatorStats()
        #: End of the used heap (the "top chunk" frontier).
        self._brk = layout.heap_base
        #: Registry of chunks the allocator itself created, by chunk address.
        self._chunks: Dict[int, Chunk] = {}
        #: Free lists: size -> LIFO list of chunk addresses (small/large bins).
        self._bins: Dict[int, List[int]] = {}
        #: Fastbins: size -> LIFO list of *payload* addresses.  Entries may be
        #: attacker-crafted fake chunks; only memory contents are trusted.
        self._fastbins: Dict[int, List[int]] = {}
        #: tcache: size -> LIFO list of payload addresses.
        self._tcache: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------ utils

    def _read_size_field(self, chunk_addr: int) -> int:
        return self.memory.read_u64(chunk_addr + 8)

    def _write_size_field(self, chunk_addr: int, size: int, prev_inuse: bool) -> None:
        self.memory.write_u64(chunk_addr + 8, size | (PREV_INUSE if prev_inuse else 0))

    def _write_prev_size(self, chunk_addr: int, prev_size: int) -> None:
        self.memory.write_u64(chunk_addr, prev_size)

    def chunk_at_payload(self, payload: int) -> Optional[Chunk]:
        """Registry lookup: the chunk whose payload starts at ``payload``."""
        return self._chunks.get(payload - HEADER_SIZE)

    def allocated_size(self, payload: int) -> int:
        """Usable size of a live allocation (for ``bndstr``'s size operand)."""
        chunk = self.chunk_at_payload(payload)
        if chunk is None or not chunk.in_use:
            raise AllocatorError(f"{payload:#x} is not a live allocation")
        return chunk.usable

    @property
    def heap_used(self) -> int:
        return self._brk - self.layout.heap_base

    # ----------------------------------------------------------------- malloc

    def malloc(self, request: int) -> int:
        """Allocate ``request`` bytes; returns the 16-byte-aligned payload."""
        if request == 0:
            request = 1  # glibc returns a unique minimal chunk
        size = chunk_size_for_request(request)

        payload = self._take_cached(size)
        if payload is None:
            payload = self._take_binned(size)
        if payload is None:
            payload = self._extend_top(size)

        chunk = self._chunks.get(payload - HEADER_SIZE)
        if chunk is not None:
            chunk.in_use = True
            self.stats.on_alloc(chunk.usable)
        else:
            # A fake chunk from a poisoned fastbin: the attack succeeded and
            # malloc is returning attacker-chosen memory (Fig. 1).  Account
            # for it with the requested size; there is no registry entry.
            self.stats.on_alloc(size - HEADER_SIZE)
        return payload

    def malloc_many(self, requests: Sequence[int]) -> List[int]:
        """Allocate every request in order: the same payloads, chunk
        registry, header bytes and stats as calling :meth:`malloc` on each.

        While no freed chunk sits in a tcache, fastbin or bin, every
        ``malloc`` extends the top chunk, so the chunks are laid out back
        to back from the frontier in one pass (how a lowering allocates
        its preamble live set on a fresh heap).  A heap with free chunks,
        a negative request or a request list the heap cannot hold takes
        the ``malloc`` loop, which also raises where the loop would.
        """
        sizes = [chunk_size_for_request(max(r, 1)) for r in requests]
        if (
            any(self._tcache.values())
            or any(self._fastbins.values())
            or any(self._bins.values())
            or min(requests, default=0) < 0
            or self._brk + sum(sizes) > self.layout.heap_end
        ):
            return [self.malloc(request) for request in requests]
        chunks = self._chunks
        write_u64 = self.memory.write_u64
        payloads: List[int] = []
        address = self._brk
        for size in sizes:
            chunks[address] = Chunk(address=address, size=size, in_use=True)
            write_u64(address + 8, size | PREV_INUSE)
            payloads.append(address + HEADER_SIZE)
            address += size
        self._brk = address
        stats = self.stats
        stats.allocations += len(sizes)
        stats.active += len(sizes)
        stats.bytes_allocated += sum(sizes) - HEADER_SIZE * len(sizes)
        stats.max_active = max(stats.max_active, stats.active)
        return payloads

    def _take_cached(self, size: int) -> Optional[int]:
        """Try the tcache then the fastbins (LIFO, no coalescing)."""
        if self.use_tcache and size <= TCACHE_MAX:
            bin_ = self._tcache.get(size)
            if bin_:
                return bin_.pop()
        if size <= FASTBIN_MAX:
            bin_ = self._fastbins.get(size)
            if bin_:
                return bin_.pop()
        return None

    def _take_binned(self, size: int) -> Optional[int]:
        """Best-fit search over the coalesced free bins, splitting remainders."""
        best_size = None
        for bin_size, entries in self._bins.items():
            if bin_size >= size and entries and (best_size is None or bin_size < best_size):
                best_size = bin_size
        if best_size is None:
            return None
        chunk_addr = self._bins[best_size].pop()
        chunk = self._chunks[chunk_addr]
        remainder = chunk.size - size
        if remainder >= MIN_CHUNK:
            self._split(chunk, size)
        self._write_size_field(chunk.address, chunk.size, prev_inuse=True)
        self._set_next_prev_inuse(chunk, True)
        return chunk.payload

    def _split(self, chunk: Chunk, size: int) -> None:
        """Split ``chunk`` into an allocated head and a free remainder."""
        remainder_addr = chunk.address + size
        remainder_size = chunk.size - size
        chunk.size = size
        remainder = Chunk(address=remainder_addr, size=remainder_size, in_use=False)
        self._chunks[remainder_addr] = remainder
        self._write_size_field(remainder_addr, remainder_size, prev_inuse=True)
        self._write_prev_size(remainder_addr + remainder_size, remainder_size)
        self._bins.setdefault(remainder_size, []).append(remainder_addr)

    def _extend_top(self, size: int) -> int:
        if self._brk + size > self.layout.heap_end:
            raise AllocatorError("simulated heap exhausted")
        chunk_addr = self._brk
        self._brk += size
        chunk = Chunk(address=chunk_addr, size=size, in_use=True)
        self._chunks[chunk_addr] = chunk
        self._write_size_field(chunk_addr, size, prev_inuse=True)
        return chunk.payload

    # ------------------------------------------------------------------- free

    def free(self, payload: int) -> None:
        """Free a payload pointer, glibc-style.

        Like glibc, the *in-memory* size field is what gets validated — a
        crafted fake chunk with a plausible size passes the checks and lands
        in a fastbin/tcache (the House-of-Spirit entry point).
        """
        if payload == 0:
            return  # free(NULL) is a no-op
        chunk_addr = payload - HEADER_SIZE
        if payload % ALIGNMENT != 0:
            raise AllocatorError("free(): invalid pointer (misaligned)")
        raw = self._read_size_field(chunk_addr)
        size = raw & ~FLAG_MASK
        if size < MIN_CHUNK or size % ALIGNMENT != 0:
            raise AllocatorError("free(): invalid size")
        if not self.layout.in_heap(chunk_addr) and not self._is_plausible_fake(chunk_addr):
            raise AllocatorError("free(): pointer outside heap")

        chunk = self._chunks.get(chunk_addr)

        if self.use_tcache and size <= TCACHE_MAX:
            bin_ = self._tcache.setdefault(size, [])
            # glibc 2.26 shipped tcache without a double-free check — the
            # "new heap exploit, double free" the paper cites (§VII-D).
            # glibc 2.29's key check (opt-in here) closes the naive case.
            if self.tcache_key_check and payload in bin_:
                raise AllocatorError("free(): double free detected in tcache 2")
            if len(bin_) < TCACHE_COUNT:
                bin_.append(payload)
                self._mark_freed(chunk)
                return

        if size <= FASTBIN_MAX:
            bin_ = self._fastbins.setdefault(size, [])
            if bin_ and bin_[-1] == payload:
                # The one fastbin check glibc does perform.
                raise AllocatorError("free(): double free or corruption (fasttop)")
            bin_.append(payload)
            self._mark_freed(chunk)
            return

        if chunk is None:
            raise AllocatorError("free(): invalid pointer (unknown chunk)")
        if not chunk.in_use:
            raise AllocatorError("free(): double free or corruption (!prev)")
        self._mark_freed(chunk)
        chunk = self._coalesce(chunk)
        chunk.in_use = False
        self._write_size_field(chunk.address, chunk.size, prev_inuse=True)
        self._write_prev_size(chunk.address + chunk.size, chunk.size)
        self._set_next_prev_inuse(chunk, False)
        self._bins.setdefault(chunk.size, []).append(chunk.address)

    def _is_plausible_fake(self, chunk_addr: int) -> bool:
        """Fake chunks on the stack/globals still reach the bins, as in glibc
        (glibc only verifies heap membership for mmapped chunks)."""
        region = self.layout.region_of(chunk_addr)
        return region in ("stack", "globals", "heap")

    def _mark_freed(self, chunk: Optional[Chunk]) -> None:
        if chunk is not None and chunk.in_use:
            chunk.in_use = False
            self.stats.on_free(chunk.usable)
        elif chunk is None:
            # Fake chunk: glibc would happily count this as a free.
            self.stats.deallocations += 1

    def _neighbour_after(self, chunk: Chunk) -> Optional[Chunk]:
        return self._chunks.get(chunk.end)

    def _neighbour_before(self, chunk: Chunk) -> Optional[Chunk]:
        # Boundary tag: the previous chunk's size sits in our prev_size field
        # whenever the previous chunk is free.
        prev_size = self.memory.read_u64(chunk.address)
        if prev_size < MIN_CHUNK or prev_size % ALIGNMENT != 0:
            return None
        return self._chunks.get(chunk.address - prev_size)

    def _remove_from_bins(self, chunk: Chunk) -> bool:
        bin_ = self._bins.get(chunk.size)
        if bin_ and chunk.address in bin_:
            bin_.remove(chunk.address)
            return True
        return False

    def _coalesce(self, chunk: Chunk) -> Chunk:
        """Merge with free boundary-tag neighbours (block coalescing, §IV-C)."""
        nxt = self._neighbour_after(chunk)
        if nxt is not None and not nxt.in_use and self._remove_from_bins(nxt):
            del self._chunks[nxt.address]
            chunk.size += nxt.size
        prev = self._neighbour_before(chunk)
        if prev is not None and not prev.in_use and self._remove_from_bins(prev):
            del self._chunks[chunk.address]
            prev.size += chunk.size
            chunk = prev
        return chunk

    def _set_next_prev_inuse(self, chunk: Chunk, in_use: bool) -> None:
        nxt = self._neighbour_after(chunk)
        if nxt is not None:
            raw = self._read_size_field(nxt.address)
            size = raw & ~FLAG_MASK
            self._write_size_field(nxt.address, size, prev_inuse=in_use)

    # ------------------------------------------------------------------ debug

    def live_chunks(self) -> List[Chunk]:
        return [c for c in self._chunks.values() if c.in_use]

    def publish_metrics(self, registry) -> None:
        """Harvest the Table II/III profile into a ``MetricsRegistry``."""
        registry.count("alloc.mallocs", self.stats.allocations)
        registry.count("alloc.frees", self.stats.deallocations)
        registry.count("alloc.bytes_allocated", self.stats.bytes_allocated)
        registry.count("alloc.bytes_freed", self.stats.bytes_freed)
        registry.set_gauge("alloc.active", self.stats.active)
        registry.set_gauge("alloc.max_active", self.stats.max_active)
        registry.set_gauge("alloc.heap_used", self.heap_used)

    # ------------------------------------------------------- fault injection

    def corrupt_chunk_header(self, payload: int, raw_size: int) -> int:
        """Fault-injection seam: clobber the in-memory size field of the
        chunk owning ``payload``; returns the old raw field.

        Only the boundary tag in simulated memory changes — the registry is
        deliberately left stale, reproducing exactly the divergence a heap
        overflow into a neighbour's header creates.  Whether ``free()``
        later catches it depends on glibc's own sanity checks, which is the
        point of the chunk-header fault campaign.
        """
        chunk_addr = payload - HEADER_SIZE
        old = self._read_size_field(chunk_addr)
        self.memory.write_u64(chunk_addr + 8, raw_size & ((1 << 64) - 1))
        return old
