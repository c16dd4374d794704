"""Memory substrate: address-space layout, sparse memory, heap allocator,
and the :class:`HeapRuntime` base every mechanism's runtime builds on.

The allocator is a deliberately glibc-flavoured ptmalloc model — chunk
headers, 16-byte-aligned payloads, fastbins, a tcache, free-list bins and
boundary-tag coalescing — because the paper's temporal-safety story (§IV-C)
and its House-of-Spirit case study (Fig. 1) depend on real allocator
behaviour: ``free()`` legitimately touching neighbouring chunk metadata,
fastbins accepting crafted chunks, and freed memory being reused by later
allocations with the same size class.
"""

from .layout import AddressSpaceLayout, DEFAULT_LAYOUT
from .memory import SparseMemory
from .allocator import HeapAllocator, Chunk
from .shadow import ShadowMemory
from .runtime import BaselineRuntime, HeapRuntime, ReturnStack

__all__ = [
    "AddressSpaceLayout",
    "DEFAULT_LAYOUT",
    "SparseMemory",
    "HeapAllocator",
    "Chunk",
    "ShadowMemory",
    "HeapRuntime",
    "ReturnStack",
    "BaselineRuntime",
]
