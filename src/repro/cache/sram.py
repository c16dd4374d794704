"""A set-associative, write-back, write-allocate cache with LRU replacement."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import CacheConfig


@dataclass(slots=True)
class AccessResult:
    """Outcome of a single cache access."""

    hit: bool
    #: Line address of a dirty line evicted by this access (None if none).
    writeback: Optional[int] = None


@dataclass(slots=True)
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """One cache level.

    Each set is an ordered dict from tag to dirty-bit, maintained in LRU
    order (first item = least recently used).  The cache is a timing/state
    model only — data contents live in :class:`repro.memory.SparseMemory`.
    """

    __slots__ = ("config", "line_bits", "num_sets", "assoc", "stats", "_sets")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.line_bits = config.line_bytes.bit_length() - 1
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self.stats = CacheStats()
        # sets[i] maps tag -> dirty, insertion-ordered oldest-first (LRU).
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(self.num_sets)]

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def hit_latency(self) -> int:
        return self.config.hit_latency

    def _index_tag(self, address: int) -> Tuple[int, int]:
        line = address >> self.line_bits
        return line % self.num_sets, line // self.num_sets

    def line_address(self, address: int) -> int:
        return (address >> self.line_bits) << self.line_bits

    def access(self, address: int, is_write: bool) -> AccessResult:
        """Access one address; allocate on miss; return hit/eviction info."""
        self.stats.accesses += 1
        index, tag = self._index_tag(address)
        set_ = self._sets[index]
        if tag in set_:
            self.stats.hits += 1
            dirty = set_.pop(tag) or is_write
            set_[tag] = dirty  # move to MRU position
            return AccessResult(hit=True)

        self.stats.misses += 1
        writeback = None
        if len(set_) >= self.assoc:
            victim_tag, victim_dirty = next(iter(set_.items()))
            del set_[victim_tag]
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.writebacks += 1
                victim_line = (victim_tag * self.num_sets + index) << self.line_bits
                writeback = victim_line
        set_[tag] = is_write
        return AccessResult(hit=False, writeback=writeback)

    def probe(self, address: int) -> bool:
        """Check residency without perturbing LRU state or stats."""
        index, tag = self._index_tag(address)
        return tag in self._sets[index]

    def invalidate_all(self) -> None:
        for set_ in self._sets:
            set_.clear()
