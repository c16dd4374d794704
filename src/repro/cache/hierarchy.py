"""The full memory hierarchy: L1-I / L1-D / optional L1-B / L2 / DRAM.

Accesses return a latency in core cycles and update per-link traffic
counters.  Three access classes exist:

- ``access_data``    — ordinary loads/stores through the L1-D;
- ``access_bounds``  — HBT lines; routed through the L1-B when the §V-F1
  optimisation is on, otherwise they pollute the L1-D (the Fig. 15
  ablation);
- ``access_metadata`` — baseline-mechanism metadata (Watchdog shadow
  records, MPX bounds-directory/table loads) through the L1-D.

Traffic is counted in bytes per link (L1<->L2 and L2<->DRAM), matching the
paper's Fig. 18 metric.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import MemoryHierarchyConfig
from .sram import Cache


@dataclass(slots=True)
class TrafficCounters:
    """Bytes moved per link (the Fig. 18 metric)."""

    l1_l2_bytes: int = 0
    l2_dram_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.l1_l2_bytes + self.l2_dram_bytes

    def reset(self) -> None:
        self.l1_l2_bytes = 0
        self.l2_dram_bytes = 0


class MemoryHierarchy:
    """Two-level cache hierarchy with an optional bounds cache and DRAM."""

    __slots__ = (
        "config",
        "l1i",
        "l1d",
        "l1b",
        "l2",
        "traffic",
        "line_bytes",
        "dram_accesses",
    )

    def __init__(self, config: MemoryHierarchyConfig, use_l1b: bool = True) -> None:
        self.config = config
        self.l1i = Cache(config.l1i)
        self.l1d = Cache(config.l1d)
        self.l1b = Cache(config.l1b) if use_l1b else None
        self.l2 = Cache(config.l2)
        self.traffic = TrafficCounters()
        self.line_bytes = config.l1d.line_bytes
        self.dram_accesses = 0

    # ------------------------------------------------------------------ core

    def _access_l2(self, address: int, is_write: bool) -> int:
        """Access the L2 on behalf of an L1 miss; returns added latency."""
        self.traffic.l1_l2_bytes += self.line_bytes  # refill L1 <- L2
        result = self.l2.access(address, is_write)
        latency = self.l2.hit_latency
        if not result.hit:
            self.traffic.l2_dram_bytes += self.line_bytes  # refill L2 <- DRAM
            self.dram_accesses += 1
            latency += self.config.dram_latency
            if result.writeback is not None:
                self.traffic.l2_dram_bytes += self.line_bytes
        return latency

    def _access_through(self, l1: Cache, address: int, is_write: bool) -> int:
        """L1 access backed by the L2; returns total latency in cycles."""
        result = l1.access(address, is_write)
        latency = l1.hit_latency
        if result.hit:
            return latency
        latency += self._access_l2(address, is_write=False)
        if result.writeback is not None:
            # Dirty line pushed down to the L2.
            self.traffic.l1_l2_bytes += self.line_bytes
            wb = self.l2.access(result.writeback, is_write=True)
            if not wb.hit:
                self.traffic.l2_dram_bytes += self.line_bytes
                self.dram_accesses += 1
                if wb.writeback is not None:
                    self.traffic.l2_dram_bytes += self.line_bytes
        return latency

    # ------------------------------------------------------------------- API

    def access_data(self, address: int, is_write: bool) -> int:
        """An ordinary load/store; returns latency in cycles."""
        return self._access_through(self.l1d, address, is_write)

    def access_bounds(self, address: int, is_write: bool) -> int:
        """An HBT line access (64 B, 8 compressed bounds, §V-A)."""
        l1 = self.l1b if self.l1b is not None else self.l1d
        return self._access_through(l1, address, is_write)

    def access_metadata(self, address: int, is_write: bool) -> int:
        """Baseline-mechanism metadata (shadow records, MPX tables)."""
        return self._access_through(self.l1d, address, is_write)

    # ------------------------------------------------------------ inspection

    def summary(self) -> dict:
        """Hit rates and traffic for reports."""
        caches = {"l1d": self.l1d, "l2": self.l2}
        if self.l1b is not None:
            caches["l1b"] = self.l1b
        return {
            **{
                f"{name}_hit_rate": cache.stats.hit_rate
                for name, cache in caches.items()
            },
            "l1_l2_bytes": self.traffic.l1_l2_bytes,
            "l2_dram_bytes": self.traffic.l2_dram_bytes,
            "dram_accesses": self.dram_accesses,
        }

    def publish_metrics(self, registry) -> None:
        """Harvest cache/traffic stats into a ``MetricsRegistry``.

        Called once after the pipeline drains, so instrumentation adds
        nothing to the per-access hot path.
        """
        caches = {"l1d": self.l1d, "l2": self.l2}
        if self.l1b is not None:
            caches["l1b"] = self.l1b
        for name, cache in caches.items():
            registry.count(f"cache.{name}.accesses", cache.stats.accesses)
            registry.count(f"cache.{name}.hits", cache.stats.hits)
            registry.count(f"cache.{name}.misses", cache.stats.misses)
            registry.count(f"cache.{name}.evictions", cache.stats.evictions)
            registry.set_gauge(f"cache.{name}.hit_rate", cache.stats.hit_rate)
        registry.count("traffic.l1_l2_bytes", self.traffic.l1_l2_bytes)
        registry.count("traffic.l2_dram_bytes", self.traffic.l2_dram_bytes)
        registry.count("dram.accesses", self.dram_accesses)
