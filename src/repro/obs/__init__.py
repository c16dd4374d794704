"""``repro.obs`` — always-on observability: metrics, tracing, profiling.

Three layers, all optional and all deterministic:

- :class:`MetricsRegistry` — counters/gauges/histograms per simulated
  cell, harvested from the MCU/MCQ, HBT, BWB, cache hierarchy, allocator
  and fault injector (see :mod:`repro.obs.registry`);
- :class:`EventTracer` — a bounded ring buffer of cycle-stamped events
  (``mcq.enqueue``, ``hbt.resize.begin/end``, ``bwb.miss``,
  ``aos.exception``, ``fault.inject``) with JSONL and in-memory sinks
  (see :mod:`repro.obs.tracer`);
- :func:`chrome_trace` — Chrome trace-event / Perfetto export of a run's
  timeline, plus :class:`PhaseProfiler` for the engine's own wall-clock
  split (see :mod:`repro.obs.chrome` and :mod:`repro.obs.profiler`).

Components take an ``obs`` handle (an :class:`Observability`, or ``None``
— the default, costing one attribute test per instrumentation point).
``RunSettings.metrics`` (see :mod:`repro.experiments.common`) asks for a
registry in every simulated cell: each worker process builds its own
live :class:`Observability` and returns the metric snapshot through the
cell's ``SimulationResult``.
"""

from __future__ import annotations

from typing import Optional

from .chrome import (
    chrome_events,
    chrome_trace,
    dump_chrome_trace,
    validate_chrome_trace,
    validate_chrome_trace_file,
)
from .profiler import PhaseProfiler
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    empty_snapshot,
    merge_snapshots,
)
from .tracer import EventTracer, TraceEvent, read_jsonl, span_pairs

#: Default ring capacity: enough for every event of a --quick window while
#: bounding a full-length run to a few MB of retained events.
DEFAULT_TRACE_CAPACITY = 65536


class Observability:
    """The live bundle one simulated run reports through."""

    __slots__ = ("registry", "tracer")

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[EventTracer] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer

    # Thin pass-throughs so instrumentation points read naturally.

    def emit(self, name: str, phase: str = "i", **args: object) -> None:
        """Record a cycle-stamped event (no-op without a tracer)."""
        if self.tracer is not None:
            self.tracer.emit(name, phase=phase, **args)

    def set_cycle(self, cycle: float) -> None:
        """Publish the simulated "now" used to stamp subsequent events."""
        if self.tracer is not None:
            self.tracer.cycle = cycle

    def snapshot(self) -> dict:
        return self.registry.snapshot()


__all__ = [
    "Counter",
    "DEFAULT_TRACE_CAPACITY",
    "EventTracer",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "PhaseProfiler",
    "TraceEvent",
    "chrome_events",
    "chrome_trace",
    "dump_chrome_trace",
    "empty_snapshot",
    "merge_snapshots",
    "read_jsonl",
    "span_pairs",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
]
