"""A Valgrind ``--trace-malloc`` analogue for generated traces (§VI).

The paper gathers its Table II/III memory-usage profiles with Valgrind.
This profiler measures the same quantities — allocation/deallocation
counts, the maximum number of simultaneously active chunks, and byte
volumes — from a :class:`~repro.workloads.generator.WorkloadTrace`, so
the synthetic windows can be validated against the published profiles
they were calibrated from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .generator import WorkloadTrace


@dataclass(frozen=True)
class MeasuredProfile:
    """Table II-style measurements of one trace (preamble + window)."""

    name: str
    max_active: int
    allocations: int
    deallocations: int
    bytes_allocated: int
    events: int


def profile_trace(trace: WorkloadTrace) -> MeasuredProfile:
    """Measure a trace the way Valgrind's --trace-malloc would."""
    active = len(trace.preamble)
    max_active = active
    allocations = active  # the preamble objects were allocated pre-window
    deallocations = 0
    bytes_allocated = sum(size for _, size in trace.preamble)

    for event in trace.events:
        tag = event[0]
        if tag == "m":
            allocations += 1
            active += 1
            bytes_allocated += event[2]
            if active > max_active:
                max_active = active
        elif tag == "f":
            deallocations += 1
            active -= 1

    return MeasuredProfile(
        name=trace.name,
        max_active=max_active,
        allocations=allocations,
        deallocations=deallocations,
        bytes_allocated=bytes_allocated,
        events=len(trace.events),
    )


def profile_report(profiles: Dict[str, MeasuredProfile]) -> str:
    """Render measured profiles as a Table II-style text table."""
    header = (
        f"{'name':12s}{'max active':>12s}{'allocs':>10s}{'deallocs':>10s}"
        f"{'MB':>8s}"
    )
    lines = [header, "-" * len(header)]
    for profile in profiles.values():
        lines.append(
            f"{profile.name:12s}{profile.max_active:>12d}"
            f"{profile.allocations:>10d}{profile.deallocations:>10d}"
            f"{profile.bytes_allocated / 1e6:>8.1f}"
        )
    return "\n".join(lines)
