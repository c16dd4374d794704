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

import numpy as np

from .generator import TAG_FREE, TAG_MALLOC, WorkloadTrace


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
    mallocs = trace.tags == TAG_MALLOC
    frees = trace.tags == TAG_FREE
    # The preamble objects were allocated pre-window; the live count only
    # rises at a malloc, so its peak is one of the running values.
    preamble = len(trace.preamble_ids)
    active = preamble + np.cumsum(mallocs, dtype=np.int64) - np.cumsum(frees)
    return MeasuredProfile(
        name=trace.name,
        max_active=int(active.max(initial=preamble)),
        allocations=preamble + int(np.count_nonzero(mallocs)),
        deallocations=int(np.count_nonzero(frees)),
        bytes_allocated=int(trace.preamble_sizes.sum() + trace.sizes[mallocs].sum()),
        events=len(trace),
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
