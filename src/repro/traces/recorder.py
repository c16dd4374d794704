"""Trace recording: WorkloadTrace -> versioned trace file.

The recorder is the inverse of :mod:`repro.traces.importer`: it exports
any :class:`~repro.workloads.WorkloadTrace` — synthetic, scenario-
compiled, or previously ingested — through the versioned schema, with
the full workload profile embedded in the header so a re-import
reconstructs an *equal* trace (and therefore byte-identical simulation
results).  Records stream straight to disk via
:class:`~repro.traces.codec.TraceWriter`; nothing is buffered.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterator, Optional, Union

from ..workloads.generator import (
    EVENT_COLUMNS,
    FLAG_CHASE,
    FLAG_GLOBALS,
    FLAG_MISPREDICTED,
    FLAG_PTR,
    WorkloadTrace,
)
from .codec import TraceWriter
from .schema import INT_FIELDS, KIND_OF_TAG, TraceHeader, TraceRecord


def trace_records(trace: WorkloadTrace) -> Iterator[TraceRecord]:
    """The schema record stream for ``trace``: preamble rows then events."""
    for obj, size in zip(trace.preamble_ids.tolist(), trace.preamble_sizes.tolist()):
        yield TraceRecord(kind="obj", obj=obj, size=size)
    columns = (getattr(trace, name).tolist() for name in EVENT_COLUMNS)
    for tag, obj, offset, size, flags in zip(*columns):
        kind = KIND_OF_TAG[tag]
        space = int(bool(flags & FLAG_GLOBALS))
        ints = {"obj": obj, "offset": offset, "size": size, "space": space}
        yield TraceRecord(
            kind,
            **{name: ints[name] for name in INT_FIELDS[kind]},
            ptr=bool(flags & FLAG_PTR),
            chase=bool(flags & FLAG_CHASE),
            mispredict=bool(flags & FLAG_MISPREDICTED),
        )


def trace_header(
    trace: WorkloadTrace,
    generator: Optional[dict] = None,
    meta: Optional[dict] = None,
) -> TraceHeader:
    """The header describing ``trace``, profile embedded."""
    return TraceHeader(
        name=trace.name,
        scale=trace.scale,
        seed=trace.seed,
        mispredict_rate=trace.branch_mispredict_rate,
        profile=dataclasses.asdict(trace.profile),
        generator=generator,
        meta=meta,
    )


def record_trace(
    trace: WorkloadTrace,
    path: Union[str, Path],
    generator: Optional[dict] = None,
    meta: Optional[dict] = None,
) -> Path:
    """Export ``trace`` to ``path``."""
    path = Path(path)
    header = trace_header(trace, generator=generator, meta=meta)
    with TraceWriter(path, header) as writer:
        for record in trace_records(trace):
            writer.write(record)
    return path


def export_workload(
    workload: str,
    path: Union[str, Path],
    instructions: int = 40_000,
    seed: int = 7,
    scale: int = 8,
) -> WorkloadTrace:
    """Generate one synthetic workload window and export it.

    The header's ``generator`` block records the provenance
    (workload/instructions/seed/scale), which is what lets
    ``python -m repro trace-import --verify-roundtrip`` regenerate the
    synthetic source and byte-compare results against the ingested copy.
    """
    from ..workloads import generate_trace, get_profile

    trace = generate_trace(
        get_profile(workload), instructions=instructions, seed=seed, scale=scale
    )
    record_trace(
        trace,
        path,
        generator={
            "source": "synthetic",
            "workload": workload,
            "instructions": instructions,
            "seed": seed,
            "scale": scale,
        },
    )
    return trace
