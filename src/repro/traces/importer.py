"""Trace ingestion: record stream -> WorkloadTrace -> runnable Program.

The importer is the bridge from the wire format to the existing
pipeline: it builds the same typed columns of a
:class:`~repro.workloads.WorkloadTrace` the synthetic generator emits, so
the compiler passes, both simulation kernels, the supervision layer and
the chaos interpreter all run ingested traces unchanged.  A recorded
synthetic trace therefore re-imports *equal* to the original (column and
header equality), which is what makes the generator -> export -> import
-> simulate round-trip byte-identical.

Ingestion is strict: schema violations surface from the codec as
:class:`~repro.errors.TraceDecodeError`, and streams that decode but
describe an impossible program (duplicate ids, frees of unknown objects,
double frees, preamble rows after window events) raise
:class:`~repro.errors.TraceSemanticError` — never a silent partial
program.  Out-of-bounds offsets and accesses to freed objects are *not*
errors: they are how attack traces express OOB and use-after-free, and
the lowering executes them for real.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import List, Union

from ..errors import TraceDecodeError, TraceSemanticError
from ..workloads.generator import (
    FLAG_CHASE,
    FLAG_GLOBALS,
    FLAG_MISPREDICTED,
    FLAG_PTR,
    EventColumns,
    WorkloadTrace,
)
from ..workloads.profiles import WorkloadProfile
from .codec import TraceReader, open_trace
from .schema import TAG_OF_KIND, TraceHeader

_PROFILE_FIELDS = {f.name: f for f in dataclasses.fields(WorkloadProfile)}


def profile_from_payload(payload: dict) -> WorkloadProfile:
    """Reconstruct an embedded :class:`WorkloadProfile` from header JSON."""
    if not isinstance(payload, dict):
        raise TraceDecodeError("embedded profile must be a JSON object")
    unknown = sorted(set(payload) - set(_PROFILE_FIELDS))
    if unknown:
        raise TraceDecodeError(f"embedded profile: unknown fields {unknown}")
    missing = sorted(set(_PROFILE_FIELDS) - set(payload))
    if missing:
        raise TraceDecodeError(f"embedded profile: missing fields {missing}")
    kwargs = dict(payload)
    classes = kwargs.get("size_classes")
    if not isinstance(classes, (list, tuple)) or not classes:
        raise TraceDecodeError("embedded profile: size_classes must be a list")
    try:
        kwargs["size_classes"] = tuple(
            (int(size), float(weight)) for size, weight in classes
        )
    except (TypeError, ValueError) as exc:
        raise TraceDecodeError(
            f"embedded profile: malformed size_classes ({exc})"
        ) from exc
    try:
        return WorkloadProfile(**kwargs)
    except Exception as exc:  # WorkloadError from __post_init__, TypeError...
        raise TraceDecodeError(f"embedded profile: invalid ({exc})") from exc


def synthesize_profile(
    name: str, allocations: int, deallocations: int, max_active: int
) -> WorkloadProfile:
    """A neutral profile for externally captured traces (no embedded one).

    Only the fields the lowering actually reads (``dep_prob``,
    ``ilp_distance`` — left at their defaults) and the Table-II-style
    bookkeeping derived from the record stream matter; the generator-only
    knobs are never consulted for an ingested trace.
    """
    return WorkloadProfile(
        name=name,
        description="ingested trace (no embedded profile)",
        table_max_active=max_active,
        table_allocations=allocations,
        table_deallocations=deallocations,
        initial_live=max(max_active, 1),
    )


def trace_from_reader(reader: TraceReader) -> WorkloadTrace:
    """Build a :class:`WorkloadTrace` from one open reader (consumes it).

    Performs the semantic validation pass while streaming; the codec's
    iterator supplies the wire-level validation (end marker, counts,
    truncation, unknown kinds).
    """
    header = reader.header
    preamble_ids: List[int] = []
    preamble_sizes: List[int] = []
    events = EventColumns()
    declared: set = set()
    freed: set = set()
    window_started = False
    live = 0
    peak_live = 0
    allocations = 0
    deallocations = 0

    for record in reader:
        kind = record.kind
        if kind == "note":
            continue
        if kind in ("obj", "alloc"):
            if kind == "obj" and window_started:
                raise TraceSemanticError(
                    f"{reader.path}: preamble object {record.obj} declared "
                    "after window events began"
                )
            if record.obj in declared:
                raise TraceSemanticError(
                    f"{reader.path}: duplicate object id {record.obj}"
                )
            declared.add(record.obj)
            allocations += 1
            live += 1
            peak_live = max(peak_live, live)
            if kind == "obj":
                preamble_ids.append(record.obj)
                preamble_sizes.append(record.size)
                continue
        window_started = True
        if kind == "free":
            if record.obj not in declared:
                raise TraceSemanticError(
                    f"{reader.path}: free of unknown object {record.obj}"
                )
            if record.obj in freed:
                raise TraceSemanticError(
                    f"{reader.path}: double free of object {record.obj}"
                )
            freed.add(record.obj)
            deallocations += 1
            live -= 1
        elif kind in ("load", "store"):
            if record.obj not in declared:
                raise TraceSemanticError(
                    f"{reader.path}: {kind} of undeclared object {record.obj}"
                )
            # Accesses to freed objects and offsets beyond the object size
            # are deliberately admitted: UAF/OOB attack traces express the
            # violation; detection is the simulated mechanism's job.
        events.add(
            TAG_OF_KIND[kind],
            record.obj or 0,
            record.offset or 0,
            record.size or 0,
            FLAG_PTR * record.ptr
            | FLAG_CHASE * record.chase
            | FLAG_MISPREDICTED * record.mispredict
            | FLAG_GLOBALS * (record.space == 1),
        )

    if header.profile is not None:
        profile = profile_from_payload(header.profile)
        if profile.name != header.name:
            raise TraceSemanticError(
                f"{reader.path}: header name {header.name!r} does not match "
                f"embedded profile name {profile.name!r}"
            )
    else:
        profile = synthesize_profile(
            header.name, allocations, deallocations, peak_live
        )

    try:
        return WorkloadTrace(
            profile=profile,
            preamble_ids=preamble_ids,
            preamble_sizes=preamble_sizes,
            **events.columns,
            scale=header.scale,
            seed=header.seed,
            branch_mispredict_rate=header.mispredict_rate,
        )
    except OverflowError:
        raise TraceSemanticError(
            f"{reader.path}: an object id, offset or size does not fit in 64 bits"
        ) from None


def import_trace(path: Union[str, Path]) -> WorkloadTrace:
    """Ingest a trace file into a WorkloadTrace."""
    with open_trace(path) as reader:
        return trace_from_reader(reader)


def read_header(path: Union[str, Path]) -> TraceHeader:
    """Decode just the header of a trace file (cheap; no record pass)."""
    reader = open_trace(path)
    try:
        return reader.header
    finally:
        reader.close()


def compile_trace(
    path: Union[str, Path],
    mechanism: str = "aos",
    config=None,
):
    """Ingest ``path`` and lower it to a runnable program for ``mechanism``.

    Returns the :class:`~repro.compiler.passes.LoweredWorkload` (its
    ``.program`` is the :class:`~repro.isa.program.Program`); feed it to
    :class:`~repro.cpu.core.Simulator` with either kernel.  ``config``
    defaults to the Table IV configuration scale-matched to the *trace's*
    declared scale, mirroring how synthetic cells are configured.
    """
    from ..compiler import lower_trace
    from ..experiments.common import scaled_config

    trace = import_trace(path)
    if config is None:
        config = scaled_config(mechanism, trace.scale)
    return lower_trace(trace, mechanism, config=config)
