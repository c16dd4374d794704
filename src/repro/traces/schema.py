"""The versioned trace schema: record kinds, header, validation.

A *trace file* is a header followed by a stream of records and a
terminating end-of-trace marker, written as canonical line-delimited JSON
(:mod:`repro.traces.codec`).  The header carries an explicit
``schema_version`` so the reader rejects forward-incompatible files with
:class:`~repro.errors.TraceVersionError` instead of misreading them.

Record kinds (schema v1):

==========  ==========================================================
``obj``     A heap object live before the measured window starts
            (the generator's *preamble*); must precede all events.
``alloc``   Heap allocation of a fresh object id with a byte size.
``free``    Deallocation of a previously declared object.
``load``    Heap load at (object, offset); flags: pointer-typed value,
            address depends on the previous load (pointer chasing).
``store``   Heap store at (object, offset); flag: pointer-typed value.
``uload``   Non-heap (unsigned) load: space 0 = stack, 1 = globals.
``ustore``  Non-heap (unsigned) store, same spaces.
``call``    Function call (drives PA pacia/autia and return stacks).
``ret``     Function return.
``branch``  Conditional branch with its resolved *mispredicted* bit.
``ptr``     Pointer arithmetic (Watchdog WMETA / metadata targets).
``alu``     Integer ALU work.
``falu``    Floating-point ALU work.
``note``    Free-text annotation; carried in the file, ignored by the
            importer when building the runnable program.
==========  ==========================================================

Every kind but ``obj`` and ``note`` is one event of a
:class:`~repro.workloads.WorkloadTrace`: :data:`TAG_OF_KIND` maps it to
the event's tag code, and its fields go to the trace's columns (``obj``,
``offset``, ``size``; ``ptr``, ``chase``, ``mispredict`` and space 1 as
flag bits).  ``obj`` rows are the trace's preamble columns.

Offsets past the declared object size and accesses to freed objects are
*valid schema* — they are exactly how out-of-bounds and use-after-free
attack traces are expressed (the lowering executes them for real and the
mechanisms under test must catch them).  What the importer rejects as
:class:`~repro.errors.TraceSemanticError` is the impossible: duplicate
allocation ids, frees/accesses of ids never declared, double frees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import TraceDecodeError, TraceVersionError
from ..workloads.generator import (
    TAG_ALU,
    TAG_BR,
    TAG_CALL,
    TAG_FALU,
    TAG_FREE,
    TAG_LD,
    TAG_MALLOC,
    TAG_PTR_ARITH,
    TAG_RET,
    TAG_ST,
    TAG_ULD,
    TAG_UST,
)

#: The schema version this package reads and writes.
SCHEMA_VERSION = 1

#: The header's format discriminator (also a sanity check that a JSONL
#: file is a trace at all, not some other JSON-lines artifact).
FORMAT_NAME = "repro-trace"

#: Record kinds, in canonical order.  ``end`` (the stream terminator) is
#: codec machinery, deliberately not a user-visible record kind.
RECORD_KINDS: Tuple[str, ...] = (
    "obj", "alloc", "free", "load", "store", "uload", "ustore",
    "call", "ret", "branch", "ptr", "alu", "falu", "note",
)

#: Kind string of the end-of-trace line.
END_KIND = "end"


@dataclass(frozen=True)
class TraceRecord:
    """One schema record.  Only the fields its kind uses are meaningful."""

    kind: str
    obj: Optional[int] = None
    size: Optional[int] = None
    offset: Optional[int] = None
    ptr: bool = False
    chase: bool = False
    space: Optional[int] = None
    mispredict: bool = False
    text: Optional[str] = None


#: kind -> the int fields a record of that kind carries (checked by
#: :func:`validate_record`, filled from a trace's columns by the recorder).
INT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "obj": ("obj", "size"),
    "alloc": ("obj", "size"),
    "free": ("obj",),
    "load": ("obj", "offset"),
    "store": ("obj", "offset"),
    "uload": ("space", "offset"),
    "ustore": ("space", "offset"),
    "call": (),
    "ret": (),
    "branch": (),
    "ptr": (),
    "alu": (),
    "falu": (),
    "note": (),
}


def validate_record(record: TraceRecord) -> TraceRecord:
    """Schema-validate one record; returns it, or raises TraceDecodeError."""
    kind = record.kind
    if kind not in RECORD_KINDS:
        raise TraceDecodeError(f"unknown record kind {kind!r}")
    for name in INT_FIELDS[kind]:
        value = getattr(record, name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise TraceDecodeError(f"{kind}: field {name!r} must be an integer")
        if value < 0:
            raise TraceDecodeError(f"{kind}: field {name!r} must be >= 0")
    if kind in ("obj", "alloc") and record.size == 0:
        raise TraceDecodeError(f"{kind}: object size must be positive")
    if kind in ("uload", "ustore") and record.space not in (0, 1):
        raise TraceDecodeError(f"{kind}: space must be 0 (stack) or 1 (globals)")
    if kind == "note" and not isinstance(record.text, str):
        raise TraceDecodeError("note: field 'text' must be a string")
    return record


@dataclass(frozen=True)
class TraceHeader:
    """The trace file's self-description (its first line).

    ``profile`` optionally embeds the full synthetic
    :class:`~repro.workloads.WorkloadProfile` (as a JSON-able dict) so a
    recorded synthetic trace re-imports byte-identically; externally
    captured traces leave it ``None`` and the importer synthesises a
    neutral profile from the record stream.  ``generator`` carries
    optional provenance (e.g. the synthetic window length) used by
    round-trip verification; ``meta`` is free-form user metadata.  All
    three survive a write and a read unchanged.
    """

    name: str = "trace"
    scale: int = 1
    seed: int = 0
    mispredict_rate: float = 0.0
    profile: Optional[dict] = None
    generator: Optional[dict] = None
    meta: Optional[dict] = None

    def to_payload(self) -> dict:
        payload: dict = {
            "format": FORMAT_NAME,
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "scale": self.scale,
            "seed": self.seed,
            "mispredict_rate": self.mispredict_rate,
            "profile": self.profile,
        }
        if self.generator is not None:
            payload["generator"] = self.generator
        if self.meta is not None:
            payload["meta"] = self.meta
        return payload

    @classmethod
    def from_payload(cls, payload: object) -> "TraceHeader":
        if not isinstance(payload, dict):
            raise TraceDecodeError("trace header must be a JSON object")
        if payload.get("format") != FORMAT_NAME:
            raise TraceDecodeError(
                f"not a {FORMAT_NAME} file (format={payload.get('format')!r})"
            )
        version = payload.get("schema_version")
        if not isinstance(version, int) or isinstance(version, bool):
            raise TraceDecodeError("trace header: schema_version must be an integer")
        if version != SCHEMA_VERSION:
            raise TraceVersionError(
                f"trace schema version {version} is not supported "
                f"(this decoder speaks version {SCHEMA_VERSION}); "
                "forward-incompatible files are rejected, not guessed at"
            )
        known = {
            "format", "schema_version", "name", "scale", "seed",
            "mispredict_rate", "profile", "generator", "meta",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise TraceDecodeError(f"trace header: unknown fields {unknown}")
        name = payload.get("name", "trace")
        if not isinstance(name, str) or not name:
            raise TraceDecodeError("trace header: name must be a non-empty string")
        scale = payload.get("scale", 1)
        if not isinstance(scale, int) or isinstance(scale, bool) or scale < 1 \
                or scale & (scale - 1):
            raise TraceDecodeError("trace header: scale must be a power of two >= 1")
        seed = payload.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise TraceDecodeError("trace header: seed must be an integer")
        rate = payload.get("mispredict_rate", 0.0)
        if not isinstance(rate, (int, float)) or isinstance(rate, bool):
            raise TraceDecodeError("trace header: mispredict_rate must be a number")
        for field in ("profile", "generator", "meta"):
            value = payload.get(field)
            if value is not None and not isinstance(value, dict):
                raise TraceDecodeError(f"trace header: {field} must be an object")
        return cls(
            name=name,
            scale=scale,
            seed=seed,
            mispredict_rate=float(rate),
            profile=payload.get("profile"),
            generator=payload.get("generator"),
            meta=payload.get("meta"),
        )


# ------------------------------------------------------ kind <-> tag code

#: Each window record kind and the :class:`~repro.workloads.WorkloadTrace`
#: tag code of its event.  ``obj`` rows are the trace's preamble columns
#: and ``note`` rows annotations: neither is an event.
TAG_OF_KIND: Dict[str, int] = {
    "alloc": TAG_MALLOC, "free": TAG_FREE, "load": TAG_LD, "store": TAG_ST,
    "uload": TAG_ULD, "ustore": TAG_UST, "call": TAG_CALL, "ret": TAG_RET,
    "branch": TAG_BR, "ptr": TAG_PTR_ARITH, "alu": TAG_ALU, "falu": TAG_FALU,
}
KIND_OF_TAG: Dict[int, str] = {tag: kind for kind, tag in TAG_OF_KIND.items()}
