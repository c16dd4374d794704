#!/usr/bin/env python
"""Regenerate the committed golden trace fixtures (tests/golden/).

Run from the repo root after any *intentional* schema, codec or
generator change::

    PYTHONPATH=src python tools/make_golden_traces.py

Two trace files under ``tests/golden/traces``:

- ``handwritten.v1.jsonl`` — a hand-assembled stream exercising
  every record kind (including ``note``) with *no* embedded profile, so
  the importer's profile synthesis path is pinned too.  The stream also
  contains a use-after-free load and an out-of-bounds offset on purpose:
  both are valid schema (attack traces) and must keep importing cleanly.
- ``bzip2.v1.jsonl`` — a small synthetic export (bzip2, 1200
  instructions, seed 7, scale 8) with the full profile embedded, the
  round-trip anchor.

``tests/test_traces_golden.py`` regenerates these into a temp directory
and byte-compares against the committed copies, so schema drift that
would invalidate users' existing trace files fails loudly in CI.

And ``tests/golden/trace_digests.json``: one sha256 per generated trace
(:func:`trace_digest`) for every profile at 2k instructions, seed 7,
scales 8 and 64, and for every profile's ``growth`` variant.
``tests/test_generator_native.py`` holds both generator paths, the C
loop and the Python reference, to it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.traces import TraceHeader, TraceRecord, TraceWriter  # noqa: E402
from repro.traces.recorder import export_workload  # noqa: E402
from repro.workloads.generator import (  # noqa: E402
    FLAG_CHASE,
    FLAG_GLOBALS,
    FLAG_MISPREDICTED,
    FLAG_PTR,
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

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden" / "traces"
TRACE_DIGESTS = GOLDEN_DIR.parent / "trace_digests.json"

#: Every v1 record kind appears at least once; object 7 is freed and then
#: loaded (use-after-free), and object 3's store offset 4096 is far past
#: its 96-byte size (out-of-bounds) — both deliberately valid.
HANDWRITTEN_HEADER = TraceHeader(
    name="handwritten", scale=2, seed=11, mispredict_rate=0.03,
    meta={"purpose": "golden fixture covering every record kind"},
)
HANDWRITTEN_RECORDS = (
    TraceRecord(kind="obj", obj=0, size=64),
    TraceRecord(kind="obj", obj=1, size=128),
    TraceRecord(kind="note", text="window starts here"),
    TraceRecord(kind="alloc", obj=3, size=96),
    TraceRecord(kind="load", obj=0, offset=8),
    TraceRecord(kind="load", obj=1, offset=16, ptr=True, chase=True),
    TraceRecord(kind="store", obj=3, offset=24, ptr=True),
    TraceRecord(kind="store", obj=3, offset=4096),
    TraceRecord(kind="uload", space=0, offset=32),
    TraceRecord(kind="ustore", space=1, offset=40),
    TraceRecord(kind="call"),
    TraceRecord(kind="branch", mispredict=True),
    TraceRecord(kind="branch"),
    TraceRecord(kind="alu"),
    TraceRecord(kind="falu"),
    TraceRecord(kind="ptr"),
    TraceRecord(kind="ret"),
    TraceRecord(kind="alloc", obj=7, size=32),
    TraceRecord(kind="free", obj=7),
    TraceRecord(kind="load", obj=7, offset=0),
    TraceRecord(kind="free", obj=3),
    TraceRecord(kind="note", text="window ends here"),
)

SYNTHETIC = {"workload": "bzip2", "instructions": 1200, "seed": 7, "scale": 8}


def write_fixtures(directory) -> list:
    """Write all golden fixtures into ``directory``; returns their paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    handwritten = directory / "handwritten.v1.jsonl"
    with TraceWriter(handwritten, HANDWRITTEN_HEADER) as writer:
        for record in HANDWRITTEN_RECORDS:
            writer.write(record)
    synthetic = directory / f"{SYNTHETIC['workload']}.v1.jsonl"
    export_workload(SYNTHETIC["workload"], synthetic, **{
        k: v for k, v in SYNTHETIC.items() if k != "workload"
    })
    return [handwritten, synthetic]


#: The generator settings the digests pin.
DIGEST_INSTRUCTIONS, DIGEST_SEED, DIGEST_SCALES = 2000, 7, (8, 64)


#: Each tag code's name in the canonical JSON, and the fields after it.
_CANONICAL_EVENTS = {
    TAG_ALU: ("alu", ()),
    TAG_FALU: ("falu", ()),
    TAG_LD: ("ld", ("obj", "offset", "ptr", "chase")),
    TAG_ST: ("st", ("obj", "offset", "ptr")),
    TAG_ULD: ("uld", ("space", "offset")),
    TAG_UST: ("ust", ("space", "offset")),
    TAG_BR: ("br", ("mispredicted",)),
    TAG_MALLOC: ("m", ("obj", "size")),
    TAG_FREE: ("f", ("obj",)),
    TAG_CALL: ("call", ()),
    TAG_RET: ("ret", ()),
    TAG_PTR_ARITH: ("pa", ()),
}


def canonical_events(trace) -> list:
    """The trace's events as the lists the digests were first taken over:
    a name, then the event's fields, flags as JSON booleans."""
    events = []
    columns = (trace.tags, trace.objs, trace.offsets, trace.sizes, trace.flags)
    for tag, obj, offset, size, flags in zip(*(c.tolist() for c in columns)):
        name, fields = _CANONICAL_EVENTS[tag]
        values = {
            "obj": obj,
            "offset": offset,
            "size": size,
            "space": int(bool(flags & FLAG_GLOBALS)),
            "ptr": bool(flags & FLAG_PTR),
            "chase": bool(flags & FLAG_CHASE),
            "mispredicted": bool(flags & FLAG_MISPREDICTED),
        }
        events.append([name, *(values[field] for field in fields)])
    return events


def canonical_trace(trace) -> str:
    """The canonical JSON of a trace's generated content: its preamble
    (as (id, size) pairs), events (:func:`canonical_events`), the size of
    every object (as pairs: the preamble's, then each malloc's, in order)
    and branch misprediction rate.  JSON keeps ``bool`` and ``int``
    apart."""
    preamble = [
        list(pair)
        for pair in zip(trace.preamble_ids.tolist(), trace.preamble_sizes.tolist())
    ]
    mallocs = trace.tags == TAG_MALLOC
    object_sizes = dict(map(tuple, preamble))
    object_sizes.update(
        zip(trace.objs[mallocs].tolist(), trace.sizes[mallocs].tolist())
    )
    content = [
        preamble,
        canonical_events(trace),
        list(object_sizes.items()),
        trace.branch_mispredict_rate,
    ]
    return json.dumps(content, separators=(",", ":"))


def trace_digest(trace) -> str:
    """sha256 of :func:`canonical_trace`."""
    return hashlib.sha256(canonical_trace(trace).encode()).hexdigest()


def digest_cases():
    """``(name, thunk)`` for every pinned trace, in file order."""
    from repro.experiments import RunSettings
    from repro.experiments.parallel import GROWTH, generate_cell_trace
    from repro.workloads import generate_trace
    from repro.workloads.profiles import ALL_PROFILES

    settings = RunSettings(instructions=DIGEST_INSTRUCTIONS, seed=DIGEST_SEED)
    for name, profile in sorted(ALL_PROFILES.items()):
        for scale in DIGEST_SCALES:
            yield f"{name}/scale{scale}", (
                lambda profile=profile, scale=scale: generate_trace(
                    profile, DIGEST_INSTRUCTIONS, seed=DIGEST_SEED, scale=scale
                )
            )
        yield f"{name}@{GROWTH}", (
            lambda name=name: generate_cell_trace(settings, name, GROWTH)
        )


def write_trace_digests(path=TRACE_DIGESTS) -> Path:
    """Write the digest of every :func:`digest_cases` trace to ``path``."""
    path = Path(path)
    digests = {name: trace_digest(thunk()) for name, thunk in digest_cases()}
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return path


def main() -> int:
    for path in [*write_fixtures(GOLDEN_DIR), write_trace_digests()]:
        print(f"wrote {path} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
