"""Pluggable trace frontend: versioned trace files <-> runnable programs.

The simulator's workloads no longer have to come from the 22 calibrated
synthetic profiles: this package defines a versioned trace schema
(:mod:`~repro.traces.schema`), a streaming JSONL codec
(:mod:`~repro.traces.codec`), an importer that compiles a record stream
into the typed event columns of the same
:class:`~repro.workloads.WorkloadTrace` -> ``Program`` pipeline the
generator feeds (:mod:`~repro.traces.importer`), and a recorder that
exports any trace's columns back out through the same schema
(:mod:`~repro.traces.recorder`).  One table, ``schema.TAG_OF_KIND``,
maps each record kind to its event's tag code.

The round-trip invariant — ``simulate(generate(p)) ==
simulate(import(record(generate(p))))`` byte-identically, for every
profile and both kernels — is the package's contract, enforced by
``tests/test_traces_roundtrip.py`` and the CI ``trace-ingest-smoke`` job.

CLI faces: ``python -m repro trace-export <workload>`` and
``python -m repro trace-import <file>``, plus ``--trace <file>`` on the
timing subcommands.  Ingested cells are cached by a streamed sha256
digest of the trace file (:func:`trace_digest`), not by profile
fingerprints.
"""

from .codec import (
    TraceReader,
    TraceStats,
    TraceWriter,
    open_trace,
    scan_trace,
    trace_digest,
)
from .importer import (
    compile_trace,
    import_trace,
    profile_from_payload,
    read_header,
    synthesize_profile,
    trace_from_reader,
)
from .recorder import (
    export_workload,
    record_trace,
    trace_header,
    trace_records,
)
from .schema import (
    RECORD_KINDS,
    SCHEMA_VERSION,
    TraceHeader,
    TraceRecord,
    validate_record,
)

__all__ = [
    "RECORD_KINDS",
    "SCHEMA_VERSION",
    "TraceHeader",
    "TraceReader",
    "TraceRecord",
    "TraceStats",
    "TraceWriter",
    "compile_trace",
    "export_workload",
    "import_trace",
    "open_trace",
    "profile_from_payload",
    "read_header",
    "record_trace",
    "scan_trace",
    "synthesize_profile",
    "trace_digest",
    "trace_from_reader",
    "trace_header",
    "trace_records",
    "validate_record",
]
