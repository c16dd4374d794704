"""The trace wire format: streaming canonical JSONL.

A trace file is one :class:`~repro.traces.schema.TraceHeader` line, then
N :class:`~repro.traces.schema.TraceRecord` lines (``{"k": "<kind>",
...}``), then an end line ``{"k": "end", "records": N}``.  The canonical
encoding (sorted keys, no spaces) makes re-encoding a decoded stream
byte-identical; the golden fixture tests pin this.  The end line's count
turns any truncation, even one at a clean line boundary, into a loud
:class:`~repro.errors.TraceDecodeError`.

The reader decodes *incrementally*: it holds one line at a time, never
the whole file, so multi-GB traces ingest in bounded memory.  Every
malformed input, including a file that is not JSONL at all, maps to
:class:`~repro.errors.TraceFormatError` (or a subclass) naming the file;
the decoder never guesses, skips, or silently stops early.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Union

from ..errors import TraceDecodeError, TraceFormatError
from .schema import END_KIND, TraceHeader, TraceRecord, validate_record

#: Upper bound on a single line, so a pathological line cannot ask the
#: decoder to buffer gigabytes.
MAX_LINE_BYTES = 16 * 1024 * 1024

#: JSONL field sets per kind: (required, optional-with-default).
_JSON_FIELDS: Dict[str, tuple] = {
    "obj": (("obj", "size"), ()),
    "alloc": (("obj", "size"), ()),
    "free": (("obj",), ()),
    "load": (("obj", "offset"), ("ptr", "chase")),
    "store": (("obj", "offset"), ("ptr",)),
    "uload": (("space", "offset"), ()),
    "ustore": (("space", "offset"), ()),
    "call": ((), ()),
    "ret": ((), ()),
    "branch": ((), ("mispredict",)),
    "ptr": ((), ()),
    "alu": ((), ()),
    "falu": ((), ()),
    "note": (("text",), ()),
}


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------- encoding


def encode_record_json(record: TraceRecord) -> str:
    """The canonical JSONL line for one (validated) record."""
    validate_record(record)
    payload: dict = {"k": record.kind}
    required, optional = _JSON_FIELDS[record.kind]
    for name in required:
        payload[name] = getattr(record, name)
    for name in optional:
        payload[name] = getattr(record, name)
    return _canonical(payload)


def decode_record_json(payload: object) -> TraceRecord:
    """Strictly decode one JSONL record object."""
    if not isinstance(payload, dict):
        raise TraceDecodeError("trace record line must be a JSON object")
    kind = payload.get("k")
    if kind not in _JSON_FIELDS:
        raise TraceDecodeError(f"unknown record kind {kind!r}")
    required, optional = _JSON_FIELDS[kind]
    allowed = {"k", *required, *optional}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise TraceDecodeError(f"{kind}: unknown record fields {unknown}")
    kwargs: dict = {"kind": kind}
    for name in required:
        if name not in payload:
            raise TraceDecodeError(f"{kind}: missing required field {name!r}")
        kwargs[name] = payload[name]
    for name in optional:
        value = payload.get(name, False)
        if not isinstance(value, bool):
            raise TraceDecodeError(f"{kind}: field {name!r} must be a boolean")
        kwargs[name] = value
    try:
        record = TraceRecord(**kwargs)
    except TypeError as exc:  # e.g. text=non-str slipped past
        raise TraceDecodeError(f"{kind}: malformed record ({exc})") from exc
    return validate_record(record)


# ----------------------------------------------------------------- writing


class TraceWriter:
    """Streaming trace writer (context manager).

    Records are encoded and flushed to disk as they arrive (the writer
    never buffers the stream), so a recorder can export traces far larger
    than memory.  ``close()`` appends the end line with the record count;
    a writer abandoned without ``close()`` leaves a file that the reader
    *rejects* (missing end record), never one it half-reads.
    """

    def __init__(self, path: Union[str, Path], header: TraceHeader) -> None:
        self.path = Path(path)
        self.header = header
        self.records = 0
        self._closed = False
        self._fh = open(self.path, "w", encoding="utf-8", newline="\n")
        self._fh.write(_canonical(header.to_payload()) + "\n")

    def write(self, record: TraceRecord) -> None:
        if self._closed:
            raise TraceFormatError("trace writer is closed")
        self._fh.write(encode_record_json(record) + "\n")
        self.records += 1

    def close(self) -> None:
        if self._closed:
            return
        self._fh.write(_canonical({"k": END_KIND, "records": self.records}) + "\n")
        self._fh.close()
        self._closed = True

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # On error, leave the file end-less (the reader rejects it) but closed.
        if exc_type is not None:
            self._fh.close()
            self._closed = True
        else:
            self.close()


# ----------------------------------------------------------------- reading


class TraceReader:
    """Streaming trace reader (context manager + iterator of records).

    The header is decoded eagerly at construction; records are yielded
    one at a time.  Exhausting the iterator *is* the validation: missing
    end records, count mismatches, truncated lines and trailing garbage
    all raise :class:`~repro.errors.TraceFormatError` from the iterator,
    so any loop that runs to completion has seen a well-formed file.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "rb")
        try:
            self.header = self._read_header()
        except Exception:
            self._fh.close()
            raise

    def _read_header(self) -> TraceHeader:
        line = self._fh.readline(MAX_LINE_BYTES)
        if not line:
            raise TraceDecodeError(f"{self.path}: empty trace file")
        if not line.startswith(b"{"):
            raise TraceDecodeError(
                f"{self.path}: not a trace file (no JSONL header line)"
            )
        payload = self._parse_line(line, what="header")
        try:
            return TraceHeader.from_payload(payload)
        except TraceFormatError as exc:
            raise type(exc)(f"{self.path}: {exc}") from None

    def _parse_line(self, line: bytes, what: str = "record") -> dict:
        if not line.endswith(b"\n"):
            # A final line without its newline is the signature of a file
            # cut mid-write; even if the JSON happens to parse, reject it.
            raise TraceDecodeError(f"{self.path}: truncated {what} line")
        try:
            # Decoded line by line, so a bad byte is charged to its own line.
            payload = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceDecodeError(
                f"{self.path}: undecodable {what} line ({exc})"
            ) from exc
        if not isinstance(payload, dict):
            raise TraceDecodeError(f"{self.path}: {what} line must be a JSON object")
        return payload

    def __iter__(self) -> Iterator[TraceRecord]:
        count = 0
        while True:
            line = self._fh.readline(MAX_LINE_BYTES)
            if not line:
                raise TraceDecodeError(
                    f"{self.path}: truncated trace (missing end record)"
                )
            payload = self._parse_line(line)
            if payload.get("k") == END_KIND:
                declared = payload.get("records")
                if declared != count:
                    raise TraceDecodeError(
                        f"{self.path}: end record declares {declared} records "
                        f"but {count} were read"
                    )
                if self._fh.read(1):
                    raise TraceDecodeError(
                        f"{self.path}: trailing garbage after end record"
                    )
                return
            try:
                record = decode_record_json(payload)
            except TraceDecodeError as exc:
                # Line 1 is the header, so record ``count`` is on line count + 2.
                raise TraceDecodeError(f"{self.path}:{count + 2}: {exc}") from None
            yield record
            count += 1

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def open_trace(path: Union[str, Path]) -> TraceReader:
    """Open a trace file for streaming decode."""
    return TraceReader(path)


# ------------------------------------------------------- digest and stats


def trace_digest(path: Union[str, Path], chunk_bytes: int = 1 << 20) -> str:
    """Streamed sha256 of the trace file's raw bytes.

    This is the content identity the artifact cache keys ingested cells
    on: any byte of the file changing changes the digest, and the digest
    is computed in ``chunk_bytes`` pieces so hashing a multi-GB trace
    needs constant memory.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(chunk_bytes)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class TraceStats:
    """What one streaming pass over a trace file learned."""

    path: str
    header: TraceHeader
    records: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    size_bytes: int = 0
    digest: str = ""

    def format_summary(self) -> str:
        parts = [
            f"{self.path}: jsonl trace, schema v1, "
            f"{self.records} records, {self.size_bytes} bytes",
            f"  name={self.header.name} scale={self.header.scale} "
            f"seed={self.header.seed} "
            f"profile={'embedded' if self.header.profile else 'none'}",
            "  records: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items())),
            f"  sha256: {self.digest}",
        ]
        return "\n".join(parts)


def scan_trace(path: Union[str, Path]) -> TraceStats:
    """Validate + summarise a trace file in two streaming passes
    (decode, then digest); memory use is bounded by one record/chunk."""
    path = Path(path)
    with open_trace(path) as reader:
        stats = TraceStats(path=str(path), header=reader.header)
        for record in reader:
            stats.records += 1
            stats.counts[record.kind] = stats.counts.get(record.kind, 0) + 1
    stats.size_bytes = path.stat().st_size
    stats.digest = trace_digest(path)
    return stats
