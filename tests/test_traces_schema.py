"""Schema-robustness tests: malformed trace files raise *named* errors.

Every corruption mode — truncation (even at clean line boundaries),
files that are not JSONL at all, trailing garbage, unknown record kinds,
version skew, impossible semantics — must surface as a :class:`TraceFormatError`
subclass, never as a silent partial import, a wrong-typed exception, or
a half-built ``WorkloadTrace``.  A seeded mutation fuzzer over the
committed golden fixtures closes the gaps the deterministic cases miss.
"""

import json
import random
import re
import struct
from pathlib import Path

import pytest

from repro.errors import (
    TraceDecodeError,
    TraceFormatError,
    TraceSemanticError,
    TraceVersionError,
)
from repro.traces import (
    TraceHeader,
    TraceRecord,
    TraceWriter,
    import_trace,
    scan_trace,
)
from repro.workloads.generator import TAG_FREE, TAG_LD, TAG_MALLOC, TAG_ST

GOLDEN = Path(__file__).parent / "golden" / "traces"

HEADER = TraceHeader(name="t", scale=2, seed=3)


def write_trace(path, records, header=HEADER):
    with TraceWriter(path, header) as writer:
        for record in records:
            writer.write(record)
    return path


VALID_RECORDS = (
    TraceRecord(kind="obj", obj=0, size=64),
    TraceRecord(kind="alloc", obj=1, size=32),
    TraceRecord(kind="load", obj=0, offset=8),
    TraceRecord(kind="store", obj=1, offset=0, ptr=True),
    TraceRecord(kind="free", obj=1),
    TraceRecord(kind="alu"),
)


@pytest.fixture
def valid_file(tmp_path):
    return write_trace(tmp_path / "valid.jsonl", VALID_RECORDS)


# ------------------------------------------------------------- versioning


def test_jsonl_version_skew_rejected_by_name(tmp_path):
    path = write_trace(tmp_path / "t.jsonl", VALID_RECORDS)
    lines = path.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["schema_version"] = 2
    path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    with pytest.raises(TraceVersionError, match="version 2 is not supported"):
        import_trace(path)


# ------------------------------------------------------------- truncation


def test_jsonl_missing_end_record(tmp_path):
    path = write_trace(tmp_path / "t.jsonl", VALID_RECORDS)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))  # drop the end line cleanly
    with pytest.raises(TraceDecodeError, match="missing end record"):
        import_trace(path)


def test_jsonl_truncated_mid_line(tmp_path):
    path = write_trace(tmp_path / "t.jsonl", VALID_RECORDS)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 7])  # cut inside the last line
    with pytest.raises(TraceDecodeError):
        import_trace(path)


def test_jsonl_end_count_mismatch(tmp_path):
    path = write_trace(tmp_path / "t.jsonl", VALID_RECORDS)
    lines = path.read_text().splitlines(keepends=True)
    # Delete the final ("alu") record line but keep the wrong end count;
    # an innocuous record so the semantic pass cannot trip first.
    path.write_text("".join(lines[:-2] + lines[-1:]))
    with pytest.raises(TraceDecodeError, match="declares 6 records but 5"):
        import_trace(path)


def test_abandoned_writer_leaves_rejected_file(tmp_path):
    """A writer torn down by an exception must not leave a readable file."""
    path = tmp_path / "abandoned.jsonl"
    with pytest.raises(RuntimeError):
        with TraceWriter(path, HEADER) as writer:
            writer.write(VALID_RECORDS[0])
            raise RuntimeError("simulated crash mid-export")
    with pytest.raises(TraceDecodeError):
        import_trace(path)


# ------------------------------------------------------- trailing garbage


@pytest.mark.parametrize(
    "garbage", [b'{"k":"alu"}\n', b"\xff\xfe\x00extra"], ids=["jsonl", "binary"]
)
def test_trailing_garbage_rejected(garbage, valid_file):
    """A well-formed record line and undecodable bytes after the end
    record are both garbage, charged to the tail and not to a line
    before it."""
    with open(valid_file, "ab") as fh:
        fh.write(garbage)
    with pytest.raises(TraceDecodeError, match="trailing garbage"):
        import_trace(valid_file)


# ---------------------------------------------------------- unknown kinds


def test_jsonl_unknown_record_kind(tmp_path):
    path = write_trace(tmp_path / "t.jsonl", VALID_RECORDS[:1])
    lines = path.read_text().splitlines(keepends=True)
    lines.insert(1, '{"k":"zorp","x":1}\n')
    path.write_text("".join(lines))
    with pytest.raises(TraceDecodeError, match="unknown record kind 'zorp'"):
        import_trace(path)


def test_jsonl_unknown_record_field(tmp_path):
    path = write_trace(tmp_path / "t.jsonl", VALID_RECORDS[:1])
    lines = path.read_text().splitlines(keepends=True)
    lines.insert(1, '{"k":"alu","surprise":true}\n')
    path.write_text("".join(lines))
    with pytest.raises(TraceDecodeError, match="unknown record fields"):
        import_trace(path)


#: Record lines that parse as JSON but fail the schema: (line, message).
SCHEMA_FAILURES = {
    "unknown-kind": ('{"k":"zorp"}', "unknown record kind 'zorp'"),
    "unknown-field": ('{"k":"alu","surprise":true}', "unknown record fields"),
    "non-boolean-flag": ('{"k":"load","obj":0,"offset":8,"ptr":1}', "boolean"),
    "negative-field": ('{"k":"load","obj":0,"offset":-8}', "must be >= 0"),
}


def _schema_failure(tmp_path, kind):
    """A valid trace with ``kind``'s bad record inserted as line 3."""
    path = write_trace(tmp_path / f"{kind}.jsonl", VALID_RECORDS[:2])
    lines = path.read_text().splitlines(keepends=True)
    lines.insert(2, SCHEMA_FAILURES[kind][0] + "\n")
    path.write_text("".join(lines))
    return path


@pytest.mark.parametrize("kind", sorted(SCHEMA_FAILURES))
def test_schema_failure_names_path_and_line(kind, tmp_path):
    path = _schema_failure(tmp_path, kind)
    with pytest.raises(TraceDecodeError) as raised:
        import_trace(path)
    assert str(raised.value).startswith(f"{path}:3: ")
    assert SCHEMA_FAILURES[kind][1] in str(raised.value)


@pytest.mark.parametrize("kind", sorted(SCHEMA_FAILURES))
def test_trace_import_cli_rejects_schema_failure(kind, tmp_path, capsys):
    from repro.cli import main

    path = _schema_failure(tmp_path, kind)
    assert main(["trace-import", str(path), "--no-cache"]) == 2
    assert f"TraceDecodeError: {path}:3: " in capsys.readouterr().err


def test_unknown_header_field_rejected(tmp_path):
    path = write_trace(tmp_path / "t.jsonl", VALID_RECORDS)
    lines = path.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["zorp"] = 1
    path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    with pytest.raises(TraceDecodeError, match="unknown fields"):
        import_trace(path)


def test_not_a_trace_file(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"\x00\x01\x02 definitely not a trace")
    with pytest.raises(TraceDecodeError, match="not a trace file"):
        import_trace(path)


def _retired_binary_trace() -> bytes:
    """A file in the retired length-prefixed binary format: magic, u16
    framing version, u32-framed JSON header, one ``alu`` frame and the
    end frame carrying the record count."""
    header = json.dumps(HEADER.to_payload()).encode()
    frames = struct.pack("<IB", 1, 12) + struct.pack("<IBQ", 9, 0x7F, 1)
    return b"RPTRACE0" + struct.pack("<HI", 1, len(header)) + header + frames


_NOISE = bytes(random.Random(5).randrange(256) for _ in range(4096))
NOT_A_TRACE = {
    "rptrace0": _retired_binary_trace(),
    "arbitrary-bytes": _NOISE,
    "brace-then-bytes": b"{" + _NOISE,
    "other-jsonl": b'{"kind":"checkpoint","version":1}\n',
}


@pytest.mark.parametrize("kind", sorted(NOT_A_TRACE))
def test_non_jsonl_file_rejected_naming_path(kind, tmp_path):
    """Only a JSONL trace is a trace: anything else is a TraceDecodeError
    naming the file, never a UnicodeDecodeError/JSONDecodeError or a
    partial trace."""
    path = tmp_path / f"{kind}.trace"
    path.write_bytes(NOT_A_TRACE[kind])
    with pytest.raises(TraceDecodeError, match=re.escape(str(path))):
        import_trace(path)


@pytest.mark.parametrize("kind", sorted(NOT_A_TRACE))
def test_trace_import_cli_rejects_non_jsonl(kind, tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / f"{kind}.trace"
    path.write_bytes(NOT_A_TRACE[kind])
    assert main(["trace-import", str(path), "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert f"TraceDecodeError: {path}: " in captured.err
    assert "simulated" not in captured.out


# --------------------------------------------------------------- semantics


def _semantic(tmp_path, records):
    return write_trace(tmp_path / "s.jsonl", records)


def test_duplicate_object_id(tmp_path):
    path = _semantic(tmp_path, [
        TraceRecord(kind="obj", obj=0, size=64),
        TraceRecord(kind="alloc", obj=0, size=32),
    ])
    with pytest.raises(TraceSemanticError, match="duplicate object id 0"):
        import_trace(path)


def test_preamble_after_window_events(tmp_path):
    path = _semantic(tmp_path, [
        TraceRecord(kind="alu"),
        TraceRecord(kind="obj", obj=0, size=64),
    ])
    with pytest.raises(TraceSemanticError, match="after window events"):
        import_trace(path)


def test_free_of_unknown_object(tmp_path):
    path = _semantic(tmp_path, [TraceRecord(kind="free", obj=9)])
    with pytest.raises(TraceSemanticError, match="free of unknown object 9"):
        import_trace(path)


def test_double_free(tmp_path):
    path = _semantic(tmp_path, [
        TraceRecord(kind="obj", obj=0, size=64),
        TraceRecord(kind="free", obj=0),
        TraceRecord(kind="free", obj=0),
    ])
    with pytest.raises(TraceSemanticError, match="double free of object 0"):
        import_trace(path)


def test_access_to_undeclared_object(tmp_path):
    path = _semantic(tmp_path, [TraceRecord(kind="load", obj=5, offset=0)])
    with pytest.raises(TraceSemanticError, match="load of undeclared object 5"):
        import_trace(path)


def test_uaf_and_oob_are_valid_schema(tmp_path):
    """Attack traces are the point: stale loads into freed chunks and
    offsets past the object size import cleanly."""
    path = _semantic(tmp_path, [
        TraceRecord(kind="obj", obj=0, size=64),
        TraceRecord(kind="free", obj=0),
        TraceRecord(kind="load", obj=0, offset=8),        # use-after-free
        TraceRecord(kind="store", obj=0, offset=4096),    # out-of-bounds
    ])
    trace = import_trace(path)
    assert trace.tags.tolist() == [TAG_FREE, TAG_LD, TAG_ST]
    assert trace.objs.tolist() == [0, 0, 0]
    assert trace.offsets.tolist() == [0, 8, 4096]
    assert trace.flags.tolist() == [0, 0, 0]


def test_header_profile_name_mismatch(tmp_path):
    import dataclasses as dc

    from repro.workloads import get_profile

    payload = dc.asdict(get_profile("bzip2"))
    header = TraceHeader(name="not-bzip2", profile=payload)
    path = write_trace(tmp_path / "t.jsonl", [], header=header)
    with pytest.raises(TraceSemanticError, match="does not match"):
        import_trace(path)


def test_scan_trace_counts_and_digest(valid_file):
    stats = scan_trace(valid_file)
    assert stats.records == len(VALID_RECORDS)
    assert stats.counts["obj"] == 1 and stats.counts["load"] == 1
    assert len(stats.digest) == 64
    assert "schema v1" in stats.format_summary()


# -------------------------------------------------------------------- fuzz


def _mutate(data: bytes, rng: random.Random) -> bytes:
    """One seeded corruption: byte flip, truncation, deletion, insertion,
    or duplication of a slice."""
    if not data:
        return b"\x00"
    choice = rng.randrange(5)
    position = rng.randrange(len(data))
    if choice == 0:  # flip one byte
        return (data[:position]
                + bytes((data[position] ^ (1 << rng.randrange(8)),))
                + data[position + 1:])
    if choice == 1:  # truncate
        return data[:position]
    if choice == 2:  # delete a short slice
        return data[:position] + data[position + rng.randrange(1, 9):]
    if choice == 3:  # insert noise
        return (data[:position]
                + bytes(rng.randrange(256) for _ in range(rng.randrange(1, 9)))
                + data[position:])
    length = rng.randrange(1, 65)  # duplicate a slice
    return data[:position] + data[position:position + length] + data[position:]


@pytest.mark.parametrize(
    "fixture", ["handwritten.v1.jsonl", "bzip2.v1.jsonl"]
)
def test_fuzzed_mutations_never_silently_partial(fixture, tmp_path):
    """Property: a mutated golden fixture either raises a TraceFormatError
    subclass or imports to a complete WorkloadTrace — never any other
    exception, never a half-built object."""
    from repro.workloads.generator import WorkloadTrace

    original = (GOLDEN / fixture).read_bytes()
    rng = random.Random(f"trace-fuzz:{fixture}")
    survivors = 0
    for iteration in range(120):
        mutated = _mutate(original, rng)
        path = tmp_path / f"m{iteration}{Path(fixture).suffix}"
        path.write_bytes(mutated)
        try:
            trace = import_trace(path)
        except TraceFormatError:
            continue
        except FileNotFoundError:  # pragma: no cover - never expected
            raise
        assert isinstance(trace, WorkloadTrace)
        # A surviving mutation decoded end-to-end: the stream it carried
        # was fully consumed (every object an event names is declared).
        declared = set(trace.preamble_ids.tolist())
        declared |= set(trace.objs[trace.tags == TAG_MALLOC].tolist())
        named = [tag in (TAG_LD, TAG_ST, TAG_FREE) for tag in trace.tags.tolist()]
        assert set(trace.objs[named].tolist()) <= declared
        survivors += 1
    # Most mutations must be *caught*; if nearly all survive, the
    # validators are not actually looking at the bytes.
    assert survivors < 60, f"only {120 - survivors} mutations detected"
