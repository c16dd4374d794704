"""Streaming-decode memory bound: multi-GB traces must ingest in O(1) RAM.

Builds a ~100MB JSONL trace (note records with large payloads make the
file big without making decode slow), then asserts with ``tracemalloc``
that a full streaming pass allocates only a small fraction of the file
size.  ``REPRO_STREAM_TEST_MB`` scales the file for heavier local runs.
"""

import os
import tracemalloc

from repro.traces import (
    TraceHeader,
    TraceRecord,
    TraceWriter,
    open_trace,
    trace_digest,
)

#: Default file size; env-overridable (e.g. REPRO_STREAM_TEST_MB=1024).
FILE_MB = int(os.environ.get("REPRO_STREAM_TEST_MB", "100"))
#: Each note payload is 64KiB, so the decoder's working set per record is
#: tiny relative to the file.
NOTE_BYTES = 64 * 1024
#: The decode pass may hold one line plus interpreter noise — cap its
#: peak at 8MiB, under a tenth of the default file size.
PEAK_BUDGET = 8 * 1024 * 1024


def _build_large_trace(path) -> int:
    notes = (FILE_MB * 1024 * 1024) // (NOTE_BYTES + 23)  # 23 = line overhead
    payload = "x" * NOTE_BYTES
    with TraceWriter(path, TraceHeader(name="big")) as writer:
        writer.write(TraceRecord(kind="obj", obj=0, size=64))
        for _ in range(notes):
            writer.write(TraceRecord(kind="note", text=payload))
        writer.write(TraceRecord(kind="load", obj=0, offset=8))
    return os.path.getsize(path)


def test_streaming_decode_is_bounded(tmp_path):
    path = tmp_path / "big.jsonl"
    size = _build_large_trace(path)
    assert size >= FILE_MB * 1024 * 1024 * 95 // 100, "fixture too small"

    tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    records = 0
    with open_trace(path) as reader:
        for _record in reader:
            records += 1
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert records > 1000
    assert peak - baseline < PEAK_BUDGET, (
        f"decoding a {size // (1024 * 1024)}MB trace peaked at "
        f"{(peak - baseline) // (1024 * 1024)}MB — the reader is buffering"
    )


def test_streaming_digest_is_bounded(tmp_path):
    """The cache-key digest hashes in 1MB chunks, never the whole file."""
    path = tmp_path / "big.jsonl"
    _build_large_trace(path)
    tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    digest = trace_digest(path)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(digest) == 64
    assert peak - baseline < PEAK_BUDGET
