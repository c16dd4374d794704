"""Golden trace fixture tests: the committed files pin schema v1.

``tools/make_golden_traces.py`` is the single source of the fixtures; the
drift test regenerates them into a temp directory and byte-compares, so
any change to the schema, codec, or generator that would invalidate
users' existing trace files fails here first (and the fix is either a
schema version bump or an intentional regeneration, never silence).
"""

import sys
from pathlib import Path

import pytest

from repro.traces import (
    TraceWriter,
    import_trace,
    open_trace,
    read_header,
    scan_trace,
)
from repro.workloads.generator import TAG_LD, TAG_MALLOC, TAG_ST

GOLDEN = Path(__file__).parent / "golden" / "traces"
sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

from make_golden_traces import write_fixtures  # noqa: E402

FIXTURES = ["handwritten.v1.jsonl", "bzip2.v1.jsonl"]


def test_committed_fixtures_match_regenerator(tmp_path):
    """Schema drift check: regeneration reproduces the committed bytes."""
    write_fixtures(tmp_path)
    for name in FIXTURES:
        regenerated = (tmp_path / name).read_bytes()
        committed = (GOLDEN / name).read_bytes()
        assert regenerated == committed, (
            f"{name}: regenerated fixture differs from the committed one — "
            "either bump the schema version or intentionally refresh with "
            "tools/make_golden_traces.py"
        )


@pytest.mark.parametrize("name", FIXTURES)
def test_decode_reencode_is_byte_identical(name, tmp_path):
    """Canonical encoding: decode -> re-encode reproduces the file."""
    source = GOLDEN / name
    copy = tmp_path / name
    with open_trace(source) as reader:
        with TraceWriter(copy, reader.header) as writer:
            for record in reader:
                writer.write(record)
    assert copy.read_bytes() == source.read_bytes()


def test_handwritten_covers_every_record_kind():
    from repro.traces import RECORD_KINDS

    stats = scan_trace(GOLDEN / "handwritten.v1.jsonl")
    assert set(stats.counts) == set(RECORD_KINDS)


def test_handwritten_import_shape():
    """The no-embedded-profile path: the importer synthesises one from
    the stream, notes are dropped, and the UAF/OOB records survive."""
    trace = import_trace(GOLDEN / "handwritten.v1.jsonl")
    assert trace.profile.name == "handwritten"
    assert trace.profile.description.startswith("ingested trace")
    assert trace.preamble_ids.tolist() == [0, 1]
    assert trace.preamble_sizes.tolist() == [64, 128]
    mallocs = trace.tags == TAG_MALLOC
    assert trace.objs[mallocs].tolist() == [3, 7]
    assert trace.sizes[mallocs].tolist() == [96, 32]
    assert trace.scale == 2 and trace.seed == 11
    assert trace.branch_mispredict_rate == 0.03
    # 22 records minus 2 obj rows and 2 notes = 18 events.
    assert len(trace) == 18
    accesses = list(zip(trace.tags.tolist(), trace.objs.tolist(),
                        trace.offsets.tolist()))
    assert (TAG_LD, 7, 0) in accesses       # use-after-free
    assert (TAG_ST, 3, 4096) in accesses    # out-of-bounds
    header = read_header(GOLDEN / "handwritten.v1.jsonl")
    assert header.profile is None
    assert header.meta == {"purpose": "golden fixture covering every record kind"}


def test_bzip2_fixture_reimports_as_generated():
    """The synthetic fixture equals regenerating from its provenance."""
    from repro.workloads import generate_trace, get_profile

    header = read_header(GOLDEN / "bzip2.v1.jsonl")
    provenance = header.generator
    assert provenance["source"] == "synthetic"
    regenerated = generate_trace(
        get_profile(provenance["workload"]),
        instructions=provenance["instructions"],
        seed=provenance["seed"],
        scale=provenance["scale"],
    )
    assert import_trace(GOLDEN / "bzip2.v1.jsonl") == regenerated
