"""The flat HBT's one-pass pre-warm is the insert loop, byte for byte.

``HashedBoundsTable.prewarm`` fills an empty table with a whole live set
at once: a stable sort by PAC ranks each record within its row, and the
doublings and every ``HBTStats`` counter follow in closed form.  Its
contract is equality with the loop the AOS lowering used to run — one
``insert`` per record, each insertion failure answered by a blocking
resize — in the slot array, the logical ``records()`` view (row order and
row lengths included), the geometry, the resize state and the stats, and
the same error once the table would grow past ``max_ways``.

A clone must be independent of its prototype: mutating the clone leaves
the prototype's records and slots untouched.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import CompressedBounds, RawBounds
from repro.core.hbt import HashedBoundsTable
from repro.errors import EncodingError, SimulationError

PAC_BITS = 11
HEAP = 0x2000_0000


def insert_loop(hbt: HashedBoundsTable, records) -> None:
    """The reference: one insert per record, resizing on every failure."""
    for pac, lower, size in records:
        while True:
            try:
                hbt.insert(pac, lower, size)
                break
            except SimulationError:
                hbt.begin_resize()
                hbt.finish_resize()


def prewarm(hbt: HashedBoundsTable, records) -> None:
    pacs, lowers, sizes = zip(*records) if records else ((), (), ())
    hbt.prewarm(list(pacs), list(lowers), list(sizes))


def state(hbt: HashedBoundsTable) -> tuple:
    return (
        repr(hbt.records()),
        hbt._table.tobytes(),
        hbt.ways,
        hbt._base,
        hbt._old_base,
        hbt.old_ways,
        hbt.row_ptr,
        hbt.resizing,
        dataclasses.asdict(hbt.stats),
    )


def outcome(fill, records, **geometry):
    hbt = HashedBoundsTable(pac_bits=PAC_BITS, **geometry)
    try:
        fill(hbt, records)
    except (SimulationError, EncodingError) as exc:
        return f"raised {exc!r}"
    return state(hbt)


#: (pac, lower, size): PACs crowd onto a few rows so rows overflow and the
#: table doubles, some more than once.
records = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 2), st.integers(0, (1 << PAC_BITS) - 1)),
        st.integers(0, 1 << 20).map(lambda k: HEAP + 16 * k),
        st.integers(1, 1 << 12),
    ),
    max_size=90,
)


@settings(max_examples=200, deadline=None)
@given(
    records=records,
    compression=st.booleans(),
    initial_ways=st.sampled_from((1, 2, 4)),
    max_ways=st.sampled_from((4, 64)),
)
def test_prewarm_is_the_insert_loop(records, compression, initial_ways, max_ways):
    geometry = dict(
        initial_ways=initial_ways, compression=compression, max_ways=max_ways
    )
    assert outcome(prewarm, records, **geometry) == outcome(
        insert_loop, records, **geometry
    )


@pytest.mark.parametrize("compression", [True, False])
@pytest.mark.parametrize("initial_ways", [1, 2, 4])
def test_rows_forced_past_capacity(compression, initial_ways):
    """One row takes 8 x 8 records: the table doubles up to eight ways,
    and rows written before a doubling keep their shorter length."""
    crowded = [(5, HEAP + 64 * i, 48) for i in range(64)]
    spread = [(pac, HEAP + 0x10_0000 + 64 * pac, 16) for pac in (9, 3, 700)]
    live = spread[:2] + crowded + spread[2:]
    geometry = dict(initial_ways=initial_ways, compression=compression)
    assert outcome(prewarm, live, **geometry) == outcome(insert_loop, live, **geometry)
    hbt = HashedBoundsTable(pac_bits=PAC_BITS, **geometry)
    prewarm(hbt, live)
    assert hbt.ways == 8
    assert hbt.stats.resizes == {1: 3, 2: 2, 4: 1}[initial_ways]
    rows = hbt.records()
    assert list(rows) == [9, 3, 5, 700]
    assert len(rows[9]) == len(rows[3]) == 8 * initial_ways
    assert len(rows[5]) == len(rows[700]) == 64


@pytest.mark.parametrize("compression", [True, False])
def test_growth_past_max_ways_raises_like_the_loop(compression):
    crowded = [(1, HEAP + 64 * i, 48) for i in range(17)]
    geometry = dict(initial_ways=1, compression=compression, max_ways=2)
    want = outcome(insert_loop, crowded, **geometry)
    assert want == "raised SimulationError('HBT reached the maximum supported associativity')"
    assert outcome(prewarm, crowded, **geometry) == want


def test_bad_record_raises_like_the_loop():
    live = [(1, HEAP, 64), (2, HEAP + 8, 64)]  # unaligned second lower bound
    want = outcome(insert_loop, live)
    assert want.startswith("raised EncodingError(")
    assert outcome(prewarm, live) == want


def test_prewarm_needs_an_empty_table():
    hbt = HashedBoundsTable(pac_bits=PAC_BITS)
    hbt.insert(1, HEAP, 64)
    with pytest.raises(SimulationError):
        hbt.prewarm([2], [HEAP + 64], [64])


@pytest.mark.parametrize("compression", [True, False])
def test_mutating_a_clone_leaves_the_prototype(compression):
    live = [(pac % 3, HEAP + 64 * pac, 48) for pac in range(40)]
    prototype = HashedBoundsTable(pac_bits=PAC_BITS, compression=compression)
    prewarm(prototype, live)
    before = state(prototype)

    clone = prototype.clone()
    assert state(clone) == before
    clone.insert(7, HEAP + 0x10_0000, 32)
    assert clone.clear_matching(0, HEAP)[0] is not None
    pac, way, slot = clone.live_slots()[0]
    replacement = (
        CompressedBounds(raw=clone.peek(pac, way, slot).raw ^ 0x10)
        if compression
        else RawBounds(lower=HEAP + 0x40, upper=HEAP + 0x80)
    )
    clone.replace_record(pac, way, slot, replacement)
    clone.begin_resize()

    assert state(prototype) == before
    assert state(clone) != before
    assert prototype.total_records() == len(live)


@pytest.mark.parametrize("bad_at", [5, 30])
def test_the_first_error_of_the_loop_wins(bad_at):
    """A bad record after the growth past ``max_ways`` fails on growth; one
    before it fails on its encoding, as in the loop."""
    live = [(1, HEAP + 64 * i, 48) for i in range(20)]
    live.insert(bad_at, (2, HEAP + 8, 64))
    geometry = dict(initial_ways=1, max_ways=2)
    want = outcome(insert_loop, live, **geometry)
    assert want.startswith("raised EncodingError(" if bad_at == 5 else "raised SimulationError(")
    assert outcome(prewarm, live, **geometry) == want
