"""The trace generator's per-event loops in C: the same traces as the
Python reference, byte for byte.

``generate_trace`` runs its predictor warm-up, preamble draws and window
loop in the C module of :mod:`repro.kernel.fast`, on the trace's own
``random.Random`` stream, and the base pass's dependency dice run there
too.  The Python loops stay as the reference and as the fallback for a
host with no compiler.  Here both paths are held to the committed trace
digests (``tests/golden/trace_digests.json``, written by
``tools/make_golden_traces.py``) and, with hypothesis, to each other on
random profiles, edge values included.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.base import dependency_draws
from repro.kernel import fast
from repro.workloads import generate_trace, get_profile
from repro.workloads.generator import TAG_COUNT, TRACE_COLUMNS
from repro.workloads.profiles import WorkloadProfile

from .stream_paths import python_reference, stream_paths

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

from make_golden_traces import (  # noqa: E402
    TRACE_DIGESTS,
    canonical_trace,
    digest_cases,
    trace_digest,
)

needs_compiler = pytest.mark.skipif(
    fast._compiler() is None, reason="no C compiler or Python headers"
)


@pytest.mark.parametrize("path", ["native", "python"])
def test_traces_match_the_committed_digests(path):
    """Every profile at scales 8 and 64, and every growth variant."""
    want = json.loads(TRACE_DIGESTS.read_text())
    with stream_paths()[path]:
        got = {name: trace_digest(thunk()) for name, thunk in digest_cases()}
    assert got.keys() == want.keys()
    assert [name for name in want if got[name] != want[name]] == []


@needs_compiler
def test_generate_trace_takes_the_native_path(monkeypatch):
    """With the module built, each loop is one C call, and the reference
    loops never run."""
    from repro.workloads import generator

    kernel = fast.native()
    calls = []

    def spy(name, step):
        def run(*args):
            calls.append(name)
            return step(*args)

        return run

    for name in ("warm_branches", "preamble", "trace_window", "dependency_draws"):
        monkeypatch.setattr(kernel, name, spy(name, getattr(kernel, name)))
    for name in ("_warm_up", "_preamble", "_window"):
        monkeypatch.setattr(generator, name, None)
    trace = generate_trace(get_profile("gcc"), 2000, seed=7)
    dependency_draws(7, 100, 0.5, 12)
    assert calls == ["warm_branches", "preamble", "trace_window", "dependency_draws"]
    assert len(trace) >= 2000


@pytest.mark.parametrize("workload", ["gcc", "omnetpp", "povray"])
def test_both_paths_write_the_same_typed_columns(workload):
    """Traces that hold every tag: the C loops write the Python ``TAG_*``
    codes and flag bits into columns of the declared dtypes, equal to the
    reference's."""
    traces = {}
    for path, context in stream_paths().items():
        with context:
            traces[path] = generate_trace(get_profile(workload), 2000, seed=7)
    native, python = traces["native"], traces["python"]
    assert set(np.unique(native.tags).tolist()) == set(range(TAG_COUNT))
    for name, dtype in TRACE_COLUMNS.items():
        got, want = getattr(native, name), getattr(python, name)
        assert got.dtype == want.dtype == dtype, name
        assert np.array_equal(got, want), name
    assert native == python


def test_the_stream_continues_after_each_loop():
    """The C loops hand the advanced state back: draws after a loop are
    those the Python loop leaves, on both paths."""
    from repro.workloads.generator import GShareBranchPredictor, _warm_up

    pcs = [0x400000 + 4 * i for i in range(64)]
    bias = [0.97] * 32 + [0.5] * 32
    after = {}
    for path, context in stream_paths().items():
        with context:
            rng = random.Random(3)
            predictor = GShareBranchPredictor(table_bits=14, history_bits=2)
            kernel = fast.native()
            warm_up = (
                _warm_up if kernel is None else fast.on_stream(kernel.warm_branches)
            )
            warm_up(rng, predictor, pcs, bias, 777)
            after[path] = (
                rng.random(),
                rng.getrandbits(40),
                bytes(predictor._table),
                predictor._history,
                predictor.predictions,
                predictor.mispredictions,
            )
    assert after["native"] == after["python"]


@needs_compiler
def test_malformed_input_is_refused():
    kernel = fast.native()
    state = random.Random(1).getstate()[1]
    drawn = np.zeros(10, dtype=np.int64)
    with pytest.raises(ValueError, match="625"):
        kernel.dependency_draws(state[:-1], 0.5, 12, drawn)
    with pytest.raises(ValueError, match="index"):
        kernel.dependency_draws(state[:-1] + (625,), 0.5, 12, drawn)
    with pytest.raises(ValueError, match="ilp_distance"):
        kernel.dependency_draws(state, 0.5, 1 << 63, drawn)
    with pytest.raises(ValueError, match="drawn must be an aligned array"):
        kernel.dependency_draws(state, 0.5, 12, np.zeros(10, dtype=np.int32))


@pytest.mark.parametrize("initial_live", [1, 2, 5, 12])
@pytest.mark.parametrize("free_recency", [0.0, 0.5, 1.0])
def test_churn_on_a_small_live_set_agrees(initial_live, free_recency):
    """A malloc storm over a few live objects: most window allocations are
    freed again, so the LIFO victim scan reaches past freed entries and the
    random victim fallback runs."""
    profile = WorkloadProfile(
        name="churn",
        description="malloc storm on a small live set",
        table_max_active=0,
        table_allocations=0,
        table_deallocations=0,
        mallocs_per_kinst=600.0,
        initial_live=initial_live,
        free_recency=free_recency,
    )
    for seed in range(4):
        native = generate_trace(profile, 3000, seed=seed, scale=1)
        with python_reference():
            python = generate_trace(profile, 3000, seed=seed, scale=1)
        assert canonical_trace(native) == canonical_trace(python)


# ------------------------------------------------------------- hypothesis

_chance = st.one_of(st.sampled_from([0, 1, 0.0, 1.0]), st.floats(0.0, 1.0))
_rate = st.one_of(st.sampled_from([0.0, 1000.0]), st.floats(0.0, 1000.0))


@st.composite
def profiles(draw) -> WorkloadProfile:
    """Any valid profile, edge values weighted up."""
    sizes = draw(
        st.lists(
            st.one_of(st.integers(1, 24), st.integers(1, 1 << 20)),
            min_size=1,
            max_size=5,
        )
    )
    weights = draw(
        st.lists(st.integers(1, 100), min_size=len(sizes), max_size=len(sizes))
    )
    total = sum(weights)
    return WorkloadProfile(
        name="random",
        description="hypothesis profile",
        table_max_active=0,
        table_allocations=0,
        table_deallocations=0,
        mem_frac=draw(st.floats(0.0, 0.33)),
        branch_frac=draw(st.floats(0.0, 0.33)),
        falu_frac=draw(st.floats(0.0, 0.33)),
        store_ratio=draw(_chance),
        heap_frac=draw(_chance),
        random_branch_frac=draw(_chance),
        call_rate=draw(_rate),
        mallocs_per_kinst=draw(_rate),
        initial_live=draw(st.one_of(st.integers(0, 4), st.integers(0, 5000))),
        size_classes=tuple((s, w / total) for s, w in zip(sizes, weights)),
        hot_fraction=draw(_chance),
        hot_access_prob=draw(_chance),
        burst_prob=draw(_chance),
        free_recency=draw(_chance),
        seq_frac=draw(_chance),
        ptr_frac=draw(_chance),
        ptr_arith_rate=draw(_rate),
        chase_frac=draw(_chance),
    )


@given(
    profile=profiles(),
    instructions=st.integers(1000, 2500),
    seed=st.integers(-(1 << 40), 1 << 40),
    scale=st.sampled_from([1, 2, 8, 64]),
    grow_live_by=st.one_of(st.just(0), st.integers(1, 3000)),
)
@settings(max_examples=60, deadline=None)
def test_native_and_python_traces_agree(
    profile, instructions, seed, scale, grow_live_by
):
    args = (profile, instructions, seed, scale, grow_live_by)
    native = generate_trace(*args)
    with python_reference():
        python = generate_trace(*args)
    assert canonical_trace(native) == canonical_trace(python)


@given(
    seed=st.integers(-(1 << 70), 1 << 70),
    count=st.integers(0, 3000),
    dep_prob=_chance,
    # Every width of getrandbits, one 32-bit word or two.
    ilp_distance=st.integers(1, 63).flatmap(
        lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)
    ),
)
@settings(max_examples=60, deadline=None)
def test_native_and_python_dependency_draws_agree(
    seed, count, dep_prob, ilp_distance
):
    native = dependency_draws(seed, count, dep_prob, ilp_distance)
    with python_reference():
        python = dependency_draws(seed, count, dep_prob, ilp_distance)
    assert native.dtype == python.dtype == np.int64
    assert np.array_equal(native, python)
