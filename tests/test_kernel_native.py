"""The C fast kernel: random-program equivalence, its build cache and the
no-compiler fallback.

``tests/test_kernel_equivalence.py`` pins the two kernels byte for byte on
lowered workloads.  Lowered programs never reach some corners a C port can
get wrong — integer widths, unsigned shifts, ``//`` and ``%`` on 64-bit
values — so here hypothesis builds random :class:`Program` s instead:

- every kind code (markers, loads, stores, watchdog checks, mispredicted
  branches, ``bndstr``, ``bndclr``, fixed-latency ops);
- dependency distances up to the completion ring's size;
- addresses across the full 64-bit range, and signed pointers with every
  AHC value, some straddling the 4 GiB bound the compressed-bounds carry
  bit handles;
- ``bndstr`` runs on a handful of PACs, so HBT rows fill and the table
  resizes (gradually, stalled mid-migration, or blocking);

and runs each through ``reference`` and ``fast``, with and without an MCU,
requiring the same state afterwards: the pipeline result, every cache's
statistics *and* set contents in LRU order, traffic, and the MCU, HBT and
BWB state — or the same exception.

The build is cached by source digest and ABI tag and published by atomic
rename; a host with no C compiler runs the reference kernel and warns
once.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sysconfig
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import MemoryHierarchy
from repro.compiler import lower_trace
from repro.compiler.passes import LoweredWorkload
from repro.core.hbt import HashedBoundsTable
from repro.core.mcu import MemoryCheckUnit
from repro.cpu.core import Simulator
from repro.cpu.pipeline import _RING, PipelineModel
from repro.errors import SimulationError
from repro.experiments import CellSpec, RunSettings, parallel
from repro.experiments.common import _result_to_payload, scaled_config
from repro.experiments.parallel import ArtifactCache
from repro.isa.encoding import PointerLayout
from repro.isa.instructions import Op
from repro.isa.program import ProgramBuilder
from repro.kernel import fast
from repro.workloads import generate_trace, get_profile

LAYOUT = PointerLayout()

#: Object bases: ordinary heap addresses and ones around the 4 GiB and
#: 8 GiB marks the compressed bounds' 33-bit compare wraps at.
BASES = (0x2000_0000, 0xFFFF_FF00, 0x1_0000_0000, 0x1_FFFF_FFC0, 0x3F_FFFF_0000)

#: Object sizes whose compressed size field uses its top bits.
HUGE_SIZES = (0x7FFF_FFF0, 0x8000_0000, 0xFFFF_FFFF)

#: Kind codes to draw, loads, stores and bndstr weighted up.
KINDS = (0, 1, 1, 1, 2, 2, 3, 4, 5, 5, 6, 7, 7)

#: The span of one L2 set index (and a multiple of the L1-D's) at scale 8:
#: addresses this far apart contend for one set in both.
CONFLICT_STRIDE = 1024 * 64

#: Fixed-latency ops (kind 7), a predicted branch among them.
OTHER_OPS = (Op.ALU, Op.FALU, Op.NOP, Op.BRANCH, Op.CALL, Op.PACMA, Op.AUTM)

needs_compiler = pytest.mark.skipif(
    fast._compiler() is None, reason="no C compiler or Python headers"
)


@st.composite
def objects(draw):
    """One heap object: (base address, size, pac, ahc)."""
    base = draw(st.sampled_from(BASES)) + 16 * draw(st.integers(0, 15))
    size = draw(st.integers(1, 1 << 12) | st.sampled_from(HUGE_SIZES))
    return base, size, draw(st.integers(0, 3)), draw(st.integers(0, 3))


@st.composite
def programs(draw):
    """A random program covering all eight kind codes."""
    pool = draw(st.lists(objects(), min_size=1, max_size=6))
    builder = ProgramBuilder("random")
    # Most objects get their bounds up front, so checks find them.
    for base, size, pac, ahc in pool:
        if draw(st.integers(0, 3)):
            builder.emit_op(Op.BNDSTR, LAYOUT.sign(base, pac, ahc or 1), size=size)
    for _ in range(draw(st.integers(1, 400))):
        kind = draw(st.sampled_from(KINDS))
        deps = tuple(draw(st.lists(st.integers(1, _RING), max_size=3)))
        base, size, pac, ahc = draw(st.sampled_from(pool))
        if kind == 0:
            builder.emit_op(draw(st.sampled_from((Op.MALLOC_MARK, Op.FREE_MARK))))
        elif kind in (1, 2):
            choice = draw(st.sampled_from((0, 0, 0, 1, 2, 3)))
            if choice == 0:  # inside, at the edges of or past an object, signed
                edges = st.sampled_from((-1, 0, size - 1, size, size + 1))
                offset = draw(edges | st.integers(-32, size + 32))
                address = LAYOUT.sign(max(0, base + offset), pac, ahc)
            elif choice == 1:  # anywhere in 64 bits
                address = draw(st.integers(0, (1 << 64) - 1))
            elif choice == 2:  # unsigned, in the VA
                address = draw(st.integers(0, LAYOUT.va_mask))
            else:  # one set of the L1-D and the L2: evictions, writebacks
                address = CONFLICT_STRIDE * draw(st.integers(0, 40))
            builder.emit_op(Op.LOAD if kind == 1 else Op.STORE, address, deps=deps)
        elif kind == 3:
            address = draw(st.integers(0, (1 << 64) - 1))
            builder.emit_op(Op.WCHK, address, deps=deps)
        elif kind == 4:
            builder.emit_op(Op.BRANCH, deps=deps, mispredicted=True)
        elif kind == 5:
            # A burst on one PAC fills its HBT row and resizes the table.
            for index in range(draw(st.integers(1, 12))):
                pointer = LAYOUT.sign(base + 16 * index, pac, ahc or 1)
                builder.emit_op(Op.BNDSTR, pointer, size=size)
        elif kind == 6:
            builder.emit_op(Op.BNDCLR, LAYOUT.sign(base, pac, ahc or 1))
        else:
            op = draw(st.sampled_from(OTHER_OPS))
            latency = draw(st.sampled_from((0, 0, 1, 7, 40)))
            builder.emit_op(op, deps=deps, latency=latency)
    return builder.build()


@st.composite
def aos_configs(draw):
    """An AOS config with every Fig. 15 axis and the HBT state drawn."""
    base = scaled_config("aos", 8)
    aos = dataclasses.replace(
        base.aos,
        l1b_cache=draw(st.booleans()),
        bounds_compression=draw(st.booleans()),
        bounds_forwarding=draw(st.booleans()),
        bwb_enabled=draw(st.booleans()),
        nonblocking_resize=draw(st.booleans()),
    )
    bwb = dataclasses.replace(base.bwb, eviction=draw(st.sampled_from(("lru", "fifo"))))
    config = dataclasses.replace(base, aos=aos, bwb=bwb)
    return config, draw(st.sampled_from((1, 2))), draw(st.sampled_from(("", "resizing", "stalled")))


def cache_state(cache) -> dict:
    return {
        "stats": dataclasses.asdict(cache.stats),
        "sets": [list(s.items()) for s in cache._sets if s],
    }


def wired(kernel, program, config, mcu_setup=None) -> str:
    """Run ``program`` on one kernel, wired as :meth:`Simulator.run` wires
    it; the canonical string of every state the run touched (or of the
    exception it raised)."""
    use_mcu = mcu_setup is not None
    hierarchy = MemoryHierarchy(config.memory, use_l1b=use_mcu and config.aos.l1b_cache)
    mcu = hbt = None
    if use_mcu:
        initial_ways, hbt_state = mcu_setup
        hbt = HashedBoundsTable(
            pac_bits=LAYOUT.pac_bits,
            initial_ways=initial_ways,
            compression=config.aos.bounds_compression,
        )
        if hbt_state == "resizing":
            hbt.begin_resize()
        elif hbt_state == "stalled":
            hbt.interrupt_migration()
        mcu = MemoryCheckUnit(
            hbt=hbt,
            layout=LAYOUT,
            options=config.aos,
            bwb_config=config.bwb,
            mcq_capacity=config.core.mcq_entries,
            bounds_access=hierarchy.access_bounds,
        )
    va_mask = LAYOUT.va_mask
    try:
        if kernel == "fast":
            result = fast.run_fast(config, hierarchy, mcu, va_mask, None, program)
        else:
            result = PipelineModel(config, hierarchy, mcu=mcu, va_mask=va_mask).run(
                program
            )
    except Exception as exc:  # both kernels must fail the same way
        return f"raised {exc!r}"
    caches = {"l1d": hierarchy.l1d, "l2": hierarchy.l2, "l1b": hierarchy.l1b}
    state = {
        "pipeline": dataclasses.asdict(result),
        "summary": hierarchy.summary(),
        "caches": {name: cache_state(c) for name, c in caches.items() if c is not None},
    }
    if use_mcu:
        state.update(
            mcu=dataclasses.asdict(mcu.stats),
            hbt=dataclasses.asdict(hbt.stats),
            bwb=None if mcu.bwb is None else dataclasses.asdict(mcu.bwb.stats),
            bwb_table=None if mcu.bwb is None else list(mcu.bwb._table.items()),
            records=hbt.total_records(),
            ways=hbt.ways,
            resizing=hbt.resizing,
            row_ptr=hbt.row_ptr,
        )
    return json.dumps(state, sort_keys=True)


PROPERTY = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@needs_compiler
@PROPERTY
@given(program=programs())
def test_random_programs_without_mcu(program):
    config = scaled_config("baseline", 8)
    assert wired("fast", program, config) == wired("reference", program, config)


@needs_compiler
@PROPERTY
@given(program=programs(), drawn=aos_configs())
def test_random_programs_with_mcu(program, drawn):
    config, initial_ways, hbt_state = drawn
    setup = (initial_ways, hbt_state)
    assert wired("fast", program, config, setup) == wired(
        "reference", program, config, setup
    )


@needs_compiler
@pytest.mark.parametrize("nonblocking", [True, False])
@pytest.mark.parametrize("compression", [True, False])
def test_bndstr_burst_resizes_the_table_on_both_kernels(compression, nonblocking):
    """A bndstr burst on one PAC overflows its row and resizes the HBT,
    gradually or blocking; checks on every object then walk the wider
    table, on both kernels alike."""
    pointers = [
        LAYOUT.sign(0x2000_0000 + 64 * index, 1, 1 + index % 3) for index in range(20)
    ]
    builder = ProgramBuilder("resize")
    for pointer in pointers:
        builder.emit_op(Op.BNDSTR, pointer, size=48)
    for pointer in pointers:
        builder.emit_op(Op.LOAD, pointer + 8)
    base = scaled_config("aos", 8)
    aos = dataclasses.replace(
        base.aos, bounds_compression=compression, nonblocking_resize=nonblocking
    )
    config = dataclasses.replace(base, aos=aos)
    program = builder.build()
    want = wired("reference", program, config, (1, ""))
    assert wired("fast", program, config, (1, "")) == want
    state = json.loads(want)
    assert state["hbt"]["resizes"] >= 1 and state["ways"] > 1
    assert state["pipeline"]["validation_faults"] == 0


def simulated(kernel, program, config, hbt) -> tuple:
    """Run ``program`` through :class:`Simulator` on one kernel against a
    clone of ``hbt``; the result payload and the HBT it leaves behind (or
    the exception the run raised)."""
    lowered = LoweredWorkload(
        name=program.name,
        mechanism="aos",
        program=program,
        pointer_layout=LAYOUT,
        hbt_factory=hbt.clone,
    )
    left = {}

    def inspect(mcu, run_hbt):
        left.update(
            records=repr(run_hbt.records()),
            slots=run_hbt._table.tobytes(),
            stats=dataclasses.asdict(run_hbt.stats),
            geometry=(run_hbt.ways, run_hbt.old_ways, run_hbt.row_ptr, run_hbt.resizing),
        )

    try:
        result = Simulator(config, kernel=kernel).run(lowered, inspect=inspect)
    except Exception as exc:  # both kernels must fail the same way
        return f"raised {exc!r}", None
    return payload(result), left


@needs_compiler
@pytest.mark.parametrize("compression", [True, False])
def test_mid_run_resize_replaces_the_slot_array_on_both_kernels(compression):
    """bndstr bursts overflow one row twice under non-blocking resize: each
    resize replaces the slot array the C kernel walks while it runs, and
    the checks between the stores walk the new array, on both kernels."""
    pointers = [
        LAYOUT.sign(0x2000_0000 + 64 * index, 1, 1 + index % 3) for index in range(20)
    ]
    builder = ProgramBuilder("mid-run-resize")
    for index, pointer in enumerate(pointers):
        builder.emit_op(Op.BNDSTR, pointer, size=48)
        builder.emit_op(Op.LOAD, pointers[index // 2] + 8)
        builder.emit_op(Op.STORE, pointer + 40)
    for pointer in pointers[::3]:
        builder.emit_op(Op.BNDCLR, pointer)
    for pointer in pointers:
        builder.emit_op(Op.LOAD, pointer + 16)
    base = scaled_config("aos", 8)
    config = dataclasses.replace(
        base,
        aos=dataclasses.replace(
            base.aos, bounds_compression=compression, nonblocking_resize=True
        ),
    )
    hbt = HashedBoundsTable(pac_bits=LAYOUT.pac_bits, compression=compression)
    program = builder.build()
    want = simulated("reference", program, config, hbt)
    assert simulated("fast", program, config, hbt) == want
    result, left = want
    assert left["stats"]["resizes"] == 2 and left["geometry"][0] == 4
    assert json.loads(result)["validation_faults"] == 7


@needs_compiler
@pytest.mark.parametrize("compression", [True, False])
def test_stalled_migration_on_both_kernels(compression):
    """A table whose migration stalled half way (interrupt_migration): rows
    below RowPtr are steered to the new table and rows above it to the
    old one, for checks, bndstr and bndclr alike, on both kernels."""
    hbt = HashedBoundsTable(pac_bits=LAYOUT.pac_bits, compression=compression)
    for pac in (3, 40_000):
        hbt.insert(pac, 0x2000_0000 + pac * 64, 64)
    frozen = hbt.interrupt_migration()
    assert 3 < frozen < 40_000
    builder = ProgramBuilder("stalled")
    for pac in (3, 40_000, 7, 50_000):
        pointer = LAYOUT.sign(0x2100_0000 + pac * 64, pac, 1)
        builder.emit_op(Op.BNDSTR, pointer, size=32)
        builder.emit_op(Op.LOAD, LAYOUT.sign(0x2000_0000 + pac * 64, pac, 2))
        builder.emit_op(Op.LOAD, pointer + 24)
        builder.emit_op(Op.BNDCLR, pointer)
        builder.emit_op(Op.STORE, pointer + 8)
    base = scaled_config("aos", 8)
    config = dataclasses.replace(
        base, aos=dataclasses.replace(base.aos, bounds_compression=compression)
    )
    program = builder.build()
    want = simulated("reference", program, config, hbt)
    assert simulated("fast", program, config, hbt) == want
    _, left = want
    assert left["geometry"] == (2, 1, frozen, True)


# ------------------------------------------------------------------ build


def aos_cell(instructions=2500):
    config = scaled_config("aos", 8)
    trace = generate_trace(get_profile("gcc"), instructions=instructions, seed=7, scale=8)
    return config, lower_trace(trace, "aos", config=config)


def payload(result) -> str:
    return json.dumps(_result_to_payload(result), sort_keys=True)


@needs_compiler
def test_build_is_cached_by_digest_and_abi(monkeypatch, tmp_path):
    """A fresh cache root builds the module once under ``native/``; the
    next load reuses it without the compiler, and the artifact cache
    counts and prunes it like any entry."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(fast, "_native", None)
    path = fast.module_path()
    assert path.parent == tmp_path / "native"
    assert path.name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))
    assert fast.native() is not None and path.is_file()
    assert [p.name for p in path.parent.iterdir() if not p.name.startswith(".")] == [
        path.name
    ]

    def no_compiler(*args, **kwargs):
        raise AssertionError("the cached module must be reused")

    monkeypatch.setattr(fast, "_native", None)
    monkeypatch.setattr(fast.subprocess, "run", no_compiler)
    assert fast.native() is not None

    cache = ArtifactCache(tmp_path)
    assert cache.usage()["kinds"]["native"]["entries"] == 1
    cache.prune(0)
    assert not path.exists()


@needs_compiler
def test_pool_workers_inherit_the_kernel_the_parent_built(monkeypatch, tmp_path):
    """On an empty cache, a ``jobs=2`` run_cells compiles the kernel once,
    in the parent before the pool forks; no worker builds its own."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(fast, "_native", None)
    log = tmp_path / "compiler-pids"
    real_run = fast.subprocess.run

    def logged(command, *args, **kwargs):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        return real_run(command, *args, **kwargs)

    monkeypatch.setattr(fast.subprocess, "run", logged)
    cells = [CellSpec(workload, "aos") for workload in ("gobmk", "povray")]
    settings = RunSettings(instructions=2000, seed=7)
    results, _ = parallel.run_cells(settings, cells, jobs=2)
    assert len(results) == 2
    assert log.read_text().split() == [str(os.getpid())]


def test_failed_build_is_an_error(monkeypatch, tmp_path):
    """A host that has a compiler but cannot build raises and leaves no
    module, partial or whole, behind."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(fast, "_native", None)
    monkeypatch.setattr(fast, "_compiler", lambda: ["false"])
    with pytest.raises(SimulationError, match="building the fast kernel failed"):
        fast.native()
    assert [p for p in (tmp_path / "native").iterdir() if not p.name.endswith(".lock")] == []


@needs_compiler
def test_no_compiler_runs_reference_and_warns_once(monkeypatch):
    """Without a compiler, an untraced run takes the reference kernel,
    warns once per process and gives the C kernel's payload."""
    config, lowered = aos_cell()
    want = payload(Simulator(config).run(lowered))

    monkeypatch.setattr(fast, "_compiler", lambda: None)
    monkeypatch.setattr(fast, "_native", None)
    monkeypatch.setattr(fast, "_warned", False)
    calls = []
    real_pipeline = PipelineModel.run

    def spy_pipeline(self, program):
        calls.append("reference")
        return real_pipeline(self, program)

    monkeypatch.setattr(PipelineModel, "run", spy_pipeline)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = [payload(Simulator(config).run(lowered)) for _ in range(2)]
    assert calls == ["reference", "reference"]
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "no C compiler" in str(caught[0].message)
    assert got == [want, want]
    with pytest.raises(SimulationError, match="C compiler"):
        fast.run_fast(config, MemoryHierarchy(config.memory), None, 0, None, lowered.program)


# ---------------------------------------------------------- cache identity


def test_editing_the_c_source_changes_code_version(monkeypatch, tmp_path):
    """The C kernel is part of the source digest every cache key holds:
    an edit to ``_fast.c`` must not keep serving cached cells."""
    import shutil
    from pathlib import Path

    package = Path(parallel.__file__).resolve().parents[1]
    copy = tmp_path / "repro"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(parallel, "__file__", str(copy / "experiments" / "parallel.py"))

    def version():
        monkeypatch.setattr(parallel, "_CODE_DIGEST", None)
        return parallel.code_version()

    before = version()
    source = copy / "kernel" / "_fast.c"
    source.write_text(
        (source.read_text() if source.exists() else "") + "/* edited */\n"
    )
    assert version() != before
