"""The native module: the C scoreboard loop, the trace generator's
per-event loops, and their loader.

``run_fast`` reproduces :meth:`repro.cpu.pipeline.PipelineModel.run`
*exactly* — same floating-point operations in the same order, same queue
disciplines, same counter semantics — by running the loop in ``_fast.c``,
a CPython extension:

- it walks the same program columns the reference loop walks
  (:class:`~repro.isa.program.Program`, the one program format), in
  place: the ``kinds`` bytes, and the ``uint64`` addresses and sizes, the
  ``float64`` latencies and the ``int64`` CSR dependencies through the
  buffer protocol, with no copy and no per-instruction conversion;
- the ROB, load/store queues, MCQ and completion ring are C arrays of
  doubles, and the module is built with ``-ffp-contract=off``, so every
  float operation is the reference's IEEE double operation;
- cache accesses operate on the live ``Cache._sets`` dicts through the
  dict C API, keeping their LRU insertion order, so the kernel and the
  Python ``bndstr``/``bndclr`` path share one cache state;
- the MCU's selective bounds check runs in C against the HBT's flat slot
  array (``hbt._table``), which it walks through the buffer protocol with
  no Python call; only ``bndstr``/``bndclr`` (``bounds_store``/
  ``bounds_clear``), ``hbt.advance_migration``, the BWB ``OrderedDict``
  and the histogram call back into the attributes :func:`_bind_mcu` binds
  below.  After every callback the kernel re-reads the HBT geometry and
  re-acquires the slot array, which a resize replaces.

Counters come back from C and are added into the real ``stats`` objects
once, after the run.  The equivalence contract is enforced by
``tests/test_kernel_equivalence.py`` and ``tests/test_kernel_native.py``.

**Build.** :func:`native` compiles ``_fast.c`` on the first untraced
simulation or trace generation of a process (never at import) with
sysconfig's C compiler and include directory.  The module is cached in
the artifact cache root (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``)
under ``native/``, named by the digest of the C source and flags plus the
interpreter's ABI tag, and published by atomic rename under a file lock,
so concurrent workers build it once and never load a half-written file.  On a host with no C compiler
or no Python headers, :func:`native` returns None and warns once per
process, and :class:`~repro.cpu.core.Simulator` runs the reference kernel
instead, as trace generation runs its Python loops; a failed build on a
host that has both is an error.

Event tracing stays on the reference kernel: a run with a live tracer is
not a performance run, so :meth:`repro.cpu.core.Simulator.run` routes it
there, and ``run_fast`` refuses a tracer-bearing ``obs``.

**Generation.** The same module runs the per-event loops of
:func:`repro.workloads.generator.generate_trace` (the gshare warm-up,
the preamble size draws, the window) and the base pass's dependency dice
(:func:`repro.compiler.base.dependency_draws`) on CPython's own Mersenne
Twister stream: :func:`on_stream` hands a loop the state of
``rng.getstate()`` and puts the advanced state back with
``rng.setstate``.  The loops draw exactly what the Python loops draw, in
the same order, and write the same typed columns (the trace's event
columns, the preamble sizes, the dependency draws) into arrays the caller
hands them, through the buffer protocol; those Python loops stay as the
reference (``tests/test_generator_native.py``) and run wherever
:func:`native` returns None.
"""

from __future__ import annotations

import fcntl
import hashlib
import importlib.util
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path
from types import ModuleType
from typing import Callable, List, Optional

from ..cache.hierarchy import MemoryHierarchy
from ..config import SystemConfig
from ..core.mcu import MemoryCheckUnit
from ..cpu.pipeline import _FRONTEND_DEPTH, _RING, PipelineResult
from ..errors import SimulationError
from ..isa.program import Program

#: The kernel's C source, shipped as package data.
SOURCE = Path(__file__).with_name("_fast.c")

#: Flags of the build.  ``-ffp-contract=off`` keeps every float operation
#: unfused, which the byte-identical contract depends on.
CFLAGS = ("-shared", "-fPIC", "-O2", "-ffp-contract=off")
if sys.platform == "darwin":
    CFLAGS += ("-undefined", "dynamic_lookup")

_native: Optional[ModuleType] = None
_warned = False

_CACHE_FIELDS = ("accesses", "hits", "misses", "evictions", "writebacks")
_MCU_FIELDS = ("checks", "signed_checks", "forwards", "lines_accessed", "faults")


def _compiler() -> Optional[List[str]]:
    """The command prefix that compiles an extension for this interpreter
    (sysconfig's C compiler and include directory), or None when the
    compiler or the Python headers are missing."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    include = sysconfig.get_paths()["include"]
    if not cc or shutil.which(cc[0]) is None:
        return None
    if not (Path(include) / "Python.h").is_file():
        return None
    return [*cc, "-I", include]


def module_path() -> Path:
    """Where the built module for this source and interpreter lives."""
    from ..experiments.parallel import default_cache_dir

    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(" ".join(CFLAGS).encode())
    name = digest.hexdigest()[:16] + sysconfig.get_config_var("EXT_SUFFIX")
    return default_cache_dir() / "native" / name


def _build(compiler: List[str]) -> Path:
    """Compile the module unless the cache holds it; returns its path."""
    path = module_path()
    if path.is_file():
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path.with_name(f".{path.name}.lock"), "w") as lock:
        # Concurrent workers wait for one build instead of racing it.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not path.is_file():
            partial = path.with_name(f".{path.name}.{os.getpid()}")
            command = [*compiler, *CFLAGS, str(SOURCE), "-o", str(partial)]
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                partial.unlink(missing_ok=True)
                raise SimulationError(
                    f"building the fast kernel failed: {shlex.join(command)}\n"
                    f"{done.stderr}"
                )
            os.replace(partial, path)
    return path


def native() -> Optional[ModuleType]:
    """The compiled module, built on first use; None, with a warning once
    per process, when this host has no C compiler or Python headers."""
    global _native, _warned
    if _native is None:
        compiler = _compiler()
        if compiler is None:
            if not _warned:
                _warned = True
                warnings.warn(
                    "no C compiler or Python headers: the fast kernel cannot be "
                    "built, simulating on the reference kernel and generating "
                    "traces with the Python loops",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return None
        spec = importlib.util.spec_from_file_location(
            f"{__package__}._fast", _build(compiler)
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _native = module
    return _native


def on_stream(step: Callable) -> Callable:
    """The C generation ``step`` (``warm_branches``, ``preamble``,
    ``trace_window`` or ``dependency_draws``) as a call ``(rng, *args)`` on
    ``rng``'s own Mersenne Twister stream: it runs from ``rng.getstate()``
    and hands the advanced state back with ``rng.setstate``, so later draws
    continue where the C loop stopped."""

    def run(rng: random.Random, *args):
        version, internal, gauss = rng.getstate()
        internal, result = step(internal, *args)
        rng.setstate((version, internal, gauss))
        return result

    return run


def _level(cache) -> tuple:
    """One cache level as the C kernel reads it: its live sets and geometry."""
    return (
        cache._sets,
        cache.num_sets,
        cache.line_bits,
        cache.assoc,
        cache.hit_latency,
    )


def _bind_mcu(mcu: MemoryCheckUnit) -> tuple:
    """Everything the C bounds check reads or calls back into."""
    hbt = mcu.hbt
    layout = mcu.layout
    bwb = mcu.bwb
    histogram = mcu._h_lines
    return (
        hbt,
        layout.ahc_shift,
        (1 << layout.ahc_bits) - 1,
        layout.pac_shift,
        (1 << layout.pac_bits) - 1,
        mcu.options.nonblocking_resize,
        mcu.options.bounds_forwarding,
        mcu.MIGRATION_ROWS_PER_OP,
        mcu.CHECK_PIPELINE_CYCLES,
        mcu._recent_stores,
        None if histogram is None else histogram.observe,
        None if bwb is None else bwb._table,
        0 if bwb is None else bwb.entries,
        bwb is not None and bwb.eviction == "lru",
        hbt.advance_migration,
        hbt.compression,
        hbt.slots_per_way,
        hbt.lines_per_way,
        hbt.num_rows,
        mcu.bounds_store,
        mcu.bounds_clear,
    )


def _add(stats, fields, counts) -> None:
    for name, count in zip(fields, counts):
        setattr(stats, name, getattr(stats, name) + count)


def run_fast(
    config: SystemConfig,
    hierarchy: MemoryHierarchy,
    mcu: Optional[MemoryCheckUnit],
    va_mask: int,
    obs,
    program: Program,
) -> PipelineResult:
    """Run ``program`` through the fast kernel; equivalent to the reference
    ``PipelineModel(config, hierarchy, mcu, va_mask, obs).run(program)``."""
    if obs is not None and obs.tracer is not None:
        raise SimulationError(
            "the fast kernel does not trace events; "
            "the simulator must route traced runs to the reference kernel"
        )
    kernel = native()
    if kernel is None:
        raise SimulationError(
            "the fast kernel needs a C compiler and the Python headers"
        )

    core = config.core
    mcq_capacity = core.mcq_entries
    penalty = core.branch_mispredict_penalty
    core_spec = (
        1.0 / core.width,
        _FRONTEND_DEPTH,
        _RING,
        core.rob_entries,
        core.load_queue_entries,
        core.store_queue_entries,
        mcq_capacity,
        0.75 * mcq_capacity,
        penalty,
        penalty * 0.7,
        va_mask,
    )
    l1b = hierarchy.l1b
    memory = (
        _level(hierarchy.l1d),
        None if l1b is None else _level(l1b),
        _level(hierarchy.l2),
        hierarchy.line_bytes,
        hierarchy.config.dram_latency,
    )
    (
        cycles,
        instructions,
        mispredicts,
        mcq_stall,
        rob_stall,
        lsq_stall,
        faults,
        l1d_counts,
        l1b_counts,
        l2_counts,
        traffic,
        mcu_counts,
    ) = kernel.run(program, core_spec, memory, None if mcu is None else _bind_mcu(mcu))

    # ---- publish the C counters into the real stats objects --------------
    _add(hierarchy.l1d.stats, _CACHE_FIELDS, l1d_counts)
    if l1b_counts is not None:
        _add(l1b.stats, _CACHE_FIELDS, l1b_counts)
    _add(hierarchy.l2.stats, _CACHE_FIELDS, l2_counts)
    _add(hierarchy.traffic, ("l1_l2_bytes", "l2_dram_bytes"), traffic)
    hierarchy.dram_accesses += traffic[2]
    if mcu is not None:
        _add(mcu.stats, _MCU_FIELDS, mcu_counts)
        mcu.hbt.stats.lines_loaded += mcu_counts[5]
        if mcu.bwb is not None:
            _add(mcu.bwb.stats, ("lookups", "hits"), mcu_counts[6:])

    return PipelineResult(
        cycles=cycles,
        instructions=instructions,
        branch_mispredicts=mispredicts,
        mcq_stall_cycles=mcq_stall,
        rob_stall_cycles=rob_stall,
        lsq_stall_cycles=lsq_stall,
        validation_faults=faults,
    )
