"""Conformance harness: the fast kernel is byte-identical to the reference.

``repro.kernel.fast`` runs the reference scoreboard (:mod:`repro.cpu.pipeline`)
transcribed to C: ``_fast.c``, a CPython extension built on the first
untraced simulation and cached in the artifact cache root by source digest
and ABI tag (a host with no C compiler runs the reference kernel instead
and warns once; ``tests/test_kernel_native.py`` covers the build, that
fallback and random programs).  Their contract is *bit-exact*
equivalence, not statistical agreement.  Every test here runs the same
lowered workload through both kernels and compares the JSON-serialised
:class:`SimulationResult` payloads byte for byte — cycles (floats
included), cache summaries, traffic, MCU/HBT/BWB statistics and metrics
snapshots.

Coverage axes:

- every workload profile (SPEC 2006 + real-world) x {baseline, aos};
- one workload x every timed mechanism in the registry (the grid is
  registry-driven: a new plugin grows it automatically);
- every AOS ablation flag (Fig. 15 axes) plus BWB eviction policy;
- metrics-bearing observability (the fast path must publish the same
  counters) and tracing observability (the fast kernel must *delegate*);
- fault-injected cells through the standard seams (dropped ``bndstr``,
  stalled migration, dropped HBT record);
- the experiment-suite plumbing: untraced cells take the fast kernel and
  still match the reference;
- the shared trace memo: its keys (which config fields give a separate
  product, which share one) and memo cells equal to fresh cells.
"""

from __future__ import annotations

import dataclasses
import json
from functools import partial

import pytest

from repro.compiler import lower_trace
from repro.cache.hierarchy import MemoryHierarchy
from repro.core.mcu import MemoryCheckUnit
from repro.cpu.core import Simulator
from repro.cpu.pipeline import PipelineModel
from repro.errors import ConfigError, SimulationError
from repro.experiments.common import (
    ExperimentSuite,
    RunSettings,
    _result_to_payload,
    scaled_config,
)
from repro.experiments.fig15 import VARIANTS as FIG15_VARIANTS
from repro.experiments.parallel import (
    CellSpec,
    TraceMemo,
    load_cell_trace,
    simulate_cell,
)
from repro.kernel import KERNELS
from repro.kernel.fast import _compiler as native_compiler
from repro.kernel.fast import native, run_fast
from repro.mechanisms import REGISTRY
from repro.obs import EventTracer, Observability
from repro.workloads import generate_trace, get_profile
from repro.workloads.profiles import ALL_PROFILES

SEED = 7
SCALE = 8

#: Every registered mechanism with a timing lowering — the cell grid
#: grows automatically when a mechanism plugin registers.
ALL_MECHANISMS = list(REGISTRY.timed_names())

# ----------------------------------------------------------------- helpers

_traces: dict = {}
_lowered: dict = {}


def get_trace(workload: str, instructions: int):
    key = (workload, instructions)
    if key not in _traces:
        _traces[key] = generate_trace(
            get_profile(workload), instructions=instructions, seed=SEED, scale=SCALE
        )
    return _traces[key]


def get_lowered(workload: str, mechanism: str, instructions: int, config, key=None):
    cache_key = (workload, mechanism, instructions, key)
    if cache_key not in _lowered:
        _lowered[cache_key] = lower_trace(
            get_trace(workload, instructions), mechanism, config=config
        )
    return _lowered[cache_key]


def payload(result) -> str:
    """Canonical byte string of everything a run measured."""
    return json.dumps(_result_to_payload(result), sort_keys=True)


def simulate(kernel, workload, mechanism, instructions, config=None, key=None, obs=None):
    config = config or scaled_config(mechanism, SCALE)
    lowered = get_lowered(workload, mechanism, instructions, config, key=key)
    return Simulator(config, obs=obs, kernel=kernel).run(lowered)


def assert_equivalent(workload, mechanism, instructions, config=None, key=None):
    """Reference and fast kernels, byte for byte."""
    config = config or scaled_config(mechanism, SCALE)
    reference = simulate("reference", workload, mechanism, instructions, config, key)
    want = payload(reference)
    tag = f"{workload}/{mechanism} ({key or 'default'})"
    fast = simulate("fast", workload, mechanism, instructions, config, key)
    assert payload(fast) == want, f"fast kernel divergence: {tag}"
    return reference


# ------------------------------------------------- all profiles, both modes


@pytest.mark.parametrize("workload", sorted(ALL_PROFILES))
def test_equivalence_all_profiles(workload):
    """Every workload profile, unprotected and fully protected."""
    for mechanism in ("baseline", "aos"):
        assert_equivalent(workload, mechanism, instructions=2500)


# ------------------------------------------------------------ all mechanisms


@pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
def test_equivalence_all_mechanisms(mechanism):
    """One cache-stressing workload through every protection mechanism."""
    assert_equivalent("gcc", mechanism, instructions=6000)


def test_mechanism_grid_is_complete():
    """The equivalence grid covers every registered mechanism: timed ones
    run through the kernels above; anything else must be explicitly
    declared untimed (analytical models have no kernel to diverge)."""
    assert set(ALL_MECHANISMS) | set(REGISTRY.untimed_names()) == set(REGISTRY.names())
    assert len(REGISTRY.names()) >= 12


# ------------------------------------------------------------- AOS ablations


def ablated(key: str):
    base = scaled_config("aos", SCALE)
    if key == "fifo-bwb":
        return dataclasses.replace(
            base, bwb=dataclasses.replace(base.bwb, eviction="fifo")
        )
    flags = {
        "no-l1b": {"l1b_cache": False},
        "no-compression": {"bounds_compression": False},
        "no-forwarding": {"bounds_forwarding": False},
        "no-bwb": {"bwb_enabled": False},
        "blocking-resize": {"nonblocking_resize": False},
    }[key]
    return dataclasses.replace(base, aos=dataclasses.replace(base.aos, **flags))


@pytest.mark.parametrize(
    "ablation",
    ["no-l1b", "no-compression", "no-forwarding", "no-bwb", "blocking-resize", "fifo-bwb"],
)
def test_equivalence_ablations(ablation):
    """The Fig. 15 ablation axes flow through both kernels identically."""
    assert_equivalent("gcc", "aos", instructions=6000, config=ablated(ablation), key=ablation)


# ------------------------------------------------------------- observability


def test_equivalence_with_metrics():
    """Metrics-only observability: the fast path itself runs (no tracer)
    and must publish byte-identical ``publish_metrics`` counters."""
    results = {}
    for kernel in KERNELS:
        results[kernel] = simulate(
            kernel, "gcc", "aos", instructions=5000, obs=Observability()
        )
    assert results["fast"].metrics, "metrics snapshot missing"
    for kernel in KERNELS:
        assert payload(results[kernel]) == payload(results["reference"]), kernel


def test_fast_kernel_delegates_when_tracing():
    """A tracer forces the reference path; results still match exactly."""
    results = {
        kernel: simulate(
            kernel,
            "gcc",
            "aos",
            instructions=4000,
            obs=Observability(tracer=EventTracer()),
        )
        for kernel in KERNELS
    }
    assert payload(results["fast"]) == payload(results["reference"])


def test_run_fast_refuses_tracer():
    """Calling the fast kernel directly with a tracer is a usage error —
    only :class:`Simulator` knows how to delegate."""
    config = scaled_config("aos", SCALE)
    lowered = get_lowered("gcc", "aos", 2500, config)
    hierarchy = MemoryHierarchy(config.memory, use_l1b=True)
    obs = Observability(tracer=EventTracer())
    with pytest.raises(SimulationError):
        run_fast(config, hierarchy, None, (1 << 46) - 1, obs, lowered.program)


# ---------------------------------------------------------- fault injection


def run_wired(kernel, lowered, config, arm=None) -> str:
    """Mirror :meth:`Simulator.run`'s wiring so fault seams can be armed
    on the components *before* the kernel executes; returns the canonical
    byte string of everything the run touched."""
    program = lowered.program
    hbt = lowered.hbt  # fresh pre-warmed clone per call
    layout = lowered.pointer_layout
    hierarchy = MemoryHierarchy(config.memory, use_l1b=config.aos.l1b_cache)
    va_mask = layout.va_mask
    mcu = MemoryCheckUnit(
        hbt=hbt,
        layout=layout,
        options=config.aos,
        bwb_config=config.bwb,
        mcq_capacity=config.core.mcq_entries,
        bounds_access=hierarchy.access_bounds,
    )
    if arm is not None:
        arm(mcu, hbt)
    if kernel == "fast":
        result = run_fast(config, hierarchy, mcu, va_mask, None, program)
    else:
        result = PipelineModel(
            config, hierarchy, mcu=mcu, va_mask=va_mask, obs=None
        ).run(program)
    state = {
        "pipeline": dataclasses.asdict(result),
        "cache": hierarchy.summary(),
        "mcu": dataclasses.asdict(mcu.stats),
        "hbt": dataclasses.asdict(hbt.stats),
        "bwb": None if mcu.bwb is None else dataclasses.asdict(mcu.bwb.stats),
        "records": hbt.total_records(),
        "ways": hbt.ways,
        "resizing": hbt.resizing,
    }
    return json.dumps(state, sort_keys=True)


FAULT_SCENARIOS = {
    # A lost table write: allocations go live with no bounds, later checks
    # on them fault.
    "drop-bndstr": lambda mcu, hbt: mcu.inject_drop_bndstr(3),
    # Table manager dies mid-resize: Fig. 10 steering splits accesses
    # between old and new tables for the whole run.
    "stalled-migration": lambda mcu, hbt: hbt.interrupt_migration(),
    # A flipped valid bit / lost line: one live record vanishes.
    "dropped-record": lambda mcu, hbt: hbt.drop_record(*hbt.live_slots()[0]),
}


@pytest.mark.skipif(native_compiler() is None, reason="no C compiler")
@pytest.mark.parametrize("scenario", sorted(FAULT_SCENARIOS))
def test_equivalence_under_fault_injection(scenario):
    """Fault-injected cells (the campaign seams) diverge in *behaviour*
    but never between kernels."""
    config = scaled_config("aos", SCALE)
    lowered = get_lowered("gcc", "aos", 5000, config)
    arm = FAULT_SCENARIOS[scenario]
    reference = run_wired("reference", lowered, config, arm=arm)
    fast = run_wired("fast", lowered, config, arm=arm)
    assert fast == reference, f"kernel divergence under fault {scenario!r}"


# --------------------------------------------------------- suite / settings


def test_equivalence_through_experiment_suite():
    """A suite cell (fast kernel) matches the reference on the same input."""
    suite = ExperimentSuite(RunSettings(instructions=4000))
    got = suite.result("mcf", "aos")
    config = suite.config_for("aos")
    lowered = lower_trace(suite.trace("mcf"), "aos", config)
    want = Simulator(config, kernel="reference").run(lowered)
    assert payload(got) == payload(want)


# ------------------------------------------------------- shared trace memo


MEMO_SETTINGS = RunSettings(instructions=2500, seed=SEED, scale=SCALE)


def fig15_cells(workload):
    """The four Fig. 15 AOS variants of one workload, as `run_fig15` builds them."""
    base = scaled_config("aos", SCALE)
    return [
        CellSpec(
            workload,
            "aos",
            config=base.with_aos_options(l1b_cache=l1b, bounds_compression=compression),
            key=f"aos-{variant}",
        )
        for variant, (l1b, compression) in FIG15_VARIANTS.items()
    ]


def group_memo(cells):
    """The memo one trace group's task builds for ``cells``."""
    return TraceMemo(
        partial(load_cell_trace, MEMO_SETTINGS, cells[0]),
        [(cell.mechanism, cell.resolved_config(MEMO_SETTINGS)) for cell in cells],
    )


def held(memo) -> int:
    """The products ``memo`` still holds."""
    stores = (memo._bases, memo._lowerings, memo._factories, memo._products)
    return sum(map(len, stores))


def test_memo_shares_one_program_across_fig15_variants(monkeypatch):
    """L1-B and compression are never read by lowering: the Fig. 14 aos
    cell and the four Fig. 15 variants share one Program object."""
    from repro.experiments import parallel

    lowerings = []
    real = parallel.lower_trace

    def lower_trace(*args, **kwargs):
        lowerings.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel, "lower_trace", lower_trace)
    cells = [CellSpec("gcc", "aos")] + fig15_cells("gcc")
    memo = group_memo(cells)
    lowered = [
        memo.lowering(cell.mechanism, cell.resolved_config(MEMO_SETTINGS))
        for cell in cells
    ]
    assert len({id(item.program) for item in lowered}) == 1
    assert lowerings == ["aos"]
    # Compression changes the HBT geometry: two prototypes, not five.
    factories = {id(item.hbt_factory) for item in lowered}
    assert len(factories) == 2


def _replace_field(config, path, value):
    section, name = path.split(".")
    inner = dataclasses.replace(getattr(config, section), **{name: value})
    return dataclasses.replace(config, **{section: inner})


@pytest.mark.parametrize(
    "path, value",
    [
        ("pa.pac_bits", 17),
        ("pa.key", 0x1234),
        ("hbt.initial_ways", 2),
        ("aos.bounds_compression", False),
    ],
)
def test_memo_key_fields_give_separate_products(path, value):
    """Each field lowering or the HBT pre-warm reads is part of a memo key:
    changing it gives a separate product, equal to a fresh lowering."""
    base = scaled_config("aos", SCALE)
    changed = _replace_field(base, path, value)
    memo = TraceMemo(lambda: get_trace("gcc", 2500), [("aos", base), ("aos", changed)])
    first, second = memo.lowering("aos", base), memo.lowering("aos", changed)
    assert second.hbt_factory is not first.hbt_factory
    if path.startswith("pa."):
        assert second.program is not first.program
        assert second.signed != first.signed
    else:
        assert second.program is first.program
    fresh = lower_trace(get_trace("gcc", 2500), "aos", config=changed)
    want = payload(Simulator(changed, kernel="reference").run(fresh))
    assert payload(Simulator(changed, kernel="reference").run(second)) == want


def test_memo_cells_match_fresh_cells():
    """Every timed mechanism plus the Fig. 15 variants through one group
    memo equal fresh single-cell runs byte for byte, and the memo holds
    nothing once its last cell ran."""
    cells = [CellSpec("gcc", mechanism) for mechanism in ALL_MECHANISMS]
    cells += fig15_cells("gcc")
    memo = group_memo(cells)
    for cell in cells:
        shared = simulate_cell(MEMO_SETTINGS, cell, memo=memo)
        fresh = simulate_cell(MEMO_SETTINGS, cell)
        assert payload(shared) == payload(fresh), cell.cache_key
    assert held(memo) == 0


@pytest.mark.skipif(native_compiler() is None, reason="no C compiler")
def test_default_runs_take_fast_kernel_and_traced_runs_take_reference(monkeypatch):
    """No option picks the kernel: an untraced run — a bare Simulator or an
    ExperimentSuite cell — executes run_fast, which runs the C extension;
    a traced run executes the reference PipelineModel, the only kernel
    that emits events."""
    import repro.cpu.core as core

    calls = []
    real_fast, real_pipeline = core.run_fast, PipelineModel.run
    extension = native()
    real_native = extension.run

    def spy_fast(*args, **kwargs):
        calls.append("fast")
        return real_fast(*args, **kwargs)

    def spy_native(*args):
        calls.append("native")
        return real_native(*args)

    def spy_pipeline(self, program):
        calls.append("reference")
        return real_pipeline(self, program)

    monkeypatch.setattr(core, "run_fast", spy_fast)
    monkeypatch.setattr(extension, "run", spy_native)
    monkeypatch.setattr(PipelineModel, "run", spy_pipeline)

    config = scaled_config("aos", SCALE)
    lowered = get_lowered("gcc", "aos", 2500, config)
    Simulator(config).run(lowered)
    assert calls == ["fast", "native"]

    calls.clear()
    ExperimentSuite(RunSettings(instructions=2500)).result("mcf", "baseline")
    assert calls == ["fast", "native"]

    calls.clear()
    traced = Observability(tracer=EventTracer())
    Simulator(config, obs=traced).run(lowered)
    assert calls == ["reference"]


def test_invalid_kernel_rejected():
    config = scaled_config("aos", SCALE)
    for name in ("turbo", "bogus"):
        with pytest.raises(ConfigError):
            Simulator(config, kernel=name)


# ------------------------------------------------------- adversarial corpus


#: Scenario programs exercise paths ordinary traces rarely hit back to back
#: (OOB loads faulting mid-stream, stale accesses after reuse, the §VII-C
#: unsigned-pointer skip), so they get their own byte-equality pins.
CORPUS_SCENARIOS = (
    "heap-overflow-adjacent",
    "uaf-after-realloc",
    "ahc-zero-escape",
    "nonlinear-oob-read",
)


@pytest.mark.parametrize("scenario", CORPUS_SCENARIOS)
def test_equivalence_on_corpus_scenarios(scenario):
    """Compiled exploit scenarios run byte-identically on both kernels."""
    from repro.adversary import compile_scenario

    for mechanism in ("aos", "pa+aos"):
        config = scaled_config(mechanism, SCALE)
        lowered = compile_scenario(
            scenario, mechanism, seed=SEED, scale=SCALE, config=config
        )
        reference = Simulator(config, kernel="reference").run(lowered)
        fast = Simulator(config, kernel="fast").run(lowered)
        assert payload(fast) == payload(reference), (
            f"fast divergence on corpus scenario {scenario}/{mechanism}"
        )


def test_corpus_scenario_faults_visible_to_both_kernels():
    """The compiled exploit actually fires: both kernels report the same
    non-zero validation fault count for a spatial must-detect."""
    from repro.adversary import compile_scenario

    config = scaled_config("aos", SCALE)
    lowered = compile_scenario(
        "heap-overflow-adjacent", "aos", seed=SEED, scale=SCALE, config=config
    )
    results = [
        Simulator(config, kernel=kernel).run(lowered) for kernel in KERNELS
    ]
    assert results[0].validation_faults > 0
    assert all(
        r.validation_faults == results[0].validation_faults for r in results
    )
