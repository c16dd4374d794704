"""The simulator facade: wires config, hierarchy, MCU and pipeline together.

:class:`Simulator` takes a :class:`~repro.config.SystemConfig` and a lowered
workload (a :class:`~repro.compiler.passes.LoweredWorkload`) and produces a
:class:`SimulationResult` with all the measurements the paper's evaluation
section reports: execution cycles, network traffic, bounds-table access
statistics, BWB hit rate, and HBT resize counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from ..config import SystemConfig
from ..cache.hierarchy import MemoryHierarchy
from ..core.mcu import MemoryCheckUnit
from ..isa.program import Program
from ..kernel import validate_kernel
from ..kernel.fast import native, run_fast
from .pipeline import PipelineModel, PipelineResult

if TYPE_CHECKING:
    from ..obs import Observability


@dataclass
class SimulationResult:
    """Everything one simulated run produces."""

    name: str
    mechanism: str
    cycles: float
    instructions: int
    pipeline: PipelineResult
    #: Bytes on the L1<->L2 and L2<->DRAM links (Fig. 18 metric).
    l1_l2_bytes: int = 0
    l2_dram_bytes: int = 0
    cache_summary: Dict[str, float] = field(default_factory=dict)
    #: MCU statistics (Fig. 17: accesses per check, BWB hit rate).
    bounds_accesses_per_check: float = 0.0
    bwb_hit_rate: float = 0.0
    hbt_resizes: int = 0
    bounds_forwards: int = 0
    validation_faults: int = 0
    #: Metrics snapshot (``MetricsRegistry.snapshot()``) when the run was
    #: observed; empty otherwise.  JSON-able, so it survives the pickle
    #: trip back from parallel workers and the artifact cache.
    metrics: Dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def network_traffic_bytes(self) -> int:
        return self.l1_l2_bytes + self.l2_dram_bytes


class Simulator:
    """Runs lowered workloads on the Table IV machine."""

    def __init__(
        self,
        config: SystemConfig,
        obs: Optional["Observability"] = None,
        kernel: str = "fast",
    ) -> None:
        self.config = config
        #: Observability handle threaded into every component of a run;
        #: ``None`` (the default) keeps the simulator uninstrumented.
        self.obs = obs
        #: Which simulation kernel executes an untraced program: ``"fast"``
        #: (the C scoreboard loop of :mod:`repro.kernel.fast`, built once
        #: per source digest and ABI into the artifact cache root; the
        #: production kernel) or ``"reference"`` (the readable
        #: PipelineModel, the oracle tests and tools compare against).
        #: Results are byte-identical, enforced by
        #: tests/test_kernel_equivalence.py.  On a host with no C compiler
        #: or Python headers, ``"fast"`` runs the reference kernel and
        #: warns once per process.
        self.kernel = validate_kernel(kernel)

    def run(self, lowered, inspect=None) -> SimulationResult:
        """Simulate one lowered workload; returns the full measurement set.

        ``lowered`` is a :class:`~repro.compiler.passes.LoweredWorkload`
        (program + pre-warmed HBT + layout) or a bare
        :class:`~repro.isa.program.Program` for unprotected runs.

        ``inspect``, if given, is called as ``inspect(mcu, hbt)`` after the
        pipeline drains but before the MCU/HBT are discarded — the seam the
        ``--paranoid`` invariant oracle audits through (either argument may
        be None for unprotected mechanisms).  An exception it raises
        propagates: a failed audit must fail the cell, not be summarized.
        """
        if isinstance(lowered, Program):
            program = lowered
            hbt = None
            pointer_layout = None
            name = lowered.name
        else:
            program = lowered.program
            hbt = lowered.hbt  # fresh, pre-warmed copy per run
            pointer_layout = lowered.pointer_layout
            name = lowered.name

        uses_aos = hbt is not None and pointer_layout is not None
        hierarchy = MemoryHierarchy(
            self.config.memory,
            use_l1b=uses_aos and self.config.aos.l1b_cache,
        )

        obs = self.obs
        mcu: Optional[MemoryCheckUnit] = None
        va_mask = (1 << 46) - 1
        if uses_aos:
            va_mask = pointer_layout.va_mask
            mcu = MemoryCheckUnit(
                hbt=hbt,
                layout=pointer_layout,
                options=self.config.aos,
                bwb_config=self.config.bwb,
                mcq_capacity=self.config.core.mcq_entries,
                bounds_access=hierarchy.access_bounds,
                obs=obs,
            )
            # The HBT is built at lowering time, before this run's obs
            # exists; attach it here so resize events are cycle-stamped.
            hbt.set_obs(obs)

        # Event tracing is only wired through the reference kernel (a traced
        # run is a debugging run, not a perf run); every other run takes the
        # fast kernel unless a test asked for the oracle or the host cannot
        # build it.
        untraced = obs is None or obs.tracer is None
        if self.kernel == "fast" and untraced and native() is not None:
            result = run_fast(self.config, hierarchy, mcu, va_mask, obs, program)
        else:
            pipeline = PipelineModel(
                self.config, hierarchy, mcu=mcu, va_mask=va_mask, obs=obs
            )
            result = pipeline.run(program)
        if inspect is not None:
            inspect(mcu, hbt)

        sim = SimulationResult(
            name=name,
            mechanism=self.config.mechanism,
            cycles=result.cycles,
            instructions=result.instructions,
            pipeline=result,
            l1_l2_bytes=hierarchy.traffic.l1_l2_bytes,
            l2_dram_bytes=hierarchy.traffic.l2_dram_bytes,
            cache_summary=hierarchy.summary(),
            validation_faults=result.validation_faults,
        )
        if mcu is not None:
            sim.bounds_accesses_per_check = mcu.stats.accesses_per_check
            if mcu.bwb is not None:
                sim.bwb_hit_rate = mcu.bwb.stats.hit_rate
            # hbt.stats counts both preamble (pre-window program history)
            # and in-window resizes — matching the paper's whole-run count.
            sim.hbt_resizes = hbt.stats.resizes
            sim.bounds_forwards = mcu.stats.forwards

        if obs is not None:
            # Bulk harvest: one pass over the components' stats dataclasses
            # after the pipeline drains, then a JSON-able snapshot.
            registry = obs.registry
            hierarchy.publish_metrics(registry)
            result.publish_metrics(registry)
            if mcu is not None:
                mcu.publish_metrics(registry)
            if obs.tracer is not None:
                # Stamp any post-run events at the final commit cycle.
                obs.tracer.cycle = result.cycles
                obs.tracer.emit(
                    "run.done",
                    instructions=result.instructions,
                    mechanism=self.config.mechanism,
                    workload=name,
                )
            sim.metrics = obs.snapshot()
        return sim
