"""The out-of-order scoreboard pipeline — the timing heart of the simulator.

Rather than a cycle-by-cycle loop (prohibitively slow in Python for
multi-hundred-thousand-instruction traces), each dynamic instruction is
processed once, O(1), through a scoreboard.  :meth:`PipelineModel.run` is
the reference kernel and the specification: it walks the same
:class:`~repro.isa.program.Program` columns the C loop of
:mod:`repro.kernel.fast` reads (the ``kinds`` dispatch codes, the
addresses, sizes and resolved latencies, the CSR dependencies), which must
match it byte for byte.  The scoreboard tracks:

- **fetch bandwidth** — ``width`` instructions per cycle;
- **ROB occupancy**   — fetch stalls when 192 entries are in flight;
- **load/store queues** — issue stalls when the 32-entry queues are full;
- **MCQ occupancy**   — memory instructions stall at issue while the MCU
  is full, the back-pressure effect of §V-A / §IX-A;
- **data dependencies** — through each instruction's dependency distances;
- **execution latencies** — ALU/FP/crypto fixed, loads from the cache
  hierarchy, bounds validation from the MCU;
- **delayed retirement** — an instruction may not commit until its bounds
  validation completes (precise exceptions, §III-C.4);
- **branch refills**  — mispredicted branches stall fetch until resolution
  plus the refill penalty.  A branch whose resolution is already covered
  by other stalls costs nothing extra — which is how the paper's
  "back-pressure prevented aggressive speculation" speedups (§IX-A)
  emerge naturally.

This is the standard first-order analytical OoO model; it preserves the
relative effects the paper's evaluation discusses while remaining fast.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..config import SystemConfig
from ..cache.hierarchy import MemoryHierarchy
from ..core.mcu import MemoryCheckUnit
from ..isa.instructions import Op
from ..isa.program import (
    KIND_BNDCLR,
    KIND_BNDSTR,
    KIND_BRANCH_MISS,
    KIND_LOAD,
    KIND_MARKER,
    KIND_STORE,
    KIND_WCHK,
    Program,
)

if TYPE_CHECKING:
    from ..obs import Observability

#: Ring size for completion-time lookback; deps must be closer than this.
_RING = 512
_RING_MASK = _RING - 1

#: Pipeline depth from fetch to issue (front-end stages).
_FRONTEND_DEPTH = 4

#: Instructions between MCQ-occupancy counter samples in a traced run —
#: frequent enough to plot back-pressure, sparse enough not to dominate
#: the event ring.
_MCQ_SAMPLE_MASK = 511

#: Concurrent bounds-check walks the MCU sustains (its bounds-line ports).
#: A port is busy from check start until the bounds data returns, so both
#: hit-bandwidth-bound workloads (hmmer: >99 % signed, high IPC) and
#: miss-latency-bound ones (gcc: bounds lines falling out of a thrashed
#: L2) queue behind the MCU — the two §IX-A overhead stories.
_MCU_PORTS = 2

#: The ``op=`` name of a traced ``mcq.enqueue`` event, per kind that
#: enters the MCQ.
_MCQ_OP_NAME = {
    KIND_LOAD: Op.LOAD.name,
    KIND_STORE: Op.STORE.name,
    KIND_BNDSTR: Op.BNDSTR.name,
    KIND_BNDCLR: Op.BNDCLR.name,
}


@dataclass
class PipelineResult:
    """Timing outcome of one program run."""

    cycles: float
    instructions: int
    branch_mispredicts: int = 0
    mcq_stall_cycles: float = 0.0
    rob_stall_cycles: float = 0.0
    lsq_stall_cycles: float = 0.0
    validation_faults: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def publish_metrics(self, registry) -> None:
        """Harvest the timing outcome into a ``MetricsRegistry``."""
        registry.count("pipeline.instructions", self.instructions)
        registry.count("pipeline.branch_mispredicts", self.branch_mispredicts)
        registry.count("pipeline.validation_faults", self.validation_faults)
        registry.set_gauge("pipeline.cycles", self.cycles)
        registry.set_gauge("pipeline.ipc", self.ipc)
        registry.set_gauge("pipeline.mcq_stall_cycles", self.mcq_stall_cycles)
        registry.set_gauge("pipeline.rob_stall_cycles", self.rob_stall_cycles)
        registry.set_gauge("pipeline.lsq_stall_cycles", self.lsq_stall_cycles)


class PipelineModel:
    """Scoreboard OoO model parameterised by a :class:`SystemConfig`."""

    def __init__(
        self,
        config: SystemConfig,
        hierarchy: MemoryHierarchy,
        mcu: Optional[MemoryCheckUnit] = None,
        va_mask: int = (1 << 46) - 1,
        obs: Optional["Observability"] = None,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.mcu = mcu
        self.va_mask = va_mask
        self.obs = obs

    def run(self, program: Program) -> PipelineResult:
        core = self.config.core
        width = core.width
        fetch_step = 1.0 / width
        penalty = core.branch_mispredict_penalty
        mcu = self.mcu
        hierarchy = self.hierarchy
        va_mask = self.va_mask
        # Hot-loop locals: tracing costs nothing when no tracer is attached
        # (one `is not None` test per memory instruction).
        obs = self.obs
        tracer = obs.tracer if obs is not None else None

        completion_ring = [0.0] * _RING
        rob = deque()
        load_queue = deque()
        store_queue = deque()
        mcq = deque()
        mcq_capacity = core.mcq_entries

        fetch_time = 0.0
        commit_cursor = 0.0
        last_commit = 0.0
        stall_until = 0.0

        mispredicts = 0
        mcq_stall = 0.0
        rob_stall = 0.0
        lsq_stall = 0.0
        faults = 0
        retired = 0
        mcu_ports = [0.0] * _MCU_PORTS

        # The program's columns, the ones the C loop reads, as Python lists.
        addresses = program.addresses.tolist()
        sizes = program.sizes.tolist()
        latencies = program.latencies.tolist()
        dep_offsets = program.dep_offsets.tolist()
        dep_distances = program.dep_distances.tolist()

        for i, kind in enumerate(program.kinds):
            if kind == KIND_MARKER:
                completion_ring[i & _RING_MASK] = fetch_time
                continue

            # ---- fetch: bandwidth, branch refill, ROB occupancy ----------
            if stall_until > fetch_time:
                fetch_time = stall_until
            if len(rob) >= core.rob_entries:
                head = rob.popleft()
                if head > fetch_time:
                    rob_stall += head - fetch_time
                    fetch_time = head
            fetch_time += fetch_step

            # ---- dependencies -------------------------------------------
            ready = fetch_time + _FRONTEND_DEPTH
            for d in dep_distances[dep_offsets[i] : dep_offsets[i + 1]]:
                t = completion_ring[(i - d) & _RING_MASK]
                if t > ready:
                    ready = t

            # ---- structural hazards at issue ----------------------------
            address = addresses[i]
            is_load = kind == KIND_LOAD
            is_store = kind == KIND_STORE
            if is_load:
                if len(load_queue) >= core.load_queue_entries:
                    head = load_queue.popleft()
                    if head > ready:
                        lsq_stall += head - ready
                        ready = head
            elif is_store:
                if len(store_queue) >= core.store_queue_entries:
                    head = store_queue.popleft()
                    if head > ready:
                        lsq_stall += head - ready
                        ready = head

            # §V-A: every memory instruction is co-issued to the MCU (and so
            # occupies an MCQ entry); only signed ones pay validation.
            is_table_op = kind == KIND_BNDSTR or kind == KIND_BNDCLR
            enters_mcu = mcu is not None and (is_load or is_store or is_table_op)
            needs_validation = mcu is not None and (
                is_table_op or ((is_load or is_store) and address > va_mask)
            )
            if enters_mcu and len(mcq) >= mcq_capacity:
                head = mcq.popleft()
                if head > ready:
                    mcq_stall += head - ready
                    ready = head

            issue = ready
            if tracer is not None:
                # The pipeline owns "now": every event the MCU emits while
                # validating this instruction stamps at its issue cycle.
                tracer.cycle = issue
                if enters_mcu:
                    tracer.emit(
                        "mcq.enqueue", occupancy=len(mcq), op=_MCQ_OP_NAME[kind]
                    )
                if (i & _MCQ_SAMPLE_MASK) == 0:
                    tracer.emit("mcq.occupancy", phase="C", entries=len(mcq))

            # ---- execute -------------------------------------------------
            check_done = issue
            if is_load:
                latency = hierarchy.access_data(address & va_mask, False)
                completion = issue + latency
            elif is_store:
                hierarchy.access_data(address & va_mask, True)
                completion = issue + 1.0
            elif kind == KIND_WCHK:
                # Watchdog check µop: loads its metadata record.
                latency = hierarchy.access_metadata(address, False)
                completion = issue + latency
            else:
                completion = issue + latencies[i]

            # ---- bounds validation (MCU) ---------------------------------
            mcq_busy_until = 0.0
            if needs_validation:
                if kind == KIND_BNDSTR:
                    outcome = mcu.bounds_store(address, sizes[i])
                elif kind == KIND_BNDCLR:
                    outcome = mcu.bounds_clear(address)
                else:
                    outcome = mcu.check_access(address, is_store=is_store)
                if not outcome.ok:
                    faults += 1
                if is_table_op:
                    # Fig. 8b: bndstr/bndclr retire from the ROB and send
                    # their store afterwards (BndStr waits for Committed);
                    # the walk occupies the MCQ but does not delay commit.
                    mcq_busy_until = issue + outcome.latency
                else:
                    # Loads/stores may not retire until validated (precise
                    # exceptions, §III-C.4): delayed retirement, behind the
                    # MCU's bounds-check ports (busy until data returns).
                    port = 0 if mcu_ports[0] <= mcu_ports[1] else 1
                    check_start = issue if issue > mcu_ports[port] else mcu_ports[port]
                    check_done = check_start + outcome.latency
                    mcu_ports[port] = check_done

            # ---- commit (in-order, width per cycle, delayed retirement) --
            ready_commit = completion if completion > check_done else check_done
            if ready_commit < last_commit:
                ready_commit = last_commit
            commit_cursor += fetch_step
            commit_time = ready_commit if ready_commit > commit_cursor else commit_cursor
            commit_cursor = commit_time
            last_commit = commit_time

            rob.append(commit_time)
            if is_load:
                # LSQ entries live until commit (gem5-style in-order drain).
                load_queue.append(commit_time)
            elif is_store:
                store_queue.append(commit_time)
            if enters_mcu:
                # MCQ entries deallocate at the head, once Done + committed;
                # a bndstr may finish its walk after it left the ROB.
                mcq.append(commit_time if commit_time > mcq_busy_until else mcq_busy_until)

            # ---- branch resolution ---------------------------------------
            if kind == KIND_BRANCH_MISS:
                mispredicts += 1
                effective_penalty = penalty
                if mcu is not None:
                    # §IX-A: MCQ back-pressure on the issue stage prevents
                    # aggressive speculation — fewer wrong-path instructions
                    # enter the pipe, so recovery from a misprediction is
                    # cheaper.  Model: a congested MCQ discounts the refill
                    # penalty.  This is what makes milc/namd/gobmk/astar
                    # slightly *faster* than baseline under AOS.
                    while mcq and mcq[0] <= fetch_time:
                        mcq.popleft()  # drain deallocated entries
                    if len(mcq) >= 0.75 * mcq_capacity:
                        effective_penalty = penalty * 0.7
                resolve = completion + effective_penalty
                if resolve > stall_until:
                    stall_until = resolve

            completion_ring[i & _RING_MASK] = completion
            retired += 1

        return PipelineResult(
            cycles=commit_cursor,
            instructions=retired,
            branch_mispredicts=mispredicts,
            mcq_stall_cycles=mcq_stall,
            rob_stall_cycles=rob_stall,
            lsq_stall_cycles=lsq_stall,
            validation_faults=faults,
        )
