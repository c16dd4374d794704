"""The fast-path simulation kernel.

``run_fast`` reproduces :meth:`repro.cpu.pipeline.PipelineModel.run`
*exactly* — same floating-point operations in the same order, same queue
disciplines, same counter semantics — while eliminating the per-instruction
Python overhead the reference pays:

- instruction dispatch reads the precomputed kind codes of the program's
  columns (:class:`~repro.isa.program.Program`) instead of chained ``Op``
  identity tests;
- cache accesses run through closures that inline ``Cache.access`` +
  ``MemoryHierarchy._access_through`` with local counters, flushed into the
  real ``CacheStats``/``TrafficCounters`` objects after the run;
- the MCU's selective bounds check (decode, forwarding, BWB lookup, the
  Fig. 8a way walk, bounds compare) is inlined with local stat counters,
  skipping the per-check ``SignedPointer``/``MCQEntry``/``ValidationResult``
  allocations of the reference path;
- the rare paths — ``bndstr``/``bndclr`` — call straight into the real
  :class:`~repro.core.mcu.MemoryCheckUnit`, so table mutation, resizing and
  fault-injection seams behave identically by construction.

The equivalence contract is enforced by ``tests/test_kernel_equivalence.py``:
byte-identical ``SimulationResult`` payloads and metrics snapshots against
the reference kernel.  Two deliberate boundaries keep that contract simple:

- **event tracing**: a run with a live tracer is not a performance run, so
  the dispatcher (:meth:`repro.cpu.core.Simulator.run`) routes traced runs
  to the reference kernel — the fast path would otherwise have to replicate
  every ``emit`` site.  ``run_fast`` refuses a tracer-bearing ``obs``.
- **metrics**: counters are accumulated in locals and published through the
  exact same ``stats`` objects ``publish_metrics`` harvests, so metrics-only
  observability (``tracing=False``) runs the true fast path.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..cache.hierarchy import MemoryHierarchy
from ..config import SystemConfig
from ..core.mcu import MemoryCheckUnit
from ..cpu.pipeline import _FRONTEND_DEPTH, _RING, _RING_MASK, PipelineResult
from ..errors import SimulationError
from ..isa.program import Program

#: Sentinel distinguishing "tag absent" from any stored dirty bit.
_MISS = object()


def _make_l1_access(l1, l2, line_bytes, dram_latency, l2c, tr):
    """Build an inlined L1→L2→DRAM access path for one L1 cache.

    Returns ``(access, flush)``: ``access(address, is_write) -> latency``
    replays ``MemoryHierarchy._access_through`` against the cache's real
    ``_sets`` dictionaries with L1 counters held in closure locals; ``flush``
    adds those locals into ``l1.stats``.  L2/traffic counters are shared
    across closures via the ``l2c``/``tr`` lists (two L1s drain into one L2).
    """
    l1_sets = l1._sets
    l1_nsets = l1.num_sets
    l1_bits = l1.line_bits
    l1_assoc = l1.assoc
    l1_lat = l1.hit_latency
    l2_sets = l2._sets
    l2_nsets = l2.num_sets
    l2_bits = l2.line_bits
    l2_assoc = l2.assoc
    l2_lat = l2.hit_latency
    accesses = hits = misses = evictions = writebacks = 0

    def access(address, is_write):
        nonlocal accesses, hits, misses, evictions, writebacks
        accesses += 1
        line = address >> l1_bits
        index = line % l1_nsets
        tag = line // l1_nsets
        s = l1_sets[index]
        dirty = s.pop(tag, _MISS)
        if dirty is not _MISS:
            hits += 1
            s[tag] = dirty or is_write
            return l1_lat
        misses += 1
        wb_line = -1
        if len(s) >= l1_assoc:
            victim_tag = next(iter(s))
            victim_dirty = s.pop(victim_tag)
            evictions += 1
            if victim_dirty:
                writebacks += 1
                wb_line = (victim_tag * l1_nsets + index) << l1_bits
        s[tag] = is_write
        # L2 refill on behalf of the L1 miss (read, never a write).
        tr[0] += line_bytes
        l2c[0] += 1
        line2 = address >> l2_bits
        s2 = l2_sets[line2 % l2_nsets]
        tag2 = line2 // l2_nsets
        latency = l1_lat + l2_lat
        dirty2 = s2.pop(tag2, _MISS)
        if dirty2 is not _MISS:
            l2c[1] += 1
            s2[tag2] = dirty2
        else:
            l2c[2] += 1
            if len(s2) >= l2_assoc:
                victim_dirty2 = s2.pop(next(iter(s2)))
                l2c[3] += 1
                if victim_dirty2:
                    l2c[4] += 1
                    tr[1] += line_bytes
            s2[tag2] = False
            tr[1] += line_bytes
            tr[2] += 1
            latency += dram_latency
        # Dirty L1 victim pushed down into the L2 (write, no latency cost).
        if wb_line >= 0:
            tr[0] += line_bytes
            l2c[0] += 1
            line3 = wb_line >> l2_bits
            s3 = l2_sets[line3 % l2_nsets]
            tag3 = line3 // l2_nsets
            dirty3 = s3.pop(tag3, _MISS)
            if dirty3 is not _MISS:
                l2c[1] += 1
                s3[tag3] = True
            else:
                l2c[2] += 1
                if len(s3) >= l2_assoc:
                    victim_dirty3 = s3.pop(next(iter(s3)))
                    l2c[3] += 1
                    if victim_dirty3:
                        l2c[4] += 1
                        tr[1] += line_bytes
                s3[tag3] = True
                tr[1] += line_bytes
                tr[2] += 1
        return latency

    def flush():
        stats = l1.stats
        stats.accesses += accesses
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks

    return access, flush


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

    kinds = program.kinds
    addresses = program.addresses
    latencies = program.latencies
    deps_col = program.deps
    sizes = program.sizes

    core = config.core
    fetch_step = 1.0 / core.width
    penalty = core.branch_mispredict_penalty
    penalty_discounted = penalty * 0.7
    rob_capacity = core.rob_entries
    lq_capacity = core.load_queue_entries
    sq_capacity = core.store_queue_entries
    mcq_capacity = core.mcq_entries
    mcq_threshold = 0.75 * mcq_capacity

    # Shared L2 / traffic counters: [accesses, hits, misses, evictions,
    # writebacks] and [l1_l2_bytes, l2_dram_bytes, dram_accesses].
    l2c = [0, 0, 0, 0, 0]
    tr = [0, 0, 0]
    line_bytes = hierarchy.line_bytes
    dram_latency = hierarchy.config.dram_latency
    access_data, flush_l1d = _make_l1_access(
        hierarchy.l1d, hierarchy.l2, line_bytes, dram_latency, l2c, tr
    )
    if hierarchy.l1b is not None:
        access_bounds, flush_l1b = _make_l1_access(
            hierarchy.l1b, hierarchy.l2, line_bytes, dram_latency, l2c, tr
        )
    else:
        access_bounds, flush_l1b = access_data, None

    has_mcu = mcu is not None
    if has_mcu:
        hbt = mcu.hbt
        layout = mcu.layout
        ahc_shift = layout.ahc_shift
        ahc_low = (1 << layout.ahc_bits) - 1
        pac_shift = layout.pac_shift
        pac_low = (1 << layout.pac_bits) - 1
        nonblocking = mcu.options.nonblocking_resize
        forwarding = mcu.options.bounds_forwarding
        migration_rows = mcu.MIGRATION_ROWS_PER_OP
        check_base_latency = mcu.CHECK_PIPELINE_CYCLES
        recent_stores = mcu._recent_stores
        histogram = mcu._h_lines
        bwb = mcu.bwb
        if bwb is not None:
            bwb_table = bwb._table
            bwb_entries = bwb.entries
            bwb_lru = bwb.eviction == "lru"
        hbt_row = hbt._row
        hbt_advance = hbt.advance_migration
        compression = hbt.compression
        slots_per_way = hbt.slots_per_way
        lines_per_way = hbt.lines_per_way
        way_shift = 6 + lines_per_way - 1
        two_lines = lines_per_way == 2
        mcu_bounds_store = mcu.bounds_store
        mcu_bounds_clear = mcu.bounds_clear
    # The MCU keeps the real bounds-line path (used by bndstr/bndclr via the
    # hierarchy); redirecting it through the inlined closure keeps the two
    # paths operating on the same cache state with the same line counters.
    # (Nothing to redirect: bndstr/bndclr already call hierarchy.access_bounds
    # which mutates the same Cache._sets; their stats flow through
    # Cache.stats directly and ours are flushed additively afterwards.)

    # Local MCU/BWB/HBT counters, flushed into the stats objects post-run.
    m_checks = m_signed = m_forwards = m_lines = m_faults = 0
    b_lookups = b_hits = 0
    t_lines_loaded = 0

    completion_ring = [0.0] * _RING
    ring_mask = _RING_MASK
    frontend = _FRONTEND_DEPTH
    rob = deque()
    load_queue = deque()
    store_queue = deque()
    mcq = deque()

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
    port0 = 0.0
    port1 = 0.0

    for i in range(len(kinds)):
        kind = kinds[i]
        if kind == 0:  # trace marker
            completion_ring[i & ring_mask] = fetch_time
            continue

        # ---- fetch: bandwidth, branch refill, ROB occupancy --------------
        if stall_until > fetch_time:
            fetch_time = stall_until
        if len(rob) >= rob_capacity:
            head = rob.popleft()
            if head > fetch_time:
                rob_stall += head - fetch_time
                fetch_time = head
        fetch_time += fetch_step

        # ---- dependencies ------------------------------------------------
        ready = fetch_time + frontend
        deps = deps_col[i]
        if deps:
            for d in deps:
                t = completion_ring[(i - d) & ring_mask]
                if t > ready:
                    ready = t

        # ---- structural hazards at issue ---------------------------------
        if kind == 1:  # load
            if len(load_queue) >= lq_capacity:
                head = load_queue.popleft()
                if head > ready:
                    lsq_stall += head - ready
                    ready = head
        elif kind == 2:  # store
            if len(store_queue) >= sq_capacity:
                head = store_queue.popleft()
                if head > ready:
                    lsq_stall += head - ready
                    ready = head

        if has_mcu:
            enters_mcu = kind <= 2 or kind == 5 or kind == 6
            if enters_mcu and len(mcq) >= mcq_capacity:
                head = mcq.popleft()
                if head > ready:
                    mcq_stall += head - ready
                    ready = head
        else:
            enters_mcu = False

        issue = ready
        address = addresses[i]

        # ---- execute -----------------------------------------------------
        if kind == 1:
            completion = issue + access_data(address & va_mask, False)
        elif kind == 2:
            access_data(address & va_mask, True)
            completion = issue + 1.0
        elif kind == 3:  # watchdog check µop: metadata record load
            completion = issue + access_data(address, False)
        else:
            completion = issue + latencies[i]

        # ---- bounds validation (MCU) -------------------------------------
        check_done = issue
        mcq_busy_until = 0.0
        if has_mcu and (kind == 5 or kind == 6 or (kind <= 2 and address > va_mask)):
            if kind == 5:
                outcome = mcu_bounds_store(address, sizes[i])
                if not outcome.ok:
                    faults += 1
                mcq_busy_until = issue + outcome.latency
            elif kind == 6:
                outcome = mcu_bounds_clear(address)
                if not outcome.ok:
                    faults += 1
                mcq_busy_until = issue + outcome.latency
            else:
                # Inlined MemoryCheckUnit.check_access (Fig. 6 + Fig. 8a).
                m_checks += 1
                check_latency = 0
                ahc = (address >> ahc_shift) & ahc_low
                if ahc != 0:
                    m_signed += 1
                    if hbt._resizing and nonblocking:
                        hbt_advance(migration_rows)
                    addr = address & va_mask
                    pac = (address >> pac_shift) & pac_low
                    forwarded = False
                    if forwarding:
                        pending = recent_stores.get(pac)
                        if pending is not None:
                            lower = pending[0]
                            if lower <= addr < lower + pending[1]:
                                m_forwards += 1
                                forwarded = True
                                check_latency = 1
                    if not forwarded:
                        # BWB tag (Algorithm 2) + lookup.
                        if ahc == 1:
                            window = (addr >> 7) & 0x3FFF
                        elif ahc == 2:
                            window = (addr >> 10) & 0x3FFF
                        else:
                            window = (addr >> 12) & 0x3FFF
                        tag = ((pac & 0xFFFF) << 16) | (window << 2) | ahc
                        ways = hbt.ways
                        way = 0
                        if bwb is not None:
                            b_lookups += 1
                            hint = bwb_table.get(tag)
                            if hint is not None:
                                if hint >= ways:
                                    del bwb_table[tag]
                                else:
                                    b_hits += 1
                                    if bwb_lru:
                                        bwb_table.move_to_end(tag)
                                    way = hint
                        # Fig. 8a way walk against the real HBT storage.
                        row = hbt_row(pac)
                        base = hbt._base
                        row_offset = pac << (ways.bit_length() - 1 + way_shift)
                        resizing = hbt._resizing
                        if resizing:
                            old_base = hbt._old_base
                            old_ways = hbt._old_ways
                            row_ptr = hbt._row_ptr
                            old_offset = pac << (old_ways.bit_length() - 1 + way_shift)
                        addr33 = addr & 0x1FFFFFFFF
                        not_bit32 = 1 - ((addr >> 32) & 1)
                        check_latency = check_base_latency
                        count = 0
                        visits = 0
                        found_way = -1
                        while True:
                            visits += 1
                            # Fig. 10 steering: old table only for ways the
                            # old geometry had, in rows not yet migrated.
                            if resizing and way < old_ways and pac >= row_ptr:
                                first = old_base + old_offset + (way << way_shift)
                            else:
                                first = base + row_offset + (way << way_shift)
                            check_latency += access_bounds(first, False)
                            if two_lines:
                                check_latency += access_bounds(first + 64, False)
                            t_lines_loaded += lines_per_way
                            start = way * slots_per_way
                            hit = False
                            if compression:
                                for record in row[start : start + slots_per_way]:
                                    if record is None:
                                        continue
                                    raw = record.raw
                                    low_field = raw & 0x1FFFFFFF
                                    lower = low_field << 4
                                    t_addr = (
                                        (((low_field >> 28) & 1) & not_bit32) << 33
                                    ) | addr33
                                    if lower <= t_addr < lower + ((raw >> 29) & 0xFFFFFFFF):
                                        hit = True
                                        break
                            else:
                                for record in row[start : start + slots_per_way]:
                                    if record is not None and record.lower <= addr < record.upper:
                                        hit = True
                                        break
                            if hit:
                                found_way = way
                                break
                            count += 1
                            if count >= ways:
                                break
                            way += 1
                            if way == ways:
                                way = 0
                        lines = visits * lines_per_way
                        m_lines += lines
                        if histogram is not None:
                            histogram.observe(lines)
                        if found_way < 0:
                            m_faults += 1
                            faults += 1
                        elif bwb is not None:
                            if tag in bwb_table:
                                bwb_table[tag] = found_way
                                if bwb_lru:
                                    bwb_table.move_to_end(tag)
                            else:
                                if len(bwb_table) >= bwb_entries:
                                    bwb_table.popitem(last=False)
                                bwb_table[tag] = found_way
                # Delayed retirement behind the MCU's two check ports
                # (applies to every validated load/store, signed or not).
                if port0 <= port1:
                    check_start = issue if issue > port0 else port0
                    check_done = check_start + check_latency
                    port0 = check_done
                else:
                    check_start = issue if issue > port1 else port1
                    check_done = check_start + check_latency
                    port1 = check_done

        # ---- commit (in-order, width per cycle, delayed retirement) ------
        ready_commit = completion if completion > check_done else check_done
        if ready_commit < last_commit:
            ready_commit = last_commit
        commit_cursor += fetch_step
        commit_time = ready_commit if ready_commit > commit_cursor else commit_cursor
        commit_cursor = commit_time
        last_commit = commit_time

        rob.append(commit_time)
        if kind == 1:
            load_queue.append(commit_time)
        elif kind == 2:
            store_queue.append(commit_time)
        if enters_mcu:
            mcq.append(commit_time if commit_time > mcq_busy_until else mcq_busy_until)

        # ---- branch resolution -------------------------------------------
        if kind == 4:
            mispredicts += 1
            effective_penalty = penalty
            if has_mcu:
                while mcq and mcq[0] <= fetch_time:
                    mcq.popleft()
                if len(mcq) >= mcq_threshold:
                    effective_penalty = penalty_discounted
            resolve = completion + effective_penalty
            if resolve > stall_until:
                stall_until = resolve

        completion_ring[i & ring_mask] = completion
        retired += 1

    # ---- publish local counters into the real stats objects --------------
    flush_l1d()
    if flush_l1b is not None:
        flush_l1b()
    l2_stats = hierarchy.l2.stats
    l2_stats.accesses += l2c[0]
    l2_stats.hits += l2c[1]
    l2_stats.misses += l2c[2]
    l2_stats.evictions += l2c[3]
    l2_stats.writebacks += l2c[4]
    hierarchy.traffic.l1_l2_bytes += tr[0]
    hierarchy.traffic.l2_dram_bytes += tr[1]
    hierarchy.dram_accesses += tr[2]
    if has_mcu:
        stats = mcu.stats
        stats.checks += m_checks
        stats.signed_checks += m_signed
        stats.forwards += m_forwards
        stats.lines_accessed += m_lines
        stats.faults += m_faults
        hbt.stats.lines_loaded += t_lines_loaded
        if bwb is not None:
            bwb.stats.lookups += b_lookups
            bwb.stats.hits += b_hits

    return PipelineResult(
        cycles=commit_cursor,
        instructions=retired,
        branch_mispredicts=mispredicts,
        mcq_stall_cycles=mcq_stall,
        rob_stall_cycles=rob_stall,
        lsq_stall_cycles=lsq_stall,
        validation_faults=faults,
    )
