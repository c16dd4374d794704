"""Fault injection into live AOS simulator state.

The paper's §IV-D exception class and §VII security analysis claim AOS
*detects and survives* corrupted pointers, double frees and HBT pressure.
This module makes those claims measurable the way sanitizer evaluations
(CryptSan, PACSan) measure detection coverage: a :class:`FaultInjector`
corrupts one piece of live state — a signed pointer's PAC/AHC/VA field, an
HBT bounds record, an in-flight gradual resize, a BWB way tag, a chunk
header — and a :class:`FaultHarness` then probes the process so the
campaign can classify what the mechanism did about it.

Every fault is applied through an explicit seam on the target component
(:meth:`HashedBoundsTable.replace_record`, :meth:`BoundsWayBuffer.poison`,
:meth:`MemoryCheckUnit.inject_drop_bndstr`,
:meth:`HeapAllocator.corrupt_chunk_header`), so the corruption lands in
exactly the state a real bit flip or lost table write would hit — the MCU,
handler and allocator then react through their normal paths, unmodified.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional

from ..core.bounds import CompressedBounds, RawBounds
from ..core.bwb import bwb_tag
from ..errors import FaultInjectionError, SimulationError
from ..os.handler import HandlerPolicy
from ..os.process import Process
from ..workloads import get_profile
from ..workloads.generator import size_table


class FaultKind(str, Enum):
    """The fault classes the campaign sweeps."""

    #: Flip bits inside the PAC field of a live signed pointer (§VII-C).
    PTR_PAC_FLIP = "ptr-pac-flip"
    #: Flip a VA bit that moves the pointer outside its object's bounds.
    PTR_VA_FLIP = "ptr-va-flip"
    #: Zero the AHC so the pointer looks unsigned (plain AOS cannot catch
    #: this on dereference; PA+AOS's on-load ``autm`` does — Fig. 13).
    PTR_AHC_ZERO = "ptr-ahc-zero"
    #: Free an object, then keep dereferencing the stale signed pointer.
    USE_AFTER_FREE = "use-after-free"
    #: Free the same signed pointer twice (``bndclr`` miss, §IV-D).
    DOUBLE_FREE = "double-free"
    #: Flip bits in a live HBT bounds record (bounds-line corruption).
    HBT_ENTRY_CORRUPT = "hbt-entry-corrupt"
    #: Empty a live HBT slot — a flipped valid bit / lost bounds line.
    HBT_ENTRY_DROP = "hbt-entry-drop"
    #: Silently discard the next ``bndstr`` between core and HBT.
    BNDSTR_DROP = "bndstr-drop"
    #: Freeze a gradual resize mid-row (table manager dies, Fig. 10).
    RESIZE_INTERRUPT = "resize-interrupt"
    #: Plant a wrong way hint in the BWB (stale tag, §V-C).
    BWB_STALE_WAY = "bwb-stale-way"
    #: Clobber the glibc boundary tag of a live chunk (heap overflow).
    CHUNK_HEADER_CORRUPT = "chunk-header-corrupt"
    #: Fill an HBT row to capacity and kick off an in-flight resize.
    HBT_PRESSURE = "hbt-pressure"


#: Spatial pointer corruption: the paper claims AOS detects these (§VII-A/C).
SPATIAL_POINTER_KINDS = (FaultKind.PTR_PAC_FLIP, FaultKind.PTR_VA_FLIP)
#: Temporal violations through corrupted/stale pointers (§VII-A).
TEMPORAL_POINTER_KINDS = (FaultKind.USE_AFTER_FREE, FaultKind.DOUBLE_FREE)
#: The acceptance bucket: faults the §VII table says AOS must detect.
POINTER_CORRUPTION_KINDS = SPATIAL_POINTER_KINDS + TEMPORAL_POINTER_KINDS
#: Corruption of AOS/allocator metadata rather than the pointer itself.
METADATA_KINDS = (
    FaultKind.HBT_ENTRY_CORRUPT,
    FaultKind.HBT_ENTRY_DROP,
    FaultKind.BNDSTR_DROP,
    FaultKind.CHUNK_HEADER_CORRUPT,
)
#: Faults AOS is expected to *tolerate* (degrade, not misbehave).
RESILIENCE_KINDS = (
    FaultKind.PTR_AHC_ZERO,
    FaultKind.RESIZE_INTERRUPT,
    FaultKind.BWB_STALE_WAY,
    FaultKind.HBT_PRESSURE,
)

ALL_KINDS: List[FaultKind] = list(FaultKind)


def parse_fault_kind(value: str) -> FaultKind:
    """CLI parser for ``--fault-kinds``: value string -> :class:`FaultKind`.

    Round-trips every kind (``parse_fault_kind(kind.value) is kind``) and
    turns an unknown name into a :class:`FaultInjectionError` listing the
    vocabulary instead of a bare ``ValueError``.
    """
    try:
        return FaultKind(value)
    except ValueError:
        raise FaultInjectionError(
            f"unknown fault kind {value!r}; known: "
            + ", ".join(k.value for k in ALL_KINDS)
        ) from None


@dataclass(frozen=True)
class FaultSpec:
    """One injection request: what to corrupt, where, with which entropy."""

    kind: FaultKind
    #: Selects the victim object/slot (modulo the live population), so a
    #: location sweep hits different PACs, sizes and row states.
    location: int = 0
    seed: int = 7


@dataclass
class InjectionRecord:
    """What the injector actually did, for the run log."""

    spec: FaultSpec
    description: str
    #: Whether the AOS threat model (§VII) claims this fault is detected.
    expect_detection: bool
    target_pointer: Optional[int] = None
    #: Extra allocations the probe should perform (pressure faults).
    probe_burst: int = 0


@dataclass
class TrackedObject:
    """One live allocation the harness monitors."""

    pointer: int          # current (possibly corrupted) signed pointer
    address: int          # true stripped payload base
    size: int             # requested size
    pattern: int          # value written at the base for integrity checks
    freed: bool = False
    free_in_probe: bool = False
    check_integrity: bool = True


class FaultHarness:
    """One instrumented AOS process the campaign corrupts and probes.

    ``mechanism`` is ``"aos"`` or ``"pa+aos"``; the latter authenticates
    every pointer with ``autm`` before dereferencing (Fig. 13), which is
    what turns AHC-zeroing from a silent miss into a detection.
    """

    def __init__(
        self,
        workload: str = "gcc",
        mechanism: str = "aos",
        seed: int = 7,
        objects: int = 24,
        policy: HandlerPolicy = HandlerPolicy.REPORT_AND_RESUME,
        max_violations: Optional[int] = None,
    ) -> None:
        if mechanism not in ("aos", "pa+aos"):
            raise FaultInjectionError(
                f"fault campaigns target 'aos' or 'pa+aos', not {mechanism!r}"
            )
        self.workload = workload
        self.mechanism = mechanism
        self.authenticate = mechanism == "pa+aos"
        self.profile = get_profile(workload)
        self._sizes, self._cum_weights = size_table(self.profile)
        self.process = Process(
            pac_mode="fast", policy=policy, max_violations=max_violations
        )
        self.rng = random.Random(seed)
        self.objects: List[TrackedObject] = []
        self.target_objects = objects

    # ---------------------------------------------------------- conveniences

    @property
    def runtime(self):
        return self.process.runtime

    @property
    def hbt(self):
        return self.runtime.hbt

    @property
    def mcu(self):
        return self.runtime.mcu

    @property
    def bwb(self):
        return self.runtime.mcu.bwb

    @property
    def layout(self):
        return self.runtime.signer.layout

    @property
    def allocator(self):
        return self.runtime.allocator

    @property
    def detections(self) -> int:
        return self.process.handler.violation_count

    # ------------------------------------------------------------- teardown

    def disarm_seams(self) -> None:
        """Disarm every injection seam on this harness's components.

        Idempotent and safe mid-campaign: armed-but-unfired faults (queued
        ``bndstr`` drops, a stalled migration, poisoned BWB hints) are the
        only state cleared — applied corruption and logged detections are
        results, not seams, and stay put.  Called on any exception path so
        an aborted cell can never leak an armed fault into a follow-up run
        on the same components.
        """
        self.mcu.clear_injected_faults()
        if self.hbt.migration_stalled:
            self.hbt.resume_migration()
        if self.bwb is not None:
            self.bwb.clear_hints()

    def __enter__(self) -> "FaultHarness":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.disarm_seams()
        return False

    # ------------------------------------------------------------ population

    def _sample_size(self) -> int:
        return max(16, self.rng.choices(self._sizes, cum_weights=self._cum_weights)[0])

    def allocate_one(self, write_pattern: bool = True) -> TrackedObject:
        size = self._sample_size()
        pointer = self.process.malloc(size)
        address = self.runtime.signer.xpacm(pointer)
        pattern = self.rng.getrandbits(63)
        obj = TrackedObject(
            pointer=pointer,
            address=address,
            size=size,
            pattern=pattern,
            check_integrity=write_pattern,
        )
        if write_pattern:
            self.process.store(pointer, pattern)
        self.objects.append(obj)
        return obj

    def populate(self, objects: Optional[int] = None) -> None:
        """Build the pre-fault live set the injector picks victims from."""
        for _ in range(objects if objects is not None else self.target_objects):
            self.allocate_one()

    def free_object(self, obj: TrackedObject) -> None:
        """Free through the guarded OS path; the stale signed pointer stays
        in ``obj.pointer`` for temporal probes."""
        self.process.free(obj.pointer)
        obj.freed = True
        obj.check_integrity = False

    # --------------------------------------------------------------- probing

    def probe(self, deadline=None, churn: int = 4, burst: int = 0) -> None:
        """Exercise the process after injection.

        Walks every tracked object (loads at both ends, a store at the
        base), frees the objects the injector marked, then churns
        ``churn`` allocate/free pairs and ``burst`` extra allocations so
        the ``bndstr``/``bndclr``/resize paths run against the corrupted
        state.  All AOS exceptions route through the OS handler; the
        campaign reads the verdict from the fault log afterwards.
        """
        # The injection happened at an arbitrary later time: in-flight
        # bounds forwarding (§V-F2) from the population phase would mask
        # table corruption that a drained MCQ must re-read from memory.
        self.mcu.drain_recent_stores()
        for obj in list(self.objects):
            if deadline is not None:
                deadline.check()
            if obj.free_in_probe:
                obj.free_in_probe = False
                self.process.free(obj.pointer)
                obj.freed = True
                obj.check_integrity = False
                continue
            pointer = obj.pointer
            if self.authenticate:
                pointer = self.process.authenticate(pointer)
                if pointer is None:
                    continue  # authentication failed and was logged
            self.process.load(pointer)
            if obj.size >= 16:
                self.process.load(self.runtime.offset(pointer, obj.size - 8))
            if not obj.freed:
                self.process.store(pointer, obj.pattern)
        for index in range(churn + burst):
            if deadline is not None:
                deadline.check()
            extra = self.allocate_one()
            if index % 2 == 0 and index < churn:
                self.free_object(extra)

    def integrity_failures(self) -> List[str]:
        """Objects whose base pattern no longer matches simulated memory —
        the evidence that turns a 'silent' outcome into confirmed silent
        data corruption."""
        failures = []
        for obj in self.objects:
            if obj.freed or not obj.check_integrity:
                continue
            raw = self.runtime.memory.read_bytes(obj.address, 8)
            if int.from_bytes(raw, "little") != obj.pattern:
                failures.append(
                    f"object @{obj.address:#x}: expected {obj.pattern:#x}, "
                    f"read {int.from_bytes(raw, 'little'):#x}"
                )
        return failures


class FaultInjector:
    """Applies one :class:`FaultSpec` to a live :class:`FaultHarness`.

    ``obs``, when given, records every injection as a ``fault.inject``
    trace event and a per-kind counter, so a campaign's metrics snapshot
    shows exactly what was corrupted where.
    """

    def __init__(self, obs=None) -> None:
        self.obs = obs

    def inject(self, harness: FaultHarness, spec: FaultSpec) -> InjectionRecord:
        handler = self._HANDLERS.get(spec.kind)
        if handler is None:
            raise FaultInjectionError(f"unknown fault kind {spec.kind!r}")
        rng = random.Random(f"{spec.seed}:{spec.kind.value}:{spec.location}")
        try:
            record = handler(self, harness, spec, rng)
        except Exception:
            # A handler that dies mid-injection may have armed some seams
            # already (e.g. a bndstr drop queued before the allocation
            # failed); never leak them into the caller's recovery path.
            harness.disarm_seams()
            raise
        if self.obs is not None:
            self.obs.registry.count("fault.injected")
            self.obs.registry.count(f"fault.injected.{spec.kind.value}")
            self.obs.emit(
                "fault.inject",
                kind=spec.kind.value,
                location=spec.location,
                expect_detection=record.expect_detection,
            )
        return record

    # ---------------------------------------------------------------- victims

    @staticmethod
    def _pick(harness: FaultHarness, spec: FaultSpec) -> TrackedObject:
        live = [o for o in harness.objects if not o.freed]
        if not live:
            raise FaultInjectionError("no live objects to corrupt")
        return live[spec.location % len(live)]

    @staticmethod
    def _locate_bounds(harness: FaultHarness, obj: TrackedObject):
        pac = harness.layout.pac(obj.pointer)
        coords = harness.hbt.find_record(pac, obj.address)
        if coords is None:
            raise FaultInjectionError(
                f"no HBT record found for object @{obj.address:#x}"
            )
        return pac, coords

    # ------------------------------------------------- pointer-field faults

    def _pac_flip(self, harness, spec, rng) -> InjectionRecord:
        obj = self._pick(harness, spec)
        layout = harness.layout
        bits = rng.sample(range(layout.pac_bits), 1 + rng.randrange(2))
        mask = sum(1 << b for b in bits) << layout.pac_shift
        obj.pointer ^= mask
        return InjectionRecord(
            spec=spec,
            description=f"flipped PAC bits {sorted(bits)} of object @{obj.address:#x}",
            expect_detection=True,
            target_pointer=obj.pointer,
        )

    def _va_flip(self, harness, spec, rng) -> InjectionRecord:
        obj = self._pick(harness, spec)
        # Flip a bit large enough to leave the object: |delta| >= size.
        low = max(obj.size.bit_length(), 6)
        bit = rng.randrange(low, 22)
        obj.pointer ^= 1 << bit
        return InjectionRecord(
            spec=spec,
            description=(
                f"flipped VA bit {bit} of object @{obj.address:#x} "
                f"(size {obj.size})"
            ),
            expect_detection=True,
            target_pointer=obj.pointer,
        )

    def _ahc_zero(self, harness, spec, rng) -> InjectionRecord:
        obj = self._pick(harness, spec)
        obj.pointer &= ~harness.layout.ahc_mask
        return InjectionRecord(
            spec=spec,
            description=f"zeroed AHC of object @{obj.address:#x} (§VII-C escape)",
            # Plain AOS skips unsigned pointers; only the PA+AOS on-load
            # autm (Fig. 13) catches this class.
            expect_detection=harness.authenticate,
            target_pointer=obj.pointer,
        )

    # --------------------------------------------------------- temporal faults

    def _use_after_free(self, harness, spec, rng) -> InjectionRecord:
        obj = self._pick(harness, spec)
        stale = obj.pointer
        harness.free_object(obj)
        obj.pointer = stale  # probe keeps dereferencing the stale pointer
        obj.freed = False    # treat as live so probes hit it
        obj.check_integrity = False
        return InjectionRecord(
            spec=spec,
            description=f"freed object @{obj.address:#x}; stale pointer kept live",
            expect_detection=True,
            target_pointer=stale,
        )

    def _double_free(self, harness, spec, rng) -> InjectionRecord:
        obj = self._pick(harness, spec)
        stale = obj.pointer
        harness.free_object(obj)
        obj.pointer = stale
        obj.free_in_probe = True  # probe frees it a second time
        return InjectionRecord(
            spec=spec,
            description=f"queued second free() of object @{obj.address:#x}",
            expect_detection=True,
            target_pointer=stale,
        )

    # --------------------------------------------------------- table faults

    def _hbt_corrupt(self, harness, spec, rng) -> InjectionRecord:
        obj = self._pick(harness, spec)
        pac, (way, slot) = self._locate_bounds(harness, obj)
        old = harness.hbt.peek(pac, way, slot)
        if isinstance(old, CompressedBounds):
            bits = rng.sample(range(29), 1 + rng.randrange(2))  # LowBnd field
            corrupted = CompressedBounds(raw=old.raw ^ sum(1 << b for b in bits))
        elif isinstance(old, RawBounds):
            corrupted = RawBounds(
                lower=old.lower ^ (1 << rng.randrange(4, 12)), upper=old.upper
            )
        else:  # pragma: no cover - locate guarantees a record
            raise FaultInjectionError("no record at located slot")
        harness.hbt.replace_record(pac, way, slot, corrupted)
        return InjectionRecord(
            spec=spec,
            description=(
                f"corrupted bounds record (pac {pac:#x}, way {way}, slot {slot}) "
                f"of object @{obj.address:#x}"
            ),
            expect_detection=True,
            target_pointer=obj.pointer,
        )

    def _hbt_drop(self, harness, spec, rng) -> InjectionRecord:
        obj = self._pick(harness, spec)
        pac, (way, slot) = self._locate_bounds(harness, obj)
        harness.hbt.drop_record(pac, way, slot)
        return InjectionRecord(
            spec=spec,
            description=(
                f"dropped bounds record (pac {pac:#x}, way {way}, slot {slot}) "
                f"of object @{obj.address:#x}"
            ),
            expect_detection=True,
            target_pointer=obj.pointer,
        )

    def _bndstr_drop(self, harness, spec, rng) -> InjectionRecord:
        harness.mcu.inject_drop_bndstr(1)
        obj = harness.allocate_one(write_pattern=False)
        return InjectionRecord(
            spec=spec,
            description=f"dropped bndstr of new object @{obj.address:#x}",
            expect_detection=True,
            target_pointer=obj.pointer,
        )

    # ----------------------------------------------------- resilience faults

    def _resize_interrupt(self, harness, spec, rng) -> InjectionRecord:
        frozen = harness.hbt.interrupt_migration(
            at_row=rng.randrange(1, harness.hbt.num_rows)
        )
        return InjectionRecord(
            spec=spec,
            description=(
                f"gradual resize frozen at RowPtr {frozen}/{harness.hbt.num_rows} "
                f"(ways {harness.hbt.ways})"
            ),
            expect_detection=False,
        )

    def _bwb_stale(self, harness, spec, rng) -> InjectionRecord:
        if harness.bwb is None:
            raise FaultInjectionError("BWB disabled in this configuration")
        if harness.hbt.ways < 2:
            # A way hint can only be wrong if there is more than one way.
            harness.hbt.begin_resize()
            harness.hbt.finish_resize()
        obj = self._pick(harness, spec)
        layout = harness.layout
        pac = layout.pac(obj.pointer)
        coords = harness.hbt.find_record(pac, obj.address)
        true_way = coords[0] if coords else 0
        wrong_way = (true_way + 1 + rng.randrange(harness.hbt.ways - 1)) % harness.hbt.ways
        tag = bwb_tag(obj.address, layout.ahc(obj.pointer), pac)
        harness.bwb.poison(tag, wrong_way)
        return InjectionRecord(
            spec=spec,
            description=(
                f"poisoned BWB tag {tag:#x}: way {true_way} -> stale hint "
                f"{wrong_way} for object @{obj.address:#x}"
            ),
            expect_detection=False,
            target_pointer=obj.pointer,
        )

    def _chunk_header(self, harness, spec, rng) -> InjectionRecord:
        obj = self._pick(harness, spec)
        original = harness.allocator._read_size_field(obj.address - 16)
        variants = [
            0,                                # zero size: fails free() checks
            24,                               # below MIN_CHUNK: invalid
            (original & ~0x7) * 2 | 0x1,      # plausible double size: slips
            0xFFFF_FFF0,                      # absurdly large
            original ^ 0x8,                   # misaligned: invalid
        ]
        value = variants[rng.randrange(len(variants))]
        harness.allocator.corrupt_chunk_header(obj.address, value)
        obj.free_in_probe = True
        obj.check_integrity = False
        return InjectionRecord(
            spec=spec,
            description=(
                f"chunk header of object @{obj.address:#x}: size field "
                f"{original:#x} -> {value:#x}; free() queued"
            ),
            expect_detection=True,
            target_pointer=obj.pointer,
        )

    def _hbt_pressure(self, harness, spec, rng) -> InjectionRecord:
        obj = self._pick(harness, spec)
        pac = harness.layout.pac(obj.pointer)
        hbt = harness.hbt
        stuffed = 0
        base = 0x4000_0000 + (spec.location << 20)
        for index in range(hbt.ways * hbt.slots_per_way + 1):
            try:
                hbt.insert(pac, base + index * 64, 48)
                stuffed += 1
            except SimulationError:
                break
        # The row is full: model the OS servicing the resulting
        # BoundsStoreFault with a gradual (in-flight) resize.
        event = harness.process.table_manager.on_bounds_store_failure()
        return InjectionRecord(
            spec=spec,
            description=(
                f"stuffed {stuffed} records into row {pac:#x}; resize "
                f"{event.old_ways}->{event.new_ways} ways in flight"
            ),
            expect_detection=False,
            target_pointer=obj.pointer,
            probe_burst=32,
        )

    _HANDLERS: Dict[FaultKind, Callable] = {
        FaultKind.PTR_PAC_FLIP: _pac_flip,
        FaultKind.PTR_VA_FLIP: _va_flip,
        FaultKind.PTR_AHC_ZERO: _ahc_zero,
        FaultKind.USE_AFTER_FREE: _use_after_free,
        FaultKind.DOUBLE_FREE: _double_free,
        FaultKind.HBT_ENTRY_CORRUPT: _hbt_corrupt,
        FaultKind.HBT_ENTRY_DROP: _hbt_drop,
        FaultKind.BNDSTR_DROP: _bndstr_drop,
        FaultKind.RESIZE_INTERRUPT: _resize_interrupt,
        FaultKind.BWB_STALE_WAY: _bwb_stale,
        FaultKind.CHUNK_HEADER_CORRUPT: _chunk_header,
        FaultKind.HBT_PRESSURE: _hbt_pressure,
    }
