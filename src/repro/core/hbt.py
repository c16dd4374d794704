"""The hashed bounds table (HBT) — §V-B, with gradual resizing (§V-F3).

The HBT is a per-process, PAC-indexed, multi-way table of bounds records.
It has a *fixed* number of rows (2**pac_bits) and a power-of-two
associativity that doubles whenever an insertion fails for lack of space
(gradual resizing).  Each way of a row holds eight bounds (§V-A): one
64-byte cache line when the §V-D compression is on, or two lines of
16-byte raw bounds when it is disabled (the Fig. 15 ablation) — doubling
both the table footprint and the loads per way visit.

Resizing is non-blocking (Fig. 10): a table manager migrates rows from the
old table to a twice-as-wide new one while accesses are steered by the
``(PAC, way)`` rule::

    W >= T1 or PAC < RowPtr  ->  new table
    otherwise                ->  old table

Storage is the flat layout of §V-B and Fig. 9: one zero-initialised array
of 64-bit words, rows x ways x eight slots, where an all-zero slot is a
free entry (§IV-A).  A compressed slot is one word, the Fig. 9a record; a
raw slot is two words, the lower and upper bound.  A resize builds an
array twice as wide and copies each row into its first half; the old and
new tables of Fig. 10 hold the same records, so the steering rule and
RowPtr only decide which line *addresses* an access loads.  Python reads
and writes the words through a ``memoryview``; the C kernel walks the same
array through the buffer protocol.  Record objects
(:class:`~repro.core.bounds.CompressedBounds`,
:class:`~repro.core.bounds.RawBounds`) are decoded on demand at the
inspection and fault-injection seams.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import EncodingError, SimulationError
from ..memory.layout import AddressSpaceLayout, DEFAULT_LAYOUT
from .bounds import (
    LOWBND_BITS,
    LOWBND_SHIFT,
    SIZE_BITS,
    CompressedBounds,
    RawBounds,
    compress_bounds,
)

if TYPE_CHECKING:
    from ..obs import Observability

BoundsRecord = Union[CompressedBounds, RawBounds]

LINE_BYTES = 64

_LOW_MASK = (1 << LOWBND_BITS) - 1
_SIZE_MASK = (1 << SIZE_BITS) - 1
_ADDR33 = (1 << 33) - 1
_WORD_LIMIT = 1 << 64


def _zeros(words: int) -> np.ndarray:
    """A zero-filled ``uint64`` array in an anonymous mapping of its own:
    its pages are committed when first written and returned to the system
    when the array is freed, so a sparse table costs only the rows it
    uses."""
    return np.frombuffer(mmap.mmap(-1, words * 8), dtype=np.uint64)


@dataclass(slots=True)
class HBTStats:
    """Counters for the Fig. 17 / §IX-A.1 analyses."""

    inserts: int = 0
    clears: int = 0
    checks: int = 0
    lines_loaded: int = 0
    insert_failures: int = 0
    resizes: int = 0
    migrated_rows: int = 0


class HashedBoundsTable:
    """The functional HBT: slot storage plus Fig. 10 addressing."""

    __slots__ = (
        "pac_bits",
        "num_rows",
        "ways",
        "compression",
        "slots_per_way",
        "lines_per_way",
        "words_per_slot",
        "way_words",
        "layout",
        "max_ways",
        "stats",
        "_obs",
        "_table",
        "_words",
        "_extents",
        "_base",
        "_old_base",
        "_old_ways",
        "_row_ptr",
        "_resizing",
        "_migration_stalled",
    )

    def __init__(
        self,
        pac_bits: int = 16,
        initial_ways: int = 1,
        layout: AddressSpaceLayout = DEFAULT_LAYOUT,
        compression: bool = True,
        max_ways: int = 64,
    ) -> None:
        if initial_ways < 1 or initial_ways & (initial_ways - 1):
            raise SimulationError("HBT associativity must be a power of two")
        self.pac_bits = pac_bits
        self.num_rows = 1 << pac_bits
        self.ways = initial_ways
        self.compression = compression
        #: Eight bounds per way (§V-A).  Compressed bounds fit one 64-byte
        #: line; raw 16-byte bounds span two lines per way (§V-D), doubling
        #: both the table footprint and the loads per way visit.
        self.slots_per_way = 8
        self.lines_per_way = 1 if compression else 2
        #: 64-bit words per slot: the compressed record, or lower and upper.
        self.words_per_slot = 1 if compression else 2
        self.way_words = self.slots_per_way * self.words_per_slot
        self.layout = layout
        self.max_ways = max_ways
        self.stats = HBTStats()
        #: Optional observability handle (set by the simulator before a
        #: run); ``None`` costs one attribute test per resize-path event.
        self._obs: Optional["Observability"] = None

        #: The slot words, rows x ways x slots x words_per_slot.
        self._set_table(_zeros(self.num_rows * initial_ways * self.way_words))
        #: pac -> the associativity the row was last written at, in
        #: first-write order: the logical row lengths :meth:`records` shows.
        self._extents: Dict[int, int] = {}

        # Resize state (Fig. 10).
        self._base = layout.hbt_base
        self._old_base: Optional[int] = None
        self._old_ways = initial_ways
        self._row_ptr = 0
        self._resizing = False
        #: Fault-injection seam: a stalled table manager stops migrating
        #: rows until :meth:`resume_migration`, freezing the Fig. 10
        #: steering split between old and new tables.
        self._migration_stalled = False

    def _set_table(self, table: np.ndarray) -> None:
        self._table = table
        self._words = memoryview(table).cast("B").cast("Q")

    def clone(self) -> "HashedBoundsTable":
        """An independent copy for one simulation run.

        The slot array is copied in one buffer copy into heap memory
        (the copy writes every page, so a fresh mapping would only add a
        zero-filled page fault per page, and the heap reuses the copies
        earlier runs freed); geometry, resize/steering state and
        statistics are snapshotted; the
        observability handle is *not* carried over (each run attaches its
        own via :meth:`set_obs`).  The AOS lowering builds one
        preamble-warmed prototype and clones it per run.
        """
        other = object.__new__(HashedBoundsTable)
        other.pac_bits = self.pac_bits
        other.num_rows = self.num_rows
        other.ways = self.ways
        other.compression = self.compression
        other.slots_per_way = self.slots_per_way
        other.lines_per_way = self.lines_per_way
        other.words_per_slot = self.words_per_slot
        other.way_words = self.way_words
        other.layout = self.layout
        other.max_ways = self.max_ways
        other.stats = replace(self.stats)
        other._obs = None
        other._set_table(self._table.copy())
        other._extents = dict(self._extents)
        other._base = self._base
        other._old_base = self._old_base
        other._old_ways = self._old_ways
        other._row_ptr = self._row_ptr
        other._resizing = self._resizing
        other._migration_stalled = self._migration_stalled
        return other

    # ------------------------------------------------------------ addressing

    @property
    def way_bytes(self) -> int:
        """Bytes per way: one line compressed, two uncompressed (§V-D)."""
        return LINE_BYTES * self.lines_per_way

    @property
    def table_bytes(self) -> int:
        """Current table footprint (Table IV: 64K rows x 1 way x 64 B = 4 MB)."""
        return self.num_rows * self.ways * self.way_bytes

    def line_address(self, pac: int, way: int) -> int:
        """BndAddr of Eq. 1/2, honouring the Fig. 10 steering rule."""
        if not 0 <= pac < self.num_rows:
            raise SimulationError(f"PAC {pac:#x} out of range")
        if not 0 <= way < self.ways:
            raise SimulationError(f"way {way} out of range (assoc {self.ways})")
        if self._resizing:
            if way >= self._old_ways or pac < self._row_ptr:
                base, assoc = self._base, self.ways
            else:
                base, assoc = self._old_base, self._old_ways
        else:
            base, assoc = self._base, self.ways
        shift = 6 + self.lines_per_way - 1  # 64B or 128B ways
        row_offset = pac << (assoc.bit_length() - 1 + shift)
        return base + row_offset + (way << shift)

    def way_line_addresses(self, pac: int, way: int) -> List[int]:
        """The cache-line addresses one way visit must load (1 or 2)."""
        first = self.line_address(pac, way)
        return [first + LINE_BYTES * i for i in range(self.lines_per_way)]

    # ----------------------------------------------------------- slot words

    def _slot_index(self, pac: int, way: int, slot: int) -> int:
        """Index of the first word of one slot; raises on a bad coordinate."""
        if not 0 <= pac < self.num_rows:
            raise SimulationError(f"PAC {pac:#x} out of range")
        if not 0 <= way < self.ways:
            raise SimulationError(f"way {way} out of range (assoc {self.ways})")
        if not 0 <= slot < self.slots_per_way:
            raise SimulationError(f"slot {slot} out of range")
        return ((pac * self.ways + way) * self.slots_per_way + slot) * self.words_per_slot

    def _way(self, pac: int, way: int) -> List[int]:
        """The words of one way, as ints."""
        if not (0 <= pac < self.num_rows and 0 <= way < self.ways):
            self._slot_index(pac, way, 0)  # raises the coordinate's error
        start = (pac * self.ways + way) * self.way_words
        return self._words[start : start + self.way_words].tolist()

    def _store(self, pac: int, way: int, slot: int, words: Tuple[int, ...]) -> None:
        """Write one slot at a coordinate the caller has already read."""
        index = ((pac * self.ways + way) * self.slots_per_way + slot) * self.words_per_slot
        self._words[index] = words[0]
        if not self.compression:
            self._words[index + 1] = words[1]
        self._extents[pac] = self.ways

    def _encode(self, lower: int, size: int) -> Tuple[int, ...]:
        """A bounds record's slot words in the table's configured format."""
        if self.compression:
            return (compress_bounds(lower, size),)
        upper = lower + size
        if not (0 <= lower < _WORD_LIMIT and 0 <= upper < _WORD_LIMIT):
            raise EncodingError(
                f"raw bounds [{lower:#x}, {upper:#x}) do not fit 64-bit words"
            )
        return (lower, upper)

    def _encode_record(self, record: BoundsRecord) -> Tuple[int, ...]:
        if self.compression and isinstance(record, CompressedBounds):
            return (record.raw,)
        if not self.compression and isinstance(record, RawBounds):
            return (record.lower, record.upper)
        raise SimulationError(
            f"{type(record).__name__} does not match the table's bounds format"
        )

    def _decode(self, words: Sequence[int]) -> List[Optional[BoundsRecord]]:
        """Records (None for a free slot) of consecutive slots' words."""
        if self.compression:
            return [CompressedBounds(raw=raw) if raw else None for raw in words]
        return [
            RawBounds(lower=lower, upper=upper) if lower or upper else None
            for lower, upper in zip(words[0::2], words[1::2])
        ]

    def _free_slot(self, words: List[int]) -> Optional[int]:
        """The first free slot of one way's words, or None."""
        if self.compression:
            return words.index(0) if 0 in words else None
        for slot in range(self.slots_per_way):
            if not (words[2 * slot] or words[2 * slot + 1]):
                return slot
        return None

    def _slot_with_lower(self, words: List[int], target: int) -> Optional[int]:
        """The first occupied slot whose lower bound is ``target``, or None."""
        if self.compression:
            for slot, raw in enumerate(words):
                if raw and (raw & _LOW_MASK) << LOWBND_SHIFT == target:
                    return slot
            return None
        for slot in range(self.slots_per_way):
            lower = words[2 * slot]
            if lower == target and (lower or words[2 * slot + 1]):
                return slot
        return None

    def _slot_holding(self, words: List[int], address: int) -> Optional[int]:
        """The first slot whose bounds contain ``address``, or None (a free
        slot's empty bounds contain nothing)."""
        if self.compression:
            # CompressedBounds.contains: tAddr of Fig. 9b is Addr[32:0] plus
            # the carry-compensation bit C = LowBnd[32] & !Addr[32].
            addr33 = address & _ADDR33
            no_bit32 = 1 - ((address >> 32) & 1)
            for slot, raw in enumerate(words):
                if raw:
                    low_field = raw & _LOW_MASK
                    lower = low_field << LOWBND_SHIFT
                    t_addr = (((low_field >> (LOWBND_BITS - 1)) & no_bit32) << 33) | addr33
                    if lower <= t_addr < lower + ((raw >> LOWBND_BITS) & _SIZE_MASK):
                        return slot
            return None
        for slot in range(self.slots_per_way):
            if words[2 * slot] <= address < words[2 * slot + 1]:
                return slot
        return None

    # --------------------------------------------------- way visits (Fig. 8)
    #
    # One way visit loads the way's line(s), counted in lines_loaded.

    def read_way(self, pac: int, way: int) -> List[Optional[BoundsRecord]]:
        """The records in one way (one 64-byte load; two if uncompressed)."""
        self.stats.lines_loaded += self.lines_per_way
        return self._decode(self._way(pac, way))

    def way_has_free_slot(self, pac: int, way: int) -> bool:
        """``bndstr``'s OccChk: does the way hold a free slot?"""
        self.stats.lines_loaded += self.lines_per_way
        return self._free_slot(self._way(pac, way)) is not None

    def way_has_lower(self, pac: int, way: int, address: int) -> bool:
        """``bndclr``'s OccChk: does the way hold a record whose lower bound
        is ``address``?"""
        self.stats.lines_loaded += self.lines_per_way
        target = self._comparable_lower(address)
        return self._slot_with_lower(self._way(pac, way), target) is not None

    def way_holds(self, pac: int, way: int, address: int) -> bool:
        """The BndChk compare: do bounds in the way contain ``address``?"""
        self.stats.lines_loaded += self.lines_per_way
        return self._slot_holding(self._way(pac, way), address) is not None

    # ------------------------------------------------------------ operations

    def insert(
        self, pac: int, lower: int, size: int, way: Optional[int] = None
    ) -> Tuple[int, int, int]:
        """``bndstr``'s occupancy walk: returns (way, slot, ways_searched).

        ``way``, when given, is a way the caller's FSM walk already loaded
        and verified to hold a free slot (``MCQEntry.result_way``); the
        record is placed there without re-reading way lines, so the walk's
        line loads are not double-counted into :attr:`HBTStats.lines_loaded`.

        Raises :class:`SimulationError` if every way is full — the caller
        (MCU) converts that into a :class:`BoundsStoreFault` for the OS.
        """
        self.stats.inserts += 1
        record = self._encode(lower, size)
        if way is not None and 0 <= way < self.ways:
            slot = self._free_slot(self._way(pac, way))
            if slot is not None:
                self._store(pac, way, slot, record)
                return way, slot, 0
            # Stale hint (cannot happen single-threaded): fall back to the
            # counted full walk below.
        for candidate in range(self.ways):
            self.stats.lines_loaded += self.lines_per_way
            slot = self._free_slot(self._way(pac, candidate))
            if slot is not None:
                self._store(pac, candidate, slot, record)
                return candidate, slot, candidate + 1
        self.stats.insert_failures += 1
        if self._obs is not None:
            self._obs.emit("hbt.insert.fail", pac=pac, ways=self.ways)
        raise SimulationError(f"HBT row {pac:#x} full at associativity {self.ways}")

    def clear_matching(
        self, pac: int, address: int, way: Optional[int] = None
    ) -> Tuple[Optional[int], int]:
        """``bndclr``'s walk: zero the record whose lower bound == address.

        Returns (way or None, ways_searched).  ``None`` signals a
        bounds-clear failure: double free or an invalid/crafted pointer.
        Like :meth:`insert`, a ``way`` verified by the caller's FSM walk is
        cleared directly without re-counting its line loads.
        """
        self.stats.clears += 1
        target = self._comparable_lower(address)
        empty = (0,) * self.words_per_slot
        if way is not None and 0 <= way < self.ways:
            slot = self._slot_with_lower(self._way(pac, way), target)
            if slot is not None:
                self._store(pac, way, slot, empty)
                return way, 0
            # Stale hint: fall through to the counted full walk.
        for candidate in range(self.ways):
            self.stats.lines_loaded += self.lines_per_way
            slot = self._slot_with_lower(self._way(pac, candidate), target)
            if slot is not None:
                self._store(pac, candidate, slot, empty)
                return candidate, candidate + 1
        return None, self.ways

    def find_valid(
        self, pac: int, address: int, start_way: int = 0
    ) -> Tuple[Optional[int], int]:
        """Bounds checking: find a record containing ``address``.

        Starts from ``start_way`` (the BWB hint, §V-C) and wraps.  Returns
        (way or None, number of way lines loaded).
        """
        self.stats.checks += 1
        searched = 0
        for step in range(self.ways):
            way = (start_way + step) % self.ways
            searched += 1
            if self.way_holds(pac, way, address):
                return way, searched
        return None, searched

    def _comparable_lower(self, address: int) -> int:
        """Addresses compare against compressed lower bounds in 33-bit space."""
        if self.compression:
            return address & _ADDR33 & ~0xF
        return address

    def prewarm(self, pacs, lowers, sizes) -> None:
        """Insert every ``(pacs[i], lowers[i], sizes[i])`` in order into this
        empty table, doubling it whenever an insert finds its row full.

        The result — slots, :meth:`records`, geometry, resize state,
        :class:`HBTStats`, and the error raised past :attr:`max_ways` or at
        a record whose bounds do not encode — is that of ``insert`` one
        record at a time, answering each insertion failure with
        ``begin_resize()`` and ``finish_resize()``; every PAC must index a
        row.  It is worked out in one pass over arrays instead.  Records
        fill a row in order, so the record of rank ``r`` within its row
        sits at flat slot ``r`` of the row and costs ``r // 8 + 1`` way
        visits; an insert fails exactly when its row needs one way more
        than the table has, and the doubling that follows makes room for
        it.
        """
        if self._extents or self._resizing:
            raise SimulationError("the bulk pre-warm fills an empty table")
        pacs = np.asarray(pacs, dtype=np.int64)
        lowers = np.asarray(lowers, dtype=np.uint64)
        sizes = np.asarray(sizes, dtype=np.uint64)
        count = len(pacs)
        if count == 0:
            return
        outside = (pacs < 0) | (pacs >= self.num_rows)
        if outside.any():
            pac = int(pacs[np.argmax(outside)])
            raise SimulationError(f"PAC {pac:#x} out of range")
        if self.compression:
            bad = (lowers % 16 != 0) | (sizes == 0) | (sizes > _SIZE_MASK)
            words = (sizes << LOWBND_BITS) | ((lowers >> LOWBND_SHIFT) & _LOW_MASK)
        else:
            uppers = lowers + sizes
            bad = uppers < lowers  # wrapped past 64 bits
        first_bad = int(np.argmax(bad)) if bad.any() else count

        # Rank of each record within its row: a stable sort by PAC.
        order = np.argsort(pacs, kind="stable")
        sorted_pacs = pacs[order]
        starts = np.flatnonzero(np.diff(sorted_pacs, prepend=-1))
        lengths = np.diff(starts, append=count)
        ranks = np.empty(count, dtype=np.int64)
        ranks[order] = np.arange(count) - np.repeat(starts, lengths)

        # The doublings: the running maximum of the ways a row needs grows
        # by at most one per insert, so each failure doubles the table once.
        needed = ranks // self.slots_per_way + 1
        peak = np.maximum.accumulate(needed)
        ways = initial = self.ways
        failures: List[int] = []
        walked = 0
        while ways < peak[-1]:
            failure = int(np.searchsorted(peak, ways + 1))
            if failure >= first_bad:
                break
            if ways * 2 > self.max_ways:
                raise SimulationError("HBT reached the maximum supported associativity")
            failures.append(failure)
            walked += ways
            ways *= 2
        if first_bad < count:
            self._encode(int(lowers[first_bad]), int(sizes[first_bad]))  # raises

        stats = self.stats
        resizes = len(failures)
        stats.inserts += count + resizes
        stats.insert_failures += resizes
        stats.resizes += resizes
        stats.migrated_rows += resizes * self.num_rows
        stats.lines_loaded += self.lines_per_way * (int(needed.sum()) + walked)
        if resizes:
            half = self.layout.hbt_size // 2
            for _ in range(resizes):
                offset = half if self._base == self.layout.hbt_base else 0
                self._base = self.layout.hbt_base + offset
            self._old_base = None
            self._old_ways = ways
            self._row_ptr = self.num_rows
        self.ways = ways

        table = _zeros(self.num_rows * ways * self.way_words)
        slots = pacs * (ways * self.slots_per_way) + ranks
        if self.compression:
            table[slots] = words
        else:
            table[2 * slots] = lowers
            table[2 * slots + 1] = uppers
        self._set_table(table)

        # Rows in first-write order, each as wide as the table was after
        # its last insert.
        firsts = order[starts]
        lasts = order[starts + lengths - 1]
        doublings = np.searchsorted(np.array(failures, dtype=np.int64), lasts, side="right")
        widths = np.left_shift(initial, doublings)
        by_first = np.argsort(firsts)
        self._extents = dict(
            zip(sorted_pacs[starts][by_first].tolist(), widths[by_first].tolist())
        )

    # -------------------------------------------------------------- resizing

    @property
    def resizing(self) -> bool:
        return self._resizing

    @property
    def row_ptr(self) -> int:
        return self._row_ptr

    @property
    def old_ways(self) -> int:
        """Associativity of the table being migrated away from (equals
        :attr:`ways` when no resize is in flight)."""
        return self._old_ways

    def begin_resize(self) -> None:
        """Start a gradual resize: double the associativity (§V-B)."""
        if self._resizing:
            raise SimulationError("resize already in progress")
        if self.ways * 2 > self.max_ways:
            raise SimulationError("HBT reached the maximum supported associativity")
        self.stats.resizes += 1
        self._old_base = self._base
        self._old_ways = self.ways
        # Place the new table in the unused half of the HBT region; the old
        # region is recycled on the following resize.
        region_half = self.layout.hbt_size // 2
        offset = region_half if self._base == self.layout.hbt_base else 0
        self._base = self.layout.hbt_base + offset
        # The wider array: every written row keeps its ways in the first half.
        old = self._table.reshape(self.num_rows, self.ways, self.way_words)
        table = _zeros(self._table.size * 2)
        if self._extents:
            rows = np.fromiter(self._extents, dtype=np.int64, count=len(self._extents))
            table.reshape(self.num_rows, 2 * self.ways, self.way_words)[
                rows, : self.ways
            ] = old[rows]
        self._set_table(table)
        self.ways *= 2
        self._row_ptr = 0
        self._resizing = True
        if self._obs is not None:
            self._obs.emit(
                "hbt.resize", phase="B", old_ways=self._old_ways, new_ways=self.ways
            )

    def advance_migration(self, rows: int) -> int:
        """Migrate up to ``rows`` rows old->new; returns rows actually moved.

        Both tables hold the same records, so migration here is pure
        progress-tracking; the table manager charges its memory traffic.
        """
        if not self._resizing or self._migration_stalled:
            return 0
        moved = min(rows, self.num_rows - self._row_ptr)
        self._row_ptr += moved
        self.stats.migrated_rows += moved
        if self._row_ptr >= self.num_rows:
            self._resizing = False
            self._old_base = None
            self._old_ways = self.ways
            if self._obs is not None:
                self._obs.emit("hbt.resize", phase="E", ways=self.ways)
        return moved

    def finish_resize(self) -> None:
        """Complete any in-flight migration immediately (blocking ablation)."""
        self.advance_migration(self.num_rows)

    # ------------------------------------------------------- fault injection
    #
    # These seams let :mod:`repro.faults` corrupt live table state the way
    # a buggy table manager, a dropped ``bndstr`` or a rowhammer-style bit
    # flip in the bounds lines would, without going through the MCU's
    # normal operation paths.  They are also the hooks future chaos /
    # ablation work drives.

    def _occupied(self) -> np.ndarray:
        """One flag per slot, rows x ways x slots in order."""
        return self._table.reshape(-1, self.words_per_slot).any(axis=1)

    def live_slots(self) -> List[Tuple[int, int, int]]:
        """``(pac, way, slot)`` coordinates of every occupied slot, sorted."""
        per_row = self.ways * self.slots_per_way
        coords: List[Tuple[int, int, int]] = []
        for index in np.flatnonzero(self._occupied()).tolist():
            pac, offset = divmod(index, per_row)
            coords.append((pac, *divmod(offset, self.slots_per_way)))
        return coords

    def find_record(self, pac: int, address: int) -> Optional[Tuple[int, int]]:
        """``(way, slot)`` of the record containing ``address``, or None.

        Unlike :meth:`find_valid` this is a pure inspection helper: it does
        not touch the access statistics, so injectors can locate a victim
        record without perturbing the Fig. 17 counters.
        """
        if not 0 <= pac < self.num_rows:
            return None
        for way in range(self.ways):
            slot = self._slot_holding(self._way(pac, way), address)
            if slot is not None:
                return way, slot
        return None

    def peek(self, pac: int, way: int, slot: int) -> Optional[BoundsRecord]:
        """Read one slot without touching the access statistics."""
        index = self._slot_index(pac, way, slot)
        return self._decode(self._words[index : index + self.words_per_slot].tolist())[0]

    def replace_record(
        self, pac: int, way: int, slot: int, record: BoundsRecord
    ) -> BoundsRecord:
        """Overwrite one occupied slot in place; returns the old record."""
        old = self.peek(pac, way, slot)
        if old is None:
            raise SimulationError(
                f"cannot corrupt empty HBT slot ({pac:#x}, way {way}, slot {slot})"
            )
        self._store(pac, way, slot, self._encode_record(record))
        return old

    def drop_record(self, pac: int, way: int, slot: int) -> BoundsRecord:
        """Empty one occupied slot — a lost ``bndstr`` / flipped valid bit."""
        old = self.peek(pac, way, slot)
        if old is None:
            raise SimulationError(
                f"cannot drop empty HBT slot ({pac:#x}, way {way}, slot {slot})"
            )
        self._store(pac, way, slot, (0,) * self.words_per_slot)
        return old

    def interrupt_migration(self, at_row: Optional[int] = None) -> int:
        """Freeze a gradual resize mid-row (table manager dies mid-flight).

        Begins a resize if none is in progress, rewinds/advances RowPtr to
        ``at_row`` (default: half way) and stalls further migration, so the
        Fig. 10 steering rule keeps splitting accesses between the old and
        new tables indefinitely.  Returns the frozen RowPtr.
        """
        if not self._resizing:
            self.begin_resize()
        if at_row is None:
            at_row = self.num_rows // 2
        self._row_ptr = max(0, min(at_row, self.num_rows - 1))
        self._migration_stalled = True
        return self._row_ptr

    @property
    def migration_stalled(self) -> bool:
        return self._migration_stalled

    def resume_migration(self) -> None:
        """Recovery path: let a stalled migration make progress again."""
        self._migration_stalled = False

    # ------------------------------------------------------------ inspection

    def set_obs(self, obs: Optional["Observability"]) -> None:
        """Attach an observability handle (the HBT is built at lowering
        time, before the run's obs exists, so the simulator injects it)."""
        self._obs = obs

    def records(self) -> Dict[int, List[Optional[BoundsRecord]]]:
        """The logical table: pac -> the records of each written row (None
        for a free slot), rows in first-write order, each row as many ways
        long as the table had at the row's last write."""
        row_words = self.ways * self.way_words
        return {
            pac: self._decode(
                self._words[pac * row_words : pac * row_words + ways * self.way_words].tolist()
            )
            for pac, ways in self._extents.items()
        }

    def row_occupancy(self, pac: int) -> int:
        if not 0 <= pac < self.num_rows:
            return 0
        row_words = self.ways * self.way_words
        row = self._table[pac * row_words : (pac + 1) * row_words]
        return int(np.count_nonzero(row.reshape(-1, self.words_per_slot).any(axis=1)))

    def total_records(self) -> int:
        return int(np.count_nonzero(self._occupied()))

    def max_row_occupancy(self) -> int:
        per_row = self.ways * self.slots_per_way
        return int(self._occupied().reshape(-1, per_row).sum(axis=1).max())
