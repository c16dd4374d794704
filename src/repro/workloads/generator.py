"""Synthetic trace generation from workload profiles.

A trace is a deterministic (seeded) stream of *events* — the
mechanism-independent behaviour of the program: compute, branches with
resolved prediction outcomes, function calls, heap allocation and
deallocation, and memory accesses addressed by (object, offset) pairs.
The compiler passes (:mod:`repro.compiler.passes`) lower the same trace
once per protection mechanism, so every mechanism sees the identical
program behaviour — the methodology the paper uses by running the same
SPEC reference inputs under each configuration.

A :class:`WorkloadTrace` holds its events as typed columns, one entry
per event, 0 where the event has no such field: ``tags`` (``uint8``, the
``TAG_*`` code); ``objs`` (``int64``, the object of a load, store, malloc
or free); ``offsets`` (``int64``, an access's byte offset into its heap
object, or into its stack or globals region); ``sizes`` (``int64``, a
malloc's request); ``flags`` (``uint8``: ``FLAG_PTR``, the load or store
moves a pointer; ``FLAG_CHASE``, the load chases one;
``FLAG_MISPREDICTED``, the branch; ``FLAG_GLOBALS``, the stack/globals
access hits globals).  The C loops of :mod:`repro.kernel.fast`, their
Python reference here, the trace importer (:mod:`repro.traces.importer`)
and the attack scenarios (:mod:`repro.adversary.scenarios`) all write
these columns; the base pass (:mod:`repro.compiler.base`) reads them as
they are.

Scaling: simulating a 3-billion-instruction SPEC run is not feasible in
Python, so the trace models a steady-state *window* preceded by a
"preamble" — the set of objects already live when the window starts
(Table II's max-active column, divided by ``scale``).  The compiler pass
shrinks the PAC space by the same factor, preserving the live-objects /
PAC-space ratio that drives HBT occupancy, way iteration and resizing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..cpu.branch import GShareBranchPredictor
from ..errors import WorkloadError
from .profiles import WorkloadProfile

#: Hard cap on the preamble live set, to bound host memory/time.
MAX_PREAMBLE_OBJECTS = 400_000

#: Branches that train the predictor before the window.
WARMUP_BRANCHES = 4000

#: Event tags.  The events that draw from the base pass's dependency dice
#: come first.  ``_fast.c`` writes the same codes.
TAG_ALU, TAG_FALU, TAG_LD, TAG_ST, TAG_ULD, TAG_UST = range(6)
TAG_BR, TAG_MALLOC, TAG_FREE, TAG_CALL, TAG_RET, TAG_PTR_ARITH = range(6, 12)
TAG_COUNT = 12

#: Event flag bits.
FLAG_PTR, FLAG_CHASE, FLAG_MISPREDICTED, FLAG_GLOBALS = 1, 2, 4, 8

#: The event columns and their dtypes, in order.
EVENT_COLUMNS = {
    "tags": np.uint8,
    "objs": np.int64,
    "offsets": np.int64,
    "sizes": np.int64,
    "flags": np.uint8,
}
#: Every column of a :class:`WorkloadTrace` and its dtype.
TRACE_COLUMNS = {"preamble_ids": np.int64, "preamble_sizes": np.int64, **EVENT_COLUMNS}


@dataclass(eq=False)
class WorkloadTrace:
    """One generated workload window, ready for lowering.

    Its columns are read-only ``numpy`` arrays of the declared dtypes;
    the constructor converts what it is given.
    """

    profile: WorkloadProfile
    #: Objects live at window start: their ids and sizes, in order.
    preamble_ids: np.ndarray
    preamble_sizes: np.ndarray
    #: The event columns (see the module docstring).
    tags: np.ndarray
    objs: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray
    flags: np.ndarray
    #: Live-set scale divisor applied to the preamble.
    scale: int
    seed: int
    branch_mispredict_rate: float = 0.0

    def __post_init__(self) -> None:
        for name, dtype in TRACE_COLUMNS.items():
            column = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            setattr(self, name, column)
        if len(self.preamble_ids) != len(self.preamble_sizes) or any(
            len(getattr(self, name)) != len(self.tags) for name in EVENT_COLUMNS
        ):
            raise WorkloadError("trace columns differ in length")

    @property
    def name(self) -> str:
        return self.profile.name

    def __len__(self) -> int:
        return len(self.tags)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkloadTrace):
            return NotImplemented
        fields = ("profile", "scale", "seed", "branch_mispredict_rate")
        columns = ((getattr(self, n), getattr(other, n)) for n in TRACE_COLUMNS)
        return all(getattr(self, f) == getattr(other, f) for f in fields) and all(
            a.dtype == b.dtype and np.array_equal(a, b) for a, b in columns
        )


class EventColumns:
    """Event columns grown one event at a time, as lists, for the producers
    that cannot size them up front (the importer, the attack scenarios)."""

    def __init__(self) -> None:
        #: The columns by :class:`WorkloadTrace` field name.
        self.columns: Dict[str, List[int]] = {name: [] for name in EVENT_COLUMNS}
        self._appends = [column.append for column in self.columns.values()]

    def add(self, tag: int, obj=0, offset=0, size=0, flags=0) -> None:
        for append, value in zip(self._appends, (tag, obj, offset, size, flags)):
            append(value)


def size_table(profile: WorkloadProfile) -> Tuple[Tuple[int, ...], List[float]]:
    """The profile's size classes and their cumulative weights: what
    ``Random.choices(sizes, weights=...)`` derives on every call."""
    sizes, weights = zip(*profile.size_classes)
    return sizes, list(accumulate(weights))


class WindowDice(NamedTuple):
    """The window loop's probabilities, in the order ``_fast.c`` reads
    them: the event-mix thresholds on the main draw (``mem`` < ``branch``
    < ``falu``), the per-event rates, then the profile's dice."""

    mem: float
    branch: float
    falu: float
    malloc: float
    call: float
    ptr_arith: float
    store_ratio: float
    heap_frac: float
    burst_prob: float
    hot_access_prob: float
    seq_frac: float
    ptr_frac: float
    chase_frac: float
    free_recency: float

    @classmethod
    def of(cls, profile: WorkloadProfile) -> "WindowDice":
        p_mem = profile.mem_frac
        p_branch = p_mem + profile.branch_frac
        return cls(
            mem=p_mem,
            branch=p_branch,
            falu=p_branch + profile.falu_frac,
            malloc=profile.mallocs_per_kinst / 1000.0,
            call=profile.call_rate / 1000.0,
            ptr_arith=profile.ptr_arith_rate / 1000.0,
            store_ratio=profile.store_ratio,
            heap_frac=profile.heap_frac,
            burst_prob=profile.burst_prob,
            hot_access_prob=profile.hot_access_prob,
            seq_frac=profile.seq_frac,
            ptr_frac=profile.ptr_frac,
            chase_frac=profile.chase_frac,
            free_recency=profile.free_recency,
        )


def generate_trace(
    profile: WorkloadProfile,
    instructions: int = 100_000,
    seed: int = 1,
    scale: int = 8,
    grow_live_by: int = 0,
) -> WorkloadTrace:
    """Generate a deterministic event trace for ``profile``.

    ``instructions`` is the approximate event count of the window;
    ``scale`` divides the preamble live set (must be a power of two so the
    PAC space can shrink by the same factor).  ``grow_live_by`` lets the
    live set grow beyond its starting size during the window (allocation
    phases; used by the in-window HBT-resize ablation).

    The one-shot draws (site biases, the hot pool) run here; the loops
    over branches, preamble objects and window events run in the C module
    of :mod:`repro.kernel.fast` on ``rng``'s own stream, or, on a host
    that cannot build it, in :func:`_warm_up`, :func:`_preamble` and
    :func:`_window`, their reference.  Both give the same trace.
    """
    if instructions < 1000:
        raise WorkloadError("window too small to be meaningful (< 1000 events)")
    if scale < 1 or scale & (scale - 1):
        raise WorkloadError("scale must be a power of two")

    from ..kernel.fast import native, on_stream

    kernel = native()
    if kernel is None:
        warm_up, draw_preamble, window = _warm_up, _preamble, _window
    else:
        warm_up = on_stream(kernel.warm_branches)
        draw_preamble = on_stream(kernel.preamble)
        window = on_stream(kernel.trace_window)

    rng = random.Random(seed)
    # Synthetic branch outcomes are uncorrelated with global history, so a
    # long history only aliases the table; a short-history gshare behaves
    # like the per-site component of L-TAGE on such streams.
    predictor = GShareBranchPredictor(table_bits=14, history_bits=2)

    # ---- branch sites -----------------------------------------------------
    n_sites = 64
    site_pcs = [0x400000 + 4 * i for i in range(n_sites)]
    site_bias: List[float] = []
    for i in range(n_sites):
        if rng.random() < profile.random_branch_frac:
            site_bias.append(0.5)            # effectively unpredictable
        else:
            site_bias.append(0.97 if rng.random() < 0.7 else 0.03)

    # Warm the predictor so the window measures steady-state behaviour,
    # not cold-start training (the paper fast-forwards before measuring).
    warm_up(rng, predictor, site_pcs, site_bias, WARMUP_BRANCHES)
    warm_pred = predictor.predictions
    warm_misp = predictor.mispredictions

    # ---- preamble live set --------------------------------------------------
    n_preamble = min(profile.initial_live // scale, MAX_PREAMBLE_OBJECTS)
    n_preamble = max(n_preamble, min(profile.initial_live, 4))
    size_classes, cum_weights = size_table(profile)
    preamble_sizes = np.empty(n_preamble, dtype=np.int64)
    draw_preamble(rng, size_classes, cum_weights, preamble_sizes)

    # The hot working set is a random (but fixed) subset of the live
    # objects — deliberately uncorrelated with allocation age, since age
    # determines which HBT way an object's bounds landed in.
    live = range(n_preamble)
    hot_n = max(1, int(len(live) * profile.hot_fraction)) if live else 1
    hot_pool = np.array(
        rng.sample(live, min(hot_n, len(live))) if live else [], dtype=np.int64
    )

    # A window step adds at most two events: a malloc and a free.
    columns = {
        name: np.zeros(2 * instructions, dtype) for name, dtype in EVENT_COLUMNS.items()
    }
    count = window(
        rng,
        predictor,
        site_pcs,
        site_bias,
        WindowDice.of(profile),
        size_classes,
        cum_weights,
        hot_pool,
        preamble_sizes,
        instructions,
        n_preamble + grow_live_by,
        *columns.values(),
    )

    window_predictions = predictor.predictions - warm_pred
    window_mispredictions = predictor.mispredictions - warm_misp
    return WorkloadTrace(
        profile=profile,
        preamble_ids=np.arange(n_preamble, dtype=np.int64),
        preamble_sizes=preamble_sizes,
        **{name: column[:count].copy() for name, column in columns.items()},
        scale=scale,
        seed=seed,
        branch_mispredict_rate=(
            window_mispredictions / window_predictions if window_predictions else 0.0
        ),
    )


def _warm_up(
    rng: random.Random,
    predictor: GShareBranchPredictor,
    site_pcs: List[int],
    site_bias: List[float],
    count: int,
) -> None:
    """Train ``predictor`` on ``count`` branches of random sites: the
    reference of ``_fast.warm_branches``."""
    n_sites = len(site_pcs)
    for _ in range(count):
        site = rng.randrange(n_sites)
        predictor.predict_and_update(site_pcs[site], rng.random() < site_bias[site])


def _preamble(
    rng: random.Random,
    size_classes: Tuple[int, ...],
    cum_weights: List[float],
    sizes: np.ndarray,
) -> None:
    """Fill ``sizes`` with the sizes of the live set at window start,
    objects ``0..len(sizes)-1``, drawn from the profile's classes: the
    reference of ``_fast.preamble``."""
    # One draw for the whole live set: choices() takes one random() per
    # object, so the stream is that of one draw per object.
    sizes[:] = rng.choices(size_classes, cum_weights=cum_weights, k=len(sizes))


def _window(
    rng: random.Random,
    predictor: GShareBranchPredictor,
    site_pcs: List[int],
    site_bias: List[float],
    dice: WindowDice,
    size_classes: Tuple[int, ...],
    cum_weights: List[float],
    hot_pool: np.ndarray,
    preamble_sizes: np.ndarray,
    instructions: int,
    target_live: int,
    tags: np.ndarray,
    objs: np.ndarray,
    offsets: np.ndarray,
    sizes: np.ndarray,
    flags: np.ndarray,
) -> int:
    """The window's events for ``instructions`` draws, written from index 0
    into the event columns (``2 * instructions`` entries each); returns
    how many: the reference of ``_fast.trace_window``.  The preamble
    objects are ``0..n-1``, of ``preamble_sizes``; ``hot_pool`` holds
    some of their ids."""
    n_sites = len(site_pcs)
    hot_pool = hot_pool.tolist()
    #: Size per object id: the preamble's, then each window allocation's.
    object_sizes: List[int] = preamble_sizes.tolist()
    live: List[int] = list(range(len(object_sizes)))
    live_pos: Dict[int, int] = {oid: i for i, oid in enumerate(live)}
    next_obj = len(live)
    window_allocated: List[int] = []  # FIFO of window-allocated ids
    window_head = 0
    freed: set = set()
    seq_cursor: Dict[int, int] = {}
    count = 0

    def emit(tag: int, obj: int = 0, offset: int = 0, size: int = 0, flag: int = 0):
        nonlocal count
        tags[count], objs[count], offsets[count] = tag, obj, offset
        sizes[count], flags[count] = size, flag
        count += 1

    def remove_live(oid: int) -> None:
        """O(1) swap-remove from the live list."""
        pos = live_pos.pop(oid)
        last = live.pop()
        if last != oid:
            live[pos] = last
            live_pos[last] = pos

    call_depth = 0
    current_obj: Optional[int] = None

    def pick_object() -> int:
        nonlocal current_obj
        # Burst locality: loops iterate over one object at a time, so most
        # accesses repeat the previous object (drives the Fig. 17 BWB hits).
        if (
            current_obj is not None
            and current_obj not in freed
            and rng.random() < dice.burst_prob
        ):
            return current_obj
        if dice.hot_access_prob > rng.random() and hot_pool:
            candidate = hot_pool[rng.randrange(len(hot_pool))]
            if candidate not in freed:
                current_obj = candidate
                return current_obj
        current_obj = live[rng.randrange(len(live))]
        return current_obj

    def pick_offset(obj: int) -> int:
        size = object_sizes[obj]
        span = max(size - 8, 0)
        if span == 0:
            return 0
        if rng.random() < dice.seq_frac:
            cursor = seq_cursor.get(obj, 0)
            seq_cursor[obj] = (cursor + 8) % (span + 1)
            return cursor
        return rng.randrange(0, span + 1, 8)

    for _ in range(instructions):
        r = rng.random()

        # Low-rate events piggyback on the main draw so event count ~ insts.
        if rng.random() < dice.malloc and live:
            size = rng.choices(size_classes, cum_weights=cum_weights)[0]
            object_sizes.append(size)
            emit(TAG_MALLOC, next_obj, size=size)
            live.append(next_obj)
            live_pos[next_obj] = len(live) - 1
            window_allocated.append(next_obj)
            # Programs touch fresh allocations immediately (initialisation)
            # — the pattern that makes bounds forwarding effective (§V-F2).
            current_obj = next_obj
            next_obj += 1
            # Steady state: free an object once above the target.  The
            # victim's age follows the profile's lifetime skew: recent
            # allocations (tcache churn) vs the oldest window objects.
            if len(live) > target_live and len(live) > 1:
                victim: Optional[int] = None
                if rng.random() < dice.free_recency:
                    # LIFO-ish: free a recently allocated object — but not
                    # the one just created, which the program is about to
                    # initialise and use (allocate -> use briefly -> free).
                    for back in range(2, min(9, len(window_allocated)) + 1):
                        candidate = window_allocated[-back]
                        if candidate not in freed:
                            victim = candidate
                            break
                elif window_head < len(window_allocated):
                    # FIFO: free the oldest window allocation still live.
                    while window_head < len(window_allocated):
                        candidate = window_allocated[window_head]
                        window_head += 1
                        if candidate not in freed:
                            victim = candidate
                            break
                if victim is None:
                    victim = live[rng.randrange(len(live))]
                if victim is not None and len(live) > 1 and victim in live_pos:
                    remove_live(victim)
                    freed.add(victim)
                    emit(TAG_FREE, victim)
            continue

        if rng.random() < dice.call:
            if call_depth > 0 and rng.random() < 0.5:
                emit(TAG_RET)
                call_depth -= 1
            else:
                emit(TAG_CALL)
                call_depth += 1
            continue

        if rng.random() < dice.ptr_arith:
            emit(TAG_PTR_ARITH)
            continue

        if r < dice.mem:
            is_store = rng.random() < dice.store_ratio
            if rng.random() < dice.heap_frac and live:
                obj = pick_object()
                offset = pick_offset(obj)
                flag = FLAG_PTR if rng.random() < dice.ptr_frac else 0
                if is_store:
                    emit(TAG_ST, obj, offset, flag=flag)
                else:
                    if rng.random() < dice.chase_frac:
                        flag |= FLAG_CHASE
                    emit(TAG_LD, obj, offset, flag=flag)
            else:
                # Stack vs globals.
                flag = 0 if rng.random() < 0.8 else FLAG_GLOBALS
                offset = (
                    rng.randrange(0, 262144, 8) if flag else rng.randrange(0, 4096, 8)
                )
                emit(TAG_UST if is_store else TAG_ULD, offset=offset, flag=flag)
        elif r < dice.branch:
            site = rng.randrange(n_sites)
            taken = rng.random() < site_bias[site]
            mispredicted = predictor.predict_and_update(site_pcs[site], taken)
            emit(TAG_BR, flag=FLAG_MISPREDICTED if mispredicted else 0)
        elif r < dice.falu:
            emit(TAG_FALU)
        else:
            emit(TAG_ALU)
    return count
