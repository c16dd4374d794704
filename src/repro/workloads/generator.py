"""Synthetic trace generation from workload profiles.

A trace is a deterministic (seeded) stream of *events* — the
mechanism-independent behaviour of the program: compute, branches with
resolved prediction outcomes, function calls, heap allocation and
deallocation, and memory accesses addressed by (object, offset) pairs.
The compiler passes (:mod:`repro.compiler.passes`) lower the same trace
once per protection mechanism, so every mechanism sees the identical
program behaviour — the methodology the paper uses by running the same
SPEC reference inputs under each configuration.

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

from ..cpu.branch import GShareBranchPredictor
from ..errors import WorkloadError
from .profiles import WorkloadProfile

#: Hard cap on the preamble live set, to bound host memory/time.
MAX_PREAMBLE_OBJECTS = 400_000

#: Branches that train the predictor before the window.
WARMUP_BRANCHES = 4000

Event = Tuple


@dataclass
class WorkloadTrace:
    """One generated workload window, ready for lowering."""

    profile: WorkloadProfile
    #: Objects live at window start: list of (object id, size).
    preamble: List[Tuple[int, int]]
    #: The event stream (see module docstring for the vocabulary).
    events: List[Event]
    #: Object id -> size for every object (preamble + window allocations).
    object_sizes: Dict[int, int]
    #: Live-set scale divisor applied to the preamble.
    scale: int
    seed: int
    branch_mispredict_rate: float = 0.0

    @property
    def name(self) -> str:
        return self.profile.name

    def __len__(self) -> int:
        return len(self.events)


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
    preamble, object_sizes = draw_preamble(rng, size_classes, cum_weights, n_preamble)
    live = list(object_sizes)

    # The hot working set is a random (but fixed) subset of the live
    # objects — deliberately uncorrelated with allocation age, since age
    # determines which HBT way an object's bounds landed in.
    hot_n = max(1, int(len(live) * profile.hot_fraction)) if live else 1
    hot_pool = rng.sample(live, min(hot_n, len(live))) if live else []

    events = window(
        rng,
        predictor,
        site_pcs,
        site_bias,
        WindowDice.of(profile),
        size_classes,
        cum_weights,
        hot_pool,
        object_sizes,
        instructions,
        len(live) + grow_live_by,
    )

    window_predictions = predictor.predictions - warm_pred
    window_mispredictions = predictor.mispredictions - warm_misp
    return WorkloadTrace(
        profile=profile,
        preamble=preamble,
        events=events,
        object_sizes=object_sizes,
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
    count: int,
) -> Tuple[List[Tuple[int, int]], Dict[int, int]]:
    """The live set at window start, objects ``0..count-1`` with sizes
    drawn from the profile's classes, as (id, size) pairs and as a dict:
    the reference of ``_fast.preamble``."""
    # One draw for the whole live set: choices() takes one random() per
    # object, so the stream is that of one draw per object.
    sizes = rng.choices(size_classes, cum_weights=cum_weights, k=count)
    preamble = list(enumerate(sizes))
    return preamble, dict(preamble)


def _window(
    rng: random.Random,
    predictor: GShareBranchPredictor,
    site_pcs: List[int],
    site_bias: List[float],
    dice: WindowDice,
    size_classes: Tuple[int, ...],
    cum_weights: List[float],
    hot_pool: List[int],
    object_sizes: Dict[int, int],
    instructions: int,
    target_live: int,
) -> List[Event]:
    """The window's ``instructions`` events: the reference of
    ``_fast.trace_window``.  ``object_sizes`` holds the preamble objects
    ``0..n-1`` and gains each window allocation, in order."""
    n_sites = len(site_pcs)
    live: List[int] = list(object_sizes)
    live_pos: Dict[int, int] = {oid: i for i, oid in enumerate(live)}
    next_obj = len(live)
    window_allocated: List[int] = []  # FIFO of window-allocated ids
    window_head = 0
    freed: set = set()
    seq_cursor: Dict[int, int] = {}

    def remove_live(oid: int) -> None:
        """O(1) swap-remove from the live list."""
        pos = live_pos.pop(oid)
        last = live.pop()
        if last != oid:
            live[pos] = last
            live_pos[last] = pos

    events: List[Event] = []
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
            object_sizes[next_obj] = size
            events.append(("m", next_obj, size))
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
                    events.append(("f", victim))
            continue

        if rng.random() < dice.call:
            if call_depth > 0 and rng.random() < 0.5:
                events.append(("ret",))
                call_depth -= 1
            else:
                events.append(("call",))
                call_depth += 1
            continue

        if rng.random() < dice.ptr_arith:
            events.append(("pa",))
            continue

        if r < dice.mem:
            is_store = rng.random() < dice.store_ratio
            if rng.random() < dice.heap_frac and live:
                obj = pick_object()
                offset = pick_offset(obj)
                is_ptr = rng.random() < dice.ptr_frac
                if is_store:
                    events.append(("st", obj, offset, is_ptr))
                else:
                    chase = rng.random() < dice.chase_frac
                    events.append(("ld", obj, offset, is_ptr, chase))
            else:
                kind = 0 if rng.random() < 0.8 else 1  # stack vs globals
                offset = (
                    rng.randrange(0, 4096, 8)
                    if kind == 0
                    else rng.randrange(0, 262144, 8)
                )
                events.append(("ust" if is_store else "uld", kind, offset))
        elif r < dice.branch:
            site = rng.randrange(n_sites)
            taken = rng.random() < site_bias[site]
            mispredicted = predictor.predict_and_update(site_pcs[site], taken)
            events.append(("br", mispredicted))
        elif r < dice.falu:
            events.append(("falu",))
        else:
            events.append(("alu",))
    return events
