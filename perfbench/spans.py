"""Out-of-process span tracing for the benchmark's traced run.

The tracer wraps the public functions of each layer *where their callers
bind them*: ``experiments/parallel.py`` and ``experiments/common.py``
import ``generate_trace``/``lower_trace`` by name, so every module attribute
that holds the original function object is replaced, not only the one in
the defining module.  Methods are wrapped on their class.

Pool workers are forked from the benchmark process, so they inherit the
wrappers.  A fork hook clears the inherited span stack in the child; each
time a top-level span closes in a worker, the worker appends what it
recorded to ``<spool>/<pid>.jsonl`` and starts afresh.  :meth:`Tracer.collect`
merges the parent's own records with every spool file.

Per span name the tracer keeps calls, busy time and self time (busy minus
the time covered by child spans).  Self time is also credited to a *layer*:
the layer the span declares, or else the layer of the span that called it
(so ``malloc`` counts as lowering inside ``lower_trace`` and as campaign
work inside a fault-injection cell).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

clock = time.monotonic  # CLOCK_MONOTONIC: comparable across processes


class Tracer:
    """Span recorder for one benchmark process and its forked workers."""

    def __init__(self, spool: Path) -> None:
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.enabled = False
        self.in_worker = False
        self._patches: List[Tuple[object, str, object]] = []
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        #: Open frames: [layer, start, time covered by children].
        self.stack: List[list] = []
        #: span name -> [calls, busy_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: layer -> self_s
        self.layers: Dict[str, float] = {}
        #: span name -> distinct argument keys seen
        self.keys: Dict[str, set] = {}
        #: counter name -> value (cache hits, bytes, instructions, ...)
        self.counters: Dict[str, float] = {}
        #: (kind, pid, start, end) for cell and executor spans
        self.intervals: List[Tuple[str, int, float, float]] = []

    def _after_fork(self) -> None:
        if self.enabled:
            self.in_worker = True
            self._reset()

    # ----------------------------------------------------------- recording

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: Optional[str] = None,
        interval: Optional[str] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``.

        ``interval`` ("cell" or "executor") additionally keeps the span's
        start/end for the executor metrics.  ``after(tracer, result, args,
        kwargs)`` runs outside the timed region to record keys and counters.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            frame = [layer or (stack[-1][0] if stack else "other"), clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                busy = end - frame[1]
                own = busy - frame[2]
                record = tracer.stats.get(name)
                if record is None:
                    record = tracer.stats[name] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += busy
                record[2] += own
                tracer.layers[frame[0]] = tracer.layers.get(frame[0], 0.0) + own
                if stack:
                    stack[-1][2] += busy
                if interval is not None:
                    tracer.intervals.append((interval, os.getpid(), frame[1], end))
            if after is not None:
                after(tracer, result, args, kwargs)
            if not stack and tracer.in_worker:
                tracer.flush()
            return result

        # Pool payloads pickle worker functions by module + qualified name;
        # the wrapper must resolve to itself under the original's name.
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------- patching

    def patch_function(self, module, attr: str, **span) -> None:
        """Wrap ``module.attr`` in every loaded ``repro`` module binding it."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, **span)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, wrapper)

    def patch_method(self, cls: type, attr: str, **span) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, **span))

    def start(self) -> None:
        self._reset()
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ spooling

    def _snapshot(self) -> dict:
        return {
            "stats": self.stats,
            "layers": self.layers,
            "keys": {name: sorted(keys) for name, keys in self.keys.items()},
            "counters": self.counters,
            "intervals": self.intervals,
        }

    def flush(self) -> None:
        """Append this worker's records to its spool file and start afresh."""
        path = self.spool / f"{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self._snapshot()) + "\n")
        self._reset()

    def collect(self) -> "Spans":
        """Every record of this run: the parent's plus all workers'."""
        merged = Spans()
        merged.add(self._snapshot())
        for path in sorted(self.spool.glob("*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    merged.add(json.loads(line))
        return merged


def _argument_key(fn: Callable, args: tuple, kwargs: dict, skip: int = 0) -> str:
    """A digest of the call's bound arguments (``skip`` leading ones dropped)."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    values = list(bound.arguments.values())[skip:]
    return hashlib.sha1(repr(values).encode()).hexdigest()[:16]


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark measures."""
    from repro.adversary import chaos
    from repro.compiler import passes
    from repro.core.hbt import HashedBoundsTable
    from repro.core.signing import PointerSigner
    from repro.cpu.core import Simulator
    from repro.experiments import parallel
    from repro.faults import campaign
    from repro.memory.allocator import HeapAllocator
    from repro.supervise.supervisor import Supervisor
    from repro.workloads import generator

    def keyed(name, fn, skip=0):
        def after(tracer, result, args, kwargs):
            key = _argument_key(fn, args, kwargs, skip)
            tracer.keys.setdefault(name, set()).add(key)

        return after

    def simulated(tracer, result, args, kwargs):
        tracer.count("instructions", result.instructions)

    def looked_up(tracer, result, args, kwargs):
        tracer.count("get_result.hits", result is not None)

    def stored(tracer, result, args, kwargs):
        payload = args[2] if len(args) > 2 else kwargs["payload"]
        tracer.count("put_result.bytes", len(json.dumps(payload, sort_keys=True)))

    def supervised(tracer, result, args, kwargs):
        _, report = result
        tracer.count("supervise.retries", report.retries)
        tracer.count("supervise.quarantined", len(report.quarantined))

    tracer.patch_function(
        generator, "generate_trace", name="generate_trace", layer="generation",
        after=keyed("generate_trace", generator.generate_trace),
    )
    tracer.patch_function(passes, "lower_trace", name="lower_trace", layer="lowering")
    tracer.patch_method(HeapAllocator, "malloc", name="malloc")
    tracer.patch_method(
        PointerSigner, "pacma_batch", name="pacma_batch",
        after=keyed("pacma_batch", PointerSigner.pacma_batch, skip=1),
    )
    # The HBT pre-warm runs lazily inside Simulator.run (hbt_factory).
    tracer.patch_method(passes.AOSLowering, "_make_hbt", name="hbt_prewarm", layer="hbt_prewarm")
    tracer.patch_method(HashedBoundsTable, "insert", name="hbt_insert")
    tracer.patch_method(HashedBoundsTable, "clone", name="hbt_clone")
    tracer.patch_method(
        Simulator, "run", name="simulate", layer="simulate", after=simulated
    )
    for method, after in (
        ("get_result", looked_up),
        ("put_result", stored),
        ("get_trace", None),
    ):
        tracer.patch_method(
            parallel.ArtifactCache, method, name=method, layer="cache_io", after=after
        )
    # Executors: their spans run in the parent and wait on the workers, so
    # the roll-up counts executor overhead instead of their self time.
    tracer.patch_function(
        parallel, "run_cells", name="run_cells", layer="executor_wait",
        interval="executor",
    )
    tracer.patch_method(
        campaign.Campaign, "_run_parallel", name="campaign_pool",
        layer="executor_wait", interval="executor",
    )
    tracer.patch_method(
        Supervisor, "run", name="supervisor", layer="executor_wait",
        interval="executor", after=supervised,
    )
    # Cells: the bodies the executors hand to their workers.
    tracer.patch_function(
        parallel, "simulate_cell", name="sim_cell", layer="cell_glue",
        interval="cell",
    )
    tracer.patch_function(
        campaign, "run_campaign_cell", name="fault_cell",
        layer="functional", interval="cell",
    )
    tracer.patch_function(
        chaos, "run_scenario_cell", name="scenario_cell",
        layer="functional", interval="cell",
    )


class Spans:
    """Records merged across processes."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        self.layers: Dict[str, float] = {}
        self.keys: Dict[str, set] = {}
        self.counters: Dict[str, float] = {}
        self.intervals: List[Tuple[str, int, float, float]] = []

    def add(self, snapshot: dict) -> None:
        for name, (calls, busy, own) in snapshot["stats"].items():
            record = self.stats.setdefault(name, [0, 0.0, 0.0])
            record[0] += calls
            record[1] += busy
            record[2] += own
        for layer, own in snapshot["layers"].items():
            self.layers[layer] = self.layers.get(layer, 0.0) + own
        for name, keys in snapshot["keys"].items():
            self.keys.setdefault(name, set()).update(keys)
        for name, value in snapshot["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.intervals.extend(tuple(item) for item in snapshot["intervals"])

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def busy(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def unique(self, name: str) -> int:
        return len(self.keys.get(name, ()))

    def executor(self, jobs: int) -> Dict[str, float]:
        """Executor metrics over every executor call of the run.

        ``overhead_s`` is executor wall time times ``jobs`` minus the time
        workers spent inside cells; ``tail_s`` is, per executor call, the
        time from the first worker going idle to the last cell ending.
        """
        calls = sorted(i for i in self.intervals if i[0] == "executor")
        cells = [i for i in self.intervals if i[0] == "cell"]
        wall = busy = tail = 0.0
        count = 0
        for _, _, start, end in calls:
            inside = [c for c in cells if start <= c[2] and c[3] <= end]
            wall += end - start
            busy += sum(c[3] - c[2] for c in inside)
            count += len(inside)
            last_end: Dict[int, float] = {}
            for _, pid, _, cell_end in inside:
                last_end[pid] = max(last_end.get(pid, start), cell_end)
            if last_end and jobs > 1:
                first_idle = start if len(last_end) < jobs else min(last_end.values())
                tail += max(last_end.values()) - first_idle
        capacity = wall * jobs
        return {
            "wall_s": wall,
            "cells": count,
            "cell_busy_s": busy,
            "overhead_s": capacity - busy,
            "busy_frac": busy / capacity if capacity else 0.0,
            "tail_s": tail,
        }
