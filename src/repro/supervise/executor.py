"""The one executor choice every sweep runner makes: :func:`dispatch`."""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import ExitStack
from functools import partial
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from .policy import SupervisorConfig
from .supervisor import SupervisionReport, Supervisor, Task


def dispatch(
    worker: Callable[[Any], Any],
    tasks: Sequence[Task],
    jobs: int = 1,
    supervise: Optional[SupervisorConfig] = None,
    on_result: Optional[Callable[[str, Any], None]] = None,
    on_error: Optional[Callable[[str, Exception], None]] = None,
) -> Tuple[Dict[str, Any], Optional[SupervisionReport]]:
    """Run ``worker(task.payload)`` for every task.

    The only place that decides *how*: :meth:`Supervisor.run` (deadlines,
    retry, quarantine, degradation ladder) under ``supervise``, otherwise
    one process pool of ``jobs`` workers, in-process at ``jobs <= 1`` or
    for a single task.  Either way each finished result streams to
    ``on_result(key, result)`` as it lands, so callers checkpoint
    incrementally without knowing which executor ran.

    Returns ``({key: result}, report)`` with keys in task order.  With
    ``supervise`` the report is the supervisor's and quarantined keys are
    absent from the results (a config with ``jobs < 1`` takes ``jobs``).
    Without it the report is None and the first failing task stops the
    batch: ``on_error(key, exc)`` is called first, so a caller can name
    the task in a more specific error, then the worker's own exception
    propagates.  A worker process that dies surfaces as the pool's
    ``BrokenProcessPool``.
    """
    if supervise is not None:
        config = dataclasses.replace(supervise, jobs=supervise.effective_jobs(jobs))
        done, report = Supervisor(config).run(worker, tasks, on_result=on_result)
        return {t.key: done[t.key] for t in tasks if t.key in done}, report
    results: Dict[str, Any] = {}
    with ExitStack() as stack:
        if jobs <= 1 or len(tasks) <= 1:
            finished = ((task.key, partial(worker, task.payload)) for task in tasks)
        else:
            workers = min(jobs, len(tasks))
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            futures = {pool.submit(worker, task.payload): task.key for task in tasks}
            finished = ((futures[f], f.result) for f in as_completed(futures))
        for key, outcome in finished:
            try:
                value = outcome()
            except Exception as exc:
                if on_error is not None:
                    on_error(key, exc)
                raise
            results[key] = value
            if on_result is not None:
                on_result(key, value)
    return {task.key: results[task.key] for task in tasks}, None
