"""The one executor choice every sweep runner makes: :func:`dispatch`."""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from .policy import SupervisorConfig
from .supervisor import SupervisionReport, Supervisor, Task, WorkerPool


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
    retry, quarantine) under ``supervise``, otherwise a fail-fast
    :class:`~repro.supervise.supervisor.WorkerPool` of ``jobs`` workers,
    in-process at ``jobs <= 1`` or for a single task.  Either way each
    finished result streams to ``on_result(key, result)`` as it lands, so
    callers checkpoint incrementally without knowing which path ran.

    Returns ``({key: result}, report)`` with keys in task order.  With
    ``supervise`` the report is the supervisor's and quarantined keys are
    absent from the results (a config with ``jobs < 1`` takes ``jobs``).
    Without it the report is None and the first failing task stops the
    batch: ``on_error(key, exc)`` is called first, so a caller can name
    the task in a more specific error, then the worker's own exception
    propagates, or a :class:`~repro.supervise.supervisor.WorkerError`
    naming the task and the exit code when its worker died.
    """
    if supervise is not None:
        config = dataclasses.replace(supervise, jobs=supervise.effective_jobs(jobs))
        done, report = Supervisor(config).run(worker, tasks, on_result=on_result)
        return {t.key: done[t.key] for t in tasks if t.key in done}, report
    results: Dict[str, Any] = {}

    def land(key: str, value: Any) -> None:
        results[key] = value
        if on_result is not None:
            on_result(key, value)

    if jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            try:
                value = worker(task.payload)
            except Exception as exc:
                if on_error is not None:
                    on_error(task.key, exc)
                raise
            land(task.key, value)
    else:
        queue = deque(tasks)
        with WorkerPool(worker, min(jobs, len(tasks))) as pool:
            while queue or pool.busy:
                while queue and pool.free:
                    task = queue.popleft()
                    pool.send(task.key, task.payload)
                for done in pool.wait():
                    if done.outcome != "ok":
                        if on_error is not None:
                            on_error(done.key, done.value)
                        raise done.value
                    land(done.key, done.value)
    return {task.key: results[task.key] for task in tasks}, None
