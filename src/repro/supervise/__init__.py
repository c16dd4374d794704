"""Supervised execution: one worker pool, deadlines, retries, quarantine.

The supervision layer wraps the parallel experiment engine and the fault
campaigns so a hung, crashing or silently-corrupting cell is retried or
quarantined instead of killing the run::

    from repro.supervise import Supervisor, SupervisorConfig, Task

    supervisor = Supervisor(SupervisorConfig(jobs=4, deadline_s=30.0))
    results, report = supervisor.run(worker_fn, tasks)
    print(report.format())

Sweep runners do not pick an executor themselves: they call
:func:`dispatch`, which runs the batch under :class:`Supervisor` when
given a config and fail-fast otherwise (in-process at ``jobs <= 1``),
both on the same :class:`~repro.supervise.supervisor.WorkerPool` of
forked, pipe-connected workers.

``HeartbeatBoard`` is the liveness side channel of the durable work
queue (:mod:`repro.queue`).

``InvariantOracle`` is the ``--paranoid`` half: it audits simulator state
(MCQ FSMs, HBT occupancy, BWB hints, signed-pointer round-trips, shadow
bounds) after a cell and turns silent corruption into a first-class
failure.
"""

from .executor import dispatch
from .heartbeat import HeartbeatBoard
from .oracle import InvariantOracle, Violation
from .policy import RetryPolicy, SupervisorConfig
from .signals import trap_signals
from .supervisor import (
    AttemptRecord,
    SupervisionReport,
    Supervisor,
    Task,
    WorkerError,
)

__all__ = [
    "AttemptRecord",
    "HeartbeatBoard",
    "InvariantOracle",
    "RetryPolicy",
    "SupervisionReport",
    "Supervisor",
    "SupervisorConfig",
    "Task",
    "Violation",
    "WorkerError",
    "dispatch",
    "trap_signals",
]
