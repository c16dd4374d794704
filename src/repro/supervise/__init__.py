"""Supervised execution: heartbeats, hang detection, retries, quarantine.

The supervision layer wraps the parallel experiment engine and the fault
campaigns so a hung, crashing or silently-corrupting cell degrades the
run instead of killing it::

    from repro.supervise import Supervisor, SupervisorConfig, Task

    supervisor = Supervisor(SupervisorConfig(jobs=4, deadline_s=30.0))
    results, report = supervisor.run(worker_fn, tasks)
    print(report.format())

Sweep runners do not pick an executor themselves: they call
:func:`dispatch`, which runs the batch under :class:`Supervisor` when
given a config and through one ordered process pool otherwise.

``InvariantOracle`` is the ``--paranoid`` half: it audits simulator state
(MCQ FSMs, HBT occupancy, BWB hints, signed-pointer round-trips, shadow
bounds) after a cell and turns silent corruption into a first-class
failure.
"""

from .executor import dispatch
from .heartbeat import HeartbeatBoard, sweep_stale_boards
from .oracle import InvariantOracle, Violation
from .policy import LADDER, ExecutionLevel, RetryPolicy, SupervisorConfig
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
    "ExecutionLevel",
    "HeartbeatBoard",
    "InvariantOracle",
    "LADDER",
    "RetryPolicy",
    "SupervisionReport",
    "Supervisor",
    "SupervisorConfig",
    "Task",
    "Violation",
    "WorkerError",
    "dispatch",
    "sweep_stale_boards",
    "trap_signals",
]
