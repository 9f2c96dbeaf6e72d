"""Task-graph scheduling subsystem (the ``taskgraph`` backend).

Turns one SPMD launch into a statement-instance DAG and executes it on a
work-stealing thread pool, overlapping communication latency with
independent computation while staying bitwise-identical to the
``threads`` schedule.  Modules:

``graph``
    Tarjan SCC, condensation, critical-path helpers (pure algorithms).
``plan``
    Picklable :class:`TaskPlan` / :class:`TaskUnit` representation.
``lower``
    AST segmentation of the generated node program into a plan.
``machine``
    Tag-addressed, latency-aware, abort-aware transport.
``sched``
    Work-stealing scheduler with rank exclusivity and arrival parking.
``backend``
    The registered :class:`ExecutionBackend` gluing it all together.
"""

from .backend import TaskGraphBackend
from .graph import condense, tarjan_scc
from .lower import build_task_plan, trivial_plan
from .machine import TaskMachine
from .plan import TaskPlan, TaskUnit
from .sched import SchedulerStats, TaskScheduler

__all__ = [
    "TaskGraphBackend",
    "TaskMachine",
    "TaskPlan",
    "TaskScheduler",
    "TaskUnit",
    "SchedulerStats",
    "build_task_plan",
    "condense",
    "tarjan_scc",
    "trivial_plan",
]
