"""The ``taskgraph`` execution backend.

Plans the generated node program into a statement-instance DAG
(:mod:`repro.runtime.taskgraph.lower`), then executes it on a
work-stealing pool (:mod:`repro.runtime.taskgraph.sched`) over the
tag-addressed :class:`~repro.runtime.taskgraph.machine.TaskMachine`
transport.  Plugs into the backend registry like any other backend — the
harness, supervisor (retry/fallback), fault injection, and result
validation all apply unchanged — and reports scheduler observability
through ``LaunchResult.scheduler``.

Everything that does not depend on the launch is kept out of it.  The
plan — with its unit code fragments compiled, once per distinct fragment
— sits in a bounded process-wide cache keyed on (source, per-rank envs,
dep hints), so code objects live exactly as long as the plan that runs
them; the node module itself comes from the node-code cache every
backend shares (:func:`repro.runtime.backends.base.node_code`).  A
launch allocates state, execs the shared module code into a fresh
namespace, and schedules.
"""

from __future__ import annotations

import os
import threading
import time
from types import CodeType
from typing import Dict, List, Tuple

from ..backends.base import (
    ExecutionBackend,
    LaunchResult,
    LaunchSpec,
    RankTiming,
    node_code,
)
from ..faults import arm_runtime
from ..machine import NodeRuntime, RankResult
from .lower import build_task_plan
from .machine import TaskMachine
from .plan import TaskPlan
from .sched import TaskScheduler

__all__ = ["TaskGraphBackend"]

# Plans are pure functions of (source, per-rank envs, dep hints) and the
# scheduler never mutates one, so repeated launches of the same artifact
# — benchmark laps, the compile service, supervisor retries — reuse one
# planning pass and one compile of each unit's code.
_PLAN_CACHE: Dict[tuple, Tuple[TaskPlan, List[CodeType]]] = {}
_PLAN_LOCK = threading.Lock()
_PLAN_CACHE_MAX = 64


def _cached_plan(spec: LaunchSpec) -> Tuple[TaskPlan, List[CodeType]]:
    """The plan for ``spec`` and the code object of each of its units."""
    key = (
        spec.source,
        tuple(
            tuple(sorted(binding.env.items())) for binding in spec.bindings
        ),
        tuple(spec.dep_hints or ()),
    )
    with _PLAN_LOCK:
        entry = _PLAN_CACHE.get(key)
    if entry is not None:
        return entry
    plan = build_task_plan(
        spec.source, spec.bindings, dep_hints=spec.dep_hints
    )
    fragments: Dict[str, CodeType] = {}  # ranks mostly share unit code
    for unit in plan.units:
        if unit.code not in fragments:
            fragments[unit.code] = compile(
                unit.code, "<taskgraph-unit>", "exec"
            )
    entry = (plan, [fragments[unit.code] for unit in plan.units])
    with _PLAN_LOCK:
        if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
            _PLAN_CACHE.pop(next(iter(_PLAN_CACHE)))
        _PLAN_CACHE[key] = entry
    return entry


class TaskGraphBackend(ExecutionBackend):
    name = "taskgraph"

    def launch(self, spec: LaunchSpec) -> LaunchResult:
        options = spec.options
        plan_start = time.perf_counter()
        plan, code_objects = _cached_plan(spec)
        plan_s = time.perf_counter() - plan_start

        machine = TaskMachine(
            spec.nprocs,
            recv_timeout_s=options.recv_timeout_s,
            run_timeout_s=options.run_timeout_s,
            comm_latency_s=options.comm_latency_s,
        )
        members = self.member_fns(spec.fallback_sets)

        # One exec of the module binds helpers and procedures; each rank
        # then works in its own shallow copy so unit-level assignments
        # (the segments' "locals") never leak across ranks.
        module_ns: Dict[str, object] = {}
        exec(node_code(spec.source), module_ns)  # noqa: S102

        runtimes: List[NodeRuntime] = []
        namespaces: List[Dict[str, object]] = []
        for rank in range(spec.nprocs):
            bindings = spec.bindings[rank]
            arrays, scalars = self.allocate_state(bindings)
            runtime = NodeRuntime(
                machine,
                rank,
                dict(bindings.env),
                arrays,
                bindings.array_lbounds,
                scalars,
            )
            runtime.member_fns = members
            runtime.inplace = dict(bindings.inplace)
            arm_runtime(runtime, options.fault_plan)
            runtimes.append(runtime)
            rank_ns = dict(module_ns)
            rank_ns["rt"] = runtime
            namespaces.append(rank_ns)

        workers = options.taskgraph_workers or min(
            spec.nprocs, max(2, os.cpu_count() or 2)
        )
        if plan.needs_rank_parallel_pool:
            # Blocking units (collectives, whole-procedure calls,
            # ungated receives) may suspend one worker per rank at once.
            workers = max(workers, spec.nprocs)

        scheduler = TaskScheduler(
            plan,
            machine,
            runtimes,
            namespaces,
            code_objects,
            workers=workers,
            run_timeout_s=options.run_timeout_s,
        )
        launch_start = time.perf_counter()
        stats = scheduler.run()
        elapsed = time.perf_counter() - launch_start

        busy = scheduler.rank_busy_seconds()
        timings = [
            RankTiming(rank, busy[rank]) for rank in range(spec.nprocs)
        ]
        rank_results = [
            RankResult(rt.rank, rt.arrays, rt.scalars, rt.trace, rt.env)
            for rt in runtimes
        ]
        scheduler_report = stats.as_dict()
        scheduler_report["plan_build_s"] = round(plan_s, 6)
        return LaunchResult(
            self.name,
            rank_results,
            timings,
            elapsed,
            scheduler=scheduler_report,
        )
