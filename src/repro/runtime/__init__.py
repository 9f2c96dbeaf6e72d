"""Message-passing runtime: execution backends + cost model.

Correctness always comes from really executing the generated SPMD code on
one of the pluggable backends (:mod:`repro.runtime.backends`); predicted
performance comes from LogGP replay of the recorded traces, and measured
performance from the backends' wall-clock timings (meaningful on ``mp``).
"""

from .backends import (
    ExecutionBackend,
    LaunchResult,
    LaunchSpec,
    MultiprocessBackend,
    RankBindings,
    RankTiming,
    SequentialBackend,
    ThreadsBackend,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend,
)
from .cost import CostModel, ReplayResult, replay
from .errors import (
    CommunicationError,
    LaunchError,
    RankCrashError,
    RankDiagnostics,
    RecvTimeoutError,
    ResultDivergenceError,
    RunTimeoutError,
    decode_exitcode,
    is_transient,
)
from .faults import FaultPlan, FaultSpec, InjectedFault, arm_runtime
from .harness import (
    AttemptRecord,
    RetryPolicy,
    RunOutcome,
    ValidationError,
    build_launch_spec,
    cross_check_results,
    eval_lang_expr,
    evaluate_bindings,
    run_compiled,
)
from .machine import Machine, NodeRuntime, RankResult
from .noderuntime import NodeRuntimeBase
from .options import RuntimeOptions, default_recv_timeout
from .trace import RunStatistics, Trace

__all__ = [
    "AttemptRecord",
    "CommunicationError",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "LaunchError",
    "RankCrashError",
    "RankDiagnostics",
    "RecvTimeoutError",
    "ResultDivergenceError",
    "RetryPolicy",
    "RunTimeoutError",
    "arm_runtime",
    "cross_check_results",
    "decode_exitcode",
    "is_transient",
    "CostModel",
    "ExecutionBackend",
    "LaunchResult",
    "LaunchSpec",
    "Machine",
    "MultiprocessBackend",
    "NodeRuntime",
    "NodeRuntimeBase",
    "RankBindings",
    "RankResult",
    "RankTiming",
    "ReplayResult",
    "RunOutcome",
    "RunStatistics",
    "RuntimeOptions",
    "SequentialBackend",
    "ThreadsBackend",
    "Trace",
    "ValidationError",
    "backend_names",
    "build_launch_spec",
    "default_recv_timeout",
    "eval_lang_expr",
    "evaluate_bindings",
    "get_backend",
    "register_backend",
    "replay",
    "resolve_backend",
    "run_compiled",
]
