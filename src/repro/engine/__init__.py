"""Execution engine: declarative runs, executors, persistent store.

The run-spec layer (:class:`RunSpec`) is the single currency between
experiments, runners, serialization and benchmarks; the engine
(:class:`ExecutionEngine`) resolves specs through an in-process memo, a
persistent content-addressed :class:`ResultStore`, and an executor.
Executors are layered as a coordinator/worker lease protocol: a
:class:`LeaseExecutor` coordinator hands :class:`Lease` messages to a
pluggable worker pool (in-process, or socket-connected worker agents
forked locally or started on other nodes).  See the "Execution engine" and
"Distributed execution" sections of ``docs/ARCHITECTURE.md``.
"""

from .attempt import (
    attempt_group, cached_program, execute_group_payloads, execute_spec,
    execute_spec_payload, run_lease, static_counts,
)
from .engine import ExecutionEngine
from .executor import (
    DrainInterrupt, FailedRun, InterruptReport, LeaseExecutor,
    RetryPolicy, SpecExecutionError, is_failed_payload, make_executor,
)
from .fusion import fusion_key, plan_groups
from .journal import JOURNAL_NAME, LeaseJournal
from .pools import (
    InProcessPool, LocalProcessPool, PoolEvent, SocketPool, WorkerPool,
    make_pool,
)
from .protocol import (
    PROTOCOL_VERSION, ConnectionClosed, Heartbeat, HeartbeatAck, Lease,
    LeaseResult, ProtocolError, Shutdown, WorkerHello, WorkerWelcome,
)
from .spec import RunSpec, SPEC_MODES
from .store import FsckReport, ResultStore

__all__ = [
    "ConnectionClosed", "DrainInterrupt", "ExecutionEngine",
    "FailedRun", "FsckReport", "Heartbeat", "HeartbeatAck",
    "InProcessPool", "InterruptReport", "JOURNAL_NAME", "Lease",
    "LeaseExecutor", "LeaseJournal", "LeaseResult", "LocalProcessPool",
    "PROTOCOL_VERSION", "PoolEvent",
    "ProtocolError", "ResultStore", "RetryPolicy", "RunSpec",
    "SPEC_MODES", "Shutdown", "SocketPool",
    "SpecExecutionError", "WorkerHello", "WorkerPool", "WorkerWelcome",
    "attempt_group", "cached_program", "execute_group_payloads",
    "execute_spec", "execute_spec_payload", "fusion_key",
    "is_failed_payload", "make_executor", "make_pool", "plan_groups",
    "run_lease", "static_counts",
]
