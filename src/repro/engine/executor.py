"""Executors: turn RunSpecs into serialized outcome payloads.

The execution stack is layered in three pieces (see the "Distributed
execution" section of ``docs/ARCHITECTURE.md``):

1. the **lease protocol** (:mod:`repro.engine.protocol`) -- versioned,
   JSON-line-framed ``Lease``/``LeaseResult`` messages that carry a
   fusion group, its retry attempt, its deadline and the fault plan to
   a worker, and bring payloads plus a telemetry snapshot back;
2. the **coordinator** (:class:`LeaseExecutor`, here) -- plans the
   wavefront, leases pending groups to a pluggable
   :class:`~repro.engine.pools.WorkerPool`, classifies a dead or
   expired worker as a crash fault (the lease requeues through the
   ordinary :class:`RetryPolicy`), and merges results and telemetry in
   submission order;
3. the **worker backends** (:mod:`repro.engine.pools`) -- in-process,
   dedicated local processes, or socket-connected standalone agents
   (:mod:`repro.engine.worker`), all indistinguishable to the
   coordinator.

The unit of work is deliberately the *payload dict* (the JSON-safe
summary from :func:`repro.serialize.outcome_to_dict`), not the live
:class:`~repro.runners.RunOutcome`: payloads are cheap to ship across
process and socket boundaries, are exactly what the persistent store
writes, and guarantee every pool backend and a store hit hand the
experiment layer byte-identical data.

Resilience: every fusion group runs under a :class:`RetryPolicy` --
bounded attempts, exponential backoff with an injectable sleep, and an
optional per-group wall-clock deadline.  Each lease's deadline clock
starts when its worker starts executing -- time spent waiting for a
free slot never counts against it -- and an attempt that overruns is
classified as a timeout even if a result eventually arrives, which
keeps failure classification identical across backends (the
in-process pool cannot interrupt an attempt, so it classifies the
overrun after the fact).  A worker that dies while holding a lease
(killed process, dropped connection) surfaces as a
:func:`repro.faults.worker_loss_failure` crash fault and the lease
requeues on the next wave, on whatever worker is free.  A group that
still fails after its attempts are exhausted becomes one
structured :class:`FailedRun` payload per member spec -- the wavefront
*completes* and reports partial results -- unless the executor is
``strict``, in which case the coordinator stops granting leases,
finishes the ones in flight, and raises :class:`SpecExecutionError`
naming the member spec (or the shared fused execution) that actually
failed.  Each group resolves the moment its pool event lands, so
completed groups are checkpointed as they go.  ``KeyboardInterrupt``
is handled gracefully: in-flight leases are aborted, telemetry for
completed groups stays merged, and ``last_interrupt`` reports how many
groups finished before the interrupt.

Telemetry: every executed spec is timed under an ``executor.spec``
span (labelled by workload, carrying the spec digest).  Workers record
into their own process-local telemetry and ship a snapshot back inside
the :class:`~repro.engine.protocol.LeaseResult`; the coordinator
merges snapshots in spec *submission* order, so the combined registry
is identical to a serial run's regardless of completion order or
worker placement.  Retries and deadline expiries are counted under
``executor.retries`` and ``executor.timeouts``, identically across
backends; per-worker attribution lands separately under the
``pool.*`` labelled counters (``pool.specs``, ``pool.leases``,
``pool.retries``, ``pool.timeouts``, ``pool.lost``, labelled by pool
kind and worker id) and in :attr:`LeaseExecutor.worker_stats`.

Fault injection (:mod:`repro.faults`) hooks in at exactly one seam:
:func:`repro.engine.attempt.attempt_group` consults the installed plan
before executing, so injected crashes and hangs take the same code
path -- and produce byte-identical failure payloads -- whether the
attempt runs in-process, in a local worker process, or on a remote
agent.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.faults import active_fault_plan, worker_loss_failure
from repro.telemetry import get_telemetry

from .pools import PoolEvent, WorkerPool, make_pool
from .protocol import Lease
from .spec import RunSpec

#: Signature of the streaming-results callback ``execute_groups``
#: accepts: ``(group_index, group, payloads)``, invoked as each group
#: reaches its final state (success or exhausted failure).  The engine
#: uses it to checkpoint wavefront progress to the store as it goes.
OnResult = Callable[[int, Sequence[RunSpec], List[Dict[str, Any]]], None]

#: Per-worker tallies tracked by the coordinator (and mirrored into
#: the ``pool.*`` labelled telemetry counters).
WORKER_STAT_FIELDS = ("leases", "specs", "retries", "timeouts", "lost",
                      "heartbeats_missed", "rejoins", "stale")


class DrainInterrupt(KeyboardInterrupt):
    """A graceful SIGTERM drain stopped the sweep mid-wavefront.

    Raised by an executor whose :meth:`request_drain` was called (the
    CLI wires it to SIGTERM): in-flight leases were finished and
    checkpointed, no new leases were granted, and the remaining groups
    are left for ``--resume``.  Subclasses ``KeyboardInterrupt`` so
    every existing interrupt path -- checkpoint salvage, telemetry,
    ``last_interrupt`` -- handles a drain identically; callers that
    care (the CLI banner and exit code) catch it first.
    """


class SpecExecutionError(RuntimeError):
    """One spec's execution failed; names the spec and its digest."""

    def __init__(self, spec: RunSpec, message: str,
                 worker_traceback: Optional[str] = None) -> None:
        self.spec = spec
        self.digest = spec.digest()
        self.worker_traceback = worker_traceback
        detail = f"\n--- worker traceback ---\n{worker_traceback}" \
            if worker_traceback else ""
        super().__init__(
            f"spec {spec.describe()} (digest {self.digest[:12]}) "
            f"failed: {message}{detail}"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """How an executor treats a failing or overrunning group.

    ``max_attempts`` counts total tries (1 = no retries).  Backoff
    before attempt *n+1* is ``backoff_base * backoff_factor**(n-1)``
    seconds, delivered through ``sleep`` so tests inject a no-op clock.
    ``timeout`` is a per-group wall-clock deadline in seconds
    (``None`` = unbounded); an attempt that overruns it is classified
    as a timeout even if it eventually returns, keeping serial and
    parallel classification identical.
    """

    max_attempts: int = 1
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    timeout: Optional[float] = None
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout is not None and not self.timeout > 0:
            raise ValueError("timeout must be > 0 seconds (None = unbounded)")

    def backoff(self, failed_attempt: int) -> float:
        """Seconds to wait after attempt ``failed_attempt`` failed."""
        return self.backoff_base * self.backoff_factor ** (failed_attempt - 1)


@dataclass(frozen=True)
class InterruptReport:
    """How far a wavefront got before a ``KeyboardInterrupt``."""

    completed: int
    total: int


@dataclass
class FailedRun:
    """The structured residue of a group that exhausted its retries.

    One instance per member spec of the failed group; ``failed_member``
    names the member (``spec.describe()``) the failure was attributed
    to, or ``None`` when the shared fused execution itself failed.
    Serializes to a ``{"kind": "failed_run", ...}`` payload -- the same
    currency as successful outcome payloads -- so partial wavefront
    results stay one homogeneous list.
    """

    spec: RunSpec
    reason: str  # "error" | "timeout"
    error: str
    attempts: int
    failed_member: Optional[str] = None
    traceback: Optional[str] = None

    @property
    def digest(self) -> str:
        return self.spec.digest()

    def describe(self) -> str:
        return (f"FAILED[{self.reason}] {self.spec.describe()} "
                f"after {self.attempts} attempt(s): {self.error}")

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": "failed_run",
            "spec": self.spec.to_dict(),
            "digest": self.spec.digest(),
            "reason": self.reason,
            "error": self.error,
            "attempts": self.attempts,
            "failed_member": self.failed_member,
            "traceback": self.traceback,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FailedRun":
        return cls(
            spec=RunSpec.from_dict(payload["spec"]),
            reason=payload["reason"],
            error=payload["error"],
            attempts=payload["attempts"],
            failed_member=payload.get("failed_member"),
            traceback=payload.get("traceback"),
        )


def is_failed_payload(payload: Dict[str, Any]) -> bool:
    """True for the payload form of a :class:`FailedRun`."""
    return isinstance(payload, dict) and payload.get("kind") == "failed_run"


def _timeout_failure(group: Sequence[RunSpec],
                     policy: RetryPolicy) -> Dict[str, Any]:
    """The failure info for a group that overran its deadline."""
    return {
        "reason": "timeout",
        "error": f"TimeoutError: group exceeded its {policy.timeout:g}s "
                 f"deadline",
        "traceback": None,
        "member": 0 if len(group) == 1 else None,
    }


def _failed_payloads(group: Sequence[RunSpec], failure: Dict[str, Any],
                     attempts: int) -> List[Dict[str, Any]]:
    """One :class:`FailedRun` payload per member of a failed group."""
    member_index = failure.get("member")
    member = group[member_index].describe() \
        if member_index is not None else None
    return [
        FailedRun(
            spec=spec, reason=failure["reason"], error=failure["error"],
            attempts=attempts, failed_member=member,
            traceback=failure.get("traceback"),
        ).to_payload()
        for spec in group
    ]


def _spec_error(group: Sequence[RunSpec], failure: Dict[str, Any],
                attempts: int) -> SpecExecutionError:
    """Strict-mode error naming the member that actually failed."""
    member_index = failure.get("member")
    if member_index is not None:
        spec = group[member_index]
        blame = ""
        if len(group) > 1:
            blame = (f" (member {member_index + 1}/{len(group)} of the "
                     f"fused group)")
    else:
        spec = group[0]
        blame = (f" (shared fused execution of {len(group)} specs)"
                 if len(group) > 1 else "")
    message = (f"{failure['error']}{blame} "
               f"[reason={failure['reason']}, attempts={attempts}]")
    return SpecExecutionError(spec, message,
                              worker_traceback=failure.get("traceback"))


class _Sweep:
    """One :meth:`LeaseExecutor.execute_groups` call's group state."""

    def __init__(self, groups: List[List[RunSpec]],
                 plan_dict: Optional[Dict[str, Any]],
                 on_result: Optional[OnResult]) -> None:
        self.groups = groups
        self.plan_dict = plan_dict
        self.on_result = on_result
        #: Journal keys: one per group, its members' digests joined.
        self.keys = ["+".join(spec.digest() for spec in group)
                     for group in groups]
        #: Attempts granted so far, per group.
        self.attempts = [0] * len(groups)
        #: Final payloads per group; ``None`` while unresolved.
        self.results: List[Optional[List[Dict[str, Any]]]] = \
            [None] * len(groups)
        self.completed = 0
        #: Strict mode's first exhausted failure; once set, no new
        #: leases are granted and it is raised after the wave.
        self.error: Optional[SpecExecutionError] = None

    def commit(self, index: int, payloads: List[Dict[str, Any]]) -> None:
        """Group ``index`` reached its final payloads: checkpoint it."""
        self.results[index] = payloads
        self.completed += 1
        if self.on_result is not None:
            self.on_result(index, self.groups[index], payloads)


class LeaseExecutor:
    """The coordinator: plans waves, leases groups to a worker pool.

    The one executor: ``--jobs 1``, ``--jobs N`` and ``--workers``
    differ only in the pool.  Owns all *policy* -- retries,
    deadlines-as-timeouts, crash-fault classification, strict-mode
    errors, submission-order telemetry merging, checkpoint callbacks
    -- while the :class:`~repro.engine.pools.WorkerPool` owns only
    *placement*.  Execution proceeds in retry waves: attempt *n* of
    every pending group runs (each group as one
    :class:`~repro.engine.protocol.Lease`, resolved as its event
    lands), then failed, expired and lost groups back off together
    and requeue as attempt *n+1*.  A lost worker consumes a retry
    attempt like any crash: the lease's failure info comes from
    :func:`repro.faults.worker_loss_failure`, and downstream handling
    (FailedRun payloads, strict errors, store checkpoints, resume) is
    byte-identical to an in-process crash.
    """

    def __init__(self, pool: WorkerPool,
                 retry: Optional[RetryPolicy] = None,
                 strict: bool = True) -> None:
        self.pool = pool
        self.jobs = pool.capacity
        self.retry = retry if retry is not None else RetryPolicy()
        self.strict = strict
        self.runs_executed = 0
        self.runs_failed = 0
        self.last_interrupt: Optional[InterruptReport] = None
        #: worker id -> one tally per :data:`WORKER_STAT_FIELDS` entry
        self.worker_stats: Dict[str, Dict[str, int]] = {}
        self._lease_seq = 0
        self._drain = False
        #: Optional :class:`~repro.engine.journal.LeaseJournal` (wired
        #: by the engine when a store is configured): grants, completes
        #: and final failures are journaled so a restarted
        #: coordinator's ``--resume`` recovers per-group attempt
        #: budgets and continues the fencing-epoch sequence.
        self.journal = None

    @property
    def pool_kind(self) -> str:
        return self.pool.kind

    def execute(self, specs: Sequence[RunSpec]) -> List[Dict[str, Any]]:
        """Run specs as singleton groups (no fusion)."""
        results = self.execute_groups([[spec] for spec in specs])
        return [payloads[0] for payloads in results]

    def request_drain(self) -> None:
        """Graceful SIGTERM drain: no new leases, finish what flies.

        In-flight leases run to completion and checkpoint; waiting
        groups stay pending for ``--resume``; the wavefront then
        raises :class:`DrainInterrupt`.  A socket pool is also
        detached, so its agents are severed without a shutdown frame
        and their rejoin loops can find the replacement coordinator.
        """
        self._drain = True
        detach = getattr(self.pool, "detach", None)
        if detach is not None:
            detach()

    def close(self) -> None:
        self.pool.close()

    # -- per-worker accounting ---------------------------------------

    def _stats(self, worker: str) -> Dict[str, int]:
        stats = self.worker_stats.get(worker)
        if stats is None:
            stats = dict.fromkeys(WORKER_STAT_FIELDS, 0)
            self.worker_stats[worker] = stats
        return stats

    def _attribute(self, telemetry, worker: str, stat: str,
                   n: int = 1) -> None:
        """One per-worker tally, mirrored into a labelled counter."""
        self._stats(worker)[stat] += n
        telemetry.count(f"pool.{stat}",
                        n=n, labels={"pool": self.pool.kind,
                                     "worker": worker})

    # -- the wave loop ------------------------------------------------

    def _granting(self, sweep: _Sweep) -> bool:
        """New leases go out until a drain or a strict failure."""
        return not self._drain and sweep.error is None

    def _grant(self, sweep: _Sweep, index: int, telemetry) -> Lease:
        """Submit group ``index``'s next attempt as one lease.

        The grant consumes the attempt (and is journaled, so a
        coordinator that dies after granting does not hand the group a
        fresh budget on restart).
        """
        attempt = sweep.attempts[index] + 1
        self._lease_seq += 1
        lease = Lease.for_group(
            f"L{self._lease_seq:06d}", sweep.groups[index], attempt,
            self.retry.timeout, sweep.plan_dict, telemetry.enabled,
            epoch=self._lease_seq)
        if self.journal is not None:
            self.journal.record_grant(sweep.keys[index], lease.epoch,
                                      attempt, lease.lease_id)
        sweep.attempts[index] = attempt
        self.pool.submit(lease)
        return lease

    def _land(self, sweep: _Sweep, index: int, event: PoolEvent,
              telemetry) -> None:
        """Resolve group ``index`` from its lease's pool event.

        Success commits at once; a failure with attempts left leaves
        the group for the next wave; an exhausted failure commits as
        :class:`FailedRun` payloads, or under ``strict`` records the
        error that stops further grants.
        """
        group = sweep.groups[index]
        if event.kind == "result":
            self._attribute(telemetry, event.worker, "leases")
            self._attribute(telemetry, event.worker, "specs",
                            n=len(group))
            if sweep.attempts[index] > 1:
                self._attribute(telemetry, event.worker, "retries")
            if event.status == "ok":
                self.runs_executed += 1
                sweep.commit(index, event.value)
                if self.journal is not None:
                    self.journal.record_complete(sweep.keys[index],
                                                 sweep.attempts[index])
                return
            failure = event.value
        elif event.kind == "expired":
            self._attribute(telemetry, event.worker, "timeouts")
            telemetry.count("executor.timeouts")
            failure = _timeout_failure(group, self.retry)
        else:  # "lost"
            self._attribute(telemetry, event.worker, "lost")
            failure = worker_loss_failure(len(group), event.worker,
                                          pool_kind=self.pool.kind)
        attempts = sweep.attempts[index]
        if attempts < self.retry.max_attempts:
            return
        if self.strict:
            if sweep.error is None:
                sweep.error = _spec_error(group, failure, attempts)
            return
        self.runs_failed += 1
        if self.journal is not None:
            self.journal.record_fail(sweep.keys[index])
        sweep.commit(index, _failed_payloads(group, failure, attempts))

    def _run_wave(self, sweep: _Sweep, pending: List[int],
                  telemetry) -> List[int]:
        """One retry wave: every pending group leased at most once.

        Leases go out in submission order while the pool has capacity;
        each lease's deadline clock starts when its worker does, so
        time spent waiting for a free slot never counts against it.
        Every pool event resolves its group the moment it lands, so a
        group is checkpointed before the wave ends and an interrupt
        loses only what was still in flight.  Worker telemetry
        snapshots still merge in submission order -- one that lands
        early waits for its predecessors -- so the combined registry
        is independent of completion order.  Liveness-only events
        (rejoins, missed heartbeats, fenced stale results) are counted
        here and never touch group state.  A drain or strict failure
        stops new grants but waits out everything already in flight.

        Returns the groups left for the next wave, in order.
        """
        pool = self.pool
        waiting = deque(pending)
        inflight: Dict[str, int] = {}
        #: index -> (snapshot or None, worker) of a landed lease whose
        #: snapshot awaits its turn; the first ``merged`` entries of
        #: ``pending`` have had theirs.
        landed: Dict[int, Tuple[Optional[Dict[str, Any]], str]] = {}
        merged = 0

        def merge(index: int) -> None:
            snapshot, worker = landed.pop(index, (None, ""))
            if snapshot is not None:
                telemetry.merge(snapshot, source=f"{pool.kind}:{worker}")

        try:
            while inflight or (waiting and self._granting(sweep)):
                while (waiting and self._granting(sweep)
                        and pool.has_capacity()):
                    index = waiting.popleft()
                    inflight[self._grant(sweep, index,
                                         telemetry).lease_id] = index
                for event in pool.wait(timeout=1.0):
                    if event.kind == "rejoin":
                        self._attribute(telemetry, event.worker,
                                        "rejoins")
                        continue
                    if event.kind == "missed_heartbeat":
                        self._attribute(telemetry, event.worker,
                                        "heartbeats_missed")
                        continue
                    if event.kind == "stale":
                        telemetry.count("executor.stale_results_rejected")
                        self._attribute(telemetry, event.worker, "stale")
                        continue
                    index = inflight.pop(event.lease_id, None)
                    if index is None:
                        continue
                    landed[index] = (event.snapshot, event.worker)
                    while merged < len(pending) \
                            and pending[merged] in landed:
                        merge(pending[merged])
                        merged += 1
                    self._land(sweep, index, event, telemetry)
        except BaseException:
            pool.abort()
            raise
        finally:
            # Interrupted or stopped early: whatever did land still
            # merges, in submission order.
            for index in pending[merged:]:
                merge(index)
        return [index for index in pending if sweep.results[index] is None]

    def execute_groups(self, groups: Sequence[Sequence[RunSpec]],
                       on_result: Optional[OnResult] = None
                       ) -> List[List[Dict[str, Any]]]:
        """Lease fusion groups to the pool; one execution per group.

        Each group carries its own attempt budget (seeded from the
        lease journal's dangling grants when resuming after a
        coordinator crash, clamped so every resumed group keeps at
        least one attempt here).  Groups resolve -- and ``on_result``
        checkpoints them -- as their events land; failed groups with
        attempts left retry together in the next wave, after one
        backoff sleep.  Under ``strict`` the first exhausted group
        stops new grants, the leases in flight finish (and
        checkpoint), and its :class:`SpecExecutionError` is raised.
        """
        self.last_interrupt = None
        groups = [list(group) for group in groups]
        if not groups:
            return []
        self.pool.start()
        telemetry = get_telemetry()
        policy = self.retry
        plan = active_fault_plan()
        sweep = _Sweep(groups, plan.to_dict() if plan is not None else None,
                       on_result)
        if self.journal is not None:
            for index, key in enumerate(sweep.keys):
                sweep.attempts[index] = min(
                    self.journal.prior_attempts(key),
                    policy.max_attempts - 1)
            # Continue the fencing sequence past anything a dead
            # coordinator granted, so this coordinator's epochs (and
            # lease ids) can never collide with a zombie's.
            self._lease_seq = max(self._lease_seq, self.journal.max_epoch)
        try:
            pending = list(range(len(groups)))
            wave = 0
            while pending and self._granting(sweep):
                wave += 1
                if wave > 1:
                    telemetry.count("executor.retries", n=len(pending))
                    policy.sleep(policy.backoff(wave - 1))
                pending = self._run_wave(sweep, pending, telemetry)
            if sweep.error is not None:
                raise sweep.error
            if pending:
                raise DrainInterrupt(
                    f"drained with {len(pending)} group(s) pending")
            if self.journal is not None:
                # Clean end of sweep: nothing dangles, budgets must
                # not leak into unrelated sweeps.
                self.journal.compact()
        except KeyboardInterrupt:
            # _run_wave has already aborted in-flight leases (a drain
            # waited them out instead); completed groups stay counted
            # and their telemetry stays merged, so a resumed sweep
            # picks up exactly where this one stopped.
            self.last_interrupt = InterruptReport(sweep.completed,
                                                  len(groups))
            telemetry.event("executor.interrupted",
                            completed=sweep.completed, total=len(groups))
            raise
        return sweep.results


def make_executor(jobs: int = 1, retry: Optional[RetryPolicy] = None,
                  strict: bool = True,
                  workers: Optional[str] = None) -> LeaseExecutor:
    """Build the executor a CLI invocation asked for: the coordinator
    over :func:`~repro.engine.pools.make_pool`'s pool for ``jobs`` /
    ``workers``."""
    return LeaseExecutor(make_pool(jobs=jobs, workers=workers),
                         retry=retry, strict=strict)
