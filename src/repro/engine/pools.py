"""Worker pools: the pluggable backends leases are dispatched to.

The coordinator (:class:`repro.engine.executor.LeaseExecutor`) plans a
wavefront and hands :class:`~repro.engine.protocol.Lease` objects to a
:class:`WorkerPool`; the pool decides where they physically run.  Two
backends share the one interface:

``InProcessPool``
    Executes each lease synchronously in the coordinator process,
    under the coordinator's own telemetry.  Serial, deterministic, no
    subprocesses -- what ``--jobs 1`` (the default) resolves to.

``SocketPool``
    Listens on a TCP port; worker agents
    (:func:`repro.engine.worker.serve`) register via the hello/welcome
    handshake and lease work over JSON-line frames.  A dropped
    connection surfaces as a lost lease; an expired remote lease
    severs the connection (a remote process cannot be killed, so the
    pool stops trusting anything it might still send).  ``--workers``
    resolves to one, served by agents started with ``python -m
    repro.engine.worker --connect HOST:PORT``.

``--jobs N`` resolves to a :class:`LocalProcessPool`: a ``SocketPool``
on ``127.0.0.1`` whose N agents are local processes running that same
agent loop, so there is one lease loop outside the coordinator, and
the pool adds only process supervision (start, replace, join).

A pool never retries, classifies, or merges -- it reports raw
:class:`PoolEvent` facts ("this lease produced this result", "this
lease expired", "this lease's worker died") and the coordinator owns
all policy, which is how in-process, local and distributed sweeps stay
byte-identical.
"""

from __future__ import annotations

import multiprocessing
import os
import selectors
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.faults import (
    NET_FRAME_KINDS, FaultyStream, NetFaultState, active_fault_plan,
)

from .attempt import attempt_group
from .protocol import (
    Heartbeat, HeartbeatAck, Lease, LeaseResult, ProtocolError, Shutdown,
    WorkerHello, WorkerWelcome, read_frame, write_frame,
)

#: How long a coordinator-side blocking frame read may take before the
#: peer is declared dead (guards against half-written frames wedging
#: the coordinator; results on localhost arrive in milliseconds).
FRAME_READ_TIMEOUT_S = 60.0

#: Default liveness probing of busy socket workers: a heartbeat every
#: ``UMI_HEARTBEAT_S`` seconds, a worker declared lost after
#: ``UMI_LIVENESS_MISSES`` consecutive unanswered beats.  Environment
#: overrides exist so chaos harnesses (CI's network-chaos smoke) can
#: tighten liveness without new CLI surface.
DEFAULT_HEARTBEAT_S = 5.0
DEFAULT_LIVENESS_MISSES = 3


@dataclass
class PoolEvent:
    """One fact a pool reports back to the coordinator.

    ``kind`` is one of:

    - ``"result"`` -- the lease finished; ``status``/``value`` are the
      attempt outcome, ``snapshot`` the worker telemetry (or
      ``None``) and ``static_counts`` the counts of the program the
      worker ran.
    - ``"expired"`` -- the lease outlived its deadline; the pool has
      already killed or severed the worker.
    - ``"lost"`` -- the worker died (or was declared dead by the
      liveness deadline) without reporting; the coordinator classifies
      this as a crash fault and requeues.
    - ``"stale"`` -- a fenced-off result: its ``epoch`` is not the one
      currently granted (a zombie worker answered after its lease was
      requeued).  The value is discarded; only telemetry counts it.
    - ``"rejoin"`` -- a previously lost/suspect worker is serving
      again (reconnected, or its partition healed); ``lease_id`` is
      empty.
    - ``"missed_heartbeat"`` -- one liveness probe went unanswered;
      ``lease_id`` is empty.
    """

    kind: str
    lease_id: str
    worker: str
    status: Optional[str] = None
    value: Any = None
    snapshot: Optional[Dict[str, Any]] = None
    epoch: int = 0
    #: A result's :attr:`~repro.engine.protocol.LeaseResult.static_counts`.
    static_counts: Tuple[Tuple[Any, ...], ...] = ()


class WorkerPool:
    """Interface every lease backend implements.

    The coordinator's contract: call :meth:`start` once, then loop
    ``while work remains``: submit leases while :meth:`has_capacity`,
    then block in :meth:`wait` for events.  :meth:`abort` tears down
    in-flight leases (interrupt path); :meth:`close` releases the
    backend entirely.  ``kind`` tags telemetry attribution and the
    bench report's execution record.
    """

    kind = "abstract"

    @property
    def capacity(self) -> int:
        """Nominal worker-slot count (for wave sizing / reporting)."""
        raise NotImplementedError

    def start(self) -> None:
        """Bring the backend up (idempotent)."""

    def has_capacity(self) -> bool:
        """True when another lease can be submitted right now."""
        raise NotImplementedError

    def submit(self, lease: Lease) -> None:
        """Dispatch one lease to an idle worker."""
        raise NotImplementedError

    def wait(self, timeout: Optional[float] = None) -> List[PoolEvent]:
        """Block until something happens; return the new events."""
        raise NotImplementedError

    def abort(self) -> None:
        """Kill/sever every in-flight lease (interrupt path)."""

    def close(self) -> None:
        """Release the backend's resources."""


class InProcessPool(WorkerPool):
    """Runs each lease synchronously in the coordinator process.

    Execution happens under the coordinator's *own* telemetry (no
    reset, no snapshot), one lease at a time: the pool holds a single
    slot, busy until the lease's event is delivered.  This is what
    ``--jobs 1`` resolves to.  Deadlines are classified after the
    fact: the attempt cannot be interrupted in-process, but an overrun
    still reports as ``"expired"`` so retry accounting matches the
    killable backends.
    """

    kind = "inprocess"

    def __init__(self) -> None:
        self._events: List[PoolEvent] = []

    @property
    def capacity(self) -> int:
        return 1

    def has_capacity(self) -> bool:
        # One slot: the next lease waits until this one's event is
        # delivered, so the coordinator resolves (and checkpoints)
        # each group before it runs the next.
        return not self._events

    def submit(self, lease: Lease) -> None:
        started = time.monotonic()
        status, value = attempt_group(lease.group(), lease.attempt)
        elapsed = time.monotonic() - started
        if lease.deadline_s is not None and elapsed > lease.deadline_s:
            self._events.append(
                PoolEvent("expired", lease.lease_id, "inprocess/0"))
        else:
            self._events.append(
                PoolEvent("result", lease.lease_id, "inprocess/0",
                          status=status, value=value, snapshot=None))

    def wait(self, timeout: Optional[float] = None) -> List[PoolEvent]:
        events, self._events = self._events, []
        return events

    def abort(self) -> None:
        self._events.clear()

    def close(self) -> None:
        self._events.clear()


def _quietly(*closers: Any) -> None:
    """Call each closer, ignoring the ``OSError`` of a dead peer."""
    for closer in closers:
        try:
            closer()
        except OSError:
            pass


@dataclass
class _SocketWorker:
    """Coordinator-side record of one connected agent."""

    worker_id: str
    sock: socket.socket
    stream: Any
    pid: int = 0
    host: str = ""
    lease: Optional[Lease] = None
    started: float = 0.0
    #: Liveness probing (busy workers only): when the next beat is
    #: due, whether the last one was answered, and how many beats in a
    #: row went out while the previous was still unanswered.
    next_beat: float = 0.0
    beat_acked: bool = True
    missed: int = 0
    #: Declared lost by the liveness deadline (lease already requeued)
    #: but kept connected, so a late result is read, fenced off as
    #: stale, and the worker re-adopted in place instead of severed.
    suspect: bool = False
    #: Monotonic instant an injected partition heals (0 = none): while
    #: partitioned, the coordinator neither reads this worker's frames
    #: nor delivers its heartbeats, exactly as a dead link would.
    partitioned_until: float = 0.0


class SocketPool(WorkerPool):
    """Leases work to standalone agents over TCP JSON-line frames.

    The coordinator listens; agents (``python -m repro.engine.worker
    --connect HOST:PORT``) dial in and register with a
    :class:`WorkerHello` (rejected on protocol-version mismatch), get
    a :class:`WorkerWelcome` carrying their assigned id, then serve
    one lease at a time.  :meth:`bind` and :meth:`start` are split so
    a caller can learn the ephemeral port before spawning agents;
    late-joining agents are accepted mid-sweep and start receiving
    leases on the next submit pass.

    Remote processes cannot be killed, so an expired or misbehaving
    worker is *severed*: its connection is dropped, its lease reported
    expired/lost, and nothing it later sends is trusted.

    Liveness: while a worker holds a lease the pool probes it with
    :class:`~repro.engine.protocol.Heartbeat` frames every
    ``heartbeat_s`` seconds; a beat sent while the previous one is
    still unanswered counts as *missed*, and ``liveness_misses``
    consecutive misses declare the worker lost (its lease requeues)
    long before the full group deadline.  A lost-by-liveness worker is
    kept connected as a *suspect*: its late result is fenced off by
    the lease epoch (a ``"stale"`` event, never a commit) and the
    worker is re-adopted in place -- and an agent that reconnects
    after a sever re-registers under its old name, both surfacing as
    ``"rejoin"`` events.

    Chaos: when the active fault plan carries network rules, worker
    streams are wrapped in :class:`repro.faults.FaultyStream` (frame
    drop/delay/dup/truncate) and ``partition`` rules cut a named
    worker off -- no reads, no heartbeats -- for a timed window
    starting at its next lease grant.
    """

    kind = "socket"

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 min_workers: int = 1, wait_s: float = 60.0,
                 heartbeat_s: Optional[float] = DEFAULT_HEARTBEAT_S,
                 liveness_misses: int = DEFAULT_LIVENESS_MISSES) -> None:
        if min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {min_workers}")
        if liveness_misses < 1:
            raise ValueError(
                f"liveness_misses must be >= 1, got {liveness_misses}")
        self.host = host
        self.port = port
        self.min_workers = min_workers
        self.wait_s = wait_s
        #: Seconds between liveness probes of a busy worker
        #: (``None``/``0`` disables heartbeating entirely).
        self.heartbeat_s = heartbeat_s or None
        self.liveness_misses = liveness_misses
        self.address: Optional[tuple] = None
        self.workers: Dict[str, _SocketWorker] = {}
        self._listener: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._queued: List[PoolEvent] = []
        self._seq = 0
        self._beat_seq = 0
        self._net_state: Optional[NetFaultState] = None
        self._partitioned: Set[str] = set()  # workers already cut once
        self._names_seen: Set[str] = set()
        self._handoff = False

    # -- lifecycle ----------------------------------------------------

    def bind(self) -> tuple:
        """Open the listening socket; returns ``(host, port)``."""
        if self._listener is None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(16)
            self._listener = listener
            self.address = listener.getsockname()[:2]
            self._selector = selectors.DefaultSelector()
            self._selector.register(listener, selectors.EVENT_READ,
                                    "listener")
        return self.address

    def start(self) -> None:
        """Bind and wait until ``min_workers`` agents have registered."""
        self.bind()
        if len(self.workers) >= self.min_workers:
            return
        deadline = time.monotonic() + self.wait_s
        while len(self.workers) < self.min_workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"only {len(self.workers)}/{self.min_workers} worker "
                    f"agent(s) connected within {self.wait_s:g}s")
            for key, _ in self._selector.select(remaining):
                if key.data == "listener":
                    self._accept()

    def _accept(self) -> None:
        conn, _addr = self._listener.accept()
        conn.settimeout(FRAME_READ_TIMEOUT_S)
        stream = conn.makefile("rwb")
        try:
            hello = read_frame(stream)
            if not isinstance(hello, WorkerHello):
                raise ProtocolError(
                    f"expected hello, got {type(hello).__name__}")
            base = hello.worker or f"w{self._seq}"
            self._seq += 1
            worker_id = base
            bump = 1
            while worker_id in self.workers:
                stale = self.workers[worker_id]
                if stale.suspect:
                    # The name's previous holder is a fenced-off
                    # zombie; the agent reconnecting under its old
                    # name replaces it (the rejoin path after a sever
                    # the agent noticed before the coordinator did).
                    self._drop(stale)
                    break
                worker_id = f"{base}~{bump}"
                bump += 1
            write_frame(stream, WorkerWelcome(worker=worker_id))
        except (ProtocolError, OSError):
            # Wrong version, garbage, or a vanished dialer: reject the
            # registration; never let it poison the worker table.
            _quietly(stream.close, conn.close)
            return
        if self._net_state is None:
            plan = active_fault_plan()
            if plan is not None and any(rule.kind in NET_FRAME_KINDS
                                        for rule in plan.rules):
                self._net_state = NetFaultState(plan)
        wire = stream if self._net_state is None else FaultyStream(
            stream, worker_id, self._net_state)
        worker = _SocketWorker(worker_id=worker_id, sock=conn,
                               stream=wire, pid=hello.pid,
                               host=hello.host)
        self.workers[worker_id] = worker
        self._selector.register(conn, selectors.EVENT_READ, worker)
        if worker_id in self._names_seen:
            # A name we have served before is an agent coming back.
            self._queued.append(PoolEvent("rejoin", "", worker_id))
        self._names_seen.add(worker_id)

    # -- dispatch -----------------------------------------------------

    @property
    def capacity(self) -> int:
        return max(1, len(self.workers))

    def _idle(self) -> List[_SocketWorker]:
        # Sorted by id so lease placement is deterministic given the
        # same set of idle workers.  Suspect (lost-by-liveness) and
        # partitioned workers are not leasable.
        now = time.monotonic()
        return sorted((w for w in self.workers.values()
                       if w.lease is None and not w.suspect
                       and w.partitioned_until <= now),
                      key=lambda w: w.worker_id)

    def has_capacity(self) -> bool:
        return bool(self._idle())

    def _maybe_partition(self, worker: _SocketWorker) -> None:
        """Start a planned partition at this worker's lease grant."""
        plan = active_fault_plan()
        if plan is None or worker.worker_id in self._partitioned:
            return
        rule = plan.partition_for_worker(worker.worker_id)
        if rule is None:
            return
        self._partitioned.add(worker.worker_id)
        worker.partitioned_until = (time.monotonic()
                                    + rule.partition_seconds)
        # Stop watching the socket: its frames stay buffered in the
        # kernel until the partition heals (re-registered in wait()),
        # so the select loop never spins on the unread data.
        self._unwatch(worker.sock)

    def submit(self, lease: Lease) -> None:
        idle = self._idle()
        if not idle:
            raise RuntimeError("no idle socket worker")
        worker = idle[0]
        worker.lease = lease
        try:
            write_frame(worker.stream, lease)
        except (OSError, ValueError):
            self._sever(worker, self._queued)
            return
        worker.started = time.monotonic()
        worker.beat_acked = True
        worker.missed = 0
        if self.heartbeat_s:
            worker.next_beat = worker.started + self.heartbeat_s
        # The lease frame itself got through; a planned partition cuts
        # the link from this grant onward (so the worker executes and
        # answers into a void, the raw material of a stale result).
        self._maybe_partition(worker)

    def wait(self, timeout: Optional[float] = None) -> List[PoolEvent]:
        if self._queued:
            drained, self._queued = self._queued, []
            return drained
        if not self.workers:
            # Every agent is gone but leases still want workers: block
            # on the listener for a replacement, or give up loudly.
            ready = self._selector.select(self.wait_s)
            if not ready:
                raise TimeoutError(
                    f"socket pool has no workers left and none "
                    f"connected within {self.wait_s:g}s")
            for key, _ in ready:
                if key.data == "listener":
                    self._accept()
            return []
        now = time.monotonic()
        self._heal_partitions(now)
        wait_for = timeout
        wakeups = []
        for w in self.workers.values():
            if w.lease is not None and w.lease.deadline_s is not None:
                wakeups.append(w.started + w.lease.deadline_s)
            if self.heartbeat_s and w.lease is not None and not w.suspect:
                wakeups.append(w.next_beat)
            if w.partitioned_until > now:
                wakeups.append(w.partitioned_until)
        if wakeups:
            soonest = max(0.0, min(wakeups) - now)
            wait_for = soonest if wait_for is None \
                else min(wait_for, soonest)
        events: List[PoolEvent] = []
        for key, _ in self._selector.select(wait_for):
            if key.data == "listener":
                self._accept()
                continue
            worker = key.data
            if self.workers.get(worker.worker_id) is not worker:
                continue  # dropped earlier in this pass
            self._read_worker(worker, events)
        now = time.monotonic()
        for worker in list(self.workers.values()):
            lease = worker.lease
            if (lease is not None and lease.deadline_s is not None
                    and now - worker.started > lease.deadline_s):
                self._drop(worker)
                events.append(PoolEvent(
                    "expired", lease.lease_id, worker.worker_id))
        if self.heartbeat_s:
            self._beat(now, events)
        return events

    def _heal_partitions(self, now: float) -> None:
        """Resume reading workers whose partition window has passed."""
        for worker in self.workers.values():
            if 0.0 < worker.partitioned_until <= now:
                worker.partitioned_until = 0.0
                try:
                    self._selector.register(worker.sock,
                                            selectors.EVENT_READ, worker)
                except (KeyError, ValueError):
                    pass

    def _readopt(self, worker: _SocketWorker,
                 events: List[PoolEvent]) -> None:
        """A suspect proved it is alive: take it back into service."""
        worker.suspect = False
        worker.missed = 0
        worker.beat_acked = True
        events.append(PoolEvent("rejoin", "", worker.worker_id))

    def _read_worker(self, worker: _SocketWorker,
                     events: List[PoolEvent]) -> None:
        """Handle one readable worker connection."""
        try:
            message = read_frame(worker.stream)
        except (ProtocolError, OSError):
            # ConnectionClosed, truncated frame, version drift or a
            # read timeout all mean the same thing here: the worker is
            # gone -- and, if it held a lease, its lease with it.  (A
            # suspect's lease was already requeued at liveness loss.)
            self._sever(worker, events)
            return
        if isinstance(message, HeartbeatAck):
            worker.beat_acked = True
            worker.missed = 0
            if worker.suspect:
                self._readopt(worker, events)
            return
        if isinstance(message, LeaseResult):
            lease = worker.lease
            if (lease is None or message.epoch != lease.epoch
                    or message.lease_id != lease.lease_id):
                # Fenced: the result answers an epoch that is no
                # longer granted (the lease was requeued while this
                # worker was dark).  Never committed; the zombie is
                # re-adopted as a fresh idle worker.
                events.append(PoolEvent(
                    "stale", message.lease_id, worker.worker_id,
                    status=message.status, epoch=message.epoch))
                if worker.suspect:
                    self._readopt(worker, events)
                return
            worker.lease = None
            worker.started = 0.0
            events.append(PoolEvent(
                "result", lease.lease_id, worker.worker_id,
                status=message.status, value=message.value,
                snapshot=message.snapshot, epoch=message.epoch,
                static_counts=message.static_counts))
            return
        # Anything else from a worker is out of protocol: sever it.
        self._sever(worker, events)

    def _beat(self, now: float, events: List[PoolEvent]) -> None:
        """Send due liveness probes; declare silent workers lost.

        A miss is counted only when a beat comes due while the
        previous one is still unanswered -- never from mere clock
        drift while the coordinator was busy elsewhere -- so
        ``liveness_misses`` misses mean the worker truly had
        ``liveness_misses`` beat intervals to answer and did not.
        Beats to a partitioned worker are swallowed by the injected
        partition (bookkeeping still runs, which is exactly how the
        partition trips the liveness deadline).
        """
        for worker in list(self.workers.values()):
            if worker.lease is None or worker.suspect:
                continue
            if now < worker.next_beat:
                continue
            if not worker.beat_acked:
                worker.missed += 1
                events.append(
                    PoolEvent("missed_heartbeat", "", worker.worker_id))
                if worker.missed >= self.liveness_misses:
                    lease = worker.lease
                    worker.lease = None
                    worker.started = 0.0
                    worker.suspect = True
                    events.append(PoolEvent(
                        "lost", lease.lease_id, worker.worker_id))
                    continue
            self._beat_seq += 1
            if worker.partitioned_until <= now:
                try:
                    write_frame(worker.stream,
                                Heartbeat(seq=self._beat_seq))
                except (OSError, ValueError):
                    self._sever(worker, events)
                    continue
            worker.beat_acked = False
            worker.next_beat = now + self.heartbeat_s

    # -- teardown -----------------------------------------------------

    def _unwatch(self, sock: socket.socket) -> None:
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass

    def _drop(self, worker: _SocketWorker) -> None:
        self.workers.pop(worker.worker_id, None)
        self._unwatch(worker.sock)
        # The buffered stream too: makefile() holds an io-ref on the
        # fd, so closing the socket alone would leak it.
        _quietly(worker.stream.close, worker.sock.close)

    def _sever(self, worker: _SocketWorker,
               events: List[PoolEvent]) -> None:
        """Drop ``worker``; the lease it held, if any, is lost."""
        lease = worker.lease
        self._drop(worker)
        if lease is not None:
            events.append(
                PoolEvent("lost", lease.lease_id, worker.worker_id))

    def abort(self) -> None:
        for worker in list(self.workers.values()):
            if worker.lease is not None:
                self._drop(worker)
        self._queued.clear()

    def detach(self) -> None:
        """Close without telling agents to exit (coordinator hand-off).

        A draining coordinator severs its agents instead of shutting
        them down: their rejoin loop redials the address until the
        replacement coordinator binds it, so the fleet survives the
        restart.
        """
        self._handoff = True

    def close(self) -> None:
        for worker in list(self.workers.values()):
            if worker.lease is None and not self._handoff:
                try:
                    write_frame(worker.stream,
                                Shutdown(reason="sweep complete"))
                except (OSError, ValueError):
                    pass
            self._drop(worker)
        if self._listener is not None:
            self._unwatch(self._listener)
            _quietly(self._listener.close)
            self._selector.close()
            self._listener = None
            self._selector = None


class LocalProcessPool(SocketPool):
    """A :class:`SocketPool` on localhost that supervises its agents.

    ``jobs`` daemonic processes, ``local/0``.., run the worker agent
    (:func:`repro.engine.worker.local_main`) and keep its caches (last
    program, Cachegrind riders, compiled code) from lease to lease.
    They are started at the first :meth:`start`.  The agent of an
    ``expired`` or ``lost`` lease, or one whose connection closed
    while idle, is terminated, joined -- never abandoned -- and
    replaced under the same id.  :meth:`close` and :meth:`abort` shut
    idle agents down, terminate busy ones and join them all.
    """

    kind = "local"
    #: Seconds an idle agent gets to exit on ``Shutdown`` at close.
    exit_s = 5.0

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        super().__init__(min_workers=jobs)
        self.jobs = jobs
        #: slot name -> that slot's agent process
        self._agents: Dict[str, Any] = {}
        #: slots whose agent's lease expired or whose connection closed
        self._gone: Set[str] = set()

    @property
    def capacity(self) -> int:
        return self.jobs

    def start(self) -> None:
        self.bind()
        for slot in range(self.jobs):
            if f"local/{slot}" not in self._agents:
                self._launch(f"local/{slot}")
        super().start()

    def _launch(self, name: str) -> None:
        # Late import: ``python -m repro.engine.worker`` must not find
        # the module already imported by this package.
        from .worker import local_main
        agent = multiprocessing.Process(target=local_main,
                                        args=(*self.address, name),
                                        name=name, daemon=True)
        agent.start()
        self._agents[name] = agent

    def _replace(self, name: str) -> None:
        """End slot ``name``'s agent; a fresh one registers in its place."""
        agent = self._agents[name]
        agent.terminate()
        agent.join()
        worker = self.workers.get(name)
        if worker is not None:
            self._drop(worker)
        self._launch(name)

    def _sever(self, worker: _SocketWorker,
               events: List[PoolEvent]) -> None:
        super()._sever(worker, events)
        # A local agent exits with its connection, idle or not.
        self._gone.add(worker.worker_id)

    def wait(self, timeout: Optional[float] = None) -> List[PoolEvent]:
        events = super().wait(timeout)
        self._gone.update(event.worker for event in events
                          if event.kind in ("expired", "lost"))
        for name in self._gone & self._agents.keys():
            self._replace(name)
        self._gone.clear()
        return events

    def detach(self) -> None:
        """Local agents never outlive their coordinator: a drained
        sweep shuts them down like a finished one."""

    def abort(self) -> None:
        self.close()

    def close(self) -> None:
        idle = {worker.worker_id for worker in self.workers.values()
                if worker.lease is None}
        super().close()  # sends the idle agents a Shutdown
        for name, agent in self._agents.items():
            if name in idle:
                agent.join(self.exit_s)
            agent.terminate()  # a no-op once the agent has exited
            agent.join()
        self._agents.clear()


def make_pool(jobs: int = 1,
              workers: Optional[str] = None) -> WorkerPool:
    """Build the pool a CLI invocation asked for.

    ``workers`` is the ``--workers`` spec ``[N@]HOST:PORT`` -- listen
    on HOST:PORT and wait for N agents (default 1).  Without it,
    ``jobs`` picks the backend: ``1`` runs in-process, ``N > 1`` on N
    local agents, and ``0`` on one local agent per core.
    The socket pool's liveness knobs come from the environment
    (``UMI_HEARTBEAT_S``, ``UMI_LIVENESS_MISSES``) so chaos harnesses
    can tighten them without extra CLI surface.
    """
    if workers:
        spec = workers
        min_workers = 1
        if "@" in spec:
            count, spec = spec.split("@", 1)
            min_workers = int(count)
        host, _, port = spec.rpartition(":")
        if not host or not port:
            raise ValueError(
                f"invalid --workers spec {workers!r} "
                f"(expected [N@]HOST:PORT)")
        heartbeat_s = float(os.environ.get(
            "UMI_HEARTBEAT_S", DEFAULT_HEARTBEAT_S))
        liveness = int(os.environ.get(
            "UMI_LIVENESS_MISSES", DEFAULT_LIVENESS_MISSES))
        return SocketPool(host=host, port=int(port),
                          min_workers=min_workers,
                          heartbeat_s=heartbeat_s,
                          liveness_misses=liveness)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        jobs = multiprocessing.cpu_count()
    if jobs == 1:
        return InProcessPool()
    return LocalProcessPool(jobs)
