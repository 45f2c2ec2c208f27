"""Standalone worker agent: lease work from a coordinator over TCP.

Run on any node that can reach the coordinator::

    python -m repro.engine.worker --connect HOST:PORT

(or the ``umi-worker`` console script).  ``--jobs N`` runs this same
agent in N local processes
(:class:`~repro.engine.pools.LocalProcessPool`), so it is the only
code that runs a lease outside the coordinator.  The agent dials the
coordinator's :class:`~repro.engine.pools.SocketPool` listener,
registers with a :class:`~repro.engine.protocol.WorkerHello`, then
serves one :class:`~repro.engine.protocol.Lease` at a time: rebuild
the fusion group from the leased spec dicts, install the lease's fault
plan, run exactly one attempt through the shared execution seam
(:func:`repro.engine.attempt.run_lease`), and stream the
:class:`~repro.engine.protocol.LeaseResult` -- payloads or structured
failure, plus a telemetry snapshot and the static counts of the
program it ran, echoing the lease's fencing epoch -- back over the
same connection.

The agent is deliberately policy-free: it never retries, never
interprets deadlines (an attempt that overruns is severed by the
coordinator), and exits when the coordinator sends
:class:`~repro.engine.protocol.Shutdown`.  It is, however, *liveness-
aware and sticky*:

- Each connection runs a small thread trio -- a reader thread feeding
  an event queue, one executor thread per in-flight lease, and the
  main loop as sole writer -- so coordinator
  :class:`~repro.engine.protocol.Heartbeat` probes are acknowledged
  immediately even while an attempt is executing.
- A lost connection (coordinator severed us, crashed, or is
  restarting) is not fatal: the agent *abandons* the in-flight lease
  -- waits the attempt out, discards its result -- and redials with
  jittered exponential backoff, bounded by ``--dial-timeout``,
  re-registering under its old name.  The coordinator requeued the
  lease the moment it severed us, so the abandoned result must never
  be sent anywhere.
- Only an explicit ``Shutdown`` frame ends the agent cleanly; a dial
  that never succeeds within ``--dial-timeout`` exits non-zero with a
  clear message.

Killing an agent mid-lease remains a supported event, not an error:
the coordinator classifies the loss as a crash fault and requeues the
lease elsewhere.
"""

from __future__ import annotations

import argparse
import os
import queue
import random
import signal
import socket
import sys
import threading
import time
from typing import Any, Optional, Tuple

from repro.faults import NetFaultState, active_fault_plan, wrap_stream

from .attempt import lease_static_counts, run_lease
from .protocol import (
    ConnectionClosed, Heartbeat, HeartbeatAck, Lease, LeaseResult,
    ProtocolError, Shutdown, WorkerHello, WorkerWelcome, read_frame,
    write_frame,
)

#: Default overall bound (seconds) on one dial's retry loop -- both
#: the initial connection and every rejoin redial.
DIAL_TIMEOUT_S = 30.0

#: Jittered exponential backoff between dial retries.
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 2.0

#: The queue of the active session's main loop, for the SIGTERM drain
#: handler installed by :func:`main` (``None`` outside a session).
_ACTIVE_QUEUE: Optional["queue.Queue"] = None


def _dial(host: str, port: int, timeout_s: float,
          rng: random.Random) -> socket.socket:
    """Connect with jittered exponential backoff, bounded overall.

    Raises the last ``OSError`` once ``timeout_s`` has elapsed without
    a successful connection -- the caller turns that into a non-zero
    exit with a clear message instead of spinning forever.
    """
    deadline = time.monotonic() + timeout_s
    delay = _BACKOFF_BASE_S
    while True:
        try:
            return socket.create_connection((host, port), timeout=10.0)
        except OSError:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise
            # Full jitter: sleep U(0, delay), so a severed fleet does
            # not redial a restarting coordinator in lockstep.
            time.sleep(min(rng.uniform(0, delay), remaining))
            delay = min(delay * 2.0, _BACKOFF_CAP_S)


def _reader(stream: Any, events: "queue.Queue") -> None:
    """Reader thread: every inbound frame (or the EOF) onto the queue."""
    while True:
        try:
            message = read_frame(stream)
        except (ProtocolError, OSError) as exc:
            events.put(("closed", exc))
            return
        events.put(("frame", message))
        if isinstance(message, Shutdown):
            return


def _executor(lease: Lease, events: "queue.Queue") -> None:
    """Executor thread: one attempt, result onto the queue."""
    try:
        result = run_lease(lease)
    except BaseException as exc:  # noqa: BLE001 -- must reach the queue
        result = ("error", {
            "reason": "error",
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": None,
            "member": 0 if len(lease.specs) == 1 else None,
        }, None)
    events.put(("done", (lease, result, lease_static_counts(lease))))


def _session(sock: socket.socket, name: str, net_state: NetFaultState,
             say) -> Tuple[int, bool, str]:
    """One coordinator connection, handshake to disconnect.

    Returns ``(leases_served, clean_exit, worker_id)`` -- ``clean_exit``
    is True only for an explicit ``Shutdown`` (or a drain request), so
    the caller knows whether to rejoin.
    """
    global _ACTIVE_QUEUE
    sock.settimeout(None)  # leases arrive whenever the sweep needs us
    raw = sock.makefile("rwb")
    stream = raw
    served = 0
    clean = False
    worker_id = name
    events: "queue.Queue" = queue.Queue()
    busy: Optional[Lease] = None
    exec_thread: Optional[threading.Thread] = None
    drain = False
    try:
        try:
            write_frame(stream, WorkerHello(worker=name, pid=os.getpid(),
                                            host=socket.gethostname()))
            welcome = read_frame(stream)
        except (ConnectionClosed, OSError):
            # The coordinator vanished mid-handshake (it is probably
            # restarting): an unclean session, so the rejoin loop
            # redials.  Real protocol trouble -- version drift, a
            # malformed welcome -- still propagates and is fatal.
            return served, False, worker_id
        if not isinstance(welcome, WorkerWelcome):
            raise ProtocolError(
                f"expected welcome, got {type(welcome).__name__}")
        worker_id = welcome.worker
        # Frame faults select by the coordinator-assigned id, known
        # only now; handshake frames are never fault-eligible anyway.
        stream = wrap_stream(raw, worker_id, net_state)
        say(f"[umi-worker {worker_id}] registered with coordinator "
            f"(pid {os.getpid()})")
        reader = threading.Thread(target=_reader, args=(stream, events),
                                  daemon=True)
        reader.start()
        _ACTIVE_QUEUE = events
        while True:
            kind, payload = events.get()
            if kind == "closed":
                if busy is not None:
                    # Abandon: the coordinator requeued this lease the
                    # moment it severed us.  Wait the attempt out (the
                    # process-global telemetry and fault state forbid
                    # overlapping leases) and discard its result.
                    say(f"[umi-worker {worker_id}] connection lost "
                        f"mid-lease; abandoning {busy.describe()}")
                    if exec_thread is not None:
                        exec_thread.join()
                    busy = None
                else:
                    say(f"[umi-worker {worker_id}] coordinator went "
                        f"away")
                return served, False, worker_id
            if kind == "done":
                lease, (status, value, snapshot), counts = payload
                exec_thread = None
                if busy is None or lease.lease_id != busy.lease_id:
                    continue  # abandoned while executing
                busy = None
                try:
                    write_frame(stream, LeaseResult(
                        lease_id=lease.lease_id, worker=worker_id,
                        epoch=lease.epoch, status=status, value=value,
                        snapshot=snapshot, static_counts=counts))
                except (OSError, ValueError):
                    return served, False, worker_id
                served += 1
                if drain:
                    say(f"[umi-worker {worker_id}] drained")
                    return served, True, worker_id
                continue
            if kind == "drain":
                if busy is None:
                    say(f"[umi-worker {worker_id}] drained (idle)")
                    return served, True, worker_id
                drain = True  # finish the in-flight lease, then exit
                continue
            message = payload
            if isinstance(message, Heartbeat):
                # Acked from the main loop even while an attempt runs
                # on the executor thread -- the whole point of the
                # thread split.
                try:
                    write_frame(stream, HeartbeatAck(
                        seq=message.seq, worker=worker_id))
                except (OSError, ValueError):
                    return served, False, worker_id
                continue
            if isinstance(message, Shutdown):
                say(f"[umi-worker {worker_id}] shutdown: "
                    f"{message.reason or 'no reason given'}")
                if exec_thread is not None:
                    exec_thread.join()
                return served, True, worker_id
            if isinstance(message, Lease):
                if busy is not None:
                    raise ProtocolError(
                        f"coordinator leased {message.lease_id} while "
                        f"{busy.lease_id} is in flight")
                busy = message
                say(f"[umi-worker {worker_id}] {message.describe()}")
                exec_thread = threading.Thread(
                    target=_executor, args=(message, events),
                    daemon=True)
                exec_thread.start()
                continue
            raise ProtocolError(
                f"unexpected {type(message).__name__} frame")
    finally:
        _ACTIVE_QUEUE = None
        for closer in (raw.close, sock.close):
            try:
                closer()
            except OSError:
                pass
    return served, clean, worker_id  # pragma: no cover -- unreachable


def serve(host: str, port: int, name: str = "",
          connect_timeout_s: float = DIAL_TIMEOUT_S,
          log=None, rejoin: bool = True) -> int:
    """Serve leases until shutdown; returns the number served.

    ``connect_timeout_s`` bounds every dial's retry loop (initial and
    rejoin).  With ``rejoin`` (the default), a lost connection is
    redialed under the same name -- the agent outlives coordinator
    restarts; without it, the first disconnect ends the agent (used by
    tests that want the one-connection lifecycle).  ``log`` is a
    ``print``-like callable (``None`` silences the agent); exposed as
    a function so tests can run an agent in-process against an
    ephemeral-port pool.
    """
    say = log if log is not None else (lambda *_args: None)
    # One net-fault state per agent process: `times` firing budgets
    # survive rejoins, so a planned truncation cannot re-fire on every
    # reconnect and livelock the sweep.  The plan is consulted lazily
    # because it is installed by the first lease this agent runs.
    net_state = NetFaultState(active_fault_plan)
    rng = random.Random()
    served = 0
    current_name = name
    while True:
        sock = _dial(host, port, connect_timeout_s, rng)
        count, clean, assigned = _session(sock, current_name, net_state,
                                          say)
        served += count
        # Keep the coordinator-assigned id across rejoins so the
        # replacement registration is recognisably the same worker.
        current_name = assigned or current_name
        if clean or not rejoin:
            break
        say(f"[umi-worker {current_name}] rejoining {host}:{port}")
        # A beat between sessions: a dial can succeed against a dying
        # coordinator's still-bound listener, and without this pause a
        # failed handshake would redial in a tight loop.
        time.sleep(rng.uniform(0.05, 0.2))
    say(f"[umi-worker] served {served} lease(s)")
    return served


def local_main(host: str, port: int, name: str) -> None:
    """Entry point of one ``--jobs N`` agent process.

    :class:`~repro.engine.pools.LocalProcessPool` starts these; each
    serves its coordinator until ``Shutdown`` or the first disconnect.
    SIGTERM kills at once (it ends an expired lease; a forked agent
    would otherwise inherit the coordinator's drain handler), Ctrl-C
    is left to the coordinator, and the agent exits when its parent is
    gone, however the parent died.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),),
                     daemon=True).start()
    serve(host, port, name=name, rejoin=False, log=None)


def _exit_with_parent(parent: int) -> None:
    """End this process once ``parent`` is gone.  A killed coordinator
    does not always close a connection an agent could notice: an agent
    started mid-sweep holds the coordinator's ends of its siblings'
    connections, and a busy agent waits its attempt out."""
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(1)


def _sigterm_drain(_signum, _frame) -> None:
    """SIGTERM: finish the in-flight lease, then exit cleanly."""
    events = _ACTIVE_QUEUE
    if events is not None:
        events.put(("drain", None))
    else:
        raise SystemExit(143)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="umi-worker",
        description="Standalone UMI worker agent: connects to a "
                    "coordinator and executes leased fusion groups.")
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address (the umi-experiments --workers "
             "listener)")
    parser.add_argument(
        "--name", default="",
        help="proposed worker id (coordinator may uniquify it)")
    parser.add_argument(
        "--dial-timeout", type=float, default=DIAL_TIMEOUT_S, metavar="S",
        help="overall bound on each dial's jittered retry loop, "
             "initial connection and rejoins alike (default "
             f"{DIAL_TIMEOUT_S:g})")
    parser.add_argument(
        "--no-rejoin", action="store_true",
        help="exit on the first disconnect instead of redialing")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines")
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        parser.error(f"invalid --connect address {args.connect!r} "
                     f"(expected HOST:PORT)")
    timeout = args.dial_timeout
    log = None if args.quiet else print
    signal.signal(signal.SIGTERM, _sigterm_drain)
    try:
        serve(host, int(port), name=args.name, connect_timeout_s=timeout,
              log=log, rejoin=not args.no_rejoin)
    except OSError as exc:
        print(f"umi-worker: gave up dialing coordinator at "
              f"{args.connect} after {timeout:g}s: {exc}",
              file=sys.stderr)
        return 1
    except ProtocolError as exc:
        print(f"umi-worker: protocol error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover -- exercised via CI smoke
    sys.exit(main())
