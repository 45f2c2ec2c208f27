"""The lease protocol: messages between a coordinator and its workers.

The distributed execution stack (see the "Distributed execution"
section of ``docs/ARCHITECTURE.md``) speaks exactly one wire language,
defined here: versioned, JSON-serializable messages framed as JSON
lines (one ``\\n``-terminated JSON object per message).  Every worker
backend -- the dedicated local processes of
:class:`~repro.engine.pools.LocalProcessPool`, the in-process test
pool, and the socket-connected standalone agents of
:mod:`repro.engine.worker` -- carries work as :class:`Lease` objects
and reports it back as :class:`LeaseResult` objects, so the
coordinator cannot observe *where* a lease ran.

Message flow::

    worker                      coordinator
      | -- WorkerHello  ------------> |   (register; version checked)
      | <- WorkerWelcome ------------ |   (assigned worker id)
      | <- Lease -------------------- |   (fusion group + attempt +
      |                               |    epoch + deadline + faults)
      | <- Heartbeat ---------------- |   (liveness probe, mid-lease)
      | -- HeartbeatAck ------------> |   (acked even while executing)
      | -- LeaseResult -------------> |   (payloads/failure + telemetry,
      |            ...                |    echoing the lease epoch)
      | <- Shutdown ----------------- |   (drain and exit)

A :class:`Lease` names its fusion group both by content (the member
specs' serialized dicts -- a spec is self-contained, so the worker can
rebuild workload and machine from it alone) and by identity (the
member digests), carries the 1-based retry ``attempt``, the per-group
wall-clock ``deadline_s``, the serialized fault plan to install before
executing, and whether telemetry should be recorded.  A
:class:`LeaseResult`'s ``status``/``value`` pair is exactly what
:func:`repro.engine.attempt.attempt_group` returns -- ``("ok",
payload list)`` or ``("error", failure info)`` -- plus the worker's
telemetry snapshot, so coordinator-side retry classification and
telemetry merging are byte-identical across backends.

Framing is deliberately defensive: every frame carries the protocol
version and is rejected with :class:`ProtocolError` when it does not
match (a coordinator never trusts a worker from a different build), a
line missing its terminator is a *truncated* frame (a writer died
mid-message), and a clean EOF between frames raises the distinguished
:class:`ConnectionClosed` (how the coordinator detects a dead worker).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from .spec import RunSpec

#: Version stamped into (and required of) every frame.  Bump on any
#: incompatible message-shape change; a mismatch is a hard reject, so
#: mixed-build clusters fail loudly instead of corrupting sweeps.
#: v2: heartbeat/heartbeat_ack liveness frames; fencing ``epoch`` on
#: Lease and LeaseResult.
PROTOCOL_VERSION = 2

#: Upper bound on one frame's size; a larger line means a corrupt or
#: hostile peer, not a bigger result.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class ProtocolError(RuntimeError):
    """A frame that cannot be accepted: bad JSON, version, or shape."""


class ConnectionClosed(ProtocolError):
    """The peer went away cleanly between frames (dead worker)."""


@dataclass(frozen=True)
class WorkerHello:
    """Worker -> coordinator on connect: who is registering."""

    TYPE = "hello"

    worker: str = ""  # proposed name; empty = let coordinator assign
    pid: int = 0
    host: str = ""


@dataclass(frozen=True)
class WorkerWelcome:
    """Coordinator -> worker: registration accepted, id assigned."""

    TYPE = "welcome"

    worker: str = ""


@dataclass(frozen=True)
class Lease:
    """One unit of leased work: a fusion group and how to run it."""

    TYPE = "lease"

    lease_id: str = ""
    attempt: int = 1
    #: Monotonic fencing token, unique per lease grant across the life
    #: of a sweep (and, via the lease journal, across coordinator
    #: restarts).  A worker echoes it back in its
    #: :class:`LeaseResult`; the coordinator rejects any result whose
    #: epoch is not the one currently granted, which fences off zombie
    #: workers returning after a partition so no group is committed
    #: twice.
    epoch: int = 0
    #: Serialized member specs (``RunSpec.to_dict`` form), in group
    #: order -- self-contained, so workers rebuild everything locally.
    specs: Tuple[Dict[str, Any], ...] = field(default=())
    #: Member spec digests, aligned with ``specs``.
    digests: Tuple[str, ...] = field(default=())
    #: Per-group wall-clock deadline in seconds (``None`` = unbounded).
    deadline_s: Optional[float] = None
    #: Serialized :class:`repro.faults.FaultPlan` to install before the
    #: attempt (``None`` = no injection).
    fault_plan: Optional[Dict[str, Any]] = None
    #: Whether the worker should record and ship telemetry.
    telemetry: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs",
                           tuple(dict(s) for s in self.specs))
        object.__setattr__(self, "digests", tuple(self.digests))

    @classmethod
    def for_group(cls, lease_id: str, group: Sequence[RunSpec],
                  attempt: int, deadline_s: Optional[float],
                  fault_plan: Optional[Dict[str, Any]],
                  telemetry: bool, epoch: int = 0) -> "Lease":
        lease = cls(
            lease_id=lease_id, attempt=attempt, epoch=epoch,
            specs=tuple(spec.to_dict() for spec in group),
            digests=tuple(spec.digest() for spec in group),
            deadline_s=deadline_s, fault_plan=fault_plan,
            telemetry=telemetry,
        )
        # Not a field, so never on the wire: a worker in this process
        # (or forked from it) runs the very specs, unrebuilt.
        object.__setattr__(lease, "_group", tuple(group))
        return lease

    def group(self) -> List[RunSpec]:
        """The fusion group this lease carries (rebuilt off the wire)."""
        built = self.__dict__.get("_group")
        if built is not None:
            return list(built)
        return [RunSpec.from_dict(spec) for spec in self.specs]

    def describe(self) -> str:
        head = self.digests[0][:12] if self.digests else "?"
        return (f"lease {self.lease_id} (attempt {self.attempt}, "
                f"epoch {self.epoch}, {len(self.specs)} spec(s), "
                f"{head})")


@dataclass(frozen=True)
class LeaseResult:
    """Worker -> coordinator: the outcome of one lease attempt."""

    TYPE = "lease_result"

    lease_id: str = ""
    worker: str = ""
    #: The fencing token of the lease this result answers, echoed
    #: verbatim.  The coordinator discards results whose epoch it no
    #: longer recognises as granted (stale results from fenced-off
    #: zombie workers).
    epoch: int = 0
    #: ``"ok"`` or ``"error"`` -- straight from ``attempt_group``.
    status: str = "ok"
    #: Payload list (ok) or failure-info dict (error); JSON-safe.
    value: Any = None
    #: The worker's telemetry snapshot, or ``None`` when disabled.
    snapshot: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class Heartbeat:
    """Coordinator -> worker: prove you are alive and reachable.

    Sent on the lease connection while a worker holds a lease; the
    worker's reader thread answers with a :class:`HeartbeatAck`
    echoing ``seq`` even while an attempt is executing.  The
    coordinator counts a beat as *missed* only when it sends one while
    the previous beat is still unacknowledged, so a silent or
    partitioned worker is declared lost after
    ``liveness_misses`` consecutive unanswered beats -- long before
    the full group deadline runs out.
    """

    TYPE = "heartbeat"

    seq: int = 0


@dataclass(frozen=True)
class HeartbeatAck:
    """Worker -> coordinator: the echo of one :class:`Heartbeat`."""

    TYPE = "heartbeat_ack"

    seq: int = 0
    worker: str = ""


@dataclass(frozen=True)
class Shutdown:
    """Coordinator -> worker: finish up and exit."""

    TYPE = "shutdown"

    reason: str = ""


#: Every message type, by its wire tag.
MESSAGE_TYPES: Dict[str, Type] = {
    cls.TYPE: cls
    for cls in (WorkerHello, WorkerWelcome, Lease, LeaseResult,
                Heartbeat, HeartbeatAck, Shutdown)
}


def encode_frame(message: Any) -> bytes:
    """One message as a version-stamped JSON line."""
    payload = {"v": PROTOCOL_VERSION, "type": message.TYPE}
    payload.update(asdict(message))
    return json.dumps(payload, sort_keys=True).encode() + b"\n"


def decode_frame(line: bytes) -> Any:
    """Parse one JSON line back into its message object.

    Raises :class:`ProtocolError` for bad JSON, a missing or mismatched
    protocol version, or an unknown message type -- each with a reason
    a log line can carry.
    """
    try:
        payload = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"unparseable frame: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame is not an object: {type(payload).__name__}")
    version = payload.pop("v", None)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this build speaks {PROTOCOL_VERSION}")
    kind = payload.pop("type", None)
    cls = MESSAGE_TYPES.get(kind)
    if cls is None:
        raise ProtocolError(f"unknown message type {kind!r}")
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ProtocolError(f"malformed {kind!r} frame: {exc}") from None


def write_frame(stream: Any, message: Any) -> None:
    """Write one framed message and flush it to the peer."""
    stream.write(encode_frame(message))
    stream.flush()


def read_frame(stream: Any) -> Any:
    """Read the next framed message from a buffered binary stream.

    A clean EOF at a frame boundary raises :class:`ConnectionClosed`;
    an EOF in the middle of a line is a *truncated* frame -- the peer
    died mid-write -- and raises plain :class:`ProtocolError`, as does
    an oversized frame.
    """
    line = stream.readline(MAX_FRAME_BYTES + 1)
    if not line:
        raise ConnectionClosed("connection closed by peer")
    if not line.endswith(b"\n"):
        if len(line) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame exceeds {MAX_FRAME_BYTES} bytes")
        raise ProtocolError(
            f"truncated frame ({len(line)} bytes, no terminator)")
    return decode_frame(line)
