"""Seeded, deterministic fault plans.

A :class:`FaultPlan` is a declarative description of the failures to
inject into a run: which specs' workers crash or hang, which store
records come back torn, which stream consumer throws and on which
batch.  Every decision is a *pure function* of ``(seed, rule, spec
digest, attempt)`` -- no mutable state -- so a plan injected into a
serial sweep and into a parallel wavefront produces bit-identical
failure payloads and retry counts, which is what the determinism tests
pin.

Plans deliberately know nothing about the engine: rule matching only
reads ``spec.workload`` and ``spec.digest()`` (duck-typed), so this
package imports nothing from :mod:`repro.engine` and can be consulted
from any layer without creating an import cycle.

Fault kinds
-----------

``crash``
    The executor raises :class:`InjectedCrash` for a matched spec's
    group before the run starts (the worker dies mid-flight).
``hang``
    The executor sleeps ``hang_seconds`` before running a matched
    spec's group, pushing the attempt past any configured per-group
    deadline (a stuck worker).
``torn_record``
    :meth:`repro.engine.store.ResultStore.save` truncates a matched
    spec's record mid-write (a torn file a later load must reject and
    ``store fsck`` must find).
``consumer``
    The named stream consumer raises :class:`InjectedConsumerFault`
    on its ``batch``-th delivered batch (``on_batch``/``on_line_batch``),
    exercising the hub's quarantine path.  Consumer rules select by
    consumer name alone (it fires in every run that builds that
    consumer); the spec selectors ``match``, ``attempts`` and
    ``probability`` are rejected on this kind.
``net_drop`` / ``net_delay`` / ``net_dup`` / ``net_truncate``
    Network frame faults, injected below the process boundary by the
    fault-wrapping connection streams of the distributed stack
    (:class:`repro.faults.net.FaultyStream`, installed by
    :class:`repro.engine.pools.SocketPool` and the ``umi-worker``
    agent).  A matched protocol frame is silently dropped, delayed by
    ``delay_seconds``, delivered twice, or cut mid-line (the reader
    sees a truncated frame and the connection dies -- exactly what a
    peer crashing mid-write looks like).  Selection is by ``worker``
    (the connection's peer name, ``"*"`` for any), the 1-based frame
    ordinal ``frame`` (``0`` = every frame), and the deterministic
    ``probability`` coin keyed ``(seed, kind, worker:direction:seq)``;
    ``times`` bounds total firings per connection-state so a chaos run
    converges instead of truncating every retry forever.  Heartbeat
    frames are exempt (partitions cover liveness loss).
``partition``
    Cuts the *named* worker off the network for ``partition_seconds``:
    the coordinator stops reading its frames and stops sending it
    heartbeats from the moment its next lease is submitted, so the
    liveness deadline declares it lost mid-lease, the lease requeues
    elsewhere, and the worker's late result is fenced off as stale
    when the partition heals.  Requires an explicit worker name.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Tuple

#: The fault kinds a rule may declare.
FAULT_KINDS = ("crash", "hang", "torn_record", "consumer",
               "net_drop", "net_delay", "net_dup", "net_truncate",
               "partition")

#: The kinds that fault individual protocol frames (see
#: :mod:`repro.faults.net`); ``partition`` is network-scoped too but
#: cuts a whole worker, not single frames.
NET_FRAME_KINDS = ("net_drop", "net_delay", "net_dup", "net_truncate")

#: Every network-scoped kind (frame faults + partitions).
NET_KINDS = NET_FRAME_KINDS + ("partition",)


class InjectedFault(RuntimeError):
    """Base class of every deliberately injected failure."""


class InjectedCrash(InjectedFault):
    """A fault plan made this worker raise."""


class InjectedConsumerFault(InjectedFault):
    """A fault plan made this stream consumer throw."""


@dataclass(frozen=True)
class FaultRule:
    """One injection rule of a plan.

    ``match`` selects specs: ``"*"`` matches everything, otherwise the
    rule applies when it equals the spec's workload name or is a prefix
    of the spec's content digest.  ``attempts`` bounds which execution
    attempts (1-based) the rule affects, so ``attempts=1`` faults only
    the first try and lets a retry succeed.  ``probability`` draws a
    deterministic per-``(seed, kind, digest, attempt)`` coin, making
    partial-coverage chaos plans reproducible.  ``consumer`` rules
    select by consumer name alone and reject all three selector
    fields (see the module docstring).
    """

    kind: str
    match: str = "*"
    attempts: int = 1
    probability: float = 1.0
    hang_seconds: float = 30.0
    consumer: Optional[str] = None
    batch: int = 1
    worker: Optional[str] = None
    frame: int = 0
    times: int = 1
    delay_seconds: float = 0.05
    partition_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if self.kind in NET_KINDS:
            if not self.worker:
                raise ValueError(
                    f"{self.kind} rules need a worker selector "
                    f"(a worker name, or '*' for frame faults)")
            if self.kind == "partition" and self.worker == "*":
                raise ValueError(
                    "partition rules need an explicit worker name")
            # Network faults fire per frame (or per worker), where no
            # spec or attempt is in scope -- reject the spec selectors
            # rather than silently ignoring them.
            if self.match != "*" or self.attempts != 1:
                raise ValueError(
                    f"{self.kind} rules select by worker; match and "
                    f"attempts are not supported")
            if self.frame < 0:
                raise ValueError("frame must be >= 0 (0 = every frame)")
            if self.times < 0:
                raise ValueError("times must be >= 0 (0 = unlimited)")
            if self.delay_seconds < 0 or self.partition_seconds <= 0:
                raise ValueError(
                    "delay_seconds must be >= 0 and partition_seconds "
                    "must be > 0")
        elif (self.worker is not None or self.frame != 0
                or self.times != 1):
            raise ValueError(
                f"worker/frame/times only apply to network rules, "
                f"not {self.kind!r}")
        if self.kind == "consumer":
            if not self.consumer:
                raise ValueError("consumer rules need a consumer name")
            # The consumer seam fires while a run is in flight, where
            # neither the spec nor the attempt is in scope -- a
            # consumer rule selects by consumer name alone.  Reject the
            # spec-selector fields rather than silently ignoring them,
            # which would break the determinism contract.
            if (self.match != "*" or self.attempts != 1
                    or self.probability < 1.0):
                raise ValueError(
                    "consumer rules select by consumer name alone; "
                    "match, attempts and probability are not supported")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")

    def matches_spec(self, spec: Any) -> bool:
        if self.match == "*":
            return True
        if self.match == getattr(spec, "workload", None):
            return True
        return spec.digest().startswith(self.match)


def _coin(seed: int, kind: str, digest: str, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1) for one decision point."""
    blob = f"{seed}:{kind}:{digest}:{attempt}".encode()
    word = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
    return word / float(1 << 64)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable, JSON-round-trippable set of rules."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    # -- decisions (pure functions of plan + spec + attempt) ---------------

    def _applies(self, rule: FaultRule, spec: Any, attempt: int) -> bool:
        if attempt > rule.attempts or not rule.matches_spec(spec):
            return False
        if rule.probability >= 1.0:
            return True
        return _coin(self.seed, rule.kind, spec.digest(),
                     attempt) < rule.probability

    def crash_for(self, spec: Any, attempt: int) -> bool:
        """Should this spec's execution attempt raise?"""
        return any(r.kind == "crash" and self._applies(r, spec, attempt)
                   for r in self.rules)

    def hang_for(self, spec: Any, attempt: int) -> float:
        """Seconds this spec's attempt should stall (0.0 = no hang)."""
        seconds = 0.0
        for rule in self.rules:
            if rule.kind == "hang" and self._applies(rule, spec, attempt):
                seconds = max(seconds, rule.hang_seconds)
        return seconds

    def torn_for(self, spec: Any) -> bool:
        """Should this spec's store record be written torn?"""
        return any(r.kind == "torn_record" and self._applies(r, spec, 1)
                   for r in self.rules)

    def consumer_batch(self, name: str) -> Optional[int]:
        """The 1-based batch on which consumer ``name`` throws, if any."""
        for rule in self.rules:
            if rule.kind == "consumer" and rule.consumer == name:
                return rule.batch
        return None

    def net_frame_fault(self, worker: str, direction: str,
                        seq: int) -> Optional[FaultRule]:
        """The frame fault to inject on this frame, if any.

        ``worker`` is the connection's peer name, ``direction`` is
        ``"send"`` or ``"recv"`` from the deciding side's point of
        view, and ``seq`` is the 1-based ordinal of fault-eligible
        frames on that connection-direction.  Pure: the same
        ``(plan, worker, direction, seq)`` always decides the same
        fault, so chaos runs replay exactly.  (The ``times`` bound is
        enforced statefully by :class:`repro.faults.net.NetFaultState`,
        not here.)
        """
        for rule in self.rules:
            if rule.kind not in NET_FRAME_KINDS:
                continue
            if rule.worker not in ("*", worker):
                continue
            if rule.frame not in (0, seq):
                continue
            if (rule.probability >= 1.0
                    or _coin(self.seed, rule.kind,
                             f"{worker}:{direction}:{seq}", 1)
                    < rule.probability):
                return rule
        return None

    def partition_for_worker(self, worker: str) -> Optional[FaultRule]:
        """The partition rule that cuts ``worker`` off, if any."""
        for rule in self.rules:
            if rule.kind != "partition" or rule.worker != worker:
                continue
            if (rule.probability >= 1.0
                    or _coin(self.seed, "partition", worker, 1)
                    < rule.probability):
                return rule
        return None

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed,
                "rules": [asdict(rule) for rule in self.rules]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        rules = tuple(FaultRule(**rule)
                      for rule in payload.get("rules", ()))
        return cls(seed=int(payload.get("seed", 0)), rules=rules)


def load_fault_plan(path: str) -> FaultPlan:
    """Read a JSON fault plan from disk (the CLI's ``--faults FILE``)."""
    with open(path) as handle:
        payload = json.load(handle)
    return FaultPlan.from_dict(payload)
