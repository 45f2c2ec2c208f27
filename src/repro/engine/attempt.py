"""The one execution seam every worker backend funnels through.

This module is the *worker side* of the execution stack: given a
fusion group (or a whole :class:`~repro.engine.protocol.Lease`), run it
once and report a structured result.  It deliberately knows nothing
about retries, deadlines, pools or sockets -- those live in the
coordinator (:mod:`repro.engine.executor`) and the pool backends
(:mod:`repro.engine.pools`).  Because the in-process pool, the local
process pool and the standalone socket agent all call
:func:`attempt_group` (directly or via :func:`run_lease`),
fault-plan hooks fire and failures serialize byte-identically no
matter where an attempt physically ran.

Workloads and machine models are rebuilt inside the worker from the
spec alone -- a spec is self-contained -- so attempts share no state
with the coordinator; the unit of result is the JSON-safe *payload
dict* (:func:`repro.serialize.outcome_to_dict`), cheap to ship across
process and network boundaries and exactly what the persistent store
writes.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.faults import (
    FaultPlan, InjectedCrash, active_fault_plan, install_fault_plan,
)
from repro.memory import get_machine
from repro.runners import (
    MODE_KWARGS, OBSERVER_KWARGS, RunOutcome, run_fused,
)
from repro.serialize import outcome_to_dict
from repro.telemetry import get_telemetry
from repro.workloads import get_workload

from .spec import RunSpec


def _observers(spec: RunSpec) -> Dict[str, Any]:
    """The observer fields of ``spec`` that its mode takes (a dynamo
    run takes no Cachegrind rider; only native runs take counters)."""
    accepted = MODE_KWARGS[spec.mode]
    return {name: getattr(spec, name) for name in OBSERVER_KWARGS
            if name in accepted}


def execute_group(group: Sequence[RunSpec]) -> List[RunOutcome]:
    """Run one fusion group once; one live outcome per member, in order.

    Members share an execution identity
    (:func:`~repro.engine.fusion.fusion_key`), so the first member's
    execution fields stand for all of them and each member contributes
    only its observers.
    """
    first = group[0]
    program = get_workload(first.workload).build(first.scale)
    machine = get_machine(first.machine, scale=first.machine_scale)
    options: Dict[str, Any] = {}
    if first.mode == "umi":
        options["umi_config"] = first.umi_config()
    return run_fused(program, machine, first.mode,
                     [_observers(spec) for spec in group],
                     hw_prefetch=first.hw_prefetch, **options)


def execute_spec(spec: RunSpec) -> RunOutcome:
    """Run one spec to a live :class:`RunOutcome` (current process)."""
    return execute_group([spec])[0]


def execute_spec_payload(spec: RunSpec) -> Dict[str, Any]:
    """Run one spec and serialize the outcome (the executor unit)."""
    return outcome_to_dict(execute_spec(spec))


def execute_group_payloads(group: Sequence[RunSpec]) -> List[Dict[str, Any]]:
    """Run one fusion group; one payload per member spec, in order.

    Every group, singleton or fused and in any mode, executes once via
    :func:`repro.runners.run_fused`.  A failure while serializing one
    member's outcome is tagged with that member's index
    (``umi_member_index``) so the executor can blame the right spec; a
    failure in the shared execution itself stays untagged.
    """
    payloads = []
    for index, outcome in enumerate(execute_group(group)):
        try:
            payloads.append(outcome_to_dict(outcome))
        except Exception as exc:
            exc.umi_member_index = index
            raise
    return payloads


def _execute_group_timed(group: Sequence[RunSpec]) -> List[Dict[str, Any]]:
    """One fusion group under an ``executor.spec`` span."""
    telemetry = get_telemetry()
    if not telemetry.enabled:
        return execute_group_payloads(group)
    spec = group[0]
    fused = {"fused": len(group)} if len(group) > 1 else {}
    with telemetry.span("executor.spec",
                        labels={"workload": spec.workload},
                        digest=spec.digest()[:12], spec=spec.describe(),
                        **fused):
        return execute_group_payloads(group)


def attempt_group(group: Sequence[RunSpec], attempt: int
                  ) -> Tuple[str, Any]:
    """One execution attempt: ``("ok", payloads)`` or ``("error", info)``.

    The single seam every backend funnels through, in-process or in a
    worker: fault-plan hooks fire here, and exceptions are caught here,
    so the failure info dict (error text, traceback, blamed member
    index) is byte-identical regardless of which backend ran the
    attempt.  Exceptions are flattened to strings so unpicklable
    exception types can still cross process and socket boundaries.
    """
    member: Optional[int] = 0 if len(group) == 1 else None
    try:
        plan = active_fault_plan()
        if plan is not None:
            for spec in group:
                hang = plan.hang_for(spec, attempt)
                if hang > 0.0:
                    time.sleep(hang)
            for index, spec in enumerate(group):
                if plan.crash_for(spec, attempt):
                    member = index
                    raise InjectedCrash(
                        f"injected crash ({spec.describe()}, "
                        f"attempt {attempt})")
        return "ok", _execute_group_timed(group)
    except Exception as exc:  # noqa: BLE001 -- reported, not swallowed
        member = getattr(exc, "umi_member_index", member)
        return "error", {
            "reason": "error",
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
            "member": member,
        }


def run_lease(lease) -> Tuple[str, Any, Optional[Dict[str, Any]]]:
    """Execute one :class:`~repro.engine.protocol.Lease` worker-side.

    Installs the lease's fault plan (so injection behaves identically
    under ``fork``, ``spawn`` and remote agents), resets process-local
    telemetry so the returned snapshot is self-contained regardless of
    how leases land on workers, rebuilds the fusion group from the
    serialized specs, and runs exactly one attempt.  Returns
    ``(status, value, snapshot_or_None)`` -- the payload of a
    :class:`~repro.engine.protocol.LeaseResult`.
    """
    plan = (FaultPlan.from_dict(lease.fault_plan)
            if lease.fault_plan is not None else None)
    install_fault_plan(plan)
    telemetry = get_telemetry()
    telemetry.reset()
    telemetry.enabled = lease.telemetry
    status, value = attempt_group(lease.group(), lease.attempt)
    snapshot = telemetry.snapshot() if lease.telemetry else None
    return status, value, snapshot
