"""The one execution seam every worker backend funnels through.

This module is the *worker side* of the execution stack: given a
fusion group (or a whole :class:`~repro.engine.protocol.Lease`), run it
once and report a structured result.  It deliberately knows nothing
about retries, deadlines, pools or sockets -- those live in the
coordinator (:mod:`repro.engine.executor`) and the pool backends
(:mod:`repro.engine.pools`).  Because the in-process pool and the
worker agent (forked locally or started on another node) both call
:func:`attempt_group` (directly or via :func:`run_lease`),
fault-plan hooks fire and failures serialize byte-identically no
matter where an attempt physically ran.

Workloads and machine models are rebuilt inside the worker from the
spec alone -- a spec is self-contained -- so attempts share no state
with the coordinator; the unit of result is the JSON-safe *payload
dict* (:func:`repro.serialize.outcome_to_dict`), cheap to ship across
process and network boundaries and exactly what the persistent store
writes.  A worker keeps two things between attempts, both in one
entry.  The first is the last program it built (:func:`cached_program`):
runs never write to a :class:`~repro.isa.Program`, and
:func:`~repro.engine.fusion.plan_groups` orders a wavefront
program-major, so one entry serves every group of a program in a row.
The second is the finished Cachegrind rider of each cache geometry that
program ran on (:func:`execute_group`): the rider models no timing,
prefetching or instruction fetch, so every later group of the program
on that geometry reuses it instead of simulating the same references
again.  The riders are dropped with their program, and so is the
program's compiled code (:mod:`repro.vm.interpreter`).  Every build also
records the program's static load/store counts (:func:`static_counts`),
which is all the tables read from a program; a worker sends them home
with each lease result (:func:`lease_static_counts`), so rendering
holds no program of its own.
"""

from __future__ import annotations

import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.faults import (
    FaultPlan, InjectedCrash, active_fault_plan, install_fault_plan,
)
from repro.fullsim import CachegrindSimulator
from repro.isa import Program
from repro.memory import CacheConfig, get_machine
from repro.runners import (
    MODE_KWARGS, OBSERVER_KWARGS, RunOutcome, run_fused,
)
from repro.serialize import outcome_to_dict
from repro.telemetry import get_telemetry
from repro.workloads import get_workload

from .spec import RunSpec

try:
    import resource
except ImportError:  # pragma: no cover -- a host without getrusage
    resource = None

#: ``ru_maxrss`` units per KiB: Linux reports KiB, macOS bytes.
_MAXRSS_PER_KIB = 1024 if sys.platform == "darwin" else 1


#: ``((workload, scale), program, riders)``: a built program and the
#: Cachegrind riders finished on it.  ``riders`` maps a machine's
#: ``(l1, l2)`` cache configs to the
#: :class:`~repro.fullsim.CachegrindSimulator` a completed run of the
#: program fed, so the riders go when the program goes.
_ProgramEntry = Tuple[
    Tuple[str, float], Program,
    Dict[Tuple[CacheConfig, CacheConfig], CachegrindSimulator]]

#: The last program built in this process, with its riders, or None.
_last_program: Optional[_ProgramEntry] = None

#: ``(static_loads, static_stores)`` of every program built in this
#: process, keyed by ``(workload, scale)``: two ints a program, kept
#: after the program itself is dropped.
_static_counts: Dict[Tuple[str, float], Tuple[int, int]] = {}


def _program_entry(workload: str, scale: float) -> _ProgramEntry:
    """The :data:`_last_program` entry for ``workload`` at ``scale``,
    building the program (and dropping the previous entry) on a miss."""
    global _last_program
    key = (workload, scale)
    entry = _last_program
    if entry is not None and entry[0] == key:
        get_telemetry().count("workloads.program_reuses")
        return entry
    _last_program = None
    program = get_workload(workload).build(scale)
    _last_program = entry = (key, program, {})
    _static_counts[key] = (program.static_loads(), program.static_stores())
    get_telemetry().count("workloads.program_builds")
    return entry


def cached_program(workload: str, scale: float) -> Program:
    """The program of ``workload`` at ``scale``, built once in a row.

    A one-entry per-process cache: asking again for the same program
    returns the same object, asking for another drops it first and
    builds the new one, so at most one extra program stays alive.  The
    ``workloads.program_builds`` / ``workloads.program_reuses``
    telemetry counters count the two outcomes.  Sharing is safe because
    a run never writes to its program (the machine state copies the
    data image).  Each build records the program's
    :func:`static_counts`.
    """
    return _program_entry(workload, scale)[1]


def static_counts(workload: str, scale: float) -> Tuple[int, int]:
    """``(static_loads, static_stores)`` of ``workload`` at ``scale``.

    Read from the counts :func:`cached_program` recorded when this
    process built the program, or that a worker reported with a lease
    result (:func:`record_static_counts`).  A program known to neither
    (its runs came from the store an earlier process filled) is built
    once through :func:`cached_program`, which records them.
    """
    key = (workload, scale)
    if key not in _static_counts:
        cached_program(workload, scale)
    return _static_counts[key]


def lease_static_counts(lease) -> List[List[Any]]:
    """The :class:`~repro.engine.protocol.LeaseResult` ``static_counts``
    of ``lease``: ``[workload, scale, static_loads, static_stores]`` of
    the program its group ran, if this process has recorded them."""
    spec = lease.specs[0] if lease.specs else {}
    key = (spec.get("workload"), spec.get("scale"))
    counts = _static_counts.get(key)
    return [[*key, *counts]] if counts is not None else []


def record_static_counts(entries: Sequence[Sequence[Any]]) -> None:
    """Record the static counts a worker reported for its programs."""
    for workload, scale, loads, stores in entries:
        _static_counts[(workload, scale)] = (loads, stores)


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

    A Cachegrind rider's result depends only on the program's data
    references and the machine's L1/L2 geometry, so the first completed
    rider of a program on a geometry is kept with the cached program
    and handed to every later member that asks for one: those groups
    run without a rider (``fullsim.cachegrind_reuses`` counts them).
    """
    first = group[0]
    _, program, riders = _program_entry(first.workload, first.scale)
    machine = get_machine(first.machine, scale=first.machine_scale)
    options: Dict[str, Any] = {}
    if first.mode == "umi":
        options["umi_config"] = first.umi_config()
    variants = [_observers(spec) for spec in group]
    wants = [bool(v.get("with_cachegrind")) for v in variants]
    geometry = (machine.l1, machine.l2)
    kept = riders.get(geometry) if any(wants) else None
    if kept is not None:
        variants = [{**v, "with_cachegrind": False} for v in variants]
    outcomes = run_fused(program, machine, first.mode, variants,
                         hw_prefetch=first.hw_prefetch, **options)
    if kept is not None:
        for outcome, want in zip(outcomes, wants):
            if want:
                outcome.cachegrind = kept
        get_telemetry().count("fullsim.cachegrind_reuses")
    elif any(wants):
        # run_fused returned, so the rider saw the whole run; settled,
        # it keeps counters rather than the run's columns.
        rider = outcomes[wants.index(True)].cachegrind
        rider.settle()
        riders[geometry] = rider
    return outcomes


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
    """One fusion group under an ``executor.spec`` span.

    The span also records the executing process's peak RSS so far
    (``maxrss_kib``) and the group's user/sys CPU seconds (``user_s``,
    ``sys_s``) from ``getrusage``.
    """
    telemetry = get_telemetry()
    if not telemetry.enabled:
        return execute_group_payloads(group)
    spec = group[0]
    fused = {"fused": len(group)} if len(group) > 1 else {}
    with telemetry.span("executor.spec",
                        labels={"workload": spec.workload},
                        digest=spec.digest()[:12], spec=spec.describe(),
                        **fused) as span:
        if resource is None:
            return execute_group_payloads(group)
        before = resource.getrusage(resource.RUSAGE_SELF)
        payloads = execute_group_payloads(group)
        after = resource.getrusage(resource.RUSAGE_SELF)
        span.attrs.update(maxrss_kib=after.ru_maxrss // _MAXRSS_PER_KIB,
                          user_s=after.ru_utime - before.ru_utime,
                          sys_s=after.ru_stime - before.ru_stime)
        return payloads


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
