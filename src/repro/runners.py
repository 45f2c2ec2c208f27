"""High-level run harness: a registry of measurement modes.

The paper's experiments compare the same program executed several ways:

* **native** -- plain interpretation on the modelled machine (the
  baseline all figures normalise against);
* **dynamo** -- under the DynamoRIO stand-in, no UMI;
* **umi** -- under DynamoSim with UMI profiling/analysis, with or
  without sample-based reinforcement, and optionally with the online
  software prefetcher;
* **cachegrind** -- offline full-trace simulation (no timing).

Each timed mode is a callable registered in :data:`MODES` under its
mode name; :func:`run_mode` dispatches by name, which is how the
execution engine (:mod:`repro.engine`) turns a declarative
:class:`~repro.engine.RunSpec` into a run without a per-mode special
case.  The historical entry points (``run_native`` et al.) remain as
the registered callables themselves.

Every mode accepts ``consumers``: names resolved through
:mod:`repro.stream`'s registry into live consumers attached to the
run's reference / line streams; their ``summary()`` dicts land in
``RunOutcome.derived``.  Cachegrind piggybacks on any timed run the
same way (it sees the same reference stream and keeps its own untimed
cache model), which is how the correlation and delinquency experiments
avoid a second execution.

:func:`run_native_fused` goes further: one native execution feeds
several requested variants (counter sampling configurations, a
Cachegrind observer, shadow-hierarchy consumers) simultaneously and
splits the results back into per-variant :class:`RunOutcome` records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.core import UMIConfig, UMIResult, UMIRuntime
from repro.counters import HardwareCounters
from repro.faults import FaultyConsumerProxy, active_fault_plan
from repro.fullsim import CachegrindSimulator
from repro.isa import Program
from repro.memory import (
    MachineConfig, MemoryHierarchy, make_hw_prefetcher,
)
from repro.stream import (
    BuildContext, LineConsumer, RefConsumer, RefStream, create_consumer,
)
from repro.vm import (
    CostModel, DEFAULT_COST_MODEL, DEFAULT_MAX_STEPS, DynamoSim,
    Interpreter, RuntimeConfig, RuntimeStats,
)

__all__ = [
    "DEFAULT_MAX_STEPS", "MODES", "MODE_KWARGS", "RunOutcome",
    "register_mode", "run_cachegrind", "run_dynamo", "run_mode",
    "run_native", "run_native_fused", "run_umi",
]


@dataclass
class RunOutcome:
    """Common result envelope for every run mode."""

    program_name: str
    mode: str
    cycles: int
    steps: int
    hw_l2_miss_ratio: float
    hw_counters: Dict[str, int]
    runtime_stats: Optional[RuntimeStats] = None
    umi: Optional[UMIResult] = None
    cachegrind: Optional[CachegrindSimulator] = None
    counter_interrupt_cycles: int = 0
    #: per-consumer ``summary()`` dicts, keyed by consumer name.
    derived: Dict[str, Dict[str, Any]] = field(default_factory=dict)


#: Mode-name -> runner registry.  Every runner takes
#: ``(program, machine, **mode_kwargs)`` and returns a
#: :class:`RunOutcome`; :data:`MODE_KWARGS` names the keyword arguments
#: each mode accepts from a declarative spec.
MODES: Dict[str, Callable[..., RunOutcome]] = {}

MODE_KWARGS: Dict[str, Tuple[str, ...]] = {}


def register_mode(name: str, spec_kwargs: Tuple[str, ...] = ()):
    """Class decorator registering a runner under ``name``."""
    def deco(fn: Callable[..., RunOutcome]) -> Callable[..., RunOutcome]:
        MODES[name] = fn
        MODE_KWARGS[name] = tuple(spec_kwargs)
        return fn
    return deco


def run_mode(mode: str, program: Program, machine: MachineConfig,
             **kwargs) -> RunOutcome:
    """Dispatch one run through the mode registry."""
    try:
        runner = MODES[mode]
    except KeyError:
        raise ValueError(
            f"unknown run mode {mode!r}; known: {sorted(MODES)}"
        ) from None
    return runner(program, machine, **kwargs)


def _make_hierarchy(machine: MachineConfig, hw_prefetch: bool
                    ) -> MemoryHierarchy:
    return MemoryHierarchy(
        machine, make_hw_prefetcher(machine, enabled=hw_prefetch),
    )


#: The one delivery hook each event plane calls.
_PLANE_HOOKS = {"refs": "on_batch", "lines": "on_line_batch"}

#: The base classes' placeholders, which only raise NotImplementedError.
_UNIMPLEMENTED_HOOKS = (RefConsumer.on_batch, LineConsumer.on_line_batch)


def _check_delivery_hook(name: str, plane: str, consumer: Any) -> None:
    """Reject a consumer that cannot take its plane's batches, before
    the run starts rather than by quarantine mid-run."""
    hook = _PLANE_HOOKS[plane]
    method = getattr(consumer, hook, None)
    if method is None or getattr(method, "__func__", None) \
            in _UNIMPLEMENTED_HOOKS:
        raise ValueError(
            f"stream consumer {name!r} ({type(consumer).__name__}) is "
            f"registered on the {plane!r} plane but does not implement "
            f"{hook}")


class _StreamPlan:
    """Registry consumers resolved for one run, wired to its streams.

    An installed fault plan (:mod:`repro.faults`) may mark a consumer
    name for injection; the built consumer is then wrapped in a
    :class:`~repro.faults.FaultyConsumerProxy` that throws on its Nth
    batch -- exercising the hubs' quarantine path.  ``derived()``
    reports a quarantined consumer's failure record in place of its
    summary, so the outcome documents the degradation instead of
    silently dropping the analysis.
    """

    def __init__(self, machine: MachineConfig, program: Program,
                 names: Sequence[str]) -> None:
        context = BuildContext(machine=machine, program=program)
        fault_plan = active_fault_plan()
        self.by_name: Dict[str, Any] = {}
        self.refs: List[Any] = []
        self.lines: List[Any] = []
        self._streams: List[Any] = []
        for name in names:
            if name in self.by_name:
                continue
            entry, consumer = create_consumer(name, context)
            _check_delivery_hook(name, entry.plane, consumer)
            if fault_plan is not None:
                fail_batch = fault_plan.consumer_batch(name)
                if fail_batch is not None:
                    consumer = FaultyConsumerProxy(consumer, name,
                                                   fail_batch)
            self.by_name[name] = consumer
            (self.lines if entry.plane == "lines" else self.refs
             ).append(consumer)

    def wire(self, stream: Optional[RefStream],
             hierarchy: Optional[MemoryHierarchy]) -> None:
        if self.refs and stream is None:
            raise ValueError("refs-plane consumers need a RefStream")
        if self.lines and hierarchy is None:
            raise ValueError("lines-plane consumers need a hierarchy")
        for consumer in self.refs:
            stream.attach(consumer)
        for consumer in self.lines:
            hierarchy.line_stream.attach(consumer)
        if stream is not None:
            self._streams.append(stream)
        if hierarchy is not None:
            self._streams.append(hierarchy.line_stream)

    def _quarantine_records(self) -> Dict[int, Any]:
        """Quarantined-consumer records keyed by consumer identity."""
        return {id(record.consumer): record
                for stream in self._streams
                for record in stream.quarantined}

    def derived(self) -> Dict[str, Dict[str, Any]]:
        """Per-consumer summaries (call after the streams finish)."""
        quarantined = self._quarantine_records()
        out: Dict[str, Dict[str, Any]] = {}
        for name, consumer in self.by_name.items():
            record = quarantined.get(id(consumer))
            if record is not None:
                out[name] = {
                    "quarantined": True,
                    "stage": record.stage,
                    "error": record.error,
                    "traceback": record.traceback,
                }
            else:
                out[name] = consumer.summary()
        return out


def _finish_streams(stream: Optional[RefStream],
                    hierarchy: Optional[MemoryHierarchy]) -> None:
    """Flush and close both event planes at end of run."""
    if stream is not None:
        stream.finish()
    if hierarchy is not None and hierarchy.line_stream.consumers:
        hierarchy.line_stream.finish()


@register_mode("native", spec_kwargs=(
    "hw_prefetch", "with_cachegrind", "counter_sample_size", "consumers"))
def run_native(
    program: Program,
    machine: MachineConfig,
    hw_prefetch: bool = False,
    with_cachegrind: bool = False,
    counter_sample_size: Optional[int] = None,
    consumers: Sequence[str] = (),
    cost_model: CostModel = DEFAULT_COST_MODEL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> RunOutcome:
    """Native execution on the modelled machine.

    ``counter_sample_size`` programs an L2-miss hardware counter with
    overflow sampling (``None`` = no counters, ``0`` = free-running), the
    Table 1 configuration.
    """
    hierarchy = _make_hierarchy(machine, hw_prefetch)
    cachegrind = CachegrindSimulator(machine) if with_cachegrind else None
    plan = _StreamPlan(machine, program, consumers)
    stream = RefStream() if (cachegrind or plan.refs) else None
    if cachegrind is not None:
        stream.attach(cachegrind)
    plan.wire(stream, hierarchy)
    interp = Interpreter(program, hierarchy, cost_model, stream=stream)
    hw = None
    if counter_sample_size is not None:
        hw = HardwareCounters(state=interp.state, cost_model=cost_model)
        hw.program("l2_ref")
        hw.program("l2_miss", sample_size=counter_sample_size)
        hw.attach(hierarchy)
    interp.run_native(max_steps=max_steps)
    _finish_streams(stream, hierarchy)
    interrupt_cycles = hw.total_interrupt_cycles() if hw else 0
    return RunOutcome(
        program_name=program.name,
        mode="native",
        cycles=interp.state.cycles + interrupt_cycles,
        steps=interp.state.steps,
        hw_l2_miss_ratio=hierarchy.l2_miss_ratio(),
        hw_counters=hierarchy.counters_snapshot(),
        cachegrind=cachegrind,
        counter_interrupt_cycles=interrupt_cycles,
        derived=plan.derived(),
    )


def run_native_fused(
    program: Program,
    machine: MachineConfig,
    variants: Sequence[Dict[str, Any]],
    hw_prefetch: bool = False,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> List[RunOutcome]:
    """One native execution serving several measurement variants.

    ``variants`` is a sequence of dicts with any of the keys
    ``counter_sample_size``, ``with_cachegrind`` and ``consumers`` (the
    same knobs :func:`run_native` takes per run).  The fusion is sound
    because every attached backend is a passive stream consumer: the
    hardware counters observe line events without touching simulator
    state, Cachegrind keeps its own untimed cache model, and shadow
    hierarchy consumers replay the recorded per-event cycles -- so each
    variant's numbers are bit-identical to a standalone run.  Returns
    one :class:`RunOutcome` per variant, in order.
    """
    if not variants:
        raise ValueError("run_native_fused needs at least one variant")
    hierarchy = _make_hierarchy(machine, hw_prefetch)
    any_cachegrind = any(v.get("with_cachegrind") for v in variants)
    cachegrind = CachegrindSimulator(machine) if any_cachegrind else None
    all_names: List[str] = []
    for v in variants:
        all_names.extend(v.get("consumers", ()))
    plan = _StreamPlan(machine, program, all_names)
    stream = RefStream() if (cachegrind or plan.refs) else None
    if cachegrind is not None:
        stream.attach(cachegrind)
    plan.wire(stream, hierarchy)
    interp = Interpreter(program, hierarchy, cost_model, stream=stream)

    # One counter set per distinct sampling configuration: counting is
    # passive, so all sets observe the identical line-event stream.
    counter_sets: Dict[int, HardwareCounters] = {}
    for v in variants:
        sample_size = v.get("counter_sample_size")
        if sample_size is None or sample_size in counter_sets:
            continue
        hw = HardwareCounters(state=interp.state, cost_model=cost_model)
        hw.program("l2_ref")
        hw.program("l2_miss", sample_size=sample_size)
        hw.attach(hierarchy)
        counter_sets[sample_size] = hw

    interp.run_native(max_steps=max_steps)
    _finish_streams(stream, hierarchy)

    all_derived = plan.derived()
    base_cycles = interp.state.cycles
    outcomes: List[RunOutcome] = []
    for v in variants:
        sample_size = v.get("counter_sample_size")
        hw = counter_sets.get(sample_size) if sample_size is not None else None
        interrupt_cycles = hw.total_interrupt_cycles() if hw else 0
        outcomes.append(RunOutcome(
            program_name=program.name,
            mode="native",
            cycles=base_cycles + interrupt_cycles,
            steps=interp.state.steps,
            hw_l2_miss_ratio=hierarchy.l2_miss_ratio(),
            hw_counters=hierarchy.counters_snapshot(),
            cachegrind=cachegrind if v.get("with_cachegrind") else None,
            counter_interrupt_cycles=interrupt_cycles,
            derived={name: all_derived[name]
                     for name in v.get("consumers", ())},
        ))
    return outcomes


@register_mode("dynamo", spec_kwargs=("hw_prefetch", "consumers"))
def run_dynamo(
    program: Program,
    machine: MachineConfig,
    hw_prefetch: bool = False,
    consumers: Sequence[str] = (),
    runtime_config: Optional[RuntimeConfig] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> RunOutcome:
    """Execution under the binary rewriter alone (no UMI)."""
    hierarchy = _make_hierarchy(machine, hw_prefetch)
    plan = _StreamPlan(machine, program, consumers)
    stream = RefStream() if plan.refs else None
    plan.wire(stream, hierarchy)
    dynamo = DynamoSim(
        program, hierarchy,
        config=runtime_config or RuntimeConfig(),
        cost_model=cost_model,
        stream=stream,
    )
    stats = dynamo.run()
    _finish_streams(stream, hierarchy)
    return RunOutcome(
        program_name=program.name,
        mode="dynamo",
        cycles=dynamo.state.cycles,
        steps=dynamo.state.steps,
        hw_l2_miss_ratio=hierarchy.l2_miss_ratio(),
        hw_counters=hierarchy.counters_snapshot(),
        runtime_stats=stats,
        derived=plan.derived(),
    )


@register_mode("umi", spec_kwargs=(
    "umi_config", "hw_prefetch", "with_cachegrind", "consumers"))
def run_umi(
    program: Program,
    machine: MachineConfig,
    umi_config: Optional[UMIConfig] = None,
    hw_prefetch: bool = False,
    with_cachegrind: bool = False,
    consumers: Sequence[str] = (),
    runtime_config: Optional[RuntimeConfig] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> RunOutcome:
    """Execution under DynamoSim + UMI."""
    hierarchy = _make_hierarchy(machine, hw_prefetch)
    cachegrind = CachegrindSimulator(machine) if with_cachegrind else None
    plan = _StreamPlan(machine, program, consumers)
    stream = RefStream() if (cachegrind or plan.refs) else None
    if cachegrind is not None:
        stream.attach(cachegrind)
    plan.wire(stream, hierarchy)
    umi = UMIRuntime(
        program, machine,
        config=umi_config or UMIConfig(),
        cost_model=cost_model,
        runtime_config=runtime_config or RuntimeConfig(),
        hierarchy=hierarchy,
        stream=stream,
    )
    result = umi.run()
    _finish_streams(stream, hierarchy)
    return RunOutcome(
        program_name=program.name,
        mode="umi",
        cycles=result.cycles,
        steps=result.steps,
        hw_l2_miss_ratio=result.hardware_l2_miss_ratio,
        hw_counters=result.hardware_counters,
        runtime_stats=result.runtime_stats,
        umi=result,
        cachegrind=cachegrind,
        derived=plan.derived(),
    )


def run_cachegrind(
    program: Program,
    machine: MachineConfig,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> CachegrindSimulator:
    """Standalone offline full simulation (the slow baseline)."""
    sim = CachegrindSimulator(machine)
    sim.run(program, max_steps=max_steps)
    return sim
