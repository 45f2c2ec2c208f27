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
mode name, and :func:`run_mode` dispatches by name; :data:`MODE_KWARGS`
names the knobs each mode takes from a declarative
:class:`~repro.engine.RunSpec`.

Every mode also accepts passive *observers* (:data:`OBSERVER_KWARGS`):
``consumers``, names resolved through :mod:`repro.stream`'s registry
into live consumers attached to the run's reference / line streams
(their ``summary()`` dicts land in ``RunOutcome.derived``); a
Cachegrind rider that sees the same reference stream and keeps its own
untimed cache model; and, for native runs, hardware-counter sets.
Observers never perturb the simulated execution in any mode (counter
interrupts are charged to ``cycles`` after the run), which is how the
correlation and delinquency experiments avoid a second execution.

:func:`run_fused` is the one place that wires observers to a run: it
executes once in any mode, feeds every requested variant's observers
from that execution, and splits the results back into per-variant
:class:`RunOutcome` records.  The per-mode entry points are its
one-variant calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
from repro.telemetry import get_telemetry
from repro.vm import (
    CostModel, DEFAULT_COST_MODEL, DEFAULT_MAX_STEPS, DynamoSim,
    Interpreter, RuntimeConfig, RuntimeStats,
)

__all__ = [
    "DEFAULT_MAX_STEPS", "MODES", "MODE_KWARGS", "OBSERVER_KWARGS",
    "RunOutcome", "register_mode", "run_cachegrind", "run_dynamo",
    "run_fused", "run_mode", "run_native", "run_umi",
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


#: The observer fields a variant may set.  Observers are passive: they
#: never touch the simulated execution, so any mix of them rides one run.
OBSERVER_KWARGS = ("with_cachegrind", "counter_sample_size", "consumers")


def _start_native(program: Program, hierarchy: MemoryHierarchy,
                  stream: Optional[RefStream], cost_model: CostModel,
                  max_steps: int):
    interp = Interpreter(program, hierarchy, cost_model, stream=stream)

    def run() -> RunOutcome:
        interp.run_native(max_steps=max_steps)
        return RunOutcome(
            program_name=program.name,
            mode="native",
            cycles=interp.state.cycles,
            steps=interp.state.steps,
            hw_l2_miss_ratio=hierarchy.l2_miss_ratio(),
            hw_counters=hierarchy.counters_snapshot(),
        )
    return interp.state, run


def _start_dynamo(program: Program, hierarchy: MemoryHierarchy,
                  stream: Optional[RefStream], cost_model: CostModel,
                  max_steps: int,
                  runtime_config: Optional[RuntimeConfig] = None):
    dynamo = DynamoSim(
        program, hierarchy,
        config=runtime_config or RuntimeConfig(max_steps=max_steps),
        cost_model=cost_model,
        stream=stream,
    )

    def run() -> RunOutcome:
        stats = dynamo.run()
        return RunOutcome(
            program_name=program.name,
            mode="dynamo",
            cycles=dynamo.state.cycles,
            steps=dynamo.state.steps,
            hw_l2_miss_ratio=hierarchy.l2_miss_ratio(),
            hw_counters=hierarchy.counters_snapshot(),
            runtime_stats=stats,
        )
    return dynamo.state, run


def _start_umi(program: Program, hierarchy: MemoryHierarchy,
               stream: Optional[RefStream], cost_model: CostModel,
               max_steps: int,
               umi_config: Optional[UMIConfig] = None,
               runtime_config: Optional[RuntimeConfig] = None):
    umi = UMIRuntime(
        program, hierarchy.config,
        config=umi_config or UMIConfig(),
        cost_model=cost_model,
        runtime_config=runtime_config or RuntimeConfig(max_steps=max_steps),
        hierarchy=hierarchy,
        stream=stream,
    )

    def run() -> RunOutcome:
        result = umi.run()
        return RunOutcome(
            program_name=program.name,
            mode="umi",
            cycles=result.cycles,
            steps=result.steps,
            hw_l2_miss_ratio=result.hardware_l2_miss_ratio,
            hw_counters=result.hardware_counters,
            runtime_stats=result.runtime_stats,
            umi=result,
        )
    return umi.state, run


#: Mode name -> starter.  A starter builds the mode's simulator over the
#: shared hierarchy and stream and returns ``(machine state, run)``;
#: ``run()`` executes to completion and returns the outcome before any
#: observer's share is added.
_STARTERS = {"native": _start_native, "dynamo": _start_dynamo,
             "umi": _start_umi}


def _counter_set(state, hierarchy: MemoryHierarchy, cost_model: CostModel,
                 sample_size: int) -> HardwareCounters:
    """The Table 1 counter configuration: L2 references plus an L2-miss
    counter with overflow sampling (``0`` = free-running)."""
    hw = HardwareCounters(state=state, cost_model=cost_model)
    hw.program("l2_ref")
    hw.program("l2_miss", sample_size=sample_size)
    hw.attach(hierarchy)
    return hw


def _refs_served(hierarchy: MemoryHierarchy) -> int:
    """Line references the L1D and L1I served in one run, read from
    their stats: the same count whether a compiled block's inline lane
    or a hierarchy call served them."""
    l1i = hierarchy.l1i
    return hierarchy.l1.stats.refs + (l1i.stats.refs if l1i else 0)


def run_fused(
    program: Program,
    machine: MachineConfig,
    mode: str,
    variants: Sequence[Dict[str, Any]],
    hw_prefetch: bool = False,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    max_steps: int = DEFAULT_MAX_STEPS,
    **options: Any,
) -> List[RunOutcome]:
    """One execution in ``mode`` serving several observer variants.

    ``variants`` is a sequence of dicts with any of the
    :data:`OBSERVER_KWARGS` keys: ``counter_sample_size``,
    ``with_cachegrind`` and ``consumers``.  ``max_steps`` bounds the
    run in every mode, except that a dynamo/umi ``runtime_config``
    carries its own bound.  ``options`` are the mode's other execution
    knobs: ``runtime_config`` for dynamo, ``umi_config`` and
    ``runtime_config`` for umi.

    The fusion is sound because every observer is passive: the
    hardware counters observe line events without touching simulator
    state, Cachegrind keeps its own untimed cache model, and shadow
    hierarchy consumers replay the recorded per-event cycles -- so each
    variant's numbers are bit-identical to a standalone run.  Returns
    one :class:`RunOutcome` per variant, in order; a variant gets
    ``cachegrind`` only if it asked for it and ``derived`` only for its
    own consumers.
    """
    if not variants:
        raise ValueError("run_fused needs at least one variant")
    try:
        start = _STARTERS[mode]
    except KeyError:
        raise ValueError(
            f"unknown run mode {mode!r}; known: {sorted(_STARTERS)}"
        ) from None
    hierarchy = _make_hierarchy(machine, hw_prefetch)
    any_cachegrind = any(v.get("with_cachegrind") for v in variants)
    cachegrind = CachegrindSimulator(machine) if any_cachegrind else None
    plan = _StreamPlan(machine, program,
                       [name for v in variants
                        for name in v.get("consumers", ())])
    stream = RefStream() if (cachegrind or plan.refs) else None
    if cachegrind is not None:
        stream.attach(cachegrind)
    plan.wire(stream, hierarchy)
    state, run = start(program, hierarchy, stream, cost_model, max_steps,
                       **options)

    # One counter set per distinct sampling configuration: counting is
    # passive, so all sets observe the identical line-event stream.
    counter_sets: Dict[int, HardwareCounters] = {}
    for v in variants:
        sample_size = v.get("counter_sample_size")
        if sample_size is not None and sample_size not in counter_sets:
            counter_sets[sample_size] = _counter_set(
                state, hierarchy, cost_model, sample_size)

    base = run()
    _finish_streams(stream, hierarchy)
    get_telemetry().count("memory.refs_served", _refs_served(hierarchy))

    all_derived = plan.derived()
    outcomes: List[RunOutcome] = []
    for v in variants:
        hw = counter_sets.get(v.get("counter_sample_size"))
        interrupt_cycles = hw.total_interrupt_cycles() if hw else 0
        outcomes.append(replace(
            base,
            cycles=base.cycles + interrupt_cycles,
            hw_counters=dict(base.hw_counters),
            cachegrind=cachegrind if v.get("with_cachegrind") else None,
            counter_interrupt_cycles=interrupt_cycles,
            derived={name: all_derived[name]
                     for name in v.get("consumers", ())},
        ))
    return outcomes


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
    return run_fused(
        program, machine, "native",
        [{"with_cachegrind": with_cachegrind,
          "counter_sample_size": counter_sample_size,
          "consumers": consumers}],
        hw_prefetch=hw_prefetch, cost_model=cost_model,
        max_steps=max_steps,
    )[0]


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
    return run_fused(
        program, machine, "dynamo", [{"consumers": consumers}],
        hw_prefetch=hw_prefetch, cost_model=cost_model,
        runtime_config=runtime_config,
    )[0]


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
    return run_fused(
        program, machine, "umi",
        [{"with_cachegrind": with_cachegrind, "consumers": consumers}],
        hw_prefetch=hw_prefetch, cost_model=cost_model,
        umi_config=umi_config, runtime_config=runtime_config,
    )[0]


def run_cachegrind(
    program: Program,
    machine: MachineConfig,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> CachegrindSimulator:
    """Standalone offline full simulation (the slow baseline)."""
    sim = CachegrindSimulator(machine)
    sim.run(program, max_steps=max_steps)
    return sim
