"""The UMI runtime: region selector + instrumentor + profile analyzer.

This is the paper's primary contribution assembled on top of the
DynamoRIO stand-in (:class:`repro.vm.DynamoSim`):

* **Region selector** -- the runtime's trace builder implicitly selects
  hot regions; with sampling enabled, a trace must additionally
  accumulate ``frequency_threshold`` PC-sampling hits before it is
  instrumented (Section 2/3).
* **Instrumentor** -- filters the trace's memory operations, clones the
  trace, and wires the surviving operations to a fresh address profile
  (Section 4).
* **Profile analyzer** -- a fast mini cache simulator triggered when the
  trace profile buffer or an address profile fills; it labels delinquent
  loads and (optionally) lets the software-prefetch optimizer rewrite
  the trace clone before it is swapped back in (Sections 5, 7, 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

from repro.isa import Program
from repro.memory.configs import make_hw_prefetcher
from repro.memory.hierarchy import MachineConfig, MemoryHierarchy
from repro.telemetry import get_telemetry
from repro.vm.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.vm.runtime import (
    DynamoSim, RuntimeConfig, RuntimeHooks, RuntimeStats,
)
from repro.vm.trace import Trace

from .analyzer import MiniCacheSimulator
from .config import UMIConfig
from .delinquent import DelinquentPredictor
from .instrumentor import InstrumentationStats, Instrumentor
from .optimizer import PrefetchStats, SoftwarePrefetchOptimizer
from .phase import Phase, PhaseTracker
from .profiles import AddressProfile, TraceProfileBuffer


@dataclass
class UMIStats:
    """Counters behind Table 3 and the overhead figures."""

    profiles_collected: int = 0
    analyzer_invocations: int = 0
    trace_buffer_triggers: int = 0
    address_profile_triggers: int = 0
    exit_drains: int = 0


@dataclass
class UMIResult:
    """Everything one UMI run produced."""

    program_name: str
    cycles: int
    steps: int
    runtime_stats: RuntimeStats
    umi_stats: UMIStats
    instrumentation: InstrumentationStats
    #: UMI's coarse simulated L2 miss ratio (the ``s_i`` of Table 4).
    simulated_miss_ratio: float
    #: per-pc mini-simulated miss ratios.
    pc_miss_ratios: Dict[int, float]
    #: the predicted delinquent-load set ``P``.
    predicted_delinquent: FrozenSet[int]
    #: the modelled machine's own counters (the ``h_i`` side).
    hardware_counters: Dict[str, int]
    hardware_l2_miss_ratio: float
    prefetch_stats: Optional[PrefetchStats] = None
    #: detected execution phases (``UMIConfig.track_phases``).
    phases: Optional[list] = None

    def profiling_row(self, program: Program) -> Dict[str, float]:
        """One row of Table 3 for this run."""
        loads = program.static_loads()
        stores = program.static_stores()
        profiled = self.instrumentation.profiled_operations
        total = loads + stores
        return {
            "static_loads": loads,
            "static_stores": stores,
            "profiled_operations": profiled,
            "pct_profiled": 100.0 * profiled / total if total else 0.0,
            "profiles_collected": self.umi_stats.profiles_collected,
            "analyzer_invocations": self.umi_stats.analyzer_invocations,
        }


class _UMIHooks(RuntimeHooks):
    """Adapter routing DynamoSim events into the UMI runtime."""

    def __init__(self, umi: "UMIRuntime") -> None:
        self._umi = umi

    def trace_created(self, trace: Trace) -> None:
        self._umi._on_trace_created(trace)

    def trace_entered(self, trace: Trace) -> None:
        self._umi._on_trace_entered(trace)

    def trace_exited(self, trace: Trace) -> None:
        self._umi._on_trace_exited(trace)

    def timer_sample(self, trace: Optional[Trace]) -> None:
        self._umi._on_timer_sample(trace)


class UMIRuntime:
    """Runs one program under DynamoSim + UMI on a modelled machine."""

    def __init__(
        self,
        program: Program,
        machine: MachineConfig,
        config: Optional[UMIConfig] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        runtime_config: Optional[RuntimeConfig] = None,
        hw_prefetch: bool = False,
        hierarchy: Optional[MemoryHierarchy] = None,
        stream=None,
    ) -> None:
        self.program = program
        self.machine = machine
        self.config = config if config is not None else UMIConfig()
        self.cost_model = cost_model

        if hierarchy is None:
            hierarchy = MemoryHierarchy(
                machine, make_hw_prefetcher(machine, enabled=hw_prefetch),
            )
        self.hierarchy = hierarchy

        rc = runtime_config if runtime_config is not None else RuntimeConfig()
        if (self.config.use_sampling
                and self.config.sampling_mode == "timer"
                and rc.sample_period is None):
            rc.sample_period = self.config.sample_period
        self._stream = stream
        self.dynamo = DynamoSim(
            program, hierarchy, config=rc, cost_model=cost_model,
            hooks=_UMIHooks(self), stream=stream,
        )
        state = self.dynamo.state
        self.instrumentor = Instrumentor(self.config, cost_model, state)
        self.mini_sim = MiniCacheSimulator(self.config, machine.l2)
        self.predictor = DelinquentPredictor(self.config, program)
        self.optimizer = (
            SoftwarePrefetchOptimizer(self.config, machine)
            if self.config.enable_sw_prefetch else None
        )
        self.trace_buffer = TraceProfileBuffer(
            self.config.trace_profile_entries,
        )
        self.phase_tracker = (
            PhaseTracker() if self.config.track_phases else None
        )
        self.stats = UMIStats()
        #: live (still recording) address profiles, keyed by trace head.
        self.profiles: Dict[str, AddressProfile] = {}
        #: analyzed profiles, retained when ``config.retain_profiles``.
        self.profile_archive: list = []
        self._entered_trace: Optional[Trace] = None
        self._trigger_on_exit = False
        # Event-driven selection counts every entry of a clean trace, so
        # in that mode every trace stays hooked; otherwise only
        # instrumented traces are.
        self._hook_clean_traces = (self.config.use_sampling
                                   and self.config.sampling_mode == "event")
        # Telemetry: one shared label dict so disabled-mode calls cost a
        # single attribute check, not a dict allocation per event.
        self._telemetry = get_telemetry()
        self._telemetry_labels = {"workload": program.name}

    # -- public API --------------------------------------------------------------

    @property
    def state(self):
        return self.dynamo.state

    def run(self, analyze_at_exit: bool = True) -> UMIResult:
        """Execute to completion; returns the collected results.

        ``analyze_at_exit`` drains any live profiles through the analyzer
        when the program halts, so short runs still yield predictions
        (the prototype would simply never act on that residue).
        """
        try:
            runtime_stats = self.dynamo.run()
        finally:
            # The hooks refer back to this runtime; dropping them breaks
            # the runtime -> DynamoSim -> hooks cycle, so a finished run
            # (its interpreter and machine memory included) is freed by
            # reference counting instead of waiting for the cyclic GC.
            self.dynamo.hooks = RuntimeHooks()
        if analyze_at_exit and self.profiles:
            self.stats.exit_drains += 1
            self._telemetry.count("umi.exit_drains",
                                  labels=self._telemetry_labels)
            self._run_analyzer()
        state = self.state
        if self._telemetry.enabled:
            # Reconciliation record: these fields must equal the
            # accumulated umi.* counters for this run (tests pin this).
            self._telemetry.event(
                "umi.run", workload=self.program.name,
                cycles=state.cycles, steps=state.steps,
                analyzer_invocations=self.stats.analyzer_invocations,
                profiles_collected=self.stats.profiles_collected,
                trace_buffer_triggers=self.stats.trace_buffer_triggers,
                address_profile_triggers=(
                    self.stats.address_profile_triggers),
                exit_drains=self.stats.exit_drains,
            )
        return UMIResult(
            program_name=self.program.name,
            cycles=state.cycles,
            steps=state.steps,
            runtime_stats=runtime_stats,
            umi_stats=self.stats,
            instrumentation=self.instrumentor.stats,
            simulated_miss_ratio=self.mini_sim.overall_miss_ratio(),
            pc_miss_ratios=self.mini_sim.pc_miss_ratios(
                min_refs=self.config.min_op_refs,
            ),
            predicted_delinquent=self.predictor.prediction_set,
            hardware_counters=self.hierarchy.counters_snapshot(),
            hardware_l2_miss_ratio=self.hierarchy.l2_miss_ratio(),
            prefetch_stats=self.optimizer.stats if self.optimizer else None,
            phases=(self.phase_tracker.phases()
                    if self.phase_tracker else None),
        )

    # -- region selection ------------------------------------------------------------

    def _on_trace_created(self, trace: Trace) -> None:
        trace.hooked = self._hook_clean_traces
        if not self.config.use_sampling:
            self._instrument_trace(trace)

    def _on_timer_sample(self, trace: Optional[Trace]) -> None:
        """One PC-sampling tick: credit the trace the PC fell in.

        "With each sample, the program counter is inspected to determine
        its parent code trace, and the counter for that trace is
        incremented.  A code region is selected for instrumentation when
        its counter saturates at the frequency threshold."
        """
        if not self.config.use_sampling or trace is None:
            return
        if self.config.sampling_mode != "timer":
            return
        self._credit_sample(trace)

    def _credit_sample(self, trace: Trace) -> None:
        if trace.instrumented:
            return
        trace.sample_count += 1
        if trace.sample_count >= self.config.frequency_threshold:
            trace.sample_count = 0
            self._instrument_trace(trace)

    def _instrument_trace(self, trace: Trace) -> None:
        telemetry = self._telemetry
        if telemetry.enabled:
            with telemetry.span("umi.instrument",
                                labels=self._telemetry_labels,
                                trace=trace.head):
                profile = self.instrumentor.instrument(trace)
            if profile is not None:
                telemetry.count("umi.traces_instrumented",
                                labels=self._telemetry_labels)
        else:
            profile = self.instrumentor.instrument(trace)
        if profile is not None:
            # The instrumented copy carries the prolog/epilog.
            trace.hooked = True
            self.profiles[trace.head] = profile

    # -- the instrumented-trace prolog/epilog -----------------------------------------

    def _on_trace_entered(self, trace: Trace) -> None:
        # Called only for hooked traces: instrumented ones, plus every
        # trace under event-driven selection.
        if not trace.instrumented:
            # Event-driven region selection: every Nth entry of a trace
            # counts as one sample toward its frequency threshold.
            if (self.config.use_sampling
                    and self.config.sampling_mode == "event"
                    and trace.entries % self.config.event_sample_period
                    == 0):
                self._credit_sample(trace)
            return
        interp = self.dynamo.interp
        interp.state.cycles += self.cost_model.prolog_cost
        profile = self.profiles.get(trace.head)
        if profile is None:  # defensive; should not happen
            return
        if profile.full:
            # The prolog found no available slots in the address profile:
            # trigger the analyzer; this execution runs uninstrumented
            # (the trace is swapped to its clone by the analyzer).
            self.stats.address_profile_triggers += 1
            self._telemetry.count("umi.address_profile_triggers",
                                  labels=self._telemetry_labels)
            self._run_analyzer()
            return
        row = profile.new_row()
        context = interp.context
        context.profile_cols = trace.profile_cols
        context.profile_row = row
        self._entered_trace = trace
        if self.trace_buffer.allocate():
            # The trace-profile write hit the guard page: the analyzer
            # fires as soon as this trace execution completes.
            self.stats.trace_buffer_triggers += 1
            self._telemetry.count("umi.trace_buffer_triggers",
                                  labels=self._telemetry_labels)
            self._trigger_on_exit = True

    def _on_trace_exited(self, trace: Trace) -> None:
        if self._entered_trace is not trace:
            return
        context = self.dynamo.interp.context
        context.profile_cols = None
        context.profile_row = None
        self._entered_trace = None
        if self._trigger_on_exit:
            self._trigger_on_exit = False
            self._run_analyzer()

    # -- the analyzer ----------------------------------------------------------------

    def _run_analyzer(self) -> None:
        """Context-switch to the profile analyzer (Section 5).

        Processes every live address profile, feeds delinquency labels to
        the predictor and (optionally) the prefetch optimizer, then swaps
        each instrumented trace for its clone and drains the trace
        profile buffer.

        Each trace is profiled for one address profile per selection:
        without sampling that means exactly once, at creation (the
        paper's Table 3 shows ~1 profile per instrumented trace); with
        sampling the swap to the clone resets the trace's sample
        counter, so it is re-selected after accumulating another
        ``frequency_threshold`` timer ticks -- periodic re-profiling
        across program phases.
        """
        telemetry = self._telemetry
        if not telemetry.enabled:
            self._analyze_profiles()
            return
        telemetry.count("umi.analyzer_invocations",
                        labels=self._telemetry_labels)
        with telemetry.span("umi.analyzer", labels=self._telemetry_labels,
                            live_profiles=len(self.profiles)):
            self._analyze_profiles()

    def _analyze_profiles(self) -> None:
        telemetry = self._telemetry
        state = self.state
        model = self.cost_model
        state.cycles += model.analyzer_invoke_cost
        self.stats.analyzer_invocations += 1
        if self.mini_sim.maybe_flush(state.cycles):
            telemetry.count("umi.mini_sim_flushes",
                            labels=self._telemetry_labels)

        invocation_refs = 0
        invocation_misses = 0
        analyzed = list(self.profiles.items())
        for head, profile in analyzed:
            trace = self.dynamo.traces[head]
            if not profile.empty:
                self.stats.profiles_collected += 1
                telemetry.count("umi.profiles_collected",
                                labels=self._telemetry_labels)
                state.cycles += (
                    model.analyzer_cost_per_record * profile.record_count()
                )
                result = self.mini_sim.analyze(profile)
                invocation_refs += result.counted_refs
                invocation_misses += result.counted_misses
                delinquent = self.predictor.process(trace, result)
                if self.optimizer is not None and delinquent:
                    self.optimizer.optimize(trace, profile, delinquent)
                if self.config.retain_profiles:
                    self.profile_archive.append(profile)
            self.instrumentor.swap_to_clone(trace)
            trace.hooked = self._hook_clean_traces
            del self.profiles[head]
        self.trace_buffer.drain()

        if self.phase_tracker is not None and invocation_refs:
            self.phase_tracker.observe(invocation_misses / invocation_refs)

        if self._stream is not None:
            # Mark the analyzer boundary on the reference stream so
            # consumers (e.g. profile recorders) can close open passes.
            self._stream.epoch({
                "kind": "analyzer",
                "invocation": self.stats.analyzer_invocations,
                "cycle": state.cycles,
            })
