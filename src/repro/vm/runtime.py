"""DynamoSim: the DynamoRIO-like runtime code manipulation system.

Executes a program the way DynamoRIO does (paper Section 3): user code
runs from a basic-block cache with a dispatcher between blocks, direct
branches get linked after first use, indirect branches pay a fast lookup,
and hot block sequences are stitched into single-entry multiple-exits
traces kept in a trace cache.  All overheads are charged to the machine
state's cycle counter via the cost model.

UMI plugs in through :class:`RuntimeHooks`: trace creation, trace
entry/exit (where profiling rows are managed), and the periodic timer
sample used by the region selector.

A trace pass pays only for what it uses: the entry/exit hooks fire only
for traces the client marked ``hooked``, the stream's trace id is
stamped only when a consumer declares ``wants_trace_ids``, and a trace
that exits to its own head over a linked branch is re-entered directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.isa import Program
from repro.telemetry import get_telemetry

from .cost_model import DEFAULT_COST_MODEL, CostModel
from .interpreter import (
    DEFAULT_MAX_STEPS, INDIRECT_TERMINATORS, ExecutionLimitExceeded,
    Interpreter,
)
from .trace import Trace
from .trace_builder import TraceBuilder


class RuntimeHooks:
    """Callbacks a client (UMI) can override.  Defaults do nothing.

    ``trace_entered`` and ``trace_exited`` fire only around passes of
    traces whose ``hooked`` flag is set (the client sets it, typically
    in ``trace_created``); whether a pass calls ``trace_exited`` is
    decided by the flag's value at entry.
    """

    def trace_created(self, trace: Trace) -> None:
        """A new trace was placed in the trace cache."""

    def trace_entered(self, trace: Trace) -> None:
        """Control entered a hooked trace (the instrumentation prolog
        point)."""

    def trace_exited(self, trace: Trace) -> None:
        """Control left a trace that was hooked at entry, after one
        pass."""

    def timer_sample(self, trace: Optional[Trace]) -> None:
        """A program-counter sampling timer tick fired.

        ``trace`` is the trace the program counter was attributed to, or
        ``None`` when execution was in dispatcher/basic-block-cache code.
        """


@dataclass
class RuntimeConfig:
    """Knobs of the runtime system itself (not of UMI)."""

    hot_threshold: int = 50
    max_trace_blocks: int = 32
    enable_traces: bool = True
    #: PC-sampling period in cycles; ``None`` disables the timer.
    sample_period: Optional[int] = None
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self) -> None:
        if self.hot_threshold < 1:
            raise ValueError("hot_threshold must be >= 1")
        if self.max_trace_blocks < 1:
            raise ValueError("max_trace_blocks must be >= 1")
        if self.sample_period is not None and self.sample_period < 1:
            raise ValueError("sample_period must be >= 1 or None")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class RuntimeStats:
    """What happened during one DynamoSim run."""

    blocks_translated: int = 0
    block_executions: int = 0
    trace_entries: int = 0
    traces_built: int = 0
    dispatches: int = 0
    indirect_lookups: int = 0
    timer_samples: int = 0
    steps_in_traces: int = 0
    total_steps: int = 0

    @property
    def trace_residency(self) -> float:
        """Fraction of dynamic instructions executed from the trace cache
        (the paper notes 176.gcc spends <70% of execution there)."""
        if not self.total_steps:
            return 0.0
        return self.steps_in_traces / self.total_steps


class DynamoSim:
    """The runtime: block cache + linker + trace cache + timer."""

    def __init__(
        self,
        program: Program,
        memsys,
        config: Optional[RuntimeConfig] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        hooks: Optional[RuntimeHooks] = None,
        stream=None,
    ) -> None:
        self.program = program
        self.config = config if config is not None else RuntimeConfig()
        self.cost_model = cost_model
        self.hooks = hooks if hooks is not None else RuntimeHooks()
        self.interp = Interpreter(program, memsys, cost_model,
                                  stream=stream)
        # Hoisted for the per-pass trace loop.
        self._state = self.interp.state
        self._context = self.interp.context
        self._stream = stream
        self._trace_branch_discount = cost_model.trace_branch_discount
        self.builder = TraceBuilder(
            program,
            hot_threshold=self.config.hot_threshold,
            max_blocks=self.config.max_trace_blocks,
        )
        self.traces: Dict[str, Trace] = {}
        self.stats = RuntimeStats()
        self._translated: Set[str] = set()
        self._linked: Set[Tuple[str, str]] = set()
        # Per-trace compiled block functions and on-trace successors.
        self._trace_functions: Dict[Trace, tuple] = {}
        self._next_sample: Optional[int] = (
            self.config.sample_period if self.config.sample_period else None
        )

    # -- public API -----------------------------------------------------------

    @property
    def state(self):
        return self.interp.state

    def run(self) -> RuntimeStats:
        """Execute the program to completion under the runtime."""
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return self._run()
        with telemetry.span("vm.run",
                            labels={"program": self.program.name}):
            stats = self._run()
        telemetry.event(
            "vm.run_stats", program=self.program.name,
            traces_built=stats.traces_built,
            blocks_translated=stats.blocks_translated,
            trace_entries=stats.trace_entries,
            timer_samples=stats.timer_samples,
            trace_residency=stats.trace_residency,
        )
        return stats

    def _run(self) -> RuntimeStats:
        interp = self.interp
        interp.bind_lanes()
        state = self._state
        context = self._context
        config = self.config
        model = self.cost_model
        stats = self.stats
        hooks = self.hooks
        builder = self.builder
        traces = self.traces
        trace_heads = traces.keys()
        linked = self._linked
        translated = self._translated
        block_function = interp.block_function
        execute_trace = self._execute_trace
        dispatch_cost = model.dispatch_cost
        indirect_cost = model.indirect_lookup_cost
        translation_cost = model.block_translation_cost
        enable_traces = config.enable_traces
        sample_period = config.sample_period
        max_steps = config.max_steps
        indirect = INDIRECT_TERMINATORS
        label: Optional[str] = self.program.entry
        prev_label: Optional[str] = None
        prev_indirect = False
        last_trace: Optional[Trace] = None
        next_sample = self._next_sample

        while label is not None:
            # The transition into ``label``: the first block and every
            # unlinked direct transition go through the dispatcher,
            # which links the two fragments; indirect ones pay the
            # lookup.
            if prev_indirect:
                state.cycles += indirect_cost
                stats.indirect_lookups += 1
            elif prev_label is None:
                state.cycles += dispatch_cost
                stats.dispatches += 1
            else:
                pair = (prev_label, label)
                if pair not in linked:
                    state.cycles += dispatch_cost
                    stats.dispatches += 1
                    linked.add(pair)
            prev_label = label

            trace = (traces.get(label) if builder.recording_head is None
                     else None)
            if trace is not None:
                label = execute_trace(trace)
                head = trace.head
                if label == head and (head, head) in linked:
                    # Linked self-loop: re-enter the trace directly
                    # while the back branch is direct, no timer tick is
                    # due and the step limit holds.  Nothing records in
                    # this state, so the trace cache cannot change.
                    while (label == head
                           and context.last_terminator_op not in indirect
                           and (next_sample is None
                                or state.cycles < next_sample)
                           and state.steps <= max_steps):
                        label = execute_trace(trace)
                last_trace = trace
            else:
                if label not in translated:
                    translated.add(label)
                    state.cycles += translation_cost
                    stats.blocks_translated += 1
                stats.block_executions += 1
                if enable_traces:
                    builder.note_block_execution(label, trace_heads)
                executed = label
                label = block_function(executed)()
                if builder.recording_head is not None:
                    built = builder.record_step(
                        executed, context.last_terminator_op, label,
                        trace_heads)
                    if built is not None:
                        self._install_trace(built)
                last_trace = None
            prev_indirect = context.last_terminator_op in indirect

            if next_sample is not None and state.cycles >= next_sample:
                while state.cycles >= next_sample:
                    next_sample += sample_period
                    stats.timer_samples += 1
                    state.cycles += model.sample_interrupt_cost
                    hooks.timer_sample(last_trace)

            if state.steps > max_steps:
                raise ExecutionLimitExceeded(
                    f"{self.program.name}: exceeded {max_steps} dynamic "
                    f"instructions under DynamoSim"
                )

        self._next_sample = next_sample
        stats.total_steps = state.steps
        return stats

    # -- internals ---------------------------------------------------------------

    def _install_trace(self, trace: Trace) -> None:
        self.traces[trace.head] = trace
        cost = self.cost_model.trace_build_cost_per_block * len(trace.blocks)
        self.state.cycles += cost
        self.stats.traces_built += 1
        get_telemetry().count("vm.traces_built",
                              labels={"program": self.program.name})
        self.hooks.trace_created(trace)

    def _execute_trace(self, trace: Trace) -> Optional[str]:
        """One pass through a trace; returns the exit label."""
        state = self._state
        stats = self.stats
        trace.entries += 1
        stats.trace_entries += 1
        steps_before = state.steps

        stream = self._stream
        stamped = stream is not None and stream.wants_trace_ids
        if stamped:
            # Unique per pass, so stream consumers can group references
            # into profile rows without extra boundary markers.
            stream.trace_id = f"{trace.head}@{trace.entries}"
        hooked = trace.hooked
        if hooked:
            self.hooks.trace_entered(trace)
        prefetch_map = trace.prefetch_map
        if prefetch_map:
            self._context.prefetch_map = prefetch_map

        compiled = self._trace_functions.get(trace)
        if compiled is None:
            compiled = self._compile_trace(trace)
        functions, successors = compiled
        exit_label = functions[0]()
        if successors:
            discount = self._trace_branch_discount
            last = len(successors)
            i = 0
            while i < last and exit_label == successors[i]:
                # Stayed on the trace: the stitched fragment elides this
                # branch/layout cost.
                state.cycles -= discount
                i += 1
                exit_label = functions[i]()

        if prefetch_map:
            self._context.prefetch_map = None
        if stamped:
            stream.trace_id = None
        if hooked:
            self.hooks.trace_exited(trace)
        stats.steps_in_traces += state.steps - steps_before
        return exit_label

    def _compile_trace(self, trace: Trace) -> tuple:
        """A trace's block functions and on-trace successor labels."""
        block_function = self.interp.block_function
        compiled = (tuple(block_function(label)
                          for label in trace.block_labels),
                    tuple(trace.block_labels[1:]))
        self._trace_functions[trace] = compiled
        return compiled
