"""Tests for DynamoSim: translation, linking, traces, sampling, hooks."""

import pytest

from repro.isa import (
    ADD, CC_LT, CC_NE, EAX, EBX, ECX, EDX, ESI, ProgramBuilder, mem,
)
from repro.memory.flat import FlatMemory
from repro.vm import (
    DEFAULT_COST_MODEL, DynamoSim, Interpreter, RuntimeConfig,
    RuntimeHooks, TraceBuilder,
)

from helpers import build_chase_program, build_stream_program


def run_dynamo(program, **config_kwargs):
    dyn = DynamoSim(program, FlatMemory(),
                    config=RuntimeConfig(**config_kwargs))
    stats = dyn.run()
    return dyn, stats


class TestExecutionEquivalence:
    def test_dynamo_computes_same_result_as_native(self):
        program, _ = build_stream_program(n=128, reps=3)
        native = Interpreter(program, FlatMemory())
        native.run_native()
        dyn, _ = run_dynamo(program, hot_threshold=10)
        assert dyn.state.regs[EDX] == native.state.regs[EDX]
        assert dyn.state.steps == native.state.steps

    def test_chase_equivalence(self):
        program, _ = build_chase_program(n=32, reps=3)
        native = Interpreter(program, FlatMemory())
        native.run_native()
        dyn, _ = run_dynamo(program, hot_threshold=5)
        assert dyn.state.regs == native.state.regs

    def test_dynamo_cycles_exceed_native_modestly(self):
        program, _ = build_stream_program(n=256, reps=8)
        native = Interpreter(program, FlatMemory())
        native.run_native()
        dyn, _ = run_dynamo(program, hot_threshold=10)
        ratio = dyn.state.cycles / native.state.cycles
        assert 0.9 < ratio < 1.5


class TestTraceFormation:
    def test_hot_loop_becomes_trace(self):
        program, _ = build_stream_program(n=256, reps=2)
        dyn, stats = run_dynamo(program, hot_threshold=10)
        assert stats.traces_built >= 1
        assert "loop" in dyn.traces

    def test_trace_has_high_residency_for_loop(self):
        program, _ = build_stream_program(n=256, reps=4)
        _, stats = run_dynamo(program, hot_threshold=10)
        assert stats.trace_residency > 0.9

    def test_cold_code_never_traced(self):
        program, _ = build_stream_program(n=4, reps=2)  # 8 iterations total
        dyn, stats = run_dynamo(program, hot_threshold=50)
        assert stats.traces_built == 0

    def test_traces_disabled(self):
        program, _ = build_stream_program(n=256, reps=2)
        _, stats = run_dynamo(program, hot_threshold=10, enable_traces=False)
        assert stats.traces_built == 0

    def test_trace_entries_counted(self):
        program, _ = build_stream_program(n=256, reps=2)
        dyn, stats = run_dynamo(program, hot_threshold=10)
        assert stats.trace_entries > 100

    def test_blocks_translated_once(self):
        program, _ = build_stream_program()
        _, stats = run_dynamo(program, hot_threshold=1000)
        assert stats.blocks_translated == len(program.blocks)


class TestTraceBuilder:
    def test_records_loop_back_to_head(self):
        program, _ = build_stream_program(n=64, reps=1)
        builder = TraceBuilder(program, hot_threshold=2)
        builder.note_block_execution("loop", set())
        builder.note_block_execution("loop", set())
        assert builder.recording
        trace = builder.record_step("loop", 9, "loop", set())  # JCC back
        assert trace is not None
        assert trace.loops_to_head
        assert trace.block_labels == ["loop"]

    def test_multi_block_trace(self):
        program, _ = build_stream_program(n=64, reps=2)
        builder = TraceBuilder(program, hot_threshold=1)
        builder.note_block_execution("rep", set())
        assert builder.recording_head == "rep"
        assert builder.record_step("rep", 10, "loop", set()) is None
        trace = builder.record_step("loop", 9, "loop", set())
        assert trace is not None
        assert trace.block_labels == ["rep", "loop"]
        assert not trace.loops_to_head

    def test_max_blocks_cap(self):
        program, _ = build_stream_program()
        builder = TraceBuilder(program, hot_threshold=1, max_blocks=1)
        builder.note_block_execution("rep", set())
        trace = builder.record_step("rep", 10, "loop", set())
        assert trace is not None and len(trace.blocks) == 1

    def test_existing_trace_head_not_recounted(self):
        program, _ = build_stream_program()
        builder = TraceBuilder(program, hot_threshold=1)
        builder.note_block_execution("loop", {"loop"})
        assert not builder.recording

    def test_invalid_thresholds(self):
        program, _ = build_stream_program()
        with pytest.raises(ValueError):
            TraceBuilder(program, hot_threshold=0)
        with pytest.raises(ValueError):
            TraceBuilder(program, hot_threshold=1, max_blocks=0)


class TestHooks:
    def test_trace_lifecycle_hooks_fire(self):
        events = []

        class Recorder(RuntimeHooks):
            def trace_created(self, trace):
                # Entry/exit fire only for traces the client hooks.
                trace.hooked = True
                events.append(("created", trace.head))

            def trace_entered(self, trace):
                events.append(("entered", trace.head))

            def trace_exited(self, trace):
                events.append(("exited", trace.head))

        program, _ = build_stream_program(n=64, reps=2)
        dyn = DynamoSim(program, FlatMemory(),
                        config=RuntimeConfig(hot_threshold=5),
                        hooks=Recorder())
        dyn.run()
        kinds = [k for k, _ in events]
        assert "created" in kinds
        assert kinds.count("entered") == kinds.count("exited")
        assert kinds.count("entered") > 10

    def test_unhooked_traces_make_no_entry_or_exit_calls(self):
        calls = []

        class Counter(RuntimeHooks):
            def trace_entered(self, trace):
                calls.append(("entered", trace.head))

            def trace_exited(self, trace):
                calls.append(("exited", trace.head))

        program, _ = build_stream_program(n=64, reps=2)
        dyn = DynamoSim(program, FlatMemory(),
                        config=RuntimeConfig(hot_threshold=5),
                        hooks=Counter())
        stats = dyn.run()
        assert stats.trace_entries > 10
        assert calls == []

    def test_exit_follows_the_flag_at_entry(self):
        """Unhooking a trace in its prolog still fires that pass's exit
        (UMI's mid-prolog swap to the clone); the next pass is clean."""
        events = []

        class Unhooker(RuntimeHooks):
            def trace_created(self, trace):
                trace.hooked = True

            def trace_entered(self, trace):
                events.append("entered")
                trace.hooked = False

            def trace_exited(self, trace):
                events.append("exited")

        program, _ = build_stream_program(n=64, reps=2)
        dyn = DynamoSim(program, FlatMemory(),
                        config=RuntimeConfig(hot_threshold=5),
                        hooks=Unhooker())
        stats = dyn.run()
        assert stats.trace_entries > 10
        assert events == ["entered", "exited"]

    def test_timer_samples_fire_with_period(self):
        ticks = []

        class Sampler(RuntimeHooks):
            def timer_sample(self, trace):
                ticks.append(trace.head if trace else None)

        program, _ = build_stream_program(n=256, reps=4)
        dyn = DynamoSim(program, FlatMemory(),
                        config=RuntimeConfig(hot_threshold=5,
                                             sample_period=200),
                        hooks=Sampler())
        stats = dyn.run()
        assert stats.timer_samples == len(ticks)
        assert len(ticks) > 10
        # Most samples land while the hot loop trace is current.
        assert ticks.count("loop") > len(ticks) // 2

    def test_no_sampling_by_default(self):
        program, _ = build_stream_program(n=64, reps=1)
        _, stats = run_dynamo(program, hot_threshold=5)
        assert stats.timer_samples == 0


class TestPrefetchMapExecution:
    def test_trace_prefetch_map_issues_prefetches(self):
        # A client that attaches a prefetch map when the loop trace is
        # created: every pass of it after that issues the prefetch, and
        # the map is set only while a pass runs.
        class Injector(RuntimeHooks):
            def trace_created(self, trace):
                if trace.head == "loop":
                    trace.prefetch_map = {
                        next(ins.pc for ins in trace.iter_instructions()
                             if ins.is_load()): 512}

        program, _ = build_stream_program(n=256, reps=4)
        memsys = FlatMemory()
        dyn = DynamoSim(program, memsys,
                        config=RuntimeConfig(hot_threshold=5),
                        hooks=Injector())
        stats = dyn.run()
        plain, plain_stats = run_dynamo(program, hot_threshold=5)
        loop = dyn.traces["loop"]
        assert loop.prefetch_map is not None
        assert memsys.sw_prefetches_issued == loop.entries > 100
        assert dyn.interp.context.prefetch_map is None
        assert vars(stats) == vars(plain_stats)
        assert dyn.state.regs == plain.state.regs
