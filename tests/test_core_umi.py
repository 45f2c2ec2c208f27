"""End-to-end tests for the UMI runtime on micro-programs."""

import pytest

import repro.core.umi as umi_module
from repro.core import UMIConfig, UMIRuntime
from repro.memory import CacheConfig, MachineConfig
from repro.vm import Interpreter, RuntimeConfig
from repro.memory import MemoryHierarchy

from helpers import build_chase_program, build_stream_program

MACHINE = MachineConfig(
    name="umi-test",
    l1=CacheConfig(size=256, assoc=2, line_size=64, hit_latency=1),
    l2=CacheConfig(size=2048, assoc=4, line_size=64, hit_latency=8),
    memory_latency=50,
)


def run_umi(program, **config_kwargs):
    config_kwargs.setdefault("sample_period", 300)
    umi = UMIRuntime(program, MACHINE, UMIConfig(**config_kwargs),
                     runtime_config=RuntimeConfig(hot_threshold=8))
    return umi, umi.run()


class TestExecutionTransparency:
    def test_umi_preserves_program_semantics(self):
        from repro.isa import EDX
        program, _ = build_stream_program(n=128, reps=3)
        native = Interpreter(program, MemoryHierarchy(MACHINE))
        native.run_native()
        umi, result = run_umi(program)
        assert umi.state.regs[EDX] == native.state.regs[EDX]
        assert umi.state.steps == native.state.steps

    def test_umi_overhead_is_bounded(self):
        program, _ = build_stream_program(n=256, reps=6)
        native = Interpreter(program, MemoryHierarchy(MACHINE))
        native.run_native()
        _, result = run_umi(program)
        assert 1.0 < result.cycles / native.state.cycles < 2.0


class TestProfileCollection:
    def test_profiles_and_invocations_counted(self):
        program, _ = build_stream_program(n=256, reps=8)
        umi, result = run_umi(program, address_profile_entries=64)
        assert result.umi_stats.profiles_collected >= 1
        assert result.umi_stats.analyzer_invocations >= 1
        assert result.instrumentation.profiled_operations >= 1

    def test_no_sampling_instruments_at_creation(self):
        program, _ = build_stream_program(n=256, reps=4)
        umi, result = run_umi(program, use_sampling=False)
        assert result.instrumentation.traces_instrumented >= 1
        assert result.runtime_stats.timer_samples == 0

    def test_sampling_requires_saturation(self):
        program, _ = build_stream_program(n=256, reps=4)
        # With a huge threshold nothing is ever instrumented.
        umi, result = run_umi(program, use_sampling=True,
                              frequency_threshold=10**6)
        assert result.instrumentation.traces_instrumented == 0
        assert result.simulated_miss_ratio == 0.0

    def test_sampling_instruments_hot_trace(self):
        program, _ = build_stream_program(n=512, reps=16)
        umi, result = run_umi(program, use_sampling=True,
                              frequency_threshold=4)
        assert result.instrumentation.traces_instrumented >= 1
        assert result.umi_stats.profiles_collected >= 1

    def test_traces_swap_back_to_clone_after_analysis(self):
        program, _ = build_stream_program(n=256, reps=8)
        umi, result = run_umi(program, use_sampling=False,
                              address_profile_entries=32)
        # After the run every analyzed trace is back on its clone.
        assert all(not t.instrumented for t in umi.dynamo.traces.values()
                   if t.head not in umi.profiles)

    def test_address_profile_trigger_counted(self):
        program, _ = build_stream_program(n=256, reps=8)
        umi, result = run_umi(program, use_sampling=False,
                              address_profile_entries=16)
        assert result.umi_stats.address_profile_triggers >= 1

    def test_trace_buffer_trigger(self):
        program, _ = build_stream_program(n=256, reps=8)
        umi, result = run_umi(program, use_sampling=False,
                              trace_profile_entries=50)
        assert result.umi_stats.trace_buffer_triggers >= 1


class TestMiniSimResults:
    def test_chase_yields_high_simulated_miss_ratio(self):
        program, _ = build_chase_program(n=128, reps=8, node_bytes=64)
        umi, result = run_umi(program, use_sampling=False,
                              warmup_executions=0, flush_interval=None)
        # 128 nodes x 64B = 8KB arena > 2KB mini cache: mostly misses.
        assert result.simulated_miss_ratio > 0.5

    def test_resident_stream_yields_low_ratio(self):
        program, _ = build_stream_program(n=16, reps=64)  # 128B array
        umi, result = run_umi(program, use_sampling=False,
                              warmup_executions=2, flush_interval=None)
        assert result.simulated_miss_ratio < 0.2

    def test_delinquent_chase_load_predicted(self):
        program, _ = build_chase_program(n=128, reps=16, node_bytes=64)
        umi, result = run_umi(program, use_sampling=False,
                              warmup_executions=0, flush_interval=None,
                              address_profile_entries=64)
        chase_pc = next(ins.pc for ins in program.iter_instructions()
                        if ins.is_load())
        assert chase_pc in result.predicted_delinquent

    def test_hardware_side_collected(self):
        program, _ = build_stream_program(n=256, reps=4)
        _, result = run_umi(program)
        assert result.hardware_counters["l2_refs"] > 0
        assert 0.0 <= result.hardware_l2_miss_ratio <= 1.0


class TestOnlinePrefetching:
    def test_sw_prefetch_injected_and_effective(self):
        # A fixed low threshold stands in for the adaptive decay that a
        # longer sampled run would produce.
        kwargs = dict(use_sampling=False, warmup_executions=0,
                      flush_interval=None, adaptive_threshold=False,
                      initial_delinquency_threshold=0.10)
        program, _ = build_stream_program(n=1024, reps=12)
        base_umi, base = run_umi(program, **kwargs)
        pf_umi, pf = run_umi(program, enable_sw_prefetch=True, **kwargs)
        assert pf.prefetch_stats is not None
        assert pf.prefetch_stats.count >= 1
        assert pf.hardware_counters["sw_prefetches"] > 0
        # Prefetching reduces demand L2 misses on the streaming loop.
        assert (pf.hardware_counters["l2_misses"]
                < base.hardware_counters["l2_misses"])

    def test_prefetch_disabled_by_default(self):
        program, _ = build_stream_program(n=256, reps=4)
        _, result = run_umi(program, use_sampling=False)
        assert result.prefetch_stats is None
        assert result.hardware_counters["sw_prefetches"] == 0


class TestProfilingRow:
    def test_table3_row_fields(self):
        program, _ = build_stream_program(n=256, reps=6)
        _, result = run_umi(program, use_sampling=False)
        row = result.profiling_row(program.static_loads(),
                                   program.static_stores())
        assert row["static_loads"] == 1
        assert row["profiled_operations"] >= 1
        assert 0.0 < row["pct_profiled"] <= 100.0
        assert row["profiles_collected"] >= 1


class TestEventDrivenSampling:
    """The paper's second region-selection strategy (Section 2)."""

    def test_event_mode_instruments_hot_traces(self):
        program, _ = build_stream_program(n=256, reps=16)
        umi, result = run_umi(program, use_sampling=True,
                              sampling_mode="event",
                              event_sample_period=16,
                              frequency_threshold=8)
        assert result.instrumentation.traces_instrumented >= 1
        # No timer is armed in event mode.
        assert result.runtime_stats.timer_samples == 0

    def test_event_mode_threshold_gates_cold_traces(self):
        program, _ = build_stream_program(n=32, reps=4)  # 128 entries
        umi, result = run_umi(program, use_sampling=True,
                              sampling_mode="event",
                              event_sample_period=64,
                              frequency_threshold=50)
        # 128 entries / 64 = 2 samples << threshold: never instrumented.
        assert result.instrumentation.traces_instrumented == 0

    def test_event_and_timer_modes_find_same_hot_trace(self):
        program, _ = build_chase_program(n=128, reps=16)
        _, timer = run_umi(program, use_sampling=True,
                           sampling_mode="timer", frequency_threshold=8)
        _, event = run_umi(program, use_sampling=True,
                           sampling_mode="event",
                           event_sample_period=32,
                           frequency_threshold=8)
        assert timer.instrumentation.profiled_pcs & \
            event.instrumentation.profiled_pcs

    def test_event_mode_selects_what_every_pass_hooking_did(self):
        """Event mode hooks every trace, so its selection is unchanged:
        the values are pinned from the runtime that called the entry
        hook on every pass of every trace."""
        program, _ = build_chase_program(n=128, reps=16)
        _, result = run_umi(program, use_sampling=True,
                            sampling_mode="event", event_sample_period=16,
                            frequency_threshold=4)
        assert result.instrumentation.profiled_pcs == {4194320}
        assert result.instrumentation.traces_instrumented == 7
        assert result.instrumentation.clone_swaps == 7
        assert result.umi_stats.address_profile_triggers == 6
        assert result.umi_stats.exit_drains == 1
        assert result.predicted_delinquent == {4194320}
        assert result.cycles == 155978
        assert result.runtime_stats.trace_entries == 2056

    def test_invalid_mode_rejected(self):
        import pytest as _pytest
        from repro.core import UMIConfig
        with _pytest.raises(ValueError):
            UMIConfig(sampling_mode="magic")
        with _pytest.raises(ValueError):
            UMIConfig(event_sample_period=0)


class TestHookedTraces:
    """DynamoSim calls the entry/exit hooks only for hooked traces: the
    instrumented ones, and every trace under event-driven selection."""

    @pytest.fixture
    def entries(self, monkeypatch):
        calls = {"instrumented": 0, "clean": 0}
        original = umi_module._UMIHooks.trace_entered

        def counting(hooks, trace):
            calls["instrumented" if trace.instrumented else "clean"] += 1
            original(hooks, trace)

        monkeypatch.setattr(umi_module._UMIHooks, "trace_entered",
                            counting)
        return calls

    def test_no_sampling_hooks_only_instrumented_passes(self, entries):
        program, _ = build_stream_program(n=256, reps=16)
        _, result = run_umi(program)
        assert entries["clean"] == 0
        assert 0 < entries["instrumented"] \
            < result.runtime_stats.trace_entries

    def test_timer_sampling_hooks_only_instrumented_passes(self, entries):
        program, _ = build_chase_program(n=128, reps=16)
        _, result = run_umi(program, use_sampling=True,
                            frequency_threshold=8)
        assert result.instrumentation.traces_instrumented >= 1
        assert entries["clean"] == 0
        assert 0 < entries["instrumented"] \
            < result.runtime_stats.trace_entries

    def test_event_sampling_hooks_every_pass(self, entries):
        program, _ = build_stream_program(n=256, reps=16)
        _, result = run_umi(program, use_sampling=True,
                            sampling_mode="event", event_sample_period=16,
                            frequency_threshold=8)
        assert entries["clean"] > 0
        assert (entries["clean"] + entries["instrumented"]
                == result.runtime_stats.trace_entries)
