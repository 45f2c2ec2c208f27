"""Tests for the high-level run harness."""

import pytest

from repro.memory import CacheConfig, MachineConfig
from repro.runners import (
    run_cachegrind, run_dynamo, run_native, run_umi,
)
from repro.core import UMIConfig

from helpers import build_chase_program, build_stream_program

MACHINE = MachineConfig(
    name="runner-test",
    l1=CacheConfig(size=256, assoc=2, line_size=64, hit_latency=1),
    l2=CacheConfig(size=2048, assoc=4, line_size=64, hit_latency=8),
    memory_latency=50,
)


@pytest.fixture(scope="module")
def program():
    prog, _ = build_stream_program(n=256, reps=4)
    return prog


class TestRunNative:
    def test_basic_outcome(self, program):
        out = run_native(program, MACHINE)
        assert out.mode == "native"
        assert out.cycles > 0 and out.steps > 0
        assert 0.0 <= out.hw_l2_miss_ratio <= 1.0
        assert out.cachegrind is None

    def test_with_cachegrind_observer(self, program):
        out = run_native(program, MACHINE, with_cachegrind=True)
        assert out.cachegrind is not None
        assert out.cachegrind.summary()["d1_refs"] > 0

    def test_counter_sampling_adds_cycles(self, program):
        plain = run_native(program, MACHINE)
        sampled = run_native(program, MACHINE, counter_sample_size=1)
        assert sampled.cycles > plain.cycles
        assert sampled.counter_interrupt_cycles == \
            sampled.cycles - plain.cycles

    def test_free_running_counter_is_free(self, program):
        plain = run_native(program, MACHINE)
        counted = run_native(program, MACHINE, counter_sample_size=0)
        assert counted.cycles == plain.cycles


class TestRunDynamo:
    def test_outcome_has_runtime_stats(self, program):
        out = run_dynamo(program, MACHINE)
        assert out.mode == "dynamo"
        assert out.runtime_stats is not None
        assert out.runtime_stats.traces_built >= 1


class TestRunUMI:
    def test_outcome_has_umi_result(self, program):
        out = run_umi(program, MACHINE,
                      umi_config=UMIConfig(use_sampling=False))
        assert out.mode == "umi"
        assert out.umi is not None
        assert out.umi.instrumentation.profiled_operations >= 1

    def test_umi_with_cachegrind_and_prediction(self):
        prog, _ = build_chase_program(n=128, reps=8)
        out = run_umi(
            prog, MACHINE,
            umi_config=UMIConfig(use_sampling=False, warmup_executions=0,
                                 flush_interval=None),
            with_cachegrind=True,
        )
        assert out.cachegrind is not None
        assert out.umi.predicted_delinquent
        # The prediction is consistent with full-simulation ground truth.
        from repro.fullsim import delinquent_set
        actual = delinquent_set(out.cachegrind.pc_load_misses())
        assert out.umi.predicted_delinquent & actual


class TestRunCachegrind:
    def test_standalone(self, program):
        sim = run_cachegrind(program, MACHINE)
        assert sim.summary()["d1_refs"] > 0

    def test_matches_piggyback(self, program):
        standalone = run_cachegrind(program, MACHINE)
        piggyback = run_native(program, MACHINE, with_cachegrind=True)
        assert standalone.summary() == piggyback.cachegrind.summary()


class TestCrossMode:
    def test_all_modes_agree_on_step_count(self, program):
        native = run_native(program, MACHINE)
        dynamo = run_dynamo(program, MACHINE)
        umi = run_umi(program, MACHINE,
                      umi_config=UMIConfig(use_sampling=False))
        assert native.steps == dynamo.steps == umi.steps

    def test_overhead_ordering(self, program):
        native = run_native(program, MACHINE)
        dynamo = run_dynamo(program, MACHINE)
        umi = run_umi(program, MACHINE,
                      umi_config=UMIConfig(use_sampling=False))
        assert native.cycles <= dynamo.cycles <= umi.cycles

    def test_hw_prefetch_reduces_stream_misses(self):
        prog, _ = build_stream_program(n=2048, reps=4)  # 16KB stream
        machine = MachineConfig(
            name="pf-test",
            l1=CacheConfig(size=256, assoc=2, line_size=64, hit_latency=1),
            l2=CacheConfig(size=2048, assoc=4, line_size=64, hit_latency=8),
            memory_latency=50,
            has_hw_prefetcher=True,
        )
        off = run_native(prog, machine, hw_prefetch=False)
        on = run_native(prog, machine, hw_prefetch=True)
        assert on.hw_counters["l2_misses"] < off.hw_counters["l2_misses"]
        assert on.cycles < off.cycles


class TestFinishedRunsAreFreed:
    """A finished run's interpreter and machine state hold no reference
    cycle, so reference counting frees them the moment the run returns
    (the cyclic GC is disabled here to prove it)."""

    @pytest.fixture
    def states(self, monkeypatch):
        import gc
        import weakref

        import repro.runners as runners_module
        import repro.vm.runtime as runtime_module
        from repro.vm import Interpreter

        refs = []

        class Recorded(Interpreter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append((weakref.ref(self), weakref.ref(self.state)))

        monkeypatch.setattr(runners_module, "Interpreter", Recorded)
        monkeypatch.setattr(runtime_module, "Interpreter", Recorded)
        gc.collect()
        gc.disable()
        try:
            yield refs
        finally:
            gc.enable()

    @pytest.mark.parametrize("run", [
        lambda p: run_native(p, MACHINE, with_cachegrind=True,
                             counter_sample_size=64),
        lambda p: run_dynamo(p, MACHINE),
        lambda p: run_umi(p, MACHINE, with_cachegrind=True,
                          consumers=("profile-recorder",)),
        lambda p: run_umi(p, MACHINE,
                          umi_config=UMIConfig(enable_sw_prefetch=True)),
    ], ids=["native", "dynamo", "umi", "umi-prefetch"])
    def test_state_dies_with_the_run(self, program, states, run):
        outcome = run(program)
        assert outcome.steps > 0
        assert len(states) == 1
        interp, state = states[0]
        assert interp() is None
        assert state() is None
