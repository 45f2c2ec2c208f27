"""Satellite S1: one source of truth for the dynamic step limit.

``repro.vm.interpreter.DEFAULT_MAX_STEPS`` is the single default; the
runtime config and every runner entry point must inherit it rather than
restating their own numbers, and every execution mode must enforce it.
"""

import pytest

import repro.runners as runners
from repro.core import UMIConfig
from repro.vm import (
    DEFAULT_MAX_STEPS, ExecutionLimitExceeded, RuntimeConfig,
)
from repro.vm.interpreter import DEFAULT_MAX_STEPS as INTERP_DEFAULT

from helpers import build_stream_program

from repro.memory import CacheConfig, MachineConfig

MACHINE = MachineConfig(
    name="limit-test",
    l1=CacheConfig(size=256, assoc=2, line_size=64, hit_latency=1),
    l2=CacheConfig(size=2048, assoc=4, line_size=64, hit_latency=8),
    memory_latency=50,
)


class TestSingleSourceOfTruth:
    def test_one_constant_everywhere(self):
        assert DEFAULT_MAX_STEPS is INTERP_DEFAULT
        assert runners.DEFAULT_MAX_STEPS is INTERP_DEFAULT
        assert RuntimeConfig().max_steps == INTERP_DEFAULT
        assert DEFAULT_MAX_STEPS == 500_000_000

    def test_runner_signatures_inherit_the_default(self):
        import inspect

        for fn in (runners.run_native, runners.run_fused,
                   runners.run_cachegrind):
            sig = inspect.signature(fn)
            assert sig.parameters["max_steps"].default \
                is INTERP_DEFAULT, fn.__name__


class TestEveryModeEnforcesTheLimit:
    def program(self):
        program, _ = build_stream_program(n=256, reps=1000)
        return program

    def test_native_mode(self):
        with pytest.raises(ExecutionLimitExceeded):
            runners.run_native(self.program(), MACHINE, max_steps=500)

    def test_fused_native_mode(self):
        with pytest.raises(ExecutionLimitExceeded):
            runners.run_fused(
                self.program(), MACHINE, "native",
                [{"counter_sample_size": None}], max_steps=500)

    @pytest.mark.parametrize("mode", ["dynamo", "umi"])
    def test_fused_group_in_every_mode(self, mode):
        variants = [{}, {"with_cachegrind": True,
                         "consumers": ("shadow-hwpf",)}]
        with pytest.raises(ExecutionLimitExceeded):
            runners.run_fused(
                self.program(), MACHINE, mode, variants,
                runtime_config=RuntimeConfig(max_steps=500))
        with pytest.raises(ExecutionLimitExceeded):
            runners.run_fused(self.program(), MACHINE, mode, variants,
                              max_steps=500)

    def test_cachegrind_mode(self):
        with pytest.raises(ExecutionLimitExceeded):
            runners.run_cachegrind(self.program(), MACHINE, max_steps=500)

    def test_dynamo_mode(self):
        with pytest.raises(ExecutionLimitExceeded):
            runners.run_dynamo(
                self.program(), MACHINE,
                runtime_config=RuntimeConfig(max_steps=500))

    def test_umi_mode(self):
        with pytest.raises(ExecutionLimitExceeded):
            runners.run_umi(
                self.program(), MACHINE, umi_config=UMIConfig(),
                runtime_config=RuntimeConfig(max_steps=500))
