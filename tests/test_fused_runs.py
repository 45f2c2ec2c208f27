"""Differential tests for fused run execution.

A fused run executes a workload once, in any mode, and serves several
spec variants (counter sample sizes, Cachegrind piggyback, stream
consumers) from that single pass; a fused UMI run derives the
prefetch-enabled hardware column from a shadow consumer instead of a
third execution.  Every figure a fused run produces must be
bit-identical to the one-execution-per-spec path.
"""

import pytest

from repro.engine import RunSpec, execute_group_payloads, \
    execute_spec_payload, fusion_key, plan_groups
from repro.engine.fusion import EXECUTION_FIELDS
from repro.experiments import ResultCache
from repro.experiments import table4
from repro.memory import get_machine
from repro.runners import run_fused, run_native, run_umi
from repro.serialize import outcome_to_dict
from repro.workloads import get_workload

WORKLOADS = ["em3d", "mst", "health"]
SCALE = 0.05
MACHINE_SCALE = 16

VARIANTS = [
    {"counter_sample_size": None, "with_cachegrind": False,
     "consumers": ()},
    {"counter_sample_size": 100, "with_cachegrind": False,
     "consumers": ()},
    {"counter_sample_size": None, "with_cachegrind": True,
     "consumers": ("shadow-hwpf",)},
]


def build(name):
    return get_workload(name).build(SCALE)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fused_native_matches_separate_runs(workload):
    """One fused execution == N separate executions, per variant."""
    program = build(workload)
    machine = get_machine("pentium4", scale=MACHINE_SCALE)
    fused = run_fused(program, machine, "native", VARIANTS)
    assert len(fused) == len(VARIANTS)
    for variant, outcome in zip(VARIANTS, fused):
        legacy = run_native(program, machine, **variant)
        assert outcome_to_dict(outcome) == outcome_to_dict(legacy)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fused_umi_matches_legacy_prefetch_run(workload):
    """The shadow-hwpf column of a fused UMI run == a real third run."""
    machine = get_machine("pentium4", scale=MACHINE_SCALE)
    fused = run_umi(build(workload), machine, with_cachegrind=True,
                    consumers=("shadow-hwpf",))
    legacy_umi = run_umi(build(workload), machine, with_cachegrind=True)
    legacy_pf = run_native(build(workload), machine, hw_prefetch=True)

    # UMI analysis and Cachegrind accounting are untouched by the
    # rider consumer.
    assert fused.umi.predicted_delinquent \
        == legacy_umi.umi.predicted_delinquent
    assert fused.umi.simulated_miss_ratio \
        == legacy_umi.umi.simulated_miss_ratio
    assert fused.cachegrind.pc_load_misses() \
        == legacy_umi.cachegrind.pc_load_misses()
    assert fused.hw_counters == legacy_umi.hw_counters
    # The derived column reproduces the dedicated prefetch-enabled run.
    assert fused.derived["shadow-hwpf"]["l2_miss_ratio"] \
        == pytest.approx(legacy_pf.hw_l2_miss_ratio, abs=1e-9)


class TestFusionPlanning:
    def spec(self, **kwargs):
        return RunSpec.native("em3d", SCALE, "pentium4", MACHINE_SCALE,
                              **kwargs)

    def test_native_variants_share_a_key(self):
        a = self.spec()
        b = self.spec(counter_sample_size=100)
        c = self.spec(with_cachegrind=True, consumers=("shadow-hwpf",))
        assert fusion_key(a) == fusion_key(b) == fusion_key(c)

    def test_prefetch_and_machine_split_keys(self):
        assert fusion_key(self.spec()) \
            != fusion_key(self.spec(hw_prefetch=True))
        other = RunSpec.native("mst", SCALE, "pentium4", MACHINE_SCALE)
        assert fusion_key(self.spec()) != fusion_key(other)

    def test_observer_only_umi_and_dynamo_variants_share_a_key(self):
        for make in (RunSpec.umi, RunSpec.dynamo):
            base = make("em3d", SCALE, "pentium4", MACHINE_SCALE)
            observed = make("em3d", SCALE, "pentium4", MACHINE_SCALE,
                            **self._spelled(base.mode, {
                                "with_cachegrind": True,
                                "consumers": ("shadow-hwpf",)}))
            assert fusion_key(base) == fusion_key(observed)
            assert plan_groups([base, observed]) == [[base, observed]]

    #: One changed value per execution field of a umi spec.
    SPLITS = [
        {"mode": "dynamo"},
        {"sampling": False},
        {"sw_prefetch": True},
        {"hw_prefetch": True},
        {"umi_overrides": (("frequency_threshold", 32),)},
        {"machine": "xeon"},
        {"machine_scale": 8},
        {"scale": 0.1},
        {"workload": "mst"},
    ]

    def test_splits_cover_every_execution_field(self):
        covered = {name for change in self.SPLITS for name in change}
        assert covered == set(EXECUTION_FIELDS)

    @pytest.mark.parametrize("change", SPLITS,
                             ids=lambda change: next(iter(change)))
    def test_each_execution_field_splits_the_key(self, change):
        fields = dict(workload="em3d", scale=SCALE, machine="pentium4",
                      machine_scale=MACHINE_SCALE, mode="umi")
        base = RunSpec(**fields)
        other = RunSpec(**{**fields, **change})
        assert fusion_key(base) != fusion_key(other)
        assert plan_groups([base, other]) == [[base], [other]]

    def test_plan_groups_preserves_order(self):
        a, b = self.spec(), self.spec(counter_sample_size=100)
        other = RunSpec.native("mst", SCALE, "pentium4", MACHINE_SCALE)
        assert plan_groups([a, other, b]) == [[a, b], [other]]

    def test_group_payloads_match_singleton_payloads(self):
        group = [self.spec(), self.spec(counter_sample_size=100)]
        fused = execute_group_payloads(group)
        singles = [execute_spec_payload(s) for s in group]
        assert fused == singles


    #: The observer shapes the sweeps fuse in umi and dynamo groups.
    OBSERVER_SHAPES = {
        "cg+cg-shadow": [
            {"with_cachegrind": True},
            {"with_cachegrind": True, "consumers": ("shadow-hwpf",)},
        ],
        "bare+cg+cg-shadow": [
            {},
            {"with_cachegrind": True},
            {"with_cachegrind": True, "consumers": ("shadow-hwpf",)},
        ],
        "bare+cg-shadow": [
            {},
            {"with_cachegrind": True, "consumers": ("shadow-hwpf",)},
        ],
    }

    @staticmethod
    def _spelled(mode, observers):
        """``observers`` as ``mode`` takes them: a dynamo run has no
        Cachegrind rider (its spec rejects one), so there the tlb
        consumer stands in for it."""
        if mode != "dynamo" or not observers.get("with_cachegrind"):
            return observers
        rest = {k: v for k, v in observers.items()
                if k != "with_cachegrind"}
        rest["consumers"] = tuple(rest.get("consumers", ())) + ("tlb",)
        return rest

    @pytest.mark.parametrize("mode", ["umi", "dynamo"])
    @pytest.mark.parametrize("shape", sorted(OBSERVER_SHAPES))
    def test_fused_group_payloads_match_singletons(self, mode, shape):
        group = [RunSpec("em3d", SCALE, "pentium4", MACHINE_SCALE, mode,
                         **self._spelled(mode, observers))
                 for observers in self.OBSERVER_SHAPES[shape]]
        assert plan_groups(group) == [group]
        fused = execute_group_payloads(group)
        singles = [execute_spec_payload(s) for s in group]
        assert fused == singles

    def test_member_gets_only_its_own_observers(self):
        bare = RunSpec.umi("em3d", SCALE, "pentium4", MACHINE_SCALE)
        observed = RunSpec.umi("em3d", SCALE, "pentium4", MACHINE_SCALE,
                               with_cachegrind=True,
                               consumers=("shadow-hwpf",))
        first, second = execute_group_payloads([bare, observed])
        assert "cachegrind" not in first and "derived" not in first
        assert "cachegrind" in second
        assert set(second["derived"]) == {"shadow-hwpf"}

class TestTable4Fusion:
    def test_each_workload_executes_twice(self):
        """The acceptance criterion: Table 4 runs every workload
        strictly fewer times than the three modes it reports."""
        cache = ResultCache(SCALE)
        specs = table4.required_runs(cache)
        names = {s.workload for s in specs}
        cache.prefill(specs)
        assert cache.engine.runs_executed == 2 * len(names)

    def test_prefetch_column_matches_dedicated_run(self):
        cache = ResultCache(SCALE)
        groups = ("OLDEN",)
        rows = {m.name: m for m in table4.measure(scale=SCALE,
                                                  cache=cache,
                                                  groups=groups)}
        machine = get_machine("pentium4", scale=MACHINE_SCALE)
        for name in WORKLOADS:
            legacy = run_native(build(name), machine, hw_prefetch=True)
            assert rows[name].hw_p4_pf \
                == pytest.approx(legacy.hw_l2_miss_ratio, abs=1e-9)
