"""Differential tests for fused run execution.

A fused run executes a workload once, in any mode, and serves several
spec variants (counter sample sizes, Cachegrind piggyback, stream
consumers) from that single pass; a fused UMI run derives the
prefetch-enabled hardware column from a shadow consumer instead of a
third execution.  Every figure a fused run produces must be
bit-identical to the one-execution-per-spec path.
"""

import gc
import hashlib
import json
import weakref

import pytest

import repro.runners as runners
from repro.core import UMIConfig, UMIRuntime
from repro.core.config import ANALYSIS_FIELDS
from repro.engine import RunSpec, attempt, cached_program, \
    execute_group_payloads, execute_spec_payload, fusion_key, plan_groups
from repro.engine.fusion import EXECUTION_FIELDS
from repro.isa import Instruction, MemOperand
from repro.experiments import ResultCache
from repro.experiments import table4
from repro.memory import CacheConfig, get_machine
from repro.runners import run_cachegrind, run_fused, run_native, run_umi
from repro.serialize import (
    _cachegrind_to_dict, outcome_to_dict, umi_result_to_dict,
)
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

    def test_analysis_only_overrides_share_a_key(self):
        base = RunSpec.umi("em3d", SCALE, "pentium4", MACHINE_SCALE,
                           umi_overrides=(("frequency_threshold", 32),))
        variants = [
            RunSpec.umi("em3d", SCALE, "pentium4", MACHINE_SCALE,
                        with_cachegrind=True,
                        umi_overrides=(("frequency_threshold", 32),
                                       *overrides))
            for overrides in ANALYSIS_OVERRIDES]
        assert {fusion_key(spec) for spec in variants} == {fusion_key(base)}
        assert plan_groups([base, *variants]) == [[base, *variants]]

    def test_analysis_only_overrides_split_under_sw_prefetch(self):
        # The predictor's labels drive the optimizer, so they shape
        # the run.
        specs = [RunSpec.umi("em3d", SCALE, "pentium4", MACHINE_SCALE,
                             sw_prefetch=True, umi_overrides=overrides)
                 for overrides in ((), *ANALYSIS_OVERRIDES)]
        assert len({fusion_key(spec) for spec in specs}) == len(specs)
        assert plan_groups(specs) == [[spec] for spec in specs]

    @pytest.mark.parametrize("override", [("frequency_threshold", 32),
                                          ("address_profile_entries", 64)])
    def test_execution_overrides_still_split(self, override):
        base = RunSpec.umi("em3d", SCALE, "pentium4", MACHINE_SCALE)
        other = RunSpec.umi("em3d", SCALE, "pentium4", MACHINE_SCALE,
                            umi_overrides=(override,))
        assert fusion_key(base) != fusion_key(other)

    def test_plan_groups_preserves_order(self):
        a, b = self.spec(), self.spec(counter_sample_size=100)
        other = RunSpec.native("mst", SCALE, "pentium4", MACHINE_SCALE)
        assert plan_groups([a, other, b]) == [[a, b], [other]]

    def test_plan_groups_is_program_major(self):
        # Every group of one program (workload and scale) is adjacent:
        # programs keep first-appearance order, groups theirs within a
        # program, members theirs within a group.
        em3d, em3d_counted = self.spec(), self.spec(counter_sample_size=100)
        em3d_umi = RunSpec.umi("em3d", SCALE, "pentium4", MACHINE_SCALE)
        em3d_longer = RunSpec.native("em3d", 2 * SCALE, "pentium4",
                                     MACHINE_SCALE)
        mst = RunSpec.native("mst", SCALE, "pentium4", MACHINE_SCALE)
        mst_umi = RunSpec.umi("mst", SCALE, "pentium4", MACHINE_SCALE)
        specs = [em3d, mst, em3d_longer, em3d_umi, mst_umi, em3d_counted]
        assert plan_groups(specs) == [
            [em3d, em3d_counted], [em3d_umi], [mst], [mst_umi],
            [em3d_longer]]

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


#: A non-default value for every analysis-only UMIConfig field.
ANALYSIS_VALUES = {
    "mini_cache": CacheConfig(size=8192, assoc=2, line_size=64),
    "warmup_executions": 0,
    "shared_cache": False,
    "flush_interval": None,
    "adaptive_threshold": False,
    "initial_delinquency_threshold": 0.5,
    "threshold_step": 0.3,
    "min_delinquency_threshold": 0.4,
    "min_op_refs": 1,
}

#: The analysis-only overrides a spec can carry (scalars only), one
#: spec's worth each; the sensitivity ablations use such sets.
ANALYSIS_OVERRIDES = (
    (("warmup_executions", 0),),
    (("shared_cache", False),),
    (("flush_interval", None),),
    (("adaptive_threshold", False),
     ("initial_delinquency_threshold", 0.1)),
    (("min_delinquency_threshold", 0.4), ("min_op_refs", 1),
     ("threshold_step", 0.3)),
)

#: ``(workload, execution config)`` runs that collect profiles at the
#: test scale: timer sampling, no sampling and event-mode sampling.
ANALYSIS_RUNS = {
    "181.mcf-timer": ("181.mcf", {"use_sampling": True}),
    "197.parser-unsampled": ("197.parser", {"use_sampling": False}),
    "179.art-timer": ("179.art", {"use_sampling": True}),
    "179.art-unsampled": ("179.art", {"use_sampling": False}),
    "181.mcf-event": ("181.mcf", {"use_sampling": True,
                                  "sampling_mode": "event",
                                  "event_sample_period": 8,
                                  "frequency_threshold": 8}),
}


def execution_view(outcome):
    """Everything an execution decides, none of what its analyzer
    labels: cycles, steps, runtime, hardware, instrumentation and UMI
    statistics."""
    result = outcome.umi
    return (outcome.cycles, outcome.steps, outcome.hw_counters,
            result.runtime_stats, result.hardware_counters,
            result.instrumentation, result.umi_stats)


def result_json(result):
    return json.dumps(umi_result_to_dict(result), sort_keys=True)


class TestAnalysisFields:
    """The analysis-only allowlist: those fields never change the run,
    so runs differing only there share one execution."""

    def test_values_cover_the_allowlist(self):
        assert set(ANALYSIS_VALUES) == set(ANALYSIS_FIELDS)
        defaults = UMIConfig()
        for name, value in ANALYSIS_VALUES.items():
            assert getattr(defaults, name) != value

    @pytest.mark.parametrize("run", sorted(ANALYSIS_RUNS))
    def test_analysis_fields_do_not_change_the_execution(self, run):
        workload, execution = ANALYSIS_RUNS[run]
        program = get_workload(workload).build(SCALE)
        machine = get_machine("pentium4", scale=MACHINE_SCALE)
        default = run_umi(program, machine,
                          umi_config=UMIConfig(**execution))
        assert default.umi.umi_stats.profiles_collected > 0
        for name, value in ANALYSIS_VALUES.items():
            changed = run_umi(program, machine, umi_config=UMIConfig(
                **execution, **{name: value}))
            assert execution_view(changed) == execution_view(default), name

    @pytest.mark.parametrize("workload", ["181.mcf", "179.art"])
    @pytest.mark.parametrize("override", [("frequency_threshold", 32),
                                          ("address_profile_entries", 64)])
    def test_execution_fields_change_cycles(self, workload, override):
        program = get_workload(workload).build(SCALE)
        machine = get_machine("pentium4", scale=MACHINE_SCALE)
        default = run_umi(program, machine,
                          umi_config=UMIConfig(use_sampling=True))
        changed = run_umi(program, machine, umi_config=UMIConfig(
            use_sampling=True, **dict([override])))
        assert changed.cycles != default.cycles

    @pytest.mark.parametrize("run", sorted(ANALYSIS_RUNS))
    def test_each_lane_matches_its_own_run(self, run):
        workload, execution = ANALYSIS_RUNS[run]
        program = get_workload(workload).build(SCALE)
        machine = get_machine("pentium4", scale=MACHINE_SCALE)
        configs = [UMIConfig(**execution)] + [
            UMIConfig(**execution, **{name: value})
            for name, value in ANALYSIS_VALUES.items()]
        umi = UMIRuntime(program, machine, configs[0],
                         analysis_configs=configs)
        for config, result in zip(configs, umi.run_lanes()):
            alone = UMIRuntime(program, machine, config).run()
            assert result_json(result) == result_json(alone)

    def test_lanes_share_a_mini_simulator_when_its_settings_agree(self):
        program = build("em3d")
        machine = get_machine("pentium4", scale=MACHINE_SCALE)
        configs = [UMIConfig(), UMIConfig(adaptive_threshold=False),
                   UMIConfig(min_op_refs=1), UMIConfig(warmup_executions=0)]
        umi = UMIRuntime(program, machine, configs[0],
                         analysis_configs=configs)
        sims = [lane.mini_sim for lane in umi._lane_of]
        assert sims[0] is sims[1] is sims[2] is umi.mini_sim
        assert sims[3] is not sims[0]

    def test_lanes_refuse_execution_differences(self):
        program = build("em3d")
        machine = get_machine("pentium4", scale=MACHINE_SCALE)
        with pytest.raises(ValueError, match="analysis fields"):
            UMIRuntime(program, machine, UMIConfig(), analysis_configs=[
                UMIConfig(), UMIConfig(frequency_threshold=32)])
        swpf = UMIConfig(enable_sw_prefetch=True)
        with pytest.raises(ValueError, match="software prefetching"):
            UMIRuntime(program, machine, swpf, analysis_configs=[
                swpf, UMIConfig(enable_sw_prefetch=True,
                                warmup_executions=0)])

    @pytest.mark.parametrize("workload", ["181.mcf", "197.parser"])
    def test_fused_group_payloads_match_singletons(self, workload):
        # The sensitivity battery's shape: each member asks for a
        # Cachegrind rider, under its own analysis-only overrides.
        group = [RunSpec.umi(workload, SCALE, "pentium4", MACHINE_SCALE,
                             sampling=workload != "197.parser",
                             with_cachegrind=True,
                             umi_overrides=overrides)
                 for overrides in ((), *ANALYSIS_OVERRIDES)]
        assert plan_groups(group) == [group]
        fused = execute_group_payloads(group)
        singles = [execute_spec_payload(spec) for spec in group]
        assert [json.dumps(p, sort_keys=True) for p in fused] \
            == [json.dumps(p, sort_keys=True) for p in singles]
        # The members really were analysed differently.
        assert len({json.dumps(p["umi"], sort_keys=True)
                    for p in fused}) > 1


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


def program_fingerprint(program):
    """Hashes of a program's data image and of every block's
    instructions (every slot, memory operands field by field)."""
    def value(field):
        if isinstance(field, MemOperand):
            return tuple(getattr(field, name)
                         for name in MemOperand.__slots__)
        return field

    image = sorted(program.data.image.items())
    blocks = [(label, block.base_pc,
               [[value(getattr(ins, name)) for name in Instruction.__slots__]
                for ins in block.instructions])
              for label, block in program.blocks.items()]
    return (hashlib.sha256(repr(image).encode()).hexdigest(),
            hashlib.sha256(repr(blocks).encode()).hexdigest())


class TestProgramReuse:
    """One cached program serves runs of every mode, unchanged."""

    NATIVE = RunSpec.native("em3d", SCALE, "pentium4", MACHINE_SCALE)
    UMI = RunSpec.umi("em3d", SCALE, "pentium4", MACHINE_SCALE,
                      sw_prefetch=True)

    @staticmethod
    def payload_bytes(spec):
        return json.dumps(execute_spec_payload(spec), sort_keys=True)

    def fresh_payload_bytes(self, spec, monkeypatch):
        monkeypatch.setattr(attempt, "_last_program", None)
        return self.payload_bytes(spec)

    def test_cached_program_runs_like_a_fresh_build(self, monkeypatch):
        expected = [self.fresh_payload_bytes(spec, monkeypatch)
                    for spec in (self.NATIVE, self.UMI)]
        monkeypatch.setattr(attempt, "_last_program", None)
        program = cached_program("em3d", SCALE)
        before = program_fingerprint(program)
        assert before == program_fingerprint(build("em3d"))
        # Native, then UMI with software prefetch, on the same object.
        assert [self.payload_bytes(self.NATIVE),
                self.payload_bytes(self.UMI)] == expected
        assert cached_program("em3d", SCALE) is program
        assert program_fingerprint(program) == before

    def test_one_entry_drops_the_previous_program(self, monkeypatch):
        monkeypatch.setattr(attempt, "_last_program", None)
        first = cached_program("em3d", SCALE)
        assert cached_program("em3d", SCALE) is first
        assert cached_program("em3d", 2 * SCALE) is not first
        assert cached_program("mst", SCALE) is not first
        assert cached_program("em3d", SCALE) is not first


#: Fused runs whose Cachegrind rider must equal the offline simulation:
#: ``(mode, hw_prefetch, options, consumers)``.
RIDER_RUNS = {
    "native": ("native", False, {}, ()),
    "native-hwpf": ("native", True, {}, ()),
    "umi": ("umi", False, {"umi_config": UMIConfig()}, ()),
    "umi-nosampling-hwpf-swpf": (
        "umi", True,
        {"umi_config": UMIConfig(use_sampling=False,
                                 enable_sw_prefetch=True)}, ()),
    "umi-shadow-hwpf": ("umi", False, {"umi_config": UMIConfig()},
                        ("shadow-hwpf",)),
}


@pytest.mark.parametrize("machine_name", ["pentium4", "athlon-k7"])
@pytest.mark.parametrize("workload", ["181.mcf", "gen:thrash:pentium4:s0"])
def test_cachegrind_rider_is_the_offline_simulation(workload, machine_name):
    """The invariant the rider reuse rests on: whatever the mode, the
    prefetchers or the consumers, the rider of a run equals the offline
    Cachegrind simulation on flat memory with no timing."""
    program = build(workload)
    machine = get_machine(machine_name, scale=MACHINE_SCALE)
    offline = _cachegrind_to_dict(run_cachegrind(program, machine))
    assert offline["summary"]["d1_refs"] > 0
    for name, (mode, hw_prefetch, options, consumers) in \
            RIDER_RUNS.items():
        outcome, = run_fused(program, machine, mode,
                             [{"with_cachegrind": True,
                               "consumers": consumers}],
                             hw_prefetch=hw_prefetch, **options)
        assert _cachegrind_to_dict(outcome.cachegrind) == offline, name


class TestCachegrindReuse:
    """A finished rider serves every later group of its program and
    cache geometry, and goes when the program goes."""

    UMI = RunSpec.umi("181.mcf", SCALE, "pentium4", MACHINE_SCALE,
                      with_cachegrind=True)
    NATIVE = RunSpec.native("181.mcf", SCALE, "pentium4", MACHINE_SCALE,
                            with_cachegrind=True, hw_prefetch=True)

    @pytest.fixture
    def built(self, monkeypatch):
        """Every rider run_fused builds, in order, from an empty cache."""
        riders = []

        class Counting(runners.CachegrindSimulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                riders.append(self)

        monkeypatch.setattr(runners, "CachegrindSimulator", Counting)
        monkeypatch.setattr(attempt, "_last_program", None)
        return riders

    @staticmethod
    def payload_bytes(spec):
        return json.dumps(execute_spec_payload(spec), sort_keys=True)

    def test_second_group_reuses_the_rider(self, built, monkeypatch):
        expected = []
        for spec in (self.UMI, self.NATIVE):
            monkeypatch.setattr(attempt, "_last_program", None)
            expected.append(self.payload_bytes(spec))
        assert len(built) == 2
        monkeypatch.setattr(attempt, "_last_program", None)
        del built[:]
        # A UMI group, then a native group with the hardware prefetcher:
        # different executions, one program and one cache geometry.
        assert [self.payload_bytes(self.UMI),
                self.payload_bytes(self.NATIVE)] == expected
        assert len(built) == 1
        # A fused group hands the kept rider to every member asking.
        plain = RunSpec.native("181.mcf", SCALE, "pentium4", MACHINE_SCALE)
        outcomes = attempt.execute_group([plain, self.NATIVE])
        assert len(built) == 1
        assert outcomes[0].cachegrind is None
        assert outcomes[1].cachegrind is built[0]

    @pytest.mark.parametrize("other", [
        RunSpec.umi("181.mcf", SCALE, "pentium4", MACHINE_SCALE // 2,
                    with_cachegrind=True),
        RunSpec.umi("181.mcf", SCALE, "athlon-k7", MACHINE_SCALE,
                    with_cachegrind=True),
        RunSpec.umi("mst", SCALE, "pentium4", MACHINE_SCALE,
                    with_cachegrind=True),
        RunSpec.umi("181.mcf", 2 * SCALE, "pentium4", MACHINE_SCALE,
                    with_cachegrind=True),
    ], ids=["l1-l2", "machine", "program", "scale"])
    def test_other_geometry_or_program_misses(self, built, other):
        execute_spec_payload(self.UMI)
        execute_spec_payload(other)
        assert len(built) == 2

    def test_kept_rider_is_settled(self, built):
        """A rider is drained and folded before it is kept: it holds
        per-pc counters, not the run's raw columns, and reads as the
        offline simulation."""
        attempt.execute_group([self.UMI])
        machine = get_machine("pentium4", MACHINE_SCALE)
        kept = attempt._last_program[2][(machine.l1, machine.l2)]
        assert kept._pending == [] and kept._pending_cells == 0
        offline = run_cachegrind(build("181.mcf"), machine)
        assert kept.summary() == offline.summary()
        assert kept.pc_load_misses() == offline.pc_load_misses()
        assert kept.load_stats == offline.load_stats

    def test_rider_never_outlives_its_program(self, built):
        execute_spec_payload(self.UMI)
        rider = weakref.ref(built.pop())
        program = weakref.ref(cached_program("181.mcf", SCALE))
        machine = get_machine("pentium4", MACHINE_SCALE)
        assert attempt._last_program[2] \
            == {(machine.l1, machine.l2): rider()}
        # Building the next program drops the last one with its riders:
        # at most one program (and its riders) is alive per process.
        cached_program("mst", SCALE)
        gc.collect()
        assert program() is None and rider() is None
        assert attempt._last_program[2] == {}
