"""Tests for the execution engine: specs, executors, store, batching.

Covers the correctness preconditions of the persistent result store
(determinism of repeated runs, serial/parallel equivalence, schema
rejection) and the engine's caching contract (zero re-executed runs on
a warm store, verified via executor call counts).
"""

import dataclasses
import json

import pytest

from repro.engine import (
    ExecutionEngine, ResultStore, RunSpec, execute_spec,
    execute_spec_payload, make_executor, plan_groups,
)
from repro.experiments import ResultCache
from repro.experiments import table1, table2
from repro.serialize import SCHEMA_VERSION

SCALE = 0.1
MACHINE_SCALE = 16
WORKLOAD = "181.mcf"


def native_spec(**kwargs):
    return RunSpec.native(WORKLOAD, SCALE, "pentium4", MACHINE_SCALE,
                          **kwargs)


def umi_spec(**kwargs):
    return RunSpec.umi(WORKLOAD, SCALE, "pentium4", MACHINE_SCALE,
                       **kwargs)


class TestRunSpec:
    def test_value_equality_and_hash(self):
        assert native_spec() == native_spec()
        assert hash(native_spec()) == hash(native_spec())
        assert native_spec() != native_spec(hw_prefetch=True)

    def test_counter_sample_size_distinguishes_specs(self):
        assert native_spec(counter_sample_size=10) != native_spec()
        assert native_spec(counter_sample_size=10) != \
            native_spec(counter_sample_size=100)

    def test_digest_stable_and_distinct(self):
        assert native_spec().digest() == native_spec().digest()
        assert native_spec().digest() != umi_spec().digest()

    def test_overrides_are_order_insensitive(self):
        a = umi_spec(umi_overrides=(("frequency_threshold", 4),
                                    ("warmup_executions", 0)))
        b = umi_spec(umi_overrides=(("warmup_executions", 0),
                                    ("frequency_threshold", 4)))
        assert a == b and a.digest() == b.digest()

    def test_default_valued_overrides_are_dropped(self):
        # Restating a UMIConfig default is the same run as omitting it.
        assert umi_spec(umi_overrides=(("warmup_executions", 2),)) == \
            umi_spec()

    def test_config_digest_empty_for_stock_config(self):
        assert umi_spec().config_digest == ""
        assert umi_spec(
            umi_overrides=(("frequency_threshold", 4),)
        ).config_digest != ""

    def test_rejects_unknown_and_shadowed_overrides(self):
        with pytest.raises(ValueError):
            umi_spec(umi_overrides=(("no_such_knob", 1),))
        with pytest.raises(ValueError):
            umi_spec(umi_overrides=(("use_sampling", False),))

    def test_rejects_non_scalar_override(self):
        with pytest.raises(ValueError):
            umi_spec(umi_overrides=(("mini_cache", object()),))

    def test_rejects_misplaced_knobs(self):
        with pytest.raises(ValueError):
            umi_spec(counter_sample_size=10)
        with pytest.raises(ValueError):
            native_spec(umi_overrides=(("frequency_threshold", 4),))
        with pytest.raises(ValueError):
            RunSpec(WORKLOAD, SCALE, "pentium4", MACHINE_SCALE,
                    mode="cachegrind")

    def test_rejects_knobs_the_mode_ignores(self):
        # Each would give an unchanged run a second digest (and a
        # second store record).
        with pytest.raises(ValueError, match="with_cachegrind"):
            RunSpec.dynamo(WORKLOAD, SCALE, "pentium4", MACHINE_SCALE,
                           with_cachegrind=True)
        for make in (RunSpec.native, RunSpec.dynamo):
            for knob in ({"sampling": False}, {"sw_prefetch": True}):
                with pytest.raises(ValueError, match="sampling"):
                    make(WORKLOAD, SCALE, "pentium4", MACHINE_SCALE,
                         **knob)
        # The modes that do take them still accept them.
        native_spec(with_cachegrind=True)
        umi_spec(sampling=False, sw_prefetch=True, with_cachegrind=True)

    def test_dict_round_trip(self):
        spec = umi_spec(sampling=False, with_cachegrind=True,
                        umi_overrides=(("frequency_threshold", 4),))
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_matches_asdict_with_key_order(self):
        spec = umi_spec(with_cachegrind=True,
                        consumers=("tlb", "shadow-hwpf"),
                        umi_overrides=(("frequency_threshold", 4),
                                       ("warmup_executions", 0)))
        expected = dataclasses.asdict(spec)
        expected["consumers"] = list(spec.consumers)
        expected["umi_overrides"] = [list(kv)
                                     for kv in spec.umi_overrides]
        assert spec.to_dict() == expected
        assert list(spec.to_dict()) == list(expected)

    def test_describe_mentions_the_essentials(self):
        label = native_spec(counter_sample_size=100).describe()
        assert "native" in label and WORKLOAD in label and "100" in label


class TestDeterminism:
    """Identical specs must yield identical results -- the correctness
    precondition for the persistent store."""

    def test_same_spec_twice_is_identical(self):
        spec = umi_spec(with_cachegrind=True)
        a = execute_spec(spec)
        b = execute_spec(spec)
        assert a.cycles == b.cycles
        assert a.steps == b.steps
        assert a.hw_l2_miss_ratio == b.hw_l2_miss_ratio
        assert a.umi.simulated_miss_ratio == b.umi.simulated_miss_ratio
        assert a.cachegrind.l2_miss_ratio() == b.cachegrind.l2_miss_ratio()

    def test_parallel_executor_matches_serial(self):
        specs = [native_spec(), native_spec(hw_prefetch=True), umi_spec()]
        serial = make_executor(1).execute(specs)
        executor = make_executor(2)
        parallel = executor.execute(specs)
        executor.close()
        assert serial == parallel  # full payloads, deterministic order

    def test_payload_is_json_stable(self):
        payload = execute_spec_payload(native_spec())
        assert json.loads(json.dumps(payload)) == payload


class TestResultStore:
    def test_save_then_load_round_trips(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = native_spec()
        payload = execute_spec_payload(spec)
        store.save(spec, payload)
        assert spec in store
        assert store.load(spec) == payload
        assert store.hits == 1

    def test_missing_spec_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load(native_spec()) is None
        assert store.misses == 1

    def test_rejects_mismatched_schema_version(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = native_spec()
        store.save(spec, execute_spec_payload(spec))
        path = store.path_for(spec)
        record = json.loads(path.read_text())
        record["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(record))
        assert store.load(spec) is None  # stale, never served

    def test_rejects_spec_mismatch(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = native_spec()
        store.save(spec, execute_spec_payload(spec))
        path = store.path_for(spec)
        record = json.loads(path.read_text())
        record["spec"]["workload"] = "179.art"
        path.write_text(json.dumps(record))
        assert store.load(spec) is None

    def test_rejects_corrupt_json(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = native_spec()
        store.path_for(spec).write_text("{not json")
        assert store.load(spec) is None

    def test_records_iterates_valid_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = native_spec()
        store.save(spec, execute_spec_payload(spec))
        entries = list(store.records())
        assert len(entries) == len(store) == 1
        assert entries[0][0] == spec.to_dict()

    def test_concurrent_writers_never_tear_a_record(self, tmp_path):
        # Multiple worker processes checkpointing the same result into
        # one shared store (the distributed sweep's normal state) must
        # never expose a torn file: save() publishes via tempfile +
        # os.replace, so readers only ever see complete records.
        import multiprocessing

        spec = native_spec()
        payload = execute_spec_payload(spec)
        ctx = multiprocessing.get_context("fork")

        def hammer():
            writer_store = ResultStore(tmp_path)
            for _ in range(5):
                writer_store.save(spec, payload)

        writers = [ctx.Process(target=hammer) for _ in range(6)]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join()
            assert proc.exitcode == 0
        store = ResultStore(tmp_path)
        assert store.load(spec) == payload
        report = store.fsck()
        assert report.problems == 0
        assert report.valid == 1
        assert not list(tmp_path.glob("*.tmp"))  # no droppings left

    def test_fsck_reports_and_sweeps_orphaned_tmp_files(self, tmp_path):
        # A writer that died between mkstemp and os.replace leaves a
        # *.tmp dropping: invisible to loads, but fsck surfaces it and
        # repair quarantines it.
        store = ResultStore(tmp_path)
        spec = native_spec()
        store.save(spec, execute_spec_payload(spec))
        (tmp_path / "deadbeef.tmp").write_text('{"half a rec')
        report = store.fsck()
        assert report.orphaned == ["deadbeef.tmp"]
        assert report.problems == 1
        assert "orphaned-tmp" in report.render()
        repaired = store.fsck(repair=True)
        assert repaired.quarantined == ["deadbeef.tmp"]
        assert (tmp_path / "quarantine" / "deadbeef.tmp").exists()
        assert store.fsck().problems == 0
        assert store.load(spec) is not None  # the real record survived


class TestExecutionEngine:
    def test_memoizes_by_identity(self):
        engine = ExecutionEngine()
        spec = native_spec()
        assert engine.run(spec) is engine.run(spec)
        assert engine.runs_executed == 1

    def test_run_many_dedups_and_preserves_order(self):
        engine = ExecutionEngine()
        specs = [native_spec(), umi_spec(), native_spec()]
        outcomes = engine.run_many(specs)
        assert engine.runs_executed == 2
        assert outcomes[0] is outcomes[2]
        assert [o.mode for o in outcomes] == ["native", "umi", "native"]

    def test_warm_store_means_zero_executions(self, tmp_path):
        specs = [native_spec(), native_spec(hw_prefetch=True), umi_spec()]
        cold = ExecutionEngine(store=ResultStore(tmp_path))
        cold.run_many(specs)
        assert cold.runs_executed == 3

        warm = ExecutionEngine(store=ResultStore(tmp_path))
        warm_outcomes = warm.run_many(specs)
        assert warm.runs_executed == 0
        assert warm.store_hits == 3
        cold_outcomes = cold.run_many(specs)
        assert [o.cycles for o in warm_outcomes] == \
            [o.cycles for o in cold_outcomes]

    def test_parallel_engine_matches_serial_engine(self):
        specs = [native_spec(), umi_spec(sampling=False)]
        serial = ExecutionEngine(jobs=1).run_many(specs)
        engine = ExecutionEngine(jobs=2)
        parallel = engine.run_many(specs)
        engine.close()
        for s, p in zip(serial, parallel):
            assert s.cycles == p.cycles
            assert s.steps == p.steps
            assert s.hw_l2_miss_ratio == p.hw_l2_miss_ratio

    def test_payloads_archive_every_resolved_run(self):
        engine = ExecutionEngine()
        engine.run(native_spec())
        archived = dict(engine.payloads())
        assert set(archived) == {native_spec()}
        assert archived[native_spec()]["kind"] == "run_outcome"


class TestResultCacheOverEngine:
    def test_counter_sample_size_is_part_of_the_key(self):
        cache = ResultCache(scale=SCALE)
        plain = cache.native(WORKLOAD)
        sampled = cache.native(WORKLOAD, counter_sample_size=100)
        assert plain is not sampled
        assert sampled.counter_interrupt_cycles > 0
        # Same size again: served from the memo, not re-executed.
        assert cache.native(WORKLOAD, counter_sample_size=100) is sampled
        assert cache.engine.runs_executed == 2

    def test_table1_is_fully_cached(self):
        # The Table 1 counter sweep goes through the engine now: a
        # second regeneration re-executes nothing.  The sweep's native
        # variants differ only in counter_sample_size, so they fuse
        # into one execution per workload.
        cache = ResultCache(scale=SCALE)
        table1.run(scale=SCALE, cache=cache, sample_sizes=(10, 1000))
        executed = cache.engine.runs_executed
        specs = table1.required_runs(cache, sample_sizes=(10, 1000))
        assert executed == len(plan_groups(specs))
        assert executed < len(specs)
        table1.run(scale=SCALE, cache=cache, sample_sizes=(10, 1000))
        assert cache.engine.runs_executed == executed

    def test_required_runs_cover_table2(self):
        cache = ResultCache(scale=SCALE)
        cache.prefill(table2.required_runs(cache))
        executed = cache.engine.runs_executed
        table2.run(scale=SCALE, cache=cache)
        assert cache.engine.runs_executed == executed

    def test_umi_config_overrides_reach_the_run(self):
        cache = ResultCache(scale=SCALE)
        stock = cache.umi(WORKLOAD)
        strict = cache.umi(WORKLOAD,
                           overrides={"frequency_threshold": 1024})
        assert strict is not stock
        # Restated defaults collapse onto the stock spec.
        assert cache.umi(WORKLOAD,
                         overrides={"warmup_executions": 2}) is stock


class TestCLIEngineFlags:
    def test_store_and_json_flags(self, tmp_path, capsys):
        from repro.experiments.cli import main
        store = tmp_path / "cache"
        archive = tmp_path / "runs.json"
        assert main(["table2", "--scale", "0.1",
                     "--store", str(store)]) == 0
        first = capsys.readouterr().out
        # The banner counts *specs*, not fusion groups: all 4 of
        # table2's specs were computed this wavefront (the three
        # native counter variants via one fused execution), none
        # reused from a store.
        assert "4 runs executed, 0 reused" in first
        assert main(["table2", "--scale", "0.1", "--store", str(store),
                     "--json", str(archive)]) == 0
        second = capsys.readouterr().out
        assert "0 runs executed, 4 reused" in second
        # Identical renderings, modulo the wavefront/timing banner.
        strip = lambda text: [l for l in text.splitlines()
                              if not l.startswith("[")]
        assert strip(first) == strip(second)
        runs = json.loads(archive.read_text())["runs"]
        assert len(runs) == 4
        assert all(r["outcome"]["kind"] == "run_outcome" for r in runs)

    def test_no_store_overrides_store(self, tmp_path, capsys):
        from repro.experiments.cli import main
        store = tmp_path / "cache"
        assert main(["table2", "--scale", "0.1", "--store", str(store),
                     "--no-store"]) == 0
        capsys.readouterr()
        assert not store.exists()
