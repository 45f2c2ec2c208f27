"""Tests for the telemetry subsystem and its instrumentation points.

Covers the four guarantees the subsystem makes:

* disabled mode is a strict no-op (shared no-op span, empty snapshot,
  bounded per-call overhead) -- the engine wavefront records nothing;
* span nesting and event ordering are deterministic;
* a local-process (``--jobs 2``) run merges worker registries into
  exactly the counters an in-process run of the same specs produces;
* the JSONL event log and metric snapshots round-trip through the
  exporters;

plus the reconciliation acceptance: telemetry counters must equal the
`UMIStats` / `ResultStore` counters for the same run.
"""

import json
import time

import pytest

from repro.engine import (
    ExecutionEngine, ResultStore, RunSpec, SpecExecutionError, attempt,
    make_executor,
)
from repro.serialize import SCHEMA_VERSION
from repro.telemetry import (
    NOOP_SPAN, TELEMETRY, MetricsRegistry, Telemetry, get_telemetry,
    prometheus_text, read_events_jsonl, render_summary,
    write_events_jsonl, write_telemetry_dir,
)
from repro.telemetry.summary import overview_table, peak_rss_mb
from repro.vm import compiler

SCALE = 0.1
MACHINE_SCALE = 16
WORKLOAD = "181.mcf"


def native_spec(**kwargs):
    return RunSpec.native(WORKLOAD, SCALE, "pentium4", MACHINE_SCALE,
                          **kwargs)


def umi_spec(**kwargs):
    return RunSpec.umi(WORKLOAD, SCALE, "pentium4", MACHINE_SCALE,
                       **kwargs)


@pytest.fixture
def global_telemetry():
    """The module-level object, guaranteed clean before and after."""
    TELEMETRY.reset()
    TELEMETRY.disable()
    yield TELEMETRY
    TELEMETRY.reset()
    TELEMETRY.disable()


def counter_values(snapshot):
    return {
        (m["name"], tuple(sorted(m["labels"].items()))): m["value"]
        for m in snapshot["metrics"] if m["kind"] == "counter"
    }


def timer_counts(snapshot):
    return {
        (m["name"], tuple(sorted(m["labels"].items()))): m["count"]
        for m in snapshot["metrics"] if m["kind"] == "timer"
    }


class TestDisabledNoOp:
    def test_span_is_shared_noop_singleton(self):
        telemetry = Telemetry()
        assert telemetry.span("a") is NOOP_SPAN
        assert telemetry.span("b", labels={"x": 1}) is telemetry.span("c")
        with telemetry.span("a"):
            pass
        assert telemetry.snapshot() == {"metrics": [], "events": []}

    def test_disabled_recording_is_empty(self):
        telemetry = Telemetry()
        telemetry.count("c")
        telemetry.gauge("g", 1.0)
        telemetry.observe("h", 2.0)
        telemetry.event("e", a=1)
        assert telemetry.snapshot() == {"metrics": [], "events": []}
        assert len(telemetry.registry) == 0

    def test_disabled_per_call_overhead_bound(self):
        # The zero-cost guard: a disabled count+span pair must stay in
        # the sub-microsecond range (generous 5us bound for CI noise).
        telemetry = Telemetry()
        n = 100_000
        start = time.perf_counter()
        for _ in range(n):
            telemetry.count("x")
            telemetry.span("y")
        elapsed = time.perf_counter() - start
        assert elapsed / n < 5e-6

    def test_engine_wavefront_disabled_records_nothing(
            self, global_telemetry):
        engine = ExecutionEngine()
        engine.run_many([native_spec(), native_spec()])
        assert engine.runs_executed == 1
        assert global_telemetry.snapshot() == {"metrics": [],
                                               "events": []}


class TestSpans:
    def test_nesting_depth_and_close_order(self):
        telemetry = Telemetry(enabled=True)
        with telemetry.span("outer"):
            with telemetry.span("inner-1"):
                pass
            with telemetry.span("inner-2", labels={"k": "v"}, extra=3):
                pass
        closed = [(e["name"], e["depth"]) for e in telemetry.events]
        assert closed == [("inner-1", 1), ("inner-2", 1), ("outer", 0)]
        assert [e["seq"] for e in telemetry.events] == [0, 1, 2]
        inner2 = telemetry.events[1]
        assert inner2["labels"] == {"k": "v"}
        assert inner2["attrs"] == {"extra": 3}

    def test_ordering_is_deterministic_across_runs(self):
        def record():
            telemetry = Telemetry(enabled=True)
            with telemetry.span("a"):
                telemetry.count("ticks")
                with telemetry.span("b"):
                    telemetry.event("mark", step=1)
            return [(e["seq"], e["type"], e["name"])
                    for e in telemetry.events]
        assert record() == record()

    def test_span_times_accumulate_into_timer(self):
        telemetry = Telemetry(enabled=True)
        for _ in range(3):
            with telemetry.span("work", labels={"w": "x"}):
                pass
        timer = telemetry.registry.timer("span.work", {"w": "x"})
        assert timer.count == 3
        assert timer.wall_s >= 0.0
        assert timer.wall_max_s <= timer.wall_s + 1e-9

    def test_span_records_error_name(self):
        telemetry = Telemetry(enabled=True)
        with pytest.raises(ValueError):
            with telemetry.span("boom"):
                raise ValueError("x")
        assert telemetry.events[0]["error"] == "ValueError"


class TestRegistry:
    def test_kinds_and_labels_key_separately(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c", {"k": "a"}).inc(2)
        registry.gauge("c").set(9)  # same name, different kind
        snapshot = registry.snapshot()
        assert len(snapshot) == 3
        assert registry.counter("c", {"k": "a"}).value == 2

    def test_merge_combines_by_kind(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        b.gauge("g").set(7)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(5.0)
        b.timer("t").record(0.5, 0.4)
        a.merge(b.snapshot())
        assert a.counter("c").value == 3
        assert a.gauge("g").value == 7
        hist = a.histogram("h")
        assert (hist.count, hist.min, hist.max) == (2, 1.0, 5.0)
        assert a.timer("t").count == 1
        # Merging is reloadable: snapshot -> fresh registry -> snapshot.
        fresh = MetricsRegistry()
        fresh.merge(a.snapshot())
        assert fresh.snapshot() == a.snapshot()


#: Counters of the per-process caches whose sum is fixed by the specs
#: (each group asks each cache once) but whose split into builds and
#: reuses depends on which process ran which group.
CACHE_TOTALS = (
    ("workloads.program_builds", "workloads.program_reuses"),
    ("fullsim.cachegrind_runs", "fullsim.cachegrind_reuses"),
)

#: Compiled-code cache misses: each worker compiles what its own groups
#: need, so a parallel run makes at least the serial count and at most
#: that count per worker.  ``vm.compile_s`` is a time.
COMPILE_COUNTERS = ("vm.block_compiles", "vm.templates_compiled")


def fresh_process_caches(monkeypatch):
    """Empty this process's program (with its compiled code),
    static-count and template caches; workers forked afterwards start
    from them too."""
    monkeypatch.setattr(attempt, "_last_program", None)
    monkeypatch.setattr(attempt, "_static_counts", {})
    monkeypatch.setattr(compiler, "_TEMPLATES", {})


class TestParallelMergeEqualsSerial:
    def test_worker_metrics_merge_deterministically(self,
                                                    global_telemetry,
                                                    monkeypatch):
        # The prefetching native run gives the L2 prefetch fills a
        # nonzero count.
        specs = [native_spec(), umi_spec(), native_spec(hw_prefetch=True)]
        global_telemetry.enable()
        fresh_process_caches(monkeypatch)
        make_executor(1).execute(specs)
        serial = global_telemetry.snapshot()

        global_telemetry.reset()
        fresh_process_caches(monkeypatch)
        executor = make_executor(2)
        executor.execute(specs)
        executor.close()
        parallel = global_telemetry.snapshot()

        assert executor.runs_executed == 3
        # The pool.* namespace attributes leases to worker ids -- it is
        # deliberately backend-specific (a serial run has no workers) --
        # and the cache counters split by placement, so the
        # serial==parallel contract covers everything else, plus the
        # cache totals.
        placed = {name for names in CACHE_TOTALS for name in names} \
            | set(COMPILE_COUNTERS) | {"vm.compile_s"}
        placement_free = lambda counters: {
            key: value for key, value in counters.items()
            if not key[0].startswith("pool.") and key[0] not in placed
        }
        total = lambda counters, names: sum(
            value for (name, _), value in counters.items()
            if name in names)
        serial_counts = counter_values(serial)
        parallel_counts = counter_values(parallel)
        assert placement_free(parallel_counts) \
            == placement_free(serial_counts)
        assert total(serial_counts, {"workloads.program_builds"}) == 1
        # Counts read from each run's own statistics merge to the
        # serial totals (covered above; named here so they must exist).
        for name in ("memory.refs_served", "memory.l1d_misses",
                     "memory.l2_misses", "memory.l2_prefetch_fills",
                     "vm.trace_passes"):
            assert total(parallel_counts, {name}) \
                == total(serial_counts, {name}) > 0
        for names in CACHE_TOTALS:
            assert total(parallel_counts, names) \
                == total(serial_counts, names)
        for name in COMPILE_COUNTERS:
            compiled = total(serial_counts, {name})
            assert compiled > 0
            assert compiled <= total(parallel_counts, {name}) \
                <= 2 * compiled
        assert timer_counts(parallel) == timer_counts(serial)
        # Same events in the same (submission) order, modulo timings
        # and the worker source tag.
        strip = lambda events: [
            (e["type"], e["name"], e.get("depth"))
            for e in events
        ]
        assert strip(parallel["events"]) == strip(serial["events"])


class TestExporters:
    def test_events_jsonl_round_trip(self, tmp_path):
        telemetry = Telemetry(enabled=True)
        telemetry.event("alpha", value=1, text="x")
        with telemetry.span("s", labels={"k": "v"}):
            telemetry.event("beta", nested=True)
        path = tmp_path / "events.jsonl"
        write_events_jsonl(telemetry.events, path)
        assert read_events_jsonl(path) == telemetry.events
        # Every line is independently valid JSON (the CI gate).
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_telemetry_dir_round_trip(self, tmp_path):
        telemetry = Telemetry(enabled=True)
        telemetry.count("store.hits", n=3)
        telemetry.count("store.misses", labels={"reason": "absent"})
        with telemetry.span("executor.spec",
                            labels={"workload": WORKLOAD},
                            spec="umi:181.mcf"):
            pass
        paths = write_telemetry_dir(telemetry, tmp_path / "t")
        metrics = json.load(open(paths["metrics_json"]))["metrics"]
        assert metrics == telemetry.registry.snapshot()
        assert read_events_jsonl(paths["events"]) == telemetry.events
        summary = paths["summary"].read_text()
        assert "Telemetry overview" in summary
        assert "store hit ratio" in summary

    def test_prometheus_text_format(self):
        telemetry = Telemetry(enabled=True)
        telemetry.count("umi.analyzer_invocations",
                        labels={"workload": WORKLOAD}, n=4)
        with telemetry.span("work"):
            pass
        text = prometheus_text(telemetry.registry.snapshot())
        assert '# TYPE umi_analyzer_invocations counter' in text
        assert 'umi_analyzer_invocations{workload="181.mcf"} 4' in text
        assert 'span_work_seconds_count 1' in text

    def test_summary_handles_empty_telemetry(self):
        assert "Telemetry overview" in render_summary([], [])

    def test_overview_counts_specs_not_fusion_groups(self):
        # Three specs run as two fusion groups: one executor.spec span
        # per group, while the engine counts every spec.
        telemetry = Telemetry(enabled=True)
        telemetry.count("engine.specs_executed", n=3)
        for fused in (2, 1):
            with telemetry.span("executor.spec",
                                labels={"workload": WORKLOAD},
                                fused=fused):
                pass
        rows = dict(overview_table(telemetry.registry.snapshot(),
                                   telemetry.events).rows)
        assert rows["specs executed"] == 3
        assert rows["fusion groups executed"] == 2


class TestReconciliation:
    """Telemetry counters must equal the subsystem's own counters."""

    def test_umi_counters_match_umistats(self, global_telemetry):
        global_telemetry.enable()
        engine = ExecutionEngine()
        outcome = engine.run(umi_spec())
        stats = outcome.umi.umi_stats
        counters = counter_values(global_telemetry.snapshot())
        label = (("workload", WORKLOAD),)
        assert counters[("umi.analyzer_invocations", label)] == \
            stats.analyzer_invocations
        assert counters[("umi.profiles_collected", label)] == \
            stats.profiles_collected
        # Every analyzer invocation carries a span.
        timers = timer_counts(global_telemetry.snapshot())
        assert timers[("span.umi.analyzer", label)] == \
            stats.analyzer_invocations
        # The reconciliation event repeats the same numbers.
        runs = [e for e in global_telemetry.events
                if e.get("name") == "umi.run"]
        assert len(runs) == 1
        assert runs[0]["analyzer_invocations"] == \
            stats.analyzer_invocations

    def test_store_counters_match_resultstore(self, tmp_path,
                                              global_telemetry):
        global_telemetry.enable()
        specs = [native_spec(), umi_spec()]
        ExecutionEngine(store=ResultStore(tmp_path)).run_many(specs)
        warm_store = ResultStore(tmp_path)
        ExecutionEngine(store=warm_store).run_many(specs)
        counters = counter_values(global_telemetry.snapshot())
        assert counters[("store.hits", ())] == warm_store.hits == 2
        # Cold run missed twice (absent), warm run missed nothing.
        assert counters[("store.misses", (("reason", "absent"),))] == 2
        assert warm_store.misses == 0


class TestStoreValidity:
    """Satellite: __contains__/records() follow load()'s validity rules."""

    def _seeded_store(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = native_spec()
        from repro.engine import execute_spec_payload
        store.save(spec, execute_spec_payload(spec))
        return store, spec

    def test_contains_tracks_load_validity(self, tmp_path):
        store, spec = self._seeded_store(tmp_path)
        assert spec in store
        path = store.path_for(spec)
        record = json.loads(path.read_text())
        record["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(record))
        assert spec not in store  # stale schema: load() would miss
        record["schema_version"] = SCHEMA_VERSION
        record["spec"]["workload"] = "179.art"
        path.write_text(json.dumps(record))
        assert spec not in store  # embedded-spec mismatch
        path.write_text("{not json")
        assert spec not in store  # corrupt
        # Membership probes never disturb the hit/miss accounting.
        assert store.hits == 0 and store.misses == 0

    def test_load_classifies_miss_reasons(self, tmp_path):
        store, spec = self._seeded_store(tmp_path)
        path = store.path_for(spec)
        path.write_text("{not json")
        assert store.load(spec) is None
        assert store.miss_reasons["corrupt"] == 1
        assert store.load(native_spec(hw_prefetch=True)) is None
        assert store.miss_reasons["absent"] == 1
        assert store.misses == 2

    def test_records_counts_skipped_files(self, tmp_path):
        store, spec = self._seeded_store(tmp_path)
        (store.root / "broken.json").write_text("{not json")
        stale = {"schema_version": SCHEMA_VERSION + 1, "spec": {},
                 "outcome": {}}
        (store.root / "stale.json").write_text(json.dumps(stale))
        entries = list(store.records())
        assert len(entries) == 1
        assert store.records_skipped_corrupt == 1
        assert store.records_skipped_stale == 1


class TestExecutorFailures:
    """Satellite: crashes name the spec; successes alone are counted."""

    def test_parallel_worker_crash_names_spec(self, global_telemetry):
        bad = RunSpec.native("no-such-workload", SCALE, "pentium4",
                             MACHINE_SCALE)
        good = native_spec()
        executor = make_executor(2)
        with pytest.raises(SpecExecutionError) as excinfo:
            executor.execute([bad, good])
        executor.close()
        assert bad.digest()[:12] in str(excinfo.value)
        assert "no-such-workload" in str(excinfo.value)
        assert excinfo.value.spec == bad
        # The good spec completed and is counted; the bad one is not.
        assert executor.runs_executed == 1

    def test_serial_fallback_crash_names_spec(self):
        bad = RunSpec.native("no-such-workload", SCALE, "pentium4",
                             MACHINE_SCALE)
        executor = make_executor(1)
        with pytest.raises(SpecExecutionError) as excinfo:
            executor.execute([bad])
        assert executor.runs_executed == 0
        assert bad.digest()[:12] in str(excinfo.value)


class TestCLITelemetry:
    def test_telemetry_flag_and_subcommand(self, tmp_path, capsys,
                                           global_telemetry):
        from repro.experiments.cli import main
        directory = tmp_path / "telemetry"
        assert main(["table2", "--scale", "0.1",
                     "--telemetry", str(directory)]) == 0
        out = capsys.readouterr().out
        assert f"[telemetry written to {directory}]" in out
        # The flag must not leave the global object enabled.
        assert not global_telemetry.enabled
        for name in ("events.jsonl", "metrics.json", "metrics.prom",
                     "summary.txt"):
            assert (directory / name).exists()
        for line in (directory / "events.jsonl").read_text().splitlines():
            json.loads(line)

        assert main(["telemetry", str(directory)]) == 0
        rendered = capsys.readouterr().out
        assert "Telemetry overview" in rendered
        assert "Analyzer time share per workload" in rendered
        assert "Slowest specs" in rendered

    def test_overview_specs_match_wavefront_banner(self, tmp_path, capsys,
                                                  global_telemetry):
        # table2 fuses its specs, so fewer executor.spec spans than
        # specs are recorded; the overview must agree with the banner.
        from repro.experiments.cli import main
        from repro.telemetry.export import load_telemetry_dir
        directory = tmp_path / "telemetry"
        assert main(["table2", "--scale", "0.1", "--no-store",
                     "--telemetry", str(directory)]) == 0
        banner = next(line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("[wavefront:"))
        executed = int(banner.split()[1])
        rows = dict(overview_table(*load_telemetry_dir(directory)).rows)
        assert rows["specs executed"] == executed == 4
        assert rows["fusion groups executed"] < executed

    def test_overview_counts_program_builds(self, tmp_path, capsys,
                                            global_telemetry, monkeypatch):
        # table2's two fusion groups run one workload, so the serial
        # worker builds its program once and reuses it once.
        from repro.engine import attempt
        from repro.experiments.cli import main
        from repro.telemetry.export import load_telemetry_dir
        monkeypatch.setattr(attempt, "_last_program", None)
        directory = tmp_path / "telemetry"
        assert main(["table2", "--scale", "0.1", "--no-store",
                     "--telemetry", str(directory)]) == 0
        capsys.readouterr()
        rows = dict(overview_table(*load_telemetry_dir(directory)).rows)
        assert rows["fusion groups executed"] == 2
        assert rows["program builds"] == 1
        assert rows["program reuses"] == 1

    def test_overview_counts_cachegrind_runs_and_reuses(
            self, tmp_path, global_telemetry, monkeypatch):
        # Three groups of one program on one cache geometry simulate
        # Cachegrind once; another machine scale is another geometry.
        from repro.engine import attempt
        from repro.telemetry.export import load_telemetry_dir
        monkeypatch.setattr(attempt, "_last_program", None)
        global_telemetry.enable()
        engine = ExecutionEngine(jobs=1)
        engine.run_many([
            umi_spec(with_cachegrind=True),
            native_spec(with_cachegrind=True),
            native_spec(with_cachegrind=True, hw_prefetch=True),
            RunSpec.umi(WORKLOAD, SCALE, "pentium4", MACHINE_SCALE // 2,
                        with_cachegrind=True),
            native_spec(),
        ])
        directory = tmp_path / "telemetry"
        write_telemetry_dir(global_telemetry, directory)
        rows = dict(overview_table(*load_telemetry_dir(directory)).rows)
        assert rows["fusion groups executed"] == 4
        assert rows["cachegrind runs"] == 2
        assert rows["cachegrind reuses"] == 2

    def test_overview_counts_references_served(self, tmp_path, capsys,
                                               global_telemetry,
                                               monkeypatch):
        # Each execution adds its L1D and L1I references and its L1D
        # and L2 misses, read from the hierarchy's stats (hits the
        # compiled blocks served inline count as well as hierarchy
        # calls), and its trace passes, read from its RuntimeStats.
        import repro.runners as runners
        from repro.experiments.cli import main
        from repro.telemetry.export import load_telemetry_dir
        from repro.vm import DynamoSim
        hierarchies = []
        runtime_stats = []
        make_hierarchy = runners._make_hierarchy
        run = DynamoSim.run

        def recording(*args):
            hierarchies.append(make_hierarchy(*args))
            return hierarchies[-1]

        def recording_run(dynamo):
            runtime_stats.append(run(dynamo))
            return runtime_stats[-1]

        monkeypatch.setattr(runners, "_make_hierarchy", recording)
        monkeypatch.setattr(DynamoSim, "run", recording_run)
        directory = tmp_path / "telemetry"
        assert main(["table2", "--scale", "0.1", "--no-store",
                     "--telemetry", str(directory)]) == 0
        capsys.readouterr()
        rows = dict(overview_table(*load_telemetry_dir(directory)).rows)
        assert len(hierarchies) == rows["fusion groups executed"] == 2
        served = sum(h.l1.stats.refs + h.l1i.stats.refs
                     for h in hierarchies)
        assert rows["references served"] == served > 0
        assert rows["L1D misses"] == sum(
            h.l1.stats.misses for h in hierarchies) > 0
        assert rows["L2 misses"] == sum(
            h.l2.stats.misses for h in hierarchies) > 0
        # table2 runs without the hardware prefetcher.
        assert rows["L2 prefetch fills"] == sum(
            h.l2.stats.prefetch_fills for h in hierarchies) == 0
        assert rows["L1D misses"] <= rows["references served"]
        # table2's one UMI group runs under DynamoSim.
        assert len(runtime_stats) == 1
        assert rows["trace passes"] == runtime_stats[0].trace_entries > 0

    def test_overview_counts_block_compiles(self, tmp_path, capsys,
                                            global_telemetry, monkeypatch):
        # From empty caches, table2 makes a code object per block of
        # its one program that runs and compiles one template per
        # block shape.
        from repro.engine import attempt
        from repro.experiments.cli import main
        from repro.telemetry.export import load_telemetry_dir
        from repro.vm.interpreter import _CODE_MAPS
        monkeypatch.setattr(attempt, "_last_program", None)
        monkeypatch.setattr(compiler, "_TEMPLATES", {})
        directory = tmp_path / "telemetry"
        assert main(["table2", "--scale", "0.1", "--no-store",
                     "--telemetry", str(directory)]) == 0
        capsys.readouterr()
        rows = dict(overview_table(*load_telemetry_dir(directory)).rows)
        program = attempt._last_program[1]
        assert rows["code objects made"] == sum(
            len(codes) for codes in _CODE_MAPS[program].values())
        assert rows["templates compiled"] == len(compiler._TEMPLATES)
        assert rows["code objects made"] > rows["templates compiled"] > 0
        assert float(rows["compile seconds"]) > 0.0

    def test_overview_shows_peak_rss_of_the_spec_spans(
            self, tmp_path, capsys, global_telemetry):
        # Every executor.spec span records getrusage's peak RSS (KiB)
        # and its CPU split; the overview shows the largest, in MiB.
        from repro.experiments.cli import main
        from repro.telemetry.export import load_telemetry_dir
        directory = tmp_path / "telemetry"
        assert main(["table2", "--scale", "0.1", "--no-store",
                     "--telemetry", str(directory)]) == 0
        capsys.readouterr()
        metrics, events = load_telemetry_dir(directory)
        spans = [e["attrs"] for e in events
                 if e.get("name") == "executor.spec"]
        assert len(spans) == 2
        for attrs in spans:
            assert attrs["maxrss_kib"] > 0
            assert attrs["user_s"] >= 0.0 and attrs["sys_s"] >= 0.0
        rows = dict(overview_table(metrics, events).rows)
        assert rows["peak RSS (MB)"] == "%.1f" % (
            max(attrs["maxrss_kib"] for attrs in spans) / 1024)
        assert main(["telemetry", str(directory)]) == 0
        assert "peak RSS (MB)" in capsys.readouterr().out

    def test_peak_rss_is_the_maximum_over_merged_worker_spans(self):
        # Pool workers ship their spans in snapshots; the coordinator's
        # merged log keeps each, and the row takes the largest.
        coordinator = Telemetry(enabled=True)
        for peak in (30_000, 51_200, 40_000):
            worker = Telemetry(enabled=True)
            with worker.span("executor.spec",
                             labels={"workload": WORKLOAD}) as span:
                span.attrs.update(maxrss_kib=peak, user_s=0.1, sys_s=0.0)
            coordinator.merge(worker.snapshot(), source=f"w{peak}")
        rows = dict(overview_table(coordinator.registry.snapshot(),
                                   coordinator.events).rows)
        assert rows["peak RSS (MB)"] == "50.0"
        assert rows["fusion groups executed"] == 3
        assert peak_rss_mb(coordinator.events) == 50.0
        assert peak_rss_mb([]) is None
        assert dict(overview_table([], []).rows)["peak RSS (MB)"] == "-"
