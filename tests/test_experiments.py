"""Smoke tests for the experiment harness on tiny workload subsets.

Full-suite experiment runs live in ``benchmarks/``; here each experiment
module is driven end-to-end on a handful of benchmarks at a small scale
to verify plumbing, table shape, and the grossest expected properties.
"""

import gc
import weakref

import pytest

from repro.experiments import ResultCache
from repro.experiments import (  # noqa: F401  (import checks)
    DEFAULT_SCALE,
)
from repro.experiments import common, fig2, prefetch_figs, sensitivity
from repro.experiments import table1, table2, table3, table4, table5, table6
from repro.isa import Program
from repro.stats import Table

SCALE = 0.25
SUBSET = ["179.art", "181.mcf", "252.eon"]


@pytest.fixture(scope="module")
def cache():
    return ResultCache(scale=SCALE)


class TestResultCache:
    def test_tables_read_static_counts_not_programs(self, monkeypatch):
        # A cold serial sweep of Table 3 plus Table 6: rendering reads
        # the static counts recorded when the sweep built each program,
        # so it builds nothing, and only the executor's last program is
        # still alive afterwards.
        from repro.engine import attempt
        from repro.telemetry import TELEMETRY

        real = attempt.get_workload
        built = []

        class Recording:
            def __init__(self, name):
                self.workload = real(name)

            def build(self, scale):
                program = self.workload.build(scale)
                built.append(weakref.ref(program))
                return program

        monkeypatch.setattr(attempt, "get_workload", Recording)
        monkeypatch.setattr(attempt, "_last_program", None)
        monkeypatch.setattr(attempt, "_static_counts", {})
        names = ["gen:thrash:pentium4:s0", "gen:thrash:pentium4:s1"]
        fresh = ResultCache(scale=0.05)
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            fresh.prefill(table3.required_runs(fresh, names)
                          + table6.required_runs(fresh, names))
            builds = TELEMETRY.registry.counter(
                "workloads.program_builds").value
            swept = len(built)
            tables = [table3.run(scale=0.05, cache=fresh, workloads=names),
                      table6.run(scale=0.05, cache=fresh, workloads=names)]
            rendered = TELEMETRY.registry.counter(
                "workloads.program_builds").value
        finally:
            TELEMETRY.reset()
            TELEMETRY.disable()
        assert builds == swept == len(names)
        assert rendered == builds and len(built) == swept
        assert all(table.rows for table in tables)
        gc.collect()
        assert sum(ref() is not None for ref in built) <= 1
        assert sum(isinstance(obj, Program) and obj.name in names
                   for obj in gc.get_objects()) <= 1

    def test_static_counts_match_the_program(self):
        from repro.workloads import get_workload
        program = get_workload("181.mcf").build(SCALE)
        assert ResultCache(scale=SCALE).static_counts("181.mcf") == (
            program.static_loads(), program.static_stores())

    def test_runs_are_memoized(self, cache):
        a = cache.native("252.eon")
        b = cache.native("252.eon")
        assert a is b

    def test_distinct_configs_not_conflated(self, cache):
        a = cache.native("252.eon", hw_prefetch=False)
        b = cache.native("252.eon", hw_prefetch=True)
        assert a is not b

    def test_machines_scaled(self, cache):
        machine = cache.machine("pentium4")
        assert machine.l2.size < 512 * 1024


class TestTable1:
    def test_shape_and_monotonicity(self, cache):
        table = table1.run(scale=SCALE, cache=cache,
                           sample_sizes=(10, 1000, 100000))
        assert isinstance(table, Table)
        rows = table.as_dicts()
        assert rows[0]["sample_size"] == "0 (native)"
        by_size = {r["sample_size"]: r["slowdown_pct"] for r in rows}
        assert by_size["10"] > by_size["1000"] >= by_size["100000"]


class TestTable2:
    def test_rows_present(self, cache):
        table = table2.run(scale=SCALE, cache=cache)
        methods = table.column_values("methodology")
        assert "simulators" in methods and "UMI" in methods


class TestTable3:
    def test_filtering_reduces_candidates(self, cache):
        table = table3.run(scale=SCALE, cache=cache, workloads=SUBSET)
        for row in table.as_dicts()[:-1]:
            total = row["static_loads"] + row["static_stores"]
            assert row["profiled_operations"] <= total
            assert 0.0 <= row["pct_profiled"] <= 100.0


class TestTable4:
    def test_measurements_and_grid(self, cache):
        meas = table4.measure(scale=SCALE, cache=cache)
        assert len(meas) == 32
        grid = table4.correlations(meas)
        rows = grid.as_dicts()
        assert len(rows) == 3
        # Cachegrind tracks the no-prefetch hardware near-perfectly.
        assert rows[0]["cg_CFP2000"] > 0.95
        # UMI correlates positively overall on every platform.
        assert all(r["umi_All"] > 0.3 for r in rows)
        # K7 has no Cachegrind entries, like the paper.
        assert rows[2]["cg_CFP2000"] is None
        detail = table4.detail(meas)
        assert len(detail.as_dicts()) == 32

    def test_art_is_memory_intensive_everywhere(self, cache):
        meas = {m.name: m for m in table4.measure(scale=SCALE, cache=cache)}
        art = meas["179.art"]
        eon = meas["252.eon"]
        assert art.umi_p4 > eon.umi_p4
        assert art.hw_p4_nopf > eon.hw_p4_nopf
        assert art.hw_k7 > eon.hw_k7


class TestTable5:
    def test_2006_correlations(self, cache):
        table = table5.run(scale=SCALE, cache=cache)
        row = table.as_dicts()[0]
        assert -1.0 <= row["SPEC2006"] <= 1.0


class TestTable6:
    def test_rows_and_averages(self, cache):
        rows = table6.measure(scale=SCALE, cache=cache, workloads=SUBSET)
        assert len(rows) == 3
        for r in rows:
            assert 0.0 <= r.recall <= 1.0
            assert 0.0 <= r.false_positive <= 1.0
            assert r.pc_size <= min(r.p_size, r.c_size)
        table = table6.to_table(rows)
        assert "average (all benchmarks)" in \
            table.column_values("benchmark")

    def test_memory_intensive_predicted_well(self, cache):
        rows = {r.name: r for r in table6.measure(
            scale=SCALE, cache=cache, workloads=["179.art", "181.mcf"])}
        assert rows["179.art"].recall >= 0.5
        assert rows["181.mcf"].recall >= 0.5


class TestFig2:
    def test_overhead_table(self, cache):
        table = fig2.run(scale=SCALE, cache=cache, workloads=SUBSET)
        rows = table.as_dicts()
        assert rows[-1]["benchmark"] == "average"
        for row in rows[:-1]:
            assert row["dynamo"] > 0.5
            assert row["umi_sampling"] >= 0.9


class TestPrefetchFigs:
    PF_SUBSET = ["179.art", "ft"]

    def test_fig3_prefetch_speeds_up_strided(self, cache):
        table = prefetch_figs.fig3(scale=SCALE, cache=cache,
                                   workloads=self.PF_SUBSET)
        rows = {r["benchmark"]: r for r in table.as_dicts()}
        assert rows["ft"]["umi_sw_prefetch"] < \
            rows["ft"]["umi_introspection"]

    def test_fig4_runs_on_k7(self, cache):
        table = prefetch_figs.fig4(scale=SCALE, cache=cache,
                                   workloads=self.PF_SUBSET)
        assert len(table.as_dicts()) == 3

    def test_fig5_and_fig6_consistency(self, cache):
        f5 = prefetch_figs.fig5(scale=SCALE, cache=cache,
                                workloads=self.PF_SUBSET)
        f6 = prefetch_figs.fig6(scale=SCALE, cache=cache,
                                workloads=self.PF_SUBSET)
        r5 = {r["benchmark"]: r for r in f5.as_dicts()}
        r6 = {r["benchmark"]: r for r in f6.as_dicts()}
        # ft: UMI's software prefetching beats the hardware prefetcher
        # (the paper's flagship example).
        assert r5["ft"]["umi_sw"] < r5["ft"]["hw"]
        # Combining prefetchers removes at least as many misses as the
        # better single scheme, for the strided stars.
        assert r6["ft"]["umi_sw_plus_hw"] <= \
            min(r6["ft"]["umi_sw"], r6["ft"]["hw"]) + 0.05


class TestSensitivity:
    def test_frequency_threshold_sweep(self, cache):
        table = sensitivity.frequency_threshold_sweep(
            scale=SCALE, cache=cache, workloads=["181.mcf"],
            thresholds=(4, 256))
        rows = table.as_dicts()
        assert len(rows) == 2
        low, high = rows
        assert low["recall"] >= high["recall"]

    def test_profile_length_sweep(self, cache):
        table = sensitivity.profile_length_sweep(
            scale=SCALE, cache=cache, workloads=["181.mcf"],
            lengths=(64, 512))
        assert len(table.as_dicts()) == 2

    def test_threshold_ablation(self, cache):
        table = sensitivity.threshold_ablation(
            scale=SCALE, cache=cache, workloads=["179.art", "181.mcf"])
        rows = {r["mode"]: r for r in table.as_dicts()}
        assert rows["global 0.10"]["avg_recall"] >= \
            rows["global 0.90"]["avg_recall"]

    def test_warmup_ablation(self, cache):
        table = sensitivity.warmup_ablation(scale=SCALE, cache=cache,
                                            workloads=["181.mcf"])
        rows = {r["warmup"]: r for r in table.as_dicts()}
        # No warm-up counts the compulsory misses, pushing the ratio up;
        # on mcf (whose steady state is ~all misses anyway) the effect
        # is tiny, so allow a hair of noise.
        assert rows[0]["simulated_miss_ratio"] >= \
            rows[8]["simulated_miss_ratio"] - 0.01

    def test_shared_cache_ablation(self, cache):
        table = sensitivity.shared_cache_ablation(
            scale=SCALE, cache=cache, workloads=["181.mcf"])
        assert len(table.as_dicts()) == 2


class TestCLI:
    def test_list(self, capsys):
        from repro.experiments.cli import main
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table4" in out and "fig6" in out

    def test_single_experiment(self, capsys):
        from repro.experiments.cli import main
        assert main(["table2", "--scale", "0.2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_unknown_experiment(self):
        from repro.experiments.cli import main
        with pytest.raises(SystemExit):
            main(["table99"])

    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_non_positive_scale_is_a_usage_error(self, scale, capsys):
        from repro.experiments.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["table2", "--scale", scale])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--scale must be > 0" in captured.err
        assert "Table 2" not in captured.out


class TestCLIMarkdown:
    def test_markdown_export(self, tmp_path, capsys):
        from repro.experiments.cli import main
        out = tmp_path / "report.md"
        assert main(["table2", "--scale", "0.2", "--markdown",
                     str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# UMI reproduction results")
        assert "| methodology |" in text
        assert "UMI" in text

    def test_bars_flag_on_figure(self, capsys):
        from repro.experiments.cli import main
        assert main(["fig6", "--scale", "0.2", "--bars"]) == 0
        out = capsys.readouterr().out
        assert "#" in out  # bar characters rendered


class TestAppsExperiment:
    def test_applications_have_low_miss_ratios(self, cache):
        from repro.experiments import apps
        table = apps.run(scale=SCALE, cache=cache)
        rows = {r["workload"]: r for r in table.as_dicts()}
        app_rows = [r for name, r in rows.items()
                    if name.startswith("app.")]
        assert len(app_rows) == 4
        # Every application sits well below the SPEC anchors.
        anchor = min(rows["179.art"]["hw_l2_miss_ratio"],
                     rows["181.mcf"]["hw_l2_miss_ratio"])
        assert all(r["hw_l2_miss_ratio"] < anchor / 2 for r in app_rows)
        # UMI still runs at its usual low overhead on them.
        assert all(r["umi_overhead"] < 1.5 for r in app_rows)
