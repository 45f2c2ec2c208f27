"""Tests for the micro-benchmark harness, report schema and checks."""

import json

import pytest

from repro.bench.harness import BenchResult, run_benchmark, run_paired
from repro.bench.report import (
    DEFAULT_EXECUTION, REGRESSION_THRESHOLD, SCHEMA_VERSION,
    SPEEDUP_FLOORS, build_report, check_floors, compare_reports,
    context_fingerprint, host_speed_factor, load_report, render_report,
    report_results, write_report,
)


class FakeClock:
    """Deterministic clock: each timed call advances by ``step``."""

    def __init__(self, step=0.25, start=100.0):
        self.now = start
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestHarness:
    def test_warmup_and_repeat_counts(self):
        calls = []
        result = run_benchmark("k", lambda: calls.append(1),
                               warmup=3, repeat=4, clock=FakeClock())
        assert len(calls) == 7          # 3 untimed + 4 timed
        assert result.warmup == 3
        assert result.repeat == 4
        assert len(result.times) == 4

    def test_fake_clock_times_are_deterministic(self):
        # Each repeat brackets fn with two clock reads 0.25s apart.
        result = run_benchmark("k", lambda: None, warmup=0, repeat=3,
                               clock=FakeClock(step=0.25))
        assert result.times == [0.25, 0.25, 0.25]
        assert result.median_s == 0.25
        assert result.iqr_s == 0.0
        assert result.best_s == 0.25

    def test_median_and_iqr(self):
        result = BenchResult("k", warmup=0, repeat=5,
                             times=[1.0, 2.0, 3.0, 4.0, 10.0])
        assert result.median_s == 3.0
        assert result.iqr_s == pytest.approx(2.0)  # Q3=4, Q1=2
        assert result.best_s == 1.0

    def test_single_repeat_has_zero_iqr(self):
        result = BenchResult("k", warmup=0, repeat=1, times=[0.5])
        assert result.median_s == 0.5
        assert result.iqr_s == 0.0

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark("k", lambda: None, repeat=0)
        with pytest.raises(ValueError):
            run_benchmark("k", lambda: None, warmup=-1)


class SteppedClock:
    """Clock that only moves when a benchmarked callable advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestPairedHarness:
    def test_calls_alternate_opt_and_reference(self):
        calls = []
        run_paired("k", lambda: calls.append("opt"),
                   lambda: calls.append("ref"),
                   warmup=2, repeat=3, clock=SteppedClock())
        assert calls == ["opt", "ref"] * 5

    def test_speedup_is_reference_median_over_opt_median(self):
        clock = SteppedClock()
        opt_costs = iter([1.0, 2.0, 9.0])
        ref_costs = iter([3.0, 6.0, 4.0])

        def advance(costs):
            def call():
                clock.now += next(costs)
            return call

        result = run_paired("k", advance(opt_costs), advance(ref_costs),
                            warmup=0, repeat=3, clock=clock)
        assert result.times == [1.0, 2.0, 9.0]
        assert result.median_s == 2.0
        assert result.meta["reference_median_s"] == 4.0
        assert result.meta["speedup"] == 2.0


def make_result(name="minisim", median=0.010, speedup=4.0):
    times = [median] * 3
    result = BenchResult(name, warmup=1, repeat=3, times=times)
    if speedup is not None:
        result.meta["speedup"] = speedup
    return result


class TestReport:
    def test_schema_round_trip(self, tmp_path):
        results = {"minisim": make_result(),
                   "interpreter": make_result("interpreter",
                                              speedup=None)}
        report = build_report(results)
        path = str(tmp_path / "bench.json")
        write_report(report, path)
        loaded = load_report(path)
        assert loaded == report
        assert loaded["schema_version"] == SCHEMA_VERSION
        assert loaded["context"] == context_fingerprint()
        recovered = report_results(loaded)
        assert recovered.keys() == results.keys()
        for name, result in recovered.items():
            assert result.to_dict() == results[name].to_dict()

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 999,
                                    "kernels": {}}))
        with pytest.raises(ValueError):
            load_report(str(path))

    def test_floor_passes_at_or_above(self):
        floor = SPEEDUP_FLOORS["minisim"]
        report = build_report(
            {"minisim": make_result(speedup=floor)})
        assert check_floors(report) == []

    def test_floor_fails_below(self):
        below = SPEEDUP_FLOORS["minisim"] - 0.1
        report = build_report({"minisim": make_result(speedup=below)})
        failures = check_floors(report)
        assert len(failures) == 1
        assert "minisim" in failures[0]

    def test_floor_fails_when_speedup_missing(self):
        report = build_report({"minisim": make_result(speedup=None)})
        assert check_floors(report)

    def test_regression_over_threshold_fails(self):
        baseline = build_report({"minisim": make_result(median=0.010)})
        slow = 0.010 * (1 + REGRESSION_THRESHOLD) * 1.05
        current = build_report({"minisim": make_result(median=slow)})
        failures = compare_reports(current, baseline)
        assert any("minisim" in f and "baseline" in f
                   for f in failures)

    def test_regression_within_threshold_passes(self):
        baseline = build_report({"minisim": make_result(median=0.010)})
        current = build_report({"minisim": make_result(median=0.011)})
        assert compare_reports(current, baseline) == []

    def test_faster_than_baseline_passes(self):
        baseline = build_report({"minisim": make_result(median=0.010)})
        current = build_report({"minisim": make_result(median=0.002)})
        assert compare_reports(current, baseline) == []

    @staticmethod
    def timed_report(scales):
        """Every kernel with a retained reference, plus one without,
        each optimized and reference median multiplied by its scale."""
        results = {}
        for name, base in (("fullsim", 0.015), ("minisim", 0.038),
                           ("pipeline", 0.054), ("interpreter", 0.013)):
            scale = scales.get(name, 1.0)
            result = make_result(name, median=base * scale,
                                 speedup=None if name == "interpreter"
                                 else 3.0)
            if name != "interpreter":
                result.meta["reference_median_s"] = 3 * base * scale
            results[name] = result
        return build_report(results)

    def test_uniformly_slower_host_passes(self):
        # A host 1.7x slower everywhere (the reference kernels too)
        # is a slower host, not a regression.
        baseline = self.timed_report({})
        slower = self.timed_report(dict.fromkeys(
            ("fullsim", "minisim", "pipeline", "interpreter"), 1.7))
        assert host_speed_factor(slower, baseline) == pytest.approx(1.7)
        assert compare_reports(slower, baseline) == []

    @pytest.mark.parametrize("kernel", ["fullsim", "interpreter"])
    def test_one_slower_kernel_still_fails(self, kernel):
        # Only one kernel's optimized code is 1.7x slower: the
        # references place the host at baseline speed.
        baseline = self.timed_report({})
        current = self.timed_report({})
        current["kernels"][kernel]["median_s"] *= 1.7
        current["kernels"][kernel]["times_s"] = [
            t * 1.7 for t in current["kernels"][kernel]["times_s"]]
        assert host_speed_factor(current, baseline) == pytest.approx(1.0)
        failures = compare_reports(current, baseline)
        assert len(failures) == 1 and kernel in failures[0]

    def test_host_speed_defaults_to_one_without_references(self):
        baseline = build_report({"minisim": make_result(median=0.010)})
        current = build_report({"minisim": make_result(median=0.020)})
        assert host_speed_factor(current, baseline) == 1.0

    def test_fingerprint_mismatch_skips_median_comparison(self):
        baseline = build_report({"minisim": make_result(median=0.001)})
        baseline["context"] = dict(baseline["context"],
                                   machine="other-arch")
        current = build_report({"minisim": make_result(median=1.0)})
        # 1000x slower but measured on a different host: no failure.
        assert compare_reports(current, baseline) == []

    def test_execution_recorded_with_serial_default(self):
        report = build_report({"minisim": make_result()})
        assert report["execution"] == DEFAULT_EXECUTION
        custom = build_report({"minisim": make_result()},
                              execution={"pool": "socket", "workers": 4})
        assert custom["execution"] == {"pool": "socket", "workers": 4}

    def test_execution_mismatch_skips_median_comparison(self):
        # Timings taken under different execution backends (pool kind
        # or worker count) never median-compare, like a host mismatch.
        baseline = build_report({"minisim": make_result(median=0.001)})
        current = build_report(
            {"minisim": make_result(median=1.0)},
            execution={"pool": "local", "workers": 4})
        assert compare_reports(current, baseline) == []

    def test_missing_execution_field_defaults_to_serial(self):
        # Reports written before the field existed compare as serial.
        baseline = build_report({"minisim": make_result(median=0.001)})
        del baseline["execution"]
        slow = build_report({"minisim": make_result(median=1.0)})
        assert any("baseline" in f
                   for f in compare_reports(slow, baseline))

    def test_quick_full_mismatch_skips_median_comparison(self):
        baseline = build_report({"minisim": make_result(median=0.001)},
                                quick=False)
        current = build_report({"minisim": make_result(median=1.0)},
                               quick=True)
        assert compare_reports(current, baseline) == []

    def test_floors_enforced_even_without_baseline(self):
        current = build_report({"minisim": make_result(speedup=1.0)})
        assert compare_reports(current, None)

    def test_new_kernel_without_baseline_entry_passes(self):
        baseline = build_report({})
        current = build_report({"interpreter": make_result(
            "interpreter", speedup=None)})
        assert compare_reports(current, baseline) == []

    def test_render_mentions_every_kernel(self):
        report = build_report({"minisim": make_result(),
                               "fullsim": make_result("fullsim")})
        rendered = render_report(report)
        assert "minisim" in rendered and "fullsim" in rendered
        assert "4.00x" in rendered


class TestKernels:
    def test_minisim_replays_recorded_paper_profiles(self, monkeypatch):
        """The kernel's input is UMI's recorded profiles, not synthetic."""
        from repro.bench import run_kernel
        from repro.core.analyzer import MiniCacheSimulator
        from repro.workloads.sets import resolve_set

        heads = []
        analyze = MiniCacheSimulator.analyze

        def spy(self, profile):
            heads.append(profile.trace_head)
            return analyze(self, profile)

        monkeypatch.setattr(MiniCacheSimulator, "analyze", spy)
        # Raises AssertionError if the two simulators disagree.
        result = run_kernel("minisim", quick=True, warmup=0, repeat=1)
        meta = result.meta
        assert meta["workloads"] == len(resolve_set("paper"))
        assert meta["profiles"] > 0 and meta["references"] > 0
        assert meta["speedup"] > 0
        assert heads and not any(h.startswith("bench") for h in heads)


class TestCLI:
    def test_bench_cli_smoke(self, tmp_path, monkeypatch):
        """End-to-end: tiny kernel subset through the subcommand."""
        from repro.experiments.cli import main

        out = tmp_path / "BENCH_kernels.json"
        code = main(["bench", "--quick", "--kernels", "interpreter",
                     "--repeat", "1", "--warmup", "0",
                     "--output", str(out)])
        assert code == 0
        report = load_report(str(out))
        assert report["quick"] is True
        assert set(report["kernels"]) == {"interpreter"}
        assert report["kernels"]["interpreter"]["median_s"] > 0

    def test_bench_cli_check_failure_exits_nonzero(self, tmp_path):
        from repro.experiments.cli import main

        out = tmp_path / "bench.json"
        baseline = tmp_path / "baseline.json"
        # A baseline claiming the interpreter kernel once took ~0s
        # forces a >20% regression verdict.
        fast = build_report(
            {"interpreter": make_result("interpreter", median=1e-9,
                                        speedup=None)},
            quick=True)
        write_report(fast, str(baseline))
        code = main(["bench", "--quick", "--kernels", "interpreter",
                     "--repeat", "1", "--warmup", "0",
                     "--check", "--baseline", str(baseline),
                     "--output", str(out)])
        assert code == 1

    @pytest.mark.parametrize("flags, message", [
        (["--repeat", "0"], "--repeat must be >= 1"),
        (["--warmup", "-1"], "--warmup must be >= 0"),
    ])
    def test_bench_cli_rejects_bad_counts(self, flags, message, capsys,
                                          monkeypatch):
        import repro.bench
        from repro.experiments.cli import main

        monkeypatch.setattr(repro.bench, "run_kernels", _no_kernel_runs)
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--kernels", "interpreter"] + flags)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind, message", [
        ("missing", "does not exist"),
        ("directory", "is a directory"),
    ])
    def test_bench_cli_rejects_bad_baseline_before_running(
            self, kind, message, tmp_path, capsys, monkeypatch):
        import repro.bench
        from repro.experiments.cli import main

        monkeypatch.setattr(repro.bench, "run_kernels", _no_kernel_runs)
        baseline = tmp_path / "baseline"
        if kind == "directory":
            baseline.mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--quick", "--kernels", "interpreter",
                  "--check", "--baseline", str(baseline),
                  "--output", str(tmp_path / "out.json")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_bench_cli_rejects_unknown_kernel(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["bench", "--kernels", "nope"])


def _no_kernel_runs(*args, **kwargs):
    raise AssertionError("kernels ran before the bad input was rejected")
