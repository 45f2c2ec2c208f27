"""Tests of the benchmark's own logic (not of the program).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from checks import (  # noqa: E402
    check_requests, error_rate, manifest_entry, tail_percentile,
    validate_metric_name,
)
from hostspeed import NOMINAL_MS, reference_kernel, speed_factors  # noqa: E402
from layers import HOOKS, Hook, Tracer, coverage, derive  # noqa: E402
import run  # noqa: E402


# -- tail percentile ----------------------------------------------------------

@pytest.mark.parametrize("n, pct", [(457, 97), (624, 98), (40, 75),
                                    (30, 66), (11, 9), (1000, 99)])
def test_tail_percentile_known_sizes(n, pct):
    samples = list(range(n, 0, -1))          # order must not matter
    got, value, beyond = tail_percentile(samples)
    assert got == pct
    assert beyond >= 10
    assert sum(1 for s in samples if s > value) == beyond


def test_tail_percentile_is_the_highest_with_ten_beyond():
    for n in range(11, 1500):
        pct, _, beyond = tail_percentile(list(range(n)))
        assert beyond >= 10
        # One percentile higher would leave fewer than 10 beyond.
        next_rank = math.ceil((pct + 1) * n / 100)
        assert pct == 99 or n - next_rank < 10


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)


# -- self time over nested spans ----------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def _manual(name, layer, aggregate=False):
    return Hook(name, layer, None, None, aggregate)


def test_self_time_subtracts_nested_spans():
    """memory access (100) > line-stream drain (50) > consumer (20)."""
    hooks = (_manual("memory.access", "memory", aggregate=True),
             _manual("stream.line_drain", "stream", aggregate=True),
             _manual("counters.on_line_batch", "counters"),
             _manual("engine.run_many", "engine"))
    clock = FakeClock()
    tracer = Tracer(hooks, clock=clock)

    def consumer():
        clock.now += 20

    def drain():
        clock.now += 10
        tracer.call("counters.on_line_batch", consumer)
        clock.now += 20

    def access():
        clock.now += 30
        tracer.call("stream.line_drain", drain)
        clock.now += 20

    def request():
        clock.now += 5
        tracer.call("memory.access", access)
        clock.now += 5

    tracer.begin_request("req-1")
    tracer.call("engine.run_many", request)
    tracer.end_request()

    hook = tracer.summary()["hooks"]
    assert hook["memory.access"]["incl_s"] == pytest.approx(100e-9)
    assert hook["memory.access"]["self_s"] == pytest.approx(50e-9)
    assert hook["stream.line_drain"]["self_s"] == pytest.approx(30e-9)
    assert hook["counters.on_line_batch"]["self_s"] == pytest.approx(20e-9)
    assert hook["engine.run_many"]["self_s"] == pytest.approx(10e-9)
    layers = tracer.layer_self_s()
    assert sum(layers.values()) == pytest.approx(110e-9)
    # The request span's own 10 ns is not attributed to a layer.
    assert tracer.summary()["attributed_s"] == pytest.approx(100e-9)
    assert coverage(tracer.summary(), 110e-9) == pytest.approx(100 / 110)

    # Only non-aggregated hooks leave span records; the consumer's
    # parent is the nearest recorded ancestor, the request span.
    spans = {name: (sid, parent, req)
             for sid, parent, name, req, _, _ in tracer.spans}
    assert set(spans) == {"counters.on_line_batch", "engine.run_many"}
    assert spans["counters.on_line_batch"][1] == spans["engine.run_many"][0]
    assert spans["engine.run_many"][1] == 0
    assert {req for _, _, req in spans.values()} == {"req-1"}


def test_installed_tracer_attributes_a_real_hierarchy():
    """Real MemoryHierarchy + counters: drains and consumers nest."""
    from repro.counters import HardwareCounters
    from repro.memory import CacheConfig, MachineConfig, MemoryHierarchy

    machine = MachineConfig(
        name="tiny",
        l1=CacheConfig(size=256, assoc=2, line_size=64, hit_latency=1),
        l2=CacheConfig(size=2048, assoc=4, line_size=64, hit_latency=8),
        memory_latency=50)
    tracer = Tracer()
    tracer.install()
    try:
        hierarchy = MemoryHierarchy(machine, line_batch_size=4)
        counters = HardwareCounters()
        counters.program("l2_miss")
        counters.attach(hierarchy)
        for i in range(64):
            hierarchy.access(0x40, (i % 4) * 64, False)
    finally:
        tracer.uninstall()
    assert not hasattr(MemoryHierarchy.access, "__wrapped__")
    tracer.fold_instances()
    summary = tracer.summary()
    hooks = summary["hooks"]
    assert hooks["memory.access"]["calls"] == 64
    assert hooks["stream.line_drain"]["calls"] == 16
    assert summary["batches"] == 16
    assert hooks["counters.on_line_batch"]["calls"] == 16
    mem = hooks["memory.access"]
    assert 0 < mem["self_s"] < mem["incl_s"]
    assert summary["attributed_s"] == pytest.approx(
        sum(summary["layers"].values()))
    assert summary["l1_refs"] == 64 and summary["l1_misses"] == 4
    metrics = derive(summary)
    assert metrics["memory.calls"] == 64
    assert metrics["sim.l1_hit_ratio"] == pytest.approx(60 / 64)


def test_unhooked_inner_call_lowers_coverage():
    """Time in code no hook names falls into the request span's self
    time, which coverage leaves out."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def hooked():
        clock.now += 60

    def unhooked():                  # e.g. building a hierarchy
        clock.now += 40

    def request():
        tracer.call("vm.run_native", hooked)
        unhooked()

    def render():
        clock.now += 25

    tracer.call("engine.run_many", request)
    tracer.call("experiments.tables", render)
    summary = tracer.summary()
    assert summary["attributed_s"] == pytest.approx(60e-9)
    assert coverage(summary, 125e-9) == pytest.approx(60 / 125)
    metrics = derive(summary)
    assert metrics["vm.self_s"] == pytest.approx(60e-9)
    assert metrics["engine.overhead_s"] == pytest.approx(40e-9)
    assert metrics["experiments.render_s"] == pytest.approx(25e-9)


def test_setup_reps_spread_over_the_sweep():
    at = run.spread_indices(run.SETUP_REPS, 457)
    assert len(at) == run.SETUP_REPS and at[0] == 0
    gaps = [b - a for a, b in zip(at, at[1:])]
    assert max(gaps) - min(gaps) <= 1
    assert run.spread_indices(5, 3) == [0, 1, 2]


# -- host-speed normalisation -------------------------------------------------

def test_reference_kernel_is_fixed_work():
    assert reference_kernel() == reference_kernel()
    assert reference_kernel()[1] > 0


def test_speed_factors_follow_a_wave_and_ignore_a_burst():
    refs = [3.0] * 20 + [4.8] * 20
    refs[5] = 30.0                   # one sample caught in a burst
    factors = speed_factors(refs, window=8, nominal_ms=3.0)
    assert factors[:20] == [1.0] * 20
    assert factors[20:] == pytest.approx([3.0 / 4.8] * 20)


def test_normalised_metrics_cancel_a_slower_host():
    """The same work on a host 1.6x slower reads the same."""
    from types import SimpleNamespace

    def measure(slowdown):
        result = SimpleNamespace(latencies=[0.1 * slowdown] * 30,
                                 render_s=0.5 * slowdown, steps=3_000_000)
        refs = [NOMINAL_MS * slowdown] * 30
        setups = [(0, 0.4 * slowdown), (15, 0.4 * slowdown)]
        return run.normalised_metrics(result, refs, setups)

    calm, slow = measure(1.0), measure(1.6)
    assert calm["sweep_s"] == pytest.approx(3.5)
    for name in ("sweep_s", "msteps_per_s", "lat_p50_ms", "lat_tail_ms",
                 "setup_s"):
        assert slow[name] == pytest.approx(calm[name])


def test_every_hook_target_exists():
    from layers import _resolve

    for hook in HOOKS:
        if hook.module is not None:
            _resolve(hook.module, hook.qualname)


# -- manifest mismatches ------------------------------------------------------

def _requests():
    payloads = {f"d{i}": {"cycles": 100 + i, "steps": 10 * i,
                          "hw_counters": {"l1_refs": i}} for i in range(6)}
    manifest = {"payloads": {d: manifest_entry(p)
                             for d, p in payloads.items()}}
    requests = [[("d0", "a", payloads["d0"]), ("d1", "b", payloads["d1"])],
                [("d2", "c", payloads["d2"])],
                [("d3", "d", payloads["d3"])],
                [("d4", "e", payloads["d4"]), ("d5", "f", payloads["d5"])]]
    return payloads, manifest, requests


def test_matching_payloads_pass():
    _, manifest, requests = _requests()
    assert check_requests(requests, manifest) == (0, None)


def test_manifest_mismatch_counts_into_error_rate():
    payloads, manifest, requests = _requests()
    payloads["d5"]["hw_counters"] = {"l1_refs": 99}   # drift in request 4
    payloads["d2"]["steps"] = -1                       # drift in request 2
    failed, first = check_requests(requests, manifest)
    assert failed == 2
    assert first == "c (d2) drifted from the manifest in field 'steps'"
    assert error_rate(len(requests), failed) == 0.5


def test_failed_run_and_unknown_spec_count_as_failures():
    payloads, manifest, requests = _requests()
    requests[0][1] = ("d1", "b", None)                   # run failed
    requests[2][0] = ("zz", "d", payloads["d3"])         # not in manifest
    failed, first = check_requests(requests, manifest)
    assert failed == 2
    assert "failed to run" in first
    # Without a manifest only the failed run counts.
    assert check_requests(requests, None)[0] == 1


# -- metric names -------------------------------------------------------------

@pytest.mark.parametrize("bad", ["", "a b", "-lead", ".lead", "x/y", "é",
                                 "x" * 65, "p50%"])
def test_bad_metric_names_rejected(bad):
    with pytest.raises(ValueError):
        validate_metric_name(bad)


def test_reported_metric_names_are_valid_and_declared():
    for name in list(run.END_TO_END) + list(run.PER_LAYER):
        validate_metric_name(name)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} \
        == run.PER_LAYER
    assert {w["name"] for w in declared["workloads"]} == set(run.WORKLOADS)
