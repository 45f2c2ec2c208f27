"""The named benchmark kernels behind ``umi-experiments bench``.

Five kernels cover the repo's hot paths:

``interpreter``
    The compiled-block VM (:class:`repro.vm.Interpreter`) executing an
    Olden workload against flat memory -- pure execution cost, no cache
    model -- versus the retained tuple-dispatch loop
    (:class:`repro.vm.reference.ReferenceInterpreter`) on the same
    program, with identical final machine state asserted.  The
    ``speedup`` meta field is reported but carries no floor.
``minisim``
    The analyzer's batch mini cache simulator
    (:class:`repro.core.analyzer.MiniCacheSimulator`) versus the
    retained reference loop
    (:class:`repro.memory.cache_reference.ReferenceMiniCacheSimulator`)
    on the address profiles UMI records over the paper's workload suite
    (:func:`record_paper_profiles`), replayed in recording order with
    triggers spaced one flush interval apart (the prototype flushes on
    essentially every trigger, Section 5).  Both simulators must
    produce bit-identical per-pc statistics; the ``speedup`` meta field
    is the acceptance number guarded by
    :data:`repro.bench.report.SPEEDUP_FLOORS`.
``fullsim``
    The batched Cachegrind-style simulator, fed through the columnar
    reference-stream hub exactly as production runs feed it, versus the
    retained one-cell-at-a-time reference loop
    (:class:`repro.fullsim.reference.ReferenceCachegrindSimulator`) on
    one synthetic reference stream, with per-pc load-miss equality
    asserted.  The ``speedup`` meta field is guarded by
    :data:`repro.bench.report.SPEEDUP_FLOORS`.
``pipeline``
    The columnar reference-stream hub (:class:`repro.stream.RefStream`)
    fanning a synthetic event stream out to a no-op consumer -- the
    pure emit/batch/deliver overhead every consumer-carrying run pays
    on top of the interpreter -- versus the retained array-of-structs
    hub (:class:`repro.stream.reference.ReferenceRefStream`) on the
    same stream.  The ``speedup`` meta field is guarded by
    :data:`repro.bench.report.SPEEDUP_FLOORS`.
``table4_smoke``
    One end-to-end UMI + Cachegrind run of a small workload -- the
    Table 4 pipeline in miniature, catching regressions that only
    appear when runtime, analyzer and full simulator compose.

Each kernel rebuilds its inputs from fixed seeds or fixed workloads, so
timings are comparable across runs and the equality assertions are
deterministic.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.analyzer import MiniCacheSimulator
from repro.core.config import UMIConfig
from repro.core.profiles import AddressProfile
from repro.fullsim.cachegrind import CachegrindSimulator
from repro.fullsim.reference import ReferenceCachegrindSimulator
from repro.memory import get_machine
from repro.memory.cache_reference import ReferenceMiniCacheSimulator

from .harness import BenchResult, run_benchmark, run_paired

#: Machine model every kernel simulates (scaled pentium4: 2048-line L2).
BENCH_MACHINE = "pentium4"
BENCH_MACHINE_SCALE = 16

#: Workload scale the ``minisim`` profiles are recorded at (the scale of
#: the paper wavefront ``umi-experiments all --scale 0.1`` runs).
MINISIM_SCALE = 0.1

Clock = Callable[[], float]


# -- recorded inputs ----------------------------------------------------------

def record_paper_profiles() -> Tuple[List[str], List[AddressProfile]]:
    """Address profiles UMI records over the paper's workload suite.

    Runs UMI with profile retention on every workload of the ``paper``
    set on the bench machine and returns ``(workloads, profiles)``, the
    profiles in the order each run's analyzer consumed them.
    """
    from repro.core.umi import UMIRuntime
    from repro.workloads import get_workload
    from repro.workloads.sets import resolve_set

    machine = get_machine(BENCH_MACHINE, scale=BENCH_MACHINE_SCALE)
    workloads = resolve_set("paper")
    profiles: List[AddressProfile] = []
    for name in workloads:
        umi = UMIRuntime(get_workload(name).build(MINISIM_SCALE), machine,
                         UMIConfig(retain_profiles=True))
        umi.run()
        profiles += umi.profile_archive
    return workloads, profiles


# -- synthetic inputs ---------------------------------------------------------

def synth_reference_stream(seed: int = 5, n_refs: int = 60_000,
                           n_pcs: int = 40, hot_fraction: float = 0.5,
                           ) -> Tuple[List[int], List[int], List[bool]]:
    """A deterministic (pc, addr, is_write) load/store stream."""
    rng = random.Random(seed)
    pcs = []
    addrs = []
    writes = []
    hot_base = rng.randrange(1 << 10) << 6
    for i in range(n_refs):
        pcs.append(0x400 + 8 * (i % n_pcs))
        if rng.random() < hot_fraction:
            addrs.append(hot_base + 64 * rng.randrange(512))
        else:
            addrs.append(rng.randrange(1 << 14) << 6)
        writes.append(rng.random() < 0.3)
    return pcs, addrs, writes


def synth_phased_stream(seed: int = 9, n_refs: int = 60_000,
                        phase_len: int = 4800, n_windows: int = 96,
                        window_lines: int = 12, heap_lines: int = 16_384,
                        n_pcs: int = 40, write_fraction: float = 0.3,
                        ) -> Tuple[List[int], List[int], List[bool]]:
    """A deterministic load/store stream with phase locality.

    Real data streams -- and the premise of the paper -- are phased:
    execution dwells on one small working set, then migrates to
    another.  Each phase here draws a contiguous ``window_lines``-line
    window from a fixed pool and references it at random for
    ``phase_len`` references, so D1 misses cluster at phase entries
    (the window streaming in) while the pool, sized past the scaled
    L2, keeps window revisits missing there.  Contiguous windows map
    evenly across cache sets, so the within-phase regime is genuinely
    resident rather than conflict-thrashed -- the operating point
    Cachegrind spends almost all of its time in.
    """
    rng = random.Random(seed)
    bases = [rng.randrange(heap_lines - window_lines)
             for _ in range(n_windows)]
    pcs: List[int] = []
    addrs: List[int] = []
    writes: List[bool] = []
    base = bases[0]
    for i in range(n_refs):
        if i % phase_len == 0:
            base = bases[rng.randrange(n_windows)]
        line = base + rng.randrange(window_lines)
        pcs.append(0x400 + 8 * (i % n_pcs))
        addrs.append((line << 6) + 8 * rng.randrange(7))
        writes.append(rng.random() < write_fraction)
    return pcs, addrs, writes


# -- equality guards ----------------------------------------------------------

def assert_minisim_equal(opt: MiniCacheSimulator,
                         ref: ReferenceMiniCacheSimulator) -> None:
    """Bit-identical accumulated per-pc statistics, or raise."""
    if opt.pc_stats.keys() != ref.pc_stats.keys():
        raise AssertionError("minisim kernels disagree on pc set")
    for pc, a in opt.pc_stats.items():
        b = ref.pc_stats[pc]
        if (a.refs, a.misses) != (b.refs, b.misses):
            raise AssertionError(
                f"minisim divergence at pc {pc:#x}: "
                f"opt=({a.refs},{a.misses}) ref=({b.refs},{b.misses})")
    if opt.flushes != ref.flushes:
        raise AssertionError("minisim kernels disagree on flush count")


def assert_fullsim_equal(opt: CachegrindSimulator,
                         ref: ReferenceCachegrindSimulator) -> None:
    """Identical per-pc load accounting across both simulators."""
    a, b = opt.load_stats, ref.load_stats
    if a.keys() != b.keys():
        raise AssertionError("fullsim kernels disagree on load pc set")
    for pc, sa in a.items():
        sb = b[pc]
        if (sa.refs, sa.l1_misses, sa.l2_misses) != \
                (sb.refs, sb.l1_misses, sb.l2_misses):
            raise AssertionError(
                f"fullsim divergence at pc {pc:#x}: "
                f"opt=({sa.refs},{sa.l1_misses},{sa.l2_misses}) "
                f"ref=({sb.refs},{sb.l1_misses},{sb.l2_misses})")


# -- kernels ------------------------------------------------------------------

def assert_machine_state_equal(opt, ref) -> None:
    """Identical final machine state from two interpreters, or raise."""
    for field in ("regs", "memory", "flags", "cycles", "steps", "halted",
                  "call_stack"):
        if getattr(opt, field) != getattr(ref, field):
            raise AssertionError(
                f"interpreters disagree on final machine {field}")


def _bench_interpreter(quick: bool, warmup: int, repeat: int,
                       clock: Clock) -> BenchResult:
    from repro.memory.flat import FlatMemory
    from repro.vm.interpreter import Interpreter
    from repro.vm.reference import ReferenceInterpreter
    from repro.workloads import get_workload

    scale = 0.2 if quick else 0.5
    program = get_workload("em3d").build(scale)

    def run_opt():
        return Interpreter(program, FlatMemory(latency=0)).run_native()

    def run_ref():
        return ReferenceInterpreter(program,
                                    FlatMemory(latency=0)).run_native()

    final = run_opt()
    assert_machine_state_equal(final, run_ref())

    result = run_paired("interpreter", run_opt, run_ref, warmup=warmup,
                        repeat=repeat, clock=clock)
    result.meta.update(workload="em3d", scale=scale, steps=final.steps)
    return result


def _bench_minisim(quick: bool, warmup: int, repeat: int,
                   clock: Clock) -> BenchResult:
    config = UMIConfig()
    host_l2 = get_machine(BENCH_MACHINE, scale=BENCH_MACHINE_SCALE).l2
    workloads, profiles = record_paper_profiles()
    # Triggers spaced exactly one flush interval apart: the paper's
    # prototype regime, where the shared cache flushes on (nearly)
    # every analyzer invocation.
    gap = config.flush_interval or 0

    def run_opt():
        sim = MiniCacheSimulator(config, host_l2)
        for i, profile in enumerate(profiles):
            sim.maybe_flush(i * gap)
            sim.analyze(profile)
        return sim

    def run_ref():
        sim = ReferenceMiniCacheSimulator(config, host_l2)
        for i, profile in enumerate(profiles):
            sim.maybe_flush(i * gap)
            sim.analyze(profile)
        return sim

    opt_sim = run_opt()
    assert_minisim_equal(opt_sim, run_ref())

    result = run_paired("minisim", run_opt, run_ref, warmup=warmup,
                        repeat=repeat, clock=clock)
    result.meta.update(
        workloads=len(workloads),
        scale=MINISIM_SCALE,
        profiles=len(profiles),
        references=opt_sim.references_simulated,
        flushes=opt_sim.flushes,
    )
    return result


def _bench_fullsim(quick: bool, warmup: int, repeat: int,
                   clock: Clock) -> BenchResult:
    from repro.stream import KIND_READ, KIND_WRITE, RefStream

    machine = get_machine(BENCH_MACHINE, scale=BENCH_MACHINE_SCALE)
    n_refs = 15_000 if quick else 60_000
    pcs, addrs, writes = synth_phased_stream(n_refs=n_refs)
    stream = list(zip(pcs, addrs, writes))
    # The same trace in each simulator's native input format, prebuilt
    # so both timed loops measure pure consumption: the reference takes
    # one observe() call per event (its whole interface), the batched
    # simulator takes the columnar RefBatch records the hub hands it in
    # production.  The cost of *producing* batches is the pipeline
    # kernel's subject, not this one's.
    batches: List = []

    class _Grab:
        wants_ifetch = True

        def on_batch(self, batch):
            batches.append(batch)

        def finish(self):
            pass

    hub = RefStream()
    hub.attach(_Grab())
    emit = hub.emit
    for pc, addr, w in stream:
        emit(pc, addr, 8, KIND_WRITE if w else KIND_READ, 0)
    hub.finish()

    def run_opt():
        sim = CachegrindSimulator(machine)
        on_batch = sim.on_batch
        for batch in batches:
            on_batch(batch)
        sim.finish()
        return sim

    def run_ref():
        sim = ReferenceCachegrindSimulator(machine)
        observe = sim.observe
        for pc, addr, is_write in stream:
            observe(pc, addr, is_write, 8)
        return sim

    opt_sim = run_opt()
    assert_fullsim_equal(opt_sim, run_ref())

    result = run_paired("fullsim", run_opt, run_ref, warmup=warmup,
                        repeat=repeat, clock=clock)
    result.meta.update(references=n_refs,
                       l2_miss_ratio=opt_sim.l2_miss_ratio())
    return result


def _bench_pipeline(quick: bool, warmup: int, repeat: int,
                    clock: Clock) -> BenchResult:
    from repro.stream import KIND_READ, KIND_WRITE, NullRefConsumer, RefStream
    from repro.stream.reference import ReferenceRefStream

    n_refs = 60_000 if quick else 240_000
    pcs, addrs, writes = synth_reference_stream(
        n_refs=min(n_refs, 60_000))
    events = [(pc, addr, KIND_WRITE if w else KIND_READ)
              for pc, addr, w in zip(pcs, addrs, writes)]
    rounds = max(1, n_refs // len(events))

    def drive(make_stream):
        stream = make_stream()
        stream.attach(NullRefConsumer())
        emit = stream.emit
        cycle = 0
        for _ in range(rounds):
            for pc, addr, kind in events:
                emit(pc, addr, 8, kind, cycle)
                cycle += 1
        stream.finish()
        return cycle

    def run():
        return drive(RefStream)

    def run_ref():
        return drive(ReferenceRefStream)

    total = run()
    result = run_paired("pipeline", run, run_ref, warmup=warmup,
                        repeat=repeat, clock=clock)
    result.meta.update(
        events=total,
        ns_per_event=(1e9 * result.median_s / total if total else 0.0),
        reference_ns_per_event=(
            1e9 * result.meta["reference_median_s"] / total
            if total else 0.0),
    )
    return result


def _bench_table4_smoke(quick: bool, warmup: int, repeat: int,
                        clock: Clock) -> BenchResult:
    from repro.runners import run_mode
    from repro.workloads import get_workload

    scale = 0.05 if quick else 0.2
    program = get_workload("em3d").build(scale)
    machine = get_machine(BENCH_MACHINE, scale=BENCH_MACHINE_SCALE)

    def run():
        return run_mode("umi", program, machine, with_cachegrind=True)

    outcome = run()
    result = run_benchmark("table4_smoke", run, warmup=warmup,
                           repeat=repeat, clock=clock)
    result.meta.update(
        workload="em3d", scale=scale, steps=outcome.steps,
        simulated_miss_ratio=outcome.umi.simulated_miss_ratio,
        cachegrind_l2_miss_ratio=outcome.cachegrind.l2_miss_ratio(),
    )
    return result


#: kernel name -> (runner, default (warmup, repeat)).
KERNELS: Dict[str, Callable[[bool, int, int, Clock], BenchResult]] = {
    "interpreter": _bench_interpreter,
    "minisim": _bench_minisim,
    "fullsim": _bench_fullsim,
    "pipeline": _bench_pipeline,
    "table4_smoke": _bench_table4_smoke,
}

DEFAULT_WARMUP = 1
DEFAULT_REPEAT = 5
QUICK_REPEAT = 3


def run_kernel(name: str, quick: bool = False,
               warmup: Optional[int] = None,
               repeat: Optional[int] = None,
               clock: Clock = time.perf_counter) -> BenchResult:
    """Run one named kernel and return its :class:`BenchResult`."""
    try:
        kernel = KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown bench kernel {name!r}; known: {sorted(KERNELS)}"
        ) from None
    if warmup is None:
        warmup = DEFAULT_WARMUP
    if repeat is None:
        repeat = QUICK_REPEAT if quick else DEFAULT_REPEAT
    return kernel(quick, warmup, repeat, clock)


def run_kernels(names=None, quick: bool = False,
                warmup: Optional[int] = None,
                repeat: Optional[int] = None,
                clock: Clock = time.perf_counter
                ) -> Dict[str, BenchResult]:
    """Run several kernels (all of them by default), in registry order."""
    if names is None:
        names = list(KERNELS)
    return {
        name: run_kernel(name, quick=quick, warmup=warmup,
                         repeat=repeat, clock=clock)
        for name in names
    }
