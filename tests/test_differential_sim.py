"""Differential testing: mini simulator vs full simulator vs reference.

Three layers of cross-checks over real (small) workloads:

* the batched :class:`~repro.fullsim.cachegrind.CachegrindSimulator`
  against the retained one-cell-at-a-time
  :class:`~repro.fullsim.reference.ReferenceCachegrindSimulator` --
  identical per-pc reference and miss accounting;
* UMI's sampling mini simulator against the full simulator -- the mini
  side can only ever see a subset of what the full trace contains, so
  per-pc mini reference counts are bounded by full-sim counts;
* end-to-end determinism -- two independent UMI+Cachegrind runs of the
  same workload produce identical delinquent-load sets and
  miss-ratio/correlation figures to 1e-9 (they are pure integer
  simulations; the tolerance guards only float summarization).
"""

import pytest

from repro.core.config import UMIConfig
from repro.fullsim.cachegrind import CachegrindSimulator
from repro.fullsim.reference import ReferenceCachegrindSimulator
from repro.memory import get_machine
from repro.memory.flat import FlatMemory
from repro.runners import run_mode
from repro.stats.correlation import pearson
from repro.stream import KIND_IFETCH, KIND_WRITE, RefConsumer, RefStream
from repro.vm.interpreter import Interpreter
from repro.workloads import get_workload

WORKLOADS = ["em3d", "mst", "health", "treeadd"]
SCALE = 0.05
MACHINE = get_machine("pentium4", scale=16)


def build(name):
    return get_workload(name).build(SCALE)


class ObserveTap(RefConsumer):
    """Adapts the reference simulator's plain ``observe`` method.

    The reference loop is deliberately frozen pre-pipeline code, so it
    is not a :class:`RefConsumer` itself.
    """

    def __init__(self, observe):
        self._observe = observe

    def on_batch(self, batch):
        observe = self._observe
        for pc, addr, size, kind in zip(batch.pcs, batch.addrs,
                                        batch.sizes, batch.kinds):
            if kind != KIND_IFETCH:
                observe(pc, addr, kind == KIND_WRITE, size)


def run_reference_cachegrind(program):
    sim = ReferenceCachegrindSimulator(MACHINE)
    stream = RefStream()
    stream.attach(ObserveTap(sim.observe))
    interp = Interpreter(program, FlatMemory(latency=0), stream=stream)
    interp.run_native()
    stream.finish()
    return sim


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fullsim_matches_reference_loop(workload):
    """Batched Cachegrind == cell-at-a-time reference, per pc."""
    program = build(workload)
    opt = CachegrindSimulator(MACHINE)
    opt.run(program)
    ref = run_reference_cachegrind(program)

    assert opt.load_stats.keys() == ref.load_stats.keys()
    for pc, a in opt.load_stats.items():
        b = ref.load_stats[pc]
        assert (a.refs, a.l1_misses, a.l2_misses) \
            == (b.refs, b.l1_misses, b.l2_misses), hex(pc)
    assert opt.store_stats.keys() == ref.store_stats.keys()
    for pc, a in opt.store_stats.items():
        b = ref.store_stats[pc]
        assert (a.refs, a.l1_misses, a.l2_misses) \
            == (b.refs, b.l1_misses, b.l2_misses), hex(pc)
    assert opt.pc_load_misses() == ref.pc_load_misses()
    assert opt.total_l2_load_misses() == ref.total_l2_load_misses()
    assert opt.d1_miss_ratio() == pytest.approx(ref.d1_miss_ratio())
    assert opt.l2_miss_ratio() == pytest.approx(ref.l2_miss_ratio())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_mini_counts_bounded_by_fullsim(workload):
    """UMI samples: mini per-pc refs/misses <= full-trace refs."""
    from repro.core.umi import UMIRuntime

    program = build(workload)
    cachegrind = CachegrindSimulator(MACHINE)
    stream = RefStream()
    stream.attach(cachegrind)
    runtime = UMIRuntime(program, MACHINE, config=UMIConfig(),
                         stream=stream)
    runtime.run()
    stream.finish()
    full_refs = {pc: s.refs for pc, s in cachegrind.load_stats.items()}
    full_refs_stores = {
        pc: s.refs for pc, s in cachegrind.store_stats.items()}

    mini_stats = runtime.mini_sim.pc_stats
    assert mini_stats, "UMI mini-simulated nothing -- vacuous test"
    for pc, stat in mini_stats.items():
        total = full_refs.get(pc, 0) + full_refs_stores.get(pc, 0)
        assert stat.refs <= total, hex(pc)
        assert stat.misses <= stat.refs, hex(pc)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_delinquent_sets_deterministic(workload):
    """Independent runs agree exactly on the predicted set."""
    program = build(workload)
    first = run_mode("umi", program, MACHINE, with_cachegrind=True)
    second = run_mode("umi", program, MACHINE, with_cachegrind=True)
    assert first.umi.predicted_delinquent \
        == second.umi.predicted_delinquent
    assert first.umi.simulated_miss_ratio \
        == pytest.approx(second.umi.simulated_miss_ratio, abs=1e-9)
    assert first.cachegrind.pc_load_misses() \
        == second.cachegrind.pc_load_misses()


def test_correlation_fixture_stable():
    """The Table-4 style correlation reproduces to 1e-9."""
    def measure():
        sim, hw = [], []
        for workload in WORKLOADS:
            outcome = run_mode("umi", build(workload), MACHINE,
                               with_cachegrind=True)
            sim.append(outcome.umi.simulated_miss_ratio)
            hw.append(outcome.cachegrind.l2_miss_ratio())
        return pearson(sim, hw)

    first = measure()
    second = measure()
    assert first == pytest.approx(second, abs=1e-9)
    assert -1.0 <= first <= 1.0
