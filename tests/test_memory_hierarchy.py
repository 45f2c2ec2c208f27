"""Tests for the two-level hierarchy, machine presets, and prefetchers."""

import pytest

from repro.memory import (
    AdjacentLinePrefetcher, CacheConfig, CompositePrefetcher, MachineConfig,
    MemoryHierarchy, StridePrefetcher, get_machine, make_hw_prefetcher,
    pentium4_prefetcher,
)


def tiny(l1i=False, prefetcher=None):
    machine = MachineConfig(
        name="t",
        l1=CacheConfig(size=256, assoc=2, line_size=64, hit_latency=1),
        l2=CacheConfig(size=2048, assoc=4, line_size=64, hit_latency=8),
        memory_latency=50,
        l1i=CacheConfig(size=256, assoc=2, line_size=64) if l1i else None,
    )
    return MemoryHierarchy(machine, prefetcher)


class TestHierarchyAccess:
    def test_cold_access_pays_full_latency(self):
        hier = tiny()
        latency = hier.access(pc=1, addr=0x1000, is_write=False)
        assert latency == 1 + 8 + 50

    def test_l1_hit_is_cheap(self):
        hier = tiny()
        hier.access(1, 0x1000, False)
        assert hier.access(1, 0x1000, False) == 1

    def test_l2_hit_after_l1_eviction(self):
        hier = tiny()
        hier.access(1, 0x1000, False)
        # Evict 0x1000 from the 2-way 256B L1 (2 sets): two conflicting
        # lines in the same L1 set.
        hier.access(1, 0x1000 + 128, False)
        hier.access(1, 0x1000 + 256, False)
        latency = hier.access(1, 0x1000, False)
        assert latency == 1 + 8  # L1 miss, L2 hit

    def test_line_crossing_access_touches_two_lines(self):
        hier = tiny()
        hier.access(1, 0x1000 + 60, False, size=8)
        assert hier.l1.stats.refs == 2

    def test_aligned_access_touches_one_line(self):
        hier = tiny()
        hier.access(1, 0x1000, False, size=8)
        assert hier.l1.stats.refs == 1

    def test_miss_ratios(self):
        hier = tiny()
        for i in range(64):
            hier.access(1, 0x1000 + i * 64, False)
        assert hier.l2_miss_ratio() == 1.0  # all compulsory
        assert hier.l1_miss_ratio() == 1.0

    def test_line_stream_sees_hits_and_misses(self):
        from repro.stream import LineConsumer

        class Collector(LineConsumer):
            def __init__(self):
                self.events = []

            def on_line_batch(self, batch):
                self.events.extend(zip(batch.l1_hits, batch.l2_hits))

        collector = Collector()
        hier = tiny()
        hier.line_stream.attach(collector)
        hier.access(1, 0x1000, False)
        hier.access(1, 0x1000, False)
        hier.line_stream.drain()
        assert collector.events[0] == (False, False)
        assert collector.events[1] == (True, True)

    def test_per_pc_tracking(self):
        hier = tiny()
        hier.track_per_pc = True
        hier.access(pc=0xAA, addr=0x1000, is_write=False)
        hier.access(pc=0xAA, addr=0x2000, is_write=False)
        assert hier.pc_l2_refs[0xAA] == 2
        assert hier.pc_l2_misses[0xAA] == 2

    def test_reset_stats(self):
        hier = tiny()
        hier.access(1, 0x1000, False)
        hier.reset_stats()
        assert hier.l1.stats.refs == 0
        assert hier.counters_snapshot()["l2_misses"] == 0

    def test_line_size_mismatch_rejected(self):
        machine = MachineConfig(
            name="bad",
            l1=CacheConfig(size=256, assoc=2, line_size=32),
            l2=CacheConfig(size=2048, assoc=4, line_size=64),
        )
        with pytest.raises(ValueError):
            MemoryHierarchy(machine)

    @pytest.mark.parametrize("l1i_line,l2_line", [(64, 32), (32, 32)])
    def test_l1i_line_size_mismatch_rejected(self, l1i_line, l2_line):
        machine = MachineConfig(
            name="bad",
            l1=CacheConfig(size=256, assoc=2, line_size=l2_line),
            l1i=CacheConfig(size=256, assoc=2, line_size=l1i_line),
            l2=CacheConfig(size=2048, assoc=4, line_size=l2_line),
        )
        with pytest.raises(ValueError, match=f"L1I line size {l1i_line} B"):
            MemoryHierarchy(machine)


class TestInstructionFetch:
    def test_fetch_counts_into_l2(self):
        hier = tiny(l1i=True)
        lines = (0x400000 >> 6, (0x400000 >> 6) + 100)
        hier.fetch(lines)
        assert hier.l1i.stats.refs == 2
        assert hier.l2.stats.refs == 2  # both cold fetches reached L2

    def test_fetch_hits_are_free_of_l2_traffic(self):
        hier = tiny(l1i=True)
        line = (0x400000 >> 6,)
        hier.fetch(line)
        before = hier.l2.stats.refs
        hier.fetch(line)
        assert hier.l2.stats.refs == before

    def test_no_icache_fetch_is_noop(self):
        hier = tiny(l1i=False)
        assert hier.fetch((1, 2, 3)) == 0
        assert not hier.models_ifetch


class TestSoftwarePrefetch:
    def test_software_prefetch_fills_l2_not_l1(self):
        hier = tiny()
        hier.software_prefetch(0x1000, now=0)
        assert hier.l2.contains(0x1000 >> 6)
        assert not hier.l1.contains(0x1000 >> 6)
        assert hier.sw_prefetches_issued == 1

    def test_prefetched_line_turns_miss_into_l2_hit(self):
        hier = tiny()
        hier.software_prefetch(0x1000, now=0)
        latency = hier.access(1, 0x1000, False, now=10_000)
        assert latency == 1 + 8  # L2 hit, fully timely

    def test_late_prefetch_partially_hides_latency(self):
        hier = tiny()
        hier.software_prefetch(0x1000, now=0)  # ready at 50
        latency = hier.access(1, 0x1000, False, now=10)
        assert 1 + 8 < latency < 1 + 8 + 50

    def test_negative_line_prefetch_ignored(self):
        hier = tiny()
        hier.prefetch_line(-5)
        assert hier.l2.resident_lines() == 0


class TestHardwarePrefetchers:
    def test_adjacent_line_fetches_buddy(self):
        issued = []
        pf = AdjacentLinePrefetcher()
        pf.observe(pc=1, line_addr=10, hit=False, issue=issued.append)
        assert issued == [11]
        pf.observe(pc=1, line_addr=11, hit=False, issue=issued.append)
        assert issued == [11, 10]

    def test_adjacent_line_ignores_hits(self):
        issued = []
        pf = AdjacentLinePrefetcher()
        pf.observe(1, 10, True, issued.append)
        assert not issued

    def test_stride_detects_constant_stride(self):
        issued = []
        pf = StridePrefetcher(distance=4, degree=1, miss_triggered=False)
        for line in range(0, 10):
            pf.observe(7, line, True, issued.append)
        assert issued  # prefetches ahead of the stream
        assert all(t > 0 for t in issued)

    def test_stride_miss_triggered_ignores_hits(self):
        issued = []
        pf = StridePrefetcher(miss_triggered=True)
        for line in range(10):
            pf.observe(7, line, True, issued.append)
        assert not issued

    def test_stride_respects_page_boundary(self):
        issued = []
        pf = StridePrefetcher(distance=4, degree=1, miss_triggered=False,
                              page_bounded=True)
        # Stream right up to a page boundary (64 lines per page).
        for line in range(58, 64):
            pf.observe(7, line, False, issued.append)
        assert all(t < 64 for t in issued)
        assert pf.page_stops > 0

    def test_stride_stream_capacity(self):
        pf = StridePrefetcher(max_streams=2, miss_triggered=False)
        for pc in range(5):
            pf.observe(pc, 100 + pc, False, lambda t: None)
        assert len(pf._streams) == 2

    def test_no_prefetch_without_confidence(self):
        issued = []
        pf = StridePrefetcher(confidence_threshold=3, miss_triggered=False)
        pf.observe(7, 0, False, issued.append)
        pf.observe(7, 4, False, issued.append)   # first stride sample
        assert not issued

    def test_composite_runs_all_parts(self):
        issued = []
        pf = CompositePrefetcher([AdjacentLinePrefetcher(),
                                  AdjacentLinePrefetcher()])
        pf.observe(1, 10, False, issued.append)
        assert issued == [11, 11]

    def test_pentium4_prefetcher_composition(self):
        assert pentium4_prefetcher(adjacent=True, stride=True).name == \
            "composite"
        assert pentium4_prefetcher(adjacent=True, stride=False).name == \
            "adjacent"
        assert pentium4_prefetcher(adjacent=False, stride=False) is None

    def test_trains_on_hits_follows_the_parts(self):
        assert not AdjacentLinePrefetcher().trains_on_hits
        assert not StridePrefetcher().trains_on_hits
        assert StridePrefetcher(miss_triggered=False).trains_on_hits
        p4 = pentium4_prefetcher()
        assert not p4.trains_on_hits
        p4.stride.miss_triggered = False
        assert p4.trains_on_hits

    @pytest.mark.parametrize("miss_triggered", [True, False])
    def test_hierarchy_trains_on_l2_hits_only_if_the_prefetcher_does(
            self, miss_triggered):
        hits = []

        class Spy(StridePrefetcher):
            def train(self, pc, line_addr, hit, l2, now, latency):
                hits.append(hit)
                super().train(pc, line_addr, hit, l2, now, latency)

        hier = tiny(prefetcher=Spy(miss_triggered=miss_triggered))
        # Lines 0, 2 and 4 share an L1 set (2 ways) but not an L2 set,
        # so the last access misses the L1 and hits the L2.
        for addr in (0, 128, 256, 0):
            hier.access(pc=1, addr=addr, is_write=False)
        assert hier.l2.stats.read_misses == 3
        assert hits == [False] * 3 + ([] if miss_triggered else [True])

    def test_reset(self):
        pf = StridePrefetcher(miss_triggered=False)
        for line in range(10):
            pf.observe(7, line, False, lambda t: None)
        pf.reset()
        assert pf.issued == 0 and not pf._streams


class TestMachinePresets:
    def test_known_machines(self):
        for name in ("pentium4", "athlon-k7", "xeon"):
            machine = get_machine(name)
            assert machine.l1.line_size == machine.l2.line_size == 64

    def test_unknown_machine(self):
        with pytest.raises(ValueError):
            get_machine("pentium5")

    def test_scaling_shrinks_l2_by_factor(self):
        full = get_machine("pentium4")
        small = get_machine("pentium4", scale=16)
        assert small.l2.size == full.l2.size // 16
        # L1 shrinks by half the factor to preserve dilution traffic.
        assert small.l1.size == full.l1.size // 8

    def test_k7_scales_uniformly(self):
        full = get_machine("athlon-k7")
        small = get_machine("athlon-k7", scale=16)
        assert small.l1.size == full.l1.size // 16

    def test_k7_has_no_prefetcher(self):
        assert make_hw_prefetcher(get_machine("athlon-k7"), True) is None

    def test_p4_prefetcher_only_when_enabled(self):
        machine = get_machine("pentium4")
        assert make_hw_prefetcher(machine, enabled=False) is None
        assert make_hw_prefetcher(machine, enabled=True) is not None

    def test_describe(self):
        assert "pentium4" in get_machine("pentium4").describe()
