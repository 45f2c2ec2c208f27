"""Differential test: the one-probe MemoryHierarchy vs per-line probing.

:class:`repro.memory.hierarchy.MemoryHierarchy` retires single-line L1D
and L1I hits inline on the array engine's columns and sends each L1
miss straight to one shared miss routine.  :class:`ReferenceHierarchy`
below is the hierarchy as it was before that: every line probed through
``Cache.probe``, a second ``probe``-then-``fill`` walk down the levels
on a miss, a fresh prefetch-issue closure per miss -- built on the
retained :class:`~repro.memory.cache_reference.ReferenceCache`.

Both are driven through identical operation streams (reads, writes,
line-straddling references, strided runs that train the stride
prefetcher, software prefetches, instruction fetches, L1 flushes and
prefetch fills planted in the L1s) with and without a TLB, the P4
hardware prefetcher, per-PC L2 tracking and a line-stream consumer,
under every replacement policy.  Every per-access latency, the counter
snapshot, every cache's stats, the per-PC L2 dicts and the emitted
line-stream columns must be identical.  Any divergence is a bug in the
hierarchy, never in the reference.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import CacheConfig, MachineConfig, MemoryHierarchy
from repro.memory.cache_reference import ReferenceCache
from repro.memory.policies import make_policy
from repro.memory.prefetch import pentium4_prefetcher
from repro.memory.tlb import TLB
from repro.stream.consumer import LineConsumer

POLICIES = ["lru", "fifo", "plru", "random"]

STAT_FIELDS = ("reads", "read_misses", "writes", "write_misses",
               "evictions", "prefetch_fills", "redundant_prefetches",
               "useful_prefetches", "late_prefetch_stall_cycles")

#: Line addresses the streams draw from: several times the tiny L2, so
#: L1 hits, L2 hits and memory misses all occur.
LINES = 96
#: Lines of the hot region that keeps the 4-line L1s hitting.
HOT = 6


def machine(policy):
    return MachineConfig(
        name="diff",
        l1=CacheConfig(size=256, assoc=2, line_size=64, hit_latency=1),
        l2=CacheConfig(size=2048, assoc=4, line_size=64, hit_latency=8),
        memory_latency=50,
        replacement=policy,
        l1i=CacheConfig(size=256, assoc=2, line_size=64, hit_latency=1),
    )


class ReferenceHierarchy:
    """The per-line hierarchy logic, on reference caches."""

    def __init__(self, config, hw_prefetcher=None, tlb=None,
                 track_per_pc=False, record_lines=False):
        self.config = config
        self.l1 = ReferenceCache(config.l1, make_policy(config.replacement))
        self.l2 = ReferenceCache(config.l2, make_policy(config.replacement))
        self.l1i = ReferenceCache(config.l1i,
                                  make_policy(config.replacement))
        self.hw_prefetcher = hw_prefetcher
        self.tlb = tlb
        self.track_per_pc = track_per_pc
        self.record_lines = record_lines
        self.lines = ([], [], [], [], [])
        self.sw_prefetches_issued = 0
        self.pc_l2_refs = {}
        self.pc_l2_misses = {}
        self._line_bits = config.l1.line_bits

    def access(self, pc, addr, is_write, size=8, now=0):
        first_line = addr >> self._line_bits
        last_line = (addr + size - 1) >> self._line_bits
        latency = 0
        if self.tlb is not None:
            latency += self.tlb.translate(addr)
        for line_addr in range(first_line, last_line + 1):
            latency += self._access_line(pc, line_addr, is_write, now)
        return latency

    def _access_line(self, pc, line_addr, is_write, now):
        latency = self.l1.config.hit_latency
        l1_hit, stall = self.l1.probe(line_addr, is_write, now)
        l2_hit = True
        if not l1_hit:
            latency += self.l2.config.hit_latency
            l2_hit, l2_stall = self.l2.probe(line_addr, is_write, now)
            if self.track_per_pc and not is_write:
                self.pc_l2_refs[pc] = self.pc_l2_refs.get(pc, 0) + 1
            if l2_hit:
                latency += l2_stall
            else:
                latency += self.config.memory_latency
                self.l2.fill(line_addr, now=now, is_write=is_write)
                if self.track_per_pc and not is_write:
                    self.pc_l2_misses[pc] = self.pc_l2_misses.get(pc, 0) + 1
            self.l1.fill(line_addr, now=now, is_write=is_write)
            if self.hw_prefetcher is not None:
                self.hw_prefetcher.observe(
                    pc, line_addr, l2_hit,
                    lambda target: self.prefetch_line(target, now),
                )
        else:
            latency += stall
        if self.record_lines:
            for column, value in zip(self.lines, (pc, line_addr, is_write,
                                                  l1_hit, l2_hit)):
                column.append(value)
        return latency

    def fetch(self, code_lines, now=0):
        latency = 0
        for line_addr in code_lines:
            hit, _ = self.l1i.probe(line_addr, False, now)
            if hit:
                continue
            latency += self.l2.config.hit_latency
            l2_hit, _ = self.l2.probe(line_addr, False, now)
            if not l2_hit:
                latency += self.config.memory_latency
                self.l2.fill(line_addr, now=now)
            self.l1i.fill(line_addr, now=now)
        return latency

    def prefetch_line(self, line_addr, now=0):
        if line_addr < 0:
            return
        self.l2.fill(line_addr, now=now,
                     ready_at=now + self.config.memory_latency,
                     prefetched=True)

    def software_prefetch(self, addr, now=0):
        self.sw_prefetches_issued += 1
        self.prefetch_line(addr >> self._line_bits, now)

    def counters_snapshot(self):
        return {
            "l1_refs": self.l1.stats.refs,
            "l1_misses": self.l1.stats.misses,
            "l2_refs": self.l2.stats.refs,
            "l2_misses": self.l2.stats.misses,
            "l2_prefetch_fills": self.l2.stats.prefetch_fills,
            "l2_useful_prefetches": self.l2.stats.useful_prefetches,
            "l2_redundant_prefetches": self.l2.stats.redundant_prefetches,
            "sw_prefetches": self.sw_prefetches_issued,
        }


class ColumnRecorder(LineConsumer):
    """Concatenates every delivered line batch, column by column."""

    def __init__(self):
        self.columns = ([], [], [], [], [])

    def on_line_batch(self, batch):
        for column, values in zip(self.columns, (
                batch.pcs, batch.line_addrs, batch.writes, batch.l1_hits,
                batch.l2_hits)):
            column.extend(values)


def make_pair(policy, tlb, hwpf, track, consumer):
    config = machine(policy)
    fast = MemoryHierarchy(config, pentium4_prefetcher() if hwpf else None,
                           line_batch_size=7)
    fast.track_per_pc = track
    if tlb:
        fast.tlb = TLB(entries=4, walk_latency=30)
    recorder = fast.line_stream.attach(ColumnRecorder()) if consumer \
        else None
    ref = ReferenceHierarchy(
        config, pentium4_prefetcher() if hwpf else None,
        TLB(entries=4, walk_latency=30) if tlb else None,
        track_per_pc=track, record_lines=consumer,
    )
    return fast, ref, recorder


def run_ops(hier, ops):
    """Apply ``ops`` to one hierarchy; returns every returned latency."""
    now = 0
    out = []
    for op in ops:
        kind = op[0]
        now += op[-1]
        if kind == "access":
            _, pc, addr, is_write, size, _ = op
            out.append(hier.access(pc, addr, is_write, size, now))
        elif kind == "run":
            _, pc, line, stride, count, is_write, _ = op
            for k in range(count):
                addr = ((line + stride * k) % LINES) * 64 + 8
                out.append(hier.access(pc, addr, is_write, 8, now))
                now += 3
        elif kind == "sw":
            hier.software_prefetch(op[1], now)
        elif kind == "fetch":
            out.append(hier.fetch(op[1], now))
        elif kind == "flush":
            hier.l1.flush()
        elif kind == "plant":
            # A prefetch fill straight into an L1: the only way to reach
            # the ready-stall / useful-prefetch bookkeeping on L1 hits.
            _, icache, line, _ = op
            cache = hier.l1i if icache else hier.l1
            cache.fill(line, now=now, ready_at=now + 20, prefetched=True)
        else:
            raise AssertionError(kind)
    return out


def resident(cache):
    """``{line: dirty}`` of every resident line, for either cache."""
    if isinstance(cache, ReferenceCache):
        return {line: entry.dirty for cache_set in cache._sets
                for line, entry in cache_set.items()}
    return {line: cache._dirty[slot]
            for line, slot in cache._where.items()}


def assert_equivalent(fast, ref, recorder, fast_out, ref_out):
    assert fast_out == ref_out
    assert fast.counters_snapshot() == ref.counters_snapshot()
    for level in ("l1", "l2", "l1i"):
        for field in STAT_FIELDS:
            assert (getattr(getattr(fast, level).stats, field)
                    == getattr(getattr(ref, level).stats, field)), \
                (level, field)
        assert resident(getattr(fast, level)) == \
            resident(getattr(ref, level)), level
    assert fast.pc_l2_refs == ref.pc_l2_refs
    assert fast.pc_l2_misses == ref.pc_l2_misses
    if recorder is not None:
        fast.line_stream.drain()
        assert recorder.columns == ref.lines


# -- operation streams --------------------------------------------------------

_dt = st.integers(min_value=0, max_value=12)
_pc = st.integers(min_value=0, max_value=5)
#: Half the addresses fall in a hot region a few L1s wide.
_addr = st.one_of(st.integers(min_value=0, max_value=HOT * 64 - 1),
                  st.integers(min_value=0, max_value=LINES * 64 - 1))

_access = st.tuples(st.just("access"), _pc, _addr, st.booleans(),
                    st.sampled_from([1, 4, 8, 16, 64]), _dt)
_run = st.tuples(st.just("run"), _pc,
                 st.integers(min_value=0, max_value=LINES - 1),
                 st.integers(min_value=-3, max_value=3),
                 st.integers(min_value=1, max_value=10), st.booleans(), _dt)
_sw = st.tuples(st.just("sw"), _addr, _dt)
_fetch = st.tuples(st.just("fetch"),
                   st.lists(st.integers(min_value=0, max_value=HOT),
                            max_size=4), _dt)
_flush = st.tuples(st.just("flush"), _dt)
_plant = st.tuples(st.just("plant"), st.booleans(),
                   st.integers(min_value=0, max_value=LINES - 1), _dt)

OPS = st.lists(st.one_of(_access, _access, _access, _run, _sw, _fetch,
                         _flush, _plant), max_size=120)


class TestOneProbeHierarchy:
    @settings(max_examples=300, deadline=None)
    @given(policy=st.sampled_from(POLICIES), tlb=st.booleans(),
           hwpf=st.booleans(), track=st.booleans(), consumer=st.booleans(),
           ops=OPS)
    def test_matches_per_line_reference(self, policy, tlb, hwpf, track,
                                        consumer, ops):
        fast, ref, recorder = make_pair(policy, tlb, hwpf, track, consumer)
        fast_out = run_ops(fast, ops)
        ref_out = run_ops(ref, ops)
        assert_equivalent(fast, ref, recorder, fast_out, ref_out)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("tlb", [False, True])
    @pytest.mark.parametrize("hwpf", [False, True])
    def test_long_seeded_streams(self, policy, tlb, hwpf):
        """Long streams reach the prefetcher's and the L2's steady state,
        which short hypothesis examples rarely do."""
        rng = random.Random(f"{policy}-{tlb}-{hwpf}")
        ops = []
        for _ in range(1500):
            roll = rng.random()
            if roll < 0.6:
                span = HOT if rng.random() < 0.5 else LINES
                ops.append(("access", rng.randrange(6),
                            rng.randrange(span * 64), rng.random() < 0.3,
                            rng.choice([4, 8, 8, 8, 16]), rng.randrange(8)))
            elif roll < 0.8:
                ops.append(("run", rng.randrange(6), rng.randrange(LINES),
                            rng.choice([1, 1, 2, -1]), rng.randrange(1, 12),
                            rng.random() < 0.2, rng.randrange(4)))
            elif roll < 0.9:
                ops.append(("fetch", [rng.randrange(HOT)
                                      for _ in range(rng.randrange(4))],
                            rng.randrange(4)))
            elif roll < 0.97:
                ops.append(("sw", rng.randrange(LINES * 64),
                            rng.randrange(4)))
            elif roll < 0.99:
                # Plant a prefetch fill, then hit it while in flight.
                line = rng.randrange(LINES)
                icache = rng.random() < 0.5
                ops.append(("plant", icache, line, 1))
                ops.append(("fetch", [line], 1) if icache else
                           ("access", 0, line * 64, False, 8, 1))
            else:
                ops.append(("flush", 0))
        fast, ref, recorder = make_pair(policy, tlb, hwpf, track=True,
                                        consumer=True)
        fast_out = run_ops(fast, ops)
        ref_out = run_ops(ref, ops)
        assert_equivalent(fast, ref, recorder, fast_out, ref_out)
        # The streams exercise every outcome the fast lanes special-case.
        assert fast.l1.stats.misses and fast.l1.stats.refs > \
            fast.l1.stats.misses
        assert fast.l2.stats.misses and fast.l1i.stats.refs
        for l1 in (fast.l1, fast.l1i):
            assert l1.stats.useful_prefetches
            assert l1.stats.late_prefetch_stall_cycles
        assert len(recorder.columns[0]) > fast.line_stream.batch_size
