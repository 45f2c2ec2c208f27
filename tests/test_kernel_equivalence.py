"""Golden equivalence: fast kernels vs their retained references.

The optimized array-engine :class:`repro.memory.cache.Cache` and the
batch :class:`repro.core.analyzer.MiniCacheSimulator` must be
**bit-identical** to the retained reference implementations in
:mod:`repro.memory.cache_reference` -- same per-access hit/stall tuples,
same eviction victims, same statistics, same analysis results -- across
associativities, line sizes, replacement policies, and flush regimes.
Any divergence is a bug in the fast kernel, never in the reference.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AddressProfile, MiniCacheSimulator, UMIConfig
from repro.memory import CacheConfig
from repro.memory.cache import Cache
from repro.memory.cache_reference import (
    ReferenceCache, ReferenceMiniCacheSimulator,
)
from repro.memory.policies import make_policy

# (size, assoc, line_size): direct-mapped, 2-way, 8-way, fully
# associative, and a non-64B line size.
GEOMETRIES = [
    (4096, 1, 64),
    (8192, 2, 32),
    (65536, 8, 64),
    (4096, 64, 64),   # fully associative: one set of 64 lines
]

POLICIES = ["lru", "fifo", "plru", "random"]


def make_pair(size, assoc, line_size, policy="lru", seed=0):
    config = CacheConfig(size=size, assoc=assoc, line_size=line_size)
    fast = Cache(config, make_policy(policy, seed=seed))
    ref = ReferenceCache(config, make_policy(policy, seed=seed))
    return fast, ref


def stream(seed, n, span, repeat_every=7):
    """A seeded line-address stream with some immediate reuse."""
    rng = random.Random(seed)
    addrs = [rng.randrange(span) for _ in range(n)]
    for i in range(repeat_every, n, repeat_every):
        addrs[i] = addrs[i - 1]
    return addrs


def assert_stats_equal(fast, ref):
    for field in ("reads", "read_misses", "writes", "write_misses",
                  "evictions", "prefetch_fills", "redundant_prefetches",
                  "useful_prefetches", "late_prefetch_stall_cycles"):
        assert getattr(fast.stats, field) == getattr(ref.stats, field), \
            field


class TestCacheEquivalence:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_probe_fill_stream(self, geometry, policy):
        """Per-access (hit, stall), per-miss victim, final stats."""
        fast, ref = make_pair(*geometry, policy=policy, seed=13)
        rng = random.Random(99)
        span = 4 * (fast.config.num_sets * fast.config.assoc)
        for now, line in enumerate(stream(17, 1500, span), start=1):
            is_write = rng.random() < 0.3
            got = fast.probe(line, is_write, now)
            want = ref.probe(line, is_write, now)
            assert got == want
            if not got[0]:
                assert fast.fill(line, now=now, is_write=is_write) \
                    == ref.fill(line, now=now, is_write=is_write)
        assert_stats_equal(fast, ref)
        assert fast.resident_lines() == ref.resident_lines()

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_invalidate_and_contains(self, geometry):
        fast, ref = make_pair(*geometry)
        span = 2 * (fast.config.num_sets * fast.config.assoc)
        addrs = stream(5, 600, span)
        for now, line in enumerate(addrs, start=1):
            if not fast.probe(line, False, now)[0]:
                fast.fill(line, now=now)
            if not ref.probe(line, False, now)[0]:
                ref.fill(line, now=now)
        rng = random.Random(7)
        for line in rng.sample(addrs, 100):
            assert fast.contains(line) == ref.contains(line)
            assert fast.invalidate(line) == ref.invalidate(line)
        assert fast.resident_lines() == ref.resident_lines()

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_access_many_matches_probe_fill_loop(self, geometry, policy):
        """The batch kernel vs the one-at-a-time loop it replaces."""
        fast, ref = make_pair(*geometry, policy=policy, seed=3)
        rng = random.Random(31)
        span = 4 * (fast.config.num_sets * fast.config.assoc)
        now = 0
        for batch in range(5):
            addrs = stream(batch, 400, span)
            writes = [rng.random() < 0.25 for _ in addrs]
            got = fast.access_many(addrs, writes=writes, start_now=now)
            want = ref.access_many(addrs, writes=writes, start_now=now)
            now += len(addrs)
            assert got == want
        assert_stats_equal(fast, ref)

    def test_access_many_read_only_fast_lane(self):
        """The read-only ultra lane (no writes, default clock)."""
        fast, ref = make_pair(65536, 8, 64)
        addrs = stream(23, 3000, 4 * (fast.config.num_sets * fast.config.assoc))
        assert fast.access_many(addrs) == ref.access_many(addrs)
        assert_stats_equal(fast, ref)

    def test_access_many_explicit_timestamps(self):
        fast, ref = make_pair(8192, 2, 32)
        addrs = stream(2, 300, 2 * (fast.config.num_sets * fast.config.assoc))
        nows = [10 * (i + 1) for i in range(len(addrs))]
        assert fast.access_many(addrs, nows=nows) \
            == ref.access_many(addrs, nows=nows)
        assert_stats_equal(fast, ref)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_access_many_misses_only(self, geometry, policy):
        """The miss-index form agrees with the hit-flag form."""
        fast, ref = make_pair(*geometry, policy=policy, seed=17)
        flags_side, _ = make_pair(*geometry, policy=policy, seed=17)
        rng = random.Random(5)
        span = 4 * (fast.config.num_sets * fast.config.assoc)
        now = 0
        for batch in range(4):
            addrs = stream(100 + batch, 350, span)
            writes = [rng.random() < 0.25 for _ in addrs] \
                if batch % 2 else None
            got = fast.access_many(addrs, writes=writes, start_now=now,
                                   misses_only=True)
            want = ref.access_many(addrs, writes=writes, start_now=now,
                                   misses_only=True)
            flags = flags_side.access_many(addrs, writes=writes,
                                           start_now=now)
            now += len(addrs)
            assert got == want
            assert got == [i for i, hit in enumerate(flags) if not hit]
        assert_stats_equal(fast, ref)
        assert_stats_equal(fast, flags_side)

    def test_access_many_misses_only_explicit_timestamps(self):
        fast, ref = make_pair(8192, 2, 32)
        addrs = stream(9, 300, 2 * (fast.config.num_sets * fast.config.assoc))
        nows = [3 * (i + 1) for i in range(len(addrs))]
        assert fast.access_many(addrs, nows=nows, misses_only=True) \
            == ref.access_many(addrs, nows=nows, misses_only=True)
        assert_stats_equal(fast, ref)

    def test_flush_equivalence(self):
        fast, ref = make_pair(4096, 4, 64)
        addrs = stream(8, 500, 2 * (fast.config.num_sets * fast.config.assoc))
        fast.access_many(addrs)
        ref.access_many(addrs)
        fast.flush()
        ref.flush()
        assert fast.resident_lines() == ref.resident_lines() == 0
        # Streams replay identically after the flush.
        assert fast.access_many(addrs) == ref.access_many(addrs)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        assoc=st.sampled_from([1, 2, 4, 8]),
        n=st.integers(min_value=1, max_value=200),
    )
    def test_property_random_streams(self, data, assoc, n):
        """Any access stream: identical hits, victims and stats."""
        fast, ref = make_pair(64 * 16 * assoc, assoc, 64)
        lines = data.draw(st.lists(
            st.integers(min_value=0, max_value=127),
            min_size=n, max_size=n))
        writes = data.draw(st.lists(st.booleans(),
                                    min_size=n, max_size=n))
        assert fast.access_many(lines, writes=writes) \
            == ref.access_many(lines, writes=writes)
        assert_stats_equal(fast, ref)


# -- analyzer equivalence -----------------------------------------------------

L2 = CacheConfig(size=2048 * 64, assoc=8, line_size=64)


def synth_profiles(seed, n_profiles=30, ops=6, rows=8, repeat_frac=0.4,
                   span_lines=48, jitter_lines=32):
    """Seeded profile pool with verbatim repeats of earlier profiles."""
    rng = random.Random(seed)
    profiles = []
    for i in range(n_profiles):
        if profiles and rng.random() < repeat_frac:
            src = rng.choice(profiles)
            p = AddressProfile(src.trace_head, src.op_pcs, src.max_rows)
            for row in src.rows:
                p.rows.append(list(row))
        else:
            base = rng.randrange(1 << 18) << 6
            p = AddressProfile(f"t{i}",
                               [0x4000 + 8 * j for j in range(ops)],
                               rows)
            for r in range(rows):
                row = p.new_row()
                for j in range(ops):
                    if rng.random() < 0.85:
                        row[j] = (base
                                  + 64 * ((r * ops + j) % span_lines)
                                  + 64 * rng.randrange(jitter_lines))
        profiles.append(p)
    return profiles


def assert_results_equal(got, want):
    """Every AnalysisResult field, bit for bit."""
    assert got.trace_head == want.trace_head
    assert got.counted_refs == want.counted_refs
    assert got.counted_misses == want.counted_misses
    assert got.warmup_refs == want.warmup_refs
    assert list(got.per_op) == list(want.per_op)
    for pc, op in got.per_op.items():
        assert (op.refs, op.misses) \
            == (want.per_op[pc].refs, want.per_op[pc].misses), hex(pc)


def assert_simulators_equal(opt, ref):
    assert opt.flushes == ref.flushes
    assert opt.profiles_analyzed == ref.profiles_analyzed
    assert opt.references_simulated == ref.references_simulated
    assert opt.pc_stats.keys() == ref.pc_stats.keys()
    for pc, a in opt.pc_stats.items():
        b = ref.pc_stats[pc]
        assert (a.refs, a.misses) == (b.refs, b.misses), hex(pc)
    assert opt.overall_miss_ratio() == ref.overall_miss_ratio()


class TestAnalyzerEquivalence:
    @pytest.mark.parametrize("flush_interval", [None, 1000, 20_000])
    @pytest.mark.parametrize("warmup", [0, 2])
    def test_profile_stream(self, flush_interval, warmup):
        config = UMIConfig(warmup_executions=warmup,
                           flush_interval=flush_interval)
        opt = MiniCacheSimulator(config, L2)
        ref = ReferenceMiniCacheSimulator(config, L2)
        for i, profile in enumerate(synth_profiles(seed=21)):
            opt.maybe_flush(i * 700)
            ref.maybe_flush(i * 700)
            assert_results_equal(opt.analyze(profile),
                                 ref.analyze(profile))
        assert_simulators_equal(opt, ref)

    def test_cycled_hot_traces_at_flush_cadence(self):
        """Cycled hot traces, each analysed from a freshly flushed cache."""
        config = UMIConfig()
        gap = config.flush_interval
        pool = synth_profiles(seed=4, n_profiles=6, repeat_frac=0.0)
        profiles = pool * 6
        opt = MiniCacheSimulator(config, L2)
        ref = ReferenceMiniCacheSimulator(config, L2)
        for i, profile in enumerate(profiles):
            opt.maybe_flush(i * gap)
            ref.maybe_flush(i * gap)
            assert_results_equal(opt.analyze(profile),
                                 ref.analyze(profile))
        assert_simulators_equal(opt, ref)

    def test_repeats_against_evolving_shared_cache(self):
        """Verbatim repeats, never flushed: each meets a different state."""
        config = UMIConfig(flush_interval=None)
        profiles = synth_profiles(seed=9, n_profiles=40,
                                  repeat_frac=0.6)
        opt = MiniCacheSimulator(config, L2)
        ref = ReferenceMiniCacheSimulator(config, L2)
        for i, profile in enumerate(profiles):
            opt.maybe_flush(i * 100)
            ref.maybe_flush(i * 100)
            assert_results_equal(opt.analyze(profile),
                                 ref.analyze(profile))
        assert_simulators_equal(opt, ref)

    def test_unshared_cache_ablation(self):
        config = UMIConfig(shared_cache=False)
        opt = MiniCacheSimulator(config, L2)
        ref = ReferenceMiniCacheSimulator(config, L2)
        for profile in synth_profiles(seed=2, n_profiles=12):
            assert_results_equal(opt.analyze(profile),
                                 ref.analyze(profile))
        assert_simulators_equal(opt, ref)

    @pytest.mark.parametrize("assoc", [1, 2, 8])
    def test_small_mini_cache_geometries(self, assoc):
        mini = CacheConfig(size=64 * 32 * assoc, assoc=assoc,
                           line_size=64)
        config = UMIConfig(mini_cache=mini, flush_interval=500)
        opt = MiniCacheSimulator(config, L2)
        ref = ReferenceMiniCacheSimulator(config, L2)
        for i, profile in enumerate(
                synth_profiles(seed=assoc, span_lines=80)):
            opt.maybe_flush(i * 300)
            ref.maybe_flush(i * 300)
            assert_results_equal(opt.analyze(profile),
                                 ref.analyze(profile))
        assert_simulators_equal(opt, ref)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           gap=st.sampled_from([150, 700, 20_000]))
    def test_property_profile_streams(self, seed, gap):
        config = UMIConfig(flush_interval=1000)
        opt = MiniCacheSimulator(config, L2)
        ref = ReferenceMiniCacheSimulator(config, L2)
        for i, profile in enumerate(
                synth_profiles(seed=seed, n_profiles=10, rows=5)):
            opt.maybe_flush(i * gap)
            ref.maybe_flush(i * gap)
            assert_results_equal(opt.analyze(profile),
                                 ref.analyze(profile))
        assert_simulators_equal(opt, ref)
