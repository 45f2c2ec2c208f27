"""Tests for the set-associative cache and replacement policies."""

import pytest

from repro.memory import (
    BitPLRUPolicy, Cache, CacheConfig, FIFOPolicy, LRUPolicy, RandomPolicy,
    make_policy,
)
from repro.memory.cache_reference import ReferenceCache


def small_cache(assoc=2, sets=4, policy=None):
    config = CacheConfig(size=assoc * sets * 64, assoc=assoc, line_size=64,
                         hit_latency=1)
    return Cache(config, policy or LRUPolicy())


class TestCacheConfig:
    def test_geometry(self):
        config = CacheConfig(size=8 * 1024, assoc=4, line_size=64)
        assert config.num_sets == 32
        assert config.line_bits == 6

    def test_invalid_line_size(self):
        with pytest.raises(ValueError):
            CacheConfig(size=1024, assoc=2, line_size=48)

    def test_size_must_be_multiple(self):
        with pytest.raises(ValueError):
            CacheConfig(size=1000, assoc=2, line_size=64)

    def test_sets_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            CacheConfig(size=3 * 128, assoc=1, line_size=64)

    def test_scaled_preserves_geometry(self):
        config = CacheConfig(size=512 * 1024, assoc=8, line_size=64)
        small = config.scaled(16)
        assert small.size == 32 * 1024
        assert small.assoc == 8
        assert small.line_size == 64

    def test_scaled_never_below_one_set(self):
        config = CacheConfig(size=1024, assoc=2, line_size=64)
        tiny = config.scaled(1000)
        assert tiny.num_sets >= 1

    def test_describe(self):
        text = CacheConfig(size=8 * 1024, assoc=4, line_size=64).describe()
        assert "8KB" in text and "4-way" in text


class TestCacheBasics:
    def test_miss_then_hit(self):
        cache = small_cache()
        hit, _ = cache.probe(10, False, 1)
        assert not hit
        cache.fill(10, now=1)
        hit, _ = cache.probe(10, False, 2)
        assert hit
        assert cache.stats.reads == 2
        assert cache.stats.read_misses == 1

    def test_write_accounting(self):
        cache = small_cache()
        cache.probe(5, True, 1)
        cache.fill(5, now=1, is_write=True)
        assert cache.stats.writes == 1
        assert cache.stats.write_misses == 1

    def test_set_mapping_avoids_conflicts(self):
        cache = small_cache(assoc=1, sets=4)
        for line in range(4):  # distinct sets
            cache.fill(line, now=line)
        assert cache.resident_lines() == 4
        assert cache.stats.evictions == 0

    def test_conflict_eviction(self):
        cache = small_cache(assoc=1, sets=4)
        cache.fill(0, now=1)
        cache.fill(4, now=2)  # same set (4 % 4 == 0)
        assert cache.stats.evictions == 1
        assert not cache.contains(0)
        assert cache.contains(4)

    def test_lru_evicts_oldest(self):
        cache = small_cache(assoc=2, sets=1)
        cache.fill(0, now=1)
        cache.fill(1, now=2)
        cache.probe(0, False, 3)       # touch 0; 1 is now LRU
        cache.fill(2, now=4)
        assert cache.contains(0)
        assert not cache.contains(1)

    def test_flush_clears_everything(self):
        cache = small_cache()
        for line in range(8):
            cache.fill(line, now=line)
        cache.flush()
        assert cache.resident_lines() == 0

    def test_invalidate(self):
        cache = small_cache()
        cache.fill(3, now=1)
        assert cache.invalidate(3)
        assert not cache.invalidate(3)

    def test_redundant_prefetch_counted(self):
        cache = small_cache()
        cache.fill(7, now=1)
        cache.fill(7, now=2, prefetched=True)
        assert cache.stats.redundant_prefetches == 1

    def test_useful_prefetch_counted_once(self):
        cache = small_cache()
        cache.fill(7, now=1, prefetched=True)
        cache.probe(7, False, 2)
        cache.probe(7, False, 3)
        assert cache.stats.useful_prefetches == 1

    def test_late_prefetch_stalls(self):
        cache = small_cache()
        cache.fill(7, now=0, ready_at=100, prefetched=True)
        hit, stall = cache.probe(7, False, 40)
        assert hit
        assert stall == 60
        assert cache.stats.late_prefetch_stall_cycles == 60

    def test_miss_ratio(self):
        cache = small_cache()
        cache.probe(1, False, 1)
        cache.fill(1, now=1)
        cache.probe(1, False, 2)
        assert cache.stats.miss_ratio == 0.5

    def test_from_spec(self):
        cache = Cache.from_spec(size=1024, assoc=2, policy="fifo")
        assert isinstance(cache.policy, FIFOPolicy)


class TestPolicies:
    def _fill_and_evict(self, policy):
        """Fill a 2-way set, touch line 0, insert a third line."""
        cache = small_cache(assoc=2, sets=1, policy=policy)
        cache.fill(0, now=1)
        cache.fill(1, now=2)
        cache.probe(0, False, 3)
        cache.fill(2, now=4)
        return cache

    def test_fifo_ignores_recency(self):
        cache = self._fill_and_evict(FIFOPolicy())
        # FIFO evicts line 0 (oldest fill) despite the recent touch.
        assert not cache.contains(0)
        assert cache.contains(1)

    def test_lru_respects_recency(self):
        cache = self._fill_and_evict(LRUPolicy())
        assert cache.contains(0)
        assert not cache.contains(1)

    def test_bitplru_protects_recently_used(self):
        cache = self._fill_and_evict(BitPLRUPolicy())
        assert cache.contains(0)

    def test_random_policy_deterministic_with_seed(self):
        """Seeded random victims: the array engine evicts exactly the
        lines the reference cache evicts, and the seed decides them."""
        config = CacheConfig(size=4 * 2 * 64, assoc=4, line_size=64)

        def victims(cache_cls, seed):
            cache = cache_cls(config, RandomPolicy(seed))
            evicted = []
            for now, line in enumerate([0, 2, 4, 6, 8, 1, 0, 10, 3, 12,
                                        5, 14, 2, 16, 7, 18, 4, 20], 1):
                if not cache.probe(line, False, now)[0]:
                    evicted.append(cache.fill(line, now=now))
            return evicted

        runs = {}
        for seed in (3, 8):
            runs[seed] = victims(Cache, seed)
            assert runs[seed] == victims(ReferenceCache, seed)
            assert sum(v is not None for v in runs[seed]) >= 5
        assert runs[3] != runs[8]

    def test_unknown_policy_type_rejected(self):
        class SubLRU(LRUPolicy):
            pass

        with pytest.raises(ValueError, match="SubLRU.*RandomPolicy"):
            small_cache(policy=SubLRU())

    def test_make_policy_names(self):
        for name in ("lru", "fifo", "random", "plru"):
            assert make_policy(name).name in (name, "random")

    def test_make_policy_unknown(self):
        with pytest.raises(ValueError):
            make_policy("mru")

    def test_bitplru_resets_bits_when_saturated(self):
        cache = small_cache(assoc=2, sets=1, policy=BitPLRUPolicy())
        cache.fill(0, now=1)
        cache.fill(1, now=2)
        cache.probe(0, False, 3)
        cache.probe(1, False, 4)   # all MRU bits set -> cleared on victim
        cache.fill(2, now=5)
        assert cache.resident_lines() == 2

    def test_stats_reset(self):
        cache = small_cache()
        cache.probe(0, False, 1)
        cache.stats.reset()
        assert cache.stats.refs == 0
        assert cache.stats.misses == 0
