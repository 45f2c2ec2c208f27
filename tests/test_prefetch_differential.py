"""Differential test: the flattened P4 prefetch routine vs its parts.

:meth:`Pentium4Prefetcher.train <repro.memory.prefetch.
Pentium4Prefetcher.train>` carries out the Pentium 4's adjacent-line
plus stride complex as one routine that fills the L2 itself.  The
contract is the two component classes run side by side through
``observe`` -- ``CompositePrefetcher([AdjacentLinePrefetcher(),
StridePrefetcher()])`` -- with an issue sink that drops negative lines
and fills the rest as prefetches.

Both sides see the same seeded L2 demand streams: each access probes
the L2 (a miss fills it), then trains the prefetcher with the probe's
hit flag, so L2 hits -- which must not train -- come from real cache
state.  The streams mix strided runs per PC (forward, backward, across
4 KB pages), random lines, negative line addresses whose targets are
negative, and more PCs than the 8 tracked streams.  Every L2 fill (in
order, with its timing), every issue/page-stop count, the stream table
and the L2 stats must be identical.
"""

import random

import pytest

from repro.memory import (
    AdjacentLinePrefetcher, Cache, CacheConfig, CompositePrefetcher,
    Pentium4Prefetcher, StridePrefetcher, make_policy, pentium4_prefetcher,
)

STAT_FIELDS = ("reads", "read_misses", "writes", "write_misses",
               "evictions", "prefetch_fills", "redundant_prefetches",
               "useful_prefetches", "late_prefetch_stall_cycles")

LATENCY = 50


def l2_cache():
    # 32 sets x 4 ways: small enough that prefetches evict.
    return Cache(CacheConfig(size=8192, assoc=4, line_size=64,
                             hit_latency=8), make_policy("plru"))


def record_fills(cache):
    """Log every ``fill`` call on ``cache`` as (line, now, ready_at,
    prefetched), in call order."""
    log = []
    fill = cache.fill

    def recording(line_addr, now=0, ready_at=0, prefetched=False,
                  is_write=False):
        log.append((line_addr, now, ready_at, prefetched))
        return fill(line_addr, now, ready_at, prefetched, is_write)

    cache.fill = recording
    return log


def miss_stream(seed, length=3000, pcs=12):
    """``(pc, line_addr, now)`` L2 demand accesses for one seed."""
    rng = random.Random(seed)
    streams = {}
    for pc in range(pcs):
        start = rng.choice([rng.randrange(0, 4096),
                            rng.randrange(-200, 0),   # negative lines
                            60 + 64 * rng.randrange(4)])  # page edge
        stride = rng.choice([1, 2, 3, 5, -1, -2, -3, 9, 17, 40])
        streams[pc] = [start, stride]
    now = 0
    out = []
    for _ in range(length):
        now += rng.randrange(1, 40)
        pc = rng.randrange(pcs)
        roll = rng.random()
        if roll < 0.15:
            line = rng.randrange(-100, 4096)         # noise
        elif roll < 0.25:
            line = streams[pc][0]                    # repeat: stride 0
        else:
            streams[pc][0] += streams[pc][1]
            line = streams[pc][0]
            if rng.random() < 0.05:
                streams[pc][1] = rng.choice([1, -1, 4, -7, 64])
        out.append((pc, line, now))
    return out


def drive(cache, train, stream):
    """Demand-probe each line (filling on a miss), then train."""
    for pc, line_addr, now in stream:
        hit, _ = cache.probe(line_addr, False, now)
        if not hit:
            cache.fill(line_addr, now, 0, False, False)
        train(pc, line_addr, hit, now)


def state(cache, adjacent, stride):
    streams = [(s.pc, s.last_line, s.stride, s.confidence, s.last_used)
               for s in stride._streams.values()]
    stats = tuple(getattr(cache.stats, f) for f in STAT_FIELDS)
    return (adjacent.issued, stride.issued, stride.page_stops,
            stride._clock, streams, stats)


#: Stride-part settings (the P4 default first).
CONFIGS = [
    {},
    {"page_bounded": False},
    {"miss_triggered": False},
    {"degree": 3, "distance": 1, "confidence_threshold": 1},
]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("config", CONFIGS, ids=repr)
def test_flattened_routine_matches_composite(seed, config):
    stream = miss_stream(seed)

    fast_l2 = l2_cache()
    fast_log = record_fills(fast_l2)
    fast = Pentium4Prefetcher()
    for name, value in config.items():
        setattr(fast.stride, name, value)

    ref_l2 = l2_cache()
    ref_log = record_fills(ref_l2)
    ref_adjacent, ref_stride = AdjacentLinePrefetcher(), StridePrefetcher()
    for name, value in config.items():
        setattr(ref_stride, name, value)
    ref = CompositePrefetcher([ref_adjacent, ref_stride])

    def fast_train(pc, line_addr, hit, now):
        fast.train(pc, line_addr, hit, fast_l2, now, LATENCY)

    def ref_train(pc, line_addr, hit, now):
        def issue(target):
            if target >= 0:
                ref_l2.fill(target, now=now, ready_at=now + LATENCY,
                            prefetched=True)
        ref.observe(pc, line_addr, hit, issue)

    drive(fast_l2, fast_train, stream)
    drive(ref_l2, ref_train, stream)

    assert fast_log == ref_log
    assert state(fast_l2, fast.adjacent, fast.stride) \
        == state(ref_l2, ref_adjacent, ref_stride)
    # The streams exercise every branch the test is named for.
    assert sum(1 for entry in ref_log if entry[3]) > 100
    assert ref_stride.issued > 0
    if ref_stride.page_bounded:
        assert ref_stride.page_stops > 0
    assert len({pc for pc, _, _ in stream}) > ref_stride.max_streams
    assert ref_l2.stats.reads - ref_l2.stats.read_misses > 0


def test_negative_targets_count_but_never_fill():
    pf = Pentium4Prefetcher()
    l2 = l2_cache()
    log = record_fills(l2)
    # Backward stride 1 from line -70: targets -74 and -75 share the
    # page of -70, so they are issued -- and dropped as negative.
    for k, line in enumerate((-68, -69, -70)):
        pf.train(7, line, False, l2, k, LATENCY)
    assert pf.stride.issued == 2
    assert pf.adjacent.issued == 3
    assert log == []


def test_l2_hits_do_not_train():
    pf = Pentium4Prefetcher()
    l2 = l2_cache()
    log = record_fills(l2)
    for k in range(10):
        pf.train(7, 100 + k, True, l2, k, LATENCY)
    assert log == []
    assert pf.adjacent.issued == pf.stride.issued == 0
    assert pf.stride._clock == 0 and not pf.stride._streams


def test_pentium4_prefetcher_is_the_flattened_complex():
    pf = pentium4_prefetcher()
    assert isinstance(pf, Pentium4Prefetcher)
    assert pf.parts == [pf.adjacent, pf.stride]
    assert pf.stride.max_streams == 8
    pf.train(1, 10, False, l2_cache(), 0, LATENCY)
    pf.reset()
    assert pf.adjacent.issued == 0 and not pf.stride._streams
