"""The shadow hierarchy's batch replay against per-reference calls.

:meth:`repro.stream.consumers.ShadowHierarchyConsumer.on_batch` replays
a batch on the columns ``MemoryHierarchy.hit_lanes()`` hands out: L1D
and L1I hits retire inline with their counts summed once per batch, a
one-line L1D miss calls ``_miss``, a straddle calls ``access`` and an
L1I miss calls ``fetch``.  A twin hierarchy fed the same events one
``access``/``fetch`` call at a time is the contract: every cache
column, every stat, the hardware prefetcher's state and the per-pc L2
counts must come out identical, under every replacement policy, with
and without the prefetcher and the L1I, and with the lane closed.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import CacheConfig, MachineConfig, MemoryHierarchy
from repro.memory.configs import make_hw_prefetcher
from repro.stream import KIND_IFETCH, KIND_READ, KIND_WRITE, RefBatch
from repro.stream.consumer import LineConsumer
from repro.stream.consumers import ShadowHierarchyConsumer

POLICIES = ["lru", "plru", "fifo", "random"]

#: Line addresses the events draw from: several times the tiny L2, so
#: L1 hits, L2 hits and memory misses all occur.
LINES = 80


def machine(policy, hwpf, l1i=True):
    return MachineConfig(
        name="shadow",
        l1=CacheConfig(size=256, assoc=2, line_size=64, hit_latency=1),
        l2=CacheConfig(size=2048, assoc=4, line_size=64, hit_latency=8),
        memory_latency=50,
        has_hw_prefetcher=hwpf,
        replacement=policy,
        l1i=(CacheConfig(size=256, assoc=2, line_size=64, hit_latency=1)
             if l1i else None),
    )


@st.composite
def batches(draw):
    """Batches of reads, writes (some straddling a line), and ifetches,
    with non-decreasing cycles across the whole sequence."""
    now = 0
    out = []
    for _ in range(draw(st.integers(1, 4))):
        columns = ([], [], [], [], [])
        for _ in range(draw(st.integers(0, 60))):
            kind = draw(st.sampled_from(
                [KIND_READ, KIND_READ, KIND_WRITE, KIND_IFETCH]))
            line = draw(st.integers(0, LINES))
            if kind == KIND_IFETCH:
                addr, size = line << 6, 0
            else:
                size = draw(st.sampled_from([1, 2, 4, 8]))
                addr = (line << 6) + draw(st.sampled_from(
                    [0, 8, 32, 60, 63]))
            now += draw(st.integers(0, 40))
            for column, value in zip(columns, (
                    draw(st.integers(0, 5)), addr, size, kind, now)):
                column.append(value)
        out.append(RefBatch(*columns, [None], ((0, 0),)))
    return out


def feed_each(hierarchy, batch):
    """The contract: one ``access``/``fetch`` call per reference."""
    for pc, addr, size, kind, now in zip(batch.pcs, batch.addrs,
                                         batch.sizes, batch.kinds,
                                         batch.cycles):
        if kind == KIND_IFETCH:
            hierarchy.fetch((addr >> 6,), now)
        else:
            hierarchy.access(pc, addr, kind == KIND_WRITE, size, now)


def cache_state(cache):
    """A cache's stats and every column a reference can change
    (``_plain`` only steers ``access_many`` and is left out)."""
    return (vars(cache.stats), dict(cache._where), list(cache._tags),
            list(cache._stamps), list(cache._order), list(cache._mru),
            list(cache._dirty), list(cache._set_len), list(cache._ready),
            list(cache._pref))


def hierarchy_state(hierarchy):
    caches = [hierarchy.l1, hierarchy.l2]
    if hierarchy.l1i is not None:
        caches.append(hierarchy.l1i)
    return {
        "caches": [cache_state(cache) for cache in caches],
        "prefetcher": pickle.dumps(hierarchy.hw_prefetcher),
        "pc_l2_refs": hierarchy.pc_l2_refs,
        "pc_l2_misses": hierarchy.pc_l2_misses,
        "counters": hierarchy.counters_snapshot(),
    }


class LineRecorder(LineConsumer):
    def __init__(self):
        self.columns = []

    def on_line_batch(self, batch):
        self.columns.append((list(batch.pcs), list(batch.line_addrs),
                             list(batch.writes), list(batch.l1_hits),
                             list(batch.l2_hits)))


def replay_pair(config, hwpf, events, closed=False):
    shadow = ShadowHierarchyConsumer(config, hw_prefetch=hwpf)
    twin = MemoryHierarchy(config, make_hw_prefetcher(config, enabled=hwpf))
    shadow.hierarchy.track_per_pc = twin.track_per_pc = True
    recorders = []
    if closed:
        for hierarchy in (shadow.hierarchy, twin):
            recorders.append(hierarchy.line_stream.attach(LineRecorder()))
    for batch in events:
        shadow.on_batch(batch)
        feed_each(twin, batch)
    for hierarchy in (shadow.hierarchy, twin):
        hierarchy.line_stream.finish()
    return shadow.hierarchy, twin, recorders


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("hwpf", [False, True])
@settings(max_examples=40, deadline=None)
@given(events=batches())
def test_batch_replay_matches_per_reference_calls(policy, hwpf, events):
    shadow, twin, _ = replay_pair(machine(policy, hwpf), hwpf, events)
    assert shadow.hit_lanes()[0] is not None
    assert hierarchy_state(shadow) == hierarchy_state(twin)


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=15, deadline=None)
@given(events=batches())
def test_replay_without_an_icache(policy, events):
    config = machine(policy, True, l1i=False)
    shadow, twin, _ = replay_pair(config, True, events)
    assert shadow.hit_lanes()[1] is None
    assert hierarchy_state(shadow) == hierarchy_state(twin)


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=15, deadline=None)
@given(events=batches())
def test_closed_lane_replays_each_reference(policy, events):
    # A line-stream consumer closes the L1D lane: the replay goes
    # through access/fetch and the consumer sees every line event.
    shadow, twin, recorders = replay_pair(machine(policy, True), True,
                                          events, closed=True)
    assert hierarchy_state(shadow) == hierarchy_state(twin)
    assert recorders[0].columns == recorders[1].columns


def test_replay_serves_hits_without_calls(monkeypatch):
    # Repeated references to one resident line: only the first of each
    # kind calls into the hierarchy.
    config = machine("lru", False)
    shadow = ShadowHierarchyConsumer(config)
    calls = []
    hierarchy = shadow.hierarchy
    for name in ("access", "fetch", "_miss"):
        method = getattr(hierarchy, name)
        monkeypatch.setattr(
            hierarchy, name,
            lambda *args, _name=name, _method=method:
            calls.append(_name) or _method(*args))
    events = 50
    shadow.on_batch(RefBatch(
        [1] * events + [2] * events, [128] * events + [4096] * events,
        [8] * events + [0] * events,
        [KIND_READ] * events + [KIND_IFETCH] * events,
        list(range(2 * events)), [None], ((0, 0),)))
    assert calls == ["_miss", "fetch"]
    assert hierarchy.l1.stats.reads == events
    assert hierarchy.l1.stats.read_misses == 1
    assert hierarchy.l1i.stats.reads == events
    assert hierarchy.l1i.stats.read_misses == 1
