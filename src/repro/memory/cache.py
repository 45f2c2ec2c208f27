"""A single set-associative cache with pluggable replacement.

This class is the building block for the "real hardware" hierarchy
(:mod:`repro.memory.hierarchy`), the Cachegrind-style full simulator
(:mod:`repro.fullsim`), and the UMI mini cache simulator
(:mod:`repro.core.analyzer`) -- the same structure the paper describes:
"each reference is mapped to its corresponding set.  The tag is compared
to all tags in the set.  If there is a match, the recorded time of the
matching line is updated.  Otherwise, an empty line, or the oldest line,
is selected to store the current tag."

Two engines back the same public API:

* a **fast array engine** for the deterministic stamp-based policies
  (LRU, FIFO, bit-PLRU): line state lives in flat parallel lists indexed
  by ``set * assoc + way`` with a single ``line_addr -> slot`` dict for
  lookup, and :meth:`Cache.access_many` runs a whole demand stream
  through one loop with stats accumulated in locals -- retiring all-hit
  chunks columnar (one ``map()`` probe, one ``range()`` of stamps)
  whenever the cache has never seen a prefetch or timed fill;
* the original **dict engine** (per-set ``dict`` of
  :class:`~repro.memory.lines.CacheLine`) for :class:`RandomPolicy` --
  whose RNG consumes the set's key order -- and for any policy subclass
  this module does not know about.

Both engines are bit-identical to :class:`repro.memory.cache_reference.
ReferenceCache`; ``tests/test_kernel_equivalence.py`` holds them to
that.  Victim ties on equal stamps are broken by fill order, which is
exactly what ``min()`` over an insertion-ordered dict did.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Dict, List, Optional, Sequence, Tuple

from .lines import CacheLine
from .policies import (
    BitPLRUPolicy, FIFOPolicy, LRUPolicy, ReplacementPolicy, make_policy,
)

#: Drains a ``map()`` at C speed without building a list (used for
#: columnar stores via ``list.__setitem__``).
_consume = deque(maxlen=0).extend

#: Endless ``True`` source for vectorized flag stores
#: (``map(dirty.__setitem__, slots, _TRUES)``).
_TRUES = repeat(True)

#: Chunk width of the :meth:`Cache.access_many` vector sublane.  Each
#: chunk is probed with one C-level ``map(where.get, chunk)`` and its
#: all-hit prefix retired columnar; the probe costs under a tenth of
#: processing the chunk event by event, so even miss-heavy streams pay
#: only a small constant for the attempt.
_VECTOR_CHUNK = 128

#: Misses cluster (a phase change first-touches its whole working set
#: in a burst), so after a miss the lane processes a block of this many
#: events through the per-event body before re-probing the rest of the
#: chunk columnar -- one re-probe per *cluster*, not per miss.
_MISS_BLOCK = 16

#: Re-probes allowed per chunk before it is declared miss-heavy and
#: finishes event by event.  Together with :data:`_MISS_BLOCK` this
#: bounds the wasted probe work of a thrashing stream at a fraction of
#: its per-event cost, while a phase-entry miss burst (working-set
#: turnover inside one chunk) stays on the columnar lane.
_REPROBE_BUDGET = 4


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level.

    Attributes:
        size: total capacity in bytes.
        assoc: number of ways per set.
        line_size: line size in bytes (must be a power of two).
        hit_latency: cycles charged for a hit at this level.
    """

    size: int
    assoc: int
    line_size: int = 64
    hit_latency: int = 2

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.line_size):
            raise ValueError(f"line_size must be a power of two: {self.line_size}")
        if self.assoc <= 0:
            raise ValueError(f"assoc must be positive: {self.assoc}")
        if self.size <= 0 or self.size % (self.line_size * self.assoc) != 0:
            raise ValueError(
                f"size {self.size} is not a multiple of "
                f"line_size*assoc = {self.line_size * self.assoc}"
            )
        if not _is_power_of_two(self.num_sets):
            raise ValueError(
                f"number of sets must be a power of two, got {self.num_sets}"
            )

    @property
    def num_sets(self) -> int:
        return self.size // (self.line_size * self.assoc)

    @property
    def line_bits(self) -> int:
        return self.line_size.bit_length() - 1

    def scaled(self, factor: int) -> "CacheConfig":
        """A cache ``factor``x smaller with the same associativity and
        line size (used to shrink machine models so that synthetic
        workloads with small footprints exercise realistic miss ratios).
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        new_size = max(self.line_size * self.assoc, self.size // factor)
        return CacheConfig(
            size=new_size,
            assoc=self.assoc,
            line_size=self.line_size,
            hit_latency=self.hit_latency,
        )

    def describe(self) -> str:
        kb = self.size / 1024
        return (
            f"{kb:g}KB {self.assoc}-way, {self.line_size}B lines, "
            f"{self.num_sets} sets"
        )


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache level."""

    reads: int = 0
    read_misses: int = 0
    writes: int = 0
    write_misses: int = 0
    evictions: int = 0
    prefetch_fills: int = 0
    redundant_prefetches: int = 0
    useful_prefetches: int = 0
    late_prefetch_stall_cycles: int = 0

    @property
    def refs(self) -> int:
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_ratio(self) -> float:
        refs = self.refs
        return self.misses / refs if refs else 0.0

    def reset(self) -> None:
        for field in self.__dataclass_fields__:
            setattr(self, field, 0)


# Policies the array engine can execute directly.  Exact-type checks on
# purpose: a subclass may override hooks in ways the flat loops don't
# replicate, so it falls back to the dict engine.
_FAST_POLICIES = (LRUPolicy, FIFOPolicy, BitPLRUPolicy)


class Cache:
    """One level of set-associative cache."""

    def __init__(self, config: CacheConfig,
                 policy: Optional[ReplacementPolicy] = None) -> None:
        self.config = config
        self.policy = policy if policy is not None else LRUPolicy()
        self.stats = CacheStats()
        self._set_mask = config.num_sets - 1
        self._line_bits = config.line_bits
        self._assoc = config.assoc
        ptype = type(self.policy)
        self._fast = ptype in _FAST_POLICIES
        if self._fast:
            # LRU and PLRU refresh the stamp on every hit; FIFO orders
            # strictly by fill time.
            self._touch = ptype is not FIFOPolicy
            self._plru = ptype is BitPLRUPolicy
            n = config.num_sets * config.assoc
            self._tags: List[Optional[int]] = [None] * n
            self._stamps = [0] * n
            self._order = [0] * n
            self._ready = [0] * n
            self._pref = [False] * n
            self._dirty = [False] * n
            self._mru = [False] * n
            self._where: Dict[int, int] = {}
            self._set_len = [0] * config.num_sets
            self._fill_seq = 0
            # True while no line was ever written, prefetched, or filled
            # with a future ready time: every ready/pref/dirty cell is
            # still at its initial value, so batch read streams may skip
            # that bookkeeping wholesale (the analyzer's entire regime).
            self._plain = True
            # Weaker flag: writes allowed, but still no prefetch and no
            # future ready time ever -- every ready cell is 0 and every
            # pref cell False.  Demand-only simulation (the Cachegrind
            # full simulator's regime) keeps this True forever, which
            # lets access_many retire all-hit chunks without per-event
            # stall/prefetch bookkeeping.
            self._plain_timing = True
        else:
            self._sets: List[Dict[int, CacheLine]] = [
                {} for _ in range(config.num_sets)
            ]

    @classmethod
    def from_spec(cls, size: int, assoc: int, line_size: int = 64,
                  hit_latency: int = 2, policy: str = "lru") -> "Cache":
        return cls(
            CacheConfig(size, assoc, line_size, hit_latency),
            make_policy(policy),
        )

    # -- address helpers ----------------------------------------------------

    def line_addr(self, addr: int) -> int:
        return addr >> self._line_bits

    def set_index(self, line_addr: int) -> int:
        return line_addr & self._set_mask

    # -- core operations ----------------------------------------------------

    def probe(self, line_addr: int, is_write: bool, now: int = 0) -> Tuple[bool, int]:
        """Demand-access one line.

        Returns ``(hit, stall)``: whether the line was resident, and any
        extra stall cycles caused by an in-flight (late) prefetch.
        Accounting is updated; on a miss the caller is responsible for
        calling :meth:`fill`.
        """
        stats = self.stats
        if is_write:
            stats.writes += 1
            self._plain = False
        else:
            stats.reads += 1
        if self._fast:
            slot = self._where.get(line_addr)
            if slot is None:
                if is_write:
                    stats.write_misses += 1
                else:
                    stats.read_misses += 1
                return False, 0
            stall = 0
            ready = self._ready[slot]
            if ready > now:
                stall = ready - now
                stats.late_prefetch_stall_cycles += stall
            if self._pref[slot]:
                self._pref[slot] = False
                stats.useful_prefetches += 1
            if is_write:
                self._dirty[slot] = True
            if self._touch:
                self._stamps[slot] = now
                if self._plru:
                    self._mru[slot] = True
            return True, stall
        cache_set = self._sets[line_addr & self._set_mask]
        line = cache_set.get(line_addr)
        if line is None:
            if is_write:
                stats.write_misses += 1
            else:
                stats.read_misses += 1
            return False, 0
        stall = 0
        if line.ready_at > now:
            stall = line.ready_at - now
            stats.late_prefetch_stall_cycles += stall
        if line.prefetched:
            line.prefetched = False
            stats.useful_prefetches += 1
        if is_write:
            line.dirty = True
        self.policy.on_access(line, now)
        return True, stall

    def contains(self, line_addr: int) -> bool:
        """Non-destructive residency check (no stats side effects)."""
        if self._fast:
            return line_addr in self._where
        return line_addr in self._sets[line_addr & self._set_mask]

    def fill(self, line_addr: int, now: int = 0, ready_at: int = 0,
             prefetched: bool = False, is_write: bool = False) -> Optional[int]:
        """Insert a line, evicting if needed.

        Returns the evicted line address (or ``None``).  A prefetch fill
        of an already-resident line is counted as redundant and leaves the
        existing line untouched.
        """
        if self._fast:
            if prefetched or ready_at:
                self._plain = False
                self._plain_timing = False
            elif is_write:
                self._plain = False
            where = self._where
            if line_addr in where:
                if prefetched:
                    self.stats.redundant_prefetches += 1
                return None
            set_idx = line_addr & self._set_mask
            tags = self._tags
            evicted = None
            if self._set_len[set_idx] >= self._assoc:
                slot = self._victim_slot(set_idx * self._assoc)
                evicted = tags[slot]
                del where[evicted]
                self.stats.evictions += 1
            else:
                slot = set_idx * self._assoc
                while tags[slot] is not None:
                    slot += 1
                self._set_len[set_idx] += 1
            tags[slot] = line_addr
            where[line_addr] = slot
            self._stamps[slot] = now
            self._fill_seq += 1
            self._order[slot] = self._fill_seq
            self._ready[slot] = ready_at
            self._pref[slot] = prefetched
            self._dirty[slot] = is_write
            self._mru[slot] = self._plru
            if prefetched:
                self.stats.prefetch_fills += 1
            return evicted
        cache_set = self._sets[line_addr & self._set_mask]
        existing = cache_set.get(line_addr)
        if existing is not None:
            if prefetched:
                self.stats.redundant_prefetches += 1
            return None
        evicted = None
        if len(cache_set) >= self.config.assoc:
            victim_tag = self.policy.victim(cache_set)
            del cache_set[victim_tag]
            self.stats.evictions += 1
            evicted = victim_tag
        line = CacheLine(line_addr, now=now, ready_at=ready_at,
                         prefetched=prefetched)
        if is_write:
            line.dirty = True
        cache_set[line_addr] = line
        self.policy.on_fill(line, now)
        if prefetched:
            self.stats.prefetch_fills += 1
        return evicted

    def _victim_slot(self, base: int) -> int:
        """Way index to evict from the full set starting at ``base``.

        Ordering matches ``min()`` over an insertion-ordered dict: oldest
        stamp first, fill order breaking ties.  Only ever called on a
        *full* set (``_set_len[set] == assoc``), so every slot holds a
        line and the scan can run as C-level slice operations; the
        slot-by-slot loop survives only for stamp ties (same-timestamp
        fills, broken by fill order) and for the PLRU candidate filter.
        """
        end = base + self._assoc
        stamps = self._stamps
        order = self._order
        if self._plru:
            mru = self._mru
            best = -1
            best_stamp = best_order = 0
            for slot in range(base, end):
                if not mru[slot]:
                    s = stamps[slot]
                    if (best < 0 or s < best_stamp
                            or (s == best_stamp and order[slot] < best_order)):
                        best, best_stamp, best_order = slot, s, order[slot]
            if best >= 0:
                return best
            # Every line is MRU: clear all bits, then any line qualifies.
            for slot in range(base, end):
                mru[slot] = False
        seg = stamps[base:end]
        oldest = min(seg)
        if seg.count(oldest) == 1:
            return base + seg.index(oldest)
        best = -1
        best_order = 0
        for slot in range(base, end):
            if stamps[slot] == oldest:
                o = order[slot]
                if best < 0 or o < best_order:
                    best, best_order = slot, o
        return best

    def access_many(self, line_addrs: Sequence[int], is_write: bool = False,
                    writes: Optional[Sequence[bool]] = None,
                    start_now: int = 0,
                    nows: Optional[Sequence[int]] = None,
                    misses_only: bool = False) -> List:
        """Run a whole demand stream: probe each line, fill on miss.

        Semantically identical to the loop::

            for i, la in enumerate(line_addrs):
                now = nows[i] if nows is not None else start_now + i + 1
                w = writes[i] if writes is not None else is_write
                hit, _ = self.probe(la, w, now)
                if not hit:
                    self.fill(la, now=now, is_write=w)

        but on the array engine the whole stream runs through one loop
        with hoisted state and batched stats, and long demand-only
        streams (no prefetch or timed fill ever -- ``_plain_timing``)
        retire all-hit chunks through a columnar vector sublane.
        Returns the per-access hit flags -- or, with ``misses_only``,
        just the ascending stream indices of the misses, sparing
        hit-dominated streams the per-event flag list when the caller
        (e.g. the Cachegrind drain) only consumes the miss subsequence.
        The default timestamps (``start_now + i + 1``) mirror the
        analyzer's pre-incremented reference counter.
        """
        if not self._fast:
            out: List = []
            now = start_now
            for i, line_addr in enumerate(line_addrs):
                now = nows[i] if nows is not None else now + 1
                w = writes[i] if writes is not None else is_write
                hit, _ = self.probe(line_addr, w, now)
                if not hit:
                    self.fill(line_addr, now=now, is_write=w)
                if misses_only:
                    if not hit:
                        out.append(i)
                else:
                    out.append(hit)
            return out

        where = self._where
        get = where.get
        tags = self._tags
        stamps = self._stamps
        order = self._order
        ready = self._ready
        pref = self._pref
        dirty = self._dirty
        mru = self._mru
        set_len = self._set_len
        set_mask = self._set_mask
        assoc = self._assoc
        plru = self._plru
        touch = self._touch
        fill_seq = self._fill_seq
        victim_slot = self._victim_slot

        n_reads = n_writes = n_read_misses = n_write_misses = 0
        n_evictions = n_useful = n_stall = 0
        #: hit flags, or miss indices under ``misses_only``
        out: List = []
        append = out.append
        n = len(line_addrs)
        step = _VECTOR_CHUNK

        if (writes is None and nows is None and not is_write
                and self._plain and not plru):
            # Clean read-only consecutive-timestamp lane -- the
            # analyzer's whole workload.  ``_plain`` guarantees every
            # ready/pref/dirty cell is still at its initial value and
            # this stream cannot change that, so the only state touched
            # is tags/where/stamps/order: hits are a dict probe plus one
            # stamp store, and misses skip four dead bookkeeping writes.
            # The victim scan runs as C slice ops (min/count/index) --
            # the set is full, and stamp ties fall back to the slow path.
            #
            # Long streams additionally run a chunked vector sublane:
            # one map() probes a whole chunk's slots and the all-hit
            # *prefix* is retired columnar (one range() of stamps, one
            # block of hit flags) -- no residency changes before the
            # first miss, so the pre-computed slots stay valid, and
            # duplicate lines resolve in stream order because map()
            # applies stores left to right.  A miss runs a
            # ``_MISS_BLOCK`` of events through the per-event body (its
            # fill may have evicted a pre-computed slot, and misses
            # cluster) before the remainder is re-probed; a chunk that
            # exhausts ``_REPROBE_BUDGET`` is miss-heavy and finishes
            # event by event.
            now = start_now
            pos = 0
            vector = n >= step
            while pos < n:
                if vector:
                    chunk = line_addrs[pos:pos + step]
                    pos += step
                    m = len(chunk)
                    i = 0
                    budget = _REPROBE_BUDGET
                    while True:
                        seg = chunk[i:] if i else chunk
                        slot_v = list(map(get, seg))
                        cut = (slot_v.index(None) if None in slot_v
                               else m - i)
                        if cut:
                            if touch:
                                # map() stops at the range's end: only
                                # the prefix slots are stamped.
                                _consume(map(stamps.__setitem__, slot_v,
                                             range(now + 1,
                                                   now + cut + 1)))
                            now += cut
                            if not misses_only:
                                out += [True] * cut
                            i += cut
                            if i == m:
                                break
                        if not budget:
                            break
                        budget -= 1
                        for line_addr in chunk[i:i + _MISS_BLOCK]:
                            now += 1
                            slot = get(line_addr)
                            if slot is not None:
                                if not misses_only:
                                    append(True)
                                if touch:
                                    stamps[slot] = now
                                continue
                            append(now - start_now - 1
                                   if misses_only else False)
                            n_read_misses += 1
                            set_idx = line_addr & set_mask
                            if set_len[set_idx] >= assoc:
                                base = set_idx * assoc
                                sseg = stamps[base:base + assoc]
                                oldest = min(sseg)
                                if sseg.count(oldest) == 1:
                                    slot = base + sseg.index(oldest)
                                else:
                                    slot = victim_slot(base)
                                del where[tags[slot]]
                                n_evictions += 1
                            else:
                                slot = set_idx * assoc
                                while tags[slot] is not None:
                                    slot += 1
                                set_len[set_idx] += 1
                            tags[slot] = line_addr
                            where[line_addr] = slot
                            stamps[slot] = now
                            fill_seq += 1
                            order[slot] = fill_seq
                        i += _MISS_BLOCK
                        if i >= m:
                            i = m
                            break
                    if i == m:
                        continue
                    chunk = chunk[i:]
                else:
                    chunk = line_addrs
                    pos = n
                for line_addr in chunk:
                    now += 1
                    slot = get(line_addr)
                    if slot is not None:
                        if not misses_only:
                            append(True)
                        if touch:
                            stamps[slot] = now
                        continue
                    append(now - start_now - 1 if misses_only else False)
                    n_read_misses += 1
                    set_idx = line_addr & set_mask
                    if set_len[set_idx] >= assoc:
                        base = set_idx * assoc
                        sseg = stamps[base:base + assoc]
                        oldest = min(sseg)
                        if sseg.count(oldest) == 1:
                            slot = base + sseg.index(oldest)
                        else:
                            slot = victim_slot(base)
                        del where[tags[slot]]
                        n_evictions += 1
                    else:
                        slot = set_idx * assoc
                        while tags[slot] is not None:
                            slot += 1
                        set_len[set_idx] += 1
                    tags[slot] = line_addr
                    where[line_addr] = slot
                    stamps[slot] = now
                    fill_seq += 1
                    order[slot] = fill_seq
            n_reads = n
        elif (nows is None and start_now >= 0 and n >= step
                and self._plain_timing):
            # Chunked vector lane for demand-only streams with writes.
            # ``_plain_timing`` guarantees every ready cell is 0 and
            # every pref cell False, and nothing below changes that:
            # consecutive timestamps from a non-negative start keep
            # ``now`` above every ready time, so no stall or
            # useful-prefetch accounting can fire and hit work reduces
            # to dirty/stamp/mru stores.  All-hit chunk prefixes retire
            # columnar exactly as in the read-only lane, with the dirty
            # stores picked out by C-level compress(); a miss runs a
            # ``_MISS_BLOCK`` of events through a per-event body that
            # skips the same dead ready/pref bookkeeping before the
            # remainder is re-probed, and a chunk that exhausts
            # ``_REPROBE_BUDGET`` finishes event by event.
            if is_write or writes is not None:
                self._plain = False
            now = start_now
            pos = 0
            while pos < n:
                chunk = line_addrs[pos:pos + step]
                wchunk = (writes[pos:pos + step]
                          if writes is not None else None)
                pos += step
                m = len(chunk)
                i = 0
                budget = _REPROBE_BUDGET
                while True:
                    seg = chunk[i:] if i else chunk
                    slot_v = list(map(get, seg))
                    cut = (slot_v.index(None) if None in slot_v
                           else m - i)
                    if cut:
                        hslots = (slot_v if cut == m - i
                                  else slot_v[:cut])
                        if wchunk is None:
                            nw = cut if is_write else 0
                            if nw:
                                _consume(map(dirty.__setitem__, hslots,
                                             _TRUES))
                        else:
                            wslots = list(compress(
                                hslots, wchunk[i:i + cut]))
                            nw = len(wslots)
                            if nw:
                                _consume(map(dirty.__setitem__, wslots,
                                             _TRUES))
                        n_writes += nw
                        n_reads += cut - nw
                        if touch:
                            _consume(map(stamps.__setitem__, hslots,
                                         range(now + 1, now + cut + 1)))
                            if plru:
                                _consume(map(mru.__setitem__, hslots,
                                             _TRUES))
                        now += cut
                        if not misses_only:
                            out += [True] * cut
                        i += cut
                        if i == m:
                            break
                    if not budget:
                        break
                    budget -= 1
                    wblk = (wchunk[i:i + _MISS_BLOCK]
                            if wchunk is not None else repeat(is_write))
                    for line_addr, w in zip(chunk[i:i + _MISS_BLOCK],
                                            wblk):
                        now += 1
                        if w:
                            n_writes += 1
                        else:
                            n_reads += 1
                        slot = get(line_addr)
                        if slot is not None:
                            if not misses_only:
                                append(True)
                            if w:
                                dirty[slot] = True
                            if touch:
                                stamps[slot] = now
                                if plru:
                                    mru[slot] = True
                            continue
                        append(now - start_now - 1
                               if misses_only else False)
                        if w:
                            n_write_misses += 1
                        else:
                            n_read_misses += 1
                        set_idx = line_addr & set_mask
                        if set_len[set_idx] >= assoc:
                            slot = victim_slot(set_idx * assoc)
                            del where[tags[slot]]
                            n_evictions += 1
                        else:
                            slot = set_idx * assoc
                            while tags[slot] is not None:
                                slot += 1
                            set_len[set_idx] += 1
                        tags[slot] = line_addr
                        where[line_addr] = slot
                        stamps[slot] = now
                        fill_seq += 1
                        order[slot] = fill_seq
                        dirty[slot] = w
                        if plru:
                            mru[slot] = True
                    i += _MISS_BLOCK
                    if i >= m:
                        i = m
                        break
                if i == m:
                    continue
                wtail = (wchunk[i:] if wchunk is not None
                         else repeat(is_write))
                for line_addr, w in zip(chunk[i:], wtail):
                    now += 1
                    if w:
                        n_writes += 1
                    else:
                        n_reads += 1
                    slot = get(line_addr)
                    if slot is not None:
                        if not misses_only:
                            append(True)
                        if w:
                            dirty[slot] = True
                        if touch:
                            stamps[slot] = now
                            if plru:
                                mru[slot] = True
                        continue
                    append(now - start_now - 1 if misses_only else False)
                    if w:
                        n_write_misses += 1
                    else:
                        n_read_misses += 1
                    set_idx = line_addr & set_mask
                    if set_len[set_idx] >= assoc:
                        slot = victim_slot(set_idx * assoc)
                        del where[tags[slot]]
                        n_evictions += 1
                    else:
                        slot = set_idx * assoc
                        while tags[slot] is not None:
                            slot += 1
                        set_len[set_idx] += 1
                    tags[slot] = line_addr
                    where[line_addr] = slot
                    stamps[slot] = now
                    fill_seq += 1
                    order[slot] = fill_seq
                    dirty[slot] = w
                    if plru:
                        mru[slot] = True
        else:
            if is_write or writes is not None:
                self._plain = False
            now = start_now
            for i, line_addr in enumerate(line_addrs):
                now = nows[i] if nows is not None else now + 1
                w = writes[i] if writes is not None else is_write
                if w:
                    n_writes += 1
                else:
                    n_reads += 1
                slot = get(line_addr)
                if slot is not None:
                    if not misses_only:
                        append(True)
                    r = ready[slot]
                    if r > now:
                        n_stall += r - now
                    if pref[slot]:
                        pref[slot] = False
                        n_useful += 1
                    if w:
                        dirty[slot] = True
                    if touch:
                        stamps[slot] = now
                        if plru:
                            mru[slot] = True
                    continue
                append(i if misses_only else False)
                if w:
                    n_write_misses += 1
                else:
                    n_read_misses += 1
                set_idx = line_addr & set_mask
                if set_len[set_idx] >= assoc:
                    slot = victim_slot(set_idx * assoc)
                    del where[tags[slot]]
                    n_evictions += 1
                else:
                    slot = set_idx * assoc
                    while tags[slot] is not None:
                        slot += 1
                    set_len[set_idx] += 1
                tags[slot] = line_addr
                where[line_addr] = slot
                stamps[slot] = now
                fill_seq += 1
                order[slot] = fill_seq
                ready[slot] = 0
                pref[slot] = False
                dirty[slot] = w
                mru[slot] = plru

        self._fill_seq = fill_seq
        stats = self.stats
        stats.reads += n_reads
        stats.writes += n_writes
        stats.read_misses += n_read_misses
        stats.write_misses += n_write_misses
        stats.evictions += n_evictions
        stats.useful_prefetches += n_useful
        stats.late_prefetch_stall_cycles += n_stall
        return out

    def invalidate(self, line_addr: int) -> bool:
        """Drop one line; returns whether it was present."""
        if self._fast:
            slot = self._where.pop(line_addr, None)
            if slot is None:
                return False
            self._tags[slot] = None
            self._set_len[line_addr & self._set_mask] -= 1
            return True
        cache_set = self._sets[line_addr & self._set_mask]
        return cache_set.pop(line_addr, None) is not None

    def flush(self) -> None:
        """Drop every line (the analyzer's periodic decontamination)."""
        if self._fast:
            where = self._where
            if len(where) * 4 < len(self._tags):
                # Sparsely populated: clear per resident line instead of
                # reallocating whole arrays (flushes run on nearly every
                # analyzer trigger, usually with few lines live).
                tags = self._tags
                set_len = self._set_len
                assoc = self._assoc
                for slot in where.values():
                    tags[slot] = None
                    set_len[slot // assoc] = 0
            else:
                self._tags = [None] * len(self._tags)
                self._set_len = [0] * len(self._set_len)
            where.clear()
            return
        for cache_set in self._sets:
            cache_set.clear()

    def resident_lines(self) -> int:
        if self._fast:
            return len(self._where)
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:
        return f"<Cache {self.config.describe()} policy={self.policy.name}>"
