"""A single set-associative cache with pluggable replacement.

This class is the building block for the "real hardware" hierarchy
(:mod:`repro.memory.hierarchy`), the Cachegrind-style full simulator
(:mod:`repro.fullsim`), and the UMI mini cache simulator
(:mod:`repro.core.analyzer`) -- the same structure the paper describes:
"each reference is mapped to its corresponding set.  The tag is compared
to all tags in the set.  If there is a match, the recorded time of the
matching line is updated.  Otherwise, an empty line, or the oldest line,
is selected to store the current tag."

One **array engine** runs every built-in policy (LRU, FIFO, bit-PLRU
and random): line state lives in flat parallel lists indexed by
``set * assoc + way`` with a single ``line_addr -> slot`` dict for
lookup, and :meth:`Cache.access_many` runs a whole demand stream
through one per-event loop with stats accumulated in locals -- a
read-only loop for clean read streams (the analyzer's shape) and a
general loop for every other stream.  Any other policy type is
rejected at construction.

The engine is bit-identical to :class:`repro.memory.cache_reference.
ReferenceCache`, which runs the policies' ``on_access``/``on_fill``/
``victim`` hooks over a per-set dict of line objects;
``tests/test_kernel_equivalence.py`` holds it to that.  A dict's key
order is fill order, so victim ties on equal stamps are broken by fill
order (what ``min()`` over the dict does), and a random victim is
drawn from the set's slots in fill order (what ``RandomPolicy.victim``
draws from).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .policies import (
    BitPLRUPolicy, FIFOPolicy, LRUPolicy, RandomPolicy, ReplacementPolicy,
    make_policy,
)


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


#: Column flags per policy type: ``(touch, plru)``.  LRU and PLRU
#: refresh the stamp on every hit; FIFO orders strictly by fill time;
#: random ignores stamps.  Exact types on purpose: a subclass may
#: override hooks in ways the flat loops don't replicate.
_POLICY_FLAGS = {
    LRUPolicy: (True, False),
    FIFOPolicy: (False, False),
    BitPLRUPolicy: (True, True),
    RandomPolicy: (False, False),
}


class Cache:
    """One level of set-associative cache."""

    def __init__(self, config: CacheConfig,
                 policy: Optional[ReplacementPolicy] = None) -> None:
        self.config = config
        self.policy = policy if policy is not None else LRUPolicy()
        ptype = type(self.policy)
        if ptype not in _POLICY_FLAGS:
            raise ValueError(
                f"Cache cannot run replacement policy {ptype.__name__}; "
                f"supported: "
                f"{', '.join(cls.__name__ for cls in _POLICY_FLAGS)}")
        self._touch, self._plru = _POLICY_FLAGS[ptype]
        #: the policy that draws random victims, or None
        self._random = self.policy if ptype is RandomPolicy else None
        self.stats = CacheStats()
        self._set_mask = config.num_sets - 1
        self._line_bits = config.line_bits
        self._assoc = config.assoc
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
        # pref cell False, so MemoryHierarchy's inline L1 hit paths
        # may skip the stall/prefetch bookkeeping.
        self._plain_timing = True

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

    def contains(self, line_addr: int) -> bool:
        """Non-destructive residency check (no stats side effects)."""
        return line_addr in self._where

    def fill(self, line_addr: int, now: int = 0, ready_at: int = 0,
             prefetched: bool = False, is_write: bool = False) -> Optional[int]:
        """Insert a line, evicting if needed.

        Returns the evicted line address (or ``None``).  A prefetch fill
        of an already-resident line is counted as redundant and leaves the
        existing line untouched.

        A full set's victim is selected right here, so an eviction costs
        no extra frame.  Ordering matches ``min()`` over an
        insertion-ordered dict: oldest stamp first, fill order breaking
        ties; PLRU first drops the lines whose MRU bit is set.  A random
        victim is drawn from the set's slots in fill order -- the dict's
        key order.  Every slot of a full set holds a line, so the stamp
        scan runs as C-level slice operations; the slot-by-slot loop
        survives only for stamp ties (same-timestamp fills) and for the
        PLRU candidate filter, where it beats a slice-min.
        """
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
        assoc = self._assoc
        slot = set_idx * assoc
        tags = self._tags
        stamps = self._stamps
        order = self._order
        evicted = None
        if self._set_len[set_idx] < assoc:
            while tags[slot] is not None:
                slot += 1
            self._set_len[set_idx] += 1
        else:
            base = slot
            end = base + assoc
            if self._random is not None:
                slot = self._random.choose(
                    sorted(range(base, end), key=order.__getitem__))
            else:
                slot = -1
                if self._plru:
                    mru = self._mru
                    best_stamp = best_order = 0
                    for s in range(base, end):
                        if not mru[s]:
                            stamp = stamps[s]
                            if (slot < 0 or stamp < best_stamp
                                    or (stamp == best_stamp
                                        and order[s] < best_order)):
                                slot, best_stamp, best_order = \
                                    s, stamp, order[s]
                    if slot < 0:
                        # Every line is MRU: clear all bits, then any
                        # line qualifies.
                        for s in range(base, end):
                            mru[s] = False
                if slot < 0:
                    seg = stamps[base:end]
                    oldest = min(seg)
                    if seg.count(oldest) == 1:
                        slot = base + seg.index(oldest)
                    else:
                        best_order = 0
                        for s in range(base, end):
                            if stamps[s] == oldest and (
                                    slot < 0 or order[s] < best_order):
                                slot, best_order = s, order[s]
            evicted = tags[slot]
            del where[evicted]
            self.stats.evictions += 1
        tags[slot] = line_addr
        where[line_addr] = slot
        stamps[slot] = now
        self._fill_seq += 1
        order[slot] = self._fill_seq
        self._ready[slot] = ready_at
        self._pref[slot] = prefetched
        self._dirty[slot] = is_write
        self._mru[slot] = self._plru
        if prefetched:
            self.stats.prefetch_fills += 1
        return evicted

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

        but the whole stream runs through one per-event loop with
        hoisted state and batched stats, picked by the stream's shape: a
        clean read-only stream with default timestamps on a stamp-victim
        cache (the analyzer's) takes a loop that touches only the tag,
        stamp and order columns; every other stream (and every PLRU or
        random cache) takes the general loop.
        Returns the per-access hit flags -- or, with ``misses_only``,
        just the ascending stream indices of the misses, sparing
        hit-dominated streams the per-event flag list when the caller
        (e.g. the Cachegrind drain) only consumes the miss subsequence.
        The default timestamps (``start_now + i + 1``) mirror the
        analyzer's pre-incremented reference counter.
        """
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
        fill = self.fill
        # LRU and FIFO evict the oldest stamp, which the loops find with
        # C slice ops; PLRU, random and stamp ties go through ``fill``.
        stamp_victims = not plru and self._random is None

        n_reads = n_writes = n_read_misses = n_write_misses = 0
        n_evictions = n_useful = n_stall = 0
        #: hit flags, or miss indices under ``misses_only``
        out: List = []
        append = out.append
        if (writes is None and nows is None and not is_write
                and self._plain and stamp_victims):
            # Clean read-only consecutive-timestamp lane -- the
            # analyzer's whole workload.  ``_plain`` guarantees every
            # ready/pref/dirty cell is still at its initial value and
            # this stream cannot change that, so the only state touched
            # is tags/where/stamps/order: hits are a dict probe plus one
            # stamp store, and misses skip four dead bookkeeping writes.
            # The victim scan runs as C slice ops (min/count/index) --
            # the set is full, and stamp ties fall back to ``fill``.
            now = start_now
            for line_addr in line_addrs:
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
                    if sseg.count(oldest) != 1:
                        self._fill_seq = fill_seq
                        fill(line_addr, now)
                        fill_seq = self._fill_seq
                        continue
                    slot = base + sseg.index(oldest)
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
            n_reads = len(line_addrs)
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
                    base = set_idx * assoc
                    if stamp_victims:
                        sseg = stamps[base:base + assoc]
                        oldest = min(sseg)
                    if not stamp_victims or sseg.count(oldest) != 1:
                        self._fill_seq = fill_seq
                        fill(line_addr, now, 0, False, w)
                        fill_seq = self._fill_seq
                        continue
                    slot = base + sseg.index(oldest)
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
        slot = self._where.pop(line_addr, None)
        if slot is None:
            return False
        self._tags[slot] = None
        self._set_len[line_addr & self._set_mask] -= 1
        return True

    def flush(self) -> None:
        """Drop every line (the analyzer's periodic decontamination)."""
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

    def resident_lines(self) -> int:
        return len(self._where)

    def __repr__(self) -> str:
        return f"<Cache {self.config.describe()} policy={self.policy.name}>"
