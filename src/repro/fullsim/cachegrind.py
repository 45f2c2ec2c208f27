"""Cachegrind-style full-trace cache simulation.

The offline baseline the paper validates UMI against: a complete
simulation of every data reference through a two-level cache model, with
per-instruction miss accounting.  The paper modified Cachegrind "to
report the number of cache misses for individual memory references
rather than for each line of code"; this simulator does the same, keyed
by instruction pc.

It simulates no prefetching ("the UMI and Cachegrind miss ratios are
unchanged since they ignore any prefetching side effects") and no timing.
The simulator is a :class:`repro.stream.RefConsumer`: attach it to a
:class:`~repro.stream.RefStream` to piggyback on another pass, or call
:meth:`run` for a standalone simulation.

References stay columnar end to end: the stream delivers
:class:`~repro.stream.RefBatch` records whose line columns
:meth:`on_batch` runs straight through
:meth:`~repro.memory.cache.Cache.access_many` in miss-index form --
the whole D1 batch in one kernel call, then the D1-miss subsequence
through L2 with its original timestamps.  Only a batch containing a
line-straddling reference falls back to per-event :meth:`observe`,
which buffers split line cells and drains them every ``BATCH_SIZE``
cells through the same kernel.  D1 and L2 are disjoint structures and
cells keep their per-cell clock values, so the batched results are
identical to the old probe/fill-per-cell loop.  Per-pc
reference accounting is deferred: drains stash their pc/write columns
whole and they fold into :class:`collections.Counter` objects (all
cells and, via :func:`itertools.compress`, write cells; rare misses
are counted eagerly under ``(is_write, pc)`` pair keys) only when the
``load_stats`` / ``store_stats`` dict-of-:class:`PCStats` views are
materialized or a memory cap is reached.  Every reader drains first;
the public views do so via properties.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Optional

from repro.isa import Program
from repro.memory.cache import Cache, CacheConfig
from repro.memory.flat import FlatMemory
from repro.memory.hierarchy import MachineConfig
from repro.stream import KIND_IFETCH, KIND_WRITE, RefBatch, RefConsumer

#: Cachegrind's documented runtime cost relative to native execution
#: ("It adds a runtime overhead between 20x-100x", Section 6.2).  Used by
#: the Table 2 tradeoff summary; the simulator itself does not model time.
CACHEGRIND_SLOWDOWN_RANGE = (20.0, 100.0)

#: Buffered line cells between drains.
BATCH_SIZE = 4096

#: Pending (pcs, writes) accounting columns fold into the per-pc
#: counters once this many cells are queued, bounding retained memory
#: on long simulations while keeping short runs fully deferred.
_FOLD_CELLS = 1 << 20


@dataclass
class PCStats:
    """Per-instruction (per-pc) reference/miss counts."""

    refs: int = 0
    l1_misses: int = 0
    l2_misses: int = 0

    @property
    def l2_miss_ratio(self) -> float:
        return self.l2_misses / self.refs if self.refs else 0.0


class CachegrindSimulator(RefConsumer):
    """Full-trace D1/L2 simulation with per-pc accounting."""

    def __init__(self, machine: MachineConfig,
                 track_stores: bool = True) -> None:
        self.machine = machine
        self.d1 = Cache(machine.l1)
        self.l2 = Cache(machine.l2)
        self.track_stores = track_stores
        self._line_bits = machine.l1.line_bits
        self._line_mask = machine.l1.line_size - 1
        self._clock = 0
        self._clock_base = 0
        self._buf_pcs: List[int] = []
        self._buf_lines: List[int] = []
        self._buf_writes: List[int] = []
        #: Reference accounting is deferred: each drain stashes its
        #: (pcs, writes) columns whole (a list swap, no copy) and they
        #: fold into the per-pc counters -- all cells, then write cells
        #: only (compress() picks them out at C speed) -- when a view
        #: is materialized or ``_FOLD_CELLS`` cells are queued.  The
        #: load side is recovered as the difference at view time.
        #: Misses are rare, so they are counted eagerly under
        #: per-(is_write, pc) pair keys; ``True``/``1`` keys collide by
        #: design (``hash(True) == hash(1)``), so tuple- and column-fed
        #: drains merge cleanly.
        self._refs_all: Counter = Counter()
        self._refs_w: Counter = Counter()
        self._pending: List[tuple] = []
        self._pending_cells = 0
        self._l1_pairs: Counter = Counter()
        self._l2_pairs: Counter = Counter()
        self._load_view: Optional[Dict[int, PCStats]] = None
        self._store_view: Optional[Dict[int, PCStats]] = None

    # -- reference processing -------------------------------------------------

    def on_batch(self, batch: RefBatch) -> None:
        """Columnar stream delivery: data references only (ifetch is
        invisible to Cachegrind, which simulates D1/L2 data traffic)."""
        pcs = batch.pcs
        addrs = batch.addrs
        sizes = batch.sizes
        kinds = batch.kinds
        if KIND_IFETCH in kinds:
            data = [(p, a, s, k) for p, a, s, k in
                    zip(pcs, addrs, sizes, kinds) if k != KIND_IFETCH]
            if not data:
                return
            pcs, addrs, sizes, kinds = map(list, zip(*data))
        if not addrs:
            return
        line_bits = self._line_bits
        # Straddle screen, cheapest first: the batch's seal-time column
        # statistics prove straddle-freedom in O(1) (the OR of the
        # address column over-approximates every in-line offset, and
        # they stay conservative for the ifetch-filtered subset); a
        # hand-built batch without statistics falls back to the exact
        # first-line == last-line comparison.
        addr_or = batch.addr_or
        lines = [a >> line_bits for a in addrs]
        if addr_or is not None:
            straddle_free = ((addr_or & self._line_mask) + batch.max_size
                             <= self._line_mask + 1)
        else:
            straddle_free = False
        if not straddle_free:
            straddle_free = lines == [(a + s - 1) >> line_bits
                                      for a, s in zip(addrs, sizes)]
        if straddle_free:
            # No reference straddles a line: one cell each, so the
            # batch columns run through the caches directly -- no
            # intermediate cell buffer.  With ifetch gone, the kind
            # column (0/1) *is* the write column.  Any cells buffered
            # by the per-event path flush first to keep stream order.
            if self._buf_lines:
                self._drain()
            self._clock += len(lines)
            self._run_cells(pcs, lines, kinds)
        else:
            observe = self.observe
            for p, a, s, k in zip(pcs, addrs, sizes, kinds):
                observe(p, a, k == KIND_WRITE, s)

    def finish(self) -> None:
        self._drain()

    def observe(self, pc: int, addr: int, is_write: bool, size: int) -> None:
        """Process one data reference."""
        first_line = addr >> self._line_bits
        last_line = (addr + size - 1) >> self._line_bits
        pcs = self._buf_pcs
        lines = self._buf_lines
        writes = self._buf_writes
        for line_addr in range(first_line, last_line + 1):
            self._clock += 1
            pcs.append(pc)
            lines.append(line_addr)
            writes.append(is_write)
        if len(lines) >= BATCH_SIZE:
            self._drain()

    def _drain(self) -> None:
        """Replay any cells buffered by the per-event path."""
        lines = self._buf_lines
        if not lines:
            return
        pcs = self._buf_pcs
        writes = self._buf_writes
        # Fresh buffers replace the old lists, which _run_cells keeps
        # whole for the deferred accounting -- no copy, no per-cell
        # work.
        self._buf_pcs = []
        self._buf_lines = []
        self._buf_writes = []
        self._run_cells(pcs, lines, writes)

    def _run_cells(self, pcs: List[int], lines: List[int],
                   writes: List[int]) -> None:
        """Run parallel cell columns through D1 then L2.

        ``self._clock`` must already cover these cells; the pc/write
        columns are retained whole for the deferred per-pc accounting,
        so callers must not mutate them afterwards.
        """
        base = self._clock_base
        miss_idx = self.d1.access_many(lines, writes=writes,
                                       start_now=base, misses_only=True)
        if miss_idx:
            # The D1 miss subsequence replays through L2 with its
            # original per-cell timestamps; L2's own misses come back
            # as indices *into* miss_idx.
            l2_miss_sub = self.l2.access_many(
                [lines[i] for i in miss_idx],
                writes=[writes[i] for i in miss_idx],
                nows=[base + i + 1 for i in miss_idx],
                misses_only=True,
            )
            self._l1_pairs.update(
                [(writes[i], pcs[i]) for i in miss_idx])
            if l2_miss_sub:
                self._l2_pairs.update(
                    [(writes[miss_idx[j]], pcs[miss_idx[j]])
                     for j in l2_miss_sub])

        self._pending.append((pcs, writes))
        self._pending_cells += len(pcs)
        if self._pending_cells >= _FOLD_CELLS:
            self._fold_refs()
        self._clock_base = self._clock
        self._load_view = None
        self._store_view = None

    # -- per-pc views (drain first so buffered cells are visible) -------------

    def _fold_refs(self) -> None:
        """Fold queued accounting columns into the per-pc counters:
        two C-level Counter passes per column pair (all cells, then
        write cells via compress)."""
        refs_all = self._refs_all
        refs_w = self._refs_w
        for pcs, writes in self._pending:
            refs_all.update(pcs)
            refs_w.update(compress(pcs, writes))
        self._pending.clear()
        self._pending_cells = 0

    def _stats_view(self, want_write: bool) -> Dict[int, PCStats]:
        self._fold_refs()
        l1 = self._l1_pairs
        l2 = self._l2_pairs
        w_refs = self._refs_w
        view = {}
        if want_write:
            for pc, r in w_refs.items():
                if r:
                    view[pc] = PCStats(refs=r,
                                       l1_misses=l1[(True, pc)],
                                       l2_misses=l2[(True, pc)])
        else:
            for pc, total in self._refs_all.items():
                r = total - w_refs[pc]
                if r:
                    view[pc] = PCStats(refs=r,
                                       l1_misses=l1[(False, pc)],
                                       l2_misses=l2[(False, pc)])
        return view

    @property
    def load_stats(self) -> Dict[int, PCStats]:
        self._drain()
        view = self._load_view
        if view is None:
            view = self._stats_view(False)
            self._load_view = view
        return view

    @property
    def store_stats(self) -> Dict[int, PCStats]:
        self._drain()
        view = self._store_view
        if view is None:
            view = self._stats_view(True) if self.track_stores else {}
            self._store_view = view
        return view

    def settle(self) -> None:
        """Replay buffered cells and fold the queued accounting columns
        into the per-pc counters, so the simulator holds counters, not
        raw columns: call it before keeping or shipping a finished
        simulator."""
        self._drain()
        self._fold_refs()

    def __getstate__(self):
        # Settle before pickling (e.g. shipping a RunOutcome back from a
        # worker process), so the payload carries counters.
        self.settle()
        return self.__dict__

    # -- standalone driving ------------------------------------------------------

    def run(self, program: Program,
            max_steps: Optional[int] = None) -> None:
        """Simulate a whole program standalone (flat memory, no timing)."""
        from repro.stream import RefStream
        from repro.vm.interpreter import DEFAULT_MAX_STEPS, Interpreter

        stream = RefStream()
        stream.attach(self)
        interp = Interpreter(program, FlatMemory(latency=0), stream=stream)
        interp.run_native(
            max_steps=DEFAULT_MAX_STEPS if max_steps is None else max_steps)
        stream.finish()

    # -- results ---------------------------------------------------------------------

    def l2_miss_ratio(self) -> float:
        """Overall L2 miss ratio (misses / refs, loads + stores)."""
        self._drain()
        return self.l2.stats.miss_ratio

    def d1_miss_ratio(self) -> float:
        self._drain()
        return self.d1.stats.miss_ratio

    def total_l2_load_misses(self) -> int:
        self._drain()
        return sum(r for (w, _), r in self._l2_pairs.items() if not w)

    def pc_load_misses(self) -> Dict[int, int]:
        """L2 load misses per instruction pc (nonzero entries only)."""
        self._drain()
        return {pc: r for (w, pc), r in self._l2_pairs.items() if not w}

    def summary(self) -> Dict[str, float]:
        self._drain()
        return {
            "d1_refs": self.d1.stats.refs,
            "d1_misses": self.d1.stats.misses,
            "l2_refs": self.l2.stats.refs,
            "l2_misses": self.l2.stats.misses,
            "d1_miss_ratio": self.d1_miss_ratio(),
            "l2_miss_ratio": self.l2_miss_ratio(),
        }
