"""Hardware prefetcher models.

The Pentium 4 in the paper implements two L2 prefetch algorithms:
*adjacent cache line* prefetching and *stride* prefetching that "can
track up to 8 independent prefetch streams" (Section 8).  Both are
modelled here; they observe the stream of L2 demand accesses and issue
prefetch fills into the L2.  The AMD K7 model has no hardware prefetcher,
matching the paper ("The AMD K7 does not have any documented hardware
prefetching mechanisms").

The hierarchy trains its prefetcher once per L2 demand miss, and once
per L2 hit only for a prefetcher that trains on hits
(:attr:`HardwarePrefetcher.trains_on_hits`), through
:meth:`HardwarePrefetcher.train`, which fills the L2 directly.  The
default ``train`` runs :meth:`~HardwarePrefetcher.observe` with an
issue sink; :class:`Pentium4Prefetcher` overrides it with the whole P4
complex as one routine.  ``observe`` on the component classes stays the
behavioural contract that routine is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:
    from .cache import Cache

# A prefetch request: the prefetcher asks the hierarchy to bring
# ``line_addr`` into the L2.  The hierarchy decides latency/timeliness.
PrefetchSink = Callable[[int], None]


class HardwarePrefetcher:
    """Interface for L2-attached hardware prefetchers."""

    name = "abstract"

    def observe(self, pc: int, line_addr: int, hit: bool,
                issue: PrefetchSink) -> None:
        """Observe one L2 demand access; may call ``issue`` with line
        addresses to prefetch."""
        raise NotImplementedError

    @property
    def trains_on_hits(self) -> bool:
        """Whether an L2 demand *hit* can change this prefetcher's state
        or issue a prefetch.  The hierarchy trains it on hits only if
        so; a prefetcher that does not know stays True."""
        return True

    def train(self, pc: int, line_addr: int, hit: bool, l2: "Cache",
              now: int, latency: int) -> None:
        """Observe one L2 demand access at cycle ``now`` and fill every
        prefetch it issues into ``l2``, ready ``latency`` cycles later.

        Negative line addresses are dropped.  This default runs
        :meth:`observe`; a prefetcher may override it with an equivalent
        routine that fills ``l2`` itself.
        """
        ready_at = now + latency

        def issue(target: int) -> None:
            if target >= 0:
                l2.fill(target, now, ready_at, True)

        self.observe(pc, line_addr, hit, issue)

    def reset(self) -> None:
        """Clear internal state."""


class AdjacentLinePrefetcher(HardwarePrefetcher):
    """On an L2 miss, also fetch the pairing line of the 2-line sector.

    The Pentium 4 fetches the buddy line of a 128-byte sector when a
    64-byte line misses; pairing is computed by flipping the low line bit.
    """

    name = "adjacent"
    trains_on_hits = False

    def __init__(self) -> None:
        self.issued = 0

    def observe(self, pc: int, line_addr: int, hit: bool,
                issue: PrefetchSink) -> None:
        if not hit:
            issue(line_addr ^ 1)
            self.issued += 1

    def reset(self) -> None:
        self.issued = 0


@dataclass(slots=True)
class _Stream:
    """One tracked prefetch stream."""

    pc: int
    last_line: int
    stride: int = 0
    confidence: int = 0
    last_used: int = 0


_last_used = attrgetter("last_used")


class StridePrefetcher(HardwarePrefetcher):
    """PC-indexed stride prefetcher with a fixed number of streams.

    Each load PC that repeatedly advances by a constant line stride gets a
    stream; once a stream's confidence passes the threshold, the
    prefetcher runs ``degree`` line(s) ahead.  With at most
    ``max_streams`` (8 on the Pentium 4) concurrently tracked streams,
    the least recently used stream is displaced on overflow.

    Like the P4's data prefetch logic, the prefetcher is trained by the
    *miss* stream (``miss_triggered``): once its prefetches turn the
    stream into hits it stops being triggered, misses resume, and it
    re-engages -- the self-throttling that keeps real hardware prefetch
    well short of eliminating all misses.
    """

    name = "stride"

    #: Lines per 4KB page (64B lines); hardware prefetchers do not cross
    #: page boundaries, so every new page costs re-detection misses.
    LINES_PER_PAGE = 64

    def __init__(self, max_streams: int = 8, degree: int = 2,
                 distance: int = 4, confidence_threshold: int = 2,
                 page_bounded: bool = True,
                 miss_triggered: bool = True) -> None:
        if max_streams <= 0:
            raise ValueError("max_streams must be positive")
        self.max_streams = max_streams
        self.degree = degree
        self.distance = distance
        self.confidence_threshold = confidence_threshold
        self.page_bounded = page_bounded
        self.miss_triggered = miss_triggered
        self.issued = 0
        self.page_stops = 0
        self._streams: Dict[int, _Stream] = {}
        self._clock = 0

    @property
    def trains_on_hits(self) -> bool:
        return not self.miss_triggered

    def observe(self, pc: int, line_addr: int, hit: bool,
                issue: PrefetchSink) -> None:
        if self.miss_triggered and hit:
            return
        self._clock += 1
        stream = self._streams.get(pc)
        if stream is None:
            if len(self._streams) >= self.max_streams:
                victim = min(self._streams.values(), key=_last_used)
                del self._streams[victim.pc]
            self._streams[pc] = _Stream(pc=pc, last_line=line_addr,
                                        last_used=self._clock)
            return
        stream.last_used = self._clock
        stride = line_addr - stream.last_line
        stream.last_line = line_addr
        if stride == 0:
            return
        if stride == stream.stride:
            stream.confidence += 1
        else:
            stream.stride = stride
            stream.confidence = 1
        if stream.confidence >= self.confidence_threshold:
            base = line_addr + stream.stride * self.distance
            page = line_addr // self.LINES_PER_PAGE
            for k in range(self.degree):
                target = base + stream.stride * k
                if (self.page_bounded
                        and target // self.LINES_PER_PAGE != page):
                    self.page_stops += 1
                    continue
                issue(target)
                self.issued += 1

    def reset(self) -> None:
        self._streams.clear()
        self.issued = 0
        self.page_stops = 0
        self._clock = 0


class CompositePrefetcher(HardwarePrefetcher):
    """Run several prefetchers side by side (P4 = adjacent + stride)."""

    name = "composite"

    def __init__(self, parts: List[HardwarePrefetcher]) -> None:
        self.parts = list(parts)

    @property
    def trains_on_hits(self) -> bool:
        return any(part.trains_on_hits for part in self.parts)

    def observe(self, pc: int, line_addr: int, hit: bool,
                issue: PrefetchSink) -> None:
        for part in self.parts:
            part.observe(pc, line_addr, hit, issue)

    def reset(self) -> None:
        for part in self.parts:
            part.reset()


class Pentium4Prefetcher(CompositePrefetcher):
    """The Pentium 4's L2 prefetch complex: adjacent-line plus stride.

    :meth:`observe` runs the two parts in turn, as
    :class:`CompositePrefetcher` does.  :meth:`train` carries out the
    same complex as one routine on the parts' state -- the buddy line,
    then the stride stream's update and its prefetches -- and fills the
    L2 itself, so a miss costs one frame here plus one ``fill`` per
    prefetch.  The parts keep their ``issued`` and ``page_stops`` counts.
    """

    def __init__(self) -> None:
        self.adjacent = AdjacentLinePrefetcher()
        self.stride = StridePrefetcher(max_streams=8)
        super().__init__([self.adjacent, self.stride])

    def train(self, pc: int, line_addr: int, hit: bool, l2: "Cache",
              now: int, latency: int) -> None:
        stride = self.stride
        if hit:
            # Adjacent-line prefetch ignores hits; a miss-triggered
            # stride prefetcher does too.
            if not stride.miss_triggered:
                super().train(pc, line_addr, hit, l2, now, latency)
            return
        ready_at = now + latency
        fill = l2.fill
        buddy = line_addr ^ 1
        if buddy >= 0:
            fill(buddy, now, ready_at, True)
        self.adjacent.issued += 1
        clock = stride._clock = stride._clock + 1
        streams = stride._streams
        stream = streams.get(pc)
        if stream is None:
            if len(streams) >= stride.max_streams:
                del streams[min(streams.values(), key=_last_used).pc]
            streams[pc] = _Stream(pc, line_addr, 0, 0, clock)
            return
        stream.last_used = clock
        step = line_addr - stream.last_line
        stream.last_line = line_addr
        if step == 0:
            return
        if step == stream.stride:
            confidence = stream.confidence = stream.confidence + 1
        else:
            stream.stride = step
            confidence = stream.confidence = 1
        if confidence < stride.confidence_threshold:
            return
        per_page = stride.LINES_PER_PAGE
        page = line_addr // per_page
        target = line_addr + step * stride.distance
        for _ in range(stride.degree):
            if stride.page_bounded and target // per_page != page:
                stride.page_stops += 1
            else:
                if target >= 0:
                    fill(target, now, ready_at, True)
                stride.issued += 1
            target += step


def pentium4_prefetcher(adjacent: bool = True,
                        stride: bool = True) -> Optional[HardwarePrefetcher]:
    """The Pentium 4's L2 prefetch complex, with independently togglable
    components (the paper keeps adjacent-line prefetching always on when
    "hardware prefetching" is enabled)."""
    if adjacent and stride:
        return Pentium4Prefetcher()
    if adjacent:
        return AdjacentLinePrefetcher()
    if stride:
        return StridePrefetcher(max_streams=8)
    return None
