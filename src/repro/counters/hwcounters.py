"""Hardware performance counter model.

Modern processors count events (cache misses, references...) with almost
no overhead -- until you ask for fine granularity.  The counters raise an
interrupt each time they saturate at the configured *sample size*, and
"the runtime overhead of using a counter increases dramatically as the
sample size is decreased" (paper Section 1.2, Table 1).  This module
models exactly that: counters subscribe to the memory hierarchy's
line-event stream (:class:`repro.stream.LineStream`) as batched
consumers, and every overflow charges an interrupt cost to the machine
state's cycle counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from operator import or_

from repro.memory.hierarchy import MemoryHierarchy
from repro.stream import LineBatch, LineConsumer
from repro.vm.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.vm.state import MachineState

#: Events a counter can be programmed to track.
EVENTS = ("l1_miss", "l2_ref", "l2_miss")


@dataclass
class CounterReading:
    """A snapshot of one counter."""

    event: str
    count: int
    interrupts: int
    interrupt_cycles: int


class EventCounter:
    """One programmable counter with a sampling interrupt.

    ``sample_size=0`` means free-running (no interrupts) -- the cheap
    summary mode.  Any positive sample size fires an interrupt each time
    ``count`` crosses a multiple of it.

    Interrupt cycles are *accumulated* here rather than charged to the
    machine state inline: the interpreter caches its cycle counter in a
    local during block execution, so mid-block external mutation would
    be lost.  Callers add :attr:`interrupt_cycles` (or the aggregate
    ``HardwareCounters.total_interrupt_cycles``) to the run's cycle
    count, which is exactly what :func:`repro.runners.run_native` does.
    """

    def __init__(self, event: str, sample_size: int = 0,
                 interrupt_cost: int = DEFAULT_COST_MODEL.counter_interrupt_cost,
                 state: Optional[MachineState] = None) -> None:
        if event not in EVENTS:
            raise ValueError(f"unknown event {event!r}; choose from {EVENTS}")
        if sample_size < 0:
            raise ValueError("sample_size must be >= 0")
        self.event = event
        self.sample_size = sample_size
        self.interrupt_cost = interrupt_cost
        self.state = state
        self.count = 0
        self.interrupts = 0
        self._until_overflow = sample_size

    @property
    def interrupt_cycles(self) -> int:
        return self.interrupts * self.interrupt_cost

    def increment(self) -> None:
        self.count += 1
        if self.sample_size:
            self._until_overflow -= 1
            if self._until_overflow <= 0:
                self._until_overflow = self.sample_size
                self.interrupts += 1

    def add(self, n: int) -> None:
        """Count ``n`` events at once; interrupt-exact w.r.t. ``n``
        consecutive :meth:`increment` calls (closed-form overflow)."""
        if n <= 0:
            return
        self.count += n
        sample_size = self.sample_size
        if sample_size:
            until = self._until_overflow - n
            if until <= 0:
                fired = 1 + (-until // sample_size)
                self.interrupts += fired
                until += fired * sample_size
            self._until_overflow = until

    def reading(self) -> CounterReading:
        return CounterReading(
            event=self.event,
            count=self.count,
            interrupts=self.interrupts,
            interrupt_cycles=self.interrupts * self.interrupt_cost,
        )

    def reset(self) -> None:
        self.count = 0
        self.interrupts = 0
        self._until_overflow = self.sample_size


class HardwareCounters(LineConsumer):
    """A set of counters wired to a memory hierarchy's line stream.

    Attach with :meth:`attach`; the hierarchy's
    :class:`~repro.stream.LineStream` delivers demand line accesses to
    :meth:`on_line_batch` in batches.  Counting is passive (no simulator
    state of its own), so any number of counter sets can share one
    execution -- the basis of the fused Table 1 sweep.
    """

    def __init__(self, state: Optional[MachineState] = None,
                 cost_model: CostModel = DEFAULT_COST_MODEL) -> None:
        self.state = state
        self.cost_model = cost_model
        self.counters: Dict[str, EventCounter] = {}

    def program(self, event: str, sample_size: int = 0) -> EventCounter:
        """Program one counter (replacing any existing one for ``event``)."""
        counter = EventCounter(
            event, sample_size=sample_size,
            interrupt_cost=self.cost_model.counter_interrupt_cost,
            state=self.state,
        )
        self.counters[event] = counter
        return counter

    def attach(self, hierarchy: MemoryHierarchy) -> None:
        hierarchy.line_stream.attach(self)

    def detach(self, hierarchy: MemoryHierarchy) -> None:
        """Stop counting (flushes buffered events first)."""
        hierarchy.line_stream.detach(self)

    def on_line_batch(self, batch: LineBatch) -> None:
        l1_hits = batch.l1_hits
        n = len(l1_hits)
        l2_refs = n - sum(l1_hits)  # L1 misses: the L2 sees references
        if not l2_refs:
            return
        counters = self.counters
        l1_miss = counters.get("l1_miss")
        if l1_miss is not None:
            l1_miss.add(l2_refs)
        l2_ref = counters.get("l2_ref")
        if l2_ref is not None:
            l2_ref.add(l2_refs)
        l2_miss = counters.get("l2_miss")
        if l2_miss is not None:
            l2_miss.add(n - sum(map(or_, l1_hits, batch.l2_hits)))

    def summary(self) -> Dict[str, int]:
        return {event: c.count for event, c in self.counters.items()}

    def readings(self) -> Dict[str, CounterReading]:
        return {event: c.reading() for event, c in self.counters.items()}

    def l2_miss_ratio(self) -> float:
        """Miss ratio as measured by the counters (misses / refs)."""
        misses = self.counters.get("l2_miss")
        refs = self.counters.get("l2_ref")
        if misses is None or refs is None or refs.count == 0:
            return 0.0
        return misses.count / refs.count

    def total_interrupt_cycles(self) -> int:
        return sum(c.interrupt_cycles for c in self.counters.values())

    def reset(self) -> None:
        for c in self.counters.values():
            c.reset()
