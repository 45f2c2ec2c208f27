"""Fault-plan activation and the consumer fault proxy.

One plan may be *installed* per process; instrumented seams (the
executors, the result store, the runner's stream plan) consult
:func:`active_fault_plan` at their decision points and do nothing when
no plan is installed -- production runs pay one module-global read.

Worker processes receive the parent's plan inside their work item
and install it on entry, so injection works identically under
``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Optional

from .plan import FaultPlan, InjectedConsumerFault

_ACTIVE: Optional[FaultPlan] = None


def install_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-wide (``None`` clears)."""
    global _ACTIVE
    _ACTIVE = plan


def clear_fault_plan() -> None:
    install_fault_plan(None)


def active_fault_plan() -> Optional[FaultPlan]:
    """The currently installed plan, or ``None``."""
    return _ACTIVE


@contextmanager
def fault_injection(plan: FaultPlan):
    """Scope a plan to a ``with`` block (always clears on exit)."""
    previous = _ACTIVE
    install_fault_plan(plan)
    try:
        yield plan
    finally:
        install_fault_plan(previous)


class FaultyConsumerProxy:
    """Wraps a stream consumer to throw on its Nth delivered batch.

    Duck-types the :class:`~repro.stream.consumer.RefConsumer` /
    :class:`~repro.stream.consumer.LineConsumer` surface and delegates
    everything to the wrapped consumer, so planes, summaries and the
    ``wants_ifetch`` opt-in behave exactly as the real consumer's --
    until batch ``fail_batch`` arrives, when it raises
    :class:`InjectedConsumerFault` (and the hub quarantines it).
    """

    def __init__(self, consumer: Any, name: str, fail_batch: int) -> None:
        self._consumer = consumer
        self._name = name
        self._fail_batch = fail_batch
        self._batches = 0
        self.wants_ifetch = getattr(consumer, "wants_ifetch", False)

    def _deliver(self, method: str, batch: Any) -> None:
        self._batches += 1
        if self._batches == self._fail_batch:
            raise InjectedConsumerFault(
                f"injected consumer fault ({self._name}, "
                f"batch {self._fail_batch})")
        getattr(self._consumer, method)(batch)

    def on_batch(self, batch: Any) -> None:
        self._deliver("on_batch", batch)

    def on_line_batch(self, batch: Any) -> None:
        self._deliver("on_line_batch", batch)

    def on_epoch(self, info) -> None:
        self._consumer.on_epoch(info)

    def finish(self) -> None:
        self._consumer.finish()

    def summary(self):
        return self._consumer.summary()
