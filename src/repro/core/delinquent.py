"""Online delinquent-load prediction (paper Section 7).

After each mini-simulation "the profile analyzer labels memory load
instructions with a miss ratio higher than a *delinquency threshold*
alpha as delinquent loads."  The prototype tunes the threshold per code
trace: each trace starts at 0.90 and the threshold drops by 0.10 after
every analyzer invocation the trace is responsible for, down to 0.10 --
which "significantly reduces the false positives from 82.61% to 56.76%"
relative to a single global threshold.

The per-trace thresholds live in the predictor, keyed by trace head and
seeded from ``UMIConfig.initial_delinquency_threshold``, so several
predictors with different threshold settings can label the profiles of
one execution (:class:`repro.core.UMIRuntime`'s analysis lanes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.isa import Program
from repro.vm.trace import Trace

from .analyzer import AnalysisResult
from .config import UMIConfig


@dataclass
class DelinquencyDecision:
    """Why one op was (or wasn't) labelled delinquent, for reporting."""

    pc: int
    miss_ratio: float
    threshold: float
    labelled: bool


class DelinquentPredictor:
    """Maintains the predicted delinquent-load set ``P``."""

    def __init__(self, config: UMIConfig, program: Program) -> None:
        self.config = config
        self.program = program
        self.predicted: Set[int] = set()
        self.decisions: int = 0
        self._labelled_events: int = 0
        #: adaptive per-trace thresholds, keyed by trace head; a trace
        #: not yet analyzed starts at the configured initial threshold.
        self._thresholds: Dict[str, float] = {}

    def threshold(self, head: str) -> float:
        """The delinquency threshold the next analysis of the trace at
        ``head`` is judged against."""
        return self._thresholds.get(
            head, self.config.initial_delinquency_threshold)

    def process(self, trace: Trace, result: AnalysisResult) -> Set[int]:
        """Label delinquent loads from one trace's analysis result.

        Returns the pcs newly (or repeatedly) labelled this round.  Only
        *loads* are labelled -- stores are profiled for cache statistics
        but delinquency targets prefetchable loads.  The trace's adaptive
        threshold is decayed afterwards, since this analyzer invocation
        was attributed to it.
        """
        config = self.config
        threshold = self.threshold(trace.head)
        labelled: Set[int] = set()
        for pc, op in result.per_op.items():
            if op.refs < config.min_op_refs:
                continue
            if not self.program.instruction_at(pc).is_load():
                continue
            self.decisions += 1
            if op.miss_ratio > threshold:
                labelled.add(pc)
        self.predicted |= labelled
        self._labelled_events += len(labelled)

        if config.adaptive_threshold:
            self._thresholds[trace.head] = max(
                config.min_delinquency_threshold,
                threshold - config.threshold_step,
            )
        return labelled

    @property
    def prediction_set(self) -> frozenset:
        """The accumulated prediction set ``P``."""
        return frozenset(self.predicted)


@dataclass
class PredictionQuality:
    """Accuracy of ``P`` against a ground-truth set ``C`` (Table 6)."""

    predicted: frozenset
    actual: frozenset

    @property
    def intersection(self) -> frozenset:
        return self.predicted & self.actual

    @property
    def recall(self) -> float:
        """|P intersect C| / |C| -- ideally 100%."""
        if not self.actual:
            return 0.0
        return len(self.intersection) / len(self.actual)

    @property
    def false_positive_ratio(self) -> float:
        """|P - C| / |P| -- ideally 0%."""
        if not self.predicted:
            return 0.0
        return len(self.predicted - self.actual) / len(self.predicted)
