"""Tests for delinquent-load prediction and its adaptive threshold."""

import pytest

from repro.core import (
    DelinquentPredictor, PredictionQuality, UMIConfig,
)
from repro.core.analyzer import AnalysisResult, OpSimResult
from repro.isa import ADD, CC_LT, EAX, ECX, ESI, ProgramBuilder, mem
from repro.vm import Trace


def make_program_and_trace():
    b = ProgramBuilder("p")
    loop = b.block("loop")
    loop.load(EAX, mem(base=ESI, index=ECX, scale=8))
    loop.store(mem(base=ESI, index=ECX, scale=8), EAX)
    loop.alu_imm(ADD, ECX, 1)
    loop.cmp_imm(ECX, 10)
    loop.jcc(CC_LT, "loop", "done")
    b.block("done").halt()
    program = b.build(entry="loop")
    trace = Trace("loop", [program.blocks["loop"]], loops_to_head=True)
    load_pc = program.blocks["loop"].instructions[0].pc
    store_pc = program.blocks["loop"].instructions[1].pc
    return program, trace, load_pc, store_pc


def result_with(per_op):
    result = AnalysisResult(trace_head="loop")
    result.per_op = per_op
    return result


def op(pc, refs, misses):
    r = OpSimResult(pc)
    r.refs = refs
    r.misses = misses
    return r


class TestDelinquentPredictor:
    def test_high_ratio_load_labelled_when_threshold_low(self):
        program, trace, load_pc, _ = make_program_and_trace()
        predictor = DelinquentPredictor(
            UMIConfig(adaptive_threshold=False,
                      initial_delinquency_threshold=0.5), program)
        labelled = predictor.process(
            trace, result_with({load_pc: op(load_pc, 100, 90)}))
        assert labelled == {load_pc}
        assert load_pc in predictor.prediction_set

    def test_low_ratio_not_labelled(self):
        program, trace, load_pc, _ = make_program_and_trace()
        predictor = DelinquentPredictor(
            UMIConfig(adaptive_threshold=False,
                      initial_delinquency_threshold=0.5), program)
        labelled = predictor.process(
            trace, result_with({load_pc: op(load_pc, 100, 10)}))
        assert not labelled

    def test_stores_never_labelled(self):
        program, trace, _, store_pc = make_program_and_trace()
        predictor = DelinquentPredictor(
            UMIConfig(adaptive_threshold=False,
                      initial_delinquency_threshold=0.1), program)
        labelled = predictor.process(
            trace, result_with({store_pc: op(store_pc, 100, 100)}))
        assert not labelled

    def test_min_refs_guard(self):
        program, trace, load_pc, _ = make_program_and_trace()
        predictor = DelinquentPredictor(
            UMIConfig(adaptive_threshold=False,
                      initial_delinquency_threshold=0.1,
                      min_op_refs=8), program)
        labelled = predictor.process(
            trace, result_with({load_pc: op(load_pc, 4, 4)}))
        assert not labelled

    def test_adaptive_threshold_decays_to_floor(self):
        program, trace, load_pc, _ = make_program_and_trace()
        predictor = DelinquentPredictor(UMIConfig(), program)
        assert predictor.threshold(trace.head) == pytest.approx(0.90)
        for _ in range(20):
            predictor.process(
                trace, result_with({load_pc: op(load_pc, 100, 5)}))
        assert predictor.threshold(trace.head) == pytest.approx(0.10)
        assert predictor.decisions == 20

    def test_adaptive_threshold_starts_at_the_configured_value(self):
        # A 0.6 miss ratio is delinquent against an initial threshold
        # of 0.5 on the trace's first analysis.
        program, trace, load_pc, _ = make_program_and_trace()
        predictor = DelinquentPredictor(
            UMIConfig(initial_delinquency_threshold=0.5), program)
        labelled = predictor.process(
            trace, result_with({load_pc: op(load_pc, 100, 60)}))
        assert labelled == {load_pc}
        assert predictor.threshold(trace.head) == pytest.approx(0.4)

    def test_thresholds_are_per_trace(self):
        program, trace, load_pc, _ = make_program_and_trace()
        predictor = DelinquentPredictor(UMIConfig(), program)
        predictor.process(trace, result_with({load_pc: op(load_pc, 100, 5)}))
        assert predictor.threshold(trace.head) == pytest.approx(0.80)
        assert predictor.threshold("other") == pytest.approx(0.90)

    def test_decayed_threshold_eventually_labels_moderate_load(self):
        program, trace, load_pc, _ = make_program_and_trace()
        predictor = DelinquentPredictor(UMIConfig(), program)
        # 30% miss ratio: not delinquent at 0.9, is at <= 0.2.
        for _ in range(10):
            predictor.process(
                trace, result_with({load_pc: op(load_pc, 100, 30)}))
        assert load_pc in predictor.prediction_set

    def test_global_threshold_does_not_decay(self):
        program, trace, load_pc, _ = make_program_and_trace()
        predictor = DelinquentPredictor(
            UMIConfig(adaptive_threshold=False), program)
        for _ in range(5):
            predictor.process(
                trace, result_with({load_pc: op(load_pc, 100, 30)}))
        assert predictor.threshold(trace.head) == pytest.approx(0.90)
        assert not predictor.prediction_set


class TestPredictionQuality:
    def test_perfect_prediction(self):
        q = PredictionQuality(frozenset({1, 2}), frozenset({1, 2}))
        assert q.recall == 1.0
        assert q.false_positive_ratio == 0.0

    def test_partial_recall(self):
        q = PredictionQuality(frozenset({1}), frozenset({1, 2, 3, 4}))
        assert q.recall == 0.25

    def test_false_positives(self):
        q = PredictionQuality(frozenset({1, 5, 6, 7}), frozenset({1, 2}))
        assert q.false_positive_ratio == 0.75
        assert q.intersection == frozenset({1})

    def test_empty_sets(self):
        assert PredictionQuality(frozenset(), frozenset()).recall == 0.0
        assert PredictionQuality(frozenset(),
                                 frozenset()).false_positive_ratio == 0.0
