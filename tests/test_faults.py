"""Tests for the resilience layer: fault plans, retries, quarantine.

The load-bearing property is *determinism*: a seeded fault plan run
over the in-process pool and over local worker processes must
produce byte-identical ``FailedRun`` payloads and identical retry /
timeout counter values, because fault decisions are pure functions of
``(seed, kind, spec digest, attempt)`` and failures are captured at the
single ``attempt_group`` seam every pool shares.  The rest covers
each fault class end to end: crash-then-retry recovery, deadline
classification, consumer quarantine, torn-record detection and repair,
checkpoint/resume, interrupt handling, and the CLI surface.
"""

import json
import multiprocessing
import time

import pytest

from repro.engine import (
    ExecutionEngine, FailedRun, InProcessPool, InterruptReport,
    LeaseExecutor, ResultStore, RetryPolicy, RunSpec, SpecExecutionError,
    is_failed_payload, make_executor, plan_groups,
)
from repro.experiments.cli import main
from repro.engine.protocol import (
    Heartbeat, Lease, LeaseResult, encode_frame,
)
from repro.faults import (
    FaultPlan, FaultRule, FaultyStream, InjectedConsumerFault,
    NetFaultState, fault_injection, load_fault_plan, wrap_stream,
)
from repro.stream import CollectingRefConsumer, LineStream, RefStream
from repro.telemetry import TELEMETRY

SCALE = 0.1
MACHINE_SCALE = 16
WORKLOAD = "181.mcf"
OTHER = "183.equake"


def native_spec(workload=WORKLOAD, **kwargs):
    return RunSpec.native(workload, SCALE, "pentium4", MACHINE_SCALE,
                          **kwargs)


def policy(attempts=1, timeout=None):
    """A retry policy with a no-op sleep (tests never really back off)."""
    return RetryPolicy(max_attempts=attempts, timeout=timeout,
                       sleep=lambda _s: None)


def crash_plan(match, attempts=99):
    return FaultPlan(seed=3, rules=(
        FaultRule(kind="crash", match=match, attempts=attempts),))


@pytest.fixture
def global_telemetry():
    """The module-level object, enabled, clean before and after."""
    TELEMETRY.reset()
    TELEMETRY.enable()
    yield TELEMETRY
    TELEMETRY.reset()
    TELEMETRY.disable()


def counter(name):
    return TELEMETRY.registry.counter(name).value


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(kind="meteor")

    def test_consumer_rule_needs_name(self):
        with pytest.raises(ValueError, match="consumer name"):
            FaultRule(kind="consumer")

    def test_consumer_rule_rejects_spec_selectors(self):
        # The consumer seam has no spec or attempt in scope, so these
        # fields would be silently ignored -- reject them instead.
        for kwargs in ({"match": "179.art"}, {"attempts": 2},
                       {"probability": 0.5}):
            with pytest.raises(ValueError, match="consumer name alone"):
                FaultRule(kind="consumer", consumer="phase", **kwargs)

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(kind="crash", probability=1.5)

    def test_matching_star_workload_and_digest_prefix(self):
        spec = native_spec()
        assert FaultRule(kind="crash").matches_spec(spec)
        assert FaultRule(kind="crash", match=WORKLOAD).matches_spec(spec)
        assert FaultRule(kind="crash",
                         match=spec.digest()[:8]).matches_spec(spec)
        assert not FaultRule(kind="crash", match=OTHER).matches_spec(spec)

    def test_attempts_bound_lets_retry_succeed(self):
        plan = crash_plan(WORKLOAD, attempts=1)
        spec = native_spec()
        assert plan.crash_for(spec, 1)
        assert not plan.crash_for(spec, 2)

    def test_probability_draws_are_deterministic(self):
        plan = FaultPlan(seed=11, rules=(
            FaultRule(kind="crash", probability=0.5, attempts=99),))
        specs = [native_spec(counter_sample_size=n)
                 for n in (10, 20, 30, 40)]
        first = [plan.crash_for(s, a) for s in specs for a in (1, 2)]
        again = [plan.crash_for(s, a) for s in specs for a in (1, 2)]
        assert first == again

    def test_round_trip_and_load(self, tmp_path):
        plan = FaultPlan(seed=5, rules=(
            FaultRule(kind="hang", match=WORKLOAD, hang_seconds=1.5),
            FaultRule(kind="consumer", consumer="phase", batch=3),
        ))
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert load_fault_plan(str(path)) == plan


class TestNetworkFaultRules:
    def test_net_rules_need_a_worker_selector(self):
        for kind in ("net_drop", "net_delay", "net_dup",
                     "net_truncate"):
            with pytest.raises(ValueError, match="worker selector"):
                FaultRule(kind=kind)

    def test_partition_rejects_the_wildcard_worker(self):
        with pytest.raises(ValueError, match="explicit worker name"):
            FaultRule(kind="partition", worker="*")

    def test_net_rules_reject_spec_selectors(self):
        for kwargs in ({"match": "179.art"}, {"attempts": 2}):
            with pytest.raises(ValueError, match="select by worker"):
                FaultRule(kind="net_drop", worker="a", **kwargs)

    def test_non_net_rules_reject_worker_frame_times(self):
        for kwargs in ({"worker": "a"}, {"frame": 3}, {"times": 2}):
            with pytest.raises(ValueError, match="network rules"):
                FaultRule(kind="crash", **kwargs)

    def test_net_frame_fault_selects_by_worker_and_frame(self):
        plan = FaultPlan(seed=7, rules=(
            FaultRule(kind="net_truncate", worker="b", frame=2),))
        assert plan.net_frame_fault("a", "recv", 2) is None
        assert plan.net_frame_fault("b", "recv", 1) is None
        rule = plan.net_frame_fault("b", "recv", 2)
        assert rule is not None and rule.kind == "net_truncate"
        # frame=0 means every eligible frame; worker="*" every worker.
        anyf = FaultPlan(seed=7, rules=(
            FaultRule(kind="net_drop", worker="*"),))
        assert anyf.net_frame_fault("a", "send", 1) is not None
        assert anyf.net_frame_fault("c", "send", 9) is not None

    def test_partition_for_worker_is_by_name(self):
        plan = FaultPlan(seed=7, rules=(
            FaultRule(kind="partition", worker="a",
                      partition_seconds=1.5),))
        assert plan.partition_for_worker("b") is None
        rule = plan.partition_for_worker("a")
        assert rule is not None and rule.partition_seconds == 1.5

    def test_probability_draws_are_deterministic(self):
        plan = FaultPlan(seed=13, rules=(
            FaultRule(kind="net_drop", worker="*", probability=0.5,
                      times=0),))
        draws = [plan.net_frame_fault("a", "send", seq) is not None
                 for seq in range(1, 33)]
        again = [plan.net_frame_fault("a", "send", seq) is not None
                 for seq in range(1, 33)]
        assert draws == again
        assert any(draws) and not all(draws)  # a real coin, both faces

    def test_net_rules_round_trip(self):
        plan = FaultPlan(seed=5, rules=(
            FaultRule(kind="net_truncate", worker="b", frame=3),
            FaultRule(kind="partition", worker="a",
                      partition_seconds=2.0),))
        assert FaultPlan.from_dict(plan.to_dict()) == plan


def lease_frame():
    return encode_frame(Lease.for_group(
        "L000001", [native_spec()], attempt=1, deadline_s=None,
        fault_plan=None, telemetry=False))


def result_frame():
    return encode_frame(LeaseResult(lease_id="L000001", worker="a",
                                    status="ok", value=[]))


class FakeStream:
    def __init__(self, lines=()):
        self.lines = list(lines)
        self.written = []

    def write(self, data):
        self.written.append(data)
        return len(data)

    def readline(self, limit=-1):
        return self.lines.pop(0) if self.lines else b""

    def flush(self):
        pass


class TestFaultyStream:
    def wired(self, rule, lines=()):
        state = NetFaultState(FaultPlan(seed=3, rules=(rule,)))
        inner = FakeStream(lines)
        return inner, FaultyStream(inner, "a", state,
                                   sleep=lambda _s: None)

    def test_drop_swallows_the_frame_whole(self):
        inner, stream = self.wired(
            FaultRule(kind="net_drop", worker="a"))
        assert stream.write(lease_frame()) == len(lease_frame())
        assert inner.written == []

    def test_dup_lands_the_frame_twice(self):
        inner, stream = self.wired(FaultRule(kind="net_dup", worker="a"))
        stream.write(result_frame())
        assert inner.written == [result_frame(), result_frame()]

    def test_delay_sleeps_then_writes(self):
        slept = []
        state = NetFaultState(FaultPlan(seed=3, rules=(
            FaultRule(kind="net_delay", worker="a",
                      delay_seconds=0.25),)))
        inner = FakeStream()
        stream = FaultyStream(inner, "a", state, sleep=slept.append)
        stream.write(lease_frame())
        assert slept == [0.25]
        assert inner.written == [lease_frame()]

    def test_truncate_cuts_the_received_line_unterminated(self):
        frame = result_frame()
        _, stream = self.wired(
            FaultRule(kind="net_truncate", worker="a"), lines=[frame])
        line = stream.readline()
        assert line == frame[:len(frame) // 2]
        assert not line.endswith(b"\n")

    def test_liveness_and_handshake_frames_are_exempt(self):
        beat = encode_frame(Heartbeat(seq=1))
        inner, stream = self.wired(
            FaultRule(kind="net_drop", worker="a", times=0),
            lines=[beat])
        stream.write(beat)
        assert inner.written == [beat]  # never dropped
        assert stream.readline() == beat  # never truncated

    def test_times_budget_is_enforced_across_frames(self):
        inner, stream = self.wired(
            FaultRule(kind="net_drop", worker="a", times=2))
        for _ in range(5):
            stream.write(lease_frame())
        assert len(inner.written) == 3  # 2 dropped, 3 delivered

    def test_state_is_shared_across_reconnected_streams(self):
        state = NetFaultState(FaultPlan(seed=3, rules=(
            FaultRule(kind="net_drop", worker="a", times=1),)))
        first = FakeStream()
        FaultyStream(first, "a", state).write(lease_frame())
        assert first.written == []  # the one firing, spent here
        second = FakeStream()  # the post-rejoin connection
        FaultyStream(second, "a", state).write(lease_frame())
        assert second.written == [lease_frame()]
        assert state.fired == 1

    def test_wrap_stream_passes_through_without_state(self):
        inner = FakeStream()
        assert wrap_stream(inner, "a", None) is inner
        state = NetFaultState(FaultPlan(seed=1))
        assert isinstance(wrap_stream(inner, "a", state), FaultyStream)


class TestRetryPolicy:
    @pytest.mark.parametrize("timeout", [0, 0.0, -5, float("nan")])
    def test_non_positive_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(timeout=timeout)

    def test_backoff_is_exponential(self):
        pol = RetryPolicy(max_attempts=3, backoff_base=0.1,
                          backoff_factor=2.0)
        assert pol.backoff(1) == pytest.approx(0.1)
        assert pol.backoff(2) == pytest.approx(0.2)

    def test_crash_then_retry_succeeds(self, global_telemetry):
        slept = []
        pol = RetryPolicy(max_attempts=2, backoff_base=0.25,
                          sleep=slept.append)
        ex = make_executor(1, retry=pol, strict=True)
        with fault_injection(crash_plan(WORKLOAD, attempts=1)):
            payloads = ex.execute([native_spec()])
        assert payloads[0]["kind"] == "run_outcome"
        assert ex.runs_executed == 1 and ex.runs_failed == 0
        assert slept == [0.25]
        assert counter("executor.retries") == 1

    def test_strict_raises_after_exhausting_attempts(self):
        ex = make_executor(1, retry=policy(attempts=2), strict=True)
        with fault_injection(crash_plan(WORKLOAD)):
            with pytest.raises(SpecExecutionError) as excinfo:
                ex.execute([native_spec()])
        assert "attempts=2" in str(excinfo.value)
        assert "InjectedCrash" in str(excinfo.value)
        assert excinfo.value.spec == native_spec()


class TestFaultDeterminism:
    """Same seed, same plan -> identical residue, serial or parallel."""

    def _sweep(self, parallel, plan, pol):
        TELEMETRY.reset()
        if parallel:
            ex = make_executor(2, retry=pol, strict=False)
        else:
            ex = make_executor(1, retry=pol, strict=False)
        with fault_injection(plan):
            results = ex.execute_groups(
                [[native_spec()], [native_spec(OTHER)]])
        ex.close()
        return results, {
            "retries": counter("executor.retries"),
            "timeouts": counter("executor.timeouts"),
        }

    def test_crash_payloads_identical_serial_vs_parallel(
            self, global_telemetry):
        plan, pol = crash_plan(WORKLOAD), policy(attempts=2)
        serial, serial_counts = self._sweep(False, plan, pol)
        parallel, parallel_counts = self._sweep(True, plan, pol)
        assert json.dumps(serial, sort_keys=True) \
            == json.dumps(parallel, sort_keys=True)
        assert serial_counts == parallel_counts
        assert serial_counts["retries"] == 1
        failed = serial[0][0]
        assert is_failed_payload(failed)
        assert failed["reason"] == "error"
        assert failed["attempts"] == 2
        assert "InjectedCrash" in failed["error"]
        # The unaffected group resolved normally in both sweeps.
        assert serial[1][0]["kind"] == "run_outcome"

    def test_timeout_classification_identical(self, global_telemetry):
        # The deadline must be generous enough that only the hung
        # group overruns it -- the clean group's real run (and, in the
        # parallel sweep, pool startup) must fit inside it.
        plan = FaultPlan(seed=3, rules=(
            FaultRule(kind="hang", match=WORKLOAD, attempts=99,
                      hang_seconds=2.5),))
        pol = policy(attempts=2, timeout=2.0)
        serial, serial_counts = self._sweep(False, plan, pol)
        parallel, parallel_counts = self._sweep(True, plan, pol)
        failed = serial[0][0]
        assert failed["reason"] == "timeout"
        assert failed["traceback"] is None
        assert "2s deadline" in failed["error"]
        assert json.dumps(serial[0], sort_keys=True) \
            == json.dumps(parallel[0], sort_keys=True)
        assert serial_counts == parallel_counts
        assert serial_counts["timeouts"] == 2

    def test_queue_wait_does_not_count_against_deadline(
            self, global_telemetry):
        # Four slow groups on two workers: measured from each group's
        # own process start the deadline comfortably fits every
        # attempt; measured from submission (the old behaviour) the
        # queued groups would falsely time out behind the first two.
        plan = FaultPlan(seed=1, rules=(
            FaultRule(kind="hang", match="*", attempts=99,
                      hang_seconds=0.8),))
        specs = [native_spec(), native_spec(OTHER),
                 native_spec("255.vortex"), native_spec("179.art")]
        ex = make_executor(2, retry=policy(timeout=1.5),
                              strict=False)
        with fault_injection(plan):
            results = ex.execute_groups([[s] for s in specs])
        ex.close()
        assert counter("executor.timeouts") == 0
        assert all(p[0]["kind"] == "run_outcome" for p in results)
        assert ex.runs_executed == 4 and ex.runs_failed == 0

    def test_expired_worker_is_killed_not_abandoned(self):
        # Two groups hanging far past the deadline: expiring workers
        # are terminated, so retries get fresh agents and the wavefront
        # ends in about attempts * timeout -- not after the hangs run
        # their course.  Every agent that held an expired lease is
        # dead when the call returns; the replacements end at close().
        plan = FaultPlan(seed=1, rules=(
            FaultRule(kind="hang", match="*", attempts=99,
                      hang_seconds=8.0),))
        ex = make_executor(2, retry=policy(attempts=2,
                                                   timeout=0.4),
                              strict=False)
        leased_pids = []
        submit = ex.pool.submit

        def recording_submit(lease):
            submit(lease)
            leased_pids.extend(worker.pid
                               for worker in ex.pool.workers.values()
                               if worker.lease is lease)

        ex.pool.submit = recording_submit
        start = time.monotonic()
        with fault_injection(plan):
            results = ex.execute_groups([[native_spec()],
                                         [native_spec(OTHER)]])
        assert time.monotonic() - start < 4.0
        assert all(p[0]["reason"] == "timeout" for p in results)
        assert len(leased_pids) == 4
        alive = {child.pid for child in multiprocessing.active_children()}
        assert not alive & set(leased_pids)
        ex.close()
        assert not multiprocessing.active_children()

    def test_failed_run_round_trips(self):
        failed = FailedRun(spec=native_spec(), reason="error",
                           error="InjectedCrash: boom", attempts=3,
                           failed_member=native_spec().describe(),
                           traceback="tb")
        assert FailedRun.from_payload(failed.to_payload()) == failed
        assert is_failed_payload(failed.to_payload())
        assert "after 3 attempt(s)" in failed.describe()


class TestFusedMemberAttribution:
    def _fused_group(self):
        group = plan_groups([native_spec(counter_sample_size=50),
                             native_spec(counter_sample_size=100)])
        assert len(group) == 1 and len(group[0]) == 2
        return group[0]

    def test_crashing_member_is_named(self):
        group = self._fused_group()
        plan = crash_plan(group[1].digest()[:12])
        ex = make_executor(1, retry=policy(), strict=True)
        with fault_injection(plan):
            with pytest.raises(SpecExecutionError) as excinfo:
                ex.execute_groups([group])
        assert excinfo.value.spec == group[1]
        assert "member 2/2 of the fused group" in str(excinfo.value)

    def test_member_recorded_in_failed_payloads(self):
        group = self._fused_group()
        plan = crash_plan(group[1].digest()[:12])
        ex = make_executor(1, retry=policy(), strict=False)
        with fault_injection(plan):
            results = ex.execute_groups([group])
        assert all(is_failed_payload(p) for p in results[0])
        assert [p["failed_member"] for p in results[0]] \
            == [group[1].describe()] * 2

    def test_shared_execution_failure_blames_no_member(self, monkeypatch):
        def explode(*_args, **_kwargs):
            raise RuntimeError("shared boom")

        monkeypatch.setattr("repro.engine.attempt.run_fused",
                            explode)
        group = self._fused_group()
        ex = make_executor(1, retry=policy(), strict=True)
        with pytest.raises(SpecExecutionError) as excinfo:
            ex.execute_groups([group])
        assert "shared fused execution of 2 specs" in str(excinfo.value)
        strict_free = make_executor(1, retry=policy(), strict=False)
        results = strict_free.execute_groups([group])
        assert all(p["failed_member"] is None for p in results[0])


class TestFusedUMIMemberAttribution(TestFusedMemberAttribution):
    """The same attribution contract for a fused UMI group."""

    def _fused_group(self):
        group = plan_groups([
            RunSpec.umi(WORKLOAD, SCALE, "pentium4", MACHINE_SCALE,
                        with_cachegrind=True),
            RunSpec.umi(WORKLOAD, SCALE, "pentium4", MACHINE_SCALE,
                        with_cachegrind=True, consumers=("shadow-hwpf",)),
        ])
        assert len(group) == 1 and len(group[0]) == 2
        return group[0]


class TestConsumerQuarantine:
    def test_hub_detaches_thrower_and_keeps_going(self, global_telemetry):
        class Boom:
            def on_batch(self, batch):
                raise RuntimeError("boom")

            def finish(self):
                pass

        stream = RefStream(batch_size=1)
        boom, survivor = Boom(), CollectingRefConsumer()
        stream.attach(boom)
        stream.attach(survivor)
        stream.emit(0, 64, 4, 0, 0)
        stream.emit(4, 128, 4, 0, 1)
        stream.finish()
        assert len(survivor.pcs) == 2
        assert boom not in stream.consumers
        record = stream.quarantined[0]
        assert record.consumer is boom and record.stage == "on_batch"
        assert "RuntimeError: boom" in record.error
        assert counter("stream.quarantined") == 1

    def test_detach_after_quarantine_is_idempotent(self, global_telemetry):
        class Boom:
            def on_batch(self, batch):
                raise RuntimeError("boom")

            def on_line_batch(self, batch):
                raise RuntimeError("boom")

            def finish(self):
                pass

        ref_stream, boom = RefStream(batch_size=1), Boom()
        ref_stream.attach(boom)
        ref_stream.emit(0, 64, 4, 0, 0)
        assert boom not in ref_stream.consumers
        # Cleanup code (e.g. HardwareCounters.detach) detaching its
        # already-quarantined consumer must not crash the run.
        ref_stream.detach(boom)

        line_stream, boom = LineStream(batch_size=1), Boom()
        line_stream.attach(boom)
        line_stream.emit(0, 64, False, True, True)
        assert boom not in line_stream.consumers
        line_stream.detach(boom)

    def test_run_completes_with_quarantined_summary(
            self, global_telemetry):
        plan = FaultPlan(rules=(
            FaultRule(kind="consumer", consumer="phase", batch=1),))
        engine = ExecutionEngine(jobs=1)
        spec = native_spec(consumers=("phase",))
        with fault_injection(plan):
            outcome = engine.run(spec)
        phase = outcome.derived["phase"]
        assert phase["quarantined"] is True
        assert phase["stage"] == "on_line_batch"
        assert "InjectedConsumerFault" in phase["error"]
        assert counter("stream.quarantined") >= 1
        # Without the plan the same spec yields a real summary.
        clean = ExecutionEngine(jobs=1).run(spec)
        assert "quarantined" not in clean.derived["phase"]

    def test_quarantined_cachegrind_rider_fails_the_run(
            self, monkeypatch, global_telemetry):
        # A rider that stops seeing references holds truncated ground
        # truth: the group fails instead of storing it, and nothing is
        # kept for later groups to reuse.
        from repro.engine import attempt
        from repro.fullsim import CachegrindSimulator
        on_batch = CachegrindSimulator.on_batch

        def second_batch_raises(self, batch):
            self.batches_seen = getattr(self, "batches_seen", 0) + 1
            if self.batches_seen == 2:
                raise RuntimeError("rider boom")
            on_batch(self, batch)

        monkeypatch.setattr(CachegrindSimulator, "on_batch",
                            second_batch_raises)
        monkeypatch.setattr(attempt, "_last_program", None)
        engine = ExecutionEngine(jobs=1, strict=False, retry=policy())
        resolved = engine.run_many([native_spec(with_cachegrind=True)])
        failed = resolved[0]
        assert isinstance(failed, FailedRun)
        assert "Cachegrind rider quarantined in on_batch" in failed.error
        assert "RuntimeError: rider boom" in failed.error
        assert counter("stream.quarantined") == 1
        assert attempt._last_program[2] == {}


class TestStoreHealth:
    def _filled_store(self, tmp_path, plan=None):
        store = ResultStore(tmp_path / "store")
        engine = ExecutionEngine(jobs=1, store=store)
        with fault_injection(plan):
            engine.run_many([native_spec(), native_spec(OTHER)])
        return store

    def test_torn_record_is_a_miss_and_fsck_finds_it(self, tmp_path):
        plan = FaultPlan(rules=(
            FaultRule(kind="torn_record", match=WORKLOAD),))
        store = self._filled_store(tmp_path, plan)
        assert native_spec() not in store
        assert native_spec(OTHER) in store
        report = store.fsck()
        assert report.scanned == 2 and report.valid == 1
        assert report.corrupt == [f"{native_spec().digest()}.json"]
        assert report.problems == 1
        assert "digest-mismatch: 0" in report.render()

    def test_fsck_repair_quarantines_damage(self, tmp_path,
                                            global_telemetry):
        plan = FaultPlan(rules=(
            FaultRule(kind="torn_record", match=WORKLOAD),))
        store = self._filled_store(tmp_path, plan)
        report = store.fsck(repair=True)
        assert report.quarantined == [f"{native_spec().digest()}.json"]
        assert (store.root / "quarantine"
                / f"{native_spec().digest()}.json").exists()
        assert store.fsck().problems == 0
        assert counter("store.repaired") == 1

    def test_records_skips_and_counts_digest_mismatch(self, tmp_path):
        store = self._filled_store(tmp_path)
        path = store.path_for(native_spec())
        path.rename(store.root / f"{'0' * 64}.json")
        records = list(store.records())
        assert len(records) == 1
        assert store.records_skipped_mismatch == 1
        report = store.fsck()
        assert report.mismatched == [f"{'0' * 64}.json"]


class TestCheckpointResume:
    def test_failures_stay_out_of_store_and_resume_reruns_them(
            self, tmp_path):
        store_root = tmp_path / "store"
        engine = ExecutionEngine(jobs=1, store=ResultStore(store_root),
                                 strict=False, retry=policy(attempts=2))
        with fault_injection(crash_plan(WORKLOAD)):
            resolved = engine.run_many([native_spec(),
                                        native_spec(OTHER)])
        assert isinstance(resolved[0], FailedRun)
        assert engine.runs_failed == 1
        assert native_spec() in engine.failed_runs()
        store = ResultStore(store_root)
        assert native_spec() not in store
        assert native_spec(OTHER) in store
        # A failed spec is not re-executed within the session...
        again = engine.run_many([native_spec()])
        assert again[0] is resolved[0]
        # ...but a fresh (resumed) engine re-plans exactly the failures.
        resumed = ExecutionEngine(jobs=1, store=ResultStore(store_root))
        outcomes = resumed.run_many([native_spec(), native_spec(OTHER)])
        assert resumed.runs_executed == 1
        assert not isinstance(outcomes[0], FailedRun)

    def test_strict_failure_still_checkpoints_earlier_groups(
            self, tmp_path):
        store_root = tmp_path / "store"
        engine = ExecutionEngine(jobs=1, store=ResultStore(store_root),
                                 strict=True, retry=policy())
        with fault_injection(crash_plan(OTHER)):
            with pytest.raises(SpecExecutionError):
                engine.run_many([native_spec(), native_spec(OTHER)])
        assert native_spec() in ResultStore(store_root)


class TestInterrupts:
    def _interrupt_after_first(self):
        calls = []

        def on_result(index, group, payloads):
            calls.append(index)
            raise KeyboardInterrupt

        return calls, on_result

    def test_serial_interrupt_reports_progress(self, global_telemetry):
        calls, on_result = self._interrupt_after_first()
        ex = make_executor(1, retry=policy())
        with pytest.raises(KeyboardInterrupt):
            ex.execute_groups([[native_spec()], [native_spec(OTHER)]],
                              on_result=on_result)
        assert calls == [0]
        assert ex.last_interrupt == InterruptReport(completed=1, total=2)
        assert any(e.get("name") == "executor.interrupted"
                   for e in TELEMETRY.events)

    def test_parallel_interrupt_terminates_pool_cleanly(self):
        calls, on_result = self._interrupt_after_first()
        ex = make_executor(2, retry=policy())
        with pytest.raises(KeyboardInterrupt):
            ex.execute_groups([[native_spec()], [native_spec(OTHER)]],
                              on_result=on_result)
        ex.close()
        assert ex.last_interrupt is not None
        assert ex.last_interrupt.total == 2
        assert ex.last_interrupt.completed >= 1


class TestPerEventResolution:
    """Each group resolves -- and checkpoints -- as its event lands."""

    GROUPS = [[native_spec()], [native_spec(OTHER)],
              [native_spec("255.vortex")]]

    @staticmethod
    def _stub_attempts(monkeypatch, outcome):
        """Replace the in-process attempt with ``outcome(call_no)``;
        returns the list of workloads attempted."""
        calls = []

        def attempt(group, attempt):
            calls.append(group[0].workload)
            return outcome(len(calls))

        monkeypatch.setattr("repro.engine.pools.attempt_group", attempt)
        return calls

    def test_inprocess_interrupt_keeps_finished_groups(self,
                                                       monkeypatch):
        def outcome(call):
            if call == 3:
                raise KeyboardInterrupt
            return "ok", [{"kind": "stub", "call": call}]

        self._stub_attempts(monkeypatch, outcome)
        checkpointed = []
        ex = LeaseExecutor(InProcessPool(), retry=policy())
        with pytest.raises(KeyboardInterrupt):
            ex.execute_groups(
                self.GROUPS,
                on_result=lambda index, group, payloads:
                    checkpointed.append(index))
        assert checkpointed == [0, 1]
        assert ex.last_interrupt == InterruptReport(completed=2, total=3)

    def test_strict_inprocess_stops_at_first_exhausted_group(
            self, monkeypatch):
        def outcome(call):
            if call == 2:
                return "error", {"reason": "error",
                                 "error": "RuntimeError: boom",
                                 "traceback": None, "member": 0}
            return "ok", [{"kind": "stub", "call": call}]

        calls = self._stub_attempts(monkeypatch, outcome)
        checkpointed = []
        ex = LeaseExecutor(InProcessPool(), retry=policy(attempts=1),
                           strict=True)
        with pytest.raises(SpecExecutionError) as excinfo:
            ex.execute_groups(
                self.GROUPS,
                on_result=lambda index, group, payloads:
                    checkpointed.append(index))
        assert excinfo.value.spec == native_spec(OTHER)
        # The third group was never attempted.
        assert calls == [WORKLOAD, OTHER]
        assert checkpointed == [0]
        assert ex.runs_executed == 1

    def test_fast_group_checkpoints_before_hung_group_lands(self):
        plan = FaultPlan(seed=1, rules=(
            FaultRule(kind="hang", match=WORKLOAD, attempts=99,
                      hang_seconds=3.0),))
        order = []
        ex = make_executor(2, retry=policy(), strict=False)
        with fault_injection(plan):
            results = ex.execute_groups(
                [[native_spec()], [native_spec(OTHER)]],
                on_result=lambda index, group, payloads:
                    order.append(index))
        ex.close()
        assert order == [1, 0]
        assert all(p[0]["kind"] == "run_outcome" for p in results)


class TestAcceptanceWavefront:
    """Scaled-down version of the issue's acceptance scenario."""

    def test_partial_results_match_clean_sweep(self, global_telemetry):
        # Distinct workloads, so the planner keeps four singleton
        # groups: faults on one group cannot leak into another.
        specs = [native_spec(),                 # crashes every attempt
                 native_spec(OTHER),            # hangs past the deadline
                 native_spec("255.vortex"),     # clean
                 native_spec("179.art")]        # clean
        groups = plan_groups(specs)
        assert [len(g) for g in groups] == [1, 1, 1, 1]
        plan = FaultPlan(seed=9, rules=(
            FaultRule(kind="crash", match=WORKLOAD, attempts=99),
            FaultRule(kind="hang", match=OTHER, attempts=99,
                      hang_seconds=30.0),
        ))

        clean_ex = make_executor(1, retry=RetryPolicy(), strict=True)
        clean = clean_ex.execute_groups(groups)

        # The per-group deadline is measured from each group's own
        # process start -- only the deliberately hung group may
        # overrun it.
        ex = make_executor(2, retry=policy(attempts=2,
                                                   timeout=2.0),
                              strict=False)
        with fault_injection(plan):
            chaos = ex.execute_groups(groups)
        ex.close()

        crashed, timed_out = chaos[0][0], chaos[1][0]
        assert is_failed_payload(crashed) and crashed["reason"] == "error"
        assert is_failed_payload(timed_out) \
            and timed_out["reason"] == "timeout"
        assert ex.runs_failed == 2 and ex.runs_executed == 2
        assert counter("executor.retries") == 2
        for index in (2, 3):
            assert json.dumps(chaos[index], sort_keys=True) \
                == json.dumps(clean[index], sort_keys=True)


class TestResilienceCLI:
    def test_resume_requires_store(self, capsys):
        with pytest.raises(SystemExit):
            main(["table2", "--resume"])
        assert "--resume needs --store" in capsys.readouterr().err

    def test_resume_banner_and_reuse(self, tmp_path, capsys):
        store = tmp_path / "cache"
        assert main(["table2", "--scale", "0.1", "--store",
                     str(store)]) == 0
        capsys.readouterr()
        assert main(["table2", "--scale", "0.1", "--store", str(store),
                     "--resume"]) == 0
        out = capsys.readouterr().out
        assert "[resume: 4/4 specs already stored" in out
        assert "0 runs executed, 4 reused" in out

    def test_faults_flag_reports_and_skips(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(FaultPlan(rules=(
            FaultRule(kind="crash", attempts=99),)).to_dict()))
        assert main(["table2", "--scale", "0.1", "--faults",
                     str(plan_path)]) == 1
        out = capsys.readouterr().out
        assert "runs failed after retries" in out
        assert "table2 skipped" in out

    def test_strict_flag_restores_fail_fast(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(FaultPlan(rules=(
            FaultRule(kind="crash", attempts=99),)).to_dict()))
        with pytest.raises(SpecExecutionError):
            main(["table2", "--scale", "0.1", "--faults",
                  str(plan_path), "--strict"])

    def test_store_fsck_subcommand(self, tmp_path, capsys):
        store_dir = tmp_path / "cache"
        assert main(["table2", "--scale", "0.1", "--store",
                     str(store_dir)]) == 0
        capsys.readouterr()
        assert main(["store", "fsck", "--store", str(store_dir)]) == 0
        victim = sorted(store_dir.glob("*.json"))[0]
        victim.write_text(victim.read_text()[:40])
        assert main(["store", "fsck", "--store", str(store_dir)]) == 1
        assert "--repair" in capsys.readouterr().out
        assert main(["store", "fsck", "--store", str(store_dir),
                     "--repair"]) == 0
        assert main(["store", "fsck", "--store", str(store_dir)]) == 0
        assert (store_dir / "quarantine" / victim.name).exists()

    @pytest.mark.parametrize("timeout", ["0", "-5"])
    def test_non_positive_timeout_is_a_usage_error(self, timeout, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table2", "--scale", "0.1", "--timeout", timeout])
        assert exc.value.code == 2
        assert "--timeout must be > 0" in capsys.readouterr().err

    def test_fsck_on_missing_store_fails_and_creates_nothing(
            self, tmp_path, capsys):
        missing = tmp_path / "mistyped"
        with pytest.raises(SystemExit) as exc:
            main(["store", "fsck", "--store", str(missing)])
        assert exc.value.code == 2
        assert str(missing) in capsys.readouterr().err
        assert not missing.exists()

    def test_fsck_requires_store_and_known_action(self, capsys):
        with pytest.raises(SystemExit):
            main(["store", "fsck"])
        with pytest.raises(SystemExit):
            main(["store", "scrub", "--store", "x"])
