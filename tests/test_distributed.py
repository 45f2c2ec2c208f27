"""Tests for the distributed execution stack: pools and coordinator.

The contract under test: every worker backend -- in-process, dedicated
local processes, socket-connected agents -- hands the coordinator
byte-identical sweep results, and a worker that dies while holding a
lease is a crash fault the coordinator absorbs (the lease requeues on
a surviving worker) rather than an error the sweep surfaces.

Socket agents run as in-process ``serve()`` threads against an
ephemeral-port pool, so no subprocesses are involved; the CI
``distributed-smoke`` job covers real killed agent processes.
"""

import json
import multiprocessing
import os
import select
import signal
import socket
import threading
import time

import pytest

from repro.engine import (
    InProcessPool, LeaseExecutor, LeaseJournal, LocalProcessPool,
    RetryPolicy, RunSpec, SocketPool, SpecExecutionError, attempt,
    is_failed_payload, make_executor, make_pool, plan_groups, run_lease,
    static_counts,
)
from repro.engine.protocol import (
    Heartbeat, HeartbeatAck, Lease, LeaseResult, Shutdown, WorkerHello,
    read_frame, write_frame,
)
from repro.engine.worker import serve
from repro.faults import FaultPlan, FaultRule, fault_injection
from repro.telemetry import TELEMETRY
from repro.workloads import get_workload

SCALE = 0.1
MACHINE_SCALE = 16

#: Retry instantly in tests -- no wall-clock backoff.
NO_BACKOFF = dict(backoff_base=0.0, sleep=lambda _s: None)


def native_spec(**kwargs):
    return RunSpec.native("181.mcf", SCALE, "pentium4", MACHINE_SCALE,
                          **kwargs)


def umi_spec(**kwargs):
    return RunSpec.umi("181.mcf", SCALE, "pentium4", MACHINE_SCALE,
                       **kwargs)


def sweep_specs():
    return [native_spec(), native_spec(hw_prefetch=True), umi_spec()]


def canonical(payloads):
    """Payloads as canonical JSON -- the store's (and wire's) currency.

    Socket transport rebuilds tuples as lists, so equality is defined
    on the serialized form, exactly as the persistent store sees it.
    """
    return json.dumps(payloads, sort_keys=True)


def serial_sweep():
    return make_executor(1).execute(sweep_specs())


def start_agent(host, port, name):
    """A real worker agent serving leases from a daemon thread."""
    thread = threading.Thread(
        target=serve, args=(host, port), kwargs={"name": name},
        daemon=True)
    thread.start()
    return thread


def doomed_agent(host, port, name):
    """An agent that registers, accepts one lease, then dies silently.

    Closing the connection without a LeaseResult is exactly what a
    SIGKILLed worker process looks like to the coordinator.
    """
    def run():
        sock = socket.create_connection((host, port))
        stream = sock.makefile("rwb")
        write_frame(stream, WorkerHello(worker=name, pid=0, host="test"))
        read_frame(stream)  # welcome
        read_frame(stream)  # the lease it will never finish
        stream.close()
        sock.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


class TestInProcessPool:
    def test_sweep_matches_serial(self):
        executor = LeaseExecutor(InProcessPool())
        payloads = executor.execute(sweep_specs())
        executor.close()
        assert canonical(payloads) == canonical(serial_sweep())
        assert executor.runs_executed == 3
        assert executor.worker_stats["inprocess/0"]["specs"] == 3
        assert executor.worker_stats["inprocess/0"]["leases"] == 3


def local_agents():
    return [child for child in multiprocessing.active_children()
            if child.name.startswith("local/")]


class TestLocalProcessPool:
    def test_sweep_matches_serial_byte_identically(self):
        executor = make_executor(2)
        payloads = executor.execute(sweep_specs())
        executor.close()
        assert canonical(payloads) == canonical(serial_sweep())
        stats = executor.worker_stats
        assert set(stats) <= {"local/0", "local/1"}
        assert sum(s["specs"] for s in stats.values()) == 3

    def test_agents_keep_their_program_between_leases(self, monkeypatch):
        # Four groups of one program on two long-lived agents: each
        # agent builds it once and reuses it for its later leases.
        monkeypatch.setattr(attempt, "_last_program", None)
        specs = [native_spec(), native_spec(hw_prefetch=True),
                 umi_spec(), umi_spec(hw_prefetch=True)]
        groups = plan_groups(specs)
        assert len(groups) == 4
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            executor = make_executor(2)
            executor.execute_groups(groups)
            executor.close()
            builds = TELEMETRY.registry.counter(
                "workloads.program_builds").value
            reuses = TELEMETRY.registry.counter(
                "workloads.program_reuses").value
        finally:
            TELEMETRY.reset()
            TELEMETRY.disable()
        assert 1 <= builds <= 2
        assert builds + reuses == 4

    def test_static_counts_come_home(self, monkeypatch):
        # The coordinator records the counts its agents built, so
        # rendering builds nothing here.
        monkeypatch.setattr(attempt, "_last_program", None)
        monkeypatch.setattr(attempt, "_static_counts", {})
        executor = make_executor(2)
        executor.execute([native_spec()])
        executor.close()
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            counts = static_counts("181.mcf", SCALE)
            builds = TELEMETRY.registry.counter(
                "workloads.program_builds").value
        finally:
            TELEMETRY.reset()
            TELEMETRY.disable()
        assert builds == 0
        program = get_workload("181.mcf").build(SCALE)
        assert counts == (program.static_loads(), program.static_stores())

    def test_expired_agent_is_replaced_under_its_slot_id(self):
        # One agent; the first attempt hangs past its deadline.  The
        # agent is killed and a fresh one registers as local/0 and
        # runs the retry.
        pool = LocalProcessPool(1)
        pool.start()
        first_pid = pool.workers["local/0"].pid
        executor = LeaseExecutor(pool, retry=RetryPolicy(
            max_attempts=2, timeout=0.5, **NO_BACKOFF))
        plan = FaultPlan(seed=1, rules=(
            FaultRule(kind="hang", match="*", attempts=1,
                      hang_seconds=30.0),))
        try:
            with fault_injection(plan):
                payloads = executor.execute([native_spec()])
            second_pid = pool.workers["local/0"].pid
            alive = {child.pid for child in local_agents()}
        finally:
            executor.close()
        assert payloads[0]["kind"] == "run_outcome"
        assert second_pid != first_pid
        assert first_pid not in alive and second_pid in alive
        stats = executor.worker_stats["local/0"]
        assert stats["timeouts"] == 1 and stats["leases"] == 1

    def test_agent_that_died_idle_is_replaced(self):
        pool = LocalProcessPool(1)
        pool.start()
        first_pid = pool.workers["local/0"].pid
        os.kill(first_pid, signal.SIGKILL)
        deadline = time.monotonic() + 30
        try:
            while pool.workers.get("local/0") is None \
                    or pool.workers["local/0"].pid == first_pid:
                assert time.monotonic() < deadline
                assert pool.wait(timeout=0.1) == []
        finally:
            pool.close()

    def test_agents_fork_at_start_and_end_at_close(self):
        executor = make_executor(2)
        assert not local_agents()  # nothing forked before a sweep
        executor.execute([native_spec()])
        assert sorted(a.name for a in local_agents()) \
            == ["local/0", "local/1"]
        executor.close()
        assert not multiprocessing.active_children()


class TestSocketPool:
    def test_two_agent_sweep_matches_serial(self):
        pool = SocketPool(min_workers=2, wait_s=30.0)
        host, port = pool.bind()
        agents = [start_agent(host, port, "a"),
                  start_agent(host, port, "b")]
        executor = LeaseExecutor(pool)
        try:
            payloads = executor.execute(sweep_specs())
        finally:
            executor.close()
        for agent in agents:
            agent.join(timeout=10.0)
        assert canonical(payloads) == canonical(serial_sweep())
        assert executor.runs_executed == 3
        stats = executor.worker_stats
        assert set(stats) <= {"a", "b"}
        assert sum(s["specs"] for s in stats.values()) == 3
        assert sum(s["lost"] for s in stats.values()) == 0

    def test_worker_death_mid_lease_requeues_on_second_worker(self):
        pool = SocketPool(min_workers=2, wait_s=30.0)
        host, port = pool.bind()
        # Ids sort "a" < "b", so the first lease deterministically
        # lands on the doomed agent.
        doomed = doomed_agent(host, port, "a")
        survivor = start_agent(host, port, "b")
        executor = LeaseExecutor(
            pool, retry=RetryPolicy(max_attempts=2, **NO_BACKOFF))
        try:
            payloads = executor.execute(sweep_specs())
        finally:
            executor.close()
        doomed.join(timeout=10.0)
        survivor.join(timeout=10.0)
        # The sweep absorbed the death: nothing lost, nothing
        # duplicated, results byte-identical to a serial run.
        assert canonical(payloads) == canonical(serial_sweep())
        assert executor.runs_executed == 3
        assert executor.runs_failed == 0
        assert executor.worker_stats["a"]["lost"] == 1
        assert executor.worker_stats["b"]["specs"] == 3
        assert executor.worker_stats["b"]["retries"] >= 1

    def test_lost_lease_without_retry_is_a_failed_run(self):
        pool = SocketPool(min_workers=1, wait_s=30.0)
        host, port = pool.bind()
        doomed = doomed_agent(host, port, "a")
        executor = LeaseExecutor(
            pool, retry=RetryPolicy(max_attempts=1), strict=False)
        try:
            payloads = executor.execute([native_spec()])
        finally:
            executor.close()
        doomed.join(timeout=10.0)
        assert executor.runs_failed == 1
        assert is_failed_payload(payloads[0])
        assert payloads[0]["reason"] == "error"
        assert "WorkerCrashFault" in payloads[0]["error"]
        assert executor.worker_stats["a"]["lost"] == 1

    def test_lost_lease_without_retry_raises_in_strict_mode(self):
        pool = SocketPool(min_workers=1, wait_s=30.0)
        host, port = pool.bind()
        doomed_agent(host, port, "a")
        executor = LeaseExecutor(
            pool, retry=RetryPolicy(max_attempts=1), strict=True)
        try:
            with pytest.raises(SpecExecutionError,
                               match="WorkerCrashFault"):
                executor.execute([native_spec()])
        finally:
            executor.close()

    def test_start_times_out_without_enough_agents(self):
        pool = SocketPool(min_workers=1, wait_s=0.2)
        pool.bind()
        try:
            with pytest.raises(TimeoutError):
                pool.start()
        finally:
            pool.close()


def zombie_agent(host, port, name):
    """A worker that goes comatose mid-lease, then comes back.

    It takes a lease, never answers the liveness probes, and waits for
    the coordinator to fall silent (= we were declared lost).  Then it
    sends a *fabricated* result for the old lease -- the exact frame a
    fenced zombie would emit -- and finally serves the re-submitted
    lease properly.  If lease fencing ever regresses, the fabricated
    payload reaches the store and the sweep stops matching serial.
    """
    def run():
        sock = socket.create_connection((host, port))
        stream = sock.makefile("rwb")
        write_frame(stream, WorkerHello(worker=name, pid=0, host="test"))
        read_frame(stream)  # welcome
        old = read_frame(stream)  # the lease we will go dark on
        # Swallow probes without acking until the coordinator falls
        # silent for a full second (= it declared us lost).  Silence
        # is detected with select(), not a socket timeout -- a timed
        # out makefile() stream refuses all further reads.
        while select.select([sock], [], [], 1.0)[0]:
            read_frame(stream)
        write_frame(stream, LeaseResult(
            lease_id=old.lease_id, worker=name, epoch=old.epoch,
            status="ok", value=[{"fabricated": "must never commit"}],
            snapshot=None))
        while True:  # re-adopted: behave from here on
            message = read_frame(stream)
            if isinstance(message, Shutdown):
                break
            if isinstance(message, Heartbeat):
                write_frame(stream, HeartbeatAck(seq=message.seq,
                                                 worker=name))
                continue
            if isinstance(message, Lease):
                status, value, snapshot = run_lease(message)
                write_frame(stream, LeaseResult(
                    lease_id=message.lease_id, worker=name,
                    epoch=message.epoch, status=status, value=value,
                    snapshot=snapshot))
        stream.close()
        sock.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


class TestLivenessAndFencing:
    def test_silent_worker_is_fenced_and_readopted(self):
        # The zombie is the ONLY worker, so the sweep cannot finish
        # until its fabricated stale result is fenced off and the
        # re-submitted lease runs on the re-adopted worker.
        pool = SocketPool(min_workers=1, wait_s=30.0,
                          heartbeat_s=0.1, liveness_misses=2)
        host, port = pool.bind()
        zombie = zombie_agent(host, port, "a")
        executor = LeaseExecutor(
            pool, retry=RetryPolicy(max_attempts=3, **NO_BACKOFF))
        try:
            payloads = executor.execute([native_spec()])
        finally:
            executor.close()
        zombie.join(timeout=10.0)
        assert canonical(payloads) == canonical(
            make_executor(1).execute([native_spec()]))
        stats = executor.worker_stats["a"]
        assert stats["heartbeats_missed"] >= 2
        assert stats["lost"] == 1
        assert stats["stale"] == 1
        assert stats["rejoins"] >= 1
        assert stats["retries"] >= 1
        assert executor.runs_failed == 0

    def test_unsolicited_result_is_fenced_as_stale(self):
        # A result frame from a worker holding no lease must surface
        # as a "stale" event, never a commit.
        pool = SocketPool(min_workers=1, wait_s=10.0)
        host, port = pool.bind()
        sock = socket.create_connection((host, port))
        stream = sock.makefile("rwb")
        write_frame(stream, WorkerHello(worker="z", pid=0, host="test"))
        try:
            pool.start()
            read_frame(stream)  # welcome
            write_frame(stream, LeaseResult(
                lease_id="L999999", worker="z", epoch=41, status="ok",
                value=[{"fabricated": True}]))
            events = pool.wait(timeout=5.0)
            assert [e.kind for e in events] == ["stale"]
            assert events[0].worker == "z"
            assert events[0].epoch == 41
        finally:
            stream.close()
            sock.close()
            pool.close()

    def test_partitioned_worker_trips_liveness_then_rejoins(self):
        # A timed partition of the only worker: its result is answered
        # into the void, liveness requeues the lease, the heal turns
        # the buffered answer into a fenced stale result, and the
        # re-adopted worker serves the re-submitted lease.  End state:
        # byte-identical to serial.
        plan = FaultPlan(seed=11, rules=(
            FaultRule(kind="partition", worker="a",
                      partition_seconds=0.8),))
        pool = SocketPool(min_workers=1, wait_s=30.0,
                          heartbeat_s=0.1, liveness_misses=2)
        host, port = pool.bind()
        agent = start_agent(host, port, "a")
        executor = LeaseExecutor(
            pool, retry=RetryPolicy(max_attempts=3, **NO_BACKOFF))
        with fault_injection(plan):
            try:
                payloads = executor.execute(sweep_specs())
            finally:
                executor.close()
        agent.join(timeout=10.0)
        assert canonical(payloads) == canonical(serial_sweep())
        stats = executor.worker_stats["a"]
        assert stats["lost"] == 1
        assert stats["heartbeats_missed"] >= 2
        assert stats["stale"] == 1
        assert stats["rejoins"] >= 1
        assert executor.runs_failed == 0


class TestFdHygiene:
    def test_connection_churn_does_not_leak_fds(self):
        # Regression for the makefile() io-ref leak: every reject,
        # sever and expiry path must close both the buffered stream
        # and the socket.  30 churn rounds with a leak of even one fd
        # per round would blow well past the slack.
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        pool = SocketPool(min_workers=1, wait_s=5.0, heartbeat_s=None)
        host, port = pool.bind()
        baseline = open_fds()
        for _ in range(30):
            # Rejected registration: garbage instead of a hello.
            bad = socket.create_connection((host, port))
            bad.sendall(b'{"not": "a hello"}\n')
            pool.wait(timeout=2.0)  # accept + reject
            bad.close()
            # Clean registration, then the agent vanishes.
            good = socket.create_connection((host, port))
            stream = good.makefile("rwb")
            write_frame(stream, WorkerHello(worker="churn", pid=0,
                                            host="test"))
            while "churn" not in pool.workers:
                pool.wait(timeout=2.0)  # accept + welcome
            read_frame(stream)
            stream.close()
            good.close()
            while "churn" in pool.workers:
                pool.wait(timeout=2.0)  # EOF -> sever
        assert open_fds() <= baseline + 3
        pool.close()


class TestJournalResume:
    def test_clean_sweep_compacts_the_journal(self, tmp_path):
        path = tmp_path / "lease-journal.jsonl"
        executor = LeaseExecutor(InProcessPool())
        executor.journal = LeaseJournal(str(path))
        payloads = executor.execute([native_spec()])
        executor.close()
        executor.journal.close()
        assert not is_failed_payload(payloads[0])
        # Nothing dangling after a clean sweep: the journal is empty,
        # so no budget or epoch leaks into the next sweep.
        assert path.exists() and path.read_bytes() == b""

    def test_dangling_grants_resume_attempt_budgets(self, tmp_path):
        path = tmp_path / "lease-journal.jsonl"
        spec = native_spec()
        key = spec.digest()
        # A previous coordinator granted this group twice (epochs 5
        # and 6), then died without a complete/fail.
        prior = LeaseJournal(str(path))
        prior.record_grant(key, epoch=5, attempt=1, lease_id="L000005")
        prior.record_grant(key, epoch=6, attempt=2, lease_id="L000006")
        prior.close()

        journal = LeaseJournal(str(path))
        assert journal.prior_attempts(key) == 2
        assert journal.max_epoch == 6
        executor = LeaseExecutor(
            InProcessPool(),
            retry=RetryPolicy(max_attempts=3, **NO_BACKOFF))
        executor.journal = journal
        payloads = executor.execute([spec])
        executor.close()
        assert not is_failed_payload(payloads[0])
        # The resumed group consumed its third and final attempt --
        # the two dangling grants counted -- and that surfaced as a
        # retry, not a fresh budget.
        assert executor.worker_stats["inprocess/0"]["retries"] == 1
        # Fencing epochs continued past the dead coordinator's: a
        # zombie answering epoch <= 6 can never match a new lease.
        assert executor._lease_seq > 6
        journal.close()

    def test_resume_always_keeps_at_least_one_attempt(self, tmp_path):
        path = tmp_path / "lease-journal.jsonl"
        spec = native_spec()
        key = spec.digest()
        prior = LeaseJournal(str(path))
        for epoch in range(1, 6):  # five dangling grants
            prior.record_grant(key, epoch=epoch, attempt=epoch,
                               lease_id=f"L{epoch:06d}")
        prior.close()

        executor = LeaseExecutor(
            InProcessPool(), retry=RetryPolicy(max_attempts=1))
        executor.journal = LeaseJournal(str(path))
        payloads = executor.execute([spec])
        executor.close()
        executor.journal.close()
        # Even a group granted more often than the whole budget gets
        # one attempt on resume -- otherwise a resumed sweep could
        # fail groups without ever re-running them.
        assert not is_failed_payload(payloads[0])

    def test_failed_group_clears_its_journal_budget(self, tmp_path):
        path = tmp_path / "lease-journal.jsonl"
        spec = native_spec()
        plan = FaultPlan(seed=3, rules=(
            FaultRule(kind="crash", probability=1.0, attempts=99),))
        executor = LeaseExecutor(
            InProcessPool(), strict=False,
            retry=RetryPolicy(max_attempts=2, **NO_BACKOFF))
        executor.journal = LeaseJournal(str(path))
        with fault_injection(plan):
            payloads = executor.execute([spec])
        executor.close()
        assert is_failed_payload(payloads[0])
        # ``fail`` cleared the key: a resume-after-failure run gets a
        # fresh budget, matching the store's treatment of failures.
        assert LeaseJournal(str(path)).prior_attempts(spec.digest()) == 0
        executor.journal.close()


class TestPoolSelection:
    def test_workers_spec_selects_a_socket_pool(self):
        pool = make_pool(workers="2@127.0.0.1:0")
        assert isinstance(pool, SocketPool)
        assert pool.min_workers == 2
        assert (pool.host, pool.port) == ("127.0.0.1", 0)
        plain = make_pool(workers="10.0.0.5:7777")
        assert isinstance(plain, SocketPool)
        assert plain.min_workers == 1
        assert (plain.host, plain.port) == ("10.0.0.5", 7777)

    def test_jobs_pick_inprocess_or_local(self):
        assert isinstance(make_pool(jobs=1), InProcessPool)
        local = make_pool(jobs=4)
        assert isinstance(local, LocalProcessPool)
        assert local.capacity == 4
        # 0 means all cores, as --jobs documents; negative is an error.
        assert make_pool(jobs=0).capacity == multiprocessing.cpu_count()
        with pytest.raises(ValueError):
            make_pool(jobs=-3)

    def test_cli_rejects_negative_jobs(self, capsys):
        from repro.experiments.cli import main
        with pytest.raises(SystemExit):
            main(["table2", "--jobs", "-3"])
        assert "--jobs must be >= 0" in capsys.readouterr().err

    def test_invalid_workers_spec_rejected(self):
        for spec in ("nonsense", "2@nonsense", ":7777", "host:"):
            with pytest.raises(ValueError):
                make_pool(workers=spec)

    def test_make_executor_workers_spec_builds_a_coordinator(self):
        executor = make_executor(workers="127.0.0.1:0")
        assert isinstance(executor, LeaseExecutor)
        assert executor.pool_kind == "socket"
        executor.close()
        for jobs, kind in ((1, "inprocess"), (2, "local")):
            executor = make_executor(jobs=jobs)
            assert isinstance(executor, LeaseExecutor)
            assert executor.pool_kind == kind
