"""The per-pass contract of DynamoSim: hooks, trace ids, linked self-loops.

A clean trace pass pays only for its blocks.  The entry/exit hooks fire
only for hooked traces, the stream's trace id is stamped only when a
consumer reads trace ids, the prefetch map is set only for traces that
have one, and a trace that exits to its own head over a linked direct
branch is re-entered without the dispatcher's link probe, its entry
counts added once per run of passes.  None of that may change a
simulated number: the values pinned below were taken from the runtime
that hooked, stamped and probed on every pass, and every
``RuntimeStats`` field, cycle count, payload and profile-recorder summary
must still equal them.  A client that hooks every trace and does
nothing must change no number either, and every entry hook must see
``trace.entries`` counting the pass it enters.
"""

import hashlib
import json

import pytest

from repro import runners
from repro.core import UMIConfig
from repro.isa import (
    ADD, AND, CC_EQ, CC_LT, CC_NE, EAX, EBX, ECX, EDX, ESI, SHR,
    ProgramBuilder, mem,
)
from repro.faults import FaultyConsumerProxy
from repro.memory.configs import get_machine
from repro.memory.flat import FlatMemory
from repro.serialize import outcome_to_dict
from repro.stream import CollectingRefConsumer, RefConsumer, RefStream
from repro.stream.consumers import ProfileRecorderConsumer, TLBConsumer
from repro.vm import (
    DynamoSim, ExecutionLimitExceeded, RuntimeConfig, RuntimeHooks,
)
from repro.workloads import get_workload

from helpers import build_chase_program, build_stream_program

SAMPLING = {
    "none": UMIConfig(),
    "timer": UMIConfig(use_sampling=True, frequency_threshold=4),
    "event": UMIConfig(use_sampling=True, sampling_mode="event",
                       event_sample_period=16, frequency_threshold=4),
}
WORKLOADS = ["181.mcf", "171.swim"]


def runtime_stats(**fields):
    """A pinned ``RuntimeStats`` as the dict ``vars()`` gives."""
    return fields


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def umi_observation(workload, sampling, consumers):
    """One ``run_umi`` outcome: its payload (without ``derived``), its
    runtime statistics and its consumer summaries."""
    program = get_workload(workload).build(0.05)
    outcome = runners.run_umi(program, get_machine("pentium4"),
                              umi_config=SAMPLING[sampling],
                              with_cachegrind=True, consumers=consumers)
    payload = outcome_to_dict(outcome)
    derived = payload.pop("derived", {})
    return payload, vars(outcome.runtime_stats), derived


#: workload -> sampling -> (payload digest, RuntimeStats, cycles,
#: profile-recorder summary), from the runtime that paid every per-pass
#: cost on every pass.
PINNED_UMI = {
    "181.mcf": {
        "event": ("2d397af8cdafa473",
                  runtime_stats(blocks_translated=19, block_executions=166,
                                trace_entries=3434, traces_built=3,
                                dispatches=19, indirect_lookups=3,
                                timer_samples=0, steps_in_traces=21016,
                                total_steps=22046),
                  694332, {"traces": 3, "rows": 192}),
        "none": ("4c4845af943e7cce",
                  runtime_stats(blocks_translated=19, block_executions=166,
                                trace_entries=3434, traces_built=3,
                                dispatches=19, indirect_lookups=3,
                                timer_samples=0, steps_in_traces=21016,
                                total_steps=22046),
                  663376, {"traces": 3, "rows": 192}),
        "timer": ("62a78ba55f88f0ff",
                  runtime_stats(blocks_translated=19, block_executions=166,
                                trace_entries=3434, traces_built=3,
                                dispatches=19, indirect_lookups=3,
                                timer_samples=943, steps_in_traces=21016,
                                total_steps=22046),
                  710282, {"traces": 3, "rows": 192}),
    },
    "171.swim": {
        "event": ("e976c898b968aa2e",
                  runtime_stats(blocks_translated=15, block_executions=177,
                                trace_entries=3420, traces_built=2,
                                dispatches=17, indirect_lookups=2,
                                timer_samples=0, steps_in_traces=33724,
                                total_steps=34875),
                  331108, {"traces": 2, "rows": 128}),
        "none": ("95089441e755c97c",
                  runtime_stats(blocks_translated=15, block_executions=177,
                                trace_entries=3420, traces_built=2,
                                dispatches=17, indirect_lookups=2,
                                timer_samples=0, steps_in_traces=33724,
                                total_steps=34875),
                  279086, {"traces": 2, "rows": 128}),
        "timer": ("77381224f54353bc",
                  runtime_stats(blocks_translated=15, block_executions=177,
                                trace_entries=3420, traces_built=2,
                                dispatches=17, indirect_lookups=2,
                                timer_samples=466, steps_in_traces=33724,
                                total_steps=34875),
                  351900, {"traces": 2, "rows": 128}),
    },
}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("sampling", sorted(SAMPLING))
def test_umi_payload_ignores_the_trace_id_consumer(workload, sampling):
    plain, plain_stats, plain_derived = umi_observation(
        workload, sampling, ())
    recorded, stats, derived = umi_observation(
        workload, sampling, ("profile-recorder",))
    assert plain == recorded
    assert plain_stats == stats
    assert plain_derived == {}
    pinned_digest, pinned_stats, pinned_cycles, pinned_summary = \
        PINNED_UMI[workload][sampling]
    assert digest(recorded) == pinned_digest
    assert stats == pinned_stats
    assert recorded["cycles"] == pinned_cycles
    assert derived == {"profile-recorder": pinned_summary}


# -- DynamoSim-level observations ------------------------------------------

class TickRecorder(RuntimeHooks):
    """Records every timer tick: the cycle it fired at and its trace."""

    def __init__(self) -> None:
        self.ticks = []
        self.dynamo = None

    def timer_sample(self, trace):
        self.ticks.append((self.dynamo.state.cycles,
                           trace.head if trace is not None else None))


def dynamo_observation(program, **config):
    """Run ``program`` under DynamoSim with a tick recorder; returns the
    statistics, machine totals, tick digest and the run's outcome."""
    hooks = TickRecorder()
    dynamo = DynamoSim(program, FlatMemory(latency=3),
                       config=RuntimeConfig(**config), hooks=hooks)
    hooks.dynamo = dynamo
    try:
        dynamo.run()
        outcome = "ok"
    except ExecutionLimitExceeded:
        outcome = "limit"
    state = dynamo.state
    return {
        "outcome": outcome,
        "stats": vars(dynamo.stats),
        "cycles": state.cycles,
        "steps": state.steps,
        "ticks": len(hooks.ticks),
        "ticks_in_loop": sum(1 for _, head in hooks.ticks
                             if head is not None),
        "tick_digest": digest(hooks.ticks),
        "entries": {head: trace.entries
                    for head, trace in sorted(dynamo.traces.items())},
    }


def build_two_block_loop(n=128, reps=4):
    """A loop whose trace has two blocks: its self-link ``(top, top)``
    does not exist until the trace first exits to its own head."""
    b = ProgramBuilder("two-block")
    arr = b.data.alloc_array("a", n, elem_size=8, init=lambda i: i)
    b.start_regs({ESI: arr, ECX: 0, EDX: 0, EBX: reps})
    rep = b.block("rep")
    rep.mov_imm(ECX, 0)
    rep.jmp("top")
    top = b.block("top")
    top.load(EAX, mem(base=ESI, index=ECX, scale=8))
    top.alu(ADD, EDX, EAX)
    top.jmp("bottom")
    bottom = b.block("bottom")
    bottom.alu_imm(ADD, ECX, 1)
    bottom.cmp_imm(ECX, n)
    bottom.jcc(CC_LT, "top", "next")
    nxt = b.block("next")
    nxt.alu_imm(ADD, EBX, -1 & ((1 << 64) - 1))
    nxt.cmp_imm(EBX, 0)
    nxt.jcc(CC_NE, "rep", "done")
    b.block("done").halt()
    return b.build(entry="rep")


def build_switch_loop(n=256, reps=4):
    """A three-block trace that returns to its head both ways: a direct
    side exit (which links ``(head, head)``) on even iterations and an
    indirect ``switch`` on odd ones, which must still pay the indirect
    lookup every time."""
    b = ProgramBuilder("switch-loop")
    b.start_regs({ECX: 0, EBX: reps})
    rep = b.block("rep")
    rep.mov_imm(ECX, 0)
    rep.jmp("spin")
    spin = b.block("spin")
    spin.alu_imm(ADD, ECX, 1)
    spin.mov(EAX, ECX)
    spin.alu_imm(AND, EAX, 1)
    spin.jmp("parity")
    parity = b.block("parity")
    parity.cmp_imm(EAX, 0)
    parity.jcc(CC_EQ, "spin", "dispatch")
    dispatch = b.block("dispatch")
    dispatch.mov(EDX, ECX)
    dispatch.alu_imm(SHR, EDX, n.bit_length() - 1)
    dispatch.switch(EDX, ["spin", "next"])
    nxt = b.block("next")
    nxt.alu_imm(ADD, EBX, -1 & ((1 << 64) - 1))
    nxt.cmp_imm(EBX, 0)
    nxt.jcc(CC_NE, "rep", "done")
    b.block("done").halt()
    return b.build(entry="rep")


#: case -> observation, from the runtime before linked self-loops.
PINNED_DYNAMO = {
    "chase-timer-and-limit": {
        "outcome": "limit",
        "cycles": 14985,
        "steps": 6003,
        "ticks": 245,
        "ticks_in_loop": 204,
        "tick_digest": "54a21b0f149a865c",
        "entries": {"chase": 1491, "next": 2, "rep": 3},
        "stats": runtime_stats(blocks_translated=3, block_executions=9,
                               trace_entries=1496, traces_built=3,
                               dispatches=5, indirect_lookups=0,
                               timer_samples=245, steps_in_traces=5976,
                               total_steps=0),
    },
    "limit-in-self-loop": {
        "outcome": "limit",
        "cycles": 13560,
        "steps": 7782,
        "ticks": 0,
        "ticks_in_loop": 0,
        "tick_digest": "4f53cda18c2baa0c",
        "entries": {"loop": 1551},
        "stats": runtime_stats(blocks_translated=2, block_executions=6,
                               trace_entries=1551, traces_built=1,
                               dispatches=3, indirect_lookups=0,
                               timer_samples=0, steps_in_traces=7755,
                               total_steps=0),
    },
    "switch-self-loop": {
        "outcome": "ok",
        "cycles": 12587,
        "steps": 7737,
        "ticks": 0,
        "ticks_in_loop": 0,
        "tick_digest": "4f53cda18c2baa0c",
        "entries": {"next": 1, "rep": 1, "spin": 1025},
        "stats": runtime_stats(blocks_translated=6, block_executions=15,
                               trace_entries=1027, traces_built=3,
                               dispatches=8, indirect_lookups=516,
                               timer_samples=0, steps_in_traces=7697,
                               total_steps=7737),
    },
    "timer-in-self-loop": {
        "outcome": "ok",
        "cycles": 16478,
        "steps": 7711,
        "ticks": 169,
        "ticks_in_loop": 142,
        "tick_digest": "bf8723ea852e2193",
        "entries": {"loop": 1531, "next": 1, "rep": 1},
        "stats": runtime_stats(blocks_translated=4, block_executions=16,
                               trace_entries=1533, traces_built=3,
                               dispatches=6, indirect_lookups=0,
                               timer_samples=169, steps_in_traces=7660,
                               total_steps=7711),
    },
    "two-block-loop": {
        "outcome": "ok",
        "cycles": 8199,
        "steps": 3093,
        "ticks": 92,
        "ticks_in_loop": 52,
        "tick_digest": "f44c2abde7c826e0",
        "entries": {"next": 1, "rep": 1, "top": 509},
        "stats": runtime_stats(blocks_translated=5, block_executions=13,
                               trace_entries=511, traces_built=3,
                               dispatches=8, indirect_lookups=0,
                               timer_samples=92, steps_in_traces=3059,
                               total_steps=3093),
    },
}

DYNAMO_CASES = {
    # A prime period puts ticks at every phase of the loop trace's
    # passes, so most land while it is re-entering itself.
    "timer-in-self-loop": lambda: dynamo_observation(
        build_stream_program(n=256, reps=6)[0], hot_threshold=5,
        sample_period=97),
    # The step limit trips in the middle of a long run of self-loop
    # passes; the error must come at exactly the same pass.
    "limit-in-self-loop": lambda: dynamo_observation(
        build_stream_program(n=4096, reps=2)[0], hot_threshold=5,
        max_steps=7_777),
    "chase-timer-and-limit": lambda: dynamo_observation(
        build_chase_program(n=256, reps=8)[0], hot_threshold=3,
        sample_period=61, max_steps=6_001),
    "two-block-loop": lambda: dynamo_observation(
        build_two_block_loop(), hot_threshold=3, sample_period=89),
    "switch-self-loop": lambda: dynamo_observation(
        build_switch_loop(), hot_threshold=3),
}


@pytest.mark.parametrize("case", sorted(DYNAMO_CASES))
def test_self_loop_matches_the_unlinked_runtime(case):
    seen = DYNAMO_CASES[case]()
    assert seen == PINNED_DYNAMO[case]


def test_self_loop_cases_land_inside_the_loop():
    """The pinned cases exercise what they claim to."""
    timer = DYNAMO_CASES["timer-in-self-loop"]()
    assert timer["outcome"] == "ok"
    assert timer["ticks_in_loop"] > timer["ticks"] // 2
    limit = DYNAMO_CASES["limit-in-self-loop"]()
    assert limit["outcome"] == "limit"
    assert limit["entries"]["loop"] > 100
    # One trace holds spin, parity and dispatch, so it exits to its
    # head both directly and through the switch.
    switch = DYNAMO_CASES["switch-self-loop"]()
    assert sorted(switch["entries"]) == ["next", "rep", "spin"]
    assert switch["stats"]["indirect_lookups"] > 500


# -- hooked passes -----------------------------------------------------------

class HookEveryTrace(TickRecorder):
    """Hooks every trace and does nothing at entry or exit, except
    record the ``entries`` each entry hook sees."""

    def __init__(self) -> None:
        super().__init__()
        self.seen = {}
        self.exits = 0

    def trace_created(self, trace):
        trace.hooked = True

    def trace_entered(self, trace):
        self.seen.setdefault(trace.head, []).append(trace.entries)

    def trace_exited(self, trace):
        self.exits += 1


def machine_observation(program, hooks, **config):
    dynamo = DynamoSim(program, FlatMemory(latency=3),
                       config=RuntimeConfig(**config), hooks=hooks)
    hooks.dynamo = dynamo
    dynamo.run()
    state = dynamo.state
    return {
        "stats": vars(dynamo.stats),
        "cycles": state.cycles,
        "steps": state.steps,
        "regs": list(state.regs),
        "memory": dict(state.memory),
        "ticks": hooks.ticks,
        "entries": {head: trace.entries
                    for head, trace in sorted(dynamo.traces.items())},
    }


#: (program, config) pairs whose hot trace is a linked self-loop: one
#: block, two blocks, and three blocks that also return through a
#: switch.
SELF_LOOPS = {
    "one-block": lambda: (build_stream_program(n=256, reps=6)[0],
                          dict(hot_threshold=5, sample_period=97)),
    "two-block": lambda: (build_two_block_loop(),
                          dict(hot_threshold=3, sample_period=89)),
    "switch": lambda: (build_switch_loop(), dict(hot_threshold=3)),
}


@pytest.mark.parametrize("case", sorted(SELF_LOOPS))
def test_hooking_every_trace_changes_no_number(case):
    program, config = SELF_LOOPS[case]()
    clean = machine_observation(program, TickRecorder(), **config)
    hooks = HookEveryTrace()
    hooked = machine_observation(program, hooks, **config)
    assert hooked == clean
    # Every pass ran its prologue and epilogue, and each entry hook saw
    # ``entries`` counting its own pass.
    assert hooks.exits == clean["stats"]["trace_entries"]
    assert hooks.seen == {
        head: list(range(1, count + 1))
        for head, count in clean["entries"].items()}


class HookOnTick(TickRecorder):
    """Hooks a trace at the 20th timer tick that lands in it: the entry
    hook must then see the passes it ran clean, counted."""

    def __init__(self) -> None:
        super().__init__()
        self.hooked_at = {}
        self.seen = {}

    def timer_sample(self, trace):
        super().timer_sample(trace)
        if trace is None or trace.hooked:
            return
        head = trace.head
        if sum(1 for _, tick in self.ticks if tick == head) == 20:
            trace.hooked = True
            self.hooked_at[head] = trace.entries

    def trace_entered(self, trace):
        self.seen.setdefault(trace.head, []).append(trace.entries)


def test_hooking_mid_run_sees_the_clean_passes_counted():
    program, config = SELF_LOOPS["one-block"]()
    clean = machine_observation(program, TickRecorder(), **config)
    hooks = HookOnTick()
    late = machine_observation(program, hooks, **config)
    assert late == clean
    assert hooks.hooked_at["loop"] > 100
    for head, first in hooks.hooked_at.items():
        assert hooks.seen[head] == list(
            range(first + 1, clean["entries"][head] + 1))


def test_event_sampling_sees_entries_current_at_the_hook(monkeypatch):
    # Event-mode selection hooks every trace and counts every Nth
    # entry, so each entry hook must see ``entries`` counting its pass.
    from repro.core.umi import UMIRuntime
    seen = {}
    entered = UMIRuntime._on_trace_entered

    def recording(self, trace):
        seen.setdefault(trace.head, []).append(trace.entries)
        entered(self, trace)

    monkeypatch.setattr(UMIRuntime, "_on_trace_entered", recording)
    program = get_workload("181.mcf").build(0.05)
    outcome = runners.run_umi(program, get_machine("pentium4"),
                              umi_config=SAMPLING["event"])
    assert outcome.runtime_stats.trace_entries == 3434
    assert sum(map(len, seen.values())) == 3434
    for counts in seen.values():
        assert counts == list(range(1, len(counts) + 1))
    assert outcome.umi.instrumentation.traces_instrumented > 0


# -- trace ids ---------------------------------------------------------------

class RunTableProbe(RefConsumer):
    """A consumer that does not read trace ids; records what it got."""

    def __init__(self) -> None:
        self.events = 0
        self.tables = []

    def on_batch(self, batch) -> None:
        self.events += len(batch)
        self.tables.append((list(batch.trace_table), batch.trace_runs))


def test_ids_are_not_stamped_without_a_reader():
    stream = RefStream(batch_size=64)
    probe = stream.attach(RunTableProbe())
    program, _ = build_stream_program(n=128, reps=4)
    dynamo = DynamoSim(program, FlatMemory(),
                       config=RuntimeConfig(hot_threshold=5), stream=stream)
    stats = dynamo.run()
    stream.finish()
    assert stats.trace_entries > 100
    assert probe.events > 100
    assert stream.wants_trace_ids is False
    assert all(table == ([None], ((0, 0),)) for table in probe.tables)


#: Digest of every event's trace id in the chase run below, from the
#: runtime that stamped every pass.
PINNED_TRACE_IDS = "78262294842e9553"


def test_trace_ids_match_the_stamping_runtime():
    stream = RefStream(batch_size=64)
    collector = stream.attach(CollectingRefConsumer())
    program, _ = build_chase_program(n=64, reps=6)
    dynamo = DynamoSim(program, FlatMemory(),
                       config=RuntimeConfig(hot_threshold=3), stream=stream)
    dynamo.run()
    stream.finish()
    assert stream.wants_trace_ids is True
    assert digest(collector.trace_ids) == PINNED_TRACE_IDS


def test_wants_trace_ids_follows_attach_detach_and_proxy():
    stream = RefStream()
    tlb = stream.attach(TLBConsumer())
    assert stream.wants_trace_ids is False
    recorder = stream.attach(
        FaultyConsumerProxy(ProfileRecorderConsumer(), "profile-recorder",
                            fail_batch=10 ** 9))
    assert recorder.wants_trace_ids is True
    assert stream.wants_trace_ids is True
    stream.detach(recorder)
    assert stream.wants_trace_ids is False
    stream.detach(tlb)
    assert stream.consumers == []


def _quarantine_run(with_recorder):
    stream = RefStream(batch_size=64)
    tlb = stream.attach(TLBConsumer())
    probe = stream.attach(RunTableProbe())
    if with_recorder:
        stream.attach(FaultyConsumerProxy(
            ProfileRecorderConsumer(), "profile-recorder", fail_batch=5))
    program, _ = build_stream_program(n=256, reps=6)
    dynamo = DynamoSim(program, FlatMemory(),
                       config=RuntimeConfig(hot_threshold=5), stream=stream)
    stats = dynamo.run()
    stream.finish()
    return stream, tlb, probe, stats


def test_quarantining_the_only_id_reader_stops_stamping():
    stream, tlb, probe, stats = _quarantine_run(with_recorder=True)
    assert [record.stage for record in stream.quarantined] == ["on_batch"]
    assert stream.wants_trace_ids is False
    # The batches up to the fault (the fifth) carried ids.  After it
    # only the pass in flight keeps its id, until it exits.
    stamped = [len(table) > 1 for table, _ in probe.tables]
    assert all(stamped[:5]) and not any(stamped[6:])
    assert len(stamped) > 20
    # The surviving consumers saw exactly what they see without it.
    clean_stream, clean_tlb, clean_probe, clean_stats = \
        _quarantine_run(with_recorder=False)
    assert tlb.summary() == clean_tlb.summary()
    assert probe.events == clean_probe.events
    assert vars(stats) == vars(clean_stats)
