"""Differential contract: compiled blocks vs the reference interpreter.

:class:`repro.vm.Interpreter` compiles each basic block into one
straight-line Python function; :class:`repro.vm.reference.
ReferenceInterpreter` is the tuple-dispatch loop it replaced.  Both
must leave bit-identical machine state (registers, memory, flags,
cycles, steps, halted flag, call stack, last terminator), hierarchy
counters, address-profile rows and reference-stream columns -- batch
boundaries and trace-id runs included -- on:

* hypothesis-generated control-flow graphs over every opcode, all ten
  ALU operations (register and immediate forms) and all six condition
  codes, with a dead block holding an unknown opcode, and accesses of
  1 to 16 bytes that may straddle a line;
* flat memory and cache hierarchies with an instruction cache under
  LRU, bit-PLRU (every preset machine's policy) and FIFO, and a PLRU
  hierarchy with a line-stream consumer -- the compiled blocks' inline
  L1 hit lanes run on every hierarchy, and must leave the same cache
  columns, stats and line events as ``access``/``fetch`` calls;
* no stream, a stream, and a stream with an ifetch-wanting consumer;
* with and without an instrumentation context (profile columns and a
  software-prefetch map);
* native execution and :class:`~repro.vm.DynamoSim` trace execution;

and real workloads under every run mode, where the ``RuntimeStats``
and serialized payloads must match as well.  The lanes are also held
to the reference when the L1s are flushed and the stats reset
mid-run, and when a line consumer is attached after the interpreter
is built or mid-run.
"""

from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.runners as runners
import repro.vm.runtime as runtime
from repro.core import UMIConfig
from repro.isa import (
    ADD, AND, CC_EQ, CC_GE, CC_GT, CC_LE, CC_LT, CC_NE, DIV, MOD, MUL, OR,
    SHL, SHR, SUB, XOR, ProgramBuilder, mem,
)
from repro.isa.instructions import Instruction
from repro.memory import CacheConfig, MachineConfig, MemoryHierarchy
from repro.memory.configs import get_machine
from repro.memory.flat import FlatMemory
from repro.serialize import outcome_to_dict
from repro.stream import CollectingRefConsumer, LineConsumer, RefStream
from repro.vm import (
    CostModel, DEFAULT_COST_MODEL, DynamoSim, ExecutionLimitExceeded,
    Interpreter, RuntimeConfig, RuntimeHooks,
)
from repro.vm.reference import ReferenceInterpreter
from repro.workloads import get_workload

ALU_OPS = [ADD, SUB, MUL, AND, OR, XOR, SHL, SHR, MOD, DIV]
CCS = [CC_EQ, CC_NE, CC_LT, CC_LE, CC_GT, CC_GE]

#: The buffer base lives in BASE, which generated code never writes;
#: esp (6) and ebp (7) are left to the stack.
BASE = 15
SCRATCH = [0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13, 14]
BUFFER_BYTES = 1024
UNKNOWN_OPCODE = 99
MAX_STEPS = 600
EDGE_MAX_STEPS = 200_000

MACHINE = MachineConfig(
    name="diff-i",
    l1=CacheConfig(size=256, assoc=2, line_size=64, hit_latency=1),
    l2=CacheConfig(size=2048, assoc=4, line_size=64, hit_latency=8),
    memory_latency=50,
    l1i=CacheConfig(size=128, assoc=2, line_size=64, hit_latency=1),
)

#: Memory systems: flat memory, ``MACHINE`` (LRU), then ``MACHINE``
#: under PLRU and FIFO; ``plru-lines`` also has a line-stream consumer.
MEMORIES = ["flat", "hierarchy", "plru", "fifo", "plru-lines"]

# -- program generation -------------------------------------------------------

_reg = st.sampled_from(SCRATCH)
_imm = st.one_of(st.integers(-8, 70), st.integers(-(1 << 64), 1 << 64))
_memop = st.tuples(
    st.sampled_from([BASE, BASE, None] + SCRATCH),   # base
    st.one_of(st.none(), _reg),                      # index
    st.sampled_from([1, 2, 4, 8]),                   # scale
    st.integers(-64, BUFFER_BYTES),                  # disp
    st.sampled_from([1, 4, 8, 16]),                  # size
)
_body_op = st.one_of(
    st.tuples(st.just("load"), _reg, _memop),
    st.tuples(st.just("store"), st.one_of(st.none(), _reg), _imm, _memop),
    st.tuples(st.just("lea"), _reg, _memop),
    st.tuples(st.just("alu"), st.sampled_from(ALU_OPS), _reg, _reg),
    st.tuples(st.just("alu_imm"), st.sampled_from(ALU_OPS), _reg, _imm),
    st.tuples(st.just("cmp"), _reg, _reg),
    st.tuples(st.just("cmp_imm"), _reg, _imm),
    st.tuples(st.just("mov"), _reg, _reg),
    st.tuples(st.just("mov_imm"), _reg, _imm),
    st.tuples(st.just("work"), st.integers(1, 40)),
    st.tuples(st.just("nop")),
)
_target = st.integers(0, 63)   # reduced modulo the block count
_terminator = st.one_of(
    st.tuples(st.just("jcc"), st.sampled_from(CCS), _target, _target),
    st.tuples(st.just("jmp"), _target),
    st.tuples(st.just("switch"), _reg,
              st.lists(_target, min_size=1, max_size=4)),
    st.tuples(st.just("call"), _target, _target),
    st.tuples(st.just("ret")),
    st.tuples(st.just("halt")),
)
_block = st.tuples(st.lists(_body_op, max_size=8), _terminator)
PROGRAMS = st.lists(_block, min_size=1, max_size=6)


def _memory_operand(spec):
    base, index, scale, disp, _size = spec
    return mem(base=base, index=index, scale=scale if index is not None
               else 1, disp=disp)


def build_program(blocks):
    """A program from generated blocks, plus a dead unknown-opcode block."""
    b = ProgramBuilder("diff")
    buf = b.data.alloc("buf", BUFFER_BYTES + 128)
    for i in range(0, BUFFER_BYTES, 8):
        b.data.write_word(buf + i, (i * 0x9E3779B97F4A7C15) & 0xFFFF)
    labels = [f"b{i}" for i in range(len(blocks))]

    def label(n):
        return labels[n % len(labels)]

    entry = b.block("entry")
    entry.mov_imm(BASE, buf)
    entry.jmp(labels[0])
    for name, (body, term) in zip(labels, blocks):
        blk = b.block(name)
        for op in body:
            kind = op[0]
            if kind == "load":
                blk.load(op[1], _memory_operand(op[2]), size=op[2][4])
            elif kind == "store":
                blk.store(_memory_operand(op[3]), op[1], imm=op[2],
                          size=op[3][4])
            elif kind == "lea":
                blk.lea(op[1], _memory_operand(op[2]))
            elif kind == "alu":
                blk.alu(op[1], op[2], op[3])
            elif kind == "alu_imm":
                blk.alu_imm(op[1], op[2], op[3])
            elif kind == "cmp":
                blk.cmp(op[1], op[2])
            elif kind == "cmp_imm":
                blk.cmp_imm(op[1], op[2])
            elif kind == "mov":
                blk.mov(op[1], op[2])
            elif kind == "mov_imm":
                blk.mov_imm(op[1], op[2])
            elif kind == "work":
                blk.work(op[1])
            else:
                blk.nop()
        kind = term[0]
        if kind == "jcc":
            blk.jcc(term[1], label(term[2]), label(term[3]))
        elif kind == "jmp":
            blk.jmp(label(term[1]))
        elif kind == "switch":
            blk.switch(term[1], [label(t) for t in term[2]])
        elif kind == "call":
            blk.call(label(term[1]), label(term[2]))
        elif kind == "ret":
            blk.ret()
        else:
            blk.halt()
    dead = b.block("dead")
    dead._emit(Instruction(UNKNOWN_OPCODE))
    dead.halt()
    return b.build(entry="entry")


# -- observation ----------------------------------------------------------------

class BatchRecorder(CollectingRefConsumer):
    """Collects every column plus each batch's size and trace runs."""

    def __init__(self, wants_ifetch: bool = False) -> None:
        super().__init__()
        self.wants_ifetch = wants_ifetch
        self.batches = []

    def on_batch(self, batch) -> None:
        super().on_batch(batch)
        self.batches.append((len(batch), list(batch.iter_runs())))


class LineRecorder(LineConsumer):
    """Collects every line-event column."""

    def __init__(self) -> None:
        self.columns = ([], [], [], [], [])

    def on_line_batch(self, batch) -> None:
        for column, values in zip(self.columns, (
                batch.pcs, batch.line_addrs, batch.writes, batch.l1_hits,
                batch.l2_hits)):
            column.extend(values)


def make_memory(memory):
    """``(memory system, line recorder or None)`` for a ``MEMORIES``
    name."""
    if memory == "flat":
        return FlatMemory(latency=3), None
    machine = MACHINE
    if memory != "hierarchy":
        machine = replace(MACHINE, replacement=memory.split("-")[0])
    memsys = MemoryHierarchy(machine)
    lines = None
    if memory.endswith("-lines"):
        lines = memsys.line_stream.attach(LineRecorder())
    return memsys, lines


def cache_state(cache):
    """A cache's stats and every column the hierarchy or a lane writes
    (``_plain`` only steers ``access_many`` and is left out)."""
    return (vars(cache.stats), dict(cache._where), list(cache._tags),
            list(cache._stamps), list(cache._order), list(cache._mru),
            list(cache._dirty), list(cache._set_len))


def observe(interp, memsys, recorder, outcome, lines=None):
    """Everything a run leaves behind that the two interpreters share."""
    state = interp.state
    context = interp.context
    seen = {
        "outcome": outcome,
        "regs": list(state.regs),
        "memory": dict(state.memory),
        "flags": state.flags,
        "cycles": state.cycles,
        "steps": state.steps,
        "halted": state.halted,
        "call_stack": list(state.call_stack),
        "last_terminator_op": context.last_terminator_op,
        "profile_row": (list(context.profile_row)
                        if context.profile_row is not None else None),
    }
    if isinstance(memsys, MemoryHierarchy):
        seen["counters"] = memsys.counters_snapshot()
        seen["caches"] = [cache_state(cache) for cache in
                          (memsys.l1, memsys.l2, memsys.l1i)]
        memsys.line_stream.finish()
        if lines is not None:
            seen["lines"] = lines.columns
    else:
        seen["memsys"] = (memsys.accesses, memsys.sw_prefetches_issued)
    if recorder is not None:
        seen["stream"] = (recorder.pcs, recorder.addrs, recorder.sizes,
                          recorder.kinds, recorder.cycles,
                          recorder.trace_ids, recorder.batches)
    return seen


@contextmanager
def interpreter_class(cls):
    """Every runtime and run mode builds ``cls`` interpreters."""
    with mock.patch.object(runtime, "Interpreter", cls), \
            mock.patch.object(runners, "Interpreter", cls):
        yield


def memory_pcs(program):
    loads, stores = [], []
    for ins in program.iter_instructions():
        if ins.is_load():
            loads.append(ins.pc)
        elif ins.is_store():
            stores.append(ins.pc)
    return loads, stores


def run_one(cls, program, memory, stream_kind, instrumented, driver,
            cost_model=DEFAULT_COST_MODEL, max_steps=MAX_STEPS):
    memsys, lines = make_memory(memory)
    recorder = stream = None
    if stream_kind != "none":
        # A small batch exercises drain boundaries mid-block.
        stream = RefStream(batch_size=7)
        recorder = stream.attach(
            BatchRecorder(wants_ifetch=stream_kind == "ifetch"))
    with interpreter_class(cls):
        if driver == "dynamo":
            dynamo = DynamoSim(program, memsys,
                               config=RuntimeConfig(hot_threshold=2,
                                                    max_trace_blocks=4,
                                                    max_steps=max_steps),
                               cost_model=cost_model, stream=stream)
            interp = dynamo.interp
        else:
            interp = cls(program, memsys, cost_model, stream=stream)
    if instrumented:
        loads, stores = memory_pcs(program)
        profiled = (loads + stores)[::2]
        context = interp.context
        context.profile_cols = {pc: i for i, pc in enumerate(profiled)}
        context.profile_row = [None] * len(profiled)
        context.prefetch_map = {pc: 128 for pc in loads[1::2]}
    try:
        if driver == "dynamo":
            stats = dynamo.run()
            outcome = ("ok", vars(stats))
        else:
            interp.run_native(max_steps=max_steps)
            outcome = ("ok", None)
    except (ExecutionLimitExceeded, ValueError) as exc:
        outcome = (type(exc).__name__, str(exc))
    if stream is not None:
        stream.finish()
    return observe(interp, memsys, recorder, outcome, lines)


@settings(max_examples=120, deadline=None)
@given(blocks=PROGRAMS,
       memory=st.sampled_from(MEMORIES),
       stream_kind=st.sampled_from(["none", "stream", "ifetch"]),
       instrumented=st.booleans(),
       driver=st.sampled_from(["native", "dynamo"]))
def test_generated_programs_match_reference(blocks, memory, stream_kind,
                                            instrumented, driver):
    program = build_program(blocks)
    compiled = run_one(Interpreter, program, memory, stream_kind,
                       instrumented, driver)
    reference = run_one(ReferenceInterpreter, program, memory,
                        stream_kind, instrumented, driver)
    assert compiled == reference


@pytest.mark.parametrize("memory", MEMORIES)
@pytest.mark.parametrize("stream_kind", ["none", "stream", "ifetch"])
@pytest.mark.parametrize("instrumented", [False, True])
@pytest.mark.parametrize("driver", ["native", "dynamo"])
def test_matrix_on_a_fixed_program(memory, stream_kind, instrumented,
                                   driver):
    """Every axis on one program that loops, calls, switches and
    touches memory, so no combination depends on hypothesis's draw."""
    body = [("load", 0, (BASE, 1, 8, 0, 8)),
            ("store", 0, 0, (BASE, 1, 8, 512, 8)),
            ("alu_imm", ADD, 1, 1), ("alu_imm", AND, 1, 31),
            ("alu", MUL, 2, 1), ("cmp_imm", 1, 17)]
    blocks = [
        (body, ("jcc", CC_NE, 1, 2)),
        ([("alu_imm", SHR, 3, 1), ("lea", 4, (BASE, 3, 4, 8, 8))],
         ("call", 3, 0)),
        ([("work", 5)], ("switch", 1, [0, 1, 3])),
        ([("alu_imm", SUB, 5, 1), ("load", 5, (BASE, None, 1, 40, 4))],
         ("ret",)),
    ]
    program = build_program(blocks)
    compiled = run_one(Interpreter, program, memory, stream_kind,
                       instrumented, driver)
    reference = run_one(ReferenceInterpreter, program, memory,
                        stream_kind, instrumented, driver)
    assert compiled == reference
    assert compiled["steps"] > 100


# -- the inline L1 hit lanes ----------------------------------------------------

#: A loop whose accesses straddle lines at some iterations (8 bytes at
#: +60, 4 at +126) and always (16 bytes), then a call and a return.
#: Every fourth pass takes a detour through a block on a code line of
#: its own, so the loop's code spans three lines of the two-line L1I
#: and the instruction lane meets hits on lines that are not MRU.
LANE_BLOCKS = [
    ([("load", 0, (BASE, 1, 8, 0, 8)),
      ("load", 2, (BASE, 1, 8, 60, 8)),
      ("store", 0, 0, (BASE, 1, 4, 126, 4)),
      ("load", 3, (BASE, None, 1, 56, 16)),
      ("store", None, 7, (BASE, 1, 8, 512, 8)),
      ("alu_imm", ADD, 1, 1), ("alu_imm", AND, 1, 63),
      ("mov", 5, 1), ("alu_imm", AND, 5, 3),
      ("cmp_imm", 5, 0)], ("jcc", CC_EQ, 4, 5)),
    ([("work", 3)], ("call", 2, 3)),
    ([("load", 4, (BASE, None, 1, 8, 8))], ("ret",)),
    ([], ("halt",)),
    ([("nop",)] * 3, ("jmp", 5)),
    ([("cmp_imm", 1, 0)], ("jcc", CC_NE, 0, 1)),
]


class MidRun(RuntimeHooks):
    """Runs ``action(memsys, tick)`` at every timer tick."""

    def __init__(self, memsys, action) -> None:
        self.memsys = memsys
        self.action = action
        self.ticks = 0

    def timer_sample(self, trace) -> None:
        self.ticks += 1
        self.action(self.memsys, self.ticks)


def run_lanes(cls, memory, action=None, attach_late=False):
    """Run ``LANE_BLOCKS`` natively (``action`` after every fifth
    block) and under DynamoSim (``action`` at every timer tick);
    ``attach_late`` attaches a line recorder after the interpreter is
    built."""
    program = build_program(LANE_BLOCKS)
    seen = []
    for driver in ("native", "dynamo"):
        memsys, lines = make_memory(memory)
        hooks = MidRun(memsys, action) if action else None
        with interpreter_class(cls):
            dynamo = DynamoSim(program, memsys, hooks=hooks, config=(
                RuntimeConfig(hot_threshold=2, max_trace_blocks=4,
                              sample_period=150)))
        interp = dynamo.interp
        if attach_late:
            lines = memsys.line_stream.attach(LineRecorder())
        if driver == "dynamo":
            outcome = vars(dynamo.run())
        else:
            interp.bind_lanes()
            label, blocks = program.entry, 0
            while label is not None:
                label = interp.execute_block(label)
                blocks += 1
                if action and blocks % 5 == 0:
                    action(memsys, blocks // 5)
            outcome = None
        seen.append(observe(interp, memsys, None, outcome, lines))
        if action:
            assert (hooks.ticks if driver == "dynamo" else blocks) > 5
    return seen


def flush_and_reset(memsys, tick):
    memsys.l1.flush()
    memsys.l1i.flush()
    if tick % 3 == 0:
        memsys.reset_stats()


@pytest.mark.parametrize("memory", MEMORIES[1:] + ["random"])
def test_lanes_match_reference_across_flushes_and_resets(memory):
    """Mid-run ``flush()`` (which rebinds ``_tags``/``_set_len``) and
    ``reset_stats()`` stay visible to bound blocks, straddles included."""
    compiled = run_lanes(Interpreter, memory, flush_and_reset)
    assert compiled == run_lanes(ReferenceInterpreter, memory,
                                 flush_and_reset)


def test_line_consumer_attached_late_sees_every_event():
    """A line consumer attached after the interpreter is built, or
    mid-run, sees the same line events -- L1 hits included -- as under
    the reference interpreter."""
    compiled = run_lanes(Interpreter, "plru", attach_late=True)
    assert compiled == run_lanes(ReferenceInterpreter, "plru",
                                 attach_late=True)
    assert compiled[0]["lines"][3].count(True) > 100

    seen = {}
    for cls in (Interpreter, ReferenceInterpreter):
        recorders = []

        def attach(memsys, tick):
            if tick == 2:
                recorders.append(
                    memsys.line_stream.attach(LineRecorder()))

        seen[cls] = (run_lanes(cls, "plru", attach),
                     [recorder.columns for recorder in recorders])
    assert seen[Interpreter] == seen[ReferenceInterpreter]
    assert all(columns[3].count(True) > 50
               for columns in seen[Interpreter][1])


@pytest.mark.parametrize("memory,lanes_open", [
    ("hierarchy", True), ("plru", True), ("fifo", True),
    ("plru-lines", False),
])
def test_lanes_serve_l1_hits_inline(memory, lanes_open):
    """With the lanes open, most L1 hits never call ``access`` or
    ``fetch``; a line consumer closes the data lane, so every data
    reference calls ``access``."""
    calls = {"access": 0, "fetch": 0}

    def counting(name):
        method = getattr(MemoryHierarchy, name)

        def counted(self, *args):
            calls[name] += 1
            return method(self, *args)
        return counted

    program = build_program(LANE_BLOCKS)
    memsys, _ = make_memory(memory)
    stream = RefStream()
    recorder = stream.attach(CollectingRefConsumer())
    with mock.patch.object(MemoryHierarchy, "access", counting("access")), \
            mock.patch.object(MemoryHierarchy, "fetch", counting("fetch")):
        Interpreter(program, memsys, stream=stream).run_native()
    stream.finish()
    references = len(recorder.pcs)
    # Straddles touch two lines, so the L1D counts more lines than
    # there were references.
    assert memsys.l1.stats.refs > references
    if lanes_open:
        assert calls["access"] < references // 2
        assert calls["fetch"] < memsys.l1i.stats.refs // 2
    else:
        assert calls["access"] == references


#: Operand values around every edge the ALU and flags care about;
#: negative and oversized ones reach registers only through memory.
EDGE_VALUES = [0, 1, 7, 63, 64, 65, -1, -70, (1 << 63), (1 << 64) - 1,
               1 << 64]


def _edge_program(emit_case):
    """One block per case: load operands, run the case, store r2."""
    b = ProgramBuilder("edges")
    cases = [(x, y) for x in EDGE_VALUES for y in EDGE_VALUES]
    src = b.data.alloc("src", 8 * len(EDGE_VALUES))
    for i, value in enumerate(EDGE_VALUES):
        b.data.write_word(src + 8 * i, value)
    out = b.data.alloc("out", 8 * 64 * len(cases))
    blocks = []
    for n, (x, y) in enumerate(cases):
        blocks.append((n, EDGE_VALUES.index(x), EDGE_VALUES.index(y), y))
    entry = b.block("entry")
    entry.mov_imm(BASE, src)
    entry.mov_imm(14, out)
    entry.jmp("case0")
    for n, xi, yi, y in blocks:
        blk = b.block(f"case{n}")
        blk.load(0, mem(base=BASE, disp=8 * xi))
        blk.load(1, mem(base=BASE, disp=8 * yi))
        emit_case(b, blk, n, y)
    b.block(f"case{len(blocks)}").halt()
    return b.build(entry="entry")


def _alu_cases(b, blk, n, y):
    for k, aluop in enumerate(ALU_OPS):
        for form in (0, 1):
            slot = 8 * (64 * n + 2 * k + form)
            blk.mov(2, 0)
            if form:
                blk.alu_imm(aluop, 2, y)
            else:
                blk.alu(aluop, 2, 1)
            blk.store(mem(base=14, disp=slot), 2)
    blk.jmp(f"case{n + 1}")


def _cc_cases(b, blk, n, y):
    """Every condition code after a register and an immediate compare,
    read in the compare's block and in a later one."""
    blk.jmp(f"c{n}_0")
    step = 0
    for cc in CCS:
        for form in (0, 1):
            for same_block in (True, False):
                here = b.block(f"c{n}_{step}")
                nxt = f"c{n}_{step + 1}"
                if form:
                    here.cmp_imm(0, y)
                else:
                    here.cmp(0, 1)
                if not same_block:
                    here.jmp(f"c{n}_{step}j")
                    here = b.block(f"c{n}_{step}j")
                slot = 8 * (64 * n + step)
                here.jcc(cc, f"c{n}_{step}t", f"c{n}_{step}f")
                for suffix, value in (("t", 1), ("f", 2)):
                    arm = b.block(f"c{n}_{step}{suffix}")
                    arm.store(mem(base=14, disp=slot), imm=value)
                    arm.jmp(nxt)
                step += 1
    b.block(f"c{n}_{step}").jmp(f"case{n + 1}")


@pytest.mark.parametrize("emit_case", [_alu_cases, _cc_cases],
                         ids=["alu", "cc"])
@pytest.mark.parametrize("driver", ["native", "dynamo"])
def test_every_alu_and_cc_form_matches_reference(emit_case, driver):
    """All ten ALU operations in both forms and all six condition codes
    on edge values (zero divisors, shifts past 63, negative and
    oversized operands, equal compares)."""
    program = _edge_program(emit_case)
    compiled = run_one(Interpreter, program, "flat", "none", False,
                       driver, max_steps=EDGE_MAX_STEPS)
    reference = run_one(ReferenceInterpreter, program, "flat", "none",
                        False, driver, max_steps=EDGE_MAX_STEPS)
    assert compiled == reference
    assert compiled["outcome"][0] == "ok"


class PricedUnknownOpcodes(CostModel):
    """Prices unknown opcodes, so execution (not decoding) meets them."""

    def instruction_cost(self, op, aluop=ADD):
        if op == UNKNOWN_OPCODE:
            return 4
        return super().instruction_cost(op, aluop)


@pytest.mark.parametrize("cost_model", [DEFAULT_COST_MODEL,
                                        PricedUnknownOpcodes()])
def test_live_unknown_opcode_fails_like_reference(cost_model):
    """A reached unknown opcode raises the same error after the same
    side effects; earlier instructions of its block keep theirs."""
    b = ProgramBuilder("bad")
    buf = b.data.alloc("buf", 64)
    entry = b.block("entry")
    entry.mov_imm(BASE, buf)
    entry.jmp("bad")
    bad = b.block("bad")
    bad.mov_imm(0, 7)
    bad.store(mem(base=BASE), 0)
    bad._emit(Instruction(UNKNOWN_OPCODE))
    bad.halt()
    program = b.build(entry="entry")
    results = [run_one(cls, program, "hierarchy", "stream", False,
                       "native", cost_model=cost_model)
               for cls in (Interpreter, ReferenceInterpreter)]
    assert results[0] == results[1]
    kind, message = results[0]["outcome"]
    assert kind == "ValueError"
    assert "unknown opcode 99" in message
    if cost_model is not DEFAULT_COST_MODEL:
        assert message.endswith(f"at pc {program.blocks['bad'].base_pc + 8:#x}")
        assert results[0]["memory"][buf] == 7


# -- real workloads under every run mode ----------------------------------------

REAL = ["181.mcf", "em3d", "171.swim"]

MODES = [
    ("native", {"with_cachegrind": True, "counter_sample_size": 64,
                "consumers": ("shadow-hwpf", "tlb")}),
    ("dynamo", {"consumers": ("profile-recorder",)}),
    ("umi", {"with_cachegrind": True}),
    ("umi", {"umi_config": UMIConfig(enable_sw_prefetch=True),
             "hw_prefetch": True, "consumers": ("profile-recorder",)}),
    ("umi", {"umi_config": UMIConfig(use_sampling=True,
                                     frequency_threshold=4)}),
]


def _real_run(cls, workload, mode, kwargs):
    program = get_workload(workload).build(0.05)
    machine = get_machine("pentium4")
    with interpreter_class(cls):
        outcome = runners.run_mode(mode, program, machine, **kwargs)
    return outcome.runtime_stats, outcome_to_dict(outcome)


@pytest.mark.parametrize("workload", REAL)
@pytest.mark.parametrize("mode,kwargs", MODES)
def test_real_workloads_match_reference(workload, mode, kwargs):
    compiled = _real_run(Interpreter, workload, mode, kwargs)
    reference = _real_run(ReferenceInterpreter, workload, mode, kwargs)
    assert compiled == reference
    assert compiled[1]["steps"] > 1000


def test_code_cache_is_shared_and_bounded(monkeypatch):
    """Interpreters share one code object per distinct block, and the
    cache drops its oldest entries past its limit without changing
    results."""
    import repro.vm.compiler as compiler

    monkeypatch.setattr(compiler, "_CODE_CACHE", {})
    program = build_program([([("alu_imm", ADD, 0, 1)], ("halt",))])
    first = Interpreter(program, FlatMemory())
    second = Interpreter(program, FlatMemory())
    assert (first.block_function("b0").__code__
            is second.block_function("b0").__code__)

    monkeypatch.setattr(compiler, "CODE_CACHE_LIMIT", 2)
    for imm in range(5):
        program = build_program([([("alu_imm", ADD, 0, imm)], ("halt",))])
        compiled = run_one(Interpreter, program, "flat", "none", False,
                           "native")
        reference = run_one(ReferenceInterpreter, program, "flat", "none",
                            False, "native")
        assert compiled == reference
        assert compiled["regs"][0] == imm
        assert len(compiler._CODE_CACHE) <= 2


def test_compiled_blocks_are_named_after_their_labels(monkeypatch):
    """Each block's code carries its label as ``co_name`` (so profilers
    show one row per block); identical bodies under different labels
    get their own code objects, and rebinding reuses the cached one."""
    import cProfile
    import pstats

    import repro.vm.compiler as compiler

    monkeypatch.setattr(compiler, "_CODE_CACHE", {})
    body = [("alu_imm", ADD, 0, 1)]
    program = build_program([(body, ("halt",)), (body, ("halt",))])
    interp = Interpreter(program, FlatMemory())
    b0, b1 = interp.block_function("b0"), interp.block_function("b1")
    assert (b0.__code__.co_name, b1.__code__.co_name) == ("b0", "b1")
    assert b0.__code__.co_code == b1.__code__.co_code
    assert b0.__code__ is not b1.__code__
    assert (Interpreter(program, FlatMemory()).block_function("b0")
            .__code__ is b0.__code__)

    profiler = cProfile.Profile()
    profiler.runcall(Interpreter(program, FlatMemory()).run_native)
    names = {name for filename, _, name in pstats.Stats(profiler).stats
             if filename == "<compiled block>"}
    assert {"entry", "b0"} <= names
