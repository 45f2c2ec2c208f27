"""Interpreter semantics: every opcode, flags, calls, and accounting."""

import pytest

from repro.isa import (
    ADD, AND, CC_EQ, CC_GE, CC_GT, CC_LE, CC_LT, CC_NE, DIV, EAX, EBX,
    ECX, EDX, ESI, ESP, MOD, MUL, OR, ProgramBuilder, R8, SHL, SHR,
    STACK_BASE, SUB, XOR, mem,
)
from repro.memory.flat import FlatMemory
from repro.vm import ExecutionLimitExceeded, Interpreter

U64 = (1 << 64) - 1


def run_blocks(build_fn, entry="main", **interp_kwargs):
    b = ProgramBuilder("t")
    build_fn(b)
    program = b.build(entry=entry)
    interp = Interpreter(program, FlatMemory(), **interp_kwargs)
    interp.run_native()
    return interp


class TestDataMovement:
    def test_mov_imm_and_reg(self):
        def build(b):
            blk = b.block("main")
            blk.mov_imm(EAX, 42)
            blk.mov(EBX, EAX)
            blk.halt()
        interp = run_blocks(build)
        assert interp.state.regs[EAX] == 42
        assert interp.state.regs[EBX] == 42

    def test_load_from_data_segment(self):
        def build(b):
            addr = b.data.alloc_array("a", 2, elem_size=8, init=[10, 20])
            blk = b.block("main")
            blk.mov_imm(ESI, addr)
            blk.load(EAX, mem(base=ESI, disp=8))
            blk.halt()
        interp = run_blocks(build)
        assert interp.state.regs[EAX] == 20

    def test_store_then_load_round_trip(self):
        def build(b):
            addr = b.data.alloc("buf", 64)
            blk = b.block("main")
            blk.mov_imm(ESI, addr)
            blk.mov_imm(EAX, 77)
            blk.store(mem(base=ESI, disp=16), EAX)
            blk.load(EBX, mem(base=ESI, disp=16))
            blk.halt()
        interp = run_blocks(build)
        assert interp.state.regs[EBX] == 77

    def test_store_immediate(self):
        def build(b):
            addr = b.data.alloc("buf", 8)
            blk = b.block("main")
            blk.mov_imm(ESI, addr)
            blk.store(mem(base=ESI), src=None, imm=123)
            blk.load(EAX, mem(base=ESI))
            blk.halt()
        interp = run_blocks(build)
        assert interp.state.regs[EAX] == 123

    def test_load_uninitialized_memory_is_zero(self):
        def build(b):
            blk = b.block("main")
            blk.mov_imm(ESI, 0x3000_0000)
            blk.load(EAX, mem(base=ESI))
            blk.halt()
        interp = run_blocks(build)
        assert interp.state.regs[EAX] == 0

    def test_lea_computes_address_without_memory(self):
        def build(b):
            blk = b.block("main")
            blk.mov_imm(ESI, 0x1000)
            blk.mov_imm(ECX, 3)
            blk.lea(EAX, mem(base=ESI, index=ECX, scale=8, disp=4))
            blk.halt()
        memsys = FlatMemory()
        b = ProgramBuilder("t")
        build(b)
        program = b.build(entry="main")
        interp = Interpreter(program, memsys)
        interp.run_native()
        assert interp.state.regs[EAX] == 0x1000 + 24 + 4
        assert memsys.accesses == 0


class TestALU:
    @pytest.mark.parametrize("aluop,a,b,expected", [
        (ADD, 5, 3, 8),
        (SUB, 5, 3, 2),
        (MUL, 5, 3, 15),
        (AND, 0b1100, 0b1010, 0b1000),
        (OR, 0b1100, 0b1010, 0b1110),
        (XOR, 0b1100, 0b1010, 0b0110),
        (SHL, 1, 4, 16),
        (SHR, 16, 4, 1),
        (MOD, 17, 5, 2),
        (DIV, 17, 5, 3),
    ])
    def test_alu_rr(self, aluop, a, b, expected):
        def build(builder):
            blk = builder.block("main")
            blk.mov_imm(EAX, a)
            blk.mov_imm(EBX, b)
            blk.alu(aluop, EAX, EBX)
            blk.halt()
        interp = run_blocks(build)
        assert interp.state.regs[EAX] == expected

    def test_alu_results_mask_to_64_bits(self):
        def build(b):
            blk = b.block("main")
            blk.mov_imm(EAX, U64)
            blk.alu_imm(ADD, EAX, 1)
            blk.halt()
        interp = run_blocks(build)
        assert interp.state.regs[EAX] == 0

    def test_mul_wraps(self):
        def build(b):
            blk = b.block("main")
            blk.mov_imm(EAX, 1 << 63)
            blk.alu_imm(MUL, EAX, 2)
            blk.halt()
        interp = run_blocks(build)
        assert interp.state.regs[EAX] == 0

    def test_div_and_mod_by_zero_treated_as_one(self):
        def build(b):
            blk = b.block("main")
            blk.mov_imm(EAX, 7)
            blk.mov_imm(EBX, 0)
            blk.alu(DIV, EAX, EBX)
            blk.mov_imm(ECX, 7)
            blk.alu(MOD, ECX, EBX)
            blk.halt()
        interp = run_blocks(build)
        assert interp.state.regs[EAX] == 7
        assert interp.state.regs[ECX] == 0

    def test_shift_amount_masked_to_63(self):
        def build(b):
            blk = b.block("main")
            blk.mov_imm(EAX, 1)
            blk.alu_imm(SHL, EAX, 64)  # 64 & 63 == 0
            blk.halt()
        interp = run_blocks(build)
        assert interp.state.regs[EAX] == 1


class TestControlFlow:
    @pytest.mark.parametrize("cc,a,b,taken", [
        (CC_EQ, 5, 5, True), (CC_EQ, 5, 6, False),
        (CC_NE, 5, 6, True), (CC_NE, 5, 5, False),
        (CC_LT, 4, 5, True), (CC_LT, 5, 5, False),
        (CC_LE, 5, 5, True), (CC_LE, 6, 5, False),
        (CC_GT, 6, 5, True), (CC_GT, 5, 5, False),
        (CC_GE, 5, 5, True), (CC_GE, 4, 5, False),
    ])
    def test_jcc_conditions(self, cc, a, b, taken):
        def build(builder):
            main = builder.block("main")
            main.mov_imm(EAX, a)
            main.cmp_imm(EAX, b)
            main.jcc(cc, "yes", "no")
            builder.block("yes").mov_imm(EDX, 1).halt()
            builder.block("no").mov_imm(EDX, 2).halt()
        interp = run_blocks(build)
        assert interp.state.regs[EDX] == (1 if taken else 2)

    def test_switch_selects_by_modulo(self):
        def build(b):
            main = b.block("main")
            main.mov_imm(EAX, 7)  # 7 % 3 == 1
            main.switch(EAX, ["t0", "t1", "t2"])
            b.block("t0").mov_imm(EDX, 0).halt()
            b.block("t1").mov_imm(EDX, 1).halt()
            b.block("t2").mov_imm(EDX, 2).halt()
        interp = run_blocks(build)
        assert interp.state.regs[EDX] == 1

    def test_call_and_ret(self):
        def build(b):
            b.block("main").call("callee", return_to="after")
            callee = b.block("callee")
            callee.mov_imm(EAX, 9)
            callee.ret()
            b.block("after").mov(EBX, EAX).halt()
        interp = run_blocks(build)
        assert interp.state.regs[EBX] == 9
        assert interp.state.regs[ESP] == STACK_BASE  # balanced
        assert not interp.state.call_stack

    def test_call_pushes_on_machine_stack(self):
        def build(b):
            b.block("main").call("callee", return_to="after")
            b.block("callee").ret()
            b.block("after").halt()
        memsys = FlatMemory()
        b = ProgramBuilder("t")
        build(b)
        interp = Interpreter(b.build(entry="main"), memsys)
        interp.run_native()
        assert memsys.accesses == 2  # one push, one pop

    def test_ret_with_empty_stack_halts(self):
        def build(b):
            b.block("main").ret()
        interp = run_blocks(build)
        assert interp.state.halted

    def test_nested_calls(self):
        def build(b):
            b.block("main").call("f", return_to="end")
            b.block("f").call("g", return_to="f_back")
            g = b.block("g")
            g.mov_imm(EAX, 5)
            g.ret()
            fb = b.block("f_back")
            fb.alu_imm(ADD, EAX, 1)
            fb.ret()
            b.block("end").halt()
        interp = run_blocks(build)
        assert interp.state.regs[EAX] == 6


class TestAccounting:
    def test_steps_counted(self, stream_program):
        interp = Interpreter(stream_program, FlatMemory())
        interp.run_native()
        # 4 reps x 256 iterations x 5 loop instructions, plus overhead.
        assert interp.state.steps > 4 * 256 * 5

    def test_work_charges_cycles_but_one_step(self):
        def build(b):
            blk = b.block("main")
            blk.work(500)
            blk.halt()
        interp = run_blocks(build)
        assert interp.state.steps == 2  # work + halt
        assert interp.state.cycles >= 500

    def test_memory_latency_charged(self, tiny_machine):
        from repro.memory import MemoryHierarchy

        def build(b):
            addr = b.data.alloc("buf", 8)
            blk = b.block("main")
            blk.mov_imm(ESI, addr)
            blk.load(EAX, mem(base=ESI))
            blk.halt()
        b = ProgramBuilder("t")
        build(b)
        interp = Interpreter(b.build(entry="main"), MemoryHierarchy(tiny_machine))
        interp.run_native()
        # A cold load pays L1 + L2 + memory latency.
        assert interp.state.cycles >= tiny_machine.memory_latency

    def test_execution_limit_enforced(self):
        def build(b):
            blk = b.block("main")
            blk.mov_imm(EAX, 0)
            blk.jmp("spin")
            spin = b.block("spin")
            spin.alu_imm(ADD, EAX, 1)
            spin.jmp("spin")
        b = ProgramBuilder("t")
        build(b)
        interp = Interpreter(b.build(entry="main"), FlatMemory())
        with pytest.raises(ExecutionLimitExceeded):
            interp.run_native(max_steps=1000)

    def test_stream_sees_all_refs(self):
        from repro.stream import (
            KIND_IFETCH, KIND_WRITE, CollectingRefConsumer, RefStream,
        )

        def build(b):
            addr = b.data.alloc("buf", 16)
            blk = b.block("main")
            blk.mov_imm(ESI, addr)
            blk.load(EAX, mem(base=ESI))
            blk.store(mem(base=ESI, disp=8), EAX)
            blk.halt()
        b = ProgramBuilder("t")
        build(b)
        collector = CollectingRefConsumer()
        stream = RefStream()
        stream.attach(collector)
        interp = Interpreter(b.build(entry="main"), FlatMemory(),
                             stream=stream)
        interp.run_native()
        stream.finish()
        assert collector.finished
        refs = [(addr, kind == KIND_WRITE)
                for addr, kind in zip(collector.addrs, collector.kinds)
                if kind != KIND_IFETCH]
        assert len(refs) == 2
        assert refs[0][1] is False and refs[1][1] is True
        assert refs[1][0] == refs[0][0] + 8


class TestInstructionFetchModelling:
    def test_fetch_through_icache(self, tiny_machine_with_icache,
                                  stream_program):
        from repro.memory import MemoryHierarchy

        hier = MemoryHierarchy(tiny_machine_with_icache)
        interp = Interpreter(stream_program, hier)
        interp.run_native()
        assert hier.l1i is not None
        assert hier.l1i.stats.refs > 0
        # Code is tiny and hot: nearly all fetches hit the L1I.
        assert hier.l1i.stats.miss_ratio < 0.01

    def test_no_icache_means_no_fetch_traffic(self, tiny_machine,
                                              stream_program):
        from repro.memory import MemoryHierarchy

        hier = MemoryHierarchy(tiny_machine)
        interp = Interpreter(stream_program, hier)
        interp.run_native()
        assert hier.l1i is None
