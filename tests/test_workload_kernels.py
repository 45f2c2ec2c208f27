"""Execution-level tests for each workload kernel.

Each kernel is run standalone through the interpreter and checked for
(1) functional correctness where meaningful, and (2) the memory access
pattern it claims to generate (observed via a reference recorder).
"""

import pytest

from repro.isa import EDX, HEAP_BASE, ProgramBuilder
from repro.memory.flat import FlatMemory
from repro.stream import KIND_IFETCH, KIND_WRITE, RefConsumer, RefStream
from repro.vm import Interpreter
from repro.workloads.base import ProgramComposer
from repro.workloads.datagen import make_binary_tree, make_linked_list
from repro.workloads.kernels import (
    byte_copy, compute_loop, hash_probe, indirect_gather, pointer_chase,
    random_walk, saxpy, state_machine, stencil3, stream_sum, tree_sum,
)


class RefRecorder(RefConsumer):
    def __init__(self):
        self.refs = []

    def on_batch(self, batch):
        self.refs.extend(
            (pc, addr, kind == KIND_WRITE, size)
            for pc, addr, size, kind in zip(batch.pcs, batch.addrs,
                                            batch.sizes, batch.kinds)
            if kind != KIND_IFETCH)

    # The heap sits in [HEAP_BASE, STACK_TOP); stack/spill traffic
    # (esp/ebp) lives just below STACK_BASE and must be excluded.
    _HEAP_END = 0x7000_0000

    def heap_reads(self):
        return [(pc, a) for pc, a, w, _ in self.refs
                if not w and HEAP_BASE <= a < self._HEAP_END]

    def heap_writes(self):
        return [(pc, a) for pc, a, w, _ in self.refs
                if w and HEAP_BASE <= a < self._HEAP_END]


def run_kernel(kernel, data_setup=None, **params):
    c = ProgramComposer("k")
    extra = data_setup(c) if data_setup else {}
    c.add_phase("k", kernel, **{**params, **extra})
    program = c.build()
    recorder = RefRecorder()
    stream = RefStream()
    stream.attach(recorder)
    interp = Interpreter(program, FlatMemory(), stream=stream)
    interp.run_native()
    stream.finish()
    return interp, recorder, program


class TestStreamSum:
    def test_sums_the_array(self):
        def setup(c):
            base = c.data.alloc_array("a", 64, elem_size=8,
                                      init=lambda i: i)
            return {"base": base}
        interp, rec, _ = run_kernel(stream_sum, setup, n=64, reps=2)
        assert interp.state.regs[EDX] == 2 * sum(range(64))

    def test_sequential_access_pattern(self):
        def setup(c):
            return {"base": c.data.alloc_array("a", 32, elem_size=8,
                                               init=lambda i: i)}
        _, rec, _ = run_kernel(stream_sum, setup, n=32, reps=1, spills=0)
        addrs = [a for _, a in rec.heap_reads()]
        assert all(b - a == 8 for a, b in zip(addrs, addrs[1:]))

    def test_stride_in_elements(self):
        def setup(c):
            return {"base": c.data.alloc_array("a", 64, elem_size=8,
                                               init=lambda i: i)}
        _, rec, _ = run_kernel(stream_sum, setup, n=64, stride=8, reps=1,
                               spills=0)
        addrs = [a for _, a in rec.heap_reads()]
        assert len(addrs) == 8
        assert all(b - a == 64 for a, b in zip(addrs, addrs[1:]))

    def test_store_stream(self):
        def setup(c):
            return {
                "base": c.data.alloc_array("a", 16, elem_size=8,
                                           init=lambda i: i),
                "store_base": c.data.alloc_array("o", 16, elem_size=8),
            }
        _, rec, _ = run_kernel(stream_sum, setup, n=16, reps=1, spills=0)
        assert len(rec.heap_writes()) == 16

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            run_kernel(stream_sum, lambda c: {"base": HEAP_BASE}, n=0)


class TestSaxpy:
    def test_computes_3x_plus_y(self):
        def setup(c):
            x = c.data.alloc_array("x", 8, elem_size=8, init=lambda i: i)
            y = c.data.alloc_array("y", 8, elem_size=8, init=lambda i: 10)
            out = c.data.alloc_array("o", 8, elem_size=8)
            c._out = out
            return {"x_base": x, "y_base": y, "out_base": out}
        interp, _, _ = run_kernel(saxpy, setup, n=8, reps=1)
        values = [interp.state.memory.get(HEAP_BASE + 16 * 8 + i * 8)
                  for i in range(8)]
        assert values == [3 * i + 10 for i in range(8)]


class TestStencil3:
    def test_three_point_sum(self):
        rows, cols = 2, 8

        def setup(c):
            g = c.data.alloc_array("g", rows * cols, elem_size=8,
                                   init=lambda i: i)
            out = c.data.alloc_array("go", rows * cols, elem_size=8)
            return {"in_base": g, "out_base": out}
        interp, _, program = run_kernel(stencil3, setup, rows=rows,
                                        cols=cols, reps=1)
        out_base = program.data.symbols["go"]
        for r in range(rows):
            for col in range(1, cols - 1):
                i = r * cols + col
                assert interp.state.memory[out_base + i * 8] == \
                    (i - 1) + i + (i + 1)

    def test_requires_three_columns(self):
        with pytest.raises(ValueError):
            run_kernel(stencil3, lambda c: {"in_base": HEAP_BASE,
                                            "out_base": HEAP_BASE},
                       rows=1, cols=2)


class TestPointerChase:
    def test_visits_every_node(self):
        def setup(c):
            head = make_linked_list(c.builder, "l", 16, shuffled=True,
                                    seed=2)
            return {"head": head}
        interp, _, _ = run_kernel(pointer_chase, setup, reps=3)
        # Values 0..15 summed, three times.
        assert interp.state.regs[EDX] == 3 * sum(range(16))

    def test_chase_addresses_follow_pointers(self):
        def setup(c):
            head = make_linked_list(c.builder, "l", 8, shuffled=True,
                                    seed=4)
            return {"head": head}
        _, rec, _ = run_kernel(pointer_chase, setup, reps=1,
                               read_value=False)
        addrs = [a for _, a in rec.heap_reads()]
        assert len(set(addrs)) == 8  # each node touched exactly once


class TestRandomWalk:
    def test_stays_in_bounds(self):
        def setup(c):
            return {"base": c.data.alloc_array("a", 64, elem_size=8,
                                               init=lambda i: i)}
        _, rec, _ = run_kernel(random_walk, setup, n_elems=64, steps=200,
                               spills=0)
        reads = [a for _, a in rec.heap_reads()]
        assert len(reads) == 200
        assert all(HEAP_BASE <= a < HEAP_BASE + 64 * 8 for a in reads)

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            run_kernel(random_walk, lambda c: {"base": HEAP_BASE},
                       n_elems=100, steps=10)


class TestIndirectGather:
    def test_gathers_through_index(self):
        def setup(c):
            data = c.data.alloc_array("d", 32, elem_size=8,
                                      init=lambda i: i * 100)
            idx = c.data.alloc_array("i", 8, elem_size=8,
                                     init=[3, 1, 4, 1, 5, 9, 2, 6])
            return {"idx_base": idx, "data_base": data}
        interp, _, _ = run_kernel(indirect_gather, setup, n=8, reps=1)
        assert interp.state.regs[EDX] == 100 * (3 + 1 + 4 + 1 + 5 + 9 + 2 + 6)


class TestByteCopy:
    def test_copies_bytes(self):
        def setup(c):
            src = c.data.alloc("src", 32)
            dst = c.data.alloc("dst", 32)
            for i in range(32):
                c.data.write_word(src + i, i * 3)
            return {"src": src, "dst": dst}
        interp, rec, program = run_kernel(byte_copy, setup, nbytes=32,
                                          reps=1)
        dst = program.data.symbols["dst"]
        src = program.data.symbols["src"]
        for i in range(32):
            assert interp.state.memory.get(dst + i) == \
                interp.state.memory.get(src + i, i * 3)
        # Byte-granularity accesses.
        assert all(s == 1 for _, _, _, s in rec.refs
                   if _ is not None and s != 8)


class TestHashProbe:
    def test_probe_count(self):
        def setup(c):
            return {"table_base": c.data.alloc_array(
                "t", 64, elem_size=8, init=lambda i: i)}
        _, rec, _ = run_kernel(hash_probe, setup, table_elems=64,
                               probes=50, spills=0)
        # At least one read per probe; extra reads on even (hit) values.
        reads = rec.heap_reads()
        assert 50 <= len(reads) <= 100


class TestTreeSum:
    def test_sums_all_values(self):
        depth = 5

        def setup(c):
            root = make_binary_tree(c.builder, "t", depth=depth)
            stack = c.data.alloc("st", 8 * 256, align=64)
            return {"root": root, "stack_base": stack}
        interp, _, _ = run_kernel(tree_sum, setup, reps=1)
        n = (1 << depth) - 1
        assert interp.state.regs[EDX] == sum(range(1, n + 1))

    def test_repeats_accumulate(self):
        def setup(c):
            root = make_binary_tree(c.builder, "t2", depth=3)
            stack = c.data.alloc("st2", 8 * 64, align=64)
            return {"root": root, "stack_base": stack}
        interp, _, _ = run_kernel(tree_sum, setup, reps=4)
        assert interp.state.regs[EDX] == 4 * sum(range(1, 8))


class TestStateMachine:
    def test_executes_requested_steps(self):
        interp, _, program = run_kernel(state_machine, None, n_states=8,
                                        steps=100, seed=3)
        # Dispatch runs once per step; the program halts eventually.
        assert interp.state.halted

    def test_power_of_two_states_required(self):
        with pytest.raises(ValueError):
            run_kernel(state_machine, None, n_states=6, steps=10)

    def test_deterministic(self):
        a, _, _ = run_kernel(state_machine, None, n_states=8, steps=200,
                             seed=5)
        b, _, _ = run_kernel(state_machine, None, n_states=8, steps=200,
                             seed=5)
        assert a.state.steps == b.state.steps
        assert a.state.regs == b.state.regs


class TestComputeLoop:
    def test_work_dominates_cycles(self):
        interp, rec, _ = run_kernel(compute_loop, None, iters=100,
                                    work=50, spills=0)
        assert interp.state.cycles >= 100 * 50
        assert not rec.heap_reads()  # no array configured
