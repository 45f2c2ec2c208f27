"""Block templates: one ``compile()`` per block shape.

:func:`repro.vm.compiler.compile_block` writes each block's source with
every operand as a numbered placeholder constant, compiles each
distinct text once, and gives every block of that shape its own code
object by swapping the placeholders in ``co_consts`` for its operands.
These tests pin that contract:

* same-shape blocks with different operands share one ``compile()``
  and still compute their own results;
* every operand kind -- including constant folding's favourite cases
  and the ifetch lanes over 1, 2 and more lines -- matches
  :class:`~repro.vm.reference.ReferenceInterpreter`;
* every block of every registered program compiles without a warning;
* a template whose placeholder the compiler folded away raises;
* the template cache is bounded, also under concurrent compiles, and
  concurrent interpreters of one program share its code.
"""

import sys
import threading
import warnings

import pytest

import repro.vm.compiler as compiler
from repro.isa import ADD, AND, CC_LT, DIV, MOD, MUL, OR, SHL, SHR, SUB
from repro.memory.flat import FlatMemory
from repro.vm import DEFAULT_COST_MODEL, Interpreter
from repro.vm.compiler import compile_block, decode_block
from repro.vm.interpreter import _CODE_MAPS
from repro.vm.reference import ReferenceInterpreter
from repro.workloads import GROUPS, all_workloads

from test_vm_differential import BASE, build_program, run_one


@pytest.fixture
def fresh_caches(monkeypatch):
    """An empty template cache, and a count of ``compile()`` calls the
    compiler makes."""
    monkeypatch.setattr(compiler, "_TEMPLATES", {})
    calls = []

    def counting_compile(*args, **kwargs):
        calls.append(args[0])
        return compile(*args, **kwargs)

    monkeypatch.setattr(compiler, "compile", counting_compile,
                        raising=False)
    return calls


def _both(program, memory="hierarchy", stream="ifetch", driver="native"):
    compiled = run_one(Interpreter, program, memory, stream, False, driver)
    reference = run_one(ReferenceInterpreter, program, memory, stream,
                        False, driver)
    assert compiled == reference
    assert compiled["outcome"][0] == "ok"
    return compiled


def test_same_shape_blocks_share_one_compile(fresh_caches):
    codes, compiles = [], []
    for imm in (3, -9):
        program = build_program([([("alu_imm", ADD, 0, imm),
                                   ("lea", 1, (BASE, None, 1, imm, 8))],
                                  ("halt",))])
        regs = _both(program)["regs"]
        assert regs[0] == imm & compiler._U64_MASK
        assert regs[1] == (regs[BASE] + imm) & compiler._U64_MASK
        codes.append(compile_block(program, "b0", DEFAULT_COST_MODEL,
                                   True))
        compiles.append(len(fresh_caches))
    assert 0 < compiles[0] == compiles[1] == len(compiler._TEMPLATES)
    assert codes[0] is not codes[1]
    assert codes[0].co_code == codes[1].co_code
    assert codes[0].co_consts != codes[1].co_consts


#: Programs (``build_program`` block lists) over every operand kind,
#: with the cases constant folding and warnings would trip on.
EDGE_CASES = {
    "lea-displacement-only": [
        ([("lea", 0, (None, None, 1, 200, 8)),
          ("lea", 1, (None, None, 1, -8, 8)),
          ("lea", 2, (None, None, 1, 0, 8)),
          ("lea", 3, (BASE, 4, 8, -16, 8))], ("halt",))],
    "load-store-displacement-only": [
        ([("store", None, 77, (None, None, 1, 512, 8)),
          ("load", 2, (None, None, 1, 512, 8)),
          ("store", 2, 0, (None, None, 1, 8, 4)),
          ("load", 3, (None, None, 1, 0, 16)),
          ("load", 4, (BASE, 3, 2, 0, 1))], ("halt",))],
    "negative-immediates": [
        ([("alu_imm", ADD, 0, -5), ("alu_imm", SUB, 1, -(1 << 63)),
          ("alu_imm", MUL, 2, -2), ("alu_imm", AND, 3, -1),
          ("alu_imm", OR, 4, -(1 << 70)), ("mov_imm", 5, -1),
          ("store", None, -7, (BASE, None, 1, 8, 8)),
          ("cmp_imm", 0, -3)], ("jcc", CC_LT, 1, 2)),
        ([("work", 3)], ("halt",)),
        ([("nop",)], ("halt",))],
    "shift-by-64-or-more": [
        ([("mov_imm", 0, 12345), ("mov_imm", 1, 1 << 63),
          ("alu_imm", SHL, 0, 64), ("alu_imm", SHR, 1, 65),
          ("mov_imm", 2, 7), ("alu_imm", SHL, 2, 130),
          ("mov_imm", 3, 9), ("alu_imm", SHR, 3, -1)], ("halt",))],
    "divide-by-immediate-zero": [
        ([("mov_imm", 0, 17), ("alu_imm", DIV, 0, 0),
          ("mov_imm", 1, 17), ("alu_imm", MOD, 1, 0),
          ("mov_imm", 2, 17), ("alu", DIV, 2, 3),
          ("alu_imm", MOD, 2, -4)], ("halt",))],
    "switch-tuple": [
        ([("mov_imm", 0, 5)], ("switch", 0, [1, 2, 3])),
        ([("mov_imm", 1, 1)], ("halt",)),
        ([("mov_imm", 1, 2)], ("switch", 1, [4])),
        ([("mov_imm", 1, 3)], ("call", 4, 1)),
        ([], ("ret",))],
    "ifetch-1-2-and-more-lines": [
        ([], ("jmp", 1)),
        ([("nop",)] * 14, ("jmp", 2)),
        ([("nop",)] * 17, ("jmp", 3)),
        ([("nop",)] * 40, ("halt",))],
}


@pytest.mark.parametrize("driver", ["native", "dynamo"])
@pytest.mark.parametrize("memory", ["flat", "hierarchy"])
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_operand_kinds_match_reference(fresh_caches, case, memory, driver):
    _both(build_program(EDGE_CASES[case]), memory, "ifetch", driver)


def test_ifetch_cases_cover_one_two_and_more_lines():
    program = build_program(EDGE_CASES["ifetch-1-2-and-more-lines"])
    counts = {len(decode_block(block, DEFAULT_COST_MODEL, True)[1])
              for label, block in program.blocks.items()
              if label != "dead"}
    assert {1, 2} <= counts and max(counts) > 2


def test_every_registered_block_compiles_without_warnings(fresh_caches):
    blocks = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in all_workloads(list(GROUPS)):
            program = spec.build(0.05)
            for label in program.blocks:
                for models_ifetch in (False, True):
                    compile_block(program, label, DEFAULT_COST_MODEL,
                                  models_ifetch)
                    blocks += 1
    # Operands are placeholders, so shapes are few: 101 for 2,716
    # compiles when this was written.
    assert len(fresh_caches) == len(compiler._TEMPLATES)
    assert len(compiler._TEMPLATES) * 10 < blocks


def test_a_template_that_loses_a_placeholder_raises(fresh_caches,
                                                    monkeypatch):
    real = compiler._block_source

    def folding(ops, lines):
        text, values = real(ops, lines)
        n = next(n for n, v in enumerate(values) if type(v) is int)
        hole = repr(compiler._hole(n, values[n]))
        return text.replace(hole, f"({hole} & 255)", 1), values

    monkeypatch.setattr(compiler, "_block_source", folding)
    program = build_program([([("alu_imm", ADD, 0, 1)], ("halt",))])
    with pytest.raises(RuntimeError, match=r"placeholders \[0\]"):
        Interpreter(program, FlatMemory()).block_function("b0")


def test_template_cache_is_bounded(fresh_caches, monkeypatch):
    monkeypatch.setattr(compiler, "TEMPLATE_CACHE_LIMIT", 2)
    for aluop in (ADD, SUB, MUL, AND, OR):
        program = build_program([([("alu_imm", aluop, 0, 7)], ("halt",))])
        _both(program, "flat", "none")
        assert len(compiler._TEMPLATES) <= 2


def test_concurrent_compiles_give_every_block_its_operands(fresh_caches,
                                                           monkeypatch):
    """Threads compiling same-shape blocks through a tiny, evicting
    template cache each get code carrying their own block's operands,
    and every interpreter of a program runs that program's one code
    object."""
    monkeypatch.setattr(compiler, "TEMPLATE_CACHE_LIMIT", 2)
    programs = [build_program([([("alu_imm", aluop, 0, imm),
                                 ("mov_imm", 1, imm)], ("halt",))])
                for aluop in (ADD, SUB, MUL, AND, OR)
                for imm in (3, 5, -7, 1 << 40)]
    expected = [run_one(ReferenceInterpreter, program, "flat", "none",
                        False, "native")["regs"] for program in programs]
    failures = []
    codes = [set() for _ in programs]

    def worker(offset):
        try:
            for round_ in range(20):
                for i in range(len(programs)):
                    i = (i + offset + round_) % len(programs)
                    interp = Interpreter(programs[i], FlatMemory())
                    interp.run_native()
                    codes[i].add(interp.block_function("b0").__code__)
                    if list(interp.state.regs) != expected[i]:
                        failures.append(i)
        except Exception as exc:  # a thread's error fails the test
            failures.append(repr(exc))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n * 5,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(compiler._TEMPLATES) <= 2
    assert [len(c) for c in codes] == [1] * len(programs)
    assert all(len(_CODE_MAPS[program]) == 1 for program in programs)
