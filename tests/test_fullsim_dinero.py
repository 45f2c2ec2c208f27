"""Tests for the Dinero-style trace-driven simulator."""

import io

import pytest

from repro.fullsim.dinero import (
    DineroResult, main, simulate_din, simulate_trace,
)
from repro.memory import CacheConfig
from repro.vm.tracing import trace_program

from helpers import build_stream_program

SMALL = CacheConfig(size=1024, assoc=2, line_size=64)


class TestSimulateTrace:
    def test_repeated_line_hits(self):
        refs = [(False, 0x1000)] * 10
        result = simulate_trace(refs, SMALL)
        assert result.reads == 10
        assert result.read_misses == 1
        assert result.miss_ratio == pytest.approx(0.1)

    def test_writes_accounted_separately(self):
        refs = [(True, 0x1000), (True, 0x1000), (False, 0x1000)]
        result = simulate_trace(refs, SMALL)
        assert result.writes == 2 and result.write_misses == 1
        assert result.reads == 1 and result.read_misses == 0

    def test_capacity_overflow_misses(self):
        # 32 distinct lines through a 16-line cache, twice: the second
        # pass misses again under LRU streaming.
        refs = [(False, i * 64) for i in range(32)] * 2
        result = simulate_trace(refs, SMALL)
        assert result.miss_ratio == 1.0

    def test_policy_matters(self):
        import random
        rng = random.Random(7)
        refs = [(False, rng.randrange(64) * 64) for _ in range(2000)]
        lru = simulate_trace(refs, SMALL, policy="lru")
        rnd = simulate_trace(refs, SMALL, policy="random")
        assert lru.refs == rnd.refs
        assert lru.miss_ratio != rnd.miss_ratio  # overwhelmingly likely

    def test_empty_trace(self):
        result = simulate_trace([], SMALL)
        assert result.refs == 0 and result.miss_ratio == 0.0

    def test_render(self):
        result = simulate_trace([(False, 0)], SMALL)
        text = result.render()
        assert "miss ratio" in text and "1KB" in text


class TestDinPipeline:
    def test_traced_program_through_dinero(self):
        """tracing -> din export -> dinero equals direct simulation."""
        program, _ = build_stream_program(n=256, reps=2)
        mem_trace, _ = trace_program(program)

        buf = io.StringIO()
        mem_trace.to_din(buf)
        buf.seek(0)
        via_din = simulate_din(buf, SMALL)

        direct = simulate_trace(
            [(w, a) for _, a, w, _ in mem_trace.records], SMALL)
        assert via_din.miss_ratio == direct.miss_ratio
        assert via_din.refs == direct.refs

    def test_cli(self, tmp_path, capsys):
        program, _ = build_stream_program(n=64, reps=1)
        mem_trace, _ = trace_program(program)
        path = tmp_path / "t.din"
        mem_trace.to_din(str(path))
        assert main([str(path), "--size", "1024", "--assoc", "2"]) == 0
        out = capsys.readouterr().out
        assert "miss ratio" in out


class TestCLIErrors:
    """Bad input is a usage error (exit 2, ``dinero: error: ...``)."""

    def _usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "dinero: error:" in err
        assert "Traceback" not in err
        return err

    def test_missing_trace(self, tmp_path, capsys):
        err = self._usage_error([str(tmp_path / "missing.din")], capsys)
        assert "missing.din" in err

    @pytest.mark.parametrize("flags", [["--size", "1000"], ["--assoc", "0"]])
    def test_bad_geometry(self, tmp_path, capsys, flags):
        path = tmp_path / "t.din"
        path.write_text("0 1000\n1 2000\n")
        err = self._usage_error([str(path)] + flags, capsys)
        assert "geometry" in err

    @pytest.mark.parametrize("record", ["zz", "0 zz"])
    def test_malformed_record(self, tmp_path, capsys, record):
        path = tmp_path / "bad.din"
        path.write_text(f"0 1000\n{record}\n")
        err = self._usage_error([str(path)], capsys)
        assert f"line 2: malformed din record {record!r}" in err
