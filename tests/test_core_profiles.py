"""Tests for the two-level profile structures (Section 4.2)."""

import pytest

from repro.core import AddressProfile, TraceProfileBuffer


class TestAddressProfile:
    def make(self, ops=3, rows=4):
        return AddressProfile("t", [0x400000 + 4 * i for i in range(ops)],
                              max_rows=rows)

    def test_rows_and_columns(self):
        profile = self.make()
        row = profile.new_row()
        row[0] = 100
        row[2] = 300
        row2 = profile.new_row()
        row2[0] = 101
        assert profile.column(0) == [100, 101]
        assert profile.column(1) == []
        assert profile.column(2) == [300]

    def test_column_for_pc(self):
        profile = self.make()
        row = profile.new_row()
        row[1] = 55
        assert profile.column_for_pc(0x400004) == [55]

    def test_full_after_max_rows(self):
        profile = self.make(rows=2)
        profile.new_row()
        assert not profile.full
        profile.new_row()
        assert profile.full
        with pytest.raises(OverflowError):
            profile.new_row()

    def test_iter_references_row_major_with_warmup(self):
        profile = self.make(ops=2, rows=4)
        for base in (0, 10):
            row = profile.new_row()
            row[0] = base
            row[1] = base + 1
        refs = list(profile.iter_references(skip_rows=1))
        assert [(a, c) for _, a, c in refs] == [
            (0, False), (1, False), (10, True), (11, True),
        ]
        # pcs follow column order
        assert refs[0][0] == 0x400000 and refs[1][0] == 0x400004

    def test_iter_skips_unreached_ops(self):
        profile = self.make(ops=3, rows=2)
        row = profile.new_row()
        row[1] = 42  # ops 0 and 2 never reached (early trace exit)
        refs = list(profile.iter_references())
        assert len(refs) == 1 and refs[0][1] == 42

    @pytest.mark.parametrize("skip_rows", [0, 1, 2, 3, 9])
    @pytest.mark.parametrize("shift", [0, 6])
    @pytest.mark.parametrize("gaps", [False, True])
    def test_flat_references_match_iter_references(self, skip_rows, shift,
                                                   gaps):
        profile = self.make(ops=3, rows=4)
        for r in range(3):
            row = profile.new_row()
            for j in range(3):
                if not (gaps and (r + j) % 2):
                    row[j] = 0x1000 + 64 * (3 * r + j) + j
        want = list(profile.iter_references(skip_rows=skip_rows))
        pcs, addrs, n_warmup = profile.flat_references(
            skip_rows=skip_rows, shift=shift)
        assert pcs == [pc for pc, _, _ in want]
        assert addrs == [addr >> shift for _, addr, _ in want]
        assert n_warmup == sum(1 for _, _, counted in want
                               if not counted)

    def test_record_count(self):
        profile = self.make(ops=2, rows=4)
        row = profile.new_row()
        row[0] = 1
        row = profile.new_row()
        row[0] = 2
        row[1] = 3
        assert profile.record_count() == 3

    def test_empty(self):
        profile = self.make()
        assert profile.empty
        profile.new_row()
        assert not profile.empty

    def test_invalid_max_rows(self):
        with pytest.raises(ValueError):
            AddressProfile("t", [1], max_rows=0)


class TestTraceProfileBuffer:
    def test_guard_page_trigger_on_fill(self):
        buf = TraceProfileBuffer(capacity=3)
        assert buf.allocate() is False
        assert buf.allocate() is False
        assert buf.allocate() is True
        assert buf.full

    def test_drain_resets_entries_not_total(self):
        buf = TraceProfileBuffer(capacity=2)
        buf.allocate()
        buf.allocate()
        buf.drain()
        assert buf.entries == 0
        assert buf.total_allocated == 2
        assert not buf.full

    def test_default_capacity_matches_paper(self):
        assert TraceProfileBuffer().capacity == 8192

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TraceProfileBuffer(capacity=0)
