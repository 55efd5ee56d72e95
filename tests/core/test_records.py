"""Record slicing, chunking, assembly and union expansion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.records import (
    NodeRecord,
    Record,
    assemble,
    chunk_records,
    expand_node_record,
    group_by,
    node_records_nbytes,
    records_nbytes,
)


class TestRecord:
    def test_basic_properties(self):
        r = Record(1, 2, 0, np.arange(10.0))
        assert r.nbytes == 80 and r.n == 10

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            Record(0, 1, -1, np.zeros(1))

    def test_split_at(self):
        r = Record(0, 1, 5, np.arange(10.0))
        head, tail = r.split_at(4)
        assert head.offset == 5 and head.n == 4
        assert tail.offset == 9 and tail.n == 6
        assert np.array_equal(np.concatenate([head.values, tail.values]),
                              r.values)

    def test_split_bounds(self):
        r = Record(0, 1, 0, np.arange(3.0))
        with pytest.raises(ValueError):
            r.split_at(0)
        with pytest.raises(ValueError):
            r.split_at(3)


class TestChunking:
    def test_exact_cap_chunks(self):
        recs = [Record(0, d, 0, np.arange(10.0)) for d in range(1, 4)]
        chunks = chunk_records(recs, cap_bytes=160)  # 20 elems
        sizes = [sum(r.n for r in c) for c in chunks]
        assert sizes == [20, 10]

    def test_records_split_across_chunks_carry_offsets(self):
        recs = [Record(0, 1, 0, np.arange(25.0))]
        chunks = chunk_records(recs, cap_bytes=80)  # 10 elems
        offsets = [c[0].offset for c in chunks]
        assert offsets == [0, 10, 20]

    def test_cap_below_itemsize_rejected(self):
        with pytest.raises(ValueError):
            chunk_records([], cap_bytes=4)

    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(min_value=0, max_value=60),
                            min_size=1, max_size=12),
           cap_elems=st.integers(min_value=1, max_value=40))
    def test_chunking_conserves_and_respects_cap(self, lengths, cap_elems):
        recs = [Record(0, d % 5, 0, np.arange(float(n)))
                for d, n in enumerate(lengths)]
        chunks = chunk_records(recs, cap_bytes=cap_elems * 8)
        total_out = sum(r.n for c in chunks for r in c)
        assert total_out == sum(lengths)
        for c in chunks:
            assert sum(r.n for r in c) <= cap_elems


class TestAssemble:
    def test_round_trip_split_records(self):
        full = np.arange(30.0)
        recs = [Record(3, 7, 0, full[:12]), Record(3, 7, 12, full[12:])]
        out = assemble(recs, {3: 30}, dest_gpu=7)
        assert np.array_equal(out[3], full)

    def test_missing_data_detected(self):
        with pytest.raises(ValueError, match="missing"):
            assemble([Record(0, 1, 0, np.zeros(5))], {0: 10}, dest_gpu=1)

    def test_overlap_detected(self):
        recs = [Record(0, 1, 0, np.zeros(5)), Record(0, 1, 3, np.zeros(5))]
        with pytest.raises(ValueError, match="overlap"):
            assemble(recs, {0: 8}, dest_gpu=1)

    def test_wrong_destination_detected(self):
        with pytest.raises(ValueError, match="delivered"):
            assemble([Record(0, 2, 0, np.zeros(1))], {0: 1}, dest_gpu=1)

    def test_unexpected_source_detected(self):
        with pytest.raises(ValueError, match="unexpected source"):
            assemble([Record(9, 1, 0, np.zeros(1))], {0: 1}, dest_gpu=1)

    def test_overrun_detected(self):
        with pytest.raises(ValueError, match="overruns"):
            assemble([Record(0, 1, 3, np.zeros(5))], {0: 4}, dest_gpu=1)

    def test_gap_between_records_detected(self):
        recs = [Record(0, 1, 6, np.zeros(4)), Record(0, 1, 0, np.zeros(4))]
        with pytest.raises(ValueError, match="missing data from gpu 0: "
                                             "2 of 10"):
            assemble(recs, {0: 10}, dest_gpu=1)

    def test_source_without_records_detected(self):
        with pytest.raises(ValueError, match="missing data from gpu 2"):
            assemble([Record(0, 1, 0, np.zeros(3))], {0: 3, 2: 1},
                     dest_gpu=1)

    def test_duplicate_record_is_an_overlap(self):
        recs = [Record(0, 1, 0, np.zeros(4)), Record(0, 1, 0, np.zeros(4))]
        with pytest.raises(ValueError, match="overlap"):
            assemble(recs, {0: 4}, dest_gpu=1)

    def test_overlap_reported_before_another_sources_gap(self):
        recs = [Record(0, 1, 0, np.zeros(2)),                     # gap
                Record(2, 1, 1, np.zeros(3)), Record(2, 1, 0, np.zeros(2))]
        with pytest.raises(ValueError, match="overlapping records from "
                                             "gpu 2"):
            assemble(recs, {0: 4, 2: 4}, dest_gpu=1)

    def test_zero_length_records_accepted_anywhere(self):
        full = np.arange(6.0)
        empty = np.empty(0)
        recs = [Record(0, 1, 3, empty), Record(0, 1, 0, full),
                Record(0, 1, 6, empty), Record(2, 1, 0, empty)]
        out = assemble(recs, {0: 6, 2: 0}, dest_gpu=1)
        assert np.array_equal(out[0], full) and len(out[2]) == 0
        with pytest.raises(ValueError, match="overruns"):
            assemble([Record(0, 1, 7, empty)], {0: 6}, dest_gpu=1)

    def test_out_of_order_chunked_slices_reassemble(self):
        full = np.arange(50.0)
        chunks = chunk_records([Record(3, 7, 0, full)], cap_bytes=7 * 8)
        recs = [r for chunk in reversed(chunks) for r in chunk]
        assert len(recs) == 8
        out = assemble(recs, {3: 50}, dest_gpu=7)
        assert np.array_equal(out[3], full)


class TestNodeRecords:
    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError, match="offset"):
            NodeRecord(0, 1, -1, np.zeros(1))

    def test_expand_full_union(self):
        union_vals = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        nrec = NodeRecord(0, 1, 0, union_vals)
        positions = {5: np.array([0, 2, 4]), 6: np.array([1, 2])}
        recs = expand_node_record(nrec, positions)
        by_dest = {r.dest_gpu: r for r in recs}
        assert np.array_equal(by_dest[5].values, [10.0, 30.0, 50.0])
        assert np.array_equal(by_dest[6].values, [20.0, 30.0])
        assert by_dest[5].offset == 0 and by_dest[6].offset == 0

    def test_expand_partial_slice_offsets(self):
        """A chunked slice produces destination-local offsets so the
        destination can reassemble."""
        union_vals = np.arange(100.0)
        positions = {5: np.arange(0, 100, 3)}  # every 3rd union entry
        lo = 31
        nrec = NodeRecord(0, 1, lo, union_vals[lo:60])
        (rec,) = expand_node_record(nrec, positions)
        # first position >= 31 is 33, which is element 11 of dest 5's msg
        assert rec.offset == 11
        assert np.array_equal(rec.values, np.arange(33.0, 60.0, 3))

    def test_expand_no_overlap_returns_nothing(self):
        nrec = NodeRecord(0, 1, 50, np.arange(5.0))
        assert expand_node_record(nrec, {5: np.array([0, 1, 2])}) == []

    @settings(max_examples=60, deadline=None)
    @given(n_union=st.integers(min_value=1, max_value=120),
           cuts=st.lists(st.integers(min_value=1, max_value=119),
                         max_size=6),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_expansion_reassembles_after_arbitrary_chunking(
            self, n_union, cuts, seed):
        """Slicing the union stream anywhere and expanding per dest
        always reassembles every destination's full message."""
        rng = np.random.default_rng(seed)
        union_vals = rng.standard_normal(n_union)
        positions = {}
        for dest in (5, 6, 7):
            k = rng.integers(1, n_union + 1)
            positions[dest] = np.sort(
                rng.choice(n_union, size=k, replace=False))
        bounds = sorted({0, n_union, *[c for c in cuts if c < n_union]})
        recs = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            nrec = NodeRecord(0, 1, lo, union_vals[lo:hi])
            recs.extend(expand_node_record(nrec, positions))
        for dest, pos in positions.items():
            mine = [r for r in recs if r.dest_gpu == dest]
            got = assemble(mine, {0: len(pos)}, dest_gpu=dest)
            assert np.array_equal(got[0], union_vals[pos])

    def test_nbytes_helpers(self):
        recs = [Record(0, 1, 0, np.zeros(4)), Record(0, 2, 0, np.zeros(6))]
        assert records_nbytes(recs) == 80
        nrecs = [NodeRecord(0, 1, 0, np.zeros(3))]
        assert node_records_nbytes(nrecs) == 24

    def test_group_by(self):
        recs = [Record(0, 1, 0, np.zeros(1)), Record(2, 1, 0, np.zeros(1)),
                Record(0, 3, 0, np.zeros(1))]
        by_dest = group_by(recs, "dest_gpu")
        assert set(by_dest) == {1, 3} and len(by_dest[1]) == 2
        with pytest.raises(ValueError):
            group_by(recs, "bogus")
