"""The search-free expansion and the copy-free assembly change nothing.

``expand_node_record`` skips the searches for a slice at the head of the
union stream and ``assemble`` hands back the delivered arrays when each
source sent one whole message.  Both are chosen by a property of the
input; this file holds them to the general algorithm, record for record
and bit for bit, and checks that every malformed input still reaches the
one place that diagnoses it.
"""

import numpy as np
import pytest

from repro.core.records import NodeRecord, Record, assemble, expand_node_record


def _expand_oracle(rec, positions):
    """The two-searches-per-destination algorithm, kept verbatim."""
    lo, hi = rec.offset, rec.offset + rec.n
    out = []
    for dest_gpu, pos in positions.items():
        k0 = int(np.searchsorted(pos, lo, side="left"))
        k1 = int(np.searchsorted(pos, hi, side="left"))
        if k0 == k1:
            continue
        vals = rec.values[pos[k0:k1] - lo]
        out.append(Record(rec.src_gpu, dest_gpu, k0, vals))
    return out


def _position_maps(rng, n_union):
    """Sorted position maps of several shapes, one of them empty."""
    maps = {3: np.empty(0, dtype=np.int64),
            4: np.arange(n_union),
            5: np.array([n_union - 1])}
    for dest in (6, 7, 8):
        k = int(rng.integers(1, n_union + 1))
        maps[dest] = np.sort(rng.choice(n_union, size=k, replace=False))
    # positions may repeat (a destination asking twice for one entry)
    maps[9] = np.sort(rng.integers(0, n_union, size=n_union))
    return maps


def _slices(rng, n_union):
    """(lo, hi): head-whole, head-partial, interior, tail, zero-length."""
    cut = int(rng.integers(1, n_union)) if n_union > 1 else 1
    lo = int(rng.integers(1, n_union)) if n_union > 1 else 0
    hi = int(rng.integers(lo, n_union + 1))
    return [(0, n_union), (0, cut), (lo, hi), (lo, n_union), (0, 0),
            (lo, lo)]


@pytest.mark.parametrize("seed", range(40))
def test_expansion_equals_the_two_search_algorithm(seed):
    rng = np.random.default_rng(seed)
    n_union = int(rng.integers(1, 200))
    union_vals = rng.standard_normal(n_union)
    positions = _position_maps(rng, n_union)
    for lo, hi in _slices(rng, n_union):
        nrec = NodeRecord(2, 1, lo, union_vals[lo:hi])
        got = expand_node_record(nrec, positions)
        want = _expand_oracle(nrec, positions)
        assert len(got) == len(want), (lo, hi)
        for g, w in zip(got, want):
            assert (g.src_gpu, g.dest_gpu, g.offset) == \
                (w.src_gpu, w.dest_gpu, w.offset), (lo, hi)
            assert type(g.offset) is int
            assert g.values.dtype == w.values.dtype
            assert g.values.tobytes() == w.values.tobytes(), (lo, hi)


class TestWholeMessageAssembly:
    EXPECTED = {0: 5, 2: 3, 4: 0}

    def _whole(self, dtype=np.float64):
        rng = np.random.default_rng(11)
        return [Record(src, 1, 0, rng.standard_normal(n).astype(dtype))
                for src, n in self.EXPECTED.items()]

    def test_whole_messages_are_returned_not_copied(self):
        recs = self._whole()
        out = assemble(reversed(recs), self.EXPECTED, dest_gpu=1)
        assert list(out) == list(self.EXPECTED)  # expected order, as ever
        for rec in recs:
            assert out[rec.src_gpu] is rec.values

    def test_equal_to_the_copying_path(self):
        recs = self._whole()
        whole = assemble(recs, self.EXPECTED, dest_gpu=1)
        # the same messages in two pieces each take the copy-and-sweep path
        pieces = []
        for rec in recs:
            pieces.extend(rec.split_at(1) if rec.n > 1 else [rec])
        copied = assemble(pieces, self.EXPECTED, dest_gpu=1)
        assert list(whole) == list(copied)
        for src, values in copied.items():
            assert all(values is not rec.values for rec in recs)
            assert values.dtype == whole[src].dtype
            assert values.tobytes() == whole[src].tobytes()

    def test_other_dtype_is_converted_by_the_copying_path(self):
        recs = self._whole(dtype=np.float32)
        out = assemble(recs, self.EXPECTED, dest_gpu=1)
        for rec in recs:
            assert out[rec.src_gpu].dtype == np.float64
            assert np.array_equal(out[rec.src_gpu], rec.values)
        same = assemble(recs, self.EXPECTED, dest_gpu=1, dtype=np.float32)
        assert all(same[rec.src_gpu] is rec.values for rec in recs)

    @pytest.mark.parametrize("breakage, message", [
        ("duplicated", "overlapping records from gpu 0 at gpu 1"),
        ("short", "gpu 1 missing data from gpu 0: 1 of 5 elements"),
        ("long", r"record \[0:6\) overruns message of 5 elements from gpu 0"),
        ("mis-addressed", "record for gpu 7 delivered to gpu 1"),
        ("unexpected source", "unexpected source gpu 9 at gpu 1"),
        ("absent", "gpu 1 missing data from gpu 0: 5 of 5 elements"),
    ])
    def test_one_bad_record_among_whole_ones_is_still_diagnosed(
            self, breakage, message):
        first, *rest = self._whole()
        bad = {
            "duplicated": [first, first],
            "short": [Record(0, 1, 0, first.values[:4])],
            "long": [Record(0, 1, 0, np.zeros(6))],
            "mis-addressed": [Record(0, 7, 0, first.values)],
            "unexpected source": [first, Record(9, 1, 0, first.values)],
            "absent": [],
        }[breakage]
        for records in (bad + rest, rest + bad):
            with pytest.raises(ValueError, match=message):
                assemble(records, self.EXPECTED, dest_gpu=1)
