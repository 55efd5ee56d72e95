"""CommPattern construction, node views, summaries and dedup maps."""

import numpy as np
import pytest

from repro.core.pattern import CommPattern
from repro.machine import JobLayout, lassen, summit


@pytest.fixture(scope="module")
def layout():
    return JobLayout(lassen(), num_nodes=3, ppn=8)


class TestConstruction:
    def test_basic_queries(self):
        p = CommPattern(4, {0: {1: np.array([0, 2, 5]), 2: np.array([1])}})
        assert p.message_elems(0, 1) == 3
        assert p.message_nbytes(0, 1) == 24
        assert p.message_elems(0, 3) == 0
        assert p.recvs_of(1) == {0: pytest.approx(np.array([0, 2, 5]))} or True
        assert np.array_equal(p.recvs_of(1)[0], [0, 2, 5])
        assert p.expected_recv_lengths(1) == {0: 3}
        assert p.total_messages == 2 and p.total_bytes == 32

    def test_empty_messages_dropped(self):
        p = CommPattern(3, {0: {1: np.array([], dtype=np.int64)}})
        assert p.total_messages == 0

    def test_self_message_rejected(self):
        with pytest.raises(ValueError, match="self-message"):
            CommPattern(2, {0: {0: np.array([1])}})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CommPattern(2, {5: {0: np.array([1])}})
        with pytest.raises(ValueError):
            CommPattern(2, {0: {5: np.array([1])}})

    def test_unsorted_indices_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CommPattern(2, {0: {1: np.array([3, 1])}})
        with pytest.raises(ValueError, match="strictly increasing"):
            CommPattern(2, {0: {1: np.array([1, 1])}})

    def test_equality(self):
        a = CommPattern(3, {0: {1: np.array([1, 2])}})
        b = CommPattern(3, {0: {1: np.array([1, 2])}})
        c = CommPattern(3, {0: {1: np.array([1, 3])}})
        assert a == b and a != c

    def test_random_is_deterministic_and_valid(self):
        a = CommPattern.random(8, 100, 3, 10, seed=5)
        b = CommPattern.random(8, 100, 3, 10, seed=5)
        assert a == b
        for src in range(8):
            for idx in a.sends_of(src).values():
                assert np.all(np.diff(idx) > 0)


class TestNodeViews:
    def test_node_pair_traffic(self, layout):
        p = CommPattern(12, {
            0: {1: np.array([0]), 4: np.array([0, 1]), 8: np.array([0])},
            5: {0: np.array([0, 1, 2])},
        })
        traffic = p.node_pair_traffic(layout)
        assert traffic[(0, 1)] == (1, 16)   # gpu0 -> gpu4
        assert traffic[(0, 2)] == (1, 8)    # gpu0 -> gpu8
        assert traffic[(1, 0)] == (1, 24)   # gpu5 -> gpu0
        assert (0, 0) not in traffic        # on-node excluded

    def test_off_node_gpus(self, layout):
        p = CommPattern(12, {
            0: {1: np.array([0])},            # on-node only
            2: {4: np.array([0])},            # off-node
            3: {5: np.array([0]), 2: np.array([1])},
        })
        assert p.off_node_gpus(layout, 0) == [2, 3]

    def test_summarize_busiest_node(self, layout):
        p = CommPattern(12, {
            0: {4: np.array([0, 1]), 8: np.array([0, 1, 2])},
            1: {4: np.array([0])},
        })
        s = p.summarize(layout)
        assert s.num_dest_nodes == 2
        assert s.node_bytes == pytest.approx(48.0)
        assert s.proc_bytes == pytest.approx(40.0)
        assert s.proc_messages == 2
        assert s.active_gpus == 2
        assert s.messages_per_node_pair == 2  # gpus 0,1 -> node 1

    def test_summarize_empty(self, layout):
        p = CommPattern(12, {0: {1: np.array([0])}})  # on-node only
        s = p.summarize(layout)
        assert s.is_empty

    def test_pattern_larger_than_layout_rejected(self, layout):
        p = CommPattern(64, {0: {63: np.array([0])}})
        with pytest.raises(ValueError, match="spans"):
            p.node_pair_traffic(layout)


class TestDedup:
    def test_union_and_positions(self, layout):
        # gpus 4 and 5 live on node 1; both want overlapping data of gpu 0
        p = CommPattern(12, {
            0: {4: np.array([0, 2, 4]), 5: np.array([2, 3, 4])},
        })
        dedup = p.node_dedup(layout)
        union, pos = dedup[(0, 1)]
        assert np.array_equal(union, [0, 2, 3, 4])
        assert np.array_equal(pos[4], [0, 1, 3])
        assert np.array_equal(pos[5], [1, 2, 3])

    def test_dedup_bytes_less_than_raw(self, layout):
        p = CommPattern(12, {
            0: {4: np.arange(100), 5: np.arange(100), 6: np.arange(100)},
        })
        raw = sum(b for _m, b in p.node_pair_traffic(layout).values())
        dedup = sum(p.dedup_node_bytes(layout).values())
        assert dedup == raw / 3  # perfect triplication collapses

    def test_on_node_messages_not_deduped(self, layout):
        p = CommPattern(12, {0: {1: np.array([0, 1])}})
        assert p.node_dedup(layout) == {}

    @staticmethod
    def _same_dedup(a, b):
        assert a.keys() == b.keys()
        for key, (union, pos) in a.items():
            assert np.array_equal(union, b[key][0])
            assert pos.keys() == b[key][1].keys()
            for dest, where in pos.items():
                assert np.array_equal(where, b[key][1][dest])

    def test_memo_is_per_gpus_per_node(self):
        # The memo is keyed by the only layout property node_dedup reads:
        # 4 GPUs per node (lassen) and 6 (summit) group gpu 4 and 5
        # differently, in either call order.
        sends = {0: {4: np.array([0, 2, 4]), 5: np.array([2, 3]),
                     6: np.array([1, 2])},
                 7: {0: np.array([5, 9])}}
        layouts = [JobLayout(lassen(), 2, 8), JobLayout(summit(), 2, 12)]
        for order in (layouts, layouts[::-1]):
            p = CommPattern(8, sends)
            for lay in order + order:
                self._same_dedup(p.node_dedup(lay),
                                 CommPattern(8, sends).node_dedup(lay))
        assert set(p.node_dedup(layouts[0])) == {(0, 1), (7, 0)}
        assert set(p.node_dedup(layouts[1])) == {(0, 1), (7, 0)}
        assert set(p.node_dedup(layouts[0])[(0, 1)][1]) == {4, 5, 6}
        assert set(p.node_dedup(layouts[1])[(0, 1)][1]) == {6}

    def test_memo_still_checks_the_layout_size(self):
        p = CommPattern(12, {0: {4: np.array([0])}})
        p.node_dedup(JobLayout(lassen(), 3, 4))        # fills the memo
        with pytest.raises(ValueError, match="spans"):
            p.node_dedup(JobLayout(lassen(), 2, 4))    # same gpus_per_node

    def test_callers_cannot_corrupt_the_memo(self, layout):
        sends = {0: {4: np.array([0, 2, 4]), 5: np.array([2, 3, 4])}}
        p = CommPattern(12, sends)
        first = p.node_dedup(layout)
        union, pos = first[(0, 1)]
        with pytest.raises(ValueError):
            union[0] = 99
        with pytest.raises(ValueError):
            pos[4][0] = 99
        pos.clear()
        first.clear()
        first[(9, 9)] = None
        self._same_dedup(p.node_dedup(layout),
                         CommPattern(12, sends).node_dedup(layout))
