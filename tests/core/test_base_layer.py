"""run_exchange / default_data / expected_delivery edge cases."""

import numpy as np
import pytest

from repro.core import (CommPattern, StandardStaged, all_strategies,
                        run_exchange)
from repro.core.base import (
    build_records,
    default_data,
    expected_delivery,
    flatten_messages,
)
from repro.core.records import Record
from repro.machine import lassen
from repro.mpi import DeviceBuffer, SimJob
from repro.mpi.communicator import Message
from repro.mpi.job import RankContext


@pytest.fixture
def job():
    return SimJob(lassen(), num_nodes=2, ppn=4)


class TestDefaultData:
    def test_sized_to_cover_indices(self, job):
        pattern = CommPattern(8, {0: {1: np.array([5, 99])},
                                  2: {3: np.array([0])}})
        data = default_data(pattern, job.layout)
        assert len(data) == 8
        assert len(data[0]) == 100
        assert len(data[2]) == 1
        assert len(data[1]) == 0  # no sends -> empty vector

    def test_seed_controls_values(self, job):
        pattern = CommPattern(8, {0: {1: np.arange(4)}})
        a = default_data(pattern, job.layout, seed=1)
        b = default_data(pattern, job.layout, seed=1)
        c = default_data(pattern, job.layout, seed=2)
        assert np.array_equal(a[0], b[0])
        assert not np.array_equal(a[0], c[0])


class TestExpectedDelivery:
    def test_matches_pattern(self, job):
        pattern = CommPattern(8, {0: {1: np.array([2, 4])}})
        data = default_data(pattern, job.layout)
        expected = expected_delivery(pattern, data)
        assert set(expected) == {1}
        assert np.array_equal(expected[1][0], data[0][[2, 4]])

    def test_empty_pattern(self, job):
        assert expected_delivery(CommPattern(8, {}), [np.empty(0)] * 8) == {}


class TestHelpers:
    def test_build_records(self):
        data = [np.arange(10.0), np.empty(0)]
        recs = build_records(0, data, {1: np.array([1, 3])})
        assert set(recs) == {1}
        assert np.array_equal(recs[1].values, [1.0, 3.0])
        assert recs[1].src_gpu == 0 and recs[1].offset == 0

    def test_flatten_unwraps_device_buffers(self):
        rec = Record(0, 1, 0, np.arange(2.0))
        msgs = [
            Message(source=0, tag=1, data=[rec]),
            Message(source=2, tag=1,
                    data=DeviceBuffer(0, [rec, rec], nbytes=32)),
        ]
        flat = flatten_messages(msgs)
        assert len(flat) == 3

    @pytest.mark.parametrize(
        "strategy",
        [s for s in all_strategies() if not s.staged],
        ids=lambda s: s.label)
    def test_wrap_error_names_the_strategy(self, strategy):
        job = SimJob(lassen(), num_nodes=1, ppn=8)
        helper = next(r for r in range(job.layout.size)
                      if job.layout.global_gpu_of(r) is None)
        owner = job.layout.owner_of_global_gpu(0)
        recs = [Record(0, 1, 0, np.arange(2.0))]
        assert strategy._wrap(RankContext(job, helper), recs, 16,
                              staged=True) is recs
        wrapped = strategy._wrap(RankContext(job, owner), recs, 16,
                                 staged=False)
        assert wrapped.data is recs and wrapped.nbytes == 16
        with pytest.raises(RuntimeError) as err:
            strategy._wrap(RankContext(job, helper), recs, 16, staged=False)
        assert str(err.value) == (f"{strategy.label} requires GPU owner "
                                  f"ranks (rank {helper} owns none)")


class TestRunExchange:
    def test_pattern_too_large_rejected(self, job):
        pattern = CommPattern(16, {0: {15: np.array([0])}})
        with pytest.raises(ValueError, match="GPUs"):
            run_exchange(job, StandardStaged(), pattern)

    def test_plan_reuse_gives_identical_timing(self, job):
        pattern = CommPattern.random(8, 100, 3, 20, seed=4)
        strategy = StandardStaged()
        plan = strategy.plan(pattern, job.layout)
        a = run_exchange(job, strategy, pattern, plan=plan)
        b = run_exchange(job, strategy, pattern, plan=plan)
        assert a.comm_time == b.comm_time

    def test_result_metadata(self, job):
        pattern = CommPattern(8, {0: {4: np.arange(8)}})
        res = run_exchange(job, StandardStaged(), pattern)
        assert res.strategy == "Standard (staged)"
        assert res.total_messages == 1
        assert len(res.rank_times) == job.layout.size
