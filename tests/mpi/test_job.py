"""SimJob: rank contexts, results, repeatability, noise."""

import pytest

from repro.machine import lassen
from repro.mpi import SimJob


class TestRankContext:
    def test_placement_sugar(self):
        job = SimJob(lassen(), num_nodes=2, ppn=8)

        def program(ctx):
            return (ctx.node, ctx.socket, ctx.local_rank, ctx.gpu,
                    ctx.global_gpu, ctx.is_gpu_owner)
            yield

        res = job.run(program)
        assert res.values[0] == (0, 0, 0, 0, 0, True)
        assert res.values[9] == (1, 0, 1, 1, 5, True)
        # helper rank (local 4) owns nothing
        assert res.values[4][3] is None and res.values[4][5] is False

    def test_size_and_rank(self):
        job = SimJob(lassen(), num_nodes=2, ppn=4)

        def program(ctx):
            return (ctx.rank, ctx.size)
            yield

        res = job.run(program)
        assert res.values == [(r, 8) for r in range(8)]


class TestJobResults:
    def test_fresh_state_per_run(self):
        job = SimJob(lassen(), num_nodes=2, ppn=4)

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(10**6, dest=4, tag=1)
            elif ctx.rank == 4:
                yield ctx.comm.recv(source=0, tag=1)
            return ctx.now

        first = job.run(program)
        second = job.run(program)
        assert first.elapsed == second.elapsed  # NIC queues reset
        assert first.stats.messages == second.stats.messages == 1

    def test_rank_times_and_max(self):
        job = SimJob(lassen(), num_nodes=2, ppn=4)

        def program(ctx):
            yield ctx.timeout(ctx.rank * 1e-3)
            return None

        res = job.run(program)
        assert res.rank_times[7] == pytest.approx(7e-3)
        assert res.max_rank_time == pytest.approx(7e-3)

    def test_stats_locality_breakdown(self):
        job = SimJob(lassen(), num_nodes=2, ppn=4)

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(100, dest=1, tag=1)   # on-socket
                yield ctx.comm.send(100, dest=4, tag=1)   # off-node
            elif ctx.rank in (1, 4):
                yield ctx.comm.recv(source=0, tag=1)
            return None

        res = job.run(program)
        from repro.machine.locality import Locality
        assert res.stats.by_locality[Locality.ON_SOCKET] == 1
        assert res.stats.by_locality[Locality.OFF_NODE] == 1
        assert res.stats.off_node_bytes == 100


def two_full_nodes():
    return SimJob(lassen(), num_nodes=2, ppn=40)


def echo_rank(ctx):
    yield ctx.timeout(1e-6 * (ctx.rank + 1))
    return ctx.rank


class TestRunRanks:
    def test_default_starts_every_rank(self):
        job = two_full_nodes()
        result = job.run(echo_rank)
        assert result.values == list(range(80))
        assert len(job.sim._processes) == 80

    def test_subset_reports_none_and_zero_for_the_rest(self):
        job = two_full_nodes()
        result = job.run(echo_rank, ranks=[41, 3, 3])   # any order, deduped
        assert len(job.sim._processes) == 2
        assert [r for r, v in enumerate(result.values) if v is not None] \
            == [3, 41]
        assert result.values[3] == 3 and result.values[41] == 41
        assert result.rank_times[3] == 4e-6 and result.rank_times[41] == 42e-6
        assert all(t == 0.0 for r, t in enumerate(result.rank_times)
                   if r not in (3, 41))
        assert result.elapsed == 42e-6

    def test_unfinished_rank_reports_none_and_zero(self):
        result = two_full_nodes().run(echo_rank, ranks=[0, 9],
                                      until=5e-6)
        assert result.values[0] == 0 and result.values[9] is None
        assert result.rank_times[9] == 0.0

    def test_empty_selection_runs_nothing(self):
        job = two_full_nodes()
        result = job.run(echo_rank, ranks=[])
        assert result.values == [None] * 80 and result.elapsed == 0.0

    @pytest.mark.parametrize("ranks", [[80], [-1, 2]])
    def test_out_of_range_rank_rejected(self, ranks):
        with pytest.raises(ValueError, match="ranks must lie in"):
            two_full_nodes().run(echo_rank, ranks=ranks)


class TestNoise:
    def _one_way(self, job):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(4096, dest=4, tag=1)
            elif ctx.rank == 4:
                yield ctx.comm.recv(source=0, tag=1)
            return ctx.now

        return job.run(program).elapsed

    def test_noise_perturbs_but_is_seeded(self):
        noisy_a = SimJob(lassen(), num_nodes=2, ppn=4, noise_sigma=0.2, seed=1)
        noisy_b = SimJob(lassen(), num_nodes=2, ppn=4, noise_sigma=0.2, seed=1)
        noisy_c = SimJob(lassen(), num_nodes=2, ppn=4, noise_sigma=0.2, seed=2)
        exact = SimJob(lassen(), num_nodes=2, ppn=4)
        ta, tb, tc = (self._one_way(j) for j in (noisy_a, noisy_b, noisy_c))
        t0 = self._one_way(exact)
        assert ta == tb          # same seed -> identical
        assert ta != tc          # different seed -> different draw
        assert ta != t0 and abs(ta - t0) / t0 < 1.0

    def test_noisy_mean_approaches_exact(self):
        job = SimJob(lassen(), num_nodes=2, ppn=4, noise_sigma=0.1, seed=3)
        exact = SimJob(lassen(), num_nodes=2, ppn=4)
        times = []
        for _ in range(300):
            times.append(self._one_way(job))
        t0 = self._one_way(exact)
        mean = sum(times) / len(times)
        assert mean == pytest.approx(t0, rel=0.05)
