"""Failure injection: the simulator surfaces bugs instead of hiding them.

A communication library's worst failure mode is silent corruption or a
hang nobody can attribute.  These tests assert the DES turns classic
mistakes — mismatched receive counts, crashes mid-exchange, payload
misdelivery — into immediate, attributable errors.
"""

import numpy as np
import pytest

from repro.machine import lassen
from repro.mpi import SimJob
from repro.sim import DeadlockError
from repro.sim.engine import SimulationError


@pytest.fixture
def job():
    return SimJob(lassen(), num_nodes=2, ppn=4)


class TestDeadlocks:
    def test_missing_send_is_deadlock(self, job):
        """A posted receive with no matching send hangs -> DeadlockError."""
        def program(ctx):
            if ctx.rank == 1:
                yield ctx.comm.recv(source=0, tag=9)
            return None

        with pytest.raises(DeadlockError):
            job.run(program)

    def test_tag_mismatch_is_deadlock(self, job):
        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.isend(64, dest=1, tag=1)
                yield ctx.timeout(0)
            elif ctx.rank == 1:
                yield ctx.comm.recv(source=0, tag=2)  # wrong tag
            return None

        with pytest.raises(DeadlockError):
            job.run(program)

    def test_rendezvous_without_receiver_hangs(self, job):
        """A big (rendezvous) send blocks forever without a receiver."""
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(10**6, dest=1, tag=5)
            return None

        with pytest.raises(DeadlockError):
            job.run(program)

    def test_eager_without_receiver_completes_sender(self, job):
        """Eager sends buffer: the sender finishes, no deadlock (the
        message is simply never consumed)."""
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(64, dest=1, tag=5)
            return "done"

        res = job.run(program)
        assert res.values[0] == "done"

    def test_point_to_point_mismatch_is_deadlock(self, job):
        """One rank skipping its sends deadlocks the ranks waiting on it,
        and the error names every one of them."""
        def program(ctx):
            if ctx.rank != 3:
                yield ctx.comm.recv(source=3, tag=4)
            return None

        blocked = ", ".join(f"rank{r}" for r in range(8) if r != 3)
        with pytest.raises(DeadlockError,
                           match=rf"7 process\(es\) .*\(blocked: {blocked}\)"):
            job.run(program)


class TestCrashes:
    def test_crash_names_the_rank(self, job):
        def program(ctx):
            yield ctx.timeout(1e-6)
            if ctx.rank == 5:
                raise RuntimeError("injected fault")
            yield ctx.timeout(1.0)
            return None

        with pytest.raises(SimulationError, match="rank5"):
            job.run(program)

    def test_crash_reports_cause(self, job):
        def program(ctx):
            if ctx.rank == 0:
                raise KeyError("lost buffer")
            return None
            yield

        with pytest.raises(SimulationError, match="lost buffer"):
            job.run(program)


class TestMisdelivery:
    def test_strategy_detects_wrong_plan(self, job):
        """Running a plan built for a different pattern fails loudly
        (missing data detected at assembly) rather than silently."""
        from repro.core import CommPattern, StandardStaged, run_exchange

        pattern_a = CommPattern(8, {0: {4: np.arange(10)}})
        pattern_b = CommPattern(8, {0: {4: np.arange(20)}})
        strategy = StandardStaged()
        plan_b = strategy.plan(pattern_b, job.layout)
        with pytest.raises(Exception):
            run_exchange(job, strategy, pattern_a, plan=plan_b)

    def test_verify_rejects_tampered_delivery(self, job):
        from repro.core import (
            CommPattern,
            StandardStaged,
            run_exchange,
            verify_exchange,
        )
        from repro.core.base import default_data

        pattern = CommPattern(8, {0: {4: np.arange(10)}})
        data = default_data(pattern, job.layout)
        res = run_exchange(job, StandardStaged(), pattern, data)
        res.received[4][0][0] += 1.0  # corrupt one value
        with pytest.raises(AssertionError, match="corrupt"):
            verify_exchange(res, pattern, data)
