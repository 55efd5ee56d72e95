"""What one exchange costs the engine: pinned event and process counts.

An exchange schedules work for the ranks its plan names, not for the
whole job.  The integers are exact for the pinned cells; a change that
moves them changes how many engine events a message costs and has to
say so here.
"""

import pytest

from repro.core import CommPattern, run_exchange
from repro.core.selector import strategy_by_name
from repro.machine import lassen
from repro.mpi import SimJob


@pytest.mark.parametrize("label, events, messages", [
    ("Standard (staged)", 128, 40),
    ("3-Step (staged)", 120, 30),
])
def test_events_and_processes_per_exchange(label, events, messages):
    pattern = CommPattern.random(num_gpus=8, local_n=4096, messages_per_gpu=5,
                                 msg_elems=600, seed=7)
    # tracer on: the traced loop counts its steps
    job = SimJob(lassen(), num_nodes=2, ppn=40, seed=7, tracer=True)
    strategy = strategy_by_name(label)
    plan = strategy.plan(pattern, job.layout)
    result = run_exchange(job, strategy, pattern, plan=plan)
    assert result.stats.messages == messages
    assert job.sim.steps_traced == events
    assert len(job.sim._processes) == len(plan.by_rank) == 8
    started = {span.track for span in job.tracer.spans
               if span.name == "process"}
    assert started == {f"rank{r}" for r in plan.by_rank}
