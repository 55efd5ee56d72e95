"""What one exchange costs the interpreter: pinned call counts.

A plan resolves, a program moves data: index maps are searched when the
plan is built, and the per-message path reaches its route and tally
tables without calling back into Python to hash an enum member.  Both
counts are exact zeros on the cells of ``test_event_budget.py``.
"""

import sys

import pytest

from repro.core import CommPattern, run_exchange
from repro.core.selector import strategy_by_name
from repro.machine import lassen
from repro.mpi import SimJob


def _count_calls(fn):
    """Run ``fn`` under a profile hook; returns ``(result, counts)``.

    ``searchsorted`` counts both spellings: the ``np.searchsorted``
    wrapper is a Python call of that name, the array method a C call.
    """
    counts = {"searchsorted": 0, "enum_hash": 0}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_name == "searchsorted":
                counts["searchsorted"] += 1
            elif (code.co_name == "__hash__"
                  and code.co_filename.endswith("enum.py")):
                counts["enum_hash"] += 1
        elif event == "c_call" and arg.__name__ == "searchsorted":
            counts["searchsorted"] += 1

    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, counts


def test_the_hook_sees_what_it_counts():
    import enum

    import numpy as np

    class Plain(enum.Enum):
        MEMBER = 1

    pos = np.arange(4)
    _, counts = _count_calls(lambda: (np.searchsorted(pos, 2),
                                      pos.searchsorted(2),
                                      hash(Plain.MEMBER)))
    # the wrapper is one Python call around one C call
    assert counts == {"searchsorted": 3, "enum_hash": 1}


@pytest.mark.parametrize("label, messages", [
    ("Standard (staged)", 40),
    ("3-Step (staged)", 30),
])
def test_an_exchange_neither_searches_nor_hashes_enums(label, messages):
    pattern = CommPattern.random(num_gpus=8, local_n=4096, messages_per_gpu=5,
                                 msg_elems=600, seed=7)
    job = SimJob(lassen(), num_nodes=2, ppn=40, seed=7)
    strategy = strategy_by_name(label)
    plan = strategy.plan(pattern, job.layout)
    result, counts = _count_calls(
        lambda: run_exchange(job, strategy, pattern, plan=plan))
    assert result.stats.messages == messages
    assert counts == {"searchsorted": 0, "enum_hash": 0}
