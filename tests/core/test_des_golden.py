"""DES goldens: every implementation on three machines, pinned to the bit.

``tests/data/golden_des.json`` holds, per machine x message-size class x
implementation, what one exchange of a seeded random pattern produces on
the simulator:

* ``comm_time`` and every rank's time, as ``float.hex``;
* the transport's ``(protocol, locality)`` tally;
* a sha256 over the message trace (every field of every message);
* the traced phase spans: per phase, the span count, the first start and
  the last end, plus a sha256 over the full span list.

The untraced run supplies the times and the tally, a traced run of the
same exchange supplies the trace and the spans, and the two must agree
on every rank's time.  A change to a strategy program, a plan builder or
the message path that moves any of these fails here, naming the cell.

Regenerate only for a change that is meant to move virtual times::

    PYTHONPATH=src python tests/core/test_des_golden.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.core import (CommPattern, all_strategies, run_exchange,
                        strategy_by_name, verify_exchange)
from repro.core.base import default_data
from repro.machine.presets import resolve_machine
from repro.mpi import SimJob

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "data" / "golden_des.json"

MACHINES = ("lassen", "summit", "frontier_like")
#: elements per message: 128 B (short), 2 KiB (eager), 32 KiB (rendezvous)
SIZES = {"short": 16, "eager": 256, "rendezvous": 4096}
LABELS = [s.label for s in all_strategies()]
NUM_NODES = 3


def _hex(x) -> str:
    return float.hex(float(x))


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def observe(machine_name: str, size: str, label: str) -> dict:
    """One exchange of the cell's pattern, reduced to its golden record."""
    machine = resolve_machine(machine_name)
    gpn = machine.gpus_per_node
    pattern = CommPattern.random(NUM_NODES * gpn, local_n=8192,
                                 messages_per_gpu=5, msg_elems=SIZES[size],
                                 seed=11)
    strategy = strategy_by_name(label)

    def job(**kw):
        return SimJob(machine, num_nodes=NUM_NODES, ppn=2 * gpn, **kw)

    plain_job = job()
    data = default_data(pattern, plain_job.layout)
    plain = run_exchange(plain_job, strategy, pattern, data)
    verify_exchange(plain, pattern, data)
    traced_job = job(trace=True, tracer=True)
    traced = run_exchange(traced_job, strategy, pattern, data)
    assert traced.rank_times == plain.rank_times

    messages = [
        f"{t.src}|{t.dest}|{t.nbytes}|{t.kind.name}|{t.protocol.name}|"
        f"{t.locality.name}|{_hex(t.t_send)}|{_hex(t.t_start)}|"
        f"{_hex(t.send_complete)}|{_hex(t.delivery)}|{t.tag}|{t.phase}|"
        f"{t.attempts}|{t.failed}"
        for t in traced_job.transport.trace_log
    ]
    spans = [s for s in traced_job.tracer.spans if s.track.endswith("/phase")]
    phases: dict = {}
    for s in spans:
        count, first, last = phases.get(s.name, (0, s.t0, s.t1))
        phases[s.name] = (count + 1, min(first, s.t0), max(last, s.t1))
    return {
        "comm_time": _hex(plain.comm_time),
        "rank_times": [_hex(t) for t in plain.rank_times],
        "tally": {f"{p.name}/{loc.name}": n for (p, loc), n
                  in sorted(plain.stats.tally.items(),
                            key=lambda kv: (kv[0][0].name, kv[0][1].name))},
        "trace_sha256": _sha256(messages),
        "phases": {name: [n, _hex(t0), _hex(t1)]
                   for name, (n, t0, t1) in sorted(phases.items())},
        "phase_sha256": _sha256(f"{s.track}|{s.name}|{_hex(s.t0)}|"
                                f"{_hex(s.t1)}" for s in spans),
    }


def _cells():
    return [(m, size, label) for m in MACHINES for size in SIZES
            for label in LABELS]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted("/".join(cell) for cell in _cells())
    assert len(golden) == 3 * 3 * 13


@pytest.mark.parametrize("machine, size, label", _cells(),
                         ids=["/".join(cell) for cell in _cells()])
def test_exchange_matches_golden(golden, machine, size, label):
    assert observe(machine, size, label) == golden[f"{machine}/{size}/{label}"]


if __name__ == "__main__":
    records = {"/".join(cell): observe(*cell) for cell in _cells()}
    GOLDEN_PATH.write_text(
        "{\n" + ",\n".join(f"{json.dumps(key)}: "
                           f"{json.dumps(value, separators=(',', ':'))}"
                           for key, value in records.items()) + "\n}\n")
