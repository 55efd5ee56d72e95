"""Sweep journal: the checkpoint log behind ``--resume``.

A :class:`SweepJournal` is an append-only JSONL file recording the
progress of one journaled :func:`~repro.par.executor.sweep_map` call:
a ``sweep_start`` header naming the sweep (a stable fingerprint of the
task keys), a ``sweep_resume`` line each time a run resumes it, one
``shard_done`` line per completed shard, and a ``sweep_end`` line once
every shard is done.  Every line is flushed as it is written, so a
process killed mid-sweep (SIGKILL included) leaves a journal whose
``shard_done`` set is exactly the shards whose results were already
checkpointed to the result cache — at worst plus one torn last line,
which the next writer terminates before it appends and every reader
skips.

Resume contract: the journal is *bookkeeping*, not the source of truth
— on ``resume=True`` the executor restores shard **values** from the
result cache and uses the journal only to identify the sweep and count
what a previous run completed.  A journaled shard whose cache entry
has vanished is simply re-executed, so a stale or truncated journal can
never corrupt results.

The journal deliberately does not depend on :mod:`repro.obs.ledger`
(which imports heavier machinery); it shares the same canonical-JSON
discipline — sorted keys, compact separators, ``NaN`` rejected — so
journal lines are byte-stable for a given record.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Set

#: bump when the journal record layout changes incompatibly
JOURNAL_SCHEMA = 1


def _dumps(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def journal_path(journal_dir: str, sweep_id: str) -> str:
    """Canonical journal location for a sweep under ``journal_dir``."""
    return os.path.join(journal_dir, f"sweep-{sweep_id}.jsonl")


def read_journal(path: str) -> List[Dict[str, Any]]:
    """Parse a journal, skipping torn lines (a SIGKILL can land
    mid-``write``; every *complete* line is trustworthy, including the
    ones a resumed run appended after the tear)."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn by a kill mid-write
    return records


def _ends_torn(path: str) -> bool:
    """Whether ``path`` is non-empty and its last line unterminated."""
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return False
    with open(path, "rb") as fh:
        fh.seek(-1, os.SEEK_END)
        return fh.read(1) != b"\n"


class SweepJournal:
    """Append-only progress log for one journaled sweep.

    ``resume=True`` re-opens an existing journal (matching ``sweep_id``
    — a different id means the caller is pointing an old journal at a
    different sweep, which is an error) and exposes the previously
    completed shard indices via :attr:`done`.  A missing journal under
    ``resume`` simply starts fresh: resuming a sweep that never ran is
    the same as running it.
    """

    def __init__(self, path: str, sweep_id: str, *, tasks: int,
                 resume: bool = False) -> None:
        self.path = path
        self.sweep_id = sweep_id
        self.tasks = tasks
        self.done: Set[int] = set()
        self.resumed = False
        if resume and os.path.exists(path):
            for record in read_journal(path):
                kind = record.get("kind")
                if kind == "sweep_start":
                    if record.get("sweep_id") != sweep_id:
                        raise ValueError(
                            f"journal {path} belongs to sweep "
                            f"{record.get('sweep_id')!r}, not "
                            f"{sweep_id!r} — refusing to resume a "
                            f"different sweep")
                elif kind == "shard_done":
                    self.done.add(int(record["index"]))
            self.resumed = True
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        torn = _ends_torn(path)
        self._fh: Optional[Any] = open(path, "a", encoding="utf-8")
        if torn:
            # end the torn line, or the next record would be glued to it
            self._fh.write("\n")
        if self.resumed:
            self._write({"kind": "sweep_resume", "done": len(self.done),
                         "tasks": tasks})
        else:
            self._write({"kind": "sweep_start", "schema": JOURNAL_SCHEMA,
                         "sweep_id": sweep_id, "tasks": tasks})

    def _write(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            raise ValueError(f"journal {self.path} is closed")
        self._fh.write(_dumps(record) + "\n")
        # flush per record: the journal's whole point is surviving a
        # kill between any two shards
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def shard_done(self, index: int, key: Optional[str] = None) -> None:
        """Checkpoint one completed shard (call *after* the cache put,
        so a journaled shard always has a restorable value)."""
        record: Dict[str, Any] = {"kind": "shard_done", "index": index}
        if key is not None:
            record["key"] = key
        self._write(record)
        self.done.add(index)

    def finish(self) -> None:
        """Write the ``sweep_end`` line: every shard is done."""
        self._write({"kind": "sweep_end", "completed": self.tasks})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
