"""Run ledger: append-only, schema-versioned JSONL record of one run.

Every CLI entry point (``perf``, ``chaos``, ``scenario``, ``report``,
``trace``) can write a **run ledger** — one JSON object per line, in
append order — so a run leaves a durable, diffable record of what it
computed, how the sweep fleet behaved and where the time went.  The
``python -m repro obs`` subcommand family consumes these files
(``obs report``, ``obs diff``, ``obs flame``, ``obs validate``).

Determinism contract
--------------------
Ledgers are **byte-deterministic** for the same semantic inputs: two
runs with the same seed/args produce byte-identical ledgers at any
``--jobs`` level, *modulo* the declared non-deterministic envelope:

* every record may carry a ``"wall"`` object — wall-clock timestamps,
  pids, host facts, measured wall seconds — which is excluded from the
  deterministic view;
* records flagged ``"volatile": true`` (worker heartbeats, sampling
  profiler stacks, cache behaviour, ``sweep_resume``, and other
  execution-shape facts like the worker count) are excluded entirely.

A sweep either finishes every shard or ends with an exception before
its ledger is written, so a resumed run and an uninterrupted one record
the same result and fingerprint identically.

:func:`deterministic_view` applies both rules; :func:`ledger_fingerprint`
hashes the result, which is what the byte-identity tests compare.
Everything else — field ordering (canonically sorted keys), float
formatting (``repr``-exact via :func:`canonical_dumps`), event order
(append order) — is stable by construction.

Identity
--------
``run_id`` is **stable**: a content hash of the command name and its
*semantic* arguments (seed, machine, scenario shape — never execution
shape like ``--jobs``/``--cache`` or output paths), so re-running the
same experiment yields the same id and ``obs diff`` can tell "same
experiment, different outcome" from "different experiment".

Schema
------
:data:`LEDGER_SCHEMA` versions the record format; the first record of a
run is ``run_start`` (carrying the schema, run_id, command, semantic
args, machine and best-effort ``git describe``), the last is
``run_end`` (status).  :func:`validate_ledger` enforces the structural
contract (also exposed declaratively as :func:`ledger_json_schema` for
documentation and external validators).  Files may hold several runs
concatenated; :func:`split_runs` separates them.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
from typing import Any, Dict, Iterable, List, Mapping, Optional

import numpy as np

from repro.par.cache import stable_fingerprint

#: ledger record-format version (bump when field meanings change)
LEDGER_SCHEMA = 1

#: per-record non-deterministic envelope key (wall clock, pids, hosts)
ENVELOPE_KEY = "wall"

#: flag marking a whole record as non-deterministic
VOLATILE_KEY = "volatile"

#: record kinds the validator knows about (others are allowed; these
#: have required fields)
_REQUIRED_FIELDS = {
    "run_start": ("schema", "run_id", "cmd", "args"),
    "run_end": ("status",),
    "cell": ("scenario", "strategy"),
    "atlas_shard": ("msgs", "dup"),
    "workload": ("name",),
    "metrics": ("snapshot",),
    "sweep": ("tasks",),
    "cache": ("hits", "misses", "stores", "corrupt"),
    "cache_corrupt": ("key",),
    "cache_repair": ("key",),
    "heartbeat": ("chunk",),
    "sweep_resume": ("done", "tasks"),
    "span_summary": ("name", "count", "total_s"),
    "profile_stack": ("stack", "count"),
}


def _to_plain(obj: Any) -> Any:
    """JSON fallback: numpy scalars/arrays become plain Python values."""
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(
        f"ledger records must be plain JSON data, got "
        f"{type(obj).__name__}: {obj!r}")


def canonical_dumps(obj: Any) -> str:
    """Byte-deterministic JSON: sorted keys, compact, no NaN/Inf.

    Floats serialize via ``repr`` (shortest round-trip form — stable
    across processes and platforms for identical values); NaN and
    infinities are rejected rather than emitted as non-standard tokens,
    so every ledger line is strict JSON.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False, default=_to_plain)


def git_describe(cwd: Optional[str] = None) -> Optional[str]:
    """Best-effort ``git describe --always --dirty`` (None off a repo)."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10.0, cwd=cwd)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def make_run_id(cmd: str, args: Mapping[str, Any]) -> str:
    """Stable run id: content hash of the command + semantic args.

    ``args`` must contain only *semantic* inputs (seed, machine,
    scenario shape) — never ``--jobs``, cache settings or output paths —
    so the id is identical across execution shapes.
    """
    digest = stable_fingerprint({
        "cmd": cmd,
        "schema": LEDGER_SCHEMA,
        "args": {str(k): v for k, v in args.items()},
    })
    return f"run-{digest[:16]}"


class RunLedger:
    """Writer for one run's ledger (in-memory until :meth:`flush`).

    Records are append-only; :meth:`flush` atomically rewrites the file
    (temp file + ``os.replace``), so readers never observe a torn
    ledger and a crashed run leaves either the previous flush or
    nothing.  Used as a context manager, exit flushes and appends a
    ``run_end`` (status ``"error"`` when exiting on an exception).

    Parameters
    ----------
    path:
        Output file.  ``None`` keeps the ledger purely in memory (the
        CLI entry points use this when ``--ledger`` is not given and a
        library caller still wants the record list).
    cmd, args:
        Command name and its *semantic* arguments (see
        :func:`make_run_id`).
    machine:
        Optional machine-preset name recorded in ``run_start``.
    wall:
        Optional extra non-deterministic facts for the ``run_start``
        envelope (the CLI passes argv and the start timestamp).
    """

    def __init__(self, path: Optional[str], cmd: str,
                 args: Mapping[str, Any], machine: Optional[str] = None,
                 run_id: Optional[str] = None,
                 wall: Optional[Mapping[str, Any]] = None) -> None:
        self.path = path
        self.cmd = cmd
        self.run_id = run_id or make_run_id(cmd, args)
        self.records: List[Dict[str, Any]] = []
        self._finished = False
        start: Dict[str, Any] = {
            "event": "run_start",
            "schema": LEDGER_SCHEMA,
            "run_id": self.run_id,
            "cmd": cmd,
            "args": {str(k): v for k, v in sorted(args.items())},
            "git": git_describe(),
        }
        if machine is not None:
            start["machine"] = machine
        envelope = {"pid": os.getpid()}
        if wall:
            envelope.update(wall)
        start[ENVELOPE_KEY] = envelope
        self._append(start)

    # -- recording ----------------------------------------------------------
    def _append(self, record: Dict[str, Any]) -> None:
        if self._finished:
            raise ValueError("ledger already finished (run_end recorded)")
        # Serialize eagerly so malformed records fail at the call site,
        # not at flush time far from the bug.
        canonical_dumps(record)
        self.records.append(record)

    def event(self, kind: str, *, volatile: bool = False,
              wall: Optional[Mapping[str, Any]] = None,
              **fields: Any) -> Dict[str, Any]:
        """Append one record; returns it (already validated as JSON)."""
        record: Dict[str, Any] = {"event": kind, **fields}
        if volatile:
            record[VOLATILE_KEY] = True
        if wall:
            record[ENVELOPE_KEY] = dict(wall)
        self._append(record)
        return record

    def metrics(self, snapshot: Mapping[str, Any],
                name: str = "metrics") -> None:
        """Record a :meth:`MetricsRegistry.to_dict` snapshot."""
        self.event("metrics", name=name, snapshot=dict(snapshot))

    def cache_events(self, cache: Any) -> None:
        """Record a :class:`~repro.par.cache.ResultCache`'s activity.

        One ``cache`` summary record (hit/miss/store/corrupt/repair
        counts and the derived hit rate) plus one ``cache_corrupt`` /
        ``cache_repair`` record per corrupt on-disk entry — a corrupt
        read is never just a silent miss in the ledger.  All of these
        are **volatile**: cache behaviour is a fact about the execution
        (warm vs cold, interrupted vs not), never about the result, so
        it must not move the deterministic fingerprint.
        """
        stats = cache.stats()
        self.event("cache", volatile=True, **stats)
        for ev in getattr(cache, "events", ()):
            if ev.get("op") == "corrupt":
                self.event("cache_corrupt", volatile=True, key=ev["key"])
            elif ev.get("op") == "repair":
                self.event("cache_repair", volatile=True, key=ev["key"])

    def sweep(self, stats: Any, name: str = "sweep") -> None:
        """Record a :class:`~repro.par.SweepStats`: totals + fleet.

        The shard total is deterministic.  Executed/cache-hit counts,
        the worker count, chunking and per-chunk heartbeats depend on
        the execution shape (worker count, cache warmth, whether the
        run was resumed) and live in volatile records or the wall
        envelope, and so does ``sweep_resume`` — how many shards a
        resumed run restored rather than executed.
        """
        self.event(name, tasks=stats.tasks,
                   wall={"executed": stats.executed,
                         "cache_hits": stats.cache_hits})
        self.event("fleet", volatile=True, jobs=stats.jobs,
                   chunks=stats.chunks,
                   stragglers=[ev["chunk"] for ev in stats.stragglers()])
        for ev in stats.worker_events:
            fields = {k: v for k, v in ev.items()
                      if k not in ("wall_s", "pid")}
            self.event("heartbeat", volatile=True,
                       wall={"wall_s": ev.get("wall_s"),
                             "pid": ev.get("pid")},
                       **fields)
        if stats.resumed:
            self.event("sweep_resume", volatile=True, done=stats.resumed,
                       tasks=stats.tasks)

    def span_summaries(self, tracer: Any, top: int = 0) -> None:
        """Record per-(track-kind, name) span aggregates of a tracer.

        Uses :func:`repro.obs.analysis.hotspots`; ``top=0`` records all
        rows.  Virtual-time totals are deterministic, so these records
        live in the deterministic section.
        """
        from repro.obs.analysis import hotspots

        rows = hotspots(tracer, top=top or None)
        for row in rows:
            self.event("span_summary", name=row["name"], kind=row["kind"],
                       count=row["count"], total_s=row["total_s"])

    # -- lifecycle ----------------------------------------------------------
    def finish(self, status: str = "ok", **fields: Any) -> None:
        """Append the ``run_end`` record and flush."""
        record: Dict[str, Any] = {"event": "run_end", "status": status,
                                  **fields}
        self._append(record)
        self._finished = True
        self.flush()

    def flush(self) -> None:
        """Atomically (re)write all records to :attr:`path`."""
        if self.path is None:
            return
        buf = io.StringIO()
        for record in self.records:
            buf.write(canonical_dumps(record))
            buf.write("\n")
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        tmp = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(buf.getvalue())
        os.replace(tmp, self.path)

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._finished:
            if exc_type is None:
                self.finish("ok")
            else:
                self.finish("error", error=f"{exc_type.__name__}: {exc}")
        return False


# ---------------------------------------------------------------------------
# Reading, validation, determinism
# ---------------------------------------------------------------------------
def read_ledger(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL ledger file into its record list."""
    records: List[Dict[str, Any]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON ({exc})") from None
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{lineno}: ledger lines must be JSON objects, "
                    f"got {type(record).__name__}")
            records.append(record)
    return records


def split_runs(records: Iterable[Mapping[str, Any]]
               ) -> List[List[Dict[str, Any]]]:
    """Split a (possibly concatenated) record stream into runs."""
    runs: List[List[Dict[str, Any]]] = []
    for record in records:
        if record.get("event") == "run_start" or not runs:
            runs.append([])
        runs[-1].append(dict(record))
    return runs


def validate_ledger(records: Iterable[Mapping[str, Any]]) -> int:
    """Validate records against the ledger schema; returns run count.

    Raises ``ValueError`` with a specific message on the first
    violation.  The structural rules mirror
    :func:`ledger_json_schema`; known event kinds additionally require
    their fields.
    """
    runs = split_runs(records)
    if not runs:
        raise ValueError("ledger holds no records")
    for run_no, run in enumerate(runs):
        where = f"run {run_no}"
        head = run[0]
        if head.get("event") != "run_start":
            raise ValueError(f"{where}: first record must be run_start, "
                             f"got {head.get('event')!r}")
        if head.get("schema") != LEDGER_SCHEMA:
            raise ValueError(
                f"{where}: unsupported ledger schema "
                f"{head.get('schema')!r} (expected {LEDGER_SCHEMA})")
        for i, record in enumerate(run):
            kind = record.get("event")
            if not isinstance(kind, str) or not kind:
                raise ValueError(
                    f"{where}, record {i}: missing 'event' kind")
            if kind == "run_start" and i != 0:
                raise ValueError(
                    f"{where}, record {i}: run_start not at run head")
            if kind == "run_end" and i != len(run) - 1:
                raise ValueError(
                    f"{where}, record {i}: run_end before end of run")
            vol = record.get(VOLATILE_KEY, False)
            if not isinstance(vol, bool):
                raise ValueError(
                    f"{where}, record {i}: {VOLATILE_KEY!r} must be a "
                    f"boolean, got {vol!r}")
            env = record.get(ENVELOPE_KEY)
            if env is not None and not isinstance(env, dict):
                raise ValueError(
                    f"{where}, record {i}: {ENVELOPE_KEY!r} must be an "
                    f"object, got {type(env).__name__}")
            for field_name in _REQUIRED_FIELDS.get(kind, ()):
                if field_name not in record:
                    raise ValueError(
                        f"{where}, record {i} ({kind}): missing required "
                        f"field {field_name!r}")
        if run[-1].get("event") != "run_end":
            raise ValueError(
                f"{where}: last record must be run_end, got "
                f"{run[-1].get('event')!r} (truncated ledger?)")
    return len(runs)


def deterministic_view(records: Iterable[Mapping[str, Any]]
                       ) -> List[Dict[str, Any]]:
    """The deterministic subset: drop volatile records and envelopes."""
    view: List[Dict[str, Any]] = []
    for record in records:
        if record.get(VOLATILE_KEY):
            continue
        view.append({k: v for k, v in record.items()
                     if k not in (ENVELOPE_KEY, VOLATILE_KEY)})
    return view


def ledger_fingerprint(records_or_path: Any) -> str:
    """SHA-256 over the canonical deterministic view of a ledger.

    Two runs of the same experiment — at any ``--jobs`` level, with a
    result cache in *any* state, interrupted-and-resumed or not — have
    equal fingerprints.  Accepts a path or an already-parsed record
    list.
    """
    import hashlib

    if isinstance(records_or_path, (str, os.PathLike)):
        records = read_ledger(os.fspath(records_or_path))
    else:
        records = list(records_or_path)
    h = hashlib.sha256()
    for record in deterministic_view(records):
        h.update(canonical_dumps(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def ledger_json_schema() -> Dict[str, Any]:
    """Declarative JSON Schema (draft-07 subset) for one ledger line.

    The repo carries no ``jsonschema`` dependency — this object is the
    documentation-of-record (rendered in ``docs/observability.md``) and
    a contract external validators can consume; :func:`validate_ledger`
    is the built-in enforcement of the same rules.
    """
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "title": f"repro run-ledger record (schema {LEDGER_SCHEMA})",
        "type": "object",
        "required": ["event"],
        "properties": {
            "event": {"type": "string", "minLength": 1},
            VOLATILE_KEY: {"type": "boolean"},
            ENVELOPE_KEY: {
                "type": "object",
                "description": "declared non-deterministic envelope "
                               "(wall clocks, pids, hosts); stripped by "
                               "deterministic_view()",
            },
        },
        "allOf": [
            {
                "if": {"properties": {"event": {"const": kind}}},
                "then": {"required": list(("event",) + fields)},
            }
            for kind, fields in sorted(_REQUIRED_FIELDS.items())
        ],
    }
