"""Content-addressed result cache for sweep shards.

A sweep shard (one chaos scenario x strategy run, one figure panel, one
scenario model sweep, ...) is a pure function of its inputs: machine
constants, pattern content, strategy label, seed and fault plan.  The
cache keys shards by a **stable content hash** of exactly those inputs
plus :data:`CACHE_SCHEMA` (the "code version" component — bump it when
simulator semantics change and every stale entry invalidates at once).

Two tiers:

* an **in-memory** dict, always on — repeated sweeps inside one process
  hit it for free;
* an optional **on-disk** tier (``directory=...``), one pickle file per
  key under ``<dir>/<key[:2]>/<key>.pkl`` with atomic writes, so
  re-running a figure grid or chaos sweep across processes skips
  completed shards.  The default location is ``.repro-cache/`` (or
  ``$REPRO_CACHE_DIR``); both are gitignored.

Keys are built with :func:`cache_key`, values must be picklable.  Array
payloads are hashed in place, never copied.  ``tests/par/test_cache.py``
pins the encoding with literal digests: any change to the bytes
:func:`stable_fingerprint` hashes must bump :data:`CACHE_SCHEMA`.  The
disk tier is written by the *parent* process only (the executor gathers
results first), so no cross-process write coordination is needed.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
import struct
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: cache schema / code version — part of every key; bump to invalidate
#: all previously stored shard results (e.g. when simulator cost
#: semantics change in a way that alters shard outputs).
#: 2: chaos shards gained a per-cell ``phases`` profile.
CACHE_SCHEMA = 2

#: environment variable overriding the default on-disk cache location
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: default on-disk tier location (relative to the working directory)
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> str:
    """Resolve the on-disk tier directory (env override or default)."""
    return os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR


# ---------------------------------------------------------------------------
# Stable fingerprinting
# ---------------------------------------------------------------------------
def _unsupported(obj: Any) -> TypeError:
    return TypeError(
        f"cannot fingerprint {type(obj).__name__!r} value {obj!r}; "
        f"pass plain data (numbers, strings, arrays, dataclasses, "
        f"containers)")


def _encoded(obj: Any) -> bytes:
    """The whole encoding of ``obj`` as one bytes object (for sorting)."""
    out = bytearray()
    _write(obj, out)
    return bytes(out)


def _write(obj: Any, out: bytearray, h: Any = None) -> None:
    """Append a canonical, type-tagged byte encoding of ``obj`` to ``out``.

    Collision-resistant across types (every value is tagged), stable
    across processes and Python versions (no ``hash()``, no ``repr`` of
    floats, no object-dtype arrays, whose bytes are pointers), and
    insensitive to dict insertion order.  With ``h``, the hash that
    ``out`` feeds, an array payload goes to ``h`` straight from the
    array's buffer once the pending bytes in ``out`` are flushed to it,
    so it is never copied.  Dict keys and set items are encoded whole,
    without ``h``: their encodings are sorted.
    """
    if obj is None:
        out += b"N"
    elif isinstance(obj, bool):
        out += b"b1" if obj else b"b0"
    elif isinstance(obj, int):
        out += b"i" + str(obj).encode()
    elif isinstance(obj, float):
        out += b"f" + struct.pack(">d", obj)
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out += b"s" + str(len(raw)).encode() + b":" + raw
    elif isinstance(obj, bytes):
        out += b"y" + str(len(obj)).encode() + b":" + obj
    elif isinstance(obj, enum.Enum):
        out += b"e" + type(obj).__name__.encode() + b"." + obj.name.encode()
    elif isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            raise _unsupported(obj)
        arr = np.ascontiguousarray(obj)
        out += (b"a" + arr.dtype.str.encode() + b"|"
                + str(arr.shape).encode() + b"|")
        if h is not None:
            h.update(out)
            out.clear()
            h.update(arr)  # C-contiguous: hashes the buffer, no copy
        else:
            out += arr.tobytes()
    elif isinstance(obj, np.generic):
        _write(obj.item(), out, h)
    elif isinstance(obj, (list, tuple)):
        out += b"(" if isinstance(obj, tuple) else b"["
        for item in obj:
            _write(item, out, h)
            out += b","
        out += b")" if isinstance(obj, tuple) else b"]"
    elif isinstance(obj, (set, frozenset)):
        out += b"{"
        for blob in sorted(_encoded(item) for item in obj):
            out += blob
            out += b","
        out += b"}"
    elif isinstance(obj, dict):
        out += b"<"
        pairs = sorted(((_encoded(k), v) for k, v in obj.items()),
                       key=lambda pair: pair[0])
        if len({kb for kb, _v in pairs}) == len(pairs):
            for kb, v in pairs:
                out += kb
                out += b"="
                _write(v, out, h)
                out += b";"
        else:
            # distinct keys with one encoding (two NaNs): the value's
            # encoding breaks the tie
            for kb, vb in sorted((kb, _encoded(v)) for kb, v in pairs):
                out += kb + b"=" + vb + b";"
        out += b">"
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out += b"D" + type(obj).__qualname__.encode() + b"("
        for f in dataclasses.fields(obj):
            out += f.name.encode() + b"="
            _write(getattr(obj, f.name), out, h)
            out += b","
        out += b")"
    else:
        raise _unsupported(obj)


def stable_fingerprint(obj: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``obj``."""
    h = hashlib.sha256()
    out = bytearray()
    _write(obj, out, h)
    h.update(out)
    return h.hexdigest()


def cache_key(kind: str, **parts: Any) -> str:
    """Content hash of one shard's inputs.

    ``kind`` namespaces the shard family (``"chaos-shard"``,
    ``"fig4_3-panel"``, ...); ``parts`` are the inputs the shard is a
    pure function of.  :data:`CACHE_SCHEMA` is always mixed in, so
    bumping it invalidates every existing entry.
    """
    return stable_fingerprint({
        "kind": kind,
        "schema": CACHE_SCHEMA,
        "parts": parts,
    })


# ---------------------------------------------------------------------------
# The cache proper
# ---------------------------------------------------------------------------
class ResultCache:
    """Two-tier (memory + optional disk) content-addressed result store.

    Parameters
    ----------
    directory:
        On-disk tier root.  ``None`` disables the disk tier (memory
        only); pass :func:`default_cache_dir` for the standard
        ``.repro-cache/`` location.

    Counters (``hits``, ``misses``, ``stores``, ``disk_hits``,
    ``corrupt``) make cache behaviour assertable in tests: a warm
    re-run of a sweep must show ``misses == 0``.  Every lookup/store
    also appends an **event** ``{"op":
    "hit"|"miss"|"store"|"corrupt"|"repair", "key": <stable
    fingerprint>, "tier": "memory"|"disk"|None}`` to :attr:`events`, so
    the run ledger can attribute cache behaviour to specific shard
    fingerprints — in particular, a corrupt on-disk entry (present but
    unreadable) is distinguished from an ordinary miss instead of being
    silently folded into miss-only accounting, and is **deleted on
    detection** (a ``repair`` event + the ``repaired`` counter) so it
    costs one recompute instead of re-failing on every lookup.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory
        self._memory: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.disk_hits = 0
        self.corrupt = 0
        self.repaired = 0
        self.events: List[Dict[str, Any]] = []

    @classmethod
    def with_disk(cls, directory: Optional[str] = None) -> "ResultCache":
        """A cache whose disk tier lives at ``directory`` (or default)."""
        return cls(directory=directory or default_cache_dir())

    def _path(self, key: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, key[:2], key + ".pkl")

    def lookup(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)`` — value is ``None`` on a miss.

        A disk entry that exists but cannot be read back (truncated
        write, unpicklable payload, stale class) counts as **corrupt**,
        not merely as a miss: the ``corrupt`` counter advances and a
        ``{"op": "corrupt"}`` event is recorded before the shard is
        recomputed, so the run ledger can surface a ``cache_corrupt``
        record instead of silent miss-only accounting.
        """
        if key in self._memory:
            self.hits += 1
            self.events.append({"op": "hit", "key": key, "tier": "memory"})
            return True, self._memory[key]
        if self.directory is not None:
            path = self._path(key)
            try:
                with open(path, "rb") as fh:
                    value = pickle.load(fh)
            except FileNotFoundError:
                pass  # absent -> ordinary miss (recomputed below)
            except (OSError, pickle.PickleError, EOFError,
                    AttributeError, ImportError, ValueError):
                # present but unreadable -> corrupt, then miss
                self.corrupt += 1
                self.events.append(
                    {"op": "corrupt", "key": key, "tier": "disk"})
                # repair: delete the entry so it re-fails exactly once
                # (the recomputed value's put() rewrites it) instead of
                # surfacing as cache_corrupt on every future lookup
                try:
                    os.remove(path)
                except OSError:
                    pass  # already gone, or unremovable -> next put fixes
                else:
                    self.repaired += 1
                    self.events.append(
                        {"op": "repair", "key": key, "tier": "disk"})
            else:
                self._memory[key] = value
                self.hits += 1
                self.disk_hits += 1
                self.events.append(
                    {"op": "hit", "key": key, "tier": "disk"})
                return True, value
        self.misses += 1
        self.events.append({"op": "miss", "key": key, "tier": None})
        return False, None

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` in both tiers (atomic disk write)."""
        self._memory[key] = value
        self.stores += 1
        self.events.append({
            "op": "store", "key": key,
            "tier": "memory" if self.directory is None else "disk",
        })
        if self.directory is not None:
            path = self._path(key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = path + f".tmp.{os.getpid()}"
            with open(tmp, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)

    def __len__(self) -> int:
        return len(self._memory)

    def clear_memory(self) -> None:
        """Drop the in-memory tier (disk entries survive)."""
        self._memory.clear()

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either tier (0.0 when idle)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "disk_hits": self.disk_hits,
            "corrupt": self.corrupt,
            "repaired": self.repaired,
            "hit_rate": self.hit_rate,
        }
