"""Versioned on-disk atlas artifact.

One atlas is one file::

    RPRATLAS <canonical-JSON header>\\n<raw little-endian float64 tensor>

The header carries the schema version, machine name, grid axes, model
labels, the **winner-run-length encoding** of the crossover surface
(runs of ``[length, strategy_index]`` over the C-order flattened grid —
regime maps are large constant patches separated by thin frontiers, so
this is far smaller than a dense label grid), and the shape/dtype/
SHA-256 of the per-strategy time tensor that follows.  The tensor is
needed at query time for runner-up margins; the winners are derivable
from it (``argmin`` over strategies) and the loader verifies the two
agree, so a corrupt encoding can never serve wrong winners silently.

Everything is byte-deterministic: the header is ``canonical_dumps``
(sorted keys, compact, ``repr``-exact floats), the payload is the raw
tensor bytes, and there are no timestamps — two builds of the same grid
produce identical files at any ``--jobs`` value.  Writes are atomic
(temp file + ``os.replace``).  Every malformed-file condition — wrong
magic, unsupported schema, torn header, truncated or corrupted payload
— reads as a clean :class:`AtlasFormatError` naming the expected
schema, never as a stray pickle/JSON/numpy traceback.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.atlas.grid import AtlasGridSpec
from repro.obs.ledger import canonical_dumps

#: artifact format version — part of the header *and* of every build
#: shard's cache key, so a schema bump invalidates stale artifacts and
#: stale cached shards at once
ATLAS_SCHEMA = 1

#: leading file magic (followed by one space, the header, one newline)
MAGIC = b"RPRATLAS"

#: tensor storage dtype (explicit little-endian for cross-platform
#: byte-identity)
_TENSOR_DTYPE = "<f8"


class AtlasFormatError(ValueError):
    """An atlas artifact could not be read (wrong magic/schema, torn or
    truncated file, corrupted payload).  Always names the schema this
    reader expects, so version mismatches are diagnosable from the
    message alone."""

    def __init__(self, path: str, problem: str) -> None:
        self.path = path
        super().__init__(
            f"{path}: {problem} (atlas schema {ATLAS_SCHEMA} reader)")


def encode_winner_runs(winners_idx: np.ndarray) -> List[List[int]]:
    """Run-length encode a winner-index grid (C-order flattening).

    Returns ``[[run_length, strategy_index], ...]`` covering every cell
    exactly once.  The crossover *frontier* is precisely the set of run
    boundaries — regime patches compress to one run each.
    """
    flat = np.asarray(winners_idx).reshape(-1)
    if flat.size == 0:
        return []
    change = np.flatnonzero(np.diff(flat)) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [flat.size]))
    return [[int(e - s), int(flat[s])] for s, e in zip(starts, ends)]


def decode_winner_runs(runs: List[List[int]], shape: Tuple[int, ...],
                       ) -> np.ndarray:
    """Inverse of :func:`encode_winner_runs` (validates coverage)."""
    total = int(np.prod(shape)) if shape else 0
    counts = [int(r[0]) for r in runs]
    if sum(counts) != total:
        raise ValueError(
            f"winner runs cover {sum(counts)} cells, grid has {total}")
    flat = np.repeat(np.asarray([int(r[1]) for r in runs], dtype=np.int64),
                     counts)
    return flat.reshape(shape)


@dataclass
class Atlas:
    """One machine's precomputed best-strategy frontier.

    ``times`` has shape ``(len(labels),) + spec.shape`` — the modelled
    time of every strategy at every grid cell, bit-identical to the
    costing kernel's output for that cell.  ``winners_idx`` is its argmin
    over the strategy axis (ties to the earliest label, matching
    :func:`~repro.models.scenarios.best_strategy`).
    """

    machine: str
    spec: AtlasGridSpec
    labels: List[str]
    times: np.ndarray
    winners_idx: np.ndarray

    def __post_init__(self) -> None:
        expected = (len(self.labels),) + self.spec.shape
        if tuple(self.times.shape) != expected:
            raise ValueError(
                f"times tensor shape {self.times.shape} != "
                f"(labels,)+grid {expected}")
        if tuple(self.winners_idx.shape) != self.spec.shape:
            raise ValueError(
                f"winners_idx shape {self.winners_idx.shape} != grid "
                f"{self.spec.shape}")

    @property
    def cells(self) -> int:
        return self.spec.cells

    def frontier_cells(self) -> int:
        """Number of run boundaries in the winner encoding — a compact
        proxy for how much crossover structure the machine exhibits."""
        return max(0, len(encode_winner_runs(self.winners_idx)) - 1)

    def winner_counts(self) -> Dict[str, int]:
        """Cells won per strategy label (only strategies that win)."""
        idx, counts = np.unique(self.winners_idx, return_counts=True)
        return {self.labels[int(i)]: int(c) for i, c in zip(idx, counts)}


def save_atlas(atlas: Atlas, path: str) -> Dict[str, Any]:
    """Write ``atlas`` to ``path`` atomically; returns the header."""
    tensor = np.ascontiguousarray(atlas.times, dtype=_TENSOR_DTYPE)
    payload = tensor.tobytes()
    header = {
        "schema": ATLAS_SCHEMA,
        "machine": atlas.machine,
        "axes": atlas.spec.to_dict(),
        "labels": list(atlas.labels),
        "winners_rle": encode_winner_runs(atlas.winners_idx),
        "tensor": {
            "dtype": _TENSOR_DTYPE,
            "shape": list(tensor.shape),
            "nbytes": len(payload),
            "sha256": hashlib.sha256(payload).hexdigest(),
        },
    }
    blob = MAGIC + b" " + canonical_dumps(header).encode() + b"\n" + payload
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)
    return header


def read_header(path: str) -> Dict[str, Any]:
    """Parse and validate just the header line of an artifact."""
    with open(path, "rb") as fh:
        head = fh.readline()
    return _parse_header(path, head)


def _parse_header(path: str, head: bytes) -> Dict[str, Any]:
    if not head.startswith(MAGIC + b" "):
        raise AtlasFormatError(path, "not an atlas artifact (bad magic)")
    if not head.endswith(b"\n"):
        raise AtlasFormatError(path, "torn header (no terminating newline)")
    try:
        header = json.loads(head[len(MAGIC) + 1:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise AtlasFormatError(path, f"unreadable header ({exc})") from None
    if not isinstance(header, dict):
        raise AtlasFormatError(path, "header is not a JSON object")
    schema = header.get("schema")
    if schema != ATLAS_SCHEMA:
        raise AtlasFormatError(
            path, f"unsupported atlas schema {schema!r} "
                  f"(this reader expects {ATLAS_SCHEMA})")
    for key in ("machine", "axes", "labels", "winners_rle", "tensor"):
        if key not in header:
            raise AtlasFormatError(path, f"header missing {key!r}")
    return header


def load_atlas(path: str) -> Atlas:
    """Read an artifact back; inverse of :func:`save_atlas`."""
    with open(path, "rb") as fh:
        head = fh.readline()
        header = _parse_header(path, head)
        payload = fh.read()
    tensor_meta = header["tensor"]
    nbytes = int(tensor_meta["nbytes"])
    if len(payload) != nbytes:
        raise AtlasFormatError(
            path, f"truncated payload: {len(payload)} bytes on disk, "
                  f"header promises {nbytes}")
    digest = hashlib.sha256(payload).hexdigest()
    if digest != tensor_meta["sha256"]:
        raise AtlasFormatError(
            path, f"payload checksum mismatch ({digest[:12]}… != "
                  f"{tensor_meta['sha256'][:12]}…)")
    if tensor_meta["dtype"] != _TENSOR_DTYPE:
        raise AtlasFormatError(
            path, f"unsupported tensor dtype {tensor_meta['dtype']!r}")
    try:
        spec = AtlasGridSpec.from_dict(header["axes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise AtlasFormatError(path, f"invalid grid axes ({exc})") from None
    labels = [str(label) for label in header["labels"]]
    shape = tuple(int(s) for s in tensor_meta["shape"])
    if shape != (len(labels),) + spec.shape:
        raise AtlasFormatError(
            path, f"tensor shape {shape} disagrees with labels+axes "
                  f"{(len(labels),) + spec.shape}")
    times = np.frombuffer(payload, dtype=_TENSOR_DTYPE).reshape(shape).copy()
    try:
        winners_idx = decode_winner_runs(header["winners_rle"], spec.shape)
    except (TypeError, ValueError, IndexError) as exc:
        raise AtlasFormatError(
            path, f"invalid winner encoding ({exc})") from None
    if winners_idx.size and (winners_idx.min() < 0
                             or winners_idx.max() >= len(labels)):
        raise AtlasFormatError(path, "winner index out of label range")
    if not np.array_equal(winners_idx, np.argmin(times, axis=0)):
        raise AtlasFormatError(
            path, "winner encoding disagrees with the time tensor's "
                  "argmin — corrupt artifact")
    return Atlas(machine=str(header["machine"]), spec=spec, labels=labels,
                 times=times, winners_idx=winners_idx)
