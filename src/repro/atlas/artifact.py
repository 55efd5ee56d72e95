"""Versioned on-disk atlas artifact.

One atlas is one file::

    RPRATLAS <canonical-JSON header>\\n<raw little-endian float64 tensor>

The header carries the schema version, machine name, grid axes, model
labels, the shape/dtype/SHA-256 of the per-strategy time tensor that
follows, and ``header_sha256`` — the SHA-256 of the header's own
canonical JSON without that field.  The tensor is the whole content:
winners are derived from it (:func:`~repro.models.decision.decide`
over the strategy axis), never stored beside it.

Everything is byte-deterministic: the header is ``canonical_dumps``
(sorted keys, compact, ``repr``-exact floats), the payload is the raw
tensor bytes, and there are no timestamps — two builds of the same grid
produce identical files at any ``--jobs`` value.  Writes are atomic
(temp file + ``os.replace``).  The loader checks the header digest
before it reads any other header field, then the payload digest, so
every malformed-file condition — wrong magic, unsupported schema, torn
or flipped header, truncated or corrupted payload — reads as a clean
:class:`AtlasFormatError` naming the expected schema, never as a stray
JSON/numpy traceback or a silently wrong label, machine or axis.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List

import numpy as np

from repro.atlas.grid import AtlasGridSpec
from repro.models.decision import decide
from repro.obs.ledger import canonical_dumps

#: artifact format version — part of the header *and* of every build
#: shard's cache key, so a schema bump invalidates stale artifacts and
#: stale cached shards at once
ATLAS_SCHEMA = 2

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


@dataclass
class Atlas:
    """One machine's precomputed best-strategy frontier.

    ``times`` has shape ``(len(labels),) + spec.shape`` — the modelled
    time of every strategy at every grid cell, bit-identical to the
    costing kernel's output for that cell.  ``winners_idx`` is derived
    from it by :func:`~repro.models.decision.decide` (ties to the
    earliest label, like :func:`~repro.models.scenarios.best_strategy`).
    """

    machine: str
    spec: AtlasGridSpec
    labels: List[str]
    times: np.ndarray

    def __post_init__(self) -> None:
        expected = (len(self.labels),) + self.spec.shape
        if tuple(self.times.shape) != expected:
            raise ValueError(
                f"times tensor shape {self.times.shape} != "
                f"(labels,)+grid {expected}")

    @property
    def cells(self) -> int:
        return self.spec.cells

    @cached_property
    def winners_idx(self) -> np.ndarray:
        """Winning label index per grid cell."""
        return decide(self.labels, self.times).winner_idx

    def frontier_cells(self) -> int:
        """Number of winner changes along the C-order flattened grid — a
        compact proxy for how much crossover structure the machine
        exhibits."""
        return int(np.count_nonzero(np.diff(self.winners_idx.reshape(-1))))

    def winner_counts(self) -> Dict[str, int]:
        """Cells won per strategy label (only strategies that win)."""
        idx, counts = np.unique(self.winners_idx, return_counts=True)
        return {self.labels[int(i)]: int(c) for i, c in zip(idx, counts)}


def _header_digest(header: Dict[str, Any]) -> str:
    """SHA-256 of the header's canonical JSON, its own digest left out."""
    body = {k: v for k, v in header.items() if k != "header_sha256"}
    return hashlib.sha256(canonical_dumps(body).encode()).hexdigest()


def save_atlas(atlas: Atlas, path: str) -> Dict[str, Any]:
    """Write ``atlas`` to ``path`` atomically; returns the header."""
    tensor = np.ascontiguousarray(atlas.times, dtype=_TENSOR_DTYPE)
    payload = tensor.tobytes()
    header = {
        "schema": ATLAS_SCHEMA,
        "machine": atlas.machine,
        "axes": atlas.spec.to_dict(),
        "labels": list(atlas.labels),
        "tensor": {
            "dtype": _TENSOR_DTYPE,
            "shape": list(tensor.shape),
            "nbytes": len(payload),
            "sha256": hashlib.sha256(payload).hexdigest(),
        },
    }
    header["header_sha256"] = _header_digest(header)
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
        digest = _header_digest(header) if isinstance(header, dict) else None
    except ValueError as exc:  # bad UTF-8 or JSON, or a NaN/inf number
        raise AtlasFormatError(path, f"unreadable header ({exc})") from None
    if digest is None:
        raise AtlasFormatError(path, "header is not a JSON object")
    # the digest goes first: a flipped header must not be read further
    claimed = header.get("header_sha256")
    if claimed is not None and claimed != digest:
        raise AtlasFormatError(path, "header checksum mismatch")
    schema = header.get("schema")
    if schema != ATLAS_SCHEMA:
        raise AtlasFormatError(
            path, f"unsupported atlas schema {schema!r} "
                  f"(this reader expects {ATLAS_SCHEMA})")
    for key in ("header_sha256", "machine", "axes", "labels", "tensor"):
        if key not in header:
            raise AtlasFormatError(path, f"header missing {key!r}")
    return header


def load_atlas(path: str) -> Atlas:
    """Read an artifact back; inverse of :func:`save_atlas`."""
    with open(path, "rb") as fh:
        head = fh.readline()
        header = _parse_header(path, head)
        payload = fh.read()
    try:  # a signed header can still come from a writer with a bug
        meta = header["tensor"]
        nbytes, expected = int(meta["nbytes"]), str(meta["sha256"])
        dtype, shape = meta["dtype"], tuple(int(s) for s in meta["shape"])
        spec = AtlasGridSpec.from_dict(header["axes"])
        labels = [str(label) for label in header["labels"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise AtlasFormatError(path, f"invalid header field ({exc})") from None
    if len(payload) != nbytes:
        raise AtlasFormatError(
            path, f"truncated payload: {len(payload)} bytes on disk, "
                  f"header promises {nbytes}")
    digest = hashlib.sha256(payload).hexdigest()
    if digest != expected:
        raise AtlasFormatError(
            path, f"payload checksum mismatch ({digest[:12]}… != "
                  f"{expected[:12]}…)")
    if dtype != _TENSOR_DTYPE:
        raise AtlasFormatError(path, f"unsupported tensor dtype {dtype!r}")
    if shape != (len(labels),) + spec.shape:
        raise AtlasFormatError(
            path, f"tensor shape {shape} disagrees with labels+axes "
                  f"{(len(labels),) + spec.shape}")
    times = np.frombuffer(payload, dtype=_TENSOR_DTYPE).reshape(shape).copy()
    return Atlas(machine=str(header["machine"]), spec=spec, labels=labels,
                 times=times)
