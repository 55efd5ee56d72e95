"""Message records: the unit of data every strategy routes.

A :class:`Record` is one contiguous piece of a GPU-to-GPU message:

``(src_gpu, dest_gpu, offset, values)``

where ``offset`` is the element position of ``values`` within the full
``src_gpu -> dest_gpu`` message.  Whole messages are single records at
offset 0; the Split strategies slice records at element boundaries to
respect the message cap, and receivers reassemble with
:func:`assemble` using the offsets.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np


class Record:
    """One contiguous slice of a GPU-to-GPU message (never mutated)."""

    __slots__ = ("src_gpu", "dest_gpu", "offset", "values")

    def __init__(self, src_gpu: int, dest_gpu: int, offset: int,
                 values: np.ndarray) -> None:
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        self.src_gpu = src_gpu
        self.dest_gpu = dest_gpu
        self.offset = offset
        self.values = values

    @property
    def nbytes(self) -> int:
        return int(self.values.nbytes)

    @property
    def n(self) -> int:
        return len(self.values)

    def split_at(self, n_elems: int) -> Tuple["Record", "Record"]:
        """Split into a head of ``n_elems`` elements and the remainder."""
        if not 0 < n_elems < self.n:
            raise ValueError(
                f"split point {n_elems} outside (0, {self.n})"
            )
        head = Record(self.src_gpu, self.dest_gpu, self.offset,
                      self.values[:n_elems])
        tail = Record(self.src_gpu, self.dest_gpu, self.offset + n_elems,
                      self.values[n_elems:])
        return head, tail


def records_nbytes(records: Iterable[Record]) -> int:
    """Total payload bytes across records (the wire size we charge)."""
    return sum(r.nbytes for r in records)


def chunk_records(records: Sequence[Record], cap_bytes: int,
                  itemsize: int = 8) -> List[List[Record]]:
    """Greedily pack records into chunks of at most ``cap_bytes`` each.

    Records larger than the remaining chunk space are split at element
    boundaries (Algorithm 1 line 17).  Every produced chunk except
    possibly the last is exactly ``cap_bytes`` when the input exceeds
    the cap; order is preserved.
    """
    if cap_bytes < itemsize:
        raise ValueError(
            f"cap_bytes={cap_bytes} below element size {itemsize}"
        )
    cap_elems = cap_bytes // itemsize
    chunks: List[List[Record]] = []
    current: List[Record] = []
    room = cap_elems
    queue = list(records)
    i = 0
    while i < len(queue):
        rec = queue[i]
        if rec.n == 0:
            i += 1
            continue
        if rec.n <= room:
            current.append(rec)
            room -= rec.n
            i += 1
        else:
            if room > 0:
                head, tail = rec.split_at(room)
                current.append(head)
                queue[i] = tail
            chunks.append(current)
            current = []
            room = cap_elems
    if current:
        chunks.append(current)
    return chunks


def assemble(records: Iterable[Record],
             expected_lengths: Dict[int, int],
             dest_gpu: int,
             dtype=np.float64) -> Dict[int, np.ndarray]:
    """Reassemble full per-source messages from (possibly split) records.

    Parameters
    ----------
    records:
        All records delivered to ``dest_gpu``.
    expected_lengths:
        ``{src_gpu: total element count}`` the destination expects.
    dest_gpu:
        Sanity-checked against each record's ``dest_gpu``.

    Returns
    -------
    ``{src_gpu: full message array}``.  Raises if records overlap,
    leave gaps, or address the wrong destination.  Handed exactly one
    whole message per expected source (what every strategy but Split
    delivers) the result holds the records' own arrays, not copies.
    """
    records = list(records)
    whole: Dict[int, np.ndarray] = dict.fromkeys(expected_lengths)
    want = np.dtype(dtype)
    for rec in records:
        values = rec.values
        src = rec.src_gpu
        if (rec.offset or rec.dest_gpu != dest_gpu
                or len(values) != expected_lengths.get(src)
                or whole[src] is not None
                or values.dtype != want):
            break  # not whole messages: copy, sweep and diagnose below
        whole[src] = values
    else:
        if len(records) == len(whole):
            return whole
    out = {src: np.empty(length, dtype=dtype)
           for src, length in expected_lengths.items()}
    #: per source, the ``[lo, hi)`` element ranges written so far
    written: Dict[int, List[Tuple[int, int]]] = {src: [] for src in out}
    for rec in records:
        if rec.dest_gpu != dest_gpu:
            raise ValueError(
                f"record for gpu {rec.dest_gpu} delivered to gpu {dest_gpu}"
            )
        src = rec.src_gpu
        buf = out.get(src)
        if buf is None:
            raise ValueError(
                f"unexpected source gpu {src} at gpu {dest_gpu}"
            )
        lo = rec.offset
        hi = lo + len(rec.values)
        if hi > len(buf):
            raise ValueError(
                f"record [{lo}:{hi}) overruns message of "
                f"{len(buf)} elements from gpu {src}"
            )
        if hi > lo:
            buf[lo:hi] = rec.values
            written[src].append((lo, hi))
    # Coverage: sweep each source's ranges in offset order; every element
    # must be written exactly once.  Overlaps are reported before gaps.
    gap = None
    for src, ranges in written.items():
        ranges.sort()
        end = missing = 0
        for lo, hi in ranges:
            if lo < end:
                raise ValueError(
                    f"overlapping records from gpu {src} at gpu {dest_gpu}"
                )
            missing += lo - end
            end = hi
        missing += len(out[src]) - end
        if missing and gap is None:
            gap = (src, missing)
    if gap is not None:
        raise ValueError(
            f"gpu {dest_gpu} missing data from gpu {gap[0]}: "
            f"{gap[1]} of {len(out[gap[0]])} elements"
        )
    return out


class NodeRecord:
    """One contiguous slice of a deduplicated GPU-to-*node* message.

    Node-aware strategies eliminate the data redundancy of standard
    communication (paper Figure 2.2) by sending, per (source GPU,
    destination node), the *union* of the entries any GPU on that node
    needs — exactly once.  ``values`` is a slice of that union stream
    starting at element ``offset``; :func:`expand_node_record` fans a
    slice back out into per-destination-GPU :class:`Record` pieces using
    the union position maps computed at plan time.
    """

    __slots__ = ("src_gpu", "dest_node", "offset", "values")

    def __init__(self, src_gpu: int, dest_node: int, offset: int,
                 values: np.ndarray) -> None:
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        self.src_gpu = src_gpu
        self.dest_node = dest_node
        self.offset = offset
        self.values = values

    @property
    def nbytes(self) -> int:
        return int(self.values.nbytes)

    @property
    def n(self) -> int:
        return len(self.values)


def expand_node_record(rec: NodeRecord,
                       positions: Dict[int, np.ndarray]) -> List[Record]:
    """Fan a union-stream slice out into per-destination records.

    ``positions[dest_gpu]`` holds the (sorted) positions of that GPU's
    needed entries within the full union stream.  For the slice
    ``[offset, offset + n)`` each destination's overlapping positions
    become one :class:`Record` whose offset is the destination-local
    element index of the first overlapping entry — so reassembly via
    :func:`assemble` works even when the union stream was split
    arbitrarily (Split's message cap).

    A slice that starts at the head of the stream (every node record
    but Split's later chunks) has nothing before it: the overlap starts
    at a destination's first entry, and when its last position lies
    inside the slice the overlap is the whole map — no search at all.
    """
    values = rec.values
    lo = rec.offset
    hi = lo + len(values)
    src_gpu = rec.src_gpu
    out: List[Record] = []
    for dest_gpu, pos in positions.items():
        if lo == 0:
            if len(pos) and pos[-1] < hi:
                out.append(Record(src_gpu, dest_gpu, 0, values[pos]))
                continue
            k0 = 0
        else:
            k0 = int(pos.searchsorted(lo))
        k1 = pos.searchsorted(hi)
        if k0 == k1:
            continue
        out.append(Record(src_gpu, dest_gpu, k0, values[pos[k0:k1] - lo]))
    return out


def node_records_nbytes(records: Iterable[NodeRecord]) -> int:
    """Total payload bytes across node records."""
    return sum(r.nbytes for r in records)


def group_by(records: Iterable[Record], key: str) -> Dict[int, List[Record]]:
    """Group records by ``"src_gpu"`` or ``"dest_gpu"`` (order-stable)."""
    if key not in ("src_gpu", "dest_gpu"):
        raise ValueError(f"key must be 'src_gpu' or 'dest_gpu', got {key!r}")
    out: Dict[int, List[Record]] = {}
    for rec in records:
        out.setdefault(getattr(rec, key), []).append(rec)
    return out
