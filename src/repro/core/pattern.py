"""Irregular point-to-point communication patterns.

A :class:`CommPattern` describes, for every GPU, which elements of its
local vector must reach which other GPUs — exactly the structure a
distributed SpMV induces (Section 2.4), but usable for any irregular
exchange.  It is the single input every communication strategy consumes
and the source of the Table-7 quantities the analytic models need.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.machine.topology import JobLayout
from repro.models.pattern_summary import PatternSummary

SendMap = Dict[int, Dict[int, np.ndarray]]
#: ``(src_gpu, dest_node) -> (union_idx, {dest_gpu: positions})``
DedupMaps = Dict[Tuple[int, int], Tuple[np.ndarray, Dict[int, np.ndarray]]]


from dataclasses import dataclass


@dataclass(frozen=True)
class PatternStats:
    """Descriptive statistics of an irregular pattern on a layout."""

    messages: int
    total_bytes: int
    on_socket_messages: int
    on_node_messages: int
    off_node_messages: int
    on_node_bytes: int
    off_node_bytes: int
    min_message_bytes: int
    median_message_bytes: float
    max_message_bytes: int

    @property
    def off_node_fraction(self) -> float:
        """Fraction of bytes crossing the network."""
        total = self.on_node_bytes + self.off_node_bytes
        return self.off_node_bytes / total if total else 0.0


class CommPattern:
    """Per-GPU send lists for one irregular exchange.

    Parameters
    ----------
    num_gpus:
        Total GPUs participating (data owners).
    sends:
        ``sends[src_gpu][dest_gpu] = index array`` into the source GPU's
        local vector.  Self-messages are rejected; empty index arrays
        are dropped.
    itemsize:
        Bytes per element (8 for float64 vectors).
    """

    def __init__(self, num_gpus: int, sends: Mapping[int, Mapping[int, np.ndarray]],
                 itemsize: int = 8) -> None:
        if num_gpus < 1:
            raise ValueError(f"num_gpus must be >= 1, got {num_gpus}")
        if itemsize < 1:
            raise ValueError(f"itemsize must be >= 1, got {itemsize}")
        self.num_gpus = num_gpus
        self.itemsize = itemsize
        self._sends: SendMap = {}
        for src, dests in sends.items():
            if not 0 <= src < num_gpus:
                raise ValueError(f"source gpu {src} out of range")
            clean: Dict[int, np.ndarray] = {}
            for dest, idx in dests.items():
                if not 0 <= dest < num_gpus:
                    raise ValueError(f"dest gpu {dest} out of range")
                if dest == src:
                    raise ValueError(f"self-message on gpu {src}")
                arr = np.asarray(idx, dtype=np.int64)
                if arr.ndim != 1:
                    raise ValueError("index arrays must be 1-D")
                if len(arr) and not np.all(np.diff(arr) > 0):
                    raise ValueError(
                        f"index array gpu {src} -> gpu {dest} must be "
                        f"strictly increasing (sorted, unique) — required "
                        f"for duplicate-data elimination"
                    )
                if len(arr):
                    clean[dest] = arr
            if clean:
                self._sends[src] = clean
        # Reverse index: recvs[dest][src] = index array (into src's vector).
        self._recvs: SendMap = {}
        for src, dests in self._sends.items():
            for dest, idx in dests.items():
                self._recvs.setdefault(dest, {})[src] = idx
        #: ``gpus_per_node -> node_dedup`` maps (see :meth:`node_dedup`)
        self._dedup: Dict[int, DedupMaps] = {}

    # -- raw access ----------------------------------------------------------
    def sends_of(self, src_gpu: int) -> Dict[int, np.ndarray]:
        """``{dest_gpu: index array}`` for one source GPU."""
        return dict(self._sends.get(src_gpu, {}))

    def recvs_of(self, dest_gpu: int) -> Dict[int, np.ndarray]:
        """``{src_gpu: index array into the source's vector}``."""
        return dict(self._recvs.get(dest_gpu, {}))

    def message_elems(self, src_gpu: int, dest_gpu: int) -> int:
        return len(self._sends.get(src_gpu, {}).get(dest_gpu, ()))

    def message_nbytes(self, src_gpu: int, dest_gpu: int) -> int:
        return self.message_elems(src_gpu, dest_gpu) * self.itemsize

    def expected_recv_lengths(self, dest_gpu: int) -> Dict[int, int]:
        """``{src_gpu: element count}`` the destination expects."""
        return {src: len(idx) for src, idx in self._recvs.get(dest_gpu, {}).items()}

    @property
    def total_messages(self) -> int:
        return sum(len(d) for d in self._sends.values())

    @property
    def total_bytes(self) -> int:
        return sum(len(idx) * self.itemsize
                   for d in self._sends.values() for idx in d.values())

    def fingerprint(self) -> str:
        """Stable content hash of the pattern (for sweep cache keys).

        Two patterns fingerprint equal iff they compare :meth:`__eq__`
        equal: the hash covers ``num_gpus``, ``itemsize`` and every
        (src, dest, index-array) triple.
        """
        from repro.par.cache import stable_fingerprint

        return stable_fingerprint({
            "num_gpus": self.num_gpus,
            "itemsize": self.itemsize,
            "sends": {src: dict(dests)
                      for src, dests in self._sends.items()},
        })

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommPattern):
            return NotImplemented
        if (self.num_gpus, self.itemsize) != (other.num_gpus, other.itemsize):
            return False
        if set(self._sends) != set(other._sends):
            return False
        for src, dests in self._sends.items():
            if set(dests) != set(other._sends[src]):
                return False
            for dest, idx in dests.items():
                if not np.array_equal(idx, other._sends[src][dest]):
                    return False
        return True

    # -- node-level views ------------------------------------------------------
    def node_of_gpu(self, layout: JobLayout) -> List[int]:
        gpn = layout.machine.gpus_per_node
        if self.num_gpus > layout.num_gpus:
            raise ValueError(
                f"pattern spans {self.num_gpus} GPUs but the layout only "
                f"has {layout.num_gpus}"
            )
        return [g // gpn for g in range(self.num_gpus)]

    def node_pair_traffic(self, layout: JobLayout
                          ) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """``{(src_node, dst_node): (messages, bytes)}`` off-node only."""
        node_of = self.node_of_gpu(layout)
        out: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for src, dests in self._sends.items():
            for dest, idx in dests.items():
                sn, dn = node_of[src], node_of[dest]
                if sn == dn:
                    continue
                m, b = out.get((sn, dn), (0, 0))
                out[(sn, dn)] = (m + 1, b + len(idx) * self.itemsize)
        return out

    def off_node_gpus(self, layout: JobLayout, node: int) -> List[int]:
        """GPUs on ``node`` that send any off-node data."""
        node_of = self.node_of_gpu(layout)
        active = []
        for src, dests in self._sends.items():
            if node_of[src] != node:
                continue
            if any(node_of[d] != node for d in dests):
                active.append(src)
        return sorted(active)

    def node_dedup(self, layout: JobLayout) -> DedupMaps:
        """Duplicate-data elimination maps (paper Figure 2.2, right).

        For every off-node ``(src_gpu, dest_node)`` pair returns
        ``(union_idx, positions)`` where ``union_idx`` is the sorted
        union of source-local indices any GPU on the destination node
        needs, and ``positions[dest_gpu]`` the positions of that GPU's
        indices within the union stream.  Node-aware strategies send
        each union entry exactly once per node.
        """
        node_of = self.node_of_gpu(layout)  # also checks the layout's size
        # The maps depend on the layout only through its GPUs per node and
        # the pattern never changes, so they are computed once per value.
        # Callers get fresh containers around read-only arrays.
        gpn = layout.machine.gpus_per_node
        memo = self._dedup.get(gpn)
        if memo is None:
            per_pair: Dict[Tuple[int, int], Dict[int, np.ndarray]] = {}
            for src, dests in self._sends.items():
                for dest, idx in dests.items():
                    if node_of[dest] == node_of[src]:
                        continue
                    per_pair.setdefault((src, node_of[dest]), {})[dest] = idx
            memo = self._dedup[gpn] = {}
            for key, by_dest in per_pair.items():
                union = np.unique(np.concatenate(list(by_dest.values())))
                union.flags.writeable = False
                positions = {}
                for dest, idx in by_dest.items():
                    pos = positions[dest] = np.searchsorted(union, idx)
                    pos.flags.writeable = False
                memo[key] = (union, positions)
        return {key: (union, dict(positions))
                for key, (union, positions) in memo.items()}

    def dedup_node_bytes(self, layout: JobLayout) -> Dict[Tuple[int, int], int]:
        """Deduplicated bytes per off-node ``(src_gpu, dest_node)`` pair."""
        return {key: len(union) * self.itemsize
                for key, (union, _pos) in self.node_dedup(layout).items()}

    def summarize(self, layout: JobLayout) -> PatternSummary:
        """Table-7 quantities of the busiest node (model input)."""
        node_of = self.node_of_gpu(layout)
        num_nodes = max(node_of, default=0) + 1
        pair = self.node_pair_traffic(layout)
        # Per-node aggregates.
        node_dests: Dict[int, set] = {n: set() for n in range(num_nodes)}
        node_bytes = {n: 0 for n in range(num_nodes)}
        for (sn, dn), (_m, b) in pair.items():
            node_dests[sn].add(dn)
            node_bytes[sn] += b
        # Per-process (GPU) aggregates, off-node only.
        proc_bytes: Dict[int, int] = {}
        proc_msgs: Dict[int, int] = {}
        proc_dests: Dict[int, set] = {}
        for src, dests in self._sends.items():
            for dest, idx in dests.items():
                if node_of[src] == node_of[dest]:
                    continue
                proc_bytes[src] = proc_bytes.get(src, 0) + len(idx) * self.itemsize
                proc_msgs[src] = proc_msgs.get(src, 0) + 1
                proc_dests.setdefault(src, set()).add(node_of[dest])
        if not pair:
            return PatternSummary(0, 0, 0.0, 0.0, 0.0, 0, 0)
        busiest = max(node_bytes, key=lambda n: node_bytes[n])
        active = len(self.off_node_gpus(layout, busiest))
        return PatternSummary(
            num_dest_nodes=max(len(d) for d in node_dests.values()),
            messages_per_node_pair=max(m for m, _b in pair.values()),
            bytes_per_node_pair=float(max(b for _m, b in pair.values())),
            node_bytes=float(max(node_bytes.values())),
            proc_bytes=float(max(proc_bytes.values(), default=0)),
            proc_messages=max(proc_msgs.values(), default=0),
            proc_dest_nodes=max((len(s) for s in proc_dests.values()), default=0),
            active_gpus=max(active, 1),
        )

    def stats(self, layout: JobLayout) -> "PatternStats":
        """Descriptive statistics of the pattern on a layout."""
        node_of = self.node_of_gpu(layout)
        sizes: List[int] = []
        on_socket = on_node = off_node = 0
        on_bytes = off_bytes = 0
        for src, dests in self._sends.items():
            src_rank = layout.owner_of_global_gpu(src)
            for dest, idx in dests.items():
                nbytes = len(idx) * self.itemsize
                sizes.append(nbytes)
                dest_rank = layout.owner_of_global_gpu(dest)
                loc = layout.locality(src_rank, dest_rank)
                if node_of[src] != node_of[dest]:
                    off_node += 1
                    off_bytes += nbytes
                else:
                    on_bytes += nbytes
                    if loc.value == "on-socket":
                        on_socket += 1
                    else:
                        on_node += 1
        arr = np.array(sizes) if sizes else np.zeros(0)
        return PatternStats(
            messages=len(sizes),
            total_bytes=int(arr.sum()) if len(arr) else 0,
            on_socket_messages=on_socket,
            on_node_messages=on_node,
            off_node_messages=off_node,
            on_node_bytes=on_bytes,
            off_node_bytes=off_bytes,
            min_message_bytes=int(arr.min()) if len(arr) else 0,
            median_message_bytes=float(np.median(arr)) if len(arr) else 0.0,
            max_message_bytes=int(arr.max()) if len(arr) else 0,
        )

    # -- construction helpers -----------------------------------------------------
    @classmethod
    def scenario(cls, layout: JobLayout, num_dest_nodes: int,
                 num_messages: int, msg_elems: int,
                 itemsize: int = 8) -> "CommPattern":
        """A concrete pattern realizing a Section-4.6 scenario.

        Node 0 sends ``num_messages`` messages of ``msg_elems`` elements
        to ``num_dest_nodes`` other nodes; messages are distributed
        evenly across node 0's GPUs (senders) and round-robin across the
        destination nodes' GPUs — the workload behind Figure 4.3,
        buildable so model predictions can be checked against simulated
        exchanges.

        A pattern holds at most one message per (source, destination)
        GPU pair, so when ``num_messages`` exceeds
        ``gpus_per_node**2 * num_dest_nodes`` the surplus messages merge
        into larger per-pair messages (byte totals preserved, message
        counts reduced); summaries match the analytic
        ``scenario_summary`` exactly whenever no merging occurs.
        """
        gpn = layout.machine.gpus_per_node
        if num_dest_nodes >= layout.num_nodes:
            raise ValueError(
                f"need {num_dest_nodes + 1} nodes, layout has "
                f"{layout.num_nodes}"
            )
        if num_messages % gpn:
            raise ValueError(
                f"num_messages ({num_messages}) must divide evenly over "
                f"{gpn} GPUs"
            )
        if msg_elems < 1:
            raise ValueError("msg_elems must be >= 1")
        sends: Dict[int, Dict[int, List[np.ndarray]]] = {}
        per_gpu = num_messages // gpn
        local_n = 0
        for src_gpu in range(gpn):
            for k in range(per_gpu):
                msg_index = src_gpu * per_gpu + k
                dest_node = 1 + msg_index % num_dest_nodes
                dest_gpu = dest_node * gpn + (msg_index // num_dest_nodes) % gpn
                start = k * msg_elems  # distinct entries per message
                idx = np.arange(start, start + msg_elems)
                local_n = max(local_n, start + msg_elems)
                sends.setdefault(src_gpu, {}).setdefault(dest_gpu, []).append(idx)
        merged: SendMap = {}
        for src_gpu, dests in sends.items():
            merged[src_gpu] = {
                dest: np.unique(np.concatenate(chunks))
                for dest, chunks in dests.items()
            }
        return cls((num_dest_nodes + 1) * gpn, merged, itemsize=itemsize)

    @classmethod
    def random(cls, num_gpus: int, local_n: int, messages_per_gpu: int,
               msg_elems: int, seed: int = 0, itemsize: int = 8
               ) -> "CommPattern":
        """Random irregular pattern (tests and synthetic benchmarks)."""
        if msg_elems > local_n:
            raise ValueError("msg_elems cannot exceed local_n")
        rng = np.random.default_rng(seed)
        sends: SendMap = {}
        for src in range(num_gpus):
            if num_gpus == 1:
                break
            dests = rng.choice(
                [g for g in range(num_gpus) if g != src],
                size=min(messages_per_gpu, num_gpus - 1), replace=False)
            sends[src] = {
                int(d): np.sort(rng.choice(local_n, size=msg_elems,
                                           replace=False))
                for d in dests
            }
        return cls(num_gpus, sends, itemsize=itemsize)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CommPattern(gpus={self.num_gpus}, "
                f"messages={self.total_messages}, bytes={self.total_bytes})")


def pattern_summary(pattern: CommPattern, layout: JobLayout) -> PatternSummary:
    """Convenience alias for :meth:`CommPattern.summarize`."""
    return pattern.summarize(layout)
