"""Node topology and rank placement.

:class:`MachineSpec` describes one node architecture (sockets, cores,
GPUs, NIC) plus its measured constants.  :class:`JobLayout` maps the MPI
ranks of a job onto a machine: which node, socket and core each rank
occupies and which GPU (if any) it owns, and answers the locality queries
that drive every communication cost.

Placement convention (matches the paper's benchmarks):

* local ranks ``0 .. gpus_per_node-1`` are *GPU owner* ranks, one per
  GPU, placed on the GPU's socket (GPU ``g`` lives on socket
  ``g // gpus_per_socket``);
* remaining local ranks are *helper* ranks filling the sockets
  round-robin — they idle under Standard/3-Step/2-Step and carry split
  inter-node messages under the Split strategies;
* every GPU has a *host team* of processes eligible to copy from it
  (its owner plus same-socket helpers), used by Split + DD.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.machine.locality import Locality, LocalityHierarchy
from repro.machine.params import CommParams, CopyParams, NicParams


@dataclass(frozen=True)
class MachineSpec:
    """One node architecture plus its measured communication constants.

    ``hierarchy`` optionally refines the flat three-way locality model
    into an explicit :class:`~repro.machine.locality.LocalityHierarchy`
    (e.g. a dragonfly group tier between node and global).  Machines
    that leave it ``None`` expose the degenerate flat chain through
    :attr:`locality_hierarchy`; hops that do not target a tier are never
    affected either way.
    """

    name: str
    sockets_per_node: int
    cores_per_socket: int
    gpus_per_socket: int
    comm_params: CommParams
    copy_params: CopyParams
    nic: NicParams
    hierarchy: Optional[LocalityHierarchy] = None

    def __post_init__(self) -> None:
        # Integer-ness first (floats, NaN and bools are not counts), then
        # range; each message names the offending field.
        for name, floor in (("sockets_per_node", 1),
                            ("cores_per_socket", 1),
                            ("gpus_per_socket", 0)):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(
                    f"{self.name}: {name!r} must be an integer count, "
                    f"got {v!r}")
            if v < floor:
                raise ValueError(
                    f"{self.name}: {name!r} must be >= {floor}, got {v}")
        if self.gpus_per_socket > self.cores_per_socket:
            raise ValueError(
                f"{self.name}: each GPU needs at least one owner core "
                f"({self.gpus_per_socket} GPUs > {self.cores_per_socket} cores)"
            )
        if (self.hierarchy is not None
                and not isinstance(self.hierarchy, LocalityHierarchy)):
            raise ValueError(
                f"{self.name}: 'hierarchy' must be a LocalityHierarchy, "
                f"got {self.hierarchy!r}")

    @property
    def locality_hierarchy(self) -> LocalityHierarchy:
        """The machine's tier chain (the flat default when undeclared)."""
        return (self.hierarchy if self.hierarchy is not None
                else LocalityHierarchy.flat())

    @property
    def gpus_per_node(self) -> int:
        return self.gpus_per_socket * self.sockets_per_node

    @property
    def cores_per_node(self) -> int:
        return self.cores_per_socket * self.sockets_per_node

    @property
    def max_ppn(self) -> int:
        """Maximum processes per node (one per core)."""
        return self.cores_per_node

    def gpu_socket(self, gpu: int) -> int:
        """Socket housing on-node GPU index ``gpu``."""
        if not 0 <= gpu < self.gpus_per_node:
            raise ValueError(f"gpu index {gpu} out of range on {self.name}")
        return gpu // self.gpus_per_socket

    @property
    def leaders_per_node(self) -> int:
        """Leader groups a node's GPUs partition into (multi-leader comm).

        One group per NIC when the network is the wider resource, else
        one per socket — capped by the GPU count (each group needs a
        leader).  On Lassen (2 sockets, 1 NIC) this is 2; on a
        frontier-like node (1 socket, 4 NICs, 4 GPUs) every GPU leads
        its own group.
        """
        want = max(self.sockets_per_node, self.nic.nics_per_node)
        return max(1, min(max(self.gpus_per_node, 1), want))

    @property
    def leader_group_geometry(self) -> Tuple[int, int]:
        """``(group_size, num_groups)`` of the leader partition.

        Groups are contiguous local-GPU blocks of ``group_size``
        (socket-aligned whenever ``group_size`` divides the socket's
        GPU count), so the gather leg of a multi-leader scheme stays
        socket-local on every preset.
        """
        gpn = max(self.gpus_per_node, 1)
        num = self.leaders_per_node
        return -(-gpn // num), num


@dataclass(frozen=True)
class ProcessPlacement:
    """Where one rank sits: node / socket / core / owned GPU (or None)."""

    rank: int
    node: int
    socket: int
    core: int
    local_rank: int
    gpu: Optional[int] = None  # on-node GPU index this rank owns

    @property
    def is_gpu_owner(self) -> bool:
        return self.gpu is not None


class JobLayout:
    """Rank-to-hardware mapping for a whole job.

    Parameters
    ----------
    machine:
        Node architecture.
    num_nodes:
        Number of nodes in the job.
    ppn:
        Processes per node.  Must satisfy
        ``machine.gpus_per_node <= ppn <= machine.max_ppn`` when the
        machine has GPUs (each GPU needs its owner rank).
    """

    #: jobs up to this many ranks precompute the size x size locality
    #: table (1024 ranks -> 1M entries, ~8 MB of enum references);
    #: larger jobs fall back to the branchy per-pair computation.
    _LOCALITY_TABLE_MAX_SIZE = 1024

    def __init__(self, machine: MachineSpec, num_nodes: int, ppn: int) -> None:
        for name, v in (("num_nodes", num_nodes), ("ppn", ppn)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(
                    f"{name!r} must be an integer count, got {v!r}")
        if num_nodes < 1:
            raise ValueError(f"'num_nodes' must be >= 1, got {num_nodes}")
        if ppn < 1:
            raise ValueError(f"'ppn' must be >= 1, got {ppn}")
        if ppn > machine.max_ppn:
            raise ValueError(
                f"ppn={ppn} exceeds {machine.name} core count {machine.max_ppn}"
            )
        if machine.gpus_per_node and ppn < machine.gpus_per_node:
            raise ValueError(
                f"ppn={ppn} cannot host one owner per GPU "
                f"({machine.gpus_per_node} GPUs on {machine.name})"
            )
        self.machine = machine
        self.num_nodes = num_nodes
        self.ppn = ppn
        self.size = num_nodes * ppn
        self._placements = self._build_placements()
        self._node_of = [p.node for p in self._placements]
        self._socket_of = [p.socket for p in self._placements]
        self._gpu_of = [p.gpu for p in self._placements]
        self._local_rank_of = [p.local_rank for p in self._placements]
        #: ``(node, on-node gpu) -> owner rank``
        self._owner_of = {(p.node, p.gpu): p.rank
                          for p in self._placements if p.gpu is not None}
        self._locality_rows = (self._build_locality_table()
                               if self.size <= self._LOCALITY_TABLE_MAX_SIZE
                               else None)

    # -- construction -------------------------------------------------------
    def _local_placement(self) -> List[Tuple[int, int, Optional[int]]]:
        """(socket, core, gpu) for each local rank on one node."""
        m = self.machine
        out: List[Tuple[int, int, Optional[int]]] = []
        core_next = [0] * m.sockets_per_node
        # GPU owners first, on the GPU's socket.
        for gpu in range(min(m.gpus_per_node, self.ppn)):
            sock = m.gpu_socket(gpu)
            out.append((sock, core_next[sock], gpu))
            core_next[sock] += 1
        # Helpers fill sockets round-robin by remaining core capacity.
        sock = 0
        for _ in range(self.ppn - len(out)):
            for _try in range(m.sockets_per_node):
                if core_next[sock] < m.cores_per_socket:
                    break
                sock = (sock + 1) % m.sockets_per_node
            out.append((sock, core_next[sock], None))
            core_next[sock] += 1
            sock = (sock + 1) % m.sockets_per_node
        return out

    def _build_placements(self) -> List[ProcessPlacement]:
        local = self._local_placement()
        placements: List[ProcessPlacement] = []
        for node in range(self.num_nodes):
            for lr, (sock, core, gpu) in enumerate(local):
                placements.append(
                    ProcessPlacement(
                        rank=node * self.ppn + lr,
                        node=node,
                        socket=sock,
                        core=core,
                        local_rank=lr,
                        gpu=gpu,
                    )
                )
        return placements

    def _build_locality_table(self) -> List[List[Locality]]:
        """Precompute ``locality(a, b)`` for every rank pair.

        The locality of a pair only depends on the two local ranks (every
        node is laid out identically) and on whether the nodes differ, so
        the table is assembled from one ppn x ppn intra-node block.
        """
        ppn = self.ppn
        sock = self._socket_of[:ppn]
        on_socket, on_node, off_node = (
            Locality.ON_SOCKET, Locality.ON_NODE, Locality.OFF_NODE)
        block = [[on_socket if sock[a] == sock[b] else on_node
                  for b in range(ppn)] for a in range(ppn)]
        off_row = [off_node] * ppn
        rows: List[List[Locality]] = []
        for a in range(self.size):
            node_a, lr_a = divmod(a, ppn)
            row: List[Locality] = []
            for node_b in range(self.num_nodes):
                row.extend(block[lr_a] if node_b == node_a else off_row)
            rows.append(row)
        return rows

    # -- queries ----------------------------------------------------------------
    def placement(self, rank: int) -> ProcessPlacement:
        return self._placements[rank]

    def node_of(self, rank: int) -> int:
        return self._node_of[rank]

    def socket_of(self, rank: int) -> int:
        return self._socket_of[rank]

    def gpu_of(self, rank: int) -> Optional[int]:
        """On-node GPU index owned by ``rank`` (None for helpers)."""
        return self._gpu_of[rank]

    def local_rank_of(self, rank: int) -> int:
        return self._local_rank_of[rank]

    def global_gpu_of(self, rank: int) -> Optional[int]:
        """Job-wide GPU id owned by ``rank``."""
        gpu = self._gpu_of[rank]
        if gpu is None:
            return None
        return self._node_of[rank] * self.machine.gpus_per_node + gpu

    def locality(self, rank_a: int, rank_b: int) -> Locality:
        """Relative placement of two ranks (drives all message costs)."""
        rows = self._locality_rows
        if rows is not None:
            return rows[rank_a][rank_b]
        if self._node_of[rank_a] != self._node_of[rank_b]:
            return Locality.OFF_NODE
        if self._socket_of[rank_a] != self._socket_of[rank_b]:
            return Locality.ON_NODE
        return Locality.ON_SOCKET

    def ranks_on_node(self, node: int) -> List[int]:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range")
        base = node * self.ppn
        return list(range(base, base + self.ppn))

    def gpu_owner_ranks(self, node: Optional[int] = None) -> List[int]:
        """All GPU-owner ranks (optionally restricted to one node)."""
        nodes = range(self.num_nodes) if node is None else [node]
        out = []
        for n in nodes:
            for r in self.ranks_on_node(n):
                if self._gpu_of[r] is not None:
                    out.append(r)
        return out

    def owner_of_gpu(self, node: int, gpu: int) -> int:
        """Rank owning on-node GPU index ``gpu`` of ``node``."""
        rank = self._owner_of.get((node, gpu))
        if rank is None:
            if not 0 <= node < self.num_nodes:
                raise ValueError(f"node {node} out of range")
            raise ValueError(
                f"gpu {gpu} on node {node} has no owner (ppn too small?)")
        return rank

    def owner_of_global_gpu(self, global_gpu: int) -> int:
        gpn = self.machine.gpus_per_node
        return self.owner_of_gpu(global_gpu // gpn, global_gpu % gpn)

    @property
    def num_gpus(self) -> int:
        return self.num_nodes * self.machine.gpus_per_node

    def host_team(self, node: int, gpu: int, size: int,
                  strict: bool = False) -> List[int]:
        """Up to ``size`` ranks eligible to copy from GPU ``gpu`` on ``node``.

        The team is the owner rank followed by same-socket helper ranks
        (duplicate-device-pointer copies stay on-socket, paper
        Section 3); when the socket runs short the team falls back to
        same-socket owners and finally any on-node ranks.  With
        ``strict=True`` a short team raises instead.
        """
        owner = self.owner_of_gpu(node, gpu)
        sock = self._socket_of[owner]
        node_ranks = self.ranks_on_node(node)
        team = [owner]
        tiers = (
            lambda r: self._socket_of[r] == sock and self._gpu_of[r] is None,
            lambda r: self._socket_of[r] == sock,
            lambda r: True,
        )
        for tier in tiers:
            for r in node_ranks:
                if len(team) >= size:
                    return team
                if r != owner and r not in team and tier(r):
                    team.append(r)
        if strict and len(team) < size:
            raise ValueError(
                f"cannot build host team of {size} for gpu {gpu} on node "
                f"{node}: only {len(team)} ranks available"
            )
        return team

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"JobLayout({self.machine.name}, nodes={self.num_nodes}, "
            f"ppn={self.ppn}, size={self.size})"
        )
