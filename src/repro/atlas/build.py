"""Offline atlas construction.

One build shard is one ``(message count, duplicate fraction)`` slice of
the grid — a full :func:`~repro.models.regime_map.compute_regime_map`
over (node count x size), every model walked once over the whole slice.
Shards fan out through :func:`repro.par.sweep_map`, so a build inherits
``--jobs`` parallelism, the content-hashed result cache, journaled
checkpoint/resume and fleet telemetry for free; the ordered gather plus
the byte-deterministic artifact writer make the resulting file
byte-identical at any worker count.

Shard cache keys mix in :data:`~repro.atlas.artifact.ATLAS_SCHEMA` on
top of the machine constants and grid axes, so bumping the artifact
schema invalidates stale cached shards exactly like bumping
``CACHE_SCHEMA`` invalidates simulator results.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.atlas.artifact import ATLAS_SCHEMA, Atlas
from repro.atlas.grid import AtlasGridSpec, default_grid
from repro.machine.topology import MachineSpec
from repro.models.regime_map import compute_regime_map
from repro.par.cache import cache_key
from repro.par.executor import sweep_map

#: one build task: (machine, node_counts, sizes, msg_count, dup_fraction)
_ShardSpec = Tuple[MachineSpec, Tuple[int, ...], Tuple[float, ...], int,
                   float]


def atlas_shard_key(task: _ShardSpec) -> str:
    """Content hash of one build shard (includes the artifact schema)."""
    machine, node_counts, sizes, msg_count, dup = task
    return cache_key(
        "atlas-shard",
        atlas_schema=ATLAS_SCHEMA,
        machine=machine,
        node_counts=node_counts,
        sizes=np.asarray(sizes, dtype=np.float64),
        msg_count=msg_count,
        dup_fraction=dup,
    )


def _atlas_shard(task: _ShardSpec) -> Dict[str, Any]:
    """Module-level worker (picklable): one (msgs, dup) regime slice."""
    machine, node_counts, sizes, msg_count, dup = task
    rm = compute_regime_map(machine, sizes=list(sizes),
                            node_counts=node_counts,
                            num_messages=msg_count, dup_fraction=dup,
                            keep_times=True)
    # the atlas consumes the regime map's time tensor directly
    return {"labels": rm.labels, "times": rm.times}


def build_tasks(machine: MachineSpec,
                spec: AtlasGridSpec) -> List[_ShardSpec]:
    """The build's shard list, in deterministic (msgs, dup) order."""
    return [(machine, spec.node_counts, spec.sizes, msg_count, dup)
            for msg_count in spec.msg_counts
            for dup in spec.dup_fractions]


def build_atlas(machine: MachineSpec,
                spec: Optional[AtlasGridSpec] = None,
                jobs: Optional[int] = None,
                cache: Optional[Any] = None,
                stats: Optional[Any] = None,
                policy: Optional[Any] = None,
                journal_dir: Optional[str] = None,
                resume: bool = False,
                shard_done: Optional[Callable[[int, Dict[str, Any]], None]]
                = None) -> Atlas:
    """Sweep the full grid and assemble the :class:`Atlas`.

    ``jobs`` / ``cache`` / ``stats`` / ``policy`` / ``journal_dir`` /
    ``resume`` are forwarded to :func:`repro.par.sweep_map` unchanged
    (see its docstring); the assembled atlas — and hence the saved
    artifact — is bit-identical across all of them.  ``shard_done``
    (if given) observes each gathered shard in task order, e.g. to
    write per-shard ledger records.
    """
    spec = spec if spec is not None else default_grid()
    tasks = build_tasks(machine, spec)
    shards = sweep_map(_atlas_shard, tasks, jobs=jobs, cache=cache,
                       key_fn=atlas_shard_key if cache is not None else None,
                       stats=stats, policy=policy, journal_dir=journal_dir,
                       resume=resume)
    labels = list(shards[0]["labels"])
    n_nodes, n_msgs, n_dups, n_sizes = spec.shape
    times = np.empty((len(labels), n_nodes, n_msgs, n_dups, n_sizes),
                     dtype=np.float64)
    for index, shard in enumerate(shards):
        if shard["labels"] != labels:
            raise ValueError(
                f"shard {index} evaluated a different model registry: "
                f"{shard['labels']} != {labels}")
        j, k = divmod(index, n_dups)
        times[:, :, j, k, :] = shard["times"]
        if shard_done is not None:
            shard_done(index, shard)
    return Atlas(machine=machine.name, spec=spec, labels=labels,
                 times=times)
