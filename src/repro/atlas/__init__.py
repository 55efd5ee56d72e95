"""Regime-map atlas: the precomputed best-strategy frontier.

Build once offline (``python -m repro atlas build``), query in O(1)
forever after::

    from repro import atlas
    answer = atlas.lookup("lassen", scenario, msg_size)
    answer.winner, answer.margin

See :mod:`repro.atlas.index` for query semantics (interpolation,
confidence margins, exact-evaluation fallback) and
:mod:`repro.atlas.artifact` for the on-disk format.
"""

from repro.atlas.artifact import (
    ATLAS_SCHEMA,
    Atlas,
    AtlasFormatError,
    load_atlas,
    read_header,
    save_atlas,
)
from repro.atlas.build import atlas_shard_key, build_atlas, build_tasks
from repro.atlas.grid import AtlasGridSpec, default_grid
from repro.atlas.index import (
    MARGIN_BAND,
    AtlasIndex,
    AtlasLookup,
    lookup,
)

__all__ = [
    "ATLAS_SCHEMA",
    "Atlas",
    "AtlasFormatError",
    "AtlasGridSpec",
    "AtlasIndex",
    "AtlasLookup",
    "MARGIN_BAND",
    "atlas_shard_key",
    "build_atlas",
    "build_tasks",
    "default_grid",
    "load_atlas",
    "lookup",
    "read_header",
    "save_atlas",
]
