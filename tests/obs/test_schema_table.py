"""docs/observability.md's schema table states the versions the code has."""

import importlib
import re
from pathlib import Path

DOC = Path(__file__).resolve().parents[2] / "docs" / "observability.md"
ROW = re.compile(r"^\|[^|]*\| `(repro[\w.]*)\.(\w+)` \| (\d+) \|", re.M)


def test_current_column_matches_the_constants():
    rows = ROW.findall(DOC.read_text())
    assert {f"{module}.{name}" for module, name, _ in rows} == {
        "repro.obs.ledger.LEDGER_SCHEMA", "repro.obs.metrics.SCHEMA",
        "repro.par.cache.CACHE_SCHEMA", "repro.perf.suite.SCHEMA",
        "repro.atlas.ATLAS_SCHEMA"}
    for module, name, current in rows:
        assert getattr(importlib.import_module(module), name) == \
            int(current), f"{module}.{name}"
