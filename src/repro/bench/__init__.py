"""Experiment harness: one entry point per paper table/figure.

Each ``table*``/``fig*`` function returns plain data structures (dicts
of numpy arrays) and has a matching ``render_*`` producing the ASCII
table/series the paper reports.  ``python -m repro.bench.report``
regenerates the full experiment record (EXPERIMENTS.md body).
Figures 4.2 and 5.1 have no function here: both are views of
:func:`repro.sparse.suite.suite_sweep`'s panels (DES ``series`` and
Table-6 ``model`` per strategy and GPU count).
"""

from repro.bench.tables import (
    table2_data,
    table3_data,
    table4_data,
    render_table2,
    render_table3,
    render_table4,
)
from repro.bench.figures import (
    fig2_5_data,
    fig2_6_data,
    fig3_1_data,
    fig4_3_data,
    render_series,
)
from repro.bench.timeline import (
    busiest_links,
    locality_breakdown,
    phase_breakdown,
    render_phase_breakdown,
    render_timeline,
    summarize_trace,
)

__all__ = [
    "table2_data",
    "table3_data",
    "table4_data",
    "render_table2",
    "render_table3",
    "render_table4",
    "fig2_5_data",
    "fig2_6_data",
    "fig3_1_data",
    "fig4_3_data",
    "render_series",
    "busiest_links",
    "locality_breakdown",
    "phase_breakdown",
    "render_phase_breakdown",
    "render_timeline",
    "summarize_trace",
]
