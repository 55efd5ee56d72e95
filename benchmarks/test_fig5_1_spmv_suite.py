"""Figure 5.1 — SpMV communication benchmark across the matrix suite.

One panel per SuiteSparse analog: measured (DES) communication time per
strategy over a GPU-count sweep, with the paper's per-panel metadata
(Recv Nodes, inter-node message volume).  Paper findings to preserve:

* for high inter-node message counts, staged node-aware strategies win
  and device-aware 3-Step/2-Step beat device-aware Standard;
* for low message counts (the paper names bone010 and Geo_1438),
  standard communication becomes the optimum;
* Split + MD is the typical winner overall and never loses to
  Split + DD.
"""

import pytest

from conftest import bench_matrix_n

from repro.bench.figures import render_series
from repro.sparse.suite import SUITE, suite_sweep

GPU_COUNTS = (8, 16, 32)
#: Destination-node counts below which the paper expects standard
#: communication to win (the bone010 / Geo_1438 low-message regime);
#: node-aware gains need many destination nodes (Section 4.6).
FEW_NODES = 4


@pytest.mark.parametrize("name", list(SUITE))
def test_fig5_1_matrix(benchmark, machine, name):
    def run():
        return suite_sweep(machine, matrices=[name], gpu_counts=GPU_COUNTS,
                           matrix_n=bench_matrix_n())

    data = benchmark.pedantic(run, iterations=1, rounds=1)[name]
    series = data["series"]
    at_scale = {lbl: ts[-1] for lbl, ts in series.items()}
    recv_nodes = data["meta"][GPU_COUNTS[-1]]["recv_nodes"]
    winner = min(at_scale, key=lambda k: at_scale[k])

    if recv_nodes >= FEW_NODES:
        # High-message-count regime: the paper's node-aware territory.
        assert (at_scale["3-Step (device-aware)"]
                < at_scale["Standard (device-aware)"])
        assert (at_scale["2-Step (device-aware)"]
                < at_scale["Standard (device-aware)"])
        fastest_da = min(t for lbl, t in at_scale.items() if "device" in lbl)
        assert at_scale["Split + MD (staged)"] < fastest_da
        assert "staged" in winner and "Standard" not in winner
    else:
        # Low-count regime: "standard communication becomes more
        # optimal" (paper Section 5.1 on bone010 / Geo_1438).
        assert winner.startswith("Standard")

    # DD never beats MD (paper Section 5.1), at any scale.
    for i in range(len(GPU_COUNTS)):
        assert (series["Split + MD (staged)"][i]
                <= series["Split + DD (staged)"][i] * 1.001)

    benchmark.extra_info["winner_at_scale"] = winner
    benchmark.extra_info["meta"] = {str(g): m for g, m in data["meta"].items()}

    print()
    meta = ", ".join(
        f"{g} GPUs: recv_nodes={m['recv_nodes']}, "
        f"vol={m['inter_node_bytes']/1e3:.0f}KB, "
        f"msgs={m['inter_node_msgs']}"
        for g, m in data["meta"].items())
    print(render_series(
        f"Figure 5.1 panel: {name} ({SUITE[name].description})\n  [{meta}]",
        "GPUs", data["gpus"], series, mark_min=True))


def test_fig5_1_split_md_wins_majority(benchmark, machine):
    """Across the suite at the largest GPU count, Split + MD is the
    modal winner and staged strategies win the high-count matrices —
    the paper's headline Section-5 result."""
    def run():
        return suite_sweep(machine, matrices=list(SUITE),
                           gpu_counts=(32,), matrix_n=bench_matrix_n())

    data = benchmark.pedantic(run, iterations=1, rounds=1)
    winners = {}
    for name, d in data.items():
        at = {lbl: ts[-1] for lbl, ts in d["series"].items()}
        winners[name] = min(at, key=lambda k: at[k])
    from collections import Counter

    counts = Counter(winners.values())
    modal, _n = counts.most_common(1)[0]
    assert modal == "Split + MD (staged)"
    staged_wins = sum(1 for w in winners.values() if "staged" in w)
    assert staged_wins >= len(winners) / 2
    benchmark.extra_info["winners"] = winners
    print("\nFigure 5.1 winners at 32 GPUs:", winners)
