"""Discussion (§6) — weak-scaling capability projection.

The paper extrapolates its demonstrated operating point (634M mesh nodes on
4320 GPUs = 1/6 of Summit) to "approximately four billion nodes" on full
Summit and "20-30 billion mesh nodes" needing exascale resources.  This
bench reproduces the projection both from the paper's own numbers and from
the reproduction's measured refined-mesh run.
"""

from repro.harness import emit, format_table, paper_projection, project_capability
from repro.harness.scaling import default_work_scale

from conftest import REFINED_GPUS_PER_RANK


def test_capability_projection(fig9_sweep, benchmark):
    rows = []
    for pt in paper_projection():
        rows.append(
            [
                f"paper: {pt.label}",
                f"{pt.gpus:,}",
                f"{pt.peak_pflops:.0f}",
                f"{pt.mesh_nodes / 1e9:.2f}B",
            ]
        )
    # Same projection from the reproduction's largest refined run.
    big = fig9_sweep[-1]
    ws = default_work_scale(big)
    for pt in project_capability(
        big.total_nodes,
        big.config.nranks * REFINED_GPUS_PER_RANK,
        paper_scale=ws,
    ):
        rows.append(
            [
                f"repro: {pt.label}",
                f"{pt.gpus:,}",
                f"{pt.peak_pflops:.0f}",
                f"{pt.mesh_nodes / 1e9:.2f}B",
            ]
        )
    emit(
        "discussion_projection",
        format_table(
            "§6 capability projection (fixed mesh-nodes-per-GPU)",
            ["operating point", "GPUs", "peak PF", "mesh nodes"],
            rows,
            note="paper: ~4 billion nodes on full Summit; 20-30 billion "
            "nodes require exascale resources.",
        ),
    )
    paper_rows = {p.label: p for p in paper_projection()}
    assert 3.5e9 < paper_rows["full Summit"].mesh_nodes < 4.5e9
    assert paper_rows["exascale (5x Summit)"].mesh_nodes >= 20e9

    benchmark.pedantic(paper_projection, rounds=1, iterations=1)
