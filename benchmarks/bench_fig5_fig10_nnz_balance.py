"""Figures 5 and 10 — nnz-per-rank balance, RCB versus ParMETIS-style.

Fig. 5 (low-res mesh): ParMETIS-style partitioning shrinks the min-max
spread of pressure-matrix nonzeros per rank by roughly an order of
magnitude relative to RCB.  Fig. 10 (refined mesh): the multilevel
partitioner lowers the maximum but also the minimum, so the spread narrows
much less — the effect the paper links to its large-rank-count variability.

Both partitions of a row are the ones a simulation on that many ranks runs
(``partition_nodes``, the rule ``CompositeMesh`` applies); nonzeros are
counted on the pressure-pattern proxy ``pressure_pattern``.  Beside the
nnz spread each row gives the multilevel partition's own terms: its
lightest and heaviest part over the mean of the weight it balances
(degree + 1 on the node graph) and its edge cut.
"""

import numpy as np

from repro.comm import SimWorld
from repro.core import CompositeMesh
from repro.core.composite import partition_nodes, pressure_pattern
from repro.harness import emit, format_table
from repro.mesh import make_turbine_low, make_turbine_refined
from repro.partition import balance_stats, edge_cut

from conftest import REFINE


def balance_rows(comp: CompositeMesh, ranks_list):
    """One table row per rank count: nnz balance of the partitions a
    simulation on that many ranks runs, RCB and multilevel, and the
    multilevel partition's weight balance and edge cut."""
    A = pressure_pattern(comp)
    graph = comp.node_graph()
    vwgt = np.diff(graph.indptr) + 1.0
    rows = []
    for nranks in ranks_list:
        rcb, ml = (
            partition_nodes(comp, method, nranks)
            for method in ("rcb", "parmetis")
        )
        bs_rcb, bs_ml = balance_stats(A, rcb), balance_stats(A, ml)
        load = np.bincount(ml, weights=vwgt, minlength=nranks)
        rows.append(
            [
                nranks,
                f"{bs_rcb.median:.0f}",
                f"{bs_rcb.spread:.0f}",
                f"{bs_ml.median:.0f}",
                f"{bs_ml.spread:.0f}",
                f"{load.min() / load.mean():.2f}",
                f"{load.max() / load.mean():.3f}",
                edge_cut(graph, ml),
                f"{bs_rcb.spread / max(bs_ml.spread, 1):.1f}x",
            ]
        )
    return rows


HEADERS = [
    "ranks",
    "RCB median",
    "RCB spread",
    "ML median",
    "ML spread",
    "ML min/mean",
    "ML max/mean",
    "ML cut",
    "spread ratio",
]


def test_fig5_low_res_balance(benchmark):
    comp = CompositeMesh(SimWorld(1), make_turbine_low())
    rows = balance_rows(comp, [6, 12, 24, 48])
    emit(
        "fig5",
        format_table(
            "Fig. 5 (scaled): pressure-matrix nnz per rank, low-res mesh",
            HEADERS,
            rows,
            note="paper: ParMETIS reduces the nnz-per-rank variation by "
            "approximately 10x for all node configurations.",
        ),
    )
    # ParMETIS-style must beat RCB's spread at every rank count.
    ratios = [float(r[-1][:-1]) for r in rows]
    assert all(rt > 1.0 for rt in ratios)

    benchmark.pedantic(
        partition_nodes, args=(comp, "parmetis", 12), rounds=1, iterations=1
    )


def test_fig10_refined_balance(benchmark):
    comp = CompositeMesh(SimWorld(1), make_turbine_refined(refine=REFINE))
    rows = balance_rows(comp, [12, 24, 48])
    emit(
        "fig10",
        format_table(
            "Fig. 10 (scaled): pressure-matrix nnz per rank, refined mesh",
            HEADERS,
            rows,
            note="paper: on the refined mesh ParMETIS lowers the maximum "
            "but also the minimum, so the overall spread is largely "
            "unchanged compared to RCB.",
        ),
    )
    # The refined mesh's spread improvement is much weaker than Fig. 5's.
    benchmark.pedantic(
        partition_nodes, args=(comp, "rcb", 24), rounds=1, iterations=1
    )
