"""Domain-decomposition study: RCB versus the multilevel partitioner.

Reproduces the analysis behind the paper's Figs. 4-5: RCB on an overset
turbine system produces geometrically sliced, disconnected rank territories
with poor matrix-nonzero balance, while ParMETIS-style graph partitioning
(vertex weight degree + 1, a full stencil row's nnz) balances the solver
load and keeps subdomains connected.  Both partitions are the ones a
simulation on ``nranks`` ranks runs (``partition_nodes``).

Run:  python examples/partitioning_study.py [nranks]
"""

import sys

from repro.comm import SimWorld
from repro.core import CompositeMesh
from repro.core.composite import partition_nodes, pressure_pattern
from repro.harness import format_table
from repro.mesh import make_turbine_low
from repro.partition import balance_stats, components_per_rank, edge_cut


def main() -> None:
    nranks = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    comp = CompositeMesh(SimWorld(1), make_turbine_low())
    A = pressure_pattern(comp)
    g = comp.node_graph()

    rows = []
    for label, method in (("RCB", "rcb"), ("multilevel", "parmetis")):
        parts = partition_nodes(comp, method, nranks)
        bs = balance_stats(A, parts)
        comps = components_per_rank(g, parts)
        rows.append(
            [
                label,
                f"{bs.median:.0f}",
                f"{bs.minimum:.0f}",
                f"{bs.maximum:.0f}",
                f"{bs.spread:.0f}",
                edge_cut(g, parts),
                int(comps.max()),
                f"{(comps > 1).sum()}/{nranks}",
            ]
        )
    print(
        format_table(
            f"Pressure-matrix nnz balance, {nranks} ranks "
            f"({comp.n} DoFs)  [paper Figs. 4-5]",
            [
                "method",
                "median nnz",
                "min",
                "max",
                "spread",
                "edge cut",
                "max comps/rank",
                "sliver ranks",
            ],
            rows,
            note="'comps/rank' counts connected components of a rank's "
            "territory; >1 is the paper's Fig. 4 sliver pathology.",
        )
    )


if __name__ == "__main__":
    main()
