"""Tour of the three-stage linear-system assembly pipeline (paper §3).

Walks a real momentum system through the pipeline the paper builds:

1. Stage 1 — graph computation (exact sparsity, owned/shared split);
2. Stage 2 — data-parallel local assembly (atomics, or the deterministic
   variant of §3.2);
3. Stage 3 — hypre global assembly (Algorithms 1 and 2) in all three
   variants the paper discusses.

Run:  python examples/assembly_pipeline_tour.py
"""

import numpy as np

from repro import NaluWindSimulation, SimulationConfig
from repro.assembly import assemble_global_matrix, assemble_global_vector
from repro.comm import SimWorld
from repro.harness import format_table
from repro.perf import CostModel, SUMMIT_GPU


def main() -> None:
    cfg = SimulationConfig(nranks=6)
    sim = NaluWindSimulation("turbine_tiny", cfg)
    sim.step()  # one step so the fields/graphs are realistic
    comp = sim.comp
    num = comp.numbering
    graph = sim.momentum.graph

    print("Stage 1 (graph): per-rank owned/shared COO patterns")
    rows = []
    for r in range(cfg.nranks):
        oi, _ = graph.owned_pattern(r)
        si, _ = graph.shared_pattern(r)
        rows.append([r, oi.size, si.size, graph.nnz_recv(r)])
    print(
        format_table(
            "Sparsity pattern", ["rank", "owned nnz", "send nnz", "nnz_recv"],
            rows,
        )
    )

    local = sim.momentum.assembler.finalize()
    print("\nStage 3 (Algorithms 1-2), three variants:")
    rows = []
    for variant in ("optimized", "sparse_add", "general"):
        w = SimWorld(cfg.nranks)
        with w.phase_scope("asm"):
            am = assemble_global_matrix(w, num, local, variant=variant)
            assemble_global_vector(w, num, local, variant=variant)
        cm = CostModel(SUMMIT_GPU)
        t = cm.phase_time(w, "asm").total
        rows.append(
            [
                variant,
                am.matrix.nnz,
                f"{sum(am.offd_nnz) / am.matrix.nnz:.3f}",
                f"{t * 1e6:.1f}",
                f"{w.ops.peak_alloc() / 1e6:.3f}",
            ]
        )
    print(
        format_table(
            "Global assembly",
            ["variant", "global nnz", "offd frac", "model time [us]",
             "peak staging [MB]"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
