"""Linear-system assembly pipeline (paper §3).

Stage 1 (:mod:`repro.assembly.graph`) computes the exact sparsity pattern,
Stage 2 (:mod:`repro.assembly.local`) fills values data-parallel, Stage 3
(:mod:`repro.assembly.global_assembly`) runs the paper's Algorithm 1/2 to
produce a globally consistent ParCSR system.
"""

from repro.assembly.global_assembly import (
    AssembledMatrix,
    VARIANTS,
    assemble_global_matrix,
    assemble_global_vector,
)
from repro.assembly.graph import EquationGraph, GraphSpec
from repro.assembly.local import LocalAssembler, LocalSystem, RankCOO, RankRHS
from repro.assembly.plan import AssemblyPlan
from repro.assembly.primitives import sort_reduce_by_key

__all__ = [
    "AssembledMatrix",
    "AssemblyPlan",
    "EquationGraph",
    "GraphSpec",
    "LocalAssembler",
    "LocalSystem",
    "RankCOO",
    "RankRHS",
    "VARIANTS",
    "assemble_global_matrix",
    "assemble_global_vector",
    "sort_reduce_by_key",
]
