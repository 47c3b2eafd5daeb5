"""Distributed sparse linear algebra (the hypre ParCSR analogue)."""

from repro.linalg.parcsr import (
    ParCSRMatrix,
    RankBlocks,
    index_dtype,
    spmv_bytes,
)
from repro.linalg.parvector import ParVector
from repro.linalg.spgemm import (
    galerkin_product,
    record_spgemm,
    spgemm,
    spgemm_products,
)

__all__ = [
    "ParCSRMatrix",
    "ParVector",
    "RankBlocks",
    "galerkin_product",
    "index_dtype",
    "record_spgemm",
    "spgemm",
    "spgemm_products",
    "spmv_bytes",
]
