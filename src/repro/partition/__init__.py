"""Domain decomposition: RCB, multilevel (ParMETIS-like), metrics."""

from repro.partition.metrics import (
    BalanceStats,
    balance_stats,
    components_per_rank,
    edge_cut,
    nnz_per_rank,
)
from repro.partition.multilevel import (
    MultilevelOptions,
    heavy_edge_matching,
    multilevel_partition,
)
from repro.partition.rcb import rcb_partition
from repro.partition.renumber import RankNumbering, build_numbering

#: ``SimulationConfig.partition_method`` values (paper §5): the multilevel
#: graph partitioner standing in for ParMETIS, and element-based RCB.
PARTITION_METHODS = ("parmetis", "rcb")

__all__ = [
    "BalanceStats",
    "MultilevelOptions",
    "PARTITION_METHODS",
    "RankNumbering",
    "balance_stats",
    "build_numbering",
    "components_per_rank",
    "edge_cut",
    "heavy_edge_matching",
    "multilevel_partition",
    "nnz_per_rank",
    "rcb_partition",
]
