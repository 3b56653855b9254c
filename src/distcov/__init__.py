"""Exact covariance of vertically partitioned data.

Each site holds every row but only a slice of the columns. Sites compute
their own covariance blocks, exchange raw columns along any schedule of
senders that makes every pair of sites meet exactly once (by default the
paper's ring), and a coordinator merges the blocks into the full matrix —
bit-identical to computing it on the unpartitioned data — then extracts its
eigen-components.
"""

from .covariance import (
    ColumnBlock,
    CovBlock,
    GlobalCovariance,
    centralized_covariance,
    cross_covariance,
    local_covariance,
    merge_blocks,
    site_covariance,
)
from .eigen import EigenDecomposition, symmetric_eigen
from .errors import DistCovError
from .ingest import (
    PartitionSpec,
    load_mfeat,
    load_table,
    mfeat_preset,
    partition_vertical,
    synthetic_table,
)
from .matrix import DenseMatrix, matrix_checksum
from .runtime import (
    RunMetrics,
    TransferStat,
    critical_path_ms,
    run_centralized,
    run_distributed,
)
from .schedule import CostReport, Schedule, build_schedule, distributed_cost
from .wire import MessageKind, ProtocolMessage, decode_message, encode_message

__version__ = "0.1.0"

__all__ = [
    "DenseMatrix",
    "ColumnBlock",
    "CovBlock",
    "GlobalCovariance",
    "local_covariance",
    "cross_covariance",
    "site_covariance",
    "centralized_covariance",
    "merge_blocks",
    "EigenDecomposition",
    "symmetric_eigen",
    "Schedule",
    "build_schedule",
    "PartitionSpec",
    "load_table",
    "partition_vertical",
    "mfeat_preset",
    "synthetic_table",
    "load_mfeat",
    "CostReport",
    "distributed_cost",
    "MessageKind",
    "ProtocolMessage",
    "encode_message",
    "decode_message",
    "RunMetrics",
    "TransferStat",
    "run_distributed",
    "run_centralized",
    "critical_path_ms",
    "matrix_checksum",
    "DistCovError",
    "__version__",
]
