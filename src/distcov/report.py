"""Machine-readable run reports and the dual-mode comparison.

A report never carries the full matrix — at benchmark scale that is 649x649
values — so equality is asserted via a checksum over the canonical byte
encoding; `distcov run --dump-matrix` writes the actual numbers as `.npy`.

`compare_partitions` checks one table under several partitionings: it
computes the centralized oracle once from the table, then runs the
distributed exchange per partitioning and requires each merged matrix to
equal the oracle bit for bit. Neither side is eigen-decomposed: a row
proves equality and times both sides, and `distcov run` reports the
eigenvalues of the same bytes.
"""

from __future__ import annotations

import hashlib
import os

from .costmodel import distributed_cost
from .covariance import GlobalCovariance
from .eigen import EigenDecomposition
from .errors import MismatchError
from .matrix import DenseMatrix
from .ingest import partition_vertical
from .runtime import RunMetrics, _timed_exchange, _timed_oracle, critical_path_ms
from .schedule import Schedule, build_schedule

__all__ = [
    "REPORT_VERSION",
    "matrix_checksum",
    "run_report",
    "compare_partitions",
]

REPORT_VERSION = 6
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads_env() -> dict:
    """The BLAS thread variables as found in the environment, None if unset:
    the setting a report's CPU readings were taken at."""
    return {v: os.environ.get(v) for v in _BLAS_THREAD_VARS}


def matrix_checksum(m: DenseMatrix) -> str:
    """SHA-256 over the row-major binary64 little-endian matrix bytes,
    hashed from the matrix's own buffer (a copy only on a big-endian host)."""
    return hashlib.sha256(memoryview(m.values.astype("<f8", copy=False))).hexdigest()


def run_report(
    mode: str,
    partitions: int,
    cov: GlobalCovariance,
    decomp: EigenDecomposition,
    eigen_ms: float,
    metrics: RunMetrics,
    schedule: Schedule | None = None,
) -> dict:
    """The stable JSON document for one run; `eigen_ms` is the wall time of
    `decomp`, which `metrics` do not cover."""
    return {
        "report_version": REPORT_VERSION,
        "blas_threads_env": _blas_threads_env(),
        "mode": mode,
        "partitions": partitions,
        "dim": cov.dim,
        "matrix_checksum": matrix_checksum(cov.matrix),
        "top_eigenvalues": list(decomp.eigenvalues[:10]),
        "eigen_ms": eigen_ms,
        "metrics": metrics.to_dict(),
        "schedule": None if schedule is None else schedule.to_dict(),
    }


def compare_partitions(
    table: DenseMatrix,
    specs,
    transport: str = "in-process",
) -> list[dict]:
    """Run the distributed exchange once per partition spec and assert that
    each merged matrix is bit-identical to the one oracle of `table`.

    Returns one comparison row per spec. Every row reports the oracle's
    `centralized_ms`. No matrix is eigen-decomposed, so a row carries no
    eigenvalues and no eigen time.

    Raises:
        MismatchError: a merged matrix differs (never expected in real use).
    """
    cen_cov, cen_metrics = _timed_oracle(table)
    checksum = matrix_checksum(cen_cov.matrix)
    # Thread CPU on both sides; the distributed aggregate assumes one processor
    # per site, so both are one-processor times only at one BLAS thread.
    centralized_ms = cen_metrics.site_cov_cpu_ms[0]
    rows = []
    for spec in specs:
        blocks = partition_vertical(table, spec)
        t = len(blocks)
        schedule = build_schedule(t)
        dist_cov, dist_metrics = _timed_exchange(blocks, schedule, transport)
        if dist_cov != cen_cov:  # bit for bit
            raise MismatchError(
                f"distributed and centralized matrices differ (t={t}, "
                f"distributed {matrix_checksum(dist_cov.matrix)[:16]}…, "
                f"centralized {checksum[:16]}…)"
            )
        widths = [b.data.cols for b in blocks]
        distributed_ms = critical_path_ms(dist_metrics)
        rows.append({
            "partitions": t,
            "equal": True,
            "matrix_checksum": checksum,
            "centralized_ms": centralized_ms,
            "distributed_ms": distributed_ms,
            "measured_speedup": (centralized_ms / distributed_ms) if distributed_ms > 0 else None,
            "cost_model": distributed_cost(widths, schedule).to_dict(),
            "distributed_metrics": dist_metrics.to_dict(),
            "centralized_metrics": cen_metrics.to_dict(),
        })
    return rows
