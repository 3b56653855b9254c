"""Machine-readable run reports, matrix dumps, and the dual-mode comparison.

A report never carries the full matrix — at benchmark scale that is 649x649
values — so equality is asserted via a checksum over the canonical byte
encoding, and `dump_matrix` exists for anyone who wants the actual numbers.

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
import struct
from pathlib import Path

import numpy as np

from .costmodel import distributed_cost
from .covariance import GlobalCovariance
from .eigen import EigenDecomposition
from .errors import DistCovError, MismatchError, ProtocolError
from .matrix import DenseMatrix
from .ingest import partition_vertical
from .runtime import RunMetrics, _timed_exchange, _timed_oracle, critical_path_ms
from .schedule import Schedule, build_schedule

__all__ = [
    "REPORT_VERSION",
    "matrix_checksum",
    "dump_matrix",
    "load_matrix_dump",
    "run_report",
    "compare_partitions",
    "DUMP_MAGIC",
]

REPORT_VERSION = 6
DUMP_MAGIC = b"DCMM"
_DUMP_HEADER = struct.Struct("<4sIQ")  # magic, dim, reserved
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads_env() -> dict:
    """The BLAS thread variables as found in the environment, None if unset:
    the setting a report's CPU readings were taken at."""
    return {v: os.environ.get(v) for v in _BLAS_THREAD_VARS}


def matrix_checksum(m: DenseMatrix) -> str:
    """SHA-256 over the row-major binary64 little-endian matrix bytes,
    hashed from the matrix's own buffer (a copy only on a big-endian host)."""
    return hashlib.sha256(memoryview(m.values.astype("<f8", copy=False))).hexdigest()


def dump_matrix(cov: GlobalCovariance, path: str | Path) -> None:
    """Write the full matrix: 16-byte header (magic, u32 dim, u64 reserved)
    followed by dim^2 binary64 little-endian values, row-major."""
    p = Path(path)
    try:
        with open(p, "wb") as fh:
            fh.write(_DUMP_HEADER.pack(DUMP_MAGIC, cov.dim, 0))
            fh.write(cov.matrix.tobytes())
    except OSError as exc:
        raise DistCovError(f"cannot write {p}: {exc}") from None


def load_matrix_dump(path: str | Path) -> DenseMatrix:
    """Read a matrix dump back, bit-exactly."""
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise DistCovError(f"cannot read {p}: {exc}") from None
    if len(raw) < _DUMP_HEADER.size:
        raise ProtocolError(f"{p}: shorter than the dump header")
    magic, dim, _ = _DUMP_HEADER.unpack_from(raw)
    if magic != DUMP_MAGIC:
        raise ProtocolError(f"{p}: bad magic {magic!r}")
    body = raw[_DUMP_HEADER.size :]
    if len(body) != dim * dim * 8:
        raise ProtocolError(
            f"{p}: dim {dim} needs {dim * dim * 8} value bytes, found {len(body)}"
        )
    values = np.frombuffer(body, dtype="<f8").astype(np.float64).reshape(dim, dim)
    return DenseMatrix(values)


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
    # Bit patterns, not floats: == on floats would equate -0.0 and 0.0.
    cen_bits = cen_cov.matrix.values.view(np.uint64)
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
        if not np.array_equal(dist_cov.matrix.values.view(np.uint64), cen_bits):
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
