"""Machine-readable run reports, matrix dumps, and the dual-mode comparison.

A report never carries the full matrix — at benchmark scale that is 649x649
values — so equality is asserted via a checksum over the canonical byte
encoding, and `dump_matrix` exists for anyone who wants the actual numbers.

`compare_partitions` checks one table under several partitionings: it
computes the centralized oracle once from the table, without an
eigen-decomposition, then runs the distributed mode per partitioning and
requires each merged matrix to equal the oracle byte for byte. A row's
eigenvalues come from its distributed run's decomposition, which is the
decomposition of the same bytes.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .costmodel import distributed_cost
from .covariance import GlobalCovariance
from .eigen import EigenDecomposition
from .errors import IoError, MalformedFrame, MismatchError
from .matrix import DenseMatrix
from .ingest import partition_vertical
from .runtime import RunMetrics, _timed_oracle, critical_path_ms, run_distributed
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

REPORT_VERSION = 3
DUMP_MAGIC = b"DCMM"
_DUMP_HEADER = struct.Struct("<4sIQ")  # magic, dim, reserved


def matrix_checksum(m: DenseMatrix) -> str:
    """SHA-256 over the row-major binary64 little-endian matrix bytes."""
    return hashlib.sha256(m.tobytes()).hexdigest()


def dump_matrix(cov: GlobalCovariance, path: str | Path) -> None:
    """Write the full matrix: 16-byte header (magic, u32 dim, u64 reserved)
    followed by dim^2 binary64 little-endian values, row-major."""
    p = Path(path)
    try:
        with open(p, "wb") as fh:
            fh.write(_DUMP_HEADER.pack(DUMP_MAGIC, cov.dim, 0))
            fh.write(cov.matrix.tobytes())
    except OSError as exc:
        raise IoError(f"cannot write {p}: {exc}") from None


def load_matrix_dump(path: str | Path) -> DenseMatrix:
    """Read a matrix dump back, bit-exactly."""
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {p}: {exc}") from None
    if len(raw) < _DUMP_HEADER.size:
        raise MalformedFrame(f"{p}: shorter than the dump header")
    magic, dim, _ = _DUMP_HEADER.unpack_from(raw)
    if magic != DUMP_MAGIC:
        raise MalformedFrame(f"{p}: bad magic {magic!r}")
    body = raw[_DUMP_HEADER.size :]
    if len(body) != dim * dim * 8:
        raise MalformedFrame(
            f"{p}: dim {dim} needs {dim * dim * 8} value bytes, found {len(body)}"
        )
    values = np.frombuffer(body, dtype="<f8").astype(np.float64).reshape(dim, dim)
    return DenseMatrix(values)


def run_report(
    mode: str,
    partitions: int,
    cov: GlobalCovariance,
    decomp: EigenDecomposition,
    metrics: RunMetrics,
    schedule: Schedule | None = None,
) -> dict:
    """The stable JSON document for one run."""
    doc = {
        "report_version": REPORT_VERSION,
        "mode": mode,
        "partitions": partitions,
        "dim": cov.dim,
        "matrix_checksum": matrix_checksum(cov.matrix),
        "top_eigenvalues": list(decomp.eigenvalues[:10]),
        "metrics": metrics.to_dict(),
        "schedule": None if schedule is None else schedule.to_dict(),
    }
    return doc


def compare_partitions(
    table: DenseMatrix,
    specs,
    transport: str = "in-process",
    deadline_ms: float | None = None,
) -> list[dict]:
    """Run the distributed mode once per partition spec and assert that each
    merged matrix is bit-identical to the one oracle of `table`.

    Returns one comparison row per spec. Every row reports the oracle's
    `centralized_ms`, and `centralized_metrics.eigen_ms` is 0.0.

    Raises:
        MismatchError: a merged matrix differs (never expected in real use).
    """
    cen_cov, cen_metrics = _timed_oracle(table)
    cen_bytes = cen_cov.matrix.tobytes()
    checksum = hashlib.sha256(cen_bytes).hexdigest()
    # CPU reading on both sides: the centralized run is single-threaded, the
    # distributed aggregate assumes one processor per site.
    centralized_ms = cen_metrics.site_cov_cpu_ms[0]
    rows = []
    for spec in specs:
        blocks = partition_vertical(table, spec)
        t = len(blocks)
        schedule = build_schedule(t)
        dist_cov, dist_eig, dist_metrics = run_distributed(
            blocks, schedule, transport=transport, deadline_ms=deadline_ms
        )
        dist_bytes = dist_cov.matrix.tobytes()
        if dist_bytes != cen_bytes:
            raise MismatchError(
                f"distributed and centralized matrices differ (t={t}, "
                f"distributed {hashlib.sha256(dist_bytes).hexdigest()[:16]}…, "
                f"centralized {checksum[:16]}…)"
            )
        widths = [b.data.cols for b in blocks]
        distributed_ms = critical_path_ms(dist_metrics)
        rows.append({
            "partitions": t,
            "equal": True,
            "matrix_checksum": checksum,
            "top_eigenvalues": list(dist_eig.eigenvalues[:10]),
            "centralized_ms": centralized_ms,
            "distributed_ms": distributed_ms,
            "measured_speedup": (centralized_ms / distributed_ms) if distributed_ms > 0 else None,
            "cost_model": distributed_cost(widths, schedule).to_dict(),
            "distributed_metrics": dist_metrics.to_dict(),
            "centralized_metrics": cen_metrics.to_dict(),
            "distributed_eigen_top": list(dist_eig.eigenvalues[:3]),
        })
    return rows
