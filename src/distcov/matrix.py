"""Dense row-major matrix storage: the immutable, finite float64 matrix every
other module passes around, and column selection."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateIndex,
    DuplicateLabel,
    IndexOutOfRange,
    NonFiniteValue,
)

__all__ = [
    "DenseMatrix",
    "new_matrix",
    "column_slice",
]


class DenseMatrix:
    """Immutable dense matrix of float64 values with optional column labels.

    Construction rejects NaN and infinity outright: covariance of non-finite
    data is meaningless and would silently poison every downstream merge.
    """

    __slots__ = ("_values", "_labels")

    def __init__(self, values, labels: Sequence[str] | None = None):
        arr = np.array(values, dtype=np.float64, order="C")
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D value array, got {arr.ndim}-D")
        if not np.isfinite(arr).all():
            raise NonFiniteValue("matrix values must be finite (no NaN/Inf)")
        arr.setflags(write=False)
        self._values = arr
        self._labels = _check_labels(labels, arr.shape[1])

    @classmethod
    def _wrap(cls, arr: np.ndarray, labels: tuple[str, ...] | None = None) -> "DenseMatrix":
        # Internal fast path: caller guarantees a fresh, finite, C-contiguous
        # float64 array that nobody else mutates.
        m = cls.__new__(cls)
        arr.setflags(write=False)
        m._values = arr
        m._labels = labels
        return m

    @property
    def rows(self) -> int:
        return self._values.shape[0]

    @property
    def cols(self) -> int:
        return self._values.shape[1]

    @property
    def values(self) -> np.ndarray:
        """The (rows, cols) float64 array; read-only."""
        return self._values

    @property
    def labels(self) -> tuple[str, ...] | None:
        return self._labels

    def tobytes(self) -> bytes:
        """Canonical encoding: row-major IEEE-754 binary64, little-endian."""
        return self._values.astype("<f8", copy=False).tobytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return (
            self._values.shape == other._values.shape
            and self.tobytes() == other.tobytes()
            and self._labels == other._labels
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols})"


def _check_labels(labels: Sequence[str] | None, cols: int) -> tuple[str, ...] | None:
    if labels is None:
        return None
    out = tuple(str(name) for name in labels)
    if len(out) != cols:
        raise DimensionMismatch(f"{len(out)} labels for {cols} columns")
    if len(set(out)) != len(out):
        raise DuplicateLabel("column labels must be unique")
    return out


def new_matrix(
    rows: int,
    cols: int,
    values: Sequence[float],
    labels: Sequence[str] | None = None,
) -> DenseMatrix:
    """Build a rows x cols matrix from values listed in row-major order."""
    flat = np.asarray(values, dtype=np.float64)
    if flat.ndim != 1 or flat.size != rows * cols:
        raise DimensionMismatch(
            f"got {flat.size} values for a {rows}x{cols} matrix ({rows * cols} expected)"
        )
    return DenseMatrix(flat.reshape(rows, cols), labels)


def column_slice(m: DenseMatrix, cols: Sequence[int]) -> DenseMatrix:
    """New matrix holding the selected columns, in the given order.

    Labels are carried over when the source matrix has them.
    """
    idx = list(cols)
    for c in idx:
        if not 0 <= c < m.cols:
            raise IndexOutOfRange(f"column {c} out of range for {m.cols} columns")
    if len(set(idx)) != len(idx):
        raise DuplicateIndex(f"duplicate column index in {idx}")
    picked = np.ascontiguousarray(m.values[:, idx]) if idx else np.empty((m.rows, 0))
    labels = tuple(m.labels[c] for c in idx) if m.labels is not None else None
    return DenseMatrix._wrap(picked, labels)
