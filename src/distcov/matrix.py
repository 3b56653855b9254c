"""Dense row-major matrix storage: the immutable, finite float64 matrix every
other module passes around."""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import DistCovError

__all__ = ["DenseMatrix", "matrix_checksum"]


class DenseMatrix:
    """Immutable dense matrix of float64 values; it holds values only.

    Construction rejects NaN and infinity outright: covariance of non-finite
    data is meaningless and would silently poison every downstream merge.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, order="C")
        if arr.ndim != 2:
            raise DistCovError(f"expected a 2-D value array, got {arr.ndim}-D")
        self._values = self._checked(arr)._values

    @classmethod
    def _checked(cls, arr: np.ndarray) -> "DenseMatrix":
        # The one NaN/Inf check, then _wrap: no copy, so the caller guarantees
        # all that _wrap asks but finiteness.
        if not np.isfinite(arr).all():
            raise DistCovError("matrix values must be finite (no NaN/Inf)")
        return cls._wrap(arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "DenseMatrix":
        # Internal fast path: caller guarantees a fresh, finite, C-contiguous
        # float64 array that nobody else mutates.
        m = cls.__new__(cls)
        arr.setflags(write=False)
        m._values = arr
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        # Bit patterns, not floats: == on floats would equate -0.0 and 0.0.
        return self._values.shape == other._values.shape and np.array_equal(
            self._values.view(np.uint64), other._values.view(np.uint64)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols})"


def matrix_checksum(m: DenseMatrix) -> str:
    """SHA-256 over the row-major binary64 little-endian matrix bytes,
    hashed from the matrix's own buffer (a copy only on a big-endian host)."""
    return hashlib.sha256(memoryview(m.values.astype("<f8", copy=False))).hexdigest()
