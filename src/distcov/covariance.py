"""Covariance kernels and the block algebra that assembles the global matrix.

Every block, local or cross, centralized or merged, comes from one kernel,
`_cov_block`, built on error-free splitting (Ozaki, Ogita, Oishi & Rump,
Numer. Algorithms 59, 2012). The determinism contract:

- A column's mean, its power-of-two scale and its slices depend only on
  that column's values and the row count n, never on the block around it.
- Each centered, scaled column is split into s integer slices of b bits,
  b = floor((53 - ceil(log2 n)) / 2). A slice dot product is then an
  integer of at most 53 bits, so BLAS computes it exactly in whatever order
  it sums: block shape, tiling and thread count cannot change a bit.
- The slice products are combined in one fixed order that is symmetric in
  the two operands, so cov(a, b) and cov(b, a) are the same float.

Hence a merged matrix is bit-identical to the matrix a single-machine
computation produces. Entries are accurate to about one rounding of the
centered data: products below 2**-53 of the column peaks are dropped, and
the final sum is rounded once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidCovariance,
    MissingPair,
    OverlappingPair,
    RowCountMismatch,
    SameSite,
    TooFewRows,
)
from .matrix import DenseMatrix

__all__ = [
    "ColumnBlock",
    "CovBlock",
    "GlobalCovariance",
    "local_covariance",
    "cross_covariance",
    "centralized_covariance",
    "merge_blocks",
]


@dataclass(frozen=True)
class ColumnBlock:
    """One site's vertical slice of the dataset: all rows, a subset of columns.

    ``global_cols[u]`` is the position of local column ``u`` in the full
    (unpartitioned) matrix.
    """

    site: int
    data: DenseMatrix
    global_cols: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "global_cols", tuple(int(c) for c in self.global_cols))
        if self.site < 0:
            raise DimensionMismatch(f"site id must be non-negative, got {self.site}")
        if self.data.cols < 1:
            raise DimensionMismatch("a column block must hold at least one column")
        if len(self.global_cols) != self.data.cols:
            raise DimensionMismatch(
                f"{len(self.global_cols)} global indices for {self.data.cols} columns"
            )
        if any(b <= a for a, b in zip(self.global_cols, self.global_cols[1:])):
            raise DimensionMismatch("global column indices must be strictly increasing")
        if self.global_cols and self.global_cols[0] < 0:
            raise DimensionMismatch("global column indices must be non-negative")

    @property
    def width(self) -> int:
        return self.data.cols


@dataclass(frozen=True)
class CovBlock:
    """A covariance sub-matrix between the columns of two sites.

    Entry (u, v) is the covariance of global column ``rows_global_cols[u]``
    with global column ``cols_global_cols[v]``. A block with
    ``site_a == site_b`` is a site's local covariance and must be square and
    bit-symmetric.
    """

    site_a: int
    site_b: int
    block: DenseMatrix
    rows_global_cols: tuple[int, ...]
    cols_global_cols: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows_global_cols", tuple(int(c) for c in self.rows_global_cols))
        object.__setattr__(self, "cols_global_cols", tuple(int(c) for c in self.cols_global_cols))
        if self.block.rows != len(self.rows_global_cols):
            raise DimensionMismatch(
                f"block has {self.block.rows} rows but {len(self.rows_global_cols)} row indices"
            )
        if self.block.cols != len(self.cols_global_cols):
            raise DimensionMismatch(
                f"block has {self.block.cols} cols but {len(self.cols_global_cols)} col indices"
            )
        if self.site_a == self.site_b:
            v = self.block.values
            if v.shape[0] != v.shape[1]:
                raise DimensionMismatch("a local covariance block must be square")
            if not np.array_equal(v, v.T):
                raise InvalidCovariance("a local covariance block must be exactly symmetric")


class GlobalCovariance:
    """The full m x m covariance matrix, exactly symmetric by construction.

    Each unordered pair is stored once (the upper triangle) and mirrored, so
    entry (i, j) bit-equals entry (j, i). Diagonal entries are variances and
    must be non-negative.
    """

    __slots__ = ("_matrix",)

    def __init__(self, values, labels: Sequence[str] | None = None):
        arr = np.array(values, dtype=np.float64, order="C")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"covariance matrix must be square, got {arr.shape}")
        if arr.shape[0] < 1:
            raise DimensionMismatch("covariance matrix must have dimension >= 1")
        sym = np.triu(arr) + np.triu(arr, 1).T
        if np.any(np.diag(sym) < 0.0):
            raise InvalidCovariance("diagonal entries (variances) must be non-negative")
        self._matrix = DenseMatrix(sym, labels)

    @property
    def dim(self) -> int:
        return self._matrix.rows

    @property
    def matrix(self) -> DenseMatrix:
        return self._matrix

    @property
    def labels(self) -> tuple[str, ...] | None:
        return self._matrix.labels

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GlobalCovariance):
            return NotImplemented
        return self._matrix == other._matrix

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"GlobalCovariance(dim={self.dim})"


# Rows split per pass: bounds the kernel's working set whatever the row count.
_CHUNK_ROWS = 512


def _slicing(n: int) -> tuple[int, int]:
    """(b, s): bits per slice and slice count for columns of n rows.

    A dot product of two b-bit integer vectors of length n is bounded by
    n * 2**(2b) <= 2**53, so every partial sum is an exact float64 integer.
    s slices hold at least 53 bits, one full significand of the column peak.
    """
    b = (53 - (n - 1).bit_length()) // 2
    return b, -(-53 // b)


class _Operand:
    """One block's columns, prepared for splitting: column means and the
    power-of-two scale that brings each centered column's peak below 2**b.

    Each column's mean sums its rows one chunk at a time: a pairwise sum
    over the chunk, taken on a contiguous copy of the column's rows, then
    added to the running total in chunk order. Neither step depends on the
    other columns of the block, so a column gets the same mean, peak and
    slices whichever block it sits in.
    """

    __slots__ = ("values", "mean", "exps", "scale")

    def __init__(self, values: np.ndarray, b: int):
        n, w = values.shape
        rows_t = np.empty((w, min(n, _CHUNK_ROWS)), dtype=np.float64)
        total = np.zeros(w, dtype=np.float64)
        for r0 in range(0, n, _CHUNK_ROWS):
            part = rows_t[:, : min(_CHUNK_ROWS, n - r0)]
            np.copyto(part, values[r0 : r0 + _CHUNK_ROWS].T)
            total += np.add.reduce(part, axis=1)
        self.values = values
        self.mean = total / n
        # Rounding is monotonic, so the centered peak is the rounded
        # distance from the mean to the column's max or min.
        peak = np.maximum(values.max(axis=0) - self.mean, self.mean - values.min(axis=0))
        _, self.exps = np.frexp(peak)  # peak < 2**exps
        self.scale = np.ldexp(1.0, b - self.exps)

    def split(self, r0: int, out: np.ndarray, b: int) -> None:
        """Write the s integer slices of rows r0 .. r0 + len(out[0]) into out.

        Row p of column u equals 2**(exps[u] - b) * sum_k out[k, p, u] *
        2**(-k b), down to 2**-54 of the column peak; every slice entry is an
        integer below 2**b in magnitude.
        """
        work = out[-1]
        np.subtract(self.values[r0 : r0 + len(work)], self.mean, out=work)
        work *= self.scale  # exact: |work| < 2**b
        lift = float(2**b)
        for k in range(len(out) - 1):
            np.rint(work, out=out[k])
            work -= out[k]  # exact: the rounding residue, at most 1/2
            work *= lift
        np.rint(work, out=work)  # the last slice, in place


def _cov_block(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Covariance block between the columns of two (n, w) arrays: entry
    (u, v) is the covariance of x's column u with y's column v. Pass the
    same array twice for a block's own covariance.

    Columns are centered and split into s integer slices (`_Operand`), a
    chunk of rows at a time. Every slice product X_i^T Y_j is an exact
    integer in any BLAS summation order, so summing it over the chunks is
    exact too. The products are then added level by level (i + j = s-1 down
    to 0, dropping levels >= s, which lie below 2**-53 of the peaks), each
    level scaled exactly by 2**-b, and inside a level X_i^T Y_j is always
    paired with X_j^T Y_i before it is accumulated. The pair sum commutes,
    so the block for (y, x) is the exact transpose of the block for (x, y).
    For x is y only the products with i <= j are computed; the pair is
    T + T^T.
    """
    n = x.shape[0]
    b, s = _slicing(n)
    same = x is y
    xo = _Operand(x, b)
    yo = xo if same else _Operand(y, b)
    wx, wy = x.shape[1], y.shape[1]
    chunk = min(n, _CHUNK_ROWS)
    xs = np.empty((s, chunk, wx), dtype=np.float64)
    ys = xs if same else np.empty((s, chunk, wy), dtype=np.float64)
    products = {
        (i, j): np.empty((wx, wy), dtype=np.float64)
        for i in range(s)
        for j in range(s - i)
        if i <= j or not same
    }
    term = np.empty((wx, wy), dtype=np.float64)
    for r0 in range(0, n, chunk):
        rows = min(chunk, n - r0)
        xo.split(r0, xs[:, :rows], b)
        if not same:
            yo.split(r0, ys[:, :rows], b)
        for (i, j), total in products.items():
            if r0 == 0:
                np.matmul(xs[i, :rows].T, ys[j, :rows], out=total)
            else:
                np.matmul(xs[i, :rows].T, ys[j, :rows], out=term)
                total += term

    out = np.zeros((wx, wy), dtype=np.float64)
    for level in range(s - 1, -1, -1):
        if level < s - 1:
            out *= 2.0**-b
        for i in range(level // 2 + 1):
            j = level - i
            if i == j:
                out += products[i, i]
                continue
            mirror = products[i, j].T if same else products[j, i]
            np.add(products[i, j], mirror, out=term)
            out += term
    np.ldexp(out, np.add.outer(xo.exps - b, yo.exps - b), out=out)
    out /= n - 1
    return out


def local_covariance(b: ColumnBlock) -> CovBlock:
    """Covariance block of one site's own columns, exactly symmetric."""
    n = b.data.rows
    if n < 2:
        raise TooFewRows("sample covariance needs at least 2 rows")
    values = b.data.values
    return CovBlock(
        site_a=b.site,
        site_b=b.site,
        block=DenseMatrix._wrap(_cov_block(values, values), b.data.labels),
        rows_global_cols=b.global_cols,
        cols_global_cols=b.global_cols,
    )


def cross_covariance(receiver: ColumnBlock, sender: ColumnBlock) -> CovBlock:
    """Cross-covariance block between a sender's and a receiver's columns.

    Computed at the receiver after the sender's raw columns arrive; entry
    (u, v) pairs sender column u with receiver column v. The receiver
    recomputes the sender's means from the raw data, which the kernel makes
    identical to sender-side means.
    """
    if receiver.site == sender.site:
        raise SameSite(f"cross covariance needs two distinct sites, both are {receiver.site}")
    n = receiver.data.rows
    if n != sender.data.rows:
        raise RowCountMismatch(
            f"row counts differ: sender {sender.data.rows}, receiver {receiver.data.rows}"
        )
    if n < 2:
        raise TooFewRows("sample covariance needs at least 2 rows")
    block = _cov_block(sender.data.values, receiver.data.values)
    return CovBlock(
        site_a=sender.site,
        site_b=receiver.site,
        block=DenseMatrix._wrap(block),
        rows_global_cols=sender.global_cols,
        cols_global_cols=receiver.global_cols,
    )


def centralized_covariance(m: DenseMatrix) -> GlobalCovariance:
    """Full covariance matrix computed directly on the unpartitioned data.

    This is the oracle every distributed result is checked against: the same
    kernel, run on all columns at once.
    """
    n = m.rows
    if n < 2:
        raise TooFewRows("sample covariance needs at least 2 rows")
    if m.cols < 1:
        raise DimensionMismatch("covariance needs at least one column")
    return GlobalCovariance(_cov_block(m.values, m.values), m.labels)


def merge_blocks(
    local_blocks: Sequence[CovBlock],
    cross_blocks: Sequence[CovBlock],
    total_cols: int,
) -> GlobalCovariance:
    """Assemble the global covariance matrix from local and cross blocks.

    Coverage is validated before any entry is written: every unordered pair
    of global columns must be covered exactly once, with every column owned
    by exactly one local block. A partial merge would silently produce a
    wrong matrix, so gaps and overlaps are hard errors.

    Raises:
        MissingPair: some column pair is not covered.
        OverlappingPair: some column pair is covered twice.
        DimensionMismatch: a block references columns outside the matrix.
    """
    if total_cols < 1:
        raise DimensionMismatch("total_cols must be >= 1")

    for blk in local_blocks:
        if blk.site_a != blk.site_b:
            raise DimensionMismatch(
                f"cross block ({blk.site_a},{blk.site_b}) passed as a local block"
            )
    for blk in cross_blocks:
        if blk.site_a == blk.site_b:
            raise DimensionMismatch(f"local block of site {blk.site_a} passed as a cross block")

    all_blocks = list(local_blocks) + list(cross_blocks)
    for blk in all_blocks:
        for c in (*blk.rows_global_cols, *blk.cols_global_cols):
            if not 0 <= c < total_cols:
                raise DimensionMismatch(
                    f"block ({blk.site_a},{blk.site_b}) references column {c}, "
                    f"matrix has {total_cols}"
                )

    # Count coverage of ordered cells; exact symmetry of the count matrix
    # makes "each unordered pair exactly once" the same as "every cell == 1".
    count = np.zeros((total_cols, total_cols), dtype=np.int32)
    for blk in local_blocks:
        g = list(blk.rows_global_cols)
        count[np.ix_(g, g)] += 1
    for blk in cross_blocks:
        rg = list(blk.rows_global_cols)
        cg = list(blk.cols_global_cols)
        count[np.ix_(rg, cg)] += 1
        count[np.ix_(cg, rg)] += 1

    over = np.argwhere(count > 1)
    if over.size:
        i, j = over[0]
        raise OverlappingPair(f"column pair ({i},{j}) covered more than once")
    gaps = np.argwhere(count == 0)
    if gaps.size:
        i, j = gaps[0]
        raise MissingPair(f"column pair ({i},{j}) not covered by any block")

    out = np.empty((total_cols, total_cols), dtype=np.float64)
    for blk in local_blocks:
        g = list(blk.rows_global_cols)
        out[np.ix_(g, g)] = blk.block.values
    for blk in cross_blocks:
        rg = list(blk.rows_global_cols)
        cg = list(blk.cols_global_cols)
        out[np.ix_(rg, cg)] = blk.block.values
        out[np.ix_(cg, rg)] = blk.block.values.T

    labels = _merged_labels(local_blocks, total_cols)
    return GlobalCovariance(out, labels)


def _merged_labels(
    local_blocks: Sequence[CovBlock], total_cols: int
) -> tuple[str, ...] | None:
    # Labels survive the merge only if every local block carries them.
    slots: list[str | None] = [None] * total_cols
    for blk in local_blocks:
        names = blk.block.labels
        if names is None:
            return None
        for pos, name in zip(blk.rows_global_cols, names):
            slots[pos] = name
    if any(s is None for s in slots):
        return None
    return tuple(slots)  # type: ignore[arg-type]
