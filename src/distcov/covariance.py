"""Covariance kernels and the block algebra that assembles the global matrix.

Every block, local or cross, centralized or merged, comes from one kernel,
`_cov_blocks`, built on error-free splitting (Ozaki, Ogita, Oishi & Rump,
Numer. Algorithms 59, 2012); it splits each input once and reuses it across
every product (Mukunoki, Ozaki, Ogita & Imamura, ISC 2020). The determinism
contract:

- A column's mean, its power-of-two scale and its slices depend only on
  that column's values and the row count n, never on the block around it.
- Each centered, scaled column is split into s integer slices of about b
  bits, b = floor((53 - ceil(log2 n)) / 2). A slice dot product, or a pair
  X_i^T Y_j + X_j^T Y_i, is then an integer of at most 53 bits, so BLAS sums
  it exactly in any order: block shape, tiling and thread count change no bit.
- The slice products are combined in one fixed order that is symmetric in
  the two operands, so cov(a, b) and cov(b, a) are the same float.

Hence a merged matrix is bit-identical to the matrix a single-machine
computation produces. Entries are accurate to about one rounding of the
centered data: products below 2**-53 of the column peaks are dropped, and
the final sum is rounded once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidCovariance,
    MissingPair,
    NonFiniteValue,
    OverlappingPair,
    RowCountMismatch,
    SameSite,
    TooFewRows,
)
from .matrix import DenseMatrix
from .schedule import pair_coverage

__all__ = [
    "ColumnBlock",
    "CovBlock",
    "GlobalCovariance",
    "local_covariance",
    "cross_covariance",
    "site_covariance",
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

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, order="C")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"covariance matrix must be square, got {arr.shape}")
        if arr.shape[0] < 1:
            raise DimensionMismatch("covariance matrix must have dimension >= 1")
        sym = np.triu(arr) + np.triu(arr, 1).T
        if np.any(np.diag(sym) < 0.0):
            raise InvalidCovariance("diagonal entries (variances) must be non-negative")
        self._matrix = DenseMatrix(sym)

    @classmethod
    def _assembled(cls, arr: np.ndarray) -> "GlobalCovariance":
        """What `__init__` makes of a fresh C-contiguous finite arr whose
        triangles hold equal values, without the mirror sum or a copy: arr
        itself is normalized in place and becomes the matrix's read-only
        storage. Equal values are equal bits but for the sign of zero;
        + 0.0 makes -0.0 into +0.0, as the mirror sum in `__init__` does.
        """
        arr += 0.0
        if np.any(np.diag(arr) < 0.0):
            raise InvalidCovariance("diagonal entries (variances) must be non-negative")
        cov = cls.__new__(cls)
        cov._matrix = DenseMatrix._wrap(arr)
        return cov

    @property
    def dim(self) -> int:
        return self._matrix.rows

    @property
    def matrix(self) -> DenseMatrix:
        return self._matrix

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

    Slices are at most 2**b (slice 0) or 2**(b-1) in magnitude, so a product
    X_i^T Y_j or a pair sum X_i^T Y_j + X_j^T Y_i is bounded by n * 2**(2b)
    <= 2**53 and every partial sum is an exact float64 integer. s slices
    hold at least 53 bits, one full significand of the column peak.
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
        hi = np.full(w, -np.inf)
        lo = np.full(w, np.inf)
        for r0 in range(0, n, _CHUNK_ROWS):
            part = rows_t[:, : min(_CHUNK_ROWS, n - r0)]
            np.copyto(part, values[r0 : r0 + _CHUNK_ROWS].T)
            total += np.add.reduce(part, axis=1)
            np.maximum(hi, part.max(axis=1), out=hi)
            np.minimum(lo, part.min(axis=1), out=lo)
        self.values = values
        self.mean = total / n
        # Rounding is monotonic, so the centered peak is the rounded
        # distance from the mean to the column's max or min.
        peak = np.maximum(hi - self.mean, self.mean - lo)
        if not np.isfinite(peak).all():
            raise NonFiniteValue("a column's centered values overflow float64")
        _, self.exps = np.frexp(peak)  # peak < 2**exps
        self.scale = np.ldexp(1.0, b - self.exps)

    def split(self, r0: int, out: np.ndarray, b: int) -> None:
        """Write the s integer slices of rows r0 .. r0 + len(out[0]) into out.

        Row p of column u equals 2**(exps[u] - b) * sum_k out[k, p, u] *
        2**(-k b), down to 2**-54 of the column peak. Slice 0 rounds a value
        below 2**b, so it may reach 2**b in magnitude; each later slice is a
        residue of at most 1/2 times 2**b, so at most 2**(b-1).
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


@np.errstate(over="ignore")  # an overflow is refused below as NonFiniteValue
def _cov_blocks(y: np.ndarray, xs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Covariance blocks of several (n, w) arrays against one (n, wy) array:
    entry (u, v) of block k is the covariance of xs[k]'s column u with y's
    column v. An entry of xs that is y itself gives y's own covariance.

    Columns are centered and split into s integer slices (`_Operand`), a
    chunk of rows at a time: y once per chunk for every block, each other
    array in turn into one shared buffer. A slice product X_i^T Y_j and a
    pair sum X_i^T Y_j + X_j^T Y_i are exact integers in any summation order
    (`_slicing`), so each pair (i < j) sums into one accumulator over the
    chunks, through one product buffer. The slices are then released and
    each block is combined in place, level by level (i + j = s-1 down to 0,
    dropping levels >= s, which lie below 2**-53 of the peaks), each level
    scaled exactly by 2**-b. The pair sum commutes, so the block for (y, x)
    is the exact transpose of the block for (x, y). For x is y only
    X_i^T Y_j is computed; the pair is T + T^T.

    Raises NonFiniteValue, without a numpy warning, when a column's
    centered values or a covariance overflow float64.
    """
    n, wy = y.shape
    b, s = _slicing(n)
    chunk = min(n, _CHUNK_ROWS)
    yo = _Operand(y, b)
    parts = [(x is y, yo if x is y else _Operand(x, b),
              {(i, j): np.empty((x.shape[1], wy)) for i in range(s) for j in range(i, s - i)})
             for x in xs]
    y_slices = np.empty((s, chunk, wy))
    x_buf = np.empty(s * chunk * max((x.shape[1] for x in xs if x is not y), default=0))
    term_buf = np.empty(max(x.shape[1] for x in xs) * wy)
    for r0 in range(0, n, chunk):
        rows = min(chunk, n - r0)
        yo.split(r0, y_slices[:, :rows], b)
        for same, xo, totals in parts:
            wx = len(xo.mean)
            x_slices = y_slices if same else x_buf[: s * chunk * wx].reshape(s, chunk, wx)
            if not same:
                xo.split(r0, x_slices[:, :rows], b)
            term = term_buf[: wx * wy].reshape(wx, wy)
            for (i, j), total in totals.items():
                for p, q in ((i, j),) if same or i == j else ((i, j), (j, i)):
                    prod = total if r0 == 0 and p == i else term
                    np.matmul(x_slices[p, :rows].T, y_slices[q, :rows], out=prod)
                    if prod is term:
                        total += term
    del y_slices, x_slices, x_buf

    blocks = []
    for same, xo, totals in parts:
        wx = len(xo.mean)
        term, out = term_buf[: wx * wy].reshape(wx, wy), totals[0, s - 1]
        for level in range(s - 1, -1, -1):
            if level < s - 1:
                out *= 2.0**-b
            for i in range(level // 2 + 1):
                total = totals[i, level - i]
                if same and 2 * i != level:
                    total = np.add(total, total.T, out=term)
                # The first term is added to 0.0, so a zero sum is +0.0.
                np.add(total, 0.0 if (level, i) == (s - 1, 0) else out, out=out)
        for r0 in range(0, wx, _CHUNK_ROWS):  # a panel of rows at a time
            rows = slice(r0, r0 + _CHUNK_ROWS)
            np.ldexp(out[rows], np.add.outer(xo.exps[rows] - b, yo.exps - b), out=out[rows])
        out /= n - 1
        # An infinity is the minimum or the maximum: no (wx, wy) mask.
        if not (np.isfinite(out.min()) and np.isfinite(out.max())):
            raise NonFiniteValue("a covariance overflows float64")
        blocks.append(out)
    return blocks


def local_covariance(b: ColumnBlock) -> CovBlock:
    """Covariance block of one site's own columns, exactly symmetric."""
    return site_covariance(b, [])[0]


def _check_senders(receiver: ColumnBlock, senders: Sequence[ColumnBlock]) -> None:
    n = receiver.data.rows
    for sender in senders:
        if receiver.site == sender.site:
            raise SameSite(
                f"cross covariance needs two distinct sites, both are {receiver.site}"
            )
        if n != sender.data.rows:
            raise RowCountMismatch(
                f"row counts differ: sender {sender.data.rows}, receiver {n}"
            )
    if n < 2:
        raise TooFewRows("sample covariance needs at least 2 rows")


def _cross_block(receiver: ColumnBlock, sender: ColumnBlock, values: np.ndarray) -> CovBlock:
    return CovBlock(
        sender.site, receiver.site, DenseMatrix._wrap(values),
        sender.global_cols, receiver.global_cols,
    )


def cross_covariance(receiver: ColumnBlock, sender: ColumnBlock) -> CovBlock:
    """Cross-covariance block between a sender's and a receiver's columns.

    Computed at the receiver after the sender's raw columns arrive; entry
    (u, v) pairs sender column u with receiver column v. The receiver
    recomputes the sender's means from the raw data, which the kernel makes
    identical to sender-side means.
    """
    _check_senders(receiver, [sender])
    (block,) = _cov_blocks(receiver.data.values, [sender.data.values])
    return _cross_block(receiver, sender, block)


def site_covariance(
    own: ColumnBlock, senders: Sequence[ColumnBlock]
) -> tuple[CovBlock, list[CovBlock]]:
    """A site's local block and one cross block per sender, from one kernel
    call that prepares the site's own columns once and splits them once per
    chunk of rows for every block.

    Each cross block is oriented as `cross_covariance` orients it. Every
    column's mean, scale and slices depend only on that column, so each
    block bit-equals the block `local_covariance` or `cross_covariance`
    computes.
    """
    _check_senders(own, senders)
    values = own.data.values
    try:
        local, *cross = _cov_blocks(values, [values, *(s.data.values for s in senders)])
    except NonFiniteValue as exc:
        raise NonFiniteValue(f"site {own.site}: {exc}") from None
    local_block = CovBlock(
        own.site, own.site, DenseMatrix._wrap(local),
        own.global_cols, own.global_cols,
    )
    return local_block, [_cross_block(own, s, c) for s, c in zip(senders, cross)]


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
    (block,) = _cov_blocks(m.values, [m.values])
    return GlobalCovariance._assembled(block)


def _column_count(owners: Iterable[Sequence[int]]) -> int:
    """m, once the sites' global columns are shown to partition 0 .. m-1."""
    seen: set[int] = set()
    for cols in owners:
        for c in cols:
            if c in seen:
                raise DimensionMismatch(f"column {c} held by two sites")
            seen.add(c)
    missing = set(range(len(seen) or 1)) - seen  # no columns at all misses column 0
    if missing:
        raise DimensionMismatch(f"column {min(missing)} held by no site")
    return len(seen)


class _Assembler:
    """The m x m matrix, written one block (and its mirror) at a time.

    Built from `owners[k]`, site k's global columns, and the (site_a,
    site_b) of every block to come, it first proves that the columns
    partition 0 .. m-1 and that the blocks cover every unordered pair of
    sites exactly once. It then takes only the blocks still `missing`.
    """

    def __init__(self, owners: dict[int, tuple[int, ...]], pairs: Sequence[tuple[int, int]]):
        self.dim = _column_count(owners.values())
        surplus, gaps = pair_coverage(owners, pairs)
        if gaps:
            raise MissingPair(f"site pair {gaps[0]} not covered by any block")
        if surplus:
            raise OverlappingPair(f"site pair {surplus[0]} covered twice or by an unknown site")
        self.expected, self.missing = len(pairs), set(pairs)
        self._owners = owners
        self._out = np.empty((self.dim, self.dim), dtype=np.float64)

    def add(self, blk: CovBlock) -> None:
        a, b = blk.site_a, blk.site_b
        if (a, b) not in self.missing:
            raise OverlappingPair(f"block ({a},{b}) came before or was never expected")
        if (
            blk.rows_global_cols != self._owners[a]
            or blk.cols_global_cols != self._owners[b]
        ):
            raise DimensionMismatch(
                f"block ({a},{b}) indices are not the columns of sites {a} and {b}"
            )
        rg, cg = list(blk.rows_global_cols), list(blk.cols_global_cols)
        self._out[np.ix_(rg, cg)] = blk.block.values
        if a != b:
            self._out[np.ix_(cg, rg)] = blk.block.values.T
        self.missing.remove((a, b))

    def result(self) -> GlobalCovariance:
        """The matrix, once `missing` is empty."""
        return GlobalCovariance._assembled(self._out)


def merge_blocks(
    local_blocks: Sequence[CovBlock],
    cross_blocks: Sequence[CovBlock],
    total_cols: int,
) -> GlobalCovariance:
    """Assemble the global covariance matrix from local and cross blocks.

    The local blocks' columns must partition 0 .. total_cols-1, each cross
    block must span exactly the columns of its two sites, and every pair of
    sites must be covered exactly once. A partial merge would silently
    produce a wrong matrix, so gaps and overlaps are hard errors.

    Raises:
        MissingPair: some pair of sites has no block.
        OverlappingPair: some pair of sites has two blocks, or a cross
            block names a site with no local block.
        DimensionMismatch: the local blocks' columns do not partition
            0 .. total_cols-1, a cross block's columns are not its sites'
            columns, or a block is filed as the other kind.
    """
    for blk in cross_blocks:
        if blk.site_a == blk.site_b:
            raise DimensionMismatch(f"local block of site {blk.site_a} passed as a cross block")
    for blk in local_blocks:
        if blk.site_a != blk.site_b:
            raise DimensionMismatch(
                f"cross block ({blk.site_a},{blk.site_b}) passed as a local block"
            )
    blocks = (*local_blocks, *cross_blocks)
    assembler = _Assembler(
        {b.site_a: b.rows_global_cols for b in local_blocks},
        [(b.site_a, b.site_b) for b in blocks],
    )
    if assembler.dim != total_cols:
        raise DimensionMismatch(
            f"the blocks hold {assembler.dim} columns, total_cols is {total_cols}"
        )
    for blk in blocks:
        assembler.add(blk)
    return assembler.result()
