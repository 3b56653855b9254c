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
computation produces. The kernel sums the products of the columns centered
at their rounded means exactly, but for products below 2**-53 of the
column peaks, and rounds the sum once. Centering at a rounded mean mu^
rather than the exact mean mu shifts that sum by n (mu_i - mu^_i)(mu_j -
mu^_j), which is not small for a column whose mean is large against its
spread. `test_kernel_matches_exact_rational_reference` checks every entry
to within 2**-52 * sqrt(var_i * var_j) of the exact covariance on a
120 x 6 table whose mean-to-spread ratios are at most about 2e3; no bound
is claimed beyond such tables (ROADMAP item 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DistCovError, ProtocolError
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
            raise DistCovError(f"site id must be non-negative, got {self.site}")
        if self.data.cols < 1:
            raise DistCovError("a column block must hold at least one column")
        if len(self.global_cols) != self.data.cols:
            raise DistCovError(
                f"{len(self.global_cols)} global indices for {self.data.cols} columns"
            )
        if any(b <= a for a, b in zip(self.global_cols, self.global_cols[1:])):
            raise DistCovError("global column indices must be strictly increasing")
        if self.global_cols and self.global_cols[0] < 0:
            raise DistCovError("global column indices must be non-negative")


@dataclass(frozen=True)
class CovBlock:
    """A covariance sub-matrix between the columns of two sites.

    Entry (u, v) is the covariance of global column ``rows_global_cols[u]``
    with global column ``cols_global_cols[v]``. A block with
    ``site_a == site_b`` is a site's local covariance and must be square,
    bit-symmetric and free of negative variances.
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
            raise DistCovError(
                f"block has {self.block.rows} rows but {len(self.rows_global_cols)} row indices"
            )
        if self.block.cols != len(self.cols_global_cols):
            raise DistCovError(
                f"block has {self.block.cols} cols but {len(self.cols_global_cols)} col indices"
            )
        if self.site_a == self.site_b:
            v = self.block.values
            if v.shape[0] != v.shape[1]:
                raise DistCovError("a local covariance block must be square")
            if not np.array_equal(v, v.T):
                raise DistCovError("a local covariance block must be exactly symmetric")
            if np.any(np.diag(v) < 0.0):
                raise DistCovError("a local covariance block's variances must be non-negative")


class GlobalCovariance:
    """The full m x m covariance matrix, exactly symmetric: entry (i, j)
    bit-equals entry (j, i), and no entry is -0.0. Diagonal entries are
    variances and must be non-negative.
    """

    __slots__ = ("_matrix",)

    def __init__(self, values):
        arr = DenseMatrix(values).values.copy()  # 2-D and finite; writable
        if arr.shape[0] != arr.shape[1]:
            raise DistCovError(f"covariance matrix must be square, got {arr.shape}")
        if arr.shape[0] < 1:
            raise DistCovError("covariance matrix must have dimension >= 1")
        if not np.array_equal(arr, arr.T):
            raise DistCovError("covariance matrix must be exactly symmetric")
        self._matrix = self._assembled(arr)._matrix

    @classmethod
    def _assembled(cls, arr: np.ndarray) -> "GlobalCovariance":
        """The matrix of a fresh C-contiguous finite arr whose triangles hold
        equal values, without a copy: arr itself is normalized in place and
        becomes the matrix's read-only storage. Equal values are equal bits
        but for the sign of zero; + 0.0 makes -0.0 into +0.0.
        """
        arr += 0.0
        if np.any(np.diag(arr) < 0.0):
            raise DistCovError("diagonal entries (variances) must be non-negative")
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

    A finite column whose sum overflows is summed again, in the same
    order, scaled by 2**-k <= 1/n, where no partial sum can overflow; its
    mean is scaled back and kept between the column's min and max, where
    the exact mean lies. Only a constant column can have a finite
    covariance there, and the clamp makes its mean exact. Every other
    column's sum is finite and takes no part in this.
    """

    __slots__ = ("values", "mean", "exps")

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
        wide = ~np.isfinite(total)
        if wide.any():
            k = (n - 1).bit_length()
            mean = _Operand(np.ldexp(values[:, wide], -k), b).mean * 2.0**k
            self.mean[wide] = np.clip(mean, lo[wide], hi[wide])
        # Rounding is monotonic, so the centered peak is the rounded
        # distance from the mean to the column's max or min.
        peak = np.maximum(hi - self.mean, self.mean - lo)
        if not np.isfinite(peak).all():
            raise DistCovError("a column's centered values overflow float64")
        _, self.exps = np.frexp(peak)  # peak < 2**exps

    def split(self, r0: int, out: np.ndarray, b: int) -> None:
        """Write the s integer slices of rows r0 .. r0 + len(out[0]) into out.

        Row p of column u equals 2**(exps[u] - b) * sum_k out[k, p, u] *
        2**(-k b), down to 2**-54 of the column peak. Slice 0 rounds a value
        below 2**b, so it may reach 2**b in magnitude; each later slice is a
        residue of at most 1/2 times 2**b, so at most 2**(b-1).
        """
        work = out[-1]
        np.subtract(self.values[r0 : r0 + len(work)], self.mean, out=work)
        np.ldexp(work, b - self.exps, out=work)  # exact, < 2**b, at any exponent
        lift = float(2**b)
        for k in range(len(out) - 1):
            np.rint(work, out=out[k])
            work -= out[k]  # exact: the rounding residue, at most 1/2
            work *= lift
        np.rint(work, out=work)  # the last slice, in place


# A column sum may overflow, to inf or, with +inf and -inf, to nan; such a
# column is summed again (`_Operand`). Any other overflow is refused below.
@np.errstate(over="ignore", invalid="ignore")
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

    Raises DistCovError, without a numpy warning, for fewer than 2 rows or
    when a column's centered values or a covariance overflow float64.
    """
    n, wy = y.shape
    if n < 2:
        raise DistCovError("sample covariance needs at least 2 rows")
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
        out /= n - 1  # before the scaling: only a covariance past float64's range overflows
        for r0 in range(0, wx, _CHUNK_ROWS):  # a panel of rows at a time
            rows = slice(r0, r0 + _CHUNK_ROWS)
            np.ldexp(out[rows], np.add.outer(xo.exps[rows] - b, yo.exps - b), out=out[rows])
        # An infinity is the minimum or the maximum: no (wx, wy) mask.
        if not (np.isfinite(out.min()) and np.isfinite(out.max())):
            raise DistCovError("a covariance overflows float64")
        blocks.append(out)
    return blocks


def _row_count(named: Sequence[tuple[object, DenseMatrix]]) -> int:
    """The row count that every matrix of the (name, matrix) pairs shares,
    that of the first; a matrix of another count is refused by both names."""
    first, rows = named[0][0], named[0][1].rows
    for name, m in named:
        if m.rows != rows:
            raise DistCovError(f"{name} has {m.rows} rows, {first} has {rows}")
    return rows


def _site_blocks(own: ColumnBlock, xs: Sequence[ColumnBlock]) -> list[CovBlock]:
    """The blocks of each of xs against own's columns, from one kernel call,
    each oriented (x.site, own.site): entry (u, v) pairs x's column u with
    own's column v. xs may hold own's site once, as own itself, which gives
    own's local block. A kernel error names own's site.
    """
    if sum(x.site == own.site for x in xs) > any(x is own for x in xs):
        raise DistCovError(f"cross covariance needs two distinct sites, both are {own.site}")
    _row_count([(f"site {b.site}", b.data) for b in (own, *xs)])
    try:
        values = _cov_blocks(own.data.values, [x.data.values for x in xs])
    except DistCovError as exc:
        raise DistCovError(f"site {own.site}: {exc}") from None
    return [CovBlock(x.site, own.site, DenseMatrix._wrap(v), x.global_cols, own.global_cols)
            for x, v in zip(xs, values)]


def local_covariance(b: ColumnBlock) -> CovBlock:
    """Covariance block of one site's own columns, exactly symmetric."""
    (block,) = _site_blocks(b, [b])
    return block


def cross_covariance(receiver: ColumnBlock, sender: ColumnBlock) -> CovBlock:
    """Cross-covariance block between a sender's and a receiver's columns.

    Computed at the receiver after the sender's raw columns arrive; entry
    (u, v) pairs sender column u with receiver column v. The receiver
    recomputes the sender's means from the raw data, which the kernel makes
    identical to sender-side means.
    """
    (block,) = _site_blocks(receiver, [sender])
    return block


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
    local, *cross = _site_blocks(own, [own, *senders])
    return local, cross


def centralized_covariance(m: DenseMatrix) -> GlobalCovariance:
    """Full covariance matrix computed directly on the unpartitioned data.

    This is the oracle every distributed result is checked against: the same
    kernel, run on all columns at once.
    """
    if m.cols < 1:
        raise DistCovError("covariance needs at least one column")
    (block,) = _cov_blocks(m.values, [m.values])
    return GlobalCovariance._assembled(block)


def _column_count(owners: Iterable[Sequence[int]]) -> int:
    """m, once the sites' global columns are shown to partition 0 .. m-1."""
    seen: set[int] = set()
    for cols in owners:
        for c in cols:
            if c in seen:
                raise DistCovError(f"column {c} held by two sites")
            seen.add(c)
    missing = set(range(len(seen) or 1)) - seen  # no columns at all misses column 0
    if missing:
        raise DistCovError(f"column {min(missing)} held by no site")
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
            raise ProtocolError(f"site pair {gaps[0]} not covered by any block")
        if surplus:
            raise ProtocolError(f"site pair {surplus[0]} covered twice or by an unknown site")
        self.expected, self.missing = len(pairs), set(pairs)
        self._owners = owners
        self._out = np.empty((self.dim, self.dim), dtype=np.float64)

    def add(self, blk: CovBlock) -> None:
        a, b = blk.site_a, blk.site_b
        if (a, b) not in self.missing:
            raise ProtocolError(f"block ({a},{b}) came before or was never expected")
        if (
            blk.rows_global_cols != self._owners[a]
            or blk.cols_global_cols != self._owners[b]
        ):
            raise DistCovError(
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
        ProtocolError: some pair of sites has no block or two blocks, or a
            cross block names a site with no local block.
        DistCovError (no subclass): the local blocks' columns do not partition
            0 .. total_cols-1, a cross block's columns are not its sites'
            columns, or a block is filed as the other kind.
    """
    for blk in cross_blocks:
        if blk.site_a == blk.site_b:
            raise DistCovError(f"local block of site {blk.site_a} passed as a cross block")
    for blk in local_blocks:
        if blk.site_a != blk.site_b:
            raise DistCovError(
                f"cross block ({blk.site_a},{blk.site_b}) passed as a local block"
            )
    blocks = (*local_blocks, *cross_blocks)
    assembler = _Assembler(
        {b.site_a: b.rows_global_cols for b in local_blocks},
        [(b.site_a, b.site_b) for b in blocks],
    )
    if assembler.dim != total_cols:
        raise DistCovError(
            f"the blocks hold {assembler.dim} columns, total_cols is {total_cols}"
        )
    for blk in blocks:
        assembler.add(blk)
    return assembler.result()
