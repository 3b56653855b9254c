from __future__ import annotations

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcov import (
    ColumnBlock,
    CovBlock,
    DenseMatrix,
    GlobalCovariance,
    centralized_covariance,
    cross_covariance,
    local_covariance,
    merge_blocks,
    mfeat_preset,
    partition_vertical,
    run_distributed,
    site_covariance,
    synthetic_table,
)
from distcov.covariance import _CHUNK_ROWS, _Operand, _slicing
from distcov.errors import DistCovError, ProtocolError
from distcov.runtime import _timed_exchange
from conftest import blocks_for, raises_exactly, random_widths, schedule_blocks
from distcov.schedule import build_schedule


# --- one-column blocks: known values and argument errors ------------------

def _col(site: int, values, col: int = 0) -> ColumnBlock:
    return ColumnBlock(site=site, data=DenseMatrix(np.reshape(values, (-1, 1))),
                       global_cols=(col,))


def test_one_column_identical_columns():
    # Sum of squared deviations 2, divided by n-1 = 2.
    blk = cross_covariance(receiver=_col(1, [1, 2, 3], 1), sender=_col(0, [1, 2, 3]))
    assert blk.block.values.tolist() == [[1.0]]


def test_one_column_reversed_columns():
    blk = cross_covariance(receiver=_col(1, [3, 2, 1], 1), sender=_col(0, [1, 2, 3]))
    assert blk.block.values.tolist() == [[-1.0]]


def test_one_column_constant_column_is_zero():
    blk = cross_covariance(receiver=_col(1, [1, 7, 4], 1), sender=_col(0, [5, 5, 5]))
    assert blk.block.values.tolist() == [[0.0]]


def test_one_column_length_mismatch():
    with raises_exactly(DistCovError, match="^site 0 has 2 rows, site 1 has 3$"):
        cross_covariance(receiver=_col(1, [1, 2, 3], 1), sender=_col(0, [1, 2]))


def test_one_column_too_few_rows():
    with raises_exactly(DistCovError, match='sample covariance needs at least 2 rows'):
        local_covariance(_col(0, [1]))
    with raises_exactly(DistCovError, match='sample covariance needs at least 2 rows'):
        cross_covariance(receiver=_col(1, [2], 1), sender=_col(0, [1]))


# --- block types -----------------------------------------------------------

def test_column_block_validation():
    data = DenseMatrix(np.reshape([1, 2, 3, 4, 5, 6], (3, 2)))
    with raises_exactly(DistCovError, match="1 global indices for 2 columns"):
        ColumnBlock(site=0, data=data, global_cols=(1,))  # wrong index count
    with raises_exactly(DistCovError, match="must be strictly increasing"):
        ColumnBlock(site=0, data=data, global_cols=(3, 1))  # not increasing
    with raises_exactly(DistCovError, match="site id must be non-negative, got -1"):
        ColumnBlock(site=-1, data=data, global_cols=(0, 1))


def test_local_cov_block_must_be_symmetric():
    asym = DenseMatrix(np.reshape([1, 2, 3, 4], (2, 2)))
    with raises_exactly(DistCovError, match="must be exactly symmetric"):
        CovBlock(site_a=0, site_b=0, block=asym,
                 rows_global_cols=(0, 1), cols_global_cols=(0, 1))


def test_local_cov_block_refuses_a_negative_variance():
    block = DenseMatrix([[1.0, 0.5], [0.5, -2.0]])
    with raises_exactly(DistCovError, match="block's variances must be non-negative"):
        CovBlock(site_a=0, site_b=0, block=block,
                 rows_global_cols=(0, 1), cols_global_cols=(0, 1))
    # A cross block holds covariances, not variances: its diagonal may be negative.
    CovBlock(site_a=0, site_b=1, block=block, rows_global_cols=(0, 1), cols_global_cols=(2, 3))


def test_global_covariance_refuses_an_asymmetric_matrix():
    with raises_exactly(DistCovError, match="covariance matrix must be exactly symmetric"):
        GlobalCovariance([[1.0, 5.0], [999.0, 2.0]])


def test_global_covariance_copies_and_clears_signed_zeros():
    values = np.array([[2.0, -0.0], [0.0, -0.0]])
    g = GlobalCovariance(values)
    assert not np.shares_memory(g.matrix.values, values)
    assert g.matrix == DenseMatrix([[2.0, 0.0], [0.0, 0.0]])
    assert values[0, 1].tobytes() == np.float64(-0.0).tobytes()


def test_global_covariance_must_be_finite():
    with raises_exactly(DistCovError, match=r"matrix values must be finite \(no NaN/Inf\)"):
        GlobalCovariance([[1.0, np.nan], [np.nan, 1.0]])


def test_global_covariance_rejects_negative_variance():
    with raises_exactly(DistCovError, match=r"diagonal entries \(variances\) must be non-negative"):
        GlobalCovariance([[-1.0, 0.0], [0.0, 1.0]])


def test_global_covariance_must_be_square():
    with raises_exactly(DistCovError, match="covariance matrix must be square"):
        GlobalCovariance([[1.0, 2.0]])


def test_assembled_matrix_keeps_the_array_it_was_given():
    arr = np.array([[2.0, -0.0], [-0.0, 3.0]])
    cov = GlobalCovariance._assembled(arr)
    assert np.shares_memory(cov.matrix.values, arr)
    assert cov.matrix == GlobalCovariance([[2.0, 0.0], [0.0, 3.0]]).matrix


def test_overflowing_covariance_is_not_finite():
    # Finite input whose covariance overflows: (1e300)**2 is infinite. It
    # is refused without a numpy warning.
    values = np.column_stack([np.arange(6.0), [1e300, -1e300] * 3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with raises_exactly(DistCovError, match="covariance overflows"):
            centralized_covariance(DenseMatrix(values))
        # The distance from this column's mean to its max overflows.
        with raises_exactly(DistCovError, match="centered values overflow"):
            centralized_covariance(DenseMatrix(np.reshape([1.7e308, -1.7e308, -1.7e308], (3, 1))))
        # Summed pairwise, this column's partial sums reach +inf and -inf, and
        # their sum is nan; the column is summed again, scaled.
        spread = np.zeros((16, 1))
        spread[[0, 8]], spread[[1, 9]] = 1.7e308, -1.7e308
        with raises_exactly(DistCovError, match="covariance overflows"):
            centralized_covariance(DenseMatrix(spread))
        # The sum of this column overflows, its mean and covariance do not.
        cov = centralized_covariance(DenseMatrix(np.full((6, 1), 1.7e308)))
    assert cov.matrix.values.tolist() == [[0.0]]


def test_every_site_kernel_error_names_its_site():
    # Columns of +-1e300 have covariances of about 1e600.
    big = [1e300, -1e300, 1e300]
    a, b = _col(0, big), _col(1, big, 1)
    for call in (lambda: cross_covariance(receiver=b, sender=a),
                 lambda: local_covariance(b),
                 lambda: site_covariance(b, [a])):
        with raises_exactly(DistCovError, match="^site 1: a covariance overflows float64$"):
            call()
    with raises_exactly(DistCovError, match="^site 0: sample covariance needs at least 2 rows$"):
        local_covariance(_col(0, [1]))


# --- local / cross / centralized -------------------------------------------

def test_local_single_column_variance():
    b = ColumnBlock(site=0, data=DenseMatrix(np.reshape([1, 2, 3], (3, 1))), global_cols=(0,))
    blk = local_covariance(b)
    assert blk.block.values.tolist() == [[1.0]]
    assert blk.site_a == blk.site_b == 0


def test_local_two_columns():
    b = ColumnBlock(site=0, data=DenseMatrix(np.reshape([1, 3, 2, 2, 3, 1], (3, 2))),
                    global_cols=(0, 1))
    blk = local_covariance(b)
    assert blk.block.values.tolist() == [[1.0, -1.0], [-1.0, 1.0]]


def test_local_identical_columns_give_equal_entries():
    b = ColumnBlock(site=0, data=DenseMatrix(np.reshape([1, 1, 2, 2, 3, 3], (3, 2))),
                    global_cols=(0, 1))
    blk = local_covariance(b)
    assert len(set(blk.block.values.flatten().tolist())) == 1


def test_cross_variance_case():
    s = ColumnBlock(site=0, data=DenseMatrix(np.reshape([1, 2, 3], (3, 1))), global_cols=(0,))
    r = ColumnBlock(site=1, data=DenseMatrix(np.reshape([1, 2, 3], (3, 1))), global_cols=(1,))
    blk = cross_covariance(receiver=r, sender=s)
    assert blk.block.values.tolist() == [[1.0]]
    assert blk.site_a == 0 and blk.site_b == 1
    assert blk.rows_global_cols == (0,) and blk.cols_global_cols == (1,)


def test_cross_shape_is_sender_rows_receiver_cols():
    s = ColumnBlock(site=0, data=DenseMatrix(np.reshape([1, 2, 3], (3, 1))), global_cols=(0,))
    r = ColumnBlock(site=1, data=DenseMatrix(np.reshape([1, 2, 2, 4, 3, 6], (3, 2))),
                    global_cols=(1, 2))
    blk = cross_covariance(receiver=r, sender=s)
    assert blk.block.rows == 1 and blk.block.cols == 2


def test_cross_constant_sender_gives_zero_row():
    s = ColumnBlock(site=0, data=DenseMatrix(np.reshape([4, 4, 4], (3, 1))), global_cols=(0,))
    r = ColumnBlock(site=1, data=DenseMatrix(np.reshape([1, 2, 5, 3, 2, 8], (3, 2))),
                    global_cols=(1, 2))
    blk = cross_covariance(receiver=r, sender=s)
    assert blk.block.values.tolist() == [[0.0, 0.0]]


def test_cross_rejects_same_site_and_row_mismatch():
    a = ColumnBlock(site=0, data=DenseMatrix(np.reshape([1, 2, 3], (3, 1))), global_cols=(0,))
    b = ColumnBlock(site=0, data=DenseMatrix(np.reshape([1, 2, 3], (3, 1))), global_cols=(1,))
    with raises_exactly(DistCovError, match="two distinct sites, both are 0"):
        cross_covariance(receiver=a, sender=b)
    c = ColumnBlock(site=1, data=DenseMatrix(np.reshape([1, 2], (2, 1))), global_cols=(1,))
    with raises_exactly(DistCovError, match="^site 0 has 3 rows, site 1 has 2$"):
        cross_covariance(receiver=c, sender=a)


def test_centralized_hand_example():
    m = DenseMatrix(np.reshape([1, 3, 2, 2, 3, 1], (3, 2)))
    g = centralized_covariance(m)
    assert g.matrix.values.tolist() == [[1.0, -1.0], [-1.0, 1.0]]


def test_centralized_single_column():
    g = centralized_covariance(DenseMatrix(np.reshape([1, 2, 3], (3, 1))))
    assert g.dim == 1 and g.matrix.values[0, 0] == 1.0


def test_centralized_identical_columns():
    g = centralized_covariance(DenseMatrix(np.reshape([1, 1, 2, 2, 3, 3], (3, 2))))
    assert len(set(g.matrix.values.flatten().tolist())) == 1


def test_centralized_too_few_rows():
    with raises_exactly(DistCovError, match='sample covariance needs at least 2 rows'):
        centralized_covariance(DenseMatrix(np.reshape([1, 2], (1, 2))))


# --- the three-site fixture, hand-derived entries --------------------------

def test_three_site_fixture_known_entries(three_site_matrix):
    # y = 2x and z = 7 - x make several entries exact multiples of var(x) = 3.5.
    g = centralized_covariance(three_site_matrix).matrix.values
    assert g[0, 0] == 3.5          # var(x)
    assert g[0, 1] == 7.0          # cov(x, y) = 2 var(x)
    assert g[0, 2] == -3.5         # cov(x, z) = -var(x)
    assert g[1, 1] == 14.0         # var(y) = 4 var(x)
    assert g[1, 2] == -7.0
    assert g[0, 3] == 1.6          # cov(x, w), hand computed: 8/5
    assert g[0, 4] == 3.9          # cov(x, v), hand computed: 19.5/5


def test_merge_reproduces_oracle_on_fixture(three_site_blocks, three_site_matrix):
    sched = build_schedule(3)
    locals_, crosses = schedule_blocks(three_site_blocks, sched)
    merged = merge_blocks(locals_, crosses, 5)
    oracle = centralized_covariance(three_site_matrix)
    assert merged.matrix == oracle.matrix


def test_merge_single_site(three_site_matrix):
    b = ColumnBlock(site=0, data=three_site_matrix, global_cols=tuple(range(5)))
    merged = merge_blocks([local_covariance(b)], [], 5)
    oracle = centralized_covariance(three_site_matrix)
    assert merged.matrix == oracle.matrix


def test_merge_missing_cross_block(three_site_blocks):
    sched = build_schedule(3)
    locals_, crosses = schedule_blocks(three_site_blocks, sched)
    with raises_exactly(ProtocolError, match="not covered by any block"):
        merge_blocks(locals_, crosses[:-1], 5)


def test_merge_duplicated_cross_block(three_site_blocks):
    sched = build_schedule(3)
    locals_, crosses = schedule_blocks(three_site_blocks, sched)
    with raises_exactly(ProtocolError, match="covered twice or by an unknown site"):
        merge_blocks(locals_, crosses + [crosses[0]], 5)


def test_merge_rejects_out_of_range_indices(three_site_blocks):
    sched = build_schedule(3)
    locals_, crosses = schedule_blocks(three_site_blocks, sched)
    with raises_exactly(DistCovError, match="the blocks hold 5 columns, total_cols is 4"):
        merge_blocks(locals_, crosses, 4)
    first = locals_[0]  # site 0 claims column -1 in place of column 0
    negative = CovBlock(0, 0, first.block, (-1, 1), (-1, 1))
    with raises_exactly(DistCovError, match="^column 0 held by no site$"):
        merge_blocks([negative, *locals_[1:]], crosses, 5)


def test_merge_rejects_misfiled_blocks(three_site_blocks):
    sched = build_schedule(3)
    locals_, crosses = schedule_blocks(three_site_blocks, sched)
    with raises_exactly(DistCovError, match="passed as a local block"):
        merge_blocks(locals_ + [crosses[0]], crosses[1:], 5)
    with raises_exactly(DistCovError, match="local block of site 0 passed as a cross block"):
        merge_blocks(locals_[1:], crosses + [locals_[0]], 5)


# --- invariants ------------------------------------------------------------

def test_merge_is_arrival_order_independent(three_site_blocks, three_site_matrix):
    sched = build_schedule(3)
    locals_, crosses = schedule_blocks(three_site_blocks, sched)
    a = merge_blocks(locals_, crosses, 5)
    b = merge_blocks(list(reversed(locals_)), list(reversed(crosses)), 5)
    assert a.matrix == b.matrix


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
def test_oracle_equivalence_random_partitions(t):
    rng = np.random.default_rng(100 + t)
    data = rng.standard_normal((30, 12)) * 3.0 + 1.0
    widths = [2] * (t - 1) + [12 - 2 * (t - 1)]
    blocks = blocks_for(data, widths)
    sched = build_schedule(t)
    locals_, crosses = schedule_blocks(blocks, sched)
    merged = merge_blocks(locals_, crosses, 12)
    oracle = centralized_covariance(DenseMatrix(data))
    assert merged.matrix == oracle.matrix


def test_symmetry_and_diagonal(three_site_matrix):
    g = centralized_covariance(three_site_matrix).matrix.values
    assert np.array_equal(g, g.T)
    assert (np.diag(g) >= 0).all()


@given(st.integers(min_value=-1000, max_value=1000))
@settings(max_examples=30)
def test_shift_invariance(shift):
    rng = np.random.default_rng(42)
    base = rng.standard_normal((25, 4))
    shifted = base.copy()
    shifted[:, 1] += float(shift)
    a = centralized_covariance(DenseMatrix(base)).matrix.values
    b = centralized_covariance(DenseMatrix(shifted)).matrix.values
    assert (np.abs(a - b) <= 1e-9 * (1.0 + np.abs(a))).all()


@given(st.floats(min_value=0.25, max_value=8.0, allow_nan=False))
@settings(max_examples=30)
def test_scale_equivariance(s):
    rng = np.random.default_rng(43)
    base = rng.standard_normal((25, 4))
    scaled = base.copy()
    scaled[:, 2] *= s
    a = centralized_covariance(DenseMatrix(base)).matrix.values
    b = centralized_covariance(DenseMatrix(scaled)).matrix.values
    expect = a.copy()
    expect[2, :] *= s
    expect[:, 2] *= s  # diagonal picks up s twice
    assert np.allclose(b, expect, rtol=1e-12, atol=0.0)


# --- the split kernel: accuracy and bit-identity at the edges ---------------

def _exact_covariance(data: np.ndarray) -> list[list[Fraction]]:
    n, m = data.shape
    cols = [[Fraction(float(v)) for v in data[:, j]] for j in range(m)]
    centered = [[v - sum(c) / n for v in c] for c in cols]
    return [
        [sum(a * b for a, b in zip(centered[i], centered[j])) / (n - 1) for j in range(m)]
        for i in range(m)
    ]


def test_kernel_matches_exact_rational_reference():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((120, 6)) * [1.0, 3.0, 1e-3, 250.0, 1.0, 7.0]
    data += [0.0, -5.0, 2.0, 1e4, 0.5, -40.0]
    data[:, 4] = 0.25 * data[:, 0] + 1e-6 * data[:, 4]  # a near-collinear pair
    got = centralized_covariance(DenseMatrix(data)).matrix.values
    exact = _exact_covariance(data)
    worst = max(
        abs(Fraction(float(got[i, j])) - exact[i][j]) / np.sqrt(float(exact[i][i] * exact[j][j]))
        for i in range(6) for j in range(6)
    )
    assert worst <= 2.0**-52


def test_tiny_columns_match_exact_rational_reference():
    # Column 1 is ~1e-305, beside a normal column 0 and a ~1e-15 column 2.
    # Its variance (~1e-610) underflows to 0, and its covariance with column
    # 2 (~1e-320) is subnormal, where float64's spacing is 2**-1074. So each
    # entry may miss by the kernel's 2**-52 * sqrt(var_i * var_j) plus half
    # that spacing, the rounding of the result to the subnormal grid.
    rng = np.random.default_rng(8)
    data = rng.standard_normal((50, 4)) * [1.0, 1e-305, 1e-15, 3e-306]
    data[:, 3] += 0.5 * data[:, 1]
    exact = _exact_covariance(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = centralized_covariance(DenseMatrix(data)).matrix.values
    for i in range(4):
        for j in range(4):
            over = abs(Fraction(float(got[i, j])) - exact[i][j]) - Fraction(1, 2**1075)
            assert over <= 0 or over**2 <= Fraction(1, 2**104) * exact[i][i] * exact[j][j]
    assert got[1, 1] == 0.0 and 0.0 < abs(got[1, 2]) < np.finfo(np.float64).tiny


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_a_variance_near_float64s_maximum_is_accepted(transport):
    # Values ~1e153: the sum of squares, ~1e309, overflows, the variance,
    # ~1e306, does not.
    rng = np.random.default_rng(9)
    data = rng.standard_normal((1000, 2)) * [1e153, 1.0]
    oracle = centralized_covariance(DenseMatrix(data))
    assert 1e305 < oracle.matrix.values[0, 0] < 1e307
    cov, _, _ = run_distributed(blocks_for(data, [1, 1]), build_schedule(2), transport)
    assert cov == oracle


# A column exponent anywhere in float64's range, but most often one whose
# covariances fit it: at most 2**511 in magnitude.
_exponents = st.one_of(st.integers(-1074, 511), st.integers(-1074, 1023))


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 17, 513]),
       st.lists(_exponents, min_size=2, max_size=6), st.sampled_from(["in-process", "tcp"]))
@settings(max_examples=40, deadline=None)
def test_columns_across_float64s_range_match_the_oracle(seed, n, exps, transport):
    # Each column spans one binade, 2**(e-1) .. 2**e in magnitude, from
    # subnormal to float64's largest. The oracle and the distributed run
    # refuse the same tables, and a RuntimeWarning fails the test.
    rng = np.random.default_rng(seed)
    magnitude = np.ldexp(rng.uniform(0.5, 1.0, (n, len(exps))), exps)
    data = np.where(rng.random((n, len(exps))) < 0.5, -magnitude, magnitude)
    blocks = blocks_for(data, random_widths(rng, len(exps), int(rng.integers(1, len(exps) + 1))))
    try:
        oracle = centralized_covariance(DenseMatrix(data))
    except DistCovError:
        with raises_exactly(DistCovError, match="^site [0-9]+: "):
            _timed_exchange(blocks, build_schedule(len(blocks)), transport)
        return
    cov, _ = _timed_exchange(blocks, build_schedule(len(blocks)), transport)
    assert cov == oracle


def _assert_partitions_match_oracle(data: np.ndarray, widths: list[int]) -> None:
    oracle = centralized_covariance(DenseMatrix(data)).matrix
    blocks = blocks_for(data, widths)
    locals_, crosses = schedule_blocks(blocks, build_schedule(len(widths)))
    assert merge_blocks(locals_, crosses, data.shape[1]).matrix == oracle
    cov, _, _ = run_distributed(blocks, build_schedule(len(widths)))
    assert cov.matrix == oracle


def test_bit_identity_with_width_one_blocks():
    rng = np.random.default_rng(11)
    data = rng.standard_normal((40, 5)) * 2.0 + 3.0
    _assert_partitions_match_oracle(data, [1, 3, 1])
    _assert_partitions_match_oracle(data, [1, 1, 1, 1, 1])


def test_bit_identity_with_two_rows():
    rng = np.random.default_rng(12)
    _assert_partitions_match_oracle(rng.standard_normal((2, 6)) * 5.0, [2, 1, 3])


def test_bit_identity_with_many_rows():
    # 5000 rows take a narrower slice than 2000 rows do.
    rng = np.random.default_rng(13)
    _assert_partitions_match_oracle(rng.standard_normal((5000, 10)) * 3.0 + 1.0, [3, 3, 4])


def test_bit_identity_with_extreme_column_scales():
    rng = np.random.default_rng(14)
    base = rng.standard_normal((50, 8)) + 0.5
    powers = np.array([500, -500, 0, 500, -500, 3, -500, 500])
    data = np.ldexp(base, powers)
    _assert_partitions_match_oracle(data, [3, 2, 3])
    # A power-of-two column scale moves only the exponent of its entries.
    got = centralized_covariance(DenseMatrix(data)).matrix.values
    ref = centralized_covariance(DenseMatrix(base)).matrix.values
    assert np.array_equal(got, np.ldexp(ref, np.add.outer(powers, powers)))


def _zero_mean_column(rng: np.random.Generator, tiny_first: bool) -> np.ndarray:
    # Pairs +u, -u sum to exactly zero, so the mean is 0 and the large half
    # and the tiny half (2**-26 of it) fall into different slices.
    u, v = rng.uniform(1.0, 2.0, 16), rng.uniform(1.0, 2.0, 16)
    big = np.ravel(np.column_stack([u, -u])) * 2.0**10
    tiny = np.ravel(np.column_stack([v, -v])) * 2.0**-16
    return np.concatenate([tiny, big] if tiny_first else [big, tiny])


def test_cross_block_is_exact_transpose_of_swapped_block():
    # a's and b's large halves sit in different rows, so the leading slice
    # product X_0 Y_0 vanishes and the mixed products X_i Y_j and X_j Y_i
    # decide each entry; added one at a time instead of as a pair, they
    # round differently for (a, b) than for (b, a).
    for seed in range(50):
        rng = np.random.default_rng(seed)
        a = np.column_stack([_zero_mean_column(rng, False) for _ in range(4)])
        b = np.column_stack([_zero_mean_column(rng, True) for _ in range(4)])
        ba = blocks_for(np.hstack([a, b]), [4, 4])
        ab = cross_covariance(receiver=ba[1], sender=ba[0]).block.values
        swapped = cross_covariance(receiver=ba[0], sender=ba[1]).block.values
        assert ab.T.tobytes() == swapped.tobytes(), seed


def _products_one_at_a_time(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The cross block of x against y with every slice product X_i^T Y_j
    summed over all rows on its own and paired with X_j^T Y_i only in the
    combine, which otherwise runs as the kernel's does."""
    n = len(y)
    b, s = _slicing(n)
    xo, yo = _Operand(x, b), _Operand(y, b)
    xs, ys = np.empty((s, *x.shape)), np.empty((s, *y.shape))
    xo.split(0, xs, b)
    yo.split(0, ys, b)
    out = np.zeros((x.shape[1], y.shape[1]))
    for level in range(s - 1, -1, -1):
        if level < s - 1:
            out *= 2.0**-b
        for i in range(level // 2 + 1):
            j = level - i
            out += xs[i].T @ ys[j] if i == j else xs[i].T @ ys[j] + xs[j].T @ ys[i]
    return np.ldexp(out, np.add.outer(xo.exps - b, yo.exps - b)) / (n - 1)


def _at_the_slice_bound(rng: np.random.Generator, n: int, w: int) -> np.ndarray:
    # Rows +v, -v: the mean is exactly 0 and the peak is below 1, so a column
    # is scaled by 2**b. Scaled, v = 2**b + d1 2**-b + d2 2**-2b with d1, d2
    # just above -2**(b-1): v lies above 2**b - 1/2 by less than 2**-8, so
    # slice 0 rounds up to 2**b, each residue is just under 1/2 in magnitude,
    # and slices 1 and 2 are d1 and d2. d2 is a multiple of 2**q, so v fits
    # in 53 bits.
    b, _ = _slicing(n)
    q = max(3 * b - 53, 0)
    d1 = rng.integers(1, 2 ** (b - 8), (n // 2, w)) - 2.0 ** (b - 1)
    d2 = rng.integers(1, 2 ** (b - 8 - q), (n // 2, w)) * 2.0**q - 2.0 ** (b - 1)
    v = (2.0**b + d1 * 2.0**-b + d2 * 2.0 ** (-2 * b)) * 2.0**-b
    out = np.empty((n, w))
    out[0::2], out[1::2] = v, -v
    return out * 2.0 ** rng.integers(-40, 40, w)  # a column scale moves no slice


@pytest.mark.parametrize("n", [512, 2048])
def test_pair_sums_are_exact_at_the_slice_bound(n):
    # Here n * 2**(2b) == 2**53: slice 0 is +-2**b and the lower slices are
    # nearly +-2**(b-1), all with one sign per row, so X_0^T Y_0 is 2**53 and
    # each pair sum X_0^T Y_j + X_j^T Y_0 lies within 1% of -2**53.
    b, s = _slicing(n)
    assert n * 2 ** (2 * b) == 2**53 and s == 3
    rng = np.random.default_rng(n)
    y = _at_the_slice_bound(rng, n, 4)
    xs = [_at_the_slice_bound(rng, n, w) for w in (5, 2)]
    slices = np.empty((s, n, 4))
    _Operand(y, b).split(0, slices, b)
    assert np.abs(slices[0]).min() == 2**b
    assert np.abs(slices[1:]).min() > 2 ** (b - 1) - 2 ** (b - 8)

    data = np.hstack([y, *xs])
    own, *senders = blocks_for(data, [4, 5, 2])
    _, crosses = site_covariance(own, senders)
    for sender, cross in zip(senders, crosses):
        x = sender.data.values
        got = cross.block.values
        swapped = cross_covariance(receiver=sender, sender=own).block.values
        assert got.tobytes() == swapped.T.tobytes()
        assert got.tobytes() == _products_one_at_a_time(y, x).tobytes()
        assert swapped.tobytes() == _products_one_at_a_time(x, y).tobytes()


def _kernel_scratch_bytes(n: int, wy: int, wxs: list[int]) -> int:
    # The kernel's buffers: y's slices and one sender's slices, a chunk of
    # rows each; an accumulator per slice pair (i <= j, i + j < s) per
    # block, one of which becomes the block; one product buffer.
    b, s = _slicing(n)
    chunk = min(n, _CHUNK_ROWS)
    pairs = sum(1 for i in range(s) for j in range(i, s - i))
    return 8 * (
        s * chunk * (wy + max(wxs, default=0))
        + pairs * wy * (wy + sum(wxs))
        + wy * max([wy, *wxs])
    )


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_kernel_scratch_is_bounded():
    # Besides the listed buffers only O(width) vectors and small objects are
    # allocated; the margin is 2% of the 1000x649 oracle's buffers.
    table = synthetic_table(1000, 649, seed=1)
    margin = 2**19
    peak = _traced_peak(lambda: centralized_covariance(table))
    assert peak <= _kernel_scratch_bytes(1000, 649, []) + margin

    blocks = partition_vertical(table, mfeat_preset(3))
    own = blocks[2]
    senders = [blocks[j] for j in build_schedule(3).senders_to(2)]
    peak = _traced_peak(lambda: site_covariance(own, senders))
    assert peak <= _kernel_scratch_bytes(1000, own.data.cols, [s.data.cols for s in senders]) + margin


# --- one kernel call per site ----------------------------------------------

def _site_covariance_cases(rng: np.random.Generator, t: int):
    m = 2 * t + 1
    yield rng.standard_normal((513, m)) * 3.0 + 1.0, [1] * (t - 1) + [m - t + 1]
    yield rng.standard_normal((2, m)) * 5.0, random_widths(rng, m, t)
    powers = rng.choice([500, -500, 0], size=m)
    yield np.ldexp(rng.standard_normal((50, m)) + 0.5, powers), random_widths(rng, m, t)


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_site_covariance_bit_equals_oracle_blocks(t):
    # Every other site is a sender, so one call makes up to t-1 cross blocks.
    rng = np.random.default_rng(200 + t)
    for data, widths in _site_covariance_cases(rng, t):
        oracle = centralized_covariance(DenseMatrix(data)).matrix.values
        blocks = blocks_for(data, widths)
        for own in blocks:
            senders = [b for b in blocks if b is not own]
            local, crosses = site_covariance(own, senders)
            g = list(own.global_cols)
            assert local.block.values.tobytes() == oracle[np.ix_(g, g)].tobytes()
            assert (local.site_a, local.site_b) == (own.site, own.site)
            assert len(crosses) == len(senders)
            for sender, cross in zip(senders, crosses):
                assert (cross.site_a, cross.site_b) == (sender.site, own.site)
                assert cross.rows_global_cols == sender.global_cols
                assert cross.cols_global_cols == own.global_cols
                rows = oracle[np.ix_(list(sender.global_cols), g)]
                assert cross.block.values.tobytes() == rows.tobytes()


def test_site_covariance_checks_its_senders():
    a, b = _col(0, [1, 2, 3]), _col(1, [3, 1, 2], 1)
    local, crosses = site_covariance(a, [])
    assert local.block.values.tolist() == [[1.0]] and crosses == []
    with raises_exactly(DistCovError, match="two distinct sites, both are 0"):
        site_covariance(a, [b, a])
    with raises_exactly(DistCovError, match="^site 1 has 2 rows, site 0 has 3$"):
        site_covariance(a, [_col(1, [1, 2], 1)])
    with raises_exactly(DistCovError, match='sample covariance needs at least 2 rows'):
        site_covariance(_col(0, [1]), [_col(1, [2], 1)])


def test_merge_matches_the_constructor_on_signed_zeros():
    # A local block may hold -0.0 above its diagonal and +0.0 below it (equal
    # values); the merged matrix must still be the one GlobalCovariance
    # makes of the same values, bit for bit.
    local_a = CovBlock(0, 0, DenseMatrix([[2.0, -0.0], [0.0, 3.0]]), (0, 1), (0, 1))
    local_b = CovBlock(1, 1, DenseMatrix([[-0.0]]), (2,), (2,))
    cross = CovBlock(1, 0, DenseMatrix([[-0.0, 1.5]]), (2,), (0, 1))
    merged = merge_blocks([local_a, local_b], [cross], 3)
    dense = np.array([[2.0, -0.0, -0.0], [0.0, 3.0, 1.5], [-0.0, 1.5, -0.0]])
    assert merged.matrix == GlobalCovariance(dense).matrix
