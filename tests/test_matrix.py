from __future__ import annotations

import hashlib

import numpy as np
import pytest

from distcov import DenseMatrix, matrix_checksum
from distcov.errors import DistCovError

from conftest import raises_exactly


def test_new_matrix_shape_and_values():
    m = DenseMatrix(np.reshape([1, 2, 3, 4, 5, 6], (2, 3)))
    assert m.rows == 2 and m.cols == 3
    assert m.values[1, 2] == 6.0
    assert m.values.dtype == np.float64


def test_one_dimensional_input_rejected():
    with raises_exactly(DistCovError, match="expected a 2-D value array, got 1-D"):
        DenseMatrix(np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_rejected(bad):
    with raises_exactly(DistCovError, match='must be finite'):
        DenseMatrix(np.reshape([1.0, bad], (1, 2)))


def test_values_are_read_only():
    m = DenseMatrix(np.reshape([1, 2, 3, 4], (2, 2)))
    with pytest.raises(ValueError):
        m.values[0, 0] = 9.0


def test_construction_copies_input():
    src = np.ones((2, 2))
    m = DenseMatrix(src)
    src[0, 0] = 5.0
    assert m.values[0, 0] == 1.0


def test_checksum_hashes_little_endian_row_major_bytes():
    m = DenseMatrix(np.reshape([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], (2, 3)))
    expected = hashlib.sha256(np.arange(1.0, 7.0).astype("<f8").tobytes()).hexdigest()
    assert matrix_checksum(m) == expected


def test_equality_covers_values_and_shape():
    a = DenseMatrix(np.reshape([1, 2], (1, 2)))
    b = DenseMatrix(np.reshape([1, 2], (1, 2)))
    assert a == b
    assert a != DenseMatrix(np.reshape([1, 3], (1, 2)))
    assert a != DenseMatrix(np.reshape([1, 2], (2, 1)))


def test_equality_is_bit_equality():
    # -0.0 == 0.0 as floats, but not as bits; a NaN never gets this far.
    assert DenseMatrix([[0.0]]) != DenseMatrix([[-0.0]])
    assert DenseMatrix([[-0.0]]) == DenseMatrix([[-0.0]])
    assert DenseMatrix(np.zeros((2, 3))) != DenseMatrix(np.zeros((3, 2)))
    assert DenseMatrix(np.zeros((2, 3))) != DenseMatrix(np.zeros((2, 2)))
    assert DenseMatrix(np.zeros((0, 2))) != DenseMatrix(np.zeros((2, 0)))


def test_matrices_are_unhashable():
    with pytest.raises(TypeError):
        hash(DenseMatrix(np.reshape([1.0], (1, 1))))
