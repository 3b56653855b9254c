from __future__ import annotations

import numpy as np
import pytest

from distcov import (
    DenseMatrix,
    GlobalCovariance,
    centralized_covariance,
    symmetric_eigen,
    synthetic_table,
)
from distcov.errors import DistCovError

from conftest import raises_exactly


def _cov(values) -> GlobalCovariance:
    return GlobalCovariance._assembled(np.array(values, dtype=np.float64))


def _random_psd(rng: np.random.Generator, dim: int) -> GlobalCovariance:
    # Gram matrix of a random tall factor: PSD by construction.
    f = rng.standard_normal((dim + 5, dim))
    return _cov(f.T @ f)


def test_multiple_of_identity():
    e = symmetric_eigen(_cov([[2.0, 0.0], [0.0, 2.0]]))
    assert e.eigenvalues == (2.0, 2.0)


def test_already_diagonal():
    e = symmetric_eigen(_cov([[2.0, 0.0], [0.0, 1.0]]))
    assert e.eigenvalues == (2.0, 1.0)
    v = e.eigenvectors.values
    assert np.allclose(np.abs(v), np.eye(2), atol=1e-15)


def test_two_by_two_hand_solution():
    e = symmetric_eigen(_cov([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(e.eigenvalues, [3.0, 1.0], atol=1e-12)
    v = e.eigenvectors.values
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    assert np.allclose(v[:, 0], [inv_sqrt2, inv_sqrt2], atol=1e-12)
    # sign convention: tied magnitudes resolve to a positive first component
    assert np.allclose(v[:, 1], [inv_sqrt2, -inv_sqrt2], atol=1e-12)


def test_eigenvalues_sorted_descending():
    rng = np.random.default_rng(11)
    e = symmetric_eigen(_random_psd(rng, 40))
    assert all(a >= b for a, b in zip(e.eigenvalues, e.eigenvalues[1:]))


def test_sign_convention_largest_component_positive():
    rng = np.random.default_rng(12)
    e = symmetric_eigen(_random_psd(rng, 30))
    v = e.eigenvectors.values
    for i in range(v.shape[1]):
        lead = int(np.argmax(np.abs(v[:, i])))
        assert v[lead, i] > 0.0


@pytest.mark.parametrize("dim", [1, 2, 10, 50, 200])
def test_quality_bounds_random_psd(dim):
    rng = np.random.default_rng(1000 + dim)
    cov = _random_psd(rng, dim)
    a = cov.matrix.values
    fro = np.linalg.norm(a)
    e = symmetric_eigen(cov)
    vals = np.array(e.eigenvalues)
    vecs = e.eigenvectors.values

    for i in range(dim):
        residual = np.linalg.norm(a @ vecs[:, i] - vals[i] * vecs[:, i])
        assert residual <= 1e-8 * fro
    assert abs(vals.sum() - np.trace(a)) <= 1e-8 * fro
    assert vals.min() >= -1e-10 * fro
    recon = vecs @ np.diag(vals) @ vecs.T
    assert np.linalg.norm(recon - a) <= 1e-7 * fro
    norms = np.linalg.norm(vecs, axis=0)
    assert np.abs(norms - 1.0).max() <= 1e-12
    gram = vecs.T @ vecs - np.eye(dim)
    np.fill_diagonal(gram, 0.0)
    assert np.abs(gram).max() <= 1e-10


def test_nonconvergence_is_mapped(monkeypatch):
    def explode(_):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", explode)
    with raises_exactly(DistCovError, match="eigen-decomposition did not converge"):
        symmetric_eigen(_cov([[1.0]]))


# A 3x6 table whose columns lie near 2**-998, 2**413, 2**195, 2**-929,
# 2**158 and 2**-123. Its covariances run from subnormal to ~2e249, and two
# variances underflow to 0 beside nonzero cross terms.
_SPREAD_TABLE = [
    ["0x1.4fd9e70c2efcap-999", "-0x1.9e4cfe07a97bbp+411", "0x1.d6012e98de8fep+195",
     "-0x1.21c56bb431822p-930", "-0x1.bf7af6560badap+157", "-0x1.04c0bd8970cbbp-121"],
    ["-0x1.3073be4c51f36p-998", "0x1.09324b7a7d9b0p+415", "-0x1.5791b03c82423p+196",
     "-0x1.3aa7d3cfdd08ap-929", "0x1.2b05e7a3258b4p+160", "0x1.6243fc3704babp-123"],
    ["-0x1.3b6421633a13ep-998", "0x1.8491fbcfac466p+413", "0x1.62c284994123fp+195",
     "0x1.c358714aa904dp-929", "0x1.237bd214abb2cp+158", "0x1.015bd6004ed28p-124"],
]


def test_entries_spread_over_float64s_range_decompose():
    # Unscaled, eigh does not converge on this matrix.
    table = DenseMatrix([[float.fromhex(v) for v in row] for row in _SPREAD_TABLE])
    cov = centralized_covariance(table)
    a = cov.matrix.values
    e = symmetric_eigen(cov)
    vals = np.array(e.eigenvalues)
    assert abs(vals.sum() - np.trace(a)) <= 1e-12 * np.trace(a)
    assert vals[0] == pytest.approx(a.max(), rel=1e-12)
    assert np.abs(np.linalg.norm(e.eigenvectors.values, axis=0) - 1.0).max() <= 1e-12


def test_an_eigenvalue_past_float64s_range_is_refused():
    # Both eigenvalues of [[v, v], [v, v]] are 2v and 0; 2v overflows.
    v = 1.5e308
    with raises_exactly(DistCovError, match="^an eigenvalue overflows float64$"):
        symmetric_eigen(_cov([[v, v], [v, v]]))


# --- the prescale only outside LAPACK's unscaled range ----------------------

def _spy_eigh(monkeypatch) -> list:
    """The arrays np.linalg.eigh is called with, in order; each call still
    returns the real eigh's result."""
    calls, eigh = [], np.linalg.eigh

    def spy(x):
        calls.append(x)
        return eigh(x)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


def _spread_cov(e: int) -> GlobalCovariance:
    """The spread table's covariance, shifted so that frexp's exponent of
    its largest magnitude is e."""
    table = DenseMatrix([[float.fromhex(v) for v in row] for row in _SPREAD_TABLE])
    a = centralized_covariance(table).matrix.values
    return _cov(np.ldexp(a, e - int(np.frexp(a.max())[1])))


def _assert_spread_decomposed(d, a: np.ndarray) -> None:
    """The bounds `test_entries_spread_over_float64s_range_decompose` holds
    a spread matrix's decomposition to."""
    vals = np.array(d.eigenvalues)
    assert abs(vals.sum() - np.trace(a)) <= 1e-12 * np.trace(a)
    assert vals[0] == pytest.approx(a.max(), rel=1e-12)
    assert np.abs(np.linalg.norm(d.eigenvectors.values, axis=0) - 1.0).max() <= 1e-12


def _scaled_reference(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and canonical eigenvectors of `a` from eigh on the copy
    of `a` scaled exactly so that its largest entry is in [0.5, 1)."""
    _, e = np.frexp(np.abs(a).max())
    w, v = np.linalg.eigh(np.ldexp(a, -e))
    vals, vecs = np.ldexp(w[::-1], e), v[:, ::-1]
    lead = np.argmax(np.abs(vecs), axis=0)
    return vals, vecs * np.where(vecs[lead, np.arange(vecs.shape[1])] < 0.0, -1.0, 1.0)


def test_an_in_range_matrix_reaches_eigh_without_a_copy(monkeypatch):
    cov = _random_psd(np.random.default_rng(13), 40)
    calls = _spy_eigh(monkeypatch)
    symmetric_eigen(cov)
    [arg] = calls
    assert arg is cov.matrix.values


@pytest.mark.parametrize("e", [484, -483])
def test_spread_table_at_the_range_edges_decomposes_unscaled(monkeypatch, e):
    cov = _spread_cov(e)
    a = cov.matrix.values
    assert np.frexp(a.max())[1] == e
    calls = _spy_eigh(monkeypatch)
    d = symmetric_eigen(cov)
    [arg] = calls
    assert arg is a
    _assert_spread_decomposed(d, a)


@pytest.mark.parametrize("e", [485, 829, -484])
def test_past_the_range_edges_eigh_gets_a_scaled_copy(monkeypatch, e):
    cov = _spread_cov(e)
    a = cov.matrix.values
    vals, vecs = _scaled_reference(a)
    calls = _spy_eigh(monkeypatch)
    d = symmetric_eigen(cov)
    [arg] = calls
    assert arg is not a
    assert np.array_equal(arg, np.ldexp(a, -e))
    assert np.array_equal(d.eigenvalues, vals)
    assert np.array_equal(d.eigenvectors.values, vecs)


def test_seed_table_decomposition_bit_equals_the_scaled_one():
    # The 1000x649 table of `distcov gen --seed 1`: unscaled, eigh gives
    # the bits it gives on the copy scaled by a power of two.
    a = centralized_covariance(synthetic_table(1000, 649, seed=1))
    vals, vecs = _scaled_reference(a.matrix.values)
    d = symmetric_eigen(a)
    assert np.array_equal(d.eigenvalues, vals)
    assert np.array_equal(d.eigenvectors.values, vecs)


def test_a_matrix_eigh_refuses_unscaled_is_retried_scaled(monkeypatch):
    cov = _random_psd(np.random.default_rng(14), 30)
    a = cov.matrix.values
    vals, vecs = _scaled_reference(a)
    calls, eigh = [], np.linalg.eigh

    def refuse_unscaled(x):
        calls.append(x)
        if x is a:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(x)

    monkeypatch.setattr(np.linalg, "eigh", refuse_unscaled)
    d = symmetric_eigen(cov)
    first, second = calls
    assert first is a
    assert np.array_equal(second, np.ldexp(a, -int(np.frexp(a.max())[1])))
    assert np.array_equal(d.eigenvalues, vals)
    assert np.array_equal(d.eigenvectors.values, vecs)


# A 3x5 table whose covariance's largest entry, ~4.5e52, lies in eigh's
# unscaled range, while its other entries run down to subnormal. With
# OpenBLAS 0.3.31's LAPACK, eigh fails to converge on it unscaled and
# converges on the copy scaled into [0.5, 1).
_SPREAD_IN_RANGE_TABLE = [
    ["0x1.cbp-772", "-0x1.96ap-152", "0x1.6c2p-966", "-0x1.4ep+88", "-0x1.3c2p-517"],
    ["-0x1.ffap-770", "-0x1.31p-151", "0x1.f94p-967", "-0x1.1ccp+79", "-0x1.bbep-528"],
    ["-0x1.8c8p-772", "0x1.47ep-154", "-0x1.13cp-973", "-0x1.1eep+86", "0x1.d16p-519"],
]


def test_an_in_range_matrix_with_spread_entries_decomposes(monkeypatch):
    table = DenseMatrix([[float.fromhex(v) for v in row] for row in _SPREAD_IN_RANGE_TABLE])
    cov = centralized_covariance(table)
    a = cov.matrix.values
    assert -483 <= np.frexp(a.max())[1] <= 484
    calls = _spy_eigh(monkeypatch)
    d = symmetric_eigen(cov)
    assert calls[0] is a
    _assert_spread_decomposed(d, a)
