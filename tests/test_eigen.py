from __future__ import annotations

import numpy as np
import pytest

from distcov import DenseMatrix, GlobalCovariance, centralized_covariance, symmetric_eigen
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
