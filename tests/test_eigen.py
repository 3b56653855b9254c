from __future__ import annotations

import numpy as np
import pytest

from distcov import GlobalCovariance, symmetric_eigen
from distcov.errors import DistCovError

from conftest import raises_exactly


def _random_psd(rng: np.random.Generator, dim: int) -> GlobalCovariance:
    # Gram matrix of a random tall factor: PSD by construction.
    f = rng.standard_normal((dim + 5, dim))
    return GlobalCovariance(f.T @ f)


def test_multiple_of_identity():
    e = symmetric_eigen(GlobalCovariance([[2.0, 0.0], [0.0, 2.0]]))
    assert e.eigenvalues == (2.0, 2.0)


def test_already_diagonal():
    e = symmetric_eigen(GlobalCovariance([[2.0, 0.0], [0.0, 1.0]]))
    assert e.eigenvalues == (2.0, 1.0)
    v = e.eigenvectors.values
    assert np.allclose(np.abs(v), np.eye(2), atol=1e-15)


def test_two_by_two_hand_solution():
    e = symmetric_eigen(GlobalCovariance([[2.0, 1.0], [1.0, 2.0]]))
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
        symmetric_eigen(GlobalCovariance([[1.0]]))
