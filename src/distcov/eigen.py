"""Eigen-decomposition of the symmetric global covariance matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import GlobalCovariance
from .errors import DistCovError
from .matrix import DenseMatrix

__all__ = ["EigenDecomposition", "symmetric_eigen"]


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending; column i of `eigenvectors` pairs with
    eigenvalue i and has unit 2-norm."""

    eigenvalues: tuple[float, ...]
    eigenvectors: DenseMatrix


@np.errstate(over="ignore")  # an eigenvalue past float64's range is refused below
def symmetric_eigen(a: GlobalCovariance) -> EigenDecomposition:
    """Full eigen-decomposition of a symmetric covariance matrix.

    Eigenvalues come back sorted descending. Eigenvectors are only unique up
    to sign, so each column is normalized to a canonical form: its entry of
    largest absolute value is made positive (ties broken by lowest index).

    Raises:
        DistCovError: the underlying iteration failed to converge, or an
            eigenvalue overflows float64.
    """
    sym = a.matrix.values
    # Scaled exactly so that its largest entry is in [0.5, 1): unscaled, eigh
    # may not converge on entries spread over float64's range.
    _, e = np.frexp(max(sym.max(), -sym.min()))
    try:
        vals, vecs = np.linalg.eigh(np.ldexp(sym, -e))
    except np.linalg.LinAlgError as exc:
        raise DistCovError(f"eigen-decomposition did not converge: {exc}") from None
    # eigh sorts ascending; flip to descending and re-pair the columns.
    vals = np.ldexp(vals[::-1], e)
    if not np.isfinite(vals).all():
        raise DistCovError("an eigenvalue overflows float64")
    vecs = np.ascontiguousarray(vecs[:, ::-1])
    # argmax returns the first maximum, so ties go to the lowest index.
    lead = np.argmax(np.abs(vecs), axis=0)
    flip = vecs[lead, np.arange(vecs.shape[1])] < 0.0
    vecs *= np.where(flip, -1.0, 1.0)
    return EigenDecomposition(
        eigenvalues=tuple(float(v) for v in vals),
        eigenvectors=DenseMatrix._wrap(vecs),
    )
