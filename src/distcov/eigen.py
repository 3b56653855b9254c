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


def _eigh(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """`np.linalg.eigh` of sym, and the power of two e that its eigenvalues
    are scaled by: the eigenvalues of sym are those returned times 2**e.

    eigh's LAPACK routine, dsyevd, rescales a matrix whose largest magnitude
    lies outside [rmin, 1/rmin], rmin = sqrt(safmin/eps), by a factor that
    is not a power of two, and may then fail to converge on entries spread
    over float64's range. With safmin = 2**-1022 and eps = dlamch('P') =
    2**-52, rmin = 2**-485; with eps read as the unit roundoff 2**-53, it
    is 2**-484.5. frexp's e puts the largest magnitude in [2**(e-1), 2**e),
    which lies inside [2**-484.5, 2**484.5] exactly when -483 <= e <= 484.
    There dsyevd does not rescale under either reading, and eigh gets sym
    itself: no copy beside the working copy eigh makes for LAPACK. Outside
    that range, or where eigh fails on sym itself (entries spread over
    float64's range can defeat it even in range), it gets a copy scaled
    exactly so that its largest entry is in [0.5, 1). A power-of-two
    scaling is exact, so where no step underflows both give the same bits.
    """
    _, e = np.frexp(max(sym.max(), -sym.min()))
    if -483 <= e <= 484:
        try:
            return (*np.linalg.eigh(sym), 0)
        except np.linalg.LinAlgError:
            pass
    return (*np.linalg.eigh(np.ldexp(sym, -e)), int(e))


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
    try:
        vals, vecs, e = _eigh(a.matrix.values)
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
