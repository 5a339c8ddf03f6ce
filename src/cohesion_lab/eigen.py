"""Dense symmetric eigensolver: numpy's LAPACK behind the package's contract.

Both functions accept only finite, square, symmetric matrices of order at
most MAX_DENSE_N (non-symmetric operators are routed through their symmetric
similarity first), return eigenvalues in ascending order, and turn a LAPACK
failure into ConvergenceError.
"""

import numpy as np

from .errors import ConvergenceError, DomainError

SYMMETRY_TOL = 1e-10
MAX_DENSE_N = 2048


def _lapack(solver, a: np.ndarray):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DENSE_N:
        raise DomainError(f"dense eigensolver capped at n = {MAX_DENSE_N}, got {a.shape[0]}")
    if not np.isfinite(a).all():
        raise DomainError("matrix has non-finite entries")
    scale = float(np.abs(a).max(initial=1.0))
    resid = float(np.abs(a - a.T).max(initial=0.0))
    if resid > SYMMETRY_TOL * scale:
        raise DomainError(
            f"matrix is not symmetric (residual {resid:.2e}); "
            "route non-symmetric operators through their symmetric similarity"
        )
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK {solver.__name__} failed: {exc}") from None


def eigh(a: np.ndarray):
    """(w, V): ascending eigenvalues and orthonormal eigenvector columns, with
    deterministic signs: the largest-magnitude entry of each column is positive."""
    w, v = _lapack(np.linalg.eigh, a)
    if v.size:
        pivots = v[np.abs(v).argmax(axis=0), np.arange(v.shape[1])]
        v = v * np.where(pivots < 0, -1.0, 1.0)
    return w, v


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues only, ascending."""
    return _lapack(np.linalg.eigvalsh, a)
