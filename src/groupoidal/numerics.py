"""Dense complex linear algebra kernels, taken from LAPACK through numpy.

Eigenvalues of Hermitian matrices come from ``np.linalg.eigvalsh`` on the
symmetrised matrix, operator norms from the largest singular value of
``np.linalg.svd`` and ranks from ``np.linalg.matrix_rank``.  A stack of
equal-sized matrices takes one batched ``svd`` call, whose results are
bitwise those of one call per matrix in the numpy builds tested (a test
checks this).  Results are byte-stable within one numpy/LAPACK build;
other builds may differ in the last bits, well inside every tolerance
the suites pin.  Each kernel rejects non-finite entries with
``NonFiniteError`` before they reach LAPACK.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError

__all__ = [
    "hermitian_eigenvalues",
    "spectral_norm",
    "spectral_norms",
    "complex_rank",
]


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix has non-finite entries")


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending."""
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        return np.zeros(0)
    _require_finite(a)
    return np.linalg.eigvalsh((a + a.conj().T) / 2.0)


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.size == 0:
        return 0.0
    return float(spectral_norms(m[np.newaxis])[0])


def spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of an ``(n, rows, cols)`` stack."""
    s = np.asarray(stack, dtype=np.complex128)
    if s.ndim != 3:
        raise ValueError(f"expected a stack of matrices, got shape {s.shape}")
    if s.size == 0:
        return np.zeros(s.shape[0])
    _require_finite(s)
    return np.linalg.svd(s, compute_uv=False)[:, 0]


def complex_rank(matrix: np.ndarray, pivot_tol: float = 1e-9) -> int:
    """Rank over the complex numbers: singular values above ``pivot_tol``."""
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2d matrix, got shape {a.shape}")
    if a.size == 0:
        return 0
    _require_finite(a)
    return int(np.linalg.matrix_rank(a, tol=pivot_tol))
