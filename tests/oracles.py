"""Independent oracles used by the tests.

These deliberately avoid the library's own code paths: the Fourier norm
is a direct double loop with ``cmath``, the singular-value oracle goes
through LAPACK, the bracket oracle is an exhaustive scan of the action
table, and since the library itself takes its kernels from LAPACK, the
eigenvalue and rank oracles are a cyclic Jacobi iteration and Gaussian
elimination written out in Python.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def dft_norm(coefficients: list[complex]) -> float:
    """max_k |sum_j c_j e^(-2 pi i j k / n)| by brute force."""
    n = len(coefficients)
    best = 0.0
    for k in range(n):
        total = 0.0 + 0.0j
        for j, c in enumerate(coefficients):
            total += c * cmath.exp(-2j * cmath.pi * j * k / n)
        best = max(best, abs(total))
    return best


def svd_norm(matrix) -> float:
    """Largest singular value through LAPACK."""
    m = np.asarray(matrix, dtype=complex)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def brute_left_bracket(Z, y: str, z: str) -> list[str]:
    """Every left arrow gamma with gamma * z == y, by scanning the table."""
    return sorted(
        gamma for (gamma, zz), out in Z.left_action.items() if zz == z and out == y
    )


def brute_right_bracket(Z, y: str, z: str) -> list[str]:
    """Every right arrow eta with y * eta == z, by scanning the table."""
    return sorted(
        eta for (yy, eta), out in Z.right_action.items() if yy == y and out == z
    )


def cyclic_index(arrow_id: str) -> int:
    """Exponent of a cyclic-group arrow id of the form g<k>."""
    assert arrow_id.startswith("g")
    return int(arrow_id[1:])


def _off_mass(a: np.ndarray) -> float:
    # summed directly off the diagonal: total minus diagonal cancels
    # catastrophically when the off-diagonal part is tiny
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def jacobi_eigenvalues(matrix, off_tol: float = 1e-13, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, by cyclic Jacobi.

    Pivots run in row-major order.  For each pivot ``(p, q)`` the 2x2 block

        [[a_pp, b], [conj(b), a_qq]]      b = |b| e^{i phi}

    is annihilated by the unitary with entries ``U[p,p] = c``,
    ``U[p,q] = -s e^{i phi}``, ``U[q,p] = s e^{-i phi}``, ``U[q,q] = c``,
    where ``t = s / c`` is the stable root of ``t^2 + 2 tau t - 1 = 0`` and
    ``tau = (a_pp - a_qq) / (2 |b|)``.  Sweeps stop when the off-diagonal
    Frobenius mass falls below ``off_tol`` relative to the matrix scale,
    when a sweep makes no further progress, or after ``max_sweeps``.
    """
    a = np.array(matrix, dtype=np.complex128)
    n = a.shape[0]
    if n == 0:
        return np.zeros(0)
    a = (a + a.conj().T) / 2.0
    threshold = off_tol * max(1.0, float(np.linalg.norm(a)))
    previous = math.inf
    for _ in range(max_sweeps):
        off = _off_mass(a)
        if off <= threshold or off >= previous:
            break
        previous = off
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = abs(apq)
                if mag == 0.0:
                    continue
                tau = (a[p, p].real - a[q, q].real) / (2.0 * mag)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                phase = apq / mag
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = c * colp + s * np.conj(phase) * colq
                a[:, q] = -s * phase * colp + c * colq
                rowp = a[p, :].copy()
                rowq = a[q, :].copy()
                a[p, :] = c * rowp + s * phase * rowq
                a[q, :] = -s * np.conj(phase) * rowp + c * rowq
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
    return np.sort(np.diagonal(a).real)


def gaussian_rank(matrix, pivot_tol: float = 1e-9) -> int:
    """Rank over the complex numbers by Gaussian elimination with partial pivoting."""
    a = np.array(matrix, dtype=np.complex128)
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        magnitudes = np.abs(a[rank:, col])
        pivot = int(np.argmax(magnitudes))
        if magnitudes[pivot] <= pivot_tol:
            continue
        pivot += rank
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        factors = a[rank + 1 :, col] / a[rank, col]
        a[rank + 1 :, :] -= np.outer(factors, a[rank, :])
        rank += 1
    return rank


def stacked_delta_matrix(groupoid, weights: dict[str, float]) -> np.ndarray:
    """Every per-unit matrix of every delta function, stacked, from the raw tables.

    Row ``(u, gamma, beta)`` over the source fiber of each unit ``u`` holds
    the matrix entry ``w(a) sqrt(w(inverse(gamma)) / w(inverse(beta)))`` in
    the column of the arrow ``a = gamma inverse(beta)``.
    """
    ids = sorted(a.id for a in groupoid.arrows)
    column = {aid: i for i, aid in enumerate(ids)}
    rows = []
    for u in sorted(groupoid.units):
        fiber = sorted(a.id for a in groupoid.arrows if a.src == u)
        for gamma in fiber:
            for beta in fiber:
                a = groupoid.compose[(gamma, groupoid.inverse[beta])]
                row = np.zeros(len(ids), dtype=np.complex128)
                row[column[a]] = weights[a] * math.sqrt(
                    weights[groupoid.inverse[gamma]] / weights[groupoid.inverse[beta]]
                )
                rows.append(row)
    return np.array(rows).reshape(len(rows), len(ids))
