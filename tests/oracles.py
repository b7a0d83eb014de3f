"""Independent oracles used by the tests.

These deliberately avoid the library's own code paths: the Fourier norm
is a direct double loop with ``cmath``, the singular-value oracle goes
through LAPACK, the bracket oracle is an exhaustive scan of the action
table, and since the library itself takes its kernels from LAPACK, the
eigenvalue and rank oracles are a cyclic Jacobi iteration and Gaussian
elimination written out in Python.  The bimodule kernels (product,
actions, inner products, per-unit matrices) are the plain loops over
the raw tables, summing the same terms in the same order as the
library, so the library's results must equal theirs exactly.
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


# --- the bimodule kernels, from the raw tables ------------------------------
#
# Elements are plain ``{id: value}`` dicts and Haar systems plain weight
# dicts; every id is looked up in the tables the groupoid or bispace was
# built from.


def _range_fiber(groupoid, u: str) -> list[str]:
    return sorted(a.id for a in groupoid.arrows if a.dst == u)


def _source(groupoid, arrow_id: str) -> str:
    return next(a.src for a in groupoid.arrows if a.id == arrow_id)


def _range(groupoid, arrow_id: str) -> str:
    return next(a.dst for a in groupoid.arrows if a.id == arrow_id)


def _base_point_free(samples: list[complex]) -> complex:
    ref = samples[0]
    if any(abs(v - ref) > 1e-12 * max(1.0, abs(ref)) for v in samples[1:]):
        raise ValueError(f"inner product depends on the base point: {samples!r}")
    return ref


def convolution(f: dict, g: dict, groupoid, weights: dict) -> dict:
    """``(f * g)(ab) += f(a) g(b) w(a)`` over composable pairs, ``a`` in the order of ``f``."""
    out: dict = {}
    for a, fa in f.items():
        if fa == 0:
            continue
        for b in _range_fiber(groupoid, _source(groupoid, a)):
            gb = g.get(b)
            if not gb:
                continue
            c = groupoid.compose[(a, b)]
            out[c] = out.get(c, 0.0) + fa * gb * weights[a]
    return out


def left_action(f: dict, phi: dict, Z, weights: dict) -> dict:
    """``(f . phi)(z) = sum_gamma f(gamma) phi(inverse(gamma) z) w(gamma)``."""
    G = Z.left_groupoid
    out: dict = {}
    for z in sorted(Z.points):
        acc = 0.0 + 0.0j
        for gamma in _range_fiber(G, Z.r_map[z]):
            v = phi.get(Z.left_action[(G.inverse[gamma], z)])
            if v:
                fv = f.get(gamma)
                if fv:
                    acc += fv * v * weights[gamma]
        if acc != 0:
            out[z] = acc
    return out


def right_action(phi: dict, b: dict, Z, weights: dict) -> dict:
    """``(phi . b)(z) = sum_eta phi(z eta) b(inverse(eta)) w(eta)``."""
    H = Z.right_groupoid
    out: dict = {}
    for z in sorted(Z.points):
        acc = 0.0 + 0.0j
        for eta in _range_fiber(H, Z.s_map[z]):
            v = phi.get(Z.right_action[(z, eta)])
            if v:
                bv = b.get(H.inverse[eta])
                if bv:
                    acc += v * bv * weights[eta]
        if acc != 0:
            out[z] = acc
    return out


def right_inner(phi: dict, psi: dict, Z, weights: dict) -> dict:
    """``rip(phi, psi)(eta)`` from every base point ``z`` over ``r(eta)``, which must agree."""
    G, H = Z.left_groupoid, Z.right_groupoid
    out: dict = {}
    for eta in sorted(a.id for a in H.arrows):
        samples = []
        for z in sorted(p for p in Z.points if Z.s_map[p] == _range(H, eta)):
            acc = 0.0 + 0.0j
            for gamma in _range_fiber(G, Z.r_map[z]):
                y = Z.left_action[(G.inverse[gamma], z)]
                a = phi.get(y)
                if not a:
                    continue
                b = psi.get(Z.right_action[(y, eta)])
                if b:
                    acc += a.conjugate() * b * weights[gamma]
            samples.append(acc)
        value = _base_point_free(samples)
        if value != 0:
            out[eta] = value
    return out


def left_inner(phi: dict, psi: dict, Z, weights: dict) -> dict:
    """``lip(phi, psi)(gamma)`` from every base point ``w`` over ``s(gamma)``, which must agree."""
    G, H = Z.left_groupoid, Z.right_groupoid
    out: dict = {}
    for gamma in sorted(a.id for a in G.arrows):
        samples = []
        for w in sorted(p for p in Z.points if Z.r_map[p] == _source(G, gamma)):
            acc = 0.0 + 0.0j
            for eta in _range_fiber(H, Z.s_map[w]):
                we = Z.right_action[(w, eta)]
                b = psi.get(we)
                a = phi.get(Z.left_action[(gamma, we)])
                if a and b:
                    acc += a * b.conjugate() * weights[eta]
            samples.append(acc)
        value = _base_point_free(samples)
        if value != 0:
            out[gamma] = value
    return out


def unit_matrix(groupoid, weights: dict, u: str, values: dict) -> np.ndarray:
    """Matrix of convolution by ``values`` over the source fiber of ``u``, orthonormal basis."""
    fiber = sorted(a.id for a in groupoid.arrows if a.src == u)
    roots = np.sqrt(np.array([weights[groupoid.inverse[g]] for g in fiber], dtype=float))
    entries = np.zeros((len(fiber), len(fiber)), dtype=np.complex128)
    for j, beta in enumerate(fiber):
        inv_beta = groupoid.inverse[beta]
        for i, gamma in enumerate(fiber):
            a = groupoid.compose[(gamma, inv_beta)]
            v = values.get(a)
            if v:
                entries[i, j] = v * weights[a] * (roots[i] / roots[j])
    return entries
