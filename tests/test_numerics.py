import numpy as np
import pytest

from groupoidal.numerics import complex_rank, hermitian_eigenvalues, spectral_norm
from oracles import gaussian_rank, jacobi_eigenvalues


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a + a.conj().T


class TestHermitianEigenvalues:
    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5, 9, 16):
            for _ in range(3):
                h = random_hermitian(rng, n)
                got = hermitian_eigenvalues(h)
                want = jacobi_eigenvalues(h)
                scale = max(1.0, float(np.abs(want).max()))
                assert np.all(np.diff(got) >= 0)
                assert np.abs(got - want).max() <= 1e-12 * scale

    def test_reads_both_triangles(self):
        # the Hermitian part (M + M^H) / 2 of a general matrix, not one triangle
        rng = np.random.default_rng(11)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        assert np.abs(hermitian_eigenvalues(m) - jacobi_eigenvalues(m)).max() <= 1e-11

    def test_rank_deficient_gram_matches_jacobi_oracle(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        gram = v @ v.conj().T
        got = hermitian_eigenvalues(gram)
        assert np.abs(got - jacobi_eigenvalues(gram)).max() <= 1e-12 * np.abs(got).max()
        assert np.abs(got[:4]).max() <= 1e-12 * got[-1]

    def test_empty_matrix(self):
        assert hermitian_eigenvalues(np.zeros((0, 0))).shape == (0,)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.array([[1.0, np.inf], [np.inf, 1.0]]))


class TestSpectralNorm:
    def test_matches_jacobi_oracle_on_gram(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 4, 7, 12):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            want = float(np.sqrt(jacobi_eigenvalues(m.conj().T @ m)[-1]))
            assert spectral_norm(m) == pytest.approx(want, rel=1e-12)

    def test_empty_and_non_finite(self):
        assert spectral_norm(np.zeros((0, 0))) == 0.0
        with pytest.raises(ValueError):
            spectral_norm(np.array([[np.nan]]))


class TestComplexRank:
    def test_matches_gaussian_oracle(self):
        rng = np.random.default_rng(10)
        for rows, cols, rank in ((4, 4, 4), (6, 4, 2), (3, 8, 3), (9, 9, 5), (5, 7, 0)):
            left = rng.normal(size=(rows, rank)) + 1j * rng.normal(size=(rows, rank))
            right = rng.normal(size=(rank, cols)) + 1j * rng.normal(size=(rank, cols))
            m = left @ right
            assert complex_rank(m) == gaussian_rank(m) == rank

    def test_empty_and_shape(self):
        assert complex_rank(np.zeros((0, 3))) == 0
        with pytest.raises(ValueError):
            complex_rank(np.zeros(3))
