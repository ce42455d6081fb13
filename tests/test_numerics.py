"""Tests for the canonical left singular factor."""
import numpy as np
import pytest

from wavefeat.errors import InvalidInputError
from wavefeat.numerics import svd_left


def _check_left_factor(a, u, s):
    """u's leading columns and s are a left SVD of a: projecting onto them
    gives a back, and u_k^T a = diag(s) v^T has orthogonal rows of norm s."""
    k = s.size
    b = u[:, :k].T @ a
    err = np.linalg.norm(u[:, :k] @ b - a) / np.linalg.norm(a)
    assert err <= 1e-10
    assert np.allclose(b @ b.T, np.diag(s * s), atol=1e-10 * s[0] ** 2)


class TestSvdExamples:
    def test_identity(self):
        u, s = svd_left(np.eye(3))
        assert np.allclose(s, [1.0, 1.0, 1.0])
        assert np.allclose(u, np.eye(3))

    def test_diagonal(self):
        _, s = svd_left(np.diag([3.0, 1.0]))
        assert np.allclose(s, [3.0, 1.0])

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 3))
        _check_left_factor(a, *svd_left(a))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            svd_left(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(InvalidInputError):
            svd_left(np.array([[np.inf, 0.0]]))


class TestSvdInvariants:
    @pytest.mark.parametrize("shape", [(3, 3), (5, 2), (2, 6), (7, 7)])
    def test_orthogonality(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        a = rng.standard_normal(shape)
        u, _ = svd_left(a)
        m = shape[0]
        assert u.shape == (m, m)
        assert np.max(np.abs(u.T @ u - np.eye(m))) <= 1e-10

    def test_reconstruction_conditioned(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.standard_normal((6, 5))
            u, s = svd_left(a)
            assert s[0] / s[-1] <= 1e8  # generic matrices are conditioned
            _check_left_factor(a, u, s)

    def test_singular_values_sorted(self):
        rng = np.random.default_rng(4)
        _, s = svd_left(rng.standard_normal((8, 6)))
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)

    def test_sign_canonicalization(self):
        rng = np.random.default_rng(5)
        u, _ = svd_left(rng.standard_normal((5, 4)))
        for j in range(u.shape[1]):
            col = u[:, j]
            assert col[int(np.argmax(np.abs(col)))] >= 0

    def test_determinism_bytes(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 3))
        (u1, s1), (u2, s2) = svd_left(a.copy()), svd_left(a.copy())
        assert u1.tobytes() == u2.tobytes()
        assert s1.tobytes() == s2.tobytes()

    def test_svd_left_matches_svd(self):
        # full-rank wide input: the singular values are LAPACK's and every
        # column is LAPACK's up to its sign, both to rounding
        rng = np.random.default_rng(7)
        for shape in [(4, 9), (2, 4096), (12, 1024)]:
            a = rng.standard_normal(shape)
            u_lapack, s_lapack, _ = np.linalg.svd(a, full_matrices=False)
            u_left, s = svd_left(a)
            assert np.max(np.abs(s - s_lapack)) <= 1e-14 * s_lapack[0]
            for j in range(shape[0]):
                assert min(np.max(np.abs(u_left[:, j] - u_lapack[:, j])),
                           np.max(np.abs(u_left[:, j] + u_lapack[:, j]))) <= 1e-13

    def test_svd_left_rank_deficient_wide(self):
        # rank 3 of 6 rows: the data-determined columns are LAPACK's up to
        # sign; the rest complete U to an orthogonal basis of the null space
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 2048))
        u_lapack, s_lapack, _ = np.linalg.svd(a, full_matrices=False)
        u_left, s = svd_left(a)
        assert np.max(np.abs(s - s_lapack)) <= 1e-14 * s_lapack[0]
        assert np.all(s[3:] <= 1e-12 * s[0])
        for j in range(3):
            assert min(np.max(np.abs(u_left[:, j] - u_lapack[:, j])),
                       np.max(np.abs(u_left[:, j] + u_lapack[:, j]))) <= 1e-13
        assert np.max(np.abs(u_left.T @ u_left - np.eye(6))) <= 1e-12
        assert np.max(np.abs(u_left[:, 3:].T @ a)) <= 1e-12 * s[0]

    def test_nullspace_completion_canonical(self):
        # a tall rank-deficient matrix and a widened copy share the
        # data-determined columns, so the completed factors agree too
        rng = np.random.default_rng(8)
        base = rng.standard_normal((6, 2))
        u1, _ = svd_left(base)
        u2, _ = svd_left(np.repeat(base, 3, axis=1))
        assert np.allclose(u1, u2, atol=1e-12)
