"""Tests for the canonical left singular factor."""
import numpy as np
import pytest

from wavefeat.errors import InvalidInputError
from wavefeat import numerics
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


def _unblocked_left(a):
    """svd_left as it was before the blocked QR: one QR of the whole tall
    side, then the same SVD, completion and signs."""
    r = np.linalg.qr(a.T, mode="r").T if a.shape[1] > a.shape[0] else a
    u_thin, s, _ = np.linalg.svd(r, full_matrices=False)
    return numerics._flip_column_signs(numerics._full_left_factor(u_thin, s)), s


ROWS = numerics.QR_BLOCK_ROWS


class TestBlockedQr:
    # the long side: a multiple of the block and of the batch, one row past
    # a block, one row past a batch, below a block; k = 1 and k = 12
    @pytest.mark.parametrize("k, n", [
        (3, 4 * ROWS), (3, ROWS + 1), (3, numerics.QR_BATCH * ROWS + 1), (3, ROWS - 5),
        (1, 5 * ROWS + 7), (12, 40 * ROWS + 3)])
    def test_matches_one_qr_of_the_whole_block(self, k, n):
        a = np.random.default_rng(k * n).standard_normal((k, n))
        r = numerics._tall_r(a.T)
        r0 = np.linalg.qr(a.T, mode="r")
        assert r.shape == (k, k) and np.allclose(np.triu(r), r)
        gram = r0.T @ r0
        assert np.max(np.abs(r.T @ r - gram)) <= 1e-12 * np.max(np.abs(gram))
        (u, s), (u0, s0) = svd_left(a), _unblocked_left(a)
        assert np.max(np.abs(s - s0)) <= 1e-12 * s0[0]
        assert np.max(np.abs(u - u0)) <= 1e-12

    def test_rank_deficient_tall_input_is_completed(self):
        # rank 2 of 5 rows over several passes: the data-determined columns
        # agree, and the completion of both is the canonical one
        rng = np.random.default_rng(12)
        a = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 70 * ROWS + 9))
        (u, s), (u0, s0) = svd_left(a), _unblocked_left(a)
        assert np.all(s[2:] <= 1e-12 * s[0])
        assert np.max(np.abs(s[:2] - s0[:2])) <= 1e-12 * s0[0]
        assert np.max(np.abs(u - u0)) <= 1e-12
        assert np.max(np.abs(u.T @ u - np.eye(5))) <= 1e-12
        assert np.max(np.abs(u[:, 2:].T @ a)) <= 1e-12 * s[0]

    def test_repeated_calls_and_layouts_give_the_same_bits(self):
        a = np.random.default_rng(13).standard_normal((4, 50 * ROWS + 3))
        u, s = svd_left(a)
        for copy in (a.copy(), np.asfortranarray(a), np.ascontiguousarray(a.T).T):
            u2, s2 = svd_left(copy)
            assert u2.tobytes() == u.tobytes() and s2.tobytes() == s.tobytes()

    def test_no_qr_reads_more_than_a_block(self, monkeypatch):
        shapes = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr",
                            lambda x, mode: shapes.append(x.shape) or qr(x, mode=mode))
        svd_left(np.random.default_rng(14).standard_normal((2, 200 * ROWS + 1)))
        assert shapes and all(shape[-2] <= ROWS for shape in shapes)
        assert all(len(shape) == 2 or shape[0] <= numerics.QR_BATCH for shape in shapes)
