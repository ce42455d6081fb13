"""Left singular factor with deterministic, sign-canonical output.

``svd_left`` is a thin wrapper over LAPACK (via numpy).  A wide m x n
matrix (n > m) is first reduced to the m x m triangle ``R^T`` of the QR
factorization ``a^T = Q R``: ``a a^T = R^T R``, so ``R^T`` has the same left
singular factor and singular values, and the SVD never touches the long
side.  A long side of more than ``QR_BLOCK_ROWS`` is reduced by row blocks
(TSQR: Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34, 2012):
each block of ``a^T`` goes to a batched QR, ``QR_BATCH`` blocks per call,
and the stacked triangles are reduced the same way until one block is left.
No call copies the whole block, and every QR reads a copy of its blocks, so
R does not depend on the layout of ``a``.  Two conventions make repeated
runs on identical input bit-reproducible, which filter-bank training relies
on:

* sign canonicalization: the largest-magnitude entry of every left singular
  vector is non-negative (ties broken by lowest row index);
* directions with singular value below 1e-12 of the largest (including the
  no-singular-value completion of a wide or rank-deficient factor) are
  rebuilt by a deterministic orthonormal completion instead of whatever
  basis LAPACK happened to return for the null space.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

_NULLSPACE_RTOL = 1e-12
QR_BLOCK_ROWS = 256  # rows of the tall side per QR of a wide matrix
QR_BATCH = 32  # blocks per batched np.linalg.qr call


def _require_finite_matrix(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInputError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix contains non-finite entries")
    return a


def _canonical_completion(q: np.ndarray, m: int) -> np.ndarray:
    """Deterministic orthonormal completion of the columns of q to R^m."""
    k = q.shape[1]
    if k >= m:
        return q[:, :0]
    if k == 0:
        return np.eye(m)
    basis, _ = np.linalg.qr(np.concatenate([q, np.eye(m)], axis=1))
    return basis[:, k:m]


def _flip_column_signs(mat: np.ndarray) -> np.ndarray:
    for j in range(mat.shape[1]):
        col = mat[:, j]
        pivot = int(np.argmax(np.abs(col)))
        if col[pivot] < 0:
            mat[:, j] = -col
    return mat


def _full_left_factor(u_thin: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Square U from the economy factor: keep data-determined columns,
    complete the rest canonically."""
    m = u_thin.shape[0]
    k_eff = int(np.sum(s >= _NULLSPACE_RTOL * s[0])) if s.size and s[0] > 0 else 0
    kept = u_thin[:, :k_eff]
    return np.concatenate([kept, _canonical_completion(kept, m)], axis=1)


def _tall_r(t: np.ndarray) -> np.ndarray:
    """The triangle R of ``t = Q R`` for a tall N x k block, by row blocks
    of at least ``QR_BLOCK_ROWS`` and twice k, so that each pass at least
    halves the rows left."""
    k = t.shape[1]
    rows = max(QR_BLOCK_ROWS, 2 * k)
    while t.shape[0] > rows:
        full = t.shape[0] // rows * rows
        step = QR_BATCH * rows
        parts = [np.linalg.qr(t[lo:min(lo + step, full)].reshape(-1, rows, k),
                              mode="r").reshape(-1, k) for lo in range(0, full, step)]
        if full < t.shape[0]:
            parts.append(np.linalg.qr(t[full:], mode="r"))
        t = np.concatenate(parts)
    return np.linalg.qr(t, mode="r")


def svd_left(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Square (m x m) left singular factor and the min(m, n) singular values,
    sorted non-increasing, of an m x n matrix.

    The right factor is never materialized, so arbitrarily wide matrices are
    fine.  Non-finite entries raise InvalidInputError.
    """
    a = _require_finite_matrix(a)
    if a.shape[1] > a.shape[0]:
        a = _tall_r(a.T).T
    u_thin, s, _ = np.linalg.svd(a, full_matrices=False)
    return _flip_column_signs(_full_left_factor(u_thin, s)), s
