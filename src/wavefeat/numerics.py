"""Left singular factor with deterministic, sign-canonical output.

``svd_left`` is a thin wrapper over LAPACK (via numpy) plus two conventions
that make repeated runs on identical input bit-reproducible, which
filter-bank training relies on:

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


def svd_left(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Square (m x m) left singular factor and the min(m, n) singular values,
    sorted non-increasing, of an m x n matrix.

    The right factor is never materialized, so arbitrarily wide matrices are
    fine.  Non-finite entries raise InvalidInputError.
    """
    a = _require_finite_matrix(a)
    u_thin, s, _ = np.linalg.svd(a, full_matrices=False)
    return _flip_column_signs(_full_left_factor(u_thin, s)), s
