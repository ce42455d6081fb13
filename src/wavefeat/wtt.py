"""Adaptive wavelet-like transform built from recursive SVD of reshapings.

A length-2^d signal is viewed as a d-way array with binary mode sizes, least
significant bit first, so the first level pairs adjacent samples, the next
level pairs adjacent pairs, and so on, exactly the dyadic structure of a
wavelet filter bank.  At every level the current block is reshaped so that
the leading mode pairs the previous rank with the next binary mode, and the
left singular matrix of that unfolding becomes the level filter.  Rows past
the level rank are emitted as detail coefficients; the rest continue
deeper.  Every filter is square and orthogonal, so the transform is an
isometry and exactly invertible at any rank.

Layout: each level's (rows, cols) unfolding of every signal in a batch is
held transposed, as a row-major (batch, cols, rows) array, so consecutive
samples fill a row and a plain row-major reshape moves from one level to
the next.  A level is then one matrix product, ``block @ u`` forward and
``block @ u.T`` inverse, on the (batch * cols, rows) view.  The
coefficients of a signal are one flat array along its last axis: the
details of levels 1..d-1, then the core.  The bank's ranks fix every
block's length, so the inverse takes the flat array and the bank.  The
forward copies each level's details straight into that preallocated
(batch, n) array, and drops each level's input once the product is taken
and the product once its core is copied out, so it holds under three
times its output besides the input.

Banks are trained on a stack of signals (the stack is treated as one extra
slowest mode whose filter is discarded; one signal is a stack of one), and
then applied to any signal of the same length.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .numerics import svd_left


def _check_pow2(n: int) -> int:
    if n < 4 or (n & (n - 1)) != 0:
        raise InvalidInputError(
            f"signal length {n} is not a power of two >= 4; resample first")
    return int(np.log2(n))


@dataclass(frozen=True)
class WttFilterBank:
    """Ordered orthogonal filter matrices with their retained ranks."""

    filters: tuple          # U_1 .. U_{d-1}, each (r_{k-1}*2) x (r_{k-1}*2)
    ranks: tuple            # r_1 .. r_{d-1}
    signal_length: int      # 2^d

    @property
    def depth(self) -> int:
        return len(self.filters)


def _clipped_ranks(rank: int, d: int, tail_sizes: list[int]) -> list[int]:
    """Effective ranks r_k = min(rank, r_{k-1}*2, prod of remaining modes)."""
    ranks = []
    r_prev = 1
    for k in range(d - 1):
        r = min(rank, r_prev * 2, tail_sizes[k])
        ranks.append(r)
        r_prev = r
    return ranks


def train_group_filters(signals: np.ndarray, rank: int) -> WttFilterBank:
    """Train joint filters on a stack of equally sized signals.

    The stack is treated as one tensor with an extra trailing (slowest)
    group mode; the filter belonging to that mode is never used, so the
    resulting bank applies to any single signal of the shared length.  A
    single signal is a stack of one.  Each level's unfolding is held as
    its transpose, a row-major (columns, rows) block (see the module
    docstring).
    """
    signals = np.asarray(signals, dtype=float)
    if signals.ndim != 2:
        raise InvalidInputError("expected a (n_samples, n_points) block")
    if rank < 1:
        raise InvalidInputError("rank must be >= 1")
    m, n = signals.shape
    d = _check_pow2(n)
    # trailing group mode of size m: tail products gain a factor of m
    ranks = _clipped_ranks(rank, d, [2 ** (d - k - 1) * m for k in range(d - 1)])
    filters = []
    a = signals
    r_prev = 1
    for r_k in ranks:
        a = a.reshape(-1, r_prev * 2)
        u, _ = svd_left(a.T)
        filters.append(u)
        a = (a @ u)[:, :r_k]
        r_prev = r_k
    return WttFilterBank(tuple(filters), tuple(ranks), n)


def wtt_forward(x: np.ndarray, bank: WttFilterBank) -> np.ndarray:
    """Apply the bank along the last axis of x, of any leading shape.

    Returns the flat coefficient array: the details of levels 1..d-1, then
    the final core.
    """
    x = np.asarray(x, dtype=float)
    n = bank.signal_length
    if x.shape[-1] != n:
        raise InvalidInputError(
            f"signal length {x.shape[-1]} does not match bank length {n}")
    a = x.reshape(-1, n)
    batch = a.shape[0]
    out = None  # allocated at the first level with details
    start = 0
    for u, r_k in zip(bank.filters, bank.ranks):
        rows = u.shape[0]
        b = (a.reshape(-1, rows) @ u).reshape(batch, -1, rows)
        a = None  # the level's input is not needed past its product
        if r_k < rows:
            if out is None:
                out = np.empty((batch, n))
            stop = start + b.shape[1] * (rows - r_k)
            # splitting the last axis of a column slice is a view of out
            out[:, start:stop].reshape(batch, -1, rows - r_k)[...] = b[..., r_k:]
            start = stop
        a = np.ascontiguousarray(b[..., :r_k])
        b = None
    if out is None:
        out = np.empty((batch, n))
    out[:, start:] = a.reshape(batch, -1)
    return out.reshape(x.shape)


def wtt_inverse(vec: np.ndarray, bank: WttFilterBank) -> np.ndarray:
    """Exact inverse of :func:`wtt_forward` for the producing bank."""
    vec = np.asarray(vec, dtype=float)
    n = bank.signal_length
    if vec.shape[-1] != n:
        raise InvalidInputError(
            f"flat length {vec.shape[-1]} does not match bank length {n}")
    flat = vec.reshape(-1, n)
    batch = flat.shape[0]
    # the blocks are read from the back: the core, then each level's details
    end = n - bank.ranks[-1] * (n // 2 ** bank.depth)
    a = flat[:, end:]
    for k in range(bank.depth - 1, -1, -1):
        u = bank.filters[k]
        rows = u.shape[0]
        r_k = bank.ranks[k]
        cols = n // 2 ** (k + 1)  # columns left at level k
        start = end - (rows - r_k) * cols
        det = flat[:, start:end]
        end = start
        b = np.concatenate(
            [a.reshape(batch * cols, r_k),
             det.reshape(batch * cols, rows - r_k)], axis=1)
        a = b @ u.T
    return a.reshape(vec.shape)
