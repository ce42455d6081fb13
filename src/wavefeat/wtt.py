"""Adaptive wavelet-like transform built from recursive SVD of reshapings.

A length-2^d signal is viewed as a d-way array with binary mode sizes, least
significant bit first (column-major vectorization), so the first level pairs
adjacent samples, the next level pairs adjacent pairs, and so on, exactly the
dyadic structure of a wavelet filter bank.  At every level the current block
is reshaped so that the leading mode pairs the previous rank with the next
binary mode, and the left singular matrix of that unfolding becomes the
level filter.  Rows past the level rank are emitted as detail coefficients;
the rest continue deeper.  Every filter is square and orthogonal, so the
transform is an isometry and exactly invertible at any rank.

Banks are trained on a stack of signals (the stack is treated as one extra
trailing mode whose filter is discarded; one signal is a stack of one), and
then applied to any signal of the same length.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

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
    requested_rank: int

    @property
    def depth(self) -> int:
        return len(self.filters)

    def __post_init__(self):
        if len(self.ranks) != len(self.filters):
            raise InvalidInputError("ranks and filters length mismatch")
        for u in self.filters:
            if u.ndim != 2 or u.shape[0] != u.shape[1]:
                raise InvalidInputError("filters must be square matrices")


@dataclass
class WttCoeffs:
    """Per-level detail blocks plus the final retained core."""

    details: list = field(default_factory=list)  # level order, flattened blocks
    core: np.ndarray | None = None

    def block_sizes(self) -> list[int]:
        return [d.shape[-1] for d in self.details] + [self.core.shape[-1]]

    @property
    def total_length(self) -> int:
        return sum(self.block_sizes())


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
    single signal is a stack of one.  All reshapes are column-major, so
    binary modes run from the least significant (adjacent samples) upward.
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
    a = signals.reshape(1, -1)  # sample-major concat = group mode slowest
    r_prev = 1
    for r_k in ranks:
        a = a.reshape(r_prev * 2, -1, order="F")
        u, _ = svd_left(a)
        filters.append(u)
        a = (u.T @ a)[:r_k]
        r_prev = r_k
    return WttFilterBank(tuple(filters), tuple(ranks), n, rank)


def wtt_forward(x: np.ndarray, bank: WttFilterBank) -> WttCoeffs:
    """Apply the bank; emits per-level detail blocks and the final core.

    Accepts a single signal or an (n_samples, n_points) block; blocks keep
    their leading axis in every output block.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[-1] != bank.signal_length:
        raise InvalidInputError(
            f"signal length {x.shape[-1]} does not match bank length {bank.signal_length}")
    batch = x.shape[0]
    details = []
    # batch kept as the trailing (slowest) axis so column-major reshapes act
    # per sample exactly as on a single signal
    a = x.T.reshape(1, bank.signal_length, batch, order="F")
    for u, r_k in zip(bank.filters, bank.ranks):
        rows = u.shape[0]
        a = a.reshape(rows, -1, batch, order="F")
        b = np.tensordot(u.T, a, axes=(1, 0))
        det = b[r_k:].reshape(-1, batch, order="F").T
        details.append(det[0] if single else det)
        a = b[:r_k]
    core = a.reshape(-1, batch, order="F").T
    return WttCoeffs(details=details, core=core[0] if single else core)


def wtt_inverse(c: WttCoeffs, bank: WttFilterBank) -> np.ndarray:
    """Exact inverse of :func:`wtt_forward` for the producing bank."""
    core = np.asarray(c.core, dtype=float)
    single = core.ndim == 1
    details = [np.asarray(d, dtype=float) for d in c.details]
    if single:
        core = core[None, :]
        details = [d[None, :] for d in details]
    if len(details) != bank.depth:
        raise InvalidInputError("detail count does not match bank depth")
    batch = core.shape[0]
    # remaining column count at level k is 2^(d-1-k)
    n = bank.signal_length
    cols = [n // (2 ** (k + 1)) for k in range(bank.depth)]
    r_last = bank.ranks[-1]
    if core.size != batch * r_last * cols[-1]:
        raise InvalidInputError("core size does not match bank shape")
    a = core.T.reshape(r_last, cols[-1], batch, order="F")
    for k in range(bank.depth - 1, -1, -1):
        u = bank.filters[k]
        rows = u.shape[0]
        r_k = bank.ranks[k]
        det = details[k]
        expect = batch * (rows - r_k) * cols[k]
        if det.size != expect:
            raise InvalidInputError(
                f"level-{k + 1} detail block has {det.size} elements, expected {expect}")
        b = np.concatenate(
            [a.reshape(r_k, cols[k], batch, order="F"),
             det.T.reshape(rows - r_k, cols[k], batch, order="F")], axis=0)
        full = np.tensordot(u, b, axes=(1, 0))
        r_prev = 1 if k == 0 else bank.ranks[k - 1]
        a = full.reshape(r_prev, -1, batch, order="F")
    return a.reshape(n, batch, order="F").T[0] if single else \
        a.reshape(n, batch, order="F").T


def flatten_wtt(c: WttCoeffs) -> np.ndarray:
    """Details level 1..d-1 then core, concatenated along the last axis."""
    return np.concatenate(list(c.details) + [c.core], axis=-1)


def unflatten_wtt(vec: np.ndarray, bank: WttFilterBank) -> WttCoeffs:
    """Split a flat vector back into per-level blocks for the given bank."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape[-1] != bank.signal_length:
        raise InvalidInputError(
            f"flat length {vec.shape[-1]} does not match bank length {bank.signal_length}")
    n = bank.signal_length
    sizes = []
    r_prev = 1
    for k, r_k in enumerate(bank.ranks):
        cols = n // (2 ** (k + 1))
        sizes.append((r_prev * 2 - r_k) * cols)
        r_prev = r_k
    splits = np.cumsum(sizes)
    parts = np.split(vec, splits, axis=-1)
    return WttCoeffs(details=list(parts[:-1]), core=parts[-1])


def save_bank(path: str, bank: WttFilterBank) -> None:
    """Serialize a bank to an .npz archive (filters at full precision)."""
    header = json.dumps({
        "kind": "wtt_filter_bank",
        "signal_length": bank.signal_length,
        "requested_rank": bank.requested_rank,
        "ranks": list(bank.ranks),
        "depth": bank.depth,
    })
    arrays = {f"filter_{k}": u for k, u in enumerate(bank.filters)}
    np.savez(path, header=np.array(header), **arrays)


def load_bank(path: str) -> WttFilterBank:
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(str(data["header"]))
        if header.get("kind") != "wtt_filter_bank":
            raise InvalidInputError(f"{path} is not a filter bank file")
        filters = tuple(data[f"filter_{k}"] for k in range(header["depth"]))
    return WttFilterBank(
        filters=filters,
        ranks=tuple(header["ranks"]),
        signal_length=int(header["signal_length"]),
        requested_rank=int(header["requested_rank"]),
    )
