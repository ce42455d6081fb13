"""Tests for the adaptive SVD filter bank."""

import numpy as np
import pytest

from wavefeat import wtt
from wavefeat.errors import InvalidInputError
from wavefeat.numerics import svd_left


class TestTrainFilters:
    def test_constant_signal_rank1(self):
        bank = wtt.train_group_filters(np.full(8, 3.0)[None], 1)
        assert bank.depth == 2
        for u in bank.filters:
            assert np.allclose(np.abs(u[:, 0]), [1 / np.sqrt(2)] * 2, atol=1e-12)
            assert u[0, 0] > 0  # sign convention

    def test_rank_clipping_saturates(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(16)
        bank = wtt.train_group_filters(x[None], 100)
        # effective ranks r_k = min(r_{k-1}*2, 2^(d-k))
        assert bank.ranks == (2, 4, 2)

    def test_rank2_length16_bookkeeping(self):
        rng = np.random.default_rng(1)
        bank = wtt.train_group_filters(rng.standard_normal(16)[None], 2)
        assert bank.ranks == (2, 2, 2)
        assert [u.shape for u in bank.filters] == [(2, 2), (4, 4), (4, 4)]

    def test_non_pow2_rejected(self):
        with pytest.raises(InvalidInputError):
            wtt.train_group_filters(np.zeros(12)[None], 1)

    def test_bad_rank(self):
        with pytest.raises(InvalidInputError):
            wtt.train_group_filters(np.zeros(8)[None], 0)

    def test_orthogonality(self):
        rng = np.random.default_rng(2)
        bank = wtt.train_group_filters(rng.standard_normal(64)[None], 3)
        for u in bank.filters:
            assert np.max(np.abs(u.T @ u - np.eye(u.shape[0]))) <= 1e-10


class TestGroupFilters:
    def test_identical_signals_match_single(self):
        rng = np.random.default_rng(3)
        sig = rng.standard_normal(64)
        single = wtt.train_group_filters(sig[None], 2)
        group = wtt.train_group_filters(np.tile(sig, (4, 1)), 2)
        for a, b in zip(single.filters, group.filters):
            assert np.allclose(a, b, atol=1e-12)
        assert single.ranks == group.ranks

    def test_m1_degenerates_to_single(self):
        rng = np.random.default_rng(4)
        sig = rng.standard_normal(32)
        a = wtt.train_group_filters(sig[None], 3)
        b = wtt.train_group_filters(sig[None, :], 3)
        for u, v in zip(a.filters, b.filters):
            assert np.array_equal(u, v)

    def test_shape_contract(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((6, 64))
        bank = wtt.train_group_filters(data[:4], 2)
        held = data[4:]
        c = wtt.wtt_forward(held, bank)
        assert np.max(np.abs(wtt.wtt_inverse(c, bank) - held)) <= 1e-10
        with pytest.raises(InvalidInputError):
            wtt.wtt_forward(rng.standard_normal(128), bank)
        with pytest.raises(InvalidInputError):
            wtt.wtt_forward(rng.standard_normal(32), bank)


class TestForwardInverse:
    def test_constant_rank1(self):
        c0 = 3.0
        bank = wtt.train_group_filters(np.full(8, c0)[None], 1)
        c = wtt.wtt_forward(np.full(8, c0), bank)
        details, core = c[:-2], c[-2:]  # the rank-1 core holds 2 coefficients
        assert np.max(np.abs(details)) <= 1e-12
        assert np.allclose(np.abs(core), [2 * c0, 2 * c0])
        # norm sqrt(8) * c preserved
        assert abs(np.linalg.norm(core) - np.sqrt(8) * c0) <= 1e-12

    @pytest.mark.parametrize("rank", [1, 2, 3, 6])
    def test_round_trip(self, rank):
        rng = np.random.default_rng(6 + rank)
        x = rng.standard_normal(256)
        bank = wtt.train_group_filters(x[None], rank)
        c = wtt.wtt_forward(x, bank)
        assert np.max(np.abs(wtt.wtt_inverse(c, bank) - x)) <= 1e-10

    def test_isometry_sweep(self):
        rng = np.random.default_rng(7)
        bank = wtt.train_group_filters(rng.standard_normal(128)[None], 4)
        for _ in range(100):
            x = rng.standard_normal(128)
            c = wtt.wtt_forward(x, bank)
            assert abs(np.linalg.norm(c) - np.linalg.norm(x)) <= 1e-10

    def test_zero_coefficients(self):
        rng = np.random.default_rng(8)
        bank = wtt.train_group_filters(rng.standard_normal(32)[None], 2)
        c = wtt.wtt_forward(np.zeros(32), bank)
        assert np.max(np.abs(wtt.wtt_inverse(c, bank))) == 0.0

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(9)
        bank = wtt.train_group_filters(rng.standard_normal(32)[None], 2)
        x, y = rng.standard_normal((2, 32))
        fx = wtt.wtt_forward(x, bank)
        fy = wtt.wtt_forward(y, bank)
        fxy = wtt.wtt_forward(2 * x - y, bank)
        assert np.max(np.abs(fxy - (2 * fx - fy))) <= 1e-10

    def test_dimension_bookkeeping(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(64)
        for rank in range(1, 9):
            bank = wtt.train_group_filters(x[None], rank)
            assert wtt.wtt_forward(x, bank).shape == (64,)

    def test_adaptivity_rank1_detail_minimal(self):
        # the trained level-1 filter drops the least possible energy among
        # all orthogonal 2x2 choices
        rng = np.random.default_rng(11)
        x = rng.standard_normal(64)
        bank = wtt.train_group_filters(x[None], 1)
        # at rank 1, the level-1 details are the first 32 coefficients
        trained = np.linalg.norm(wtt.wtt_forward(x, bank)[:32])
        pairs = x.reshape(2, -1, order="F")
        for theta in np.linspace(0, np.pi, 181):
            q = np.array([[np.cos(theta), -np.sin(theta)],
                          [np.sin(theta), np.cos(theta)]])
            dropped = np.linalg.norm((q.T @ pairs)[1])
            assert trained <= dropped + 1e-9

    def test_mismatched_blocks_rejected(self):
        rng = np.random.default_rng(12)
        bank = wtt.train_group_filters(rng.standard_normal(32)[None], 2)
        c = wtt.wtt_forward(rng.standard_normal((2, 32)), bank)
        for wrong in (c[..., :-1], np.concatenate([c, c[..., :1]], axis=-1)):
            with pytest.raises(InvalidInputError):
                wtt.wtt_inverse(wrong, bank)


class TestFlatten:
    def test_layout_and_length(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(64)
        bank = wtt.train_group_filters(x[None], 2)
        flat = wtt.wtt_forward(x, bank)
        assert flat.shape == (64,)
        details, core = _reference_forward(x[None], bank)
        assert np.array_equal(flat[:details[0].shape[-1]], details[0][0])
        assert np.array_equal(flat[-core.shape[-1]:], core[0])

    def test_batch_flatten(self):
        rng = np.random.default_rng(15)
        xs = rng.standard_normal((5, 64))
        bank = wtt.train_group_filters(xs, 2)
        flat = wtt.wtt_forward(xs, bank)
        assert flat.shape == (5, 64)
        single = wtt.wtt_forward(xs[2], bank)
        assert np.allclose(flat[2], single, atol=1e-12)
        stacked = wtt.wtt_forward(xs[:4].reshape(2, 2, 64), bank)
        assert stacked.shape == (2, 2, 64)
        assert np.allclose(stacked.reshape(4, 64), flat[:4], atol=1e-12)
        back = wtt.wtt_inverse(stacked, bank)
        assert np.max(np.abs(back.reshape(4, 64) - xs[:4])) <= 1e-10


# Training and both transforms as first written, on column-major reshapes
# with the batch as the trailing axis and ``tensordot`` per level: the
# reference that the row-major kernels match bit for bit.

def _reference_train(signals, rank):
    m, n = signals.shape
    d = int(np.log2(n))
    ranks = wtt._clipped_ranks(rank, d, [2 ** (d - k - 1) * m for k in range(d - 1)])
    filters = []
    a = signals.reshape(1, -1)
    r_prev = 1
    for r_k in ranks:
        a = a.reshape(r_prev * 2, -1, order="F")
        u, _ = svd_left(a)
        filters.append(u)
        a = (u.T @ a)[:r_k]
        r_prev = r_k
    return filters, ranks


def _reference_forward(x, bank):
    batch = x.shape[0]
    details = []
    a = x.T.reshape(1, bank.signal_length, batch, order="F")
    for u, r_k in zip(bank.filters, bank.ranks):
        a = a.reshape(u.shape[0], -1, batch, order="F")
        b = np.tensordot(u.T, a, axes=(1, 0))
        details.append(b[r_k:].reshape(-1, batch, order="F").T)
        a = b[:r_k]
    return details, a.reshape(-1, batch, order="F").T


def _reference_inverse(details, core, bank):
    batch = core.shape[0]
    n = bank.signal_length
    cols = [n // (2 ** (k + 1)) for k in range(bank.depth)]
    a = core.T.reshape(bank.ranks[-1], cols[-1], batch, order="F")
    for k in range(bank.depth - 1, -1, -1):
        u = bank.filters[k]
        rows, r_k = u.shape[0], bank.ranks[k]
        b = np.concatenate(
            [a.reshape(r_k, cols[k], batch, order="F"),
             details[k].T.reshape(rows - r_k, cols[k], batch, order="F")], axis=0)
        full = np.tensordot(u, b, axes=(1, 0))
        r_prev = 1 if k == 0 else bank.ranks[k - 1]
        a = full.reshape(r_prev, -1, batch, order="F")
    return a.reshape(n, batch, order="F").T


def _same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.fixture(scope="module")
def wtt_block():
    return np.random.default_rng(21).standard_normal((250, 2048))


class TestBitIdenticalToReference:
    # ranks 1, 2 and 6 are the packaged grids' ranks; one signal of length
    # 64 at rank 6 clips the last two ranks through the sample count
    @pytest.mark.parametrize("rank,train_rows,n", [
        (1, 60, 2048), (2, 60, 2048), (6, 60, 2048), (6, 1, 64)])
    def test_train_forward_inverse(self, wtt_block, rank, train_rows, n):
        block = wtt_block[:, :n]
        bank = wtt.train_group_filters(block[:train_rows], rank)
        filters, ranks = _reference_train(block[:train_rows], rank)
        assert bank.ranks == tuple(ranks)
        if (train_rows, n) == (1, 64):
            assert bank.ranks[-2:] == (4, 2)
        for got, want in zip(bank.filters, filters):
            _same_bits(got, want)
        for x in (block[7], block[7:8], block[:60], block):
            flat = wtt.wtt_forward(x, bank)
            assert flat.shape == x.shape
            details, core = _reference_forward(np.atleast_2d(x), bank)
            _same_bits(np.atleast_2d(flat), np.concatenate(details + [core], axis=-1))
            shrunk = np.sign(flat) * np.maximum(np.abs(flat) - 0.5, 0.0)
            ends = np.cumsum([d.shape[-1] for d in details])
            *details, core = np.split(np.atleast_2d(shrunk), ends, axis=-1)
            want = _reference_inverse(details, core, bank)
            back = wtt.wtt_inverse(shrunk, bank)
            assert back.shape == x.shape
            _same_bits(np.atleast_2d(back), want)


def _concatenating_forward(x, bank):
    """The forward as it was before it wrote into its output: each level's
    details copied into a list, then joined with ``np.concatenate``."""
    x = np.asarray(x, dtype=float)
    n = bank.signal_length
    a = x.reshape(-1, n)
    batch = a.shape[0]
    blocks = []
    for u, r_k in zip(bank.filters, bank.ranks):
        rows = u.shape[0]
        b = (a.reshape(-1, rows) @ u).reshape(batch, -1, rows)
        blocks.append(b[..., r_k:].reshape(batch, -1))
        a = b[..., :r_k]
    blocks.append(a.reshape(batch, -1))
    return np.concatenate(blocks, axis=-1).reshape(x.shape)


class TestForwardWritesInPlace:
    # 65 rows is one past a 64-row block; the spline hands the forward
    # column-major blocks, and callers pass single signals and stacks
    @pytest.mark.parametrize("rank", [1, 2, 6])
    def test_bit_equal_to_the_concatenating_forward(self, wtt_block, rank):
        bank = wtt.train_group_filters(wtt_block[:60], rank)
        block = wtt_block[:65]
        for x in (block, np.asfortranarray(block), block[:1], np.asfortranarray(block[:1]),
                  block[3], block[:64].reshape(4, 16, 2048)):
            got = wtt.wtt_forward(x, bank)
            want = _concatenating_forward(x, bank)
            assert got.shape == x.shape and got.flags.c_contiguous
            assert np.array_equal(got, want)
            _same_bits(got, want)

    def test_a_bank_without_details_returns_the_rotated_core(self):
        # rank 2 on length 4 keeps both rows at its one level
        x = np.random.default_rng(5).standard_normal((3, 4))
        bank = wtt.train_group_filters(x, 2)
        assert bank.ranks == (2,)
        _same_bits(wtt.wtt_forward(x, bank), _concatenating_forward(x, bank))
