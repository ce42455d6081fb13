"""Tests for the adaptive SVD filter bank."""
import os

import numpy as np
import pytest

from wavefeat import wtt
from wavefeat.errors import InvalidInputError


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
        for det in c.details:
            assert np.max(np.abs(det)) <= 1e-12
        assert np.allclose(np.abs(c.core), [2 * c0, 2 * c0])
        # norm sqrt(8) * c preserved
        assert abs(np.linalg.norm(c.core) - np.sqrt(8) * c0) <= 1e-12

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
            assert abs(np.linalg.norm(wtt.flatten_wtt(c)) - np.linalg.norm(x)) <= 1e-10

    def test_zero_coefficients(self):
        rng = np.random.default_rng(8)
        bank = wtt.train_group_filters(rng.standard_normal(32)[None], 2)
        c = wtt.wtt_forward(np.zeros(32), bank)
        assert np.max(np.abs(wtt.wtt_inverse(c, bank))) == 0.0

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(9)
        bank = wtt.train_group_filters(rng.standard_normal(32)[None], 2)
        x, y = rng.standard_normal((2, 32))
        fx = wtt.flatten_wtt(wtt.wtt_forward(x, bank))
        fy = wtt.flatten_wtt(wtt.wtt_forward(y, bank))
        fxy = wtt.flatten_wtt(wtt.wtt_forward(2 * x - y, bank))
        assert np.max(np.abs(fxy - (2 * fx - fy))) <= 1e-10

    def test_dimension_bookkeeping(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(64)
        for rank in range(1, 9):
            bank = wtt.train_group_filters(x[None], rank)
            c = wtt.wtt_forward(x, bank)
            assert c.total_length == 64

    def test_adaptivity_rank1_detail_minimal(self):
        # the trained level-1 filter drops the least possible energy among
        # all orthogonal 2x2 choices
        rng = np.random.default_rng(11)
        x = rng.standard_normal(64)
        bank = wtt.train_group_filters(x[None], 1)
        trained = np.linalg.norm(wtt.wtt_forward(x, bank).details[0])
        pairs = x.reshape(2, -1, order="F")
        for theta in np.linspace(0, np.pi, 181):
            q = np.array([[np.cos(theta), -np.sin(theta)],
                          [np.sin(theta), np.cos(theta)]])
            dropped = np.linalg.norm((q.T @ pairs)[1])
            assert trained <= dropped + 1e-9

    def test_mismatched_blocks_rejected(self):
        rng = np.random.default_rng(12)
        bank = wtt.train_group_filters(rng.standard_normal(32)[None], 2)
        c = wtt.wtt_forward(rng.standard_normal(32), bank)
        assert c.details[-1].size > 0
        c.details[-1] = c.details[-1][:-1]
        with pytest.raises(InvalidInputError):
            wtt.wtt_inverse(c, bank)


class TestFlatten:
    def test_layout_and_length(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(64)
        bank = wtt.train_group_filters(x[None], 2)
        c = wtt.wtt_forward(x, bank)
        flat = wtt.flatten_wtt(c)
        assert flat.shape == (64,)
        sizes = c.block_sizes()
        assert np.array_equal(flat[:sizes[0]], c.details[0])
        assert np.array_equal(flat[-sizes[-1]:], c.core)

    def test_unflatten_round_trip(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(128)
        bank = wtt.train_group_filters(x[None], 3)
        c = wtt.wtt_forward(x, bank)
        c2 = wtt.unflatten_wtt(wtt.flatten_wtt(c), bank)
        assert np.max(np.abs(wtt.wtt_inverse(c2, bank) - x)) <= 1e-10

    def test_batch_flatten(self):
        rng = np.random.default_rng(15)
        xs = rng.standard_normal((5, 64))
        bank = wtt.train_group_filters(xs, 2)
        flat = wtt.flatten_wtt(wtt.wtt_forward(xs, bank))
        assert flat.shape == (5, 64)
        single = wtt.flatten_wtt(wtt.wtt_forward(xs[2], bank))
        assert np.allclose(flat[2], single, atol=1e-12)


class TestSerialization:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        bank = wtt.train_group_filters(rng.standard_normal((6, 128)), 4)
        path = os.path.join(tmp_path, "bank.npz")
        wtt.save_bank(path, bank)
        loaded = wtt.load_bank(path)
        assert loaded.ranks == bank.ranks
        assert loaded.signal_length == bank.signal_length
        assert loaded.requested_rank == bank.requested_rank
        for a, b in zip(loaded.filters, bank.filters):
            assert a.tobytes() == b.tobytes()

    def test_reject_other_files(self, tmp_path):
        path = os.path.join(tmp_path, "other.npz")
        np.savez(path, header=np.array("{}"))
        with pytest.raises(InvalidInputError):
            wtt.load_bank(path)
