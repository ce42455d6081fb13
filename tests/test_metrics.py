"""Tests for classification and clustering scores."""
from fractions import Fraction
from itertools import combinations
from math import comb, log, sqrt

import numpy as np
import pytest

from wavefeat.errors import InvalidInputError
from wavefeat.metrics import (accuracy, adjusted_mutual_info, adjusted_rand,
                              contingency_matrix, expected_mutual_info,
                              f1_weighted, fowlkes_mallows, mutual_info)


class TestAccuracy:
    def test_examples(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
        assert accuracy([1, 1], [2, 2]) == 0.0
        assert accuracy([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75

    def test_errors(self):
        with pytest.raises(InvalidInputError):
            accuracy([], [])
        with pytest.raises(InvalidInputError):
            accuracy([1], [1, 2])


class TestF1Weighted:
    def test_identical(self):
        assert f1_weighted(["a", "b", "a"], ["a", "b", "a"]) == 1.0

    def test_absent_class_zero_f1(self):
        # class 1 never predicted: its F1 term is 0
        val = f1_weighted([0, 1], [0, 0])
        assert val == pytest.approx(0.5 * (2 / 3) + 0.0)

    def test_hand_computed(self):
        assert f1_weighted([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(
            0.5 * (2 / 3) + 0.5 * 0.8)

    def test_accuracy_equals_weighted_recall(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 3, 30).tolist()
        p = rng.integers(0, 3, 30).tolist()
        table = contingency_matrix(t, p)
        recall = sum((table[c, c] / n) * (n / table.sum())
                     for c, n in enumerate(table.sum(axis=1)) if n)
        assert accuracy(t, p) == pytest.approx(recall)


def _pair_counts(t, p):
    """Brute-force pair enumeration."""
    tp = fp = fn = 0
    for i, j in combinations(range(len(t)), 2):
        same_t = t[i] == t[j]
        same_p = p[i] == p[j]
        tp += same_t and same_p
        fp += (not same_t) and same_p
        fn += same_t and not same_p
    return tp, fp, fn


def _ari_oracle(t, p):
    tp, fp, fn = _pair_counts(t, p)
    together_true = tp + fn
    together_pred = tp + fp
    pairs = comb(len(t), 2)
    expected = together_true * together_pred / pairs
    max_index = 0.5 * (together_true + together_pred)
    if max_index == expected:
        return 1.0
    return (tp - expected) / (max_index - expected)


def _fm_oracle(t, p):
    tp, fp, fn = _pair_counts(t, p)
    if tp + fp == 0 or tp + fn == 0:
        return 0.0
    return tp / sqrt((tp + fp) * (tp + fn))


class TestAdjustedRand:
    def test_identical(self):
        assert adjusted_rand([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_vs_single_cluster(self):
        assert adjusted_rand([0, 0, 1, 1], [0, 0, 0, 0]) == pytest.approx(0.0)

    def test_hand_example(self):
        assert adjusted_rand([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(0.0)

    def test_degenerate_conventions(self):
        assert adjusted_rand([0, 1, 2], [5, 6, 7]) == 1.0  # both singletons
        assert adjusted_rand([0, 0, 0], [1, 1, 1]) == 1.0  # both one cluster

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(1)
        t = rng.integers(0, 3, 40).tolist()
        p = rng.integers(0, 4, 40).tolist()
        t2 = [{0: "x", 1: "y", 2: "z"}[v] for v in t]
        p2 = [100 - v for v in p]
        assert adjusted_rand(t, p) == pytest.approx(adjusted_rand(t2, p2))
        assert adjusted_rand(t, p) == pytest.approx(adjusted_rand(p, t))


class TestFowlkesMallows:
    def test_identical(self):
        assert fowlkes_mallows([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_hand_example(self):
        assert fowlkes_mallows([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(1 / sqrt(6))

    def test_all_singleton_pred(self):
        assert fowlkes_mallows([0, 0, 1, 1], [0, 1, 2, 3]) == 0.0


def _partitions(n):
    """All set partitions of range(n) as label lists."""
    if n == 0:
        yield []
        return
    for rest in _partitions(n - 1):
        k = max(rest) + 1 if rest else 0
        for c in range(k + 1):
            yield rest + [c]


class TestExhaustiveSmall:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_all_partition_pairs(self, n):
        parts = list(_partitions(n))
        for t in parts:
            for p in parts:
                assert adjusted_rand(t, p) == pytest.approx(_ari_oracle(t, p), abs=1e-12)
                assert fowlkes_mallows(t, p) == pytest.approx(_fm_oracle(t, p), abs=1e-12)


def _emi_fraction_oracle(t, p):
    table = contingency_matrix(t, p)
    n = int(table.sum())
    total = 0.0
    for ai in (int(v) for v in table.sum(axis=1) if v):
        for bj in (int(v) for v in table.sum(axis=0) if v):
            for nij in range(max(1, ai + bj - n), min(ai, bj) + 1):
                prob = Fraction(comb(bj, nij) * comb(n - bj, ai - nij), comb(n, ai))
                total += (nij / n) * log(n * nij / (ai * bj)) * float(prob)
    return total


class TestAdjustedMutualInfo:
    def test_identical(self):
        assert adjusted_mutual_info([0, 0, 1, 1], [0, 0, 1, 1]) == pytest.approx(1.0)

    def test_hand_example_cross_checked(self):
        t, p = [0, 0, 1, 1], [0, 1, 1, 1]
        table = contingency_matrix(t, p)
        emi = expected_mutual_info(table)
        assert emi == pytest.approx(_emi_fraction_oracle(t, p), abs=1e-12)
        mi = mutual_info(table)
        h_u = -sum(v / 4 * log(v / 4) for v in (2, 2))
        h_v = -sum(v / 4 * log(v / 4) for v in (1, 3))
        expect = (mi - emi) / (0.5 * (h_u + h_v) - emi)
        assert adjusted_mutual_info(t, p) == pytest.approx(expect)

    def test_hypergeometric_oracle_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(5, 40))
            t = rng.integers(0, 4, n).tolist()
            p = rng.integers(0, 5, n).tolist()
            table = contingency_matrix(t, p)
            assert expected_mutual_info(table) == pytest.approx(
                _emi_fraction_oracle(t, p), abs=1e-12)

    def test_chance_level(self):
        vals = []
        for s in range(50):
            rng = np.random.default_rng(100 + s)
            t = rng.integers(0, 4, 200).tolist()
            p = rng.integers(0, 4, 200).tolist()
            vals.append(adjusted_mutual_info(t, p))
        assert abs(float(np.mean(vals))) <= 0.05

    def test_degenerate_denominator(self):
        assert adjusted_mutual_info([0, 0, 0], [1, 1, 1]) == 1.0
        assert adjusted_mutual_info([0, 1, 2], [7, 8, 9]) == 1.0

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        t = rng.integers(0, 3, 30).tolist()
        p = rng.integers(0, 3, 30).tolist()
        assert adjusted_mutual_info(t, p) == pytest.approx(adjusted_mutual_info(p, t))


class TestContingencyTable:
    def test_marginals(self):
        # labels 0 and 1 share codes 0 and 1 in both sequences
        table = contingency_matrix([0, 0, 1], [1, 1, 1])
        assert table.sum() == 3
        assert table.sum(axis=1).tolist() == [2, 1]
        assert table.sum(axis=0).tolist() == [0, 3]
        assert table.tolist() == [[0, 2], [0, 1]]

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            contingency_matrix([0, 1], [0])
