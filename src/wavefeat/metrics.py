"""Classification and clustering quality scores.

Every score but accuracy reads one integer contingency matrix: both label
sequences are coded by a single dict in first-appearance order (the true
sequence first, so a label's row and column share an index) and counted with
``np.bincount``.  The chance-corrected variants (adjusted Rand, adjusted
mutual information) follow the usual permutation-model expectations; pair
sums stay in exact integers, and the exact hypergeometric E[MI] is one
vectorised sum over the feasible cell values, with probabilities read from a
table of log-factorials (``scipy.special.gammaln``) and natural-log
entropies (Vinh, Epps & Bailey, JMLR 2010).
"""
from __future__ import annotations

from math import comb, sqrt

import numpy as np
from scipy.special import gammaln

from .errors import InvalidInputError


def contingency_matrix(labels_true, labels_pred) -> np.ndarray:
    """Joint label counts: entry (i, j) counts positions whose true label
    has code i and predicted label has code j."""
    if len(labels_true) != len(labels_pred):
        raise InvalidInputError("label sequences differ in length")
    if len(labels_true) == 0:
        raise InvalidInputError("empty label sequences")
    codes: dict = {}
    t = np.array([codes.setdefault(v, len(codes)) for v in labels_true])
    p = np.array([codes.setdefault(v, len(codes)) for v in labels_pred])
    k = len(codes)
    return np.bincount(t * k + p, minlength=k * k).reshape(k, k)


def accuracy(labels_true, labels_pred) -> float:
    """Fraction of positions where the two sequences agree."""
    if len(labels_true) != len(labels_pred):
        raise InvalidInputError("label sequences differ in length")
    if len(labels_true) == 0:
        raise InvalidInputError("empty label sequences")
    hits = sum(1 for t, p in zip(labels_true, labels_pred) if t == p)
    return hits / len(labels_true)


def f1_weighted(labels_true, labels_pred) -> float:
    """Per-class F1 averaged with true-class support weights.

    A class with zero precision+recall contributes F1 = 0.
    """
    table = contingency_matrix(labels_true, labels_pred)
    total = len(labels_true)
    score = 0.0
    for tp, support, pred_cnt in zip(np.diag(table).tolist(),
                                     table.sum(axis=1).tolist(),
                                     table.sum(axis=0).tolist()):
        if support == 0:  # a label that only the prediction uses
            continue
        precision = tp / pred_cnt if pred_cnt else 0.0
        recall = tp / support
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        score += f1 * (support / total)
    return score


def _same_cluster_pairs(table: np.ndarray) -> tuple[int, int, int, int]:
    """Pairs together in both labelings, together in the true labeling,
    together in the predicted labeling, and all pairs, as exact integers."""
    def pairs(counts):
        return int((counts * (counts - 1)).sum()) // 2

    n = int(table.sum())
    if n < 2:
        raise InvalidInputError("need at least 2 samples")
    return (pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0)),
            comb(n, 2))


def adjusted_rand(labels_true, labels_pred) -> float:
    """Rand index corrected for chance under fixed marginals.

    Defined as 1 when both partitions are all singletons or both are a
    single cluster (the chance correction degenerates there).
    """
    tb, tt, tp, pairs = _same_cluster_pairs(contingency_matrix(labels_true, labels_pred))
    expected = tt * tp / pairs
    max_index = 0.5 * (tt + tp)
    if max_index == expected:
        return 1.0
    return (tb - expected) / (max_index - expected)


def fowlkes_mallows(labels_true, labels_pred) -> float:
    """Geometric mean of pair-precision and pair-recall; 0 if either
    denominator factor is 0."""
    tb, tt, tp, _ = _same_cluster_pairs(contingency_matrix(labels_true, labels_pred))
    if tt == 0 or tp == 0:
        return 0.0
    return tb / sqrt(tt * tp)


def _entropy(sums: np.ndarray, n: int) -> float:
    p = sums[sums > 0] / n
    return float(-(p * np.log(p)).sum())


def mutual_info(table: np.ndarray) -> float:
    """Natural-log mutual information of a contingency matrix."""
    n = int(table.sum())
    i, j = np.nonzero(table)
    nij = table[i, j]
    outer = table.sum(axis=1)[i] * table.sum(axis=0)[j]
    return float((nij / n * np.log(n * nij / outer)).sum())


def expected_mutual_info(table: np.ndarray) -> float:
    """Exact permutation-model expectation of MI for fixed marginals.

    Sums nij/n * log(n*nij/(ai*bj)) against the hypergeometric probability
    of each feasible cell value max(1, ai+bj-n) <= nij <= min(ai, bj),
    evaluated in log-factorials.
    """
    n = int(table.sum())
    log_fact = gammaln(np.arange(1, n + 2))  # log_fact[k] = log(k!)
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    a, b = a[a > 0][:, None, None], b[b > 0][None, :, None]
    nij = np.arange(1, int(min(a.max(), b.max())) + 1)[None, None, :]
    feasible = (nij >= a + b - n) & (nij <= np.minimum(a, b))
    a, b, nij = (v[feasible] for v in np.broadcast_arrays(a, b, nij))
    log_p = ((log_fact[a] + log_fact[b] + log_fact[n - a] + log_fact[n - b]
              - log_fact[n])
             - (log_fact[nij] + log_fact[a - nij] + log_fact[b - nij]
                + log_fact[n - a - b + nij]))
    return float((nij / n * np.log(n * nij / (a * b)) * np.exp(log_p)).sum())


def adjusted_mutual_info(labels_true, labels_pred) -> float:
    """Mutual information corrected for chance, normalized by the mean
    entropy.  Degenerate denominator: 1 for identical partitions, else 0."""
    table = contingency_matrix(labels_true, labels_pred)
    n = len(labels_true)
    if n < 2:
        raise InvalidInputError("need at least 2 samples")
    emi = expected_mutual_info(table)
    rows, cols = table.sum(axis=1), table.sum(axis=0)
    denom = 0.5 * (_entropy(rows, n) + _entropy(cols, n)) - emi
    if abs(denom) < 1e-15:
        # identical as partitions: every row and column hits exactly one cell
        same = np.count_nonzero(table) == np.count_nonzero(rows) == np.count_nonzero(cols)
        return 1.0 if same else 0.0
    return (mutual_info(table) - emi) / denom
