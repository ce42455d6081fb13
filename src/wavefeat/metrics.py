"""Classification and clustering quality scores.

Every score but accuracy reads one integer contingency matrix: both label
sequences are coded by a single dict in first-appearance order (the true
sequence first, so a label's row and column share an index) and counted with
``np.bincount``.  The chance-corrected variants (adjusted Rand, adjusted
mutual information) follow the usual permutation-model expectations; pair
sums stay in exact integers, and the exact hypergeometric E[MI] is one
vectorised sum over the feasible cell values, with probabilities read from a
table of log-factorials and natural-log entropies (Vinh, Epps & Bailey, JMLR
2010).  The table is cached per sample count and built by the operations of
cephes ``lgam`` at integer arguments with ``math.log``, so it holds the bits
of ``scipy.special.gammaln`` without importing scipy.  ``math.lgamma`` and
``np.log`` both differ from it in the last bit of some entries.
"""
from __future__ import annotations

import math
from functools import lru_cache
from math import comb, sqrt

import numpy as np

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


# cephes ``lgam``: Stirling-series coefficients, highest power first, and
# log(sqrt(2 pi))
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
_LS2PI = 0.91893853320467274178


def _log_factorial(k: int) -> float:
    """log(k!) = log Gamma(x) at x = k + 1, by the operations of cephes
    ``lgam`` (scipy's ``gammaln``).  Below x = 13 it is the log of the
    product k!, which is exact in a double there; above, the Stirling series.
    From x = 1000 cephes sums a shorter series, and past 1e8 none; both give
    the same doubles as this one for every k up to 200,000."""
    x = k + 1.0
    if x < 13.0:
        return math.log(float(math.factorial(k)))
    p = 1.0 / (x * x)
    a0, a1, a2, a3, a4 = _LGAM_A
    return ((x - 0.5) * math.log(x) - x + _LS2PI
            + ((((a0 * p + a1) * p + a2) * p + a3) * p + a4) / x)


@lru_cache(maxsize=8)
def _log_factorials(n: int) -> np.ndarray:
    """log(k!) for k = 0..n, read-only."""
    table = np.array([_log_factorial(k) for k in range(n + 1)])
    table.flags.writeable = False
    return table


def expected_mutual_info(table: np.ndarray) -> float:
    """Exact permutation-model expectation of MI for fixed marginals.

    Sums nij/n * log(n*nij/(ai*bj)) against the hypergeometric probability
    of each feasible cell value max(1, ai+bj-n) <= nij <= min(ai, bj),
    evaluated in log-factorials.
    """
    n = int(table.sum())
    log_fact = _log_factorials(n)
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
