"""Non-linear feature maps on the coefficients of a decomposition.

A decomposition's coefficients are the flat array that ``dwt.wavedec`` or
``wtt.wtt_forward`` returns for a signal, or for a block of signals along
the last axis.  On them the module provides the kinds of the config's
transform: hard/soft thresholding, sign quantization of hard-thresholded
coefficients, and contrasting (clipping the coefficients to the part a soft
threshold would discard).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

THRESHOLD_KINDS = ("hard", "soft")


def magnitude_quantile(c: np.ndarray, q: float) -> float:
    """``np.quantile(np.abs(c), q)`` bit for bit, by one selection.

    The magnitudes are taken once into a fresh flat array and partitioned
    in place at k = floor((n - 1) q).  The k-th value and the least value
    above it are the two order statistics ``np.quantile`` interpolates
    between ("linear" method), and its arithmetic follows: with
    g = (n - 1) q - k, lo + (hi - lo) g, or hi - (hi - lo)(1 - g) when
    g >= 0.5.  A NaN sorts last, so any NaN makes the result NaN.
    """
    mags = np.abs(c).ravel(order="K")
    n = mags.size
    index = (n - 1) * q
    k = math.floor(index)
    mags.partition(k)
    lo = float(mags[k])
    hi = float(mags[k + 1:].min()) if k + 1 < n else lo
    if math.isnan(hi):
        return math.nan
    gamma = index - k
    if gamma >= 0.5:
        return hi - (hi - lo) * (1 - gamma)
    return lo + (hi - lo) * gamma


def threshold(v: np.ndarray, kind: str, tau: float) -> np.ndarray:
    """Element-wise hard or soft thresholding.

    hard keeps entries with |c| strictly greater than tau; soft shrinks every
    entry toward zero by tau: sign(c) * max(|c| - tau, 0), built in one
    buffer.  An unknown kind or a negative tau raises InvalidInputError.
    """
    if kind not in THRESHOLD_KINDS:
        raise InvalidInputError(f"threshold kind must be one of {THRESHOLD_KINDS}")
    if tau < 0:
        raise InvalidInputError("tau must be non-negative")
    v = np.asarray(v, dtype=float)
    if kind == "hard":
        return np.where(np.abs(v) > tau, v, 0.0)
    out = np.abs(v)
    out -= tau
    np.maximum(out, 0.0, out=out)
    return np.multiply(np.sign(v), out, out=out)


def sign_quantize(v: np.ndarray, tau: float) -> np.ndarray:
    """Sign of the hard-thresholded entries; values land in {-1, 0, +1}."""
    return np.sign(threshold(v, "hard", tau))


def contrast(c: np.ndarray, tau: float) -> np.ndarray:
    """The coefficients clipped to [-tau, tau]: the part of each that a soft
    threshold at tau removes, c - soft(c, tau).

    Contrast is defined on the coefficients for every transform.  Every
    decomposition is an orthonormal W (a WTT bank, or a DWT of the
    power-of-two resample), so clip(Wx) has the pairwise distances and inner
    products of the signal-domain residual x - W^T soft(Wx, tau).  A
    negative tau raises InvalidInputError, as in ``threshold``.
    """
    if tau < 0:
        raise InvalidInputError("tau must be non-negative")
    return np.clip(c, -tau, tau)


@dataclass(frozen=True)
class FeatureMap:
    """A fitted feature extractor: a kind of the config's transform (none,
    threshold, sign or contrast) on the coefficients of the decomposition;
    without a decomposition the kind is none and the features are the signal
    itself.  ``threshold_kind`` (hard or soft) is read by kind threshold,
    and ``tau`` by every kind but none."""

    kind: str
    threshold_kind: str | None = None
    tau: float | None = None


def extract_features(c: np.ndarray, fm: FeatureMap) -> np.ndarray:
    """Apply a fitted feature map to the coefficients of one signal (or a
    batch on axis 0), or to the signal when there is no decomposition."""
    if fm.kind == "none":
        return c
    if fm.kind == "threshold":
        return threshold(c, fm.threshold_kind, fm.tau)
    if fm.kind == "sign":
        return sign_quantize(c, fm.tau)
    return contrast(c, fm.tau)
