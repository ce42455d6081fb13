"""Non-linear feature maps applied on top of an invertible linear transform.

The transform ``W`` is anything exposing ``forward`` (signal -> flat
coefficient vector) and ``inverse`` (flat vector -> signal); wrappers for the
wavelet filter bank and the adaptive SVD bank live here.  On top of that the
module provides hard/soft thresholding, sign quantization of thresholded
coefficients, and contrasting (removing the soft-thresholded reconstruction
from the signal to emphasize what the threshold would discard).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dwt, wtt
from .errors import InvalidConfigError, InvalidInputError

THRESHOLD_KINDS = ("hard", "soft")


@dataclass(frozen=True)
class ThresholdRule:
    kind: str
    tau: float

    def __post_init__(self):
        if self.kind not in THRESHOLD_KINDS:
            raise InvalidInputError(f"threshold kind must be one of {THRESHOLD_KINDS}")
        if self.tau < 0:
            raise InvalidInputError("tau must be non-negative")


def threshold(v: np.ndarray, rule: ThresholdRule) -> np.ndarray:
    """Element-wise hard or soft thresholding.

    hard keeps entries with |c| strictly greater than tau; soft shrinks every
    entry toward zero by tau.
    """
    v = np.asarray(v, dtype=float)
    if rule.kind == "hard":
        return np.where(np.abs(v) > rule.tau, v, 0.0)
    return np.sign(v) * np.maximum(np.abs(v) - rule.tau, 0.0)


def sign_quantize(v: np.ndarray, tau: float) -> np.ndarray:
    """Sign of the hard-thresholded entries; values land in {-1, 0, +1}."""
    if tau < 0:
        raise InvalidInputError("tau must be non-negative")
    return np.sign(threshold(v, ThresholdRule("hard", tau)))


class DwtTransform:
    """Multilevel wavelet transform pinned to one signal length.

    Fixing the length makes the flattened coefficient layout a well-defined
    invertible linear map.
    """

    def __init__(self, wavelet: dwt.WaveletSpec, mode: str, level: int | None,
                 signal_length: int):
        lmax = dwt.max_level(signal_length, wavelet)
        if lmax < 1:
            raise InvalidConfigError(
                f"signal length {signal_length} too short for {wavelet.name}")
        if level is None:
            level = lmax
        if not 1 <= level <= lmax:
            raise InvalidConfigError(
                f"level {level} out of range 1..{lmax} for length {signal_length}")
        self.wavelet = wavelet
        self.mode = mode
        self.level = level
        self.signal_length = signal_length
        self._template = dwt.wavedec(
            np.zeros(signal_length), wavelet, mode, level)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.signal_length:
            raise InvalidInputError(
                f"expected length {self.signal_length}, got {x.shape[-1]}")
        return dwt.flatten(dwt.wavedec(x, self.wavelet, self.mode, self.level))

    def inverse(self, vec: np.ndarray) -> np.ndarray:
        return dwt.waverec(dwt.unflatten(vec, self._template))


class WttTransform:
    """Trained adaptive filter bank as an invertible linear map."""

    def __init__(self, bank: wtt.WttFilterBank):
        self.bank = bank
        self.signal_length = bank.signal_length

    def forward(self, x: np.ndarray) -> np.ndarray:
        return wtt.flatten_wtt(wtt.wtt_forward(x, self.bank))

    def inverse(self, vec: np.ndarray) -> np.ndarray:
        return wtt.wtt_inverse(wtt.unflatten_wtt(vec, self.bank), self.bank)


def contrast(x: np.ndarray, transform, tau: float,
             coeffs: np.ndarray | None = None) -> np.ndarray:
    """Remove the soft-thresholded reconstruction from the signal.

    The residual's coefficients under the same transform are exactly the
    part the soft threshold clipped, so every entry of W(result) lies in
    [-tau, tau].  ``coeffs``, when given, is ``transform.forward(x)``.
    """
    if tau < 0:
        raise InvalidInputError("tau must be non-negative")
    if coeffs is None:
        coeffs = transform.forward(x)
    kept = threshold(coeffs, ThresholdRule("soft", tau))
    return np.asarray(x, dtype=float) - transform.inverse(kept)


@dataclass(frozen=True)
class FeatureMap:
    """A fitted coefficient-space feature extractor.

    kind:
      identity  - features are the (preprocessed) signal itself
      coeffs    - flattened transform coefficients, optionally thresholded
      sign      - sign-quantized hard-thresholded coefficients
      contrast  - signal minus the soft-threshold reconstruction
    """

    kind: str
    transform: object | None = None
    rule: ThresholdRule | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "coeffs", "sign", "contrast"):
            raise InvalidConfigError(f"unknown feature map kind {self.kind!r}")
        if self.kind == "identity":
            if self.transform is not None or self.rule is not None:
                raise InvalidConfigError("identity map takes no transform or rule")
        else:
            if self.transform is None:
                raise InvalidConfigError(f"{self.kind} map requires a transform")
        if self.kind == "sign" and (self.rule is None or self.rule.kind != "hard"):
            raise InvalidConfigError("sign quantization uses a hard threshold")
        if self.kind == "contrast" and (self.rule is None or self.rule.kind != "soft"):
            raise InvalidConfigError("contrasting uses a soft threshold")


def extract_features(x: np.ndarray, fm: FeatureMap,
                     coeffs: np.ndarray | None = None) -> np.ndarray:
    """Apply a fitted feature map to one signal (or a batch on axis 0).

    ``coeffs``, when given, is ``fm.transform.forward(x)``, computed once by
    a caller that needs it too.
    """
    x = np.asarray(x, dtype=float)
    if fm.kind == "identity":
        return x
    if coeffs is None:
        coeffs = fm.transform.forward(x)
    if fm.kind == "coeffs":
        return threshold(coeffs, fm.rule) if fm.rule is not None else coeffs
    if fm.kind == "sign":
        return sign_quantize(coeffs, fm.rule.tau)
    return contrast(x, fm.transform, fm.rule.tau, coeffs)
