"""Orthonormal two-channel wavelet filter banks: registry and multilevel
transform in periodization.

Convention (fixed once, validated by the round-trip and energy tests): a
signal of odd length is first made even by repeating its last sample.
Analysis filters the even-length signal circularly,
``v[t] = sum_j f[j] x[(t - j) mod n]``, and keeps the odd phase,
``c[k] = v[2k+1]``, so each branch stores ``ceil(n/2)`` coefficients.
Synthesis upsamples by two, convolves circularly with the reconstruction
pair and sums the branches.  Every registered wavelet is orthogonal, so on a
power-of-two length the multilevel transform is an orthonormal map, and the
table stores only its ``dec_lo``: ``lookup_wavelet`` derives the other three.

All transforms operate along the last axis, so a whole (n_samples, n_points)
block can be decomposed in one call.  A multilevel transform is one flat
array: the approximation, then the details coarsest first.  The signal
length fixes every block's length, so the inverse takes the flat array and
needs no other bookkeeping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._wavelet_tables import FILTERS
from .errors import InvalidInputError, UnsupportedWaveletError

FAMILIES = {
    "daubechies": "db",
    "symlet": "sym",
    "coiflet": "coif",
}

# one table entry per wavelet, "db4" etc.: the generator names the orders
SUPPORTED_ORDERS = {family: tuple(name[len(prefix):] for name in FILTERS
                                  if name.rstrip("0123456789") == prefix)
                    for family, prefix in FAMILIES.items()}


@dataclass(frozen=True)
class WaveletSpec:
    """Decomposition/reconstruction filter quadruple for one wavelet."""

    family: str
    order: str
    dec_lo: np.ndarray
    dec_hi: np.ndarray
    rec_lo: np.ndarray
    rec_hi: np.ndarray

    @property
    def name(self) -> str:
        return f"{FAMILIES[self.family]}{self.order}"

    @property
    def filter_length(self) -> int:
        return self.dec_lo.size


def _normalize_order(order) -> str:
    # is_integer, not int(order), which raises on inf and NaN: those orders
    # are looked up as "inf" and "nan" and rejected like any other
    if isinstance(order, float) and order.is_integer():
        return str(int(order))
    return str(order)


def lookup_wavelet(family: str, order) -> WaveletSpec:
    """The filters of (family, order): the table's ``dec_lo``, and the three
    that orthogonality makes its exact reversals and sign flips."""
    if family not in FAMILIES:
        raise UnsupportedWaveletError(
            f"unknown family {family!r}; supported: {sorted(FAMILIES)}")
    order_s = _normalize_order(order)
    if order_s not in SUPPORTED_ORDERS[family]:
        raise UnsupportedWaveletError(
            f"unsupported order {order!r} for {family}; "
            f"supported: {SUPPORTED_ORDERS[family]}")
    dec_lo = np.array(FILTERS[f"{FAMILIES[family]}{order_s}"])
    rec_lo = dec_lo[::-1].copy()
    dec_hi = np.where(np.arange(rec_lo.size) % 2 == 1, 1.0, -1.0) * rec_lo
    return WaveletSpec(family, order_s, dec_lo, dec_hi, rec_lo, dec_hi[::-1].copy())


def iter_registry():
    for family, orders in SUPPORTED_ORDERS.items():
        for order in orders:
            yield lookup_wavelet(family, order)


def dump_registry() -> str:
    """Delimited table of every embedded filter (for auditing)."""
    lines = ["family\torder\tfilter\ttaps"]
    for w in iter_registry():
        for role in ("dec_lo", "dec_hi", "rec_lo", "rec_hi"):
            taps = ",".join(repr(float(v)) for v in getattr(w, role))
            lines.append(f"{w.family}\t{w.order}\t{role}\t{taps}")
    return "\n".join(lines) + "\n"


def dwt_single(x: np.ndarray, w: WaveletSpec) -> tuple[np.ndarray, np.ndarray]:
    """One analysis step: filter + downsample along the last axis.

    The even-length signal is wrapped by L samples on the left, and output i
    reads window ``2i + 2`` of a strided window view, reversed, which holds
    ``x[(2i + 1 - j) mod n]`` at tap j; no block is copied beyond its wrap.
    Every row is summed tap by tap in the same order, so a signal's
    coefficients do not depend on its block.
    """
    x = np.asarray(x, dtype=float)
    L = w.filter_length
    n = x.shape[-1]
    if n < L:
        raise InvalidInputError(f"signal length {n} shorter than filter length {L}")
    if n % 2 == 1:
        x = np.concatenate([x, x[..., -1:]], axis=-1)
    ext = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(L, 0)], mode="wrap")
    win = np.lib.stride_tricks.sliding_window_view(ext, L, axis=-1)[..., 2::2, ::-1]
    return win @ w.dec_lo, win @ w.dec_hi


def idwt_single(approx: np.ndarray, detail: np.ndarray, w: WaveletSpec,
                out_length: int) -> np.ndarray:
    """One synthesis step, trimming to the stored input length.

    Tap j adds ``a[i] * rec_lo[j] + d[i] * rec_hi[j]`` to output sample
    ``(2i + 2 - L + j) mod n``: one parity class, rotated, which two slice
    adds cover, so each sample sums its taps in increasing j.  Every tap's
    products are formed in the same two buffers, allocated once per call.
    """
    a = np.asarray(approx, dtype=float)
    d = np.asarray(detail, dtype=float)
    if a.shape != d.shape:
        raise InvalidInputError("approx/detail shapes differ")
    L = w.filter_length
    k = a.shape[-1]
    ne = 2 * k
    if not out_length <= ne:
        raise InvalidInputError("inconsistent bookkeeping lengths")
    v_lo, v_hi = np.empty(a.shape), np.empty(a.shape)
    out = np.zeros(a.shape[:-1] + (ne,))
    for j in range(L):
        shift = (2 - L + j) % ne
        half = out[..., shift % 2::2]
        rot = shift // 2
        v = np.multiply(a, w.rec_lo[j], out=v_lo)
        v += np.multiply(d, w.rec_hi[j], out=v_hi)
        half[..., rot:] += v[..., :k - rot]
        half[..., :rot] += v[..., k - rot:]
    return out[..., :out_length]


def max_level(n: int, w: WaveletSpec) -> int:
    """Deepest usable decomposition level for a length-n signal."""
    denom = w.filter_length - 1
    if n < w.filter_length:
        return 0
    return int(math.floor(math.log2(n / denom)))


def _check_level(n: int, w: WaveletSpec, level: int) -> None:
    lmax = max_level(n, w)
    if lmax < 1:
        raise InvalidInputError(f"signal length {n} too short for filter {w.name}")
    if level < 1 or level > lmax:
        raise InvalidInputError(
            f"level {level} out of range 1..{lmax} for n={n}, filter {w.name}")


def wavedec(x: np.ndarray, w: WaveletSpec, level: int) -> np.ndarray:
    """Recursive analysis of the approximation branch down to ``level``.

    Returns the flat coefficient array along the last axis: the
    approximation, then the details coarsest first.
    """
    x = np.asarray(x, dtype=float)
    _check_level(x.shape[-1], w, level)
    details = []
    cur = x
    for _ in range(level):
        cur, det = dwt_single(cur, w)
        details.append(det)
    return np.concatenate([cur] + details[::-1], axis=-1)


def waverec(vec: np.ndarray, w: WaveletSpec, level: int, n: int) -> np.ndarray:
    """Invert :func:`wavedec` of a length-n signal, restoring n samples.

    Each analysis step maps length k to ``ceil(k/2)``, so n gives every
    block's length.
    """
    vec = np.asarray(vec, dtype=float)
    _check_level(n, w, level)
    lengths = [n]  # the input length of each analysis step, finest first
    for _ in range(level):
        lengths.append((lengths[-1] + 1) // 2)
    if vec.shape[-1] != lengths[-1] + sum(lengths[1:]):
        raise InvalidInputError(
            f"flat length {vec.shape[-1]} does not match level-{level} "
            f"blocks of a length-{n} signal")
    start = lengths[-1]
    cur = vec[..., :start]
    for k, out_len in zip(lengths[:0:-1], lengths[-2::-1]):
        cur = idwt_single(cur, vec[..., start:start + k], w, out_len)
        start += k
    return cur
