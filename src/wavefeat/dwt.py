"""Two-channel wavelet filter banks: registry, padding, multilevel transform.

Convention (fixed once, validated by the round-trip and energy tests):
analysis filters the border-extended signal by plain convolution
``v[t] = sum_j f[j] x[t - j]`` and keeps the odd phase, ``c[k] = v[2k+1]``;
synthesis upsamples by two, convolves with the reconstruction pair, sums the
branches, and drops ``len(filter) - 2`` leading samples.  The ``periodization``
mode replaces border extension with circular indexing and stores exactly
``ceil(n/2)`` coefficients per branch.

All transforms operate along the last axis, so a whole (n_samples, n_points)
block can be decomposed in one call.  A multilevel transform is one flat
array: the approximation, then the details coarsest first.  The signal
length, the filter length and the mode fix every block's length, so the
inverse takes the flat array and needs no other bookkeeping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._wavelet_tables import FILTERS
from .errors import InvalidInputError, UnsupportedWaveletError

PADDING_MODES = ("zero", "constant", "symmetric", "reflect", "periodic",
                 "smooth", "periodization")

FAMILIES = {
    "daubechies": "db",
    "symlet": "sym",
    "coiflet": "coif",
    "biorthogonal": "bior",
    "reverse_biorthogonal": "rbio",
}

SUPPORTED_ORDERS = {
    "daubechies": tuple(str(i) for i in range(1, 9)),
    "symlet": tuple(str(i) for i in range(2, 9)),
    "coiflet": tuple(str(i) for i in range(1, 6)),
    "biorthogonal": ("1.1", "1.3", "1.5", "2.2", "2.4", "2.6", "2.8",
                     "3.1", "3.3", "3.5", "3.7"),
    "reverse_biorthogonal": ("1.1", "1.3", "1.5", "2.2", "2.4", "2.6", "2.8",
                             "3.1", "3.3", "3.5", "3.7"),
}


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
    """Fetch the embedded filter quadruple for (family, order)."""
    if family not in FAMILIES:
        raise UnsupportedWaveletError(
            f"unknown family {family!r}; supported: {sorted(FAMILIES)}")
    order_s = _normalize_order(order)
    if order_s not in SUPPORTED_ORDERS[family]:
        raise UnsupportedWaveletError(
            f"unsupported order {order!r} for {family}; "
            f"supported: {SUPPORTED_ORDERS[family]}")
    key = f"{FAMILIES[family]}{order_s}"
    dec_lo, dec_hi, rec_lo, rec_hi = (np.asarray(f, dtype=float) for f in FILTERS[key])
    return WaveletSpec(family, order_s, dec_lo, dec_hi, rec_lo, rec_hi)


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


def pad(x: np.ndarray, mode: str, left: int, right: int) -> np.ndarray:
    """Extend a signal (last axis) by the named boundary rule."""
    if mode not in PADDING_MODES:
        raise InvalidInputError(f"unknown padding mode {mode!r}")
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if left < 0 or right < 0:
        raise InvalidInputError("pad lengths must be non-negative")
    if mode in ("periodization", "periodic", "symmetric", "reflect"):
        if max(left, right) > n:
            raise InvalidInputError(
                f"pad length {max(left, right)} exceeds signal length {n} for mode {mode!r}")
    width = [(0, 0)] * (x.ndim - 1) + [(left, right)]
    if mode == "zero":
        return np.pad(x, width, mode="constant")
    if mode == "constant":
        return np.pad(x, width, mode="edge")
    if mode == "symmetric":
        return np.pad(x, width, mode="symmetric")
    if mode == "reflect":
        return np.pad(x, width, mode="reflect")
    if mode == "periodic":
        return np.pad(x, width, mode="wrap")
    if mode == "smooth":
        out = np.pad(x, width, mode="constant")
        lslope = x[..., 0] - x[..., 1]
        rslope = x[..., -1] - x[..., -2]
        if left:
            steps = np.arange(left, 0, -1)
            out[..., :left] = x[..., :1] + lslope[..., None] * steps
        if right:
            steps = np.arange(1, right + 1)
            out[..., -right:] = x[..., -1:] + rslope[..., None] * steps
        return out
    # periodization: extend to even length by edge repeat, then wrap
    if n % 2 == 1:
        x = np.concatenate([x, x[..., -1:]], axis=-1)
    return np.pad(x, width, mode="wrap")


def dwt_single(x: np.ndarray, w: WaveletSpec, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """One analysis step: filter + downsample along the last axis.

    Both modes read the taps of each kept output sample through a strided
    window view, so no block is copied beyond its padding.  For
    ``periodization`` the even-length signal is wrapped by L samples on the
    left, and output i reads window ``2i + 2`` reversed, which holds
    ``x[(2i + 1 - j) mod n]`` at tap j.  Other modes keep the odd windows
    of the border-extended signal.  Every row is summed tap by tap in the
    same order, so a signal's coefficients do not depend on its block.
    """
    if mode not in PADDING_MODES:
        raise InvalidInputError(f"unknown padding mode {mode!r}")
    x = np.asarray(x, dtype=float)
    L = w.filter_length
    n = x.shape[-1]
    if n < L:
        raise InvalidInputError(f"signal length {n} shorter than filter length {L}")
    if mode == "periodization":
        ext = pad(x, mode, L, 0)
        win = np.lib.stride_tricks.sliding_window_view(ext, L, axis=-1)[..., 2::2, ::-1]
        return win @ w.dec_lo, win @ w.dec_hi
    ext = pad(x, mode, L - 1, L - 1)
    win = np.lib.stride_tricks.sliding_window_view(ext, L, axis=-1)[..., 1::2, :]
    return win @ w.dec_lo[::-1], win @ w.dec_hi[::-1]


def idwt_single(approx: np.ndarray, detail: np.ndarray, w: WaveletSpec,
                mode: str, out_length: int) -> np.ndarray:
    """One synthesis step, trimming to the stored input length.

    Tap j adds ``a[i] * rec_lo[j] + d[i] * rec_hi[j]`` to every other
    output sample, so each sample sums its taps in increasing j.  For
    ``periodization`` input i goes to sample ``(2i + 2 - L + j) mod n``:
    one parity class, rotated, which two slice adds cover.  Every tap's
    products are formed in the same two buffers, allocated once per call.
    """
    a = np.asarray(approx, dtype=float)
    d = np.asarray(detail, dtype=float)
    if a.shape != d.shape:
        raise InvalidInputError("approx/detail shapes differ")
    L = w.filter_length
    k = a.shape[-1]
    v_lo, v_hi = np.empty(a.shape), np.empty(a.shape)
    if mode == "periodization":
        ne = 2 * k
        if not out_length <= ne:
            raise InvalidInputError("inconsistent bookkeeping lengths")
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
    full = 2 * k + L - 1
    if not (L - 2 + out_length) <= full:
        raise InvalidInputError("inconsistent bookkeeping lengths")
    out = np.zeros(a.shape[:-1] + (full,))
    for j in range(L):
        v = np.multiply(a, w.rec_lo[j], out=v_lo)
        v += np.multiply(d, w.rec_hi[j], out=v_hi)
        out[..., j:j + 2 * k:2] += v
    start = L - 2
    return out[..., start:start + out_length]


def max_level(n: int, w: WaveletSpec) -> int:
    """Deepest usable decomposition level for a length-n signal."""
    denom = w.filter_length - 1
    if n < w.filter_length:
        return 0
    return int(math.floor(math.log2(n / denom)))


def _check_level(n: int, w: WaveletSpec, level: int) -> None:
    lmax = max_level(n, w)
    if level < 1 or level > lmax:
        raise InvalidInputError(
            f"level {level} out of range 1..{lmax} for n={n}, filter {w.name}")


def wavedec(x: np.ndarray, w: WaveletSpec, mode: str, level: int) -> np.ndarray:
    """Recursive analysis of the approximation branch down to ``level``.

    Returns the flat coefficient array along the last axis: the
    approximation, then the details coarsest first.
    """
    x = np.asarray(x, dtype=float)
    _check_level(x.shape[-1], w, level)
    details = []
    cur = x
    for _ in range(level):
        cur, det = dwt_single(cur, w, mode)
        details.append(det)
    return np.concatenate([cur] + details[::-1], axis=-1)


def waverec(vec: np.ndarray, w: WaveletSpec, mode: str, level: int, n: int) -> np.ndarray:
    """Invert :func:`wavedec` of a length-n signal, restoring n samples.

    Each analysis step maps length k to ``ceil(k/2)`` under periodization and
    to ``floor((k + L - 1)/2)`` otherwise, so n, L and the mode give every
    block's length.
    """
    vec = np.asarray(vec, dtype=float)
    _check_level(n, w, level)
    lengths = [n]  # the input length of each analysis step, finest first
    for _ in range(level):
        k = lengths[-1]
        lengths.append((k + 1) // 2 if mode == "periodization"
                       else (k + w.filter_length - 1) // 2)
    if vec.shape[-1] != lengths[-1] + sum(lengths[1:]):
        raise InvalidInputError(
            f"flat length {vec.shape[-1]} does not match level-{level} "
            f"blocks of a length-{n} signal")
    start = lengths[-1]
    cur = vec[..., :start]
    for k, out_len in zip(lengths[:0:-1], lengths[-2::-1]):
        cur = idwt_single(cur, vec[..., start:start + k], w, mode, out_len)
        start += k
    return cur
