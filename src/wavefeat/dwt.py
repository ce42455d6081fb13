"""Orthonormal two-channel wavelet filter banks: registry and multilevel
transform in periodization.

Convention (fixed once, validated by the round-trip and energy tests): the
signal length is a power of two, as the WTT's is; the harness resamples
every decomposition's input onto that grid.  Analysis filters the signal
circularly, ``v[t] = sum_j f[j] x[(t - j) mod n]``, and keeps the odd phase,
``c[k] = v[2k+1]``, so each branch stores ``n/2`` coefficients.  Synthesis
upsamples by two, convolves circularly with the reconstruction pair and
sums the branches.  Every registered wavelet is orthogonal, so the
multilevel transform is an orthonormal map, and the table stores only its
``dec_lo``: ``lookup_wavelet`` derives the other three.

All transforms operate along the last axis, so a whole (n_samples, n_points)
block can be decomposed in one call.  A multilevel transform is one flat
array of the signal's length: the approximation, then the details coarsest
first.  Each level halves the length, so the inverse takes the flat array
and needs no other bookkeeping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._wavelet_tables import FILTERS
from .errors import InvalidInputError, UnsupportedWaveletError

DEC_BLOCK_ROWS = 64  # signals per pass of wavedec's levels

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


def _analyse_into(x: np.ndarray, w: WaveletSpec, lo: np.ndarray, hi: np.ndarray) -> None:
    """One analysis step of x, written into ``lo`` and ``hi``.

    Output i reads sample ``(2i + 1 - j) mod n`` of x at tap j.  Outputs
    ``L/2 - 1`` to ``n/2 - 1`` read inside x, so their windows are views of
    it.  Only the outputs whose windows wrap round the start read a copy:
    of the ``2L - 4`` samples their windows hold.  Every window has reversed
    strides, so numpy sums each output tap by tap in the same order,
    whatever its block or layout.
    """
    L, n = w.filter_length, x.shape[-1]
    h = L // 2 - 1
    parts = [(slice(h, n // 2), x)]
    if h:
        parts.append((slice(0, h), x[..., np.arange(2 - L, L - 2) % n]))
    for out_part, src in parts:
        # every second window of src, reversed: tap j of window i holds
        # src[2i + L - 1 - j]
        win = np.lib.stride_tricks.sliding_window_view(src, L, axis=-1)[..., ::2, ::-1]
        np.matmul(win, w.dec_lo, out=lo[..., out_part])
        np.matmul(win, w.dec_hi, out=hi[..., out_part])


def _synthesise(a: np.ndarray, d: np.ndarray, w: WaveletSpec) -> np.ndarray:
    """One synthesis step: k approximations and k details give 2k samples.

    Tap j adds ``a[i] * rec_lo[j] + d[i] * rec_hi[j]`` to output sample
    ``(2i + 2 - L + j) mod 2k``: one parity class, rotated, which two slice
    adds cover, so each sample sums its taps in increasing j.  Every tap's
    products are formed in the same two buffers, allocated once per call.
    """
    L = w.filter_length
    k = a.shape[-1]
    ne = 2 * k
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
    return out


def max_level(n: int, w: WaveletSpec) -> int:
    """Deepest usable decomposition level for a length-n signal."""
    denom = w.filter_length - 1
    if n < w.filter_length:
        return 0
    return int(math.floor(math.log2(n / denom)))


def check_level(n: int, w: WaveletSpec, level: int) -> None:
    lmax = max_level(n, w)
    if lmax < 1:
        raise InvalidInputError(f"signal length {n} too short for filter {w.name}")
    if level < 1 or level > lmax:
        raise InvalidInputError(
            f"level {level} out of range 1..{lmax} for n={n}, filter {w.name}")


def _step_lengths(n: int, w: WaveletSpec, level: int) -> list[int]:
    """The input length of each analysis step of a length-n signal, finest
    first, then the length of the last approximation: each step halves a
    power-of-two length."""
    if n & (n - 1):
        raise InvalidInputError(
            f"signal length {n} is not a power of two; resample first")
    check_level(n, w, level)
    return [n >> step for step in range(level + 1)]


def wavedec(x: np.ndarray, w: WaveletSpec, level: int) -> np.ndarray:
    """Recursive analysis of the approximation branch down to ``level``.

    Returns the flat coefficient array along the last axis: the
    approximation, then the details coarsest first.  The levels run on
    ``DEC_BLOCK_ROWS`` signals at a time; each writes its details, and the
    last level its approximation too, straight into that array, and only
    the block's approximations of the levels above the last are held
    apart, so the call holds its output and under one row block besides
    the input.
    """
    x = np.asarray(x, dtype=float)
    lengths = _step_lengths(x.shape[-1], w, level)
    out = np.empty(x.shape)
    signals, flat = x.reshape(-1, x.shape[-1]), out.reshape(-1, out.shape[-1])
    for first in range(0, len(signals), DEC_BLOCK_ROWS):
        cur = signals[first:first + DEC_BLOCK_ROWS]
        dest = flat[first:first + DEC_BLOCK_ROWS]
        stop = dest.shape[-1]
        for step, k in enumerate(lengths[1:], start=1):
            lo = dest[:, :k] if step == level else np.empty((len(cur), k))
            _analyse_into(cur, w, lo, dest[:, stop - k:stop])
            stop -= k
            cur = lo
    return out


def waverec(vec: np.ndarray, w: WaveletSpec, level: int) -> np.ndarray:
    """Invert :func:`wavedec`: the flat array is as long as the signal, and
    each level's blocks are half the length of the one it came from."""
    vec = np.asarray(vec, dtype=float)
    lengths = _step_lengths(vec.shape[-1], w, level)
    start = lengths[-1]
    cur = vec[..., :start]
    for k in lengths[:0:-1]:
        cur = _synthesise(cur, vec[..., start:start + k], w)
        start += k
    return cur
