"""Tests for the wavelet filter banks."""
import hashlib

import numpy as np
import pytest

from wavefeat import dwt
from wavefeat.errors import InvalidInputError, UnsupportedWaveletError
from wavefeat.harness import DwtSpec
from wavefeat.preprocess import pow2_grid

SQ2 = np.sqrt(2.0)


class TestRegistry:
    def test_haar_taps(self):
        w = dwt.lookup_wavelet("daubechies", 1)
        assert np.allclose(w.dec_lo, [1 / SQ2, 1 / SQ2], atol=1e-12)

    def test_admissibility_sweep(self):
        for w in dwt.iter_registry():
            assert abs(w.dec_lo.sum() - SQ2) <= 1e-10, w.name
            assert abs(w.dec_lo @ w.dec_lo - 1.0) <= 1e-10, w.name
            assert abs(w.dec_lo @ w.dec_hi) <= 1e-10, w.name

    def test_unknown_order(self):
        with pytest.raises(UnsupportedWaveletError):
            dwt.lookup_wavelet("coiflet", 99)
        with pytest.raises(UnsupportedWaveletError):
            dwt.lookup_wavelet("haarish", 1)
        with pytest.raises(UnsupportedWaveletError):
            dwt.lookup_wavelet("biorthogonal", "2.2")

    def test_order_forms(self):
        a = dwt.lookup_wavelet("daubechies", "4")
        for order in (4, 4.0):
            b = dwt.lookup_wavelet("daubechies", order)
            assert b.name == "db4"
            assert np.array_equal(a.dec_lo, b.dec_lo)

    def test_registry_size(self):
        assert sum(1 for _ in dwt.iter_registry()) == 20

    def test_dump_registry_shape(self):
        text = dwt.dump_registry()
        lines = text.strip().split("\n")
        assert lines[0] == "family\torder\tfilter\ttaps"
        assert len(lines) == 1 + 20 * 4
        # the bytes of the table that stored all four filters of each wavelet:
        # deriving three of them from dec_lo moves no tap
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "01773efc154bbfb97dddcb19dcbe6d0af79731c77f80ef9e53135c7966a542be")


def _single(x, w):
    """One analysis step: the approximation and the details of level 1."""
    c = dwt.wavedec(x, w, 1)
    k = x.shape[-1] // 2
    return c[..., :k], c[..., k:]


class TestDwtSingle:
    """One analysis step, taken as ``wavedec`` at level 1."""

    def test_constant_haar_periodization(self):
        w = dwt.lookup_wavelet("daubechies", 1)
        a, d = _single(np.full(4, 2.0), w)
        assert np.allclose(a, [2 * SQ2, 2 * SQ2])
        assert np.allclose(d, 0.0, atol=1e-12)

    def test_haar_1234(self):
        w = dwt.lookup_wavelet("daubechies", 1)
        a, d = _single(np.array([1.0, 2, 3, 4]), w)
        assert np.allclose(a, [3 / SQ2, 7 / SQ2])
        assert np.allclose(np.abs(d), [1 / SQ2, 1 / SQ2])

    def test_haar_energy(self):
        rng = np.random.default_rng(0)
        w = dwt.lookup_wavelet("daubechies", 1)
        x = rng.standard_normal(32)
        a, d = _single(x, w)
        assert abs(np.sum(a ** 2) + np.sum(d ** 2) - np.sum(x ** 2)) <= 1e-10

    def test_output_lengths(self):
        # the flat array keeps the signal's shape at every level
        for name, order in (("daubechies", 4), ("coiflet", 2), ("symlet", 5)):
            w = dwt.lookup_wavelet(name, order)
            for n in (64, 128):
                for level in range(1, dwt.max_level(n, w) + 1):
                    assert dwt.wavedec(np.zeros((2, n)), w, level).shape == (2, n)

    def test_too_short(self):
        w = dwt.lookup_wavelet("coiflet", 5)
        with pytest.raises(InvalidInputError):
            dwt.wavedec(np.zeros(16), w, 1)


class TestMultilevel:
    def test_level1_equals_single(self):
        rng = np.random.default_rng(1)
        w = dwt.lookup_wavelet("symlet", 4)
        x = rng.standard_normal(64)
        c = dwt.wavedec(x, w, 1)
        assert np.array_equal(c, np.concatenate(_padded_dwt_single(x, w)))

    def test_max_level_haar_1024(self):
        w = dwt.lookup_wavelet("daubechies", 1)
        assert dwt.max_level(1024, w) == 10

    def test_level_out_of_range(self):
        w = dwt.lookup_wavelet("daubechies", 4)
        x = np.zeros(64)
        with pytest.raises(InvalidInputError):
            dwt.wavedec(x, w, 0)
        with pytest.raises(InvalidInputError):
            dwt.wavedec(x, w, dwt.max_level(64, w) + 1)
        # no level fits: 4 points are fewer than db4's 8 taps, and 8 give level 0
        for n in (4, 8):
            with pytest.raises(InvalidInputError, match=f"signal length {n} too short"):
                dwt.wavedec(np.zeros(n), w, 1)

    def test_length_not_a_power_of_two(self):
        # the signal table resamples every decomposition's input onto a
        # power-of-two grid; any other length is refused, and named
        w = dwt.lookup_wavelet("daubechies", 2)
        for n in (50, 801):
            match = f"signal length {n} is not a power of two; resample first"
            with pytest.raises(InvalidInputError, match=match):
                dwt.wavedec(np.zeros((2, n)), w, 1)
            with pytest.raises(InvalidInputError, match=match):
                dwt.waverec(np.zeros((2, n)), w, 1)

    def test_round_trip_db4_symmetric(self):
        # the name dates from the border-extension modes; the DWT now runs in
        # periodization only, so this is db4's level-3 round trip on 64 points
        rng = np.random.default_rng(2)
        w = dwt.lookup_wavelet("daubechies", 4)
        x = rng.standard_normal(64)
        c = dwt.wavedec(x, w, 3)
        assert np.max(np.abs(dwt.waverec(c, w, 3) - x)) <= 1e-10

    @pytest.mark.parametrize("mode", ["periodization"])
    def test_round_trip_modes_sample(self, mode):
        # every level of a light sample of the registry, on two power-of-two
        # lengths.  The wavelets come through a config's DWT entry in the one
        # mode left.
        rng = np.random.default_rng(3)
        for name, order in (("daubechies", 2), ("daubechies", 4), ("symlet", 5),
                            ("coiflet", 1)):
            spec = DwtSpec(name, order, mode)
            w = dwt.lookup_wavelet(spec.family, spec.order)
            for n in (32, 64):
                for level in range(1, dwt.max_level(n, w) + 1):
                    x = rng.standard_normal((3, n))
                    back = dwt.waverec(dwt.wavedec(x, w, level), w, level)
                    assert np.max(np.abs(back - x)) <= 1e-10, (name, n, level)

    def test_zero_coeffs_zero_signal(self):
        w = dwt.lookup_wavelet("daubechies", 2)
        c = dwt.wavedec(np.zeros(32), w, 2)
        assert np.max(np.abs(dwt.waverec(c, w, 2))) == 0.0

    def test_energy_conservation_orthogonal_periodization(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(128)
        e0 = np.sum(x ** 2)
        for w in dwt.iter_registry():
            lmax = dwt.max_level(128, w)
            c = dwt.wavedec(x, w, lmax)
            e = np.sum(c ** 2)
            assert abs(e - e0) / e0 <= 1e-9, w.name

    def test_constant_kills_details(self):
        x = np.full(128, 3.7)
        for w in dwt.iter_registry():
            level = dwt.max_level(128, w)
            c = dwt.wavedec(x, w, level)
            # the approximation holds 128 / 2**level coefficients
            assert np.max(np.abs(c[128 >> level:])) <= 1e-10, w.name

    def test_linearity(self):
        rng = np.random.default_rng(5)
        w = dwt.lookup_wavelet("coiflet", 2)
        x, y = rng.standard_normal((2, 64))
        ca = dwt.wavedec(2.0 * x + 3.0 * y, w, 2)
        cb = 2.0 * dwt.wavedec(x, w, 2) + 3.0 * dwt.wavedec(y, w, 2)
        assert np.max(np.abs(ca - cb)) <= 1e-10


class TestFlatten:
    def test_level1_haar_layout(self):
        w = dwt.lookup_wavelet("daubechies", 1)
        x = np.array([1.0, 2, 3, 4])
        flat = dwt.wavedec(x, w, 1)
        a, d = _padded_dwt_single(x, w)
        assert flat.shape == (4,)
        assert np.array_equal(flat[:2], a)
        assert np.array_equal(flat[2:], d)

    def test_waverec_length_check(self):
        # the flat array is as long as the signal, so one sample more or
        # less is not a power of two
        w = dwt.lookup_wavelet("daubechies", 2)
        x = np.zeros((2, 32))
        flat = dwt.wavedec(x, w, 2)
        assert dwt.waverec(flat, w, 2).shape == x.shape
        for wrong in (flat[..., :-1], np.concatenate([flat, flat[..., :1]], axis=-1)):
            with pytest.raises(InvalidInputError, match="not a power of two"):
                dwt.waverec(wrong, w, 2)


# The analysis and synthesis steps as first written, with an index-array
# gather and a scatter through fancy indices: the reference that the strided
# kernels match bit for bit.

def _reference_dwt_single(x, w):
    L = w.filter_length
    n = x.shape[-1]
    idx = (2 * np.arange(n // 2)[:, None] + 1 - np.arange(L)[None, :]) % n
    win = x[..., idx]
    return win @ w.dec_lo, win @ w.dec_hi


def _padded_dwt_single(x, w):
    """The analysis step as it was written before it read its windows from
    the signal: the signal wrapped by L samples on the left, and output i
    read from window 2i + 2 of a strided view, reversed."""
    L = w.filter_length
    ext = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(L, 0)], mode="wrap")
    win = np.lib.stride_tricks.sliding_window_view(ext, L, axis=-1)[..., 2::2, ::-1]
    return win @ w.dec_lo, win @ w.dec_hi


def _concatenated_wavedec(x, w, level):
    """``wavedec`` as the concatenation of the padded steps' outputs."""
    details, cur = [], x
    for _ in range(level):
        cur, det = _padded_dwt_single(cur, w)
        details.append(det)
    return np.concatenate([cur] + details[::-1], axis=-1)


def _reference_idwt_periodization(a, d, w):
    L = w.filter_length
    k = a.shape[-1]
    ne = 2 * k
    out = np.zeros(a.shape[:-1] + (ne,))
    base = (2 * np.arange(k) + 2 - L) % ne
    for j in range(L):
        pos = (base + j) % ne
        out[..., pos] += a * w.rec_lo[j] + d * w.rec_hi[j]
    return out


def _reference_idwt_single(a, d, w):
    """The synthesis step with a fresh tap product per tap: the strided
    slice adds of ``dwt.waverec``'s step, each fed by ``a * rec_lo[j] +
    d * rec_hi[j]``."""
    L = w.filter_length
    k = a.shape[-1]
    ne = 2 * k
    out = np.zeros(a.shape[:-1] + (ne,))
    for j in range(L):
        shift = (2 - L + j) % ne
        half = out[..., shift % 2::2]
        rot = shift // 2
        v = a * w.rec_lo[j] + d * w.rec_hi[j]
        half[..., rot:] += v[..., :k - rot]
        half[..., :rot] += v[..., k - rot:]
    return out


def _reference_waverec_periodization(flat, w, level):
    """The inverse of flat level-``level`` coefficients, split by halving
    the signal's length."""
    n = flat.shape[-1]
    sizes = [n >> level] + [n >> step for step in range(level, 0, -1)]
    parts = np.split(flat, np.cumsum(sizes)[:-1], axis=-1)
    cur = parts[0]
    for det in parts[1:]:
        cur = _reference_idwt_periodization(cur, det, w)
    return cur


def _same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


_REFERENCE_WAVELETS = [("daubechies", 4), ("daubechies", 1), ("symlet", 5),
                       ("coiflet", 3)]

# the point counts of measured grids; the DWT reads the power-of-two grid
# that the signal table resamples each onto: 2048, 1024 and 64 points
GRID_POINTS = [1600, 801, 50]


@pytest.fixture(scope="module")
def spectra_block():
    """250 rows of random signals on the power-of-two grid of each point
    count; the rows of every smaller block in these tests are taken from it."""
    rng = np.random.default_rng(20)
    return {points: rng.standard_normal((250, pow2_grid(np.arange(points)).size))
            for points in GRID_POINTS}


def _blocks(block):
    """A single signal and blocks of 1, 60 and 250 rows, with the row
    indices of ``block`` that each one holds."""
    return [(block[7], 7), (block[7:8], slice(7, 8)),
            (block[:60], slice(0, 60)), (block, slice(None))]


class TestBitIdenticalToReference:
    @pytest.mark.parametrize("points", GRID_POINTS)
    @pytest.mark.parametrize("family,order", _REFERENCE_WAVELETS)
    def test_periodization_analysis(self, spectra_block, points, family, order):
        # The reference runs on the whole block.  On one row, its contiguous
        # (k, L) window matrix goes to BLAS gemv, which sums the taps in
        # another order than the per-row products it makes for a block; the
        # strided kernel sums every row as the reference's block rows.
        w = dwt.lookup_wavelet(family, order)
        block = spectra_block[points]
        want = _reference_dwt_single(block, w)
        for x, rows in _blocks(block):
            for got, ref in zip(_single(x, w), want):
                _same_bits(got, ref[rows])

    @pytest.mark.parametrize("points", GRID_POINTS)
    @pytest.mark.parametrize("family,order", _REFERENCE_WAVELETS)
    def test_periodization_synthesis(self, spectra_block, points, family, order):
        w = dwt.lookup_wavelet(family, order)
        for x, _ in _blocks(spectra_block[points]):
            a, d = _reference_dwt_single(x, w)
            _same_bits(dwt.waverec(np.concatenate([a, d], axis=-1), w, 1),
                       _reference_idwt_periodization(a, d, w))

    @pytest.mark.parametrize("points", GRID_POINTS)
    def test_synthesis_equals_the_per_tap_products(self, spectra_block, points):
        # waverec hands its step approx and detail as strided column slices
        # of the flat block; the reference sums contiguous rows the same way
        for family, order in _REFERENCE_WAVELETS:
            w = dwt.lookup_wavelet(family, order)
            for x, _ in _blocks(spectra_block[points]):
                flat = dwt.wavedec(x, w, 1)
                k = flat.shape[-1] // 2
                got = dwt.waverec(flat, w, 1)
                for a_, d_ in ((flat[..., :k], flat[..., k:]),
                               (flat[..., :k].copy(), flat[..., k:].copy())):
                    _same_bits(got, _reference_idwt_single(a_, d_, w))

    @pytest.mark.parametrize("points", GRID_POINTS)
    def test_multilevel_inverse_of_soft_thresholded_coefficients(
            self, spectra_block, points):
        w = dwt.lookup_wavelet("daubechies", 4)
        for x, _ in _blocks(spectra_block[points]):
            level = dwt.max_level(x.shape[-1], w)
            flat = dwt.wavedec(x, w, level)
            shrunk = np.sign(flat) * np.maximum(np.abs(flat) - 0.5, 0.0)
            _same_bits(dwt.waverec(shrunk, w, level),
                       _reference_waverec_periodization(shrunk, w, level))


@pytest.mark.parametrize("w", list(dwt.iter_registry()), ids=lambda w: w.name)
def test_analysis_equals_the_pad_and_concatenate_formula(w):
    # every level of power-of-two lengths up to 2048; F-ordered blocks read
    # strided windows
    rng = np.random.default_rng(28)
    for n in (16, 32, 64, 128, 1024, 2048):
        block = rng.standard_normal((2, 3, n))
        for x in (block[0, 0], block[0], block,
                  np.asfortranarray(block[0]), np.asfortranarray(block)):
            for level in range(1, dwt.max_level(n, w) + 1):
                _same_bits(dwt.wavedec(x, w, level), _concatenated_wavedec(x, w, level))
