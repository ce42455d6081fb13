"""Tests for the wavelet filter banks."""
import hashlib

import numpy as np
import pytest

from wavefeat import dwt
from wavefeat.errors import InvalidInputError, UnsupportedWaveletError
from wavefeat.harness import DwtSpec

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


class TestDwtSingle:
    def test_constant_haar_periodization(self):
        w = dwt.lookup_wavelet("daubechies", 1)
        a, d = dwt.dwt_single(np.full(4, 2.0), w)
        assert np.allclose(a, [2 * SQ2, 2 * SQ2])
        assert np.allclose(d, 0.0, atol=1e-12)

    def test_haar_1234(self):
        w = dwt.lookup_wavelet("daubechies", 1)
        a, d = dwt.dwt_single(np.array([1.0, 2, 3, 4]), w)
        assert np.allclose(a, [3 / SQ2, 7 / SQ2])
        assert np.allclose(np.abs(d), [1 / SQ2, 1 / SQ2])

    def test_haar_energy(self):
        rng = np.random.default_rng(0)
        w = dwt.lookup_wavelet("daubechies", 1)
        x = rng.standard_normal(32)
        a, d = dwt.dwt_single(x, w)
        assert abs(np.sum(a ** 2) + np.sum(d ** 2) - np.sum(x ** 2)) <= 1e-10

    def test_odd_length_repeats_the_last_sample(self):
        w = dwt.lookup_wavelet("daubechies", 2)
        x = np.random.default_rng(6).standard_normal((2, 9))
        even = np.concatenate([x, x[:, -1:]], axis=1)
        for got, want in zip(dwt.dwt_single(x, w), dwt.dwt_single(even, w)):
            assert np.array_equal(got, want)

    def test_output_lengths(self):
        for name, order in (("daubechies", 4), ("coiflet", 2), ("symlet", 5)):
            w = dwt.lookup_wavelet(name, order)
            for n in (44, 45):
                a, d = dwt.dwt_single(np.zeros(n), w)
                assert a.shape[-1] == d.shape[-1] == (n + 1) // 2, (name, n)

    def test_too_short(self):
        w = dwt.lookup_wavelet("coiflet", 5)
        with pytest.raises(InvalidInputError):
            dwt.dwt_single(np.zeros(10), w)


class TestMultilevel:
    def test_level1_equals_single(self):
        rng = np.random.default_rng(1)
        w = dwt.lookup_wavelet("symlet", 4)
        x = rng.standard_normal(64)
        c = dwt.wavedec(x, w, 1)
        a, d = dwt.dwt_single(x, w)
        assert np.array_equal(c, np.concatenate([a, d]))

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

    def test_round_trip_db4_symmetric(self):
        # the name dates from the border-extension modes; the DWT now runs in
        # periodization only, so this is db4's level-3 round trip on 64 points
        rng = np.random.default_rng(2)
        w = dwt.lookup_wavelet("daubechies", 4)
        x = rng.standard_normal(64)
        c = dwt.wavedec(x, w, 3)
        assert np.max(np.abs(dwt.waverec(c, w, 3, 64) - x)) <= 1e-10

    @pytest.mark.parametrize("mode", ["periodization"])
    def test_round_trip_modes_sample(self, mode):
        # every level of a light sample of the registry, on even and odd
        # lengths; the odd ones repeat their last sample, which the trim drops.
        # The wavelets come through a config's DWT entry in the one mode left.
        rng = np.random.default_rng(3)
        for name, order in (("daubechies", 2), ("daubechies", 4), ("symlet", 5),
                            ("coiflet", 1)):
            spec = DwtSpec(name, order, mode)
            w = dwt.lookup_wavelet(spec.family, spec.order)
            for n in (37, 64):
                for level in range(1, dwt.max_level(n, w) + 1):
                    x = rng.standard_normal((3, n))
                    back = dwt.waverec(dwt.wavedec(x, w, level), w, level, n)
                    assert np.max(np.abs(back - x)) <= 1e-10, (name, n, level)

    def test_zero_coeffs_zero_signal(self):
        w = dwt.lookup_wavelet("daubechies", 2)
        c = dwt.wavedec(np.zeros(32), w, 2)
        assert np.max(np.abs(dwt.waverec(c, w, 2, 32))) == 0.0

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
        x, y = rng.standard_normal((2, 50))
        ca = dwt.wavedec(2.0 * x + 3.0 * y, w, 2)
        cb = 2.0 * dwt.wavedec(x, w, 2) + 3.0 * dwt.wavedec(y, w, 2)
        assert np.max(np.abs(ca - cb)) <= 1e-10


class TestFlatten:
    def test_level1_haar_layout(self):
        w = dwt.lookup_wavelet("daubechies", 1)
        x = np.array([1.0, 2, 3, 4])
        flat = dwt.wavedec(x, w, 1)
        a, d = dwt.dwt_single(x, w)
        assert flat.shape == (4,)
        assert np.array_equal(flat[:2], a)
        assert np.array_equal(flat[2:], d)

    def test_waverec_length_check(self):
        w = dwt.lookup_wavelet("daubechies", 2)
        x = np.zeros((2, 33))
        flat = dwt.wavedec(x, w, 2)
        assert dwt.waverec(flat, w, 2, 33).shape == x.shape
        for wrong in (flat[..., :-1], np.concatenate([flat, flat[..., :1]], axis=-1)):
            with pytest.raises(InvalidInputError):
                dwt.waverec(wrong, w, 2, 33)


# The analysis and synthesis steps as first written, with an index-array
# gather and a scatter through fancy indices: the reference that the strided
# kernels match bit for bit.

def _reference_dwt_single(x, w):
    L = w.filter_length
    xe = np.concatenate([x, x[..., -1:]], axis=-1) if x.shape[-1] % 2 else x
    ne = xe.shape[-1]
    idx = (2 * np.arange(ne // 2)[:, None] + 1 - np.arange(L)[None, :]) % ne
    win = xe[..., idx]
    return win @ w.dec_lo, win @ w.dec_hi


def _reference_idwt_periodization(a, d, w, out_length):
    L = w.filter_length
    k = a.shape[-1]
    ne = 2 * k
    out = np.zeros(a.shape[:-1] + (ne,))
    base = (2 * np.arange(k) + 2 - L) % ne
    for j in range(L):
        pos = (base + j) % ne
        out[..., pos] += a * w.rec_lo[j] + d * w.rec_hi[j]
    return out[..., :out_length]


def _reference_idwt_single(a, d, w, out_length):
    """The synthesis step with a fresh tap product per tap: the strided
    slice adds of ``dwt.idwt_single``, each fed by ``a * rec_lo[j] +
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
    return out[..., :out_length]


def _reference_waverec_periodization(flat, x, w, level):
    """The inverse of x's flat coefficients, split by the lengths that the
    analysis steps of x give."""
    lengths, cur = [x.shape[-1]], x
    for _ in range(level):
        cur, _ = dwt.dwt_single(cur, w)
        lengths.append(cur.shape[-1])
    sizes = [lengths[-1]] + lengths[:0:-1]  # approx, then details coarsest first
    parts = np.split(flat, np.cumsum(sizes)[:-1], axis=-1)
    cur = parts[0]
    for det, out_len in zip(parts[1:], lengths[-2::-1]):
        cur = _reference_idwt_periodization(cur, det, w, out_len)
    return cur


def _same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


_REFERENCE_WAVELETS = [("daubechies", 4), ("daubechies", 1), ("symlet", 5),
                       ("coiflet", 3)]


@pytest.fixture(scope="module")
def spectra_block():
    """250 rows of random signals per length; the rows of every smaller
    block in these tests are taken from it."""
    rng = np.random.default_rng(20)
    return {n: rng.standard_normal((250, n)) for n in (1600, 801, 50)}


def _blocks(block):
    """A single signal and blocks of 1, 60 and 250 rows, with the row
    indices of ``block`` that each one holds."""
    return [(block[7], 7), (block[7:8], slice(7, 8)),
            (block[:60], slice(0, 60)), (block, slice(None))]


class TestBitIdenticalToReference:
    @pytest.mark.parametrize("n", [1600, 801, 50])
    @pytest.mark.parametrize("family,order", _REFERENCE_WAVELETS)
    def test_periodization_analysis(self, spectra_block, n, family, order):
        # The reference runs on the whole block.  On one row, its contiguous
        # (k, L) window matrix goes to BLAS gemv, which sums the taps in
        # another order than the per-row products it makes for a block; the
        # strided kernel sums every row as the reference's block rows.
        w = dwt.lookup_wavelet(family, order)
        block = spectra_block[n]
        want = _reference_dwt_single(block, w)
        for x, rows in _blocks(block):
            for got, ref in zip(dwt.dwt_single(x, w), want):
                _same_bits(got, ref[rows])

    @pytest.mark.parametrize("n", [1600, 801, 50])
    @pytest.mark.parametrize("family,order", _REFERENCE_WAVELETS)
    def test_periodization_synthesis(self, spectra_block, n, family, order):
        w = dwt.lookup_wavelet(family, order)
        for x, _ in _blocks(spectra_block[n]):
            a, d = _reference_dwt_single(x, w)
            _same_bits(dwt.idwt_single(a, d, w, n),
                       _reference_idwt_periodization(a, d, w, n))

    @pytest.mark.parametrize("n", [1600, 801, 50])
    def test_synthesis_equals_the_per_tap_products(self, spectra_block, n):
        # approx and detail as the flat split hands them over: strided
        # column slices of one block, as well as contiguous rows
        for family, order in _REFERENCE_WAVELETS:
            w = dwt.lookup_wavelet(family, order)
            for x, _ in _blocks(spectra_block[n]):
                a, d = dwt.dwt_single(x, w)
                flat = np.concatenate([a, d], axis=-1)
                split = flat[..., :a.shape[-1]], flat[..., a.shape[-1]:]
                for a_, d_ in ((a, d), split):
                    _same_bits(dwt.idwt_single(a_, d_, w, n),
                               _reference_idwt_single(a_, d_, w, n))

    @pytest.mark.parametrize("n", [1600, 801, 50])
    def test_multilevel_inverse_of_soft_thresholded_coefficients(
            self, spectra_block, n):
        w = dwt.lookup_wavelet("daubechies", 4)
        level = dwt.max_level(n, w)
        for x, _ in _blocks(spectra_block[n]):
            flat = dwt.wavedec(x, w, level)
            shrunk = np.sign(flat) * np.maximum(np.abs(flat) - 0.5, 0.0)
            _same_bits(dwt.waverec(shrunk, w, level, n),
                       _reference_waverec_periodization(shrunk, x, w, level))
