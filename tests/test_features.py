"""Tests for thresholding, quantization and contrasting, on the coefficients
of the DWT and WTT kernels, and for the decompose stage's state."""
import numpy as np
import pytest

from wavefeat import dwt, wtt
from wavefeat.errors import InvalidInputError
from wavefeat.features import (FeatureMap, contrast, extract_features,
                               magnitude_quantile, sign_quantize, threshold)
from wavefeat.grids import expand_grid
from wavefeat.harness import fit_pipeline
from wavefeat.models import pairwise_distances
from wavefeat.synth import SyntheticSpec, synth_dataset


class TestThreshold:
    def test_hard_example(self):
        out = threshold(np.array([3.0, -0.5, 1.2]), "hard", 1.0)
        assert np.array_equal(out, [3.0, 0.0, 1.2])

    def test_soft_example(self):
        out = threshold(np.array([3.0, -0.5, 1.2]), "soft", 1.0)
        assert np.allclose(out, [2.0, 0.0, 0.2])

    def test_tau_zero_identity(self):
        v = np.array([1.0, -2.0, 0.5, 0.0])
        assert np.array_equal(threshold(v, "hard", 0.0), v)
        assert np.array_equal(threshold(v, "soft", 0.0), v)

    def test_hard_boundary_strict(self):
        # |c| == tau is dropped
        out = threshold(np.array([1.0, -1.0, 1.0001]), "hard", 1.0)
        assert np.array_equal(out, [0.0, 0.0, 1.0001])

    def test_soft_contraction(self):
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal((2, 100))
        lhs = np.linalg.norm(threshold(u, "soft", 0.7) - threshold(v, "soft", 0.7))
        assert lhs <= np.linalg.norm(u - v) + 1e-12

    def test_hard_minus_soft_structure(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(200)
        tau = 0.8
        delta = threshold(v, "hard", tau) - threshold(v, "soft", tau)
        assert np.all(np.abs(delta) <= tau + 1e-12)
        nz = delta != 0
        assert np.all(np.sign(delta[nz]) == np.sign(v[nz]))

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, 2.5])
    def test_soft_equals_the_product_formula(self, tau):
        # the formula as first written, with one temporary per step; -0.0
        # and entries at +-tau included
        rng = np.random.default_rng(13)
        v = np.concatenate([rng.standard_normal(500) * 2,
                            np.round(rng.standard_normal(200), 1),
                            [0.0, -0.0, tau, -tau, np.nextafter(tau, 0.0),
                             -np.nextafter(tau, 0.0), np.nextafter(tau, 9.0)]])
        for block in (v, v[:696].reshape(24, 29), v[:696].reshape(24, 29).T):
            want = np.sign(block) * np.maximum(np.abs(block) - tau, 0.0)
            got = threshold(block, "soft", tau)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            threshold(np.ones(3), "medium", 1.0)
        with pytest.raises(InvalidInputError):
            threshold(np.ones(3), "hard", -0.1)


class TestMagnitudeQuantile:
    """``magnitude_quantile`` against ``np.quantile(np.abs(c), q)``, bit for
    bit, on every numpy the package supports."""

    QS = (0, 1, 0.0, 1.0, 0.5, 0.9, 0.95, 0.98)

    @staticmethod
    def _same(c, q):
        got = np.float64(magnitude_quantile(c, q)).tobytes()
        assert got == np.float64(np.quantile(np.abs(c), q)).tobytes(), (c.shape, q)

    @pytest.mark.parametrize("shape", [(1,), (2,), (3,), (7,), (1, 1), (2, 5),
                                       (13, 17), (60, 31), (40, 64), (97, 103)])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rounded", [False, True])
    def test_equals_np_quantile(self, shape, order, rounded):
        rng = np.random.default_rng([*shape, order == "F", rounded])
        c = rng.standard_normal(shape) * 3
        if rounded:  # few distinct magnitudes, so order statistics tie
            c = np.round(c)
        c = np.asarray(c, order=order)
        for q in self.QS + tuple(rng.random(6)):
            self._same(c, q)

    def test_random_sizes_and_layouts(self):
        rng = np.random.default_rng(14)
        for _ in range(150):
            n = int(rng.integers(1, 10_000))
            cols = int(rng.integers(1, 4))
            c = rng.standard_normal((n, cols))
            if rng.random() < 0.5:
                c = np.round(c, 1)
            if rng.random() < 0.5:
                c = np.asfortranarray(c)
            for q in self.QS + (float(rng.random()),):
                self._same(c, q)

    def test_leaves_its_input_unchanged(self):
        c = np.random.default_rng(15).standard_normal((20, 30))
        before = c.copy()
        magnitude_quantile(c, 0.9)
        assert np.array_equal(c, before)

    @pytest.mark.parametrize("q", [0, 1, 0.5, 0.9])
    def test_a_nan_gives_nan(self, q):
        c = np.random.default_rng(16).standard_normal((30, 40))
        c[4, 7] = np.nan
        assert np.isnan(magnitude_quantile(c, q))
        self._same(c, q)


class TestSignQuantize:
    def test_example(self):
        out = sign_quantize(np.array([2.0, -0.1, -3.0]), 1.0)
        assert np.array_equal(out, [1.0, 0.0, -1.0])

    def test_all_below_tau(self):
        assert np.array_equal(sign_quantize(np.array([0.3, -0.2]), 1.0), [0.0, 0.0])

    def test_idempotent_below_one(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(50)
        tau = 0.5
        once = sign_quantize(v, tau)
        assert np.array_equal(sign_quantize(once, tau), once)

    def test_codomain(self):
        rng = np.random.default_rng(3)
        out = sign_quantize(rng.standard_normal(100), 0.2)
        assert set(np.unique(out)).issubset({-1.0, 0.0, 1.0})


@pytest.fixture
def wtt_bank():
    rng = np.random.default_rng(4)
    return wtt.train_group_filters(rng.standard_normal((6, 64)), 3)


@pytest.fixture
def forwards(wtt_bank):
    """The WTT bank's forward map and db2's at level 3, both on 64 points."""
    db2 = dwt.lookup_wavelet("daubechies", 2)
    return {"wtt": lambda x: wtt.wtt_forward(x, wtt_bank),
            "dwt": lambda x: dwt.wavedec(x, db2, 3)}


def _matrix(forward, n: int) -> np.ndarray:
    """W of a forward map on n points, from the forward map of the identity:
    row i of ``forward(I)`` is W e_i, so the result is its transpose."""
    return forward(np.eye(n)).T


class TestContrast:
    """``contrast(c, tau)`` clips coefficients to [-tau, tau]."""

    def test_tau_zero_gives_zero_signal(self):
        c = np.random.default_rng(5).standard_normal(64)
        assert not contrast(c, 0.0).any()

    def test_tau_above_max_returns_x(self):
        c = np.random.default_rng(6).standard_normal((3, 64))
        tau = float(np.max(np.abs(c))) + 1.0
        assert np.array_equal(contrast(c, tau), c)

    @pytest.mark.parametrize("transform_name", ["wtt", "dwt"])
    def test_clip_bound(self, transform_name, forwards):
        # what the soft threshold keeps plus the contrast is the coefficients
        rng = np.random.default_rng(7)
        tau = 0.4
        c = forwards[transform_name](rng.standard_normal((20, 64)))
        out = contrast(c, tau)
        assert np.max(np.abs(out)) <= tau
        inside = np.abs(c) <= tau
        assert np.array_equal(out[inside], c[inside])
        assert np.array_equal(out[~inside], tau * np.sign(c[~inside]))
        assert np.allclose(threshold(c, "soft", tau) + out, c, rtol=0, atol=1e-15)

    def test_orthogonal_norm_bound(self, wtt_bank):
        rng = np.random.default_rng(8)
        tau = 0.3
        out = contrast(wtt.wtt_forward(rng.standard_normal((20, 64)), wtt_bank), tau)
        assert np.all(np.linalg.norm(out, axis=1) <= tau * np.sqrt(64))

    def test_negative_tau_raises(self):
        with pytest.raises(InvalidInputError):
            contrast(np.ones(3), -0.1)

    @pytest.mark.parametrize("family,order", [(None, None), ("daubechies", 4),
                                              ("symlet", 4), ("coiflet", 2)],
                             ids=["wtt", "db4", "sym4", "coif2"])
    def test_same_geometry_as_the_signal_domain_residual(self, family, order):
        # the contrast as first defined, x - W^-1 soft(Wx, tau), built with
        # the inverse kernels: for an orthonormal W its pairwise distances
        # and inner products are those of clip(Wx, -tau, tau)
        x = np.random.default_rng(17).standard_normal((12, 256)).cumsum(axis=1)
        if family is None:
            bank = wtt.train_group_filters(x, 3)
            c = wtt.wtt_forward(x, bank)
            tau = magnitude_quantile(c, 0.9)
            old = x - wtt.wtt_inverse(threshold(c, "soft", tau), bank)
        else:
            w = dwt.lookup_wavelet(family, order)
            level = dwt.max_level(256, w)
            c = dwt.wavedec(x, w, level)
            tau = magnitude_quantile(c, 0.9)
            old = x - dwt.waverec(threshold(c, "soft", tau), w, level, 256)
        new = contrast(c, tau)
        for a, b in ((new @ new.T, old @ old.T),
                     (pairwise_distances(new, "euclidean"),
                      pairwise_distances(old, "euclidean"))):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def _fit_dwt(level):
    """A DWT pipeline (db4, no transform, LDA) fitted on every row of a small
    synthetic set; the decomposition reads its power-of-two resample."""
    data = synth_dataset(SyntheticSpec(class_count=2, samples_per_class=(4, 4),
                                       grid_points=100, seed=3))
    (config,) = expand_grid({
        "preprocess": {"derivative_order": 0, "center": True},
        "decomposition": {"kind": "dwt", "family": "daubechies", "order": 4,
                          "mode": "periodization", "level": level},
        "transform": {"kind": "none"}, "model": {"kind": "lda"}})
    return fit_pipeline(config, data, np.arange(data.n_samples))


class TestTransforms:
    """The decompose stage's state is the kernel's own: the DWT's (wavelet,
    level) for ``dwt.wavedec``, or the bank for ``wtt.wtt_forward``."""

    def test_dwt_transform_is_orthonormal(self):
        # every registered wavelet, at its deepest level on a power-of-two length
        for w in dwt.iter_registry():
            level = dwt.max_level(256, w)
            mat = _matrix(lambda x: dwt.wavedec(x, w, level), 256)
            assert np.max(np.abs(mat @ mat.T - np.eye(256))) <= 1e-12, w.name

    def test_dwt_transform_level_default_max(self):
        # a null level is the deepest the fitted signal allows: 128 points
        # after the resample, where db4's is 4
        fitted = _fit_dwt(None)
        w, level = fitted.states[1]
        assert w.name == "db4"
        assert fitted.train_features.shape[-1] == 128
        assert level == dwt.max_level(128, w) == 4

    def test_dwt_transform_level_out_of_range(self):
        w = dwt.lookup_wavelet("daubechies", 1)
        with pytest.raises(InvalidInputError, match="level 7 out of range 1..6"):
            dwt.wavedec(np.zeros(64), w, 7)
        with pytest.raises(InvalidInputError, match="level 5 out of range 1..4"):
            _fit_dwt(5)

    def test_wtt_transform_is_orthonormal(self, forwards):
        mat = _matrix(forwards["wtt"], 64)
        assert np.max(np.abs(mat @ mat.T - np.eye(64))) <= 1e-12


class TestExtractFeatures:
    def test_identity_pipeline(self):
        x = np.arange(5.0)
        fm = FeatureMap("none")
        assert extract_features(x, fm) is x

    def test_sign_codomain_haar(self):
        w = dwt.lookup_wavelet("daubechies", 1)
        fm = FeatureMap("sign", None, 0.5)
        out = extract_features(dwt.wavedec(np.array([1.0, 2.0, 3.0, 4.0]), w, 1), fm)
        assert out.shape == (4,)
        assert set(np.unique(out)).issubset({-1.0, 0.0, 1.0})

    def test_full_composition_matches_manual(self, wtt_bank):
        rng = np.random.default_rng(11)
        c = wtt.wtt_forward(rng.standard_normal(64), wtt_bank)
        for fm, manual in (
                (FeatureMap("threshold", "hard", 0.6), threshold(c, "hard", 0.6)),
                (FeatureMap("sign", None, 0.6), sign_quantize(c, 0.6)),
                (FeatureMap("contrast", None, 0.6), np.clip(c, -0.6, 0.6))):
            assert np.array_equal(extract_features(c, fm), manual)

    def test_batch_equals_per_sample(self, wtt_bank):
        rng = np.random.default_rng(12)
        c = wtt.wtt_forward(rng.standard_normal((3, 64)), wtt_bank)
        fm = FeatureMap("threshold", "soft", 0.2)
        batch = extract_features(c, fm)
        for i in range(3):
            assert np.array_equal(batch[i], extract_features(c[i], fm))

    def test_invalid_configs(self):
        # the config's transform rules are checked where the config is read;
        # an unknown threshold kind or a negative tau is rejected by the
        # threshold or the clip of every kind
        c = np.random.default_rng(13).standard_normal(64)
        for fm in (FeatureMap("threshold", "medium", 0.1),
                   FeatureMap("threshold", "soft", -0.1),
                   FeatureMap("sign", None, -0.1),
                   FeatureMap("contrast", None, -0.1)):
            with pytest.raises(InvalidInputError):
                extract_features(c, fm)
