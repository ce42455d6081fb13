"""Tests for the dataset container and the block preprocessing steps."""
import tracemalloc

import numpy as np
import pytest

from wavefeat.dataio import load_dataset
from wavefeat.errors import (DataFormatError, GridMismatchError, InvalidDatasetError,
                             InvalidInputError)
from wavefeat.grids import expand_grid
from wavefeat.harness import FoldMemo, Preprocessor, SignalTable, fit_pipeline
from wavefeat.preprocess import (SPLINE_BLOCK_ROWS, LabeledDataset, PreprocessConfig,
                                 apply_scaler, derivative_matrix, fit_scaler, pow2_grid,
                                 resample_matrix)


def _dataset(wn, rows=2):
    wn = np.asarray(wn, dtype=float)
    return LabeledDataset(wn, np.ones((rows, wn.size)), ["a"] * rows)


def _deriv(wn, y, order):
    """derivative_matrix of a one-row block."""
    return derivative_matrix(np.asarray(wn, dtype=float),
                             np.asarray(y, dtype=float)[None, :], order)[0]


def _resample(wn, y):
    """A one-row block resampled onto its power-of-two grid: (grid, row)."""
    grid = pow2_grid(wn)
    return grid, resample_matrix(wn, np.asarray(y, dtype=float)[None, :], grid)[0]


def _scale(arr, cfg):
    arr = np.asarray(arr, dtype=float)
    return apply_scaler(arr, cfg, fit_scaler(arr, cfg))


class TestSpectrumValidation:
    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            LabeledDataset(np.arange(5.0), np.ones((2, 4)), ["a", "b"])

    def test_non_monotone(self):
        for wn in ([0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0], [3.0, 1.0, 2.0, 0.0]):
            with pytest.raises(InvalidDatasetError):
                _dataset(wn)
        assert issubclass(InvalidDatasetError, DataFormatError)

    def test_descending_grid_ok(self):
        data = _dataset([4.0, 3.0, 2.0, 1.0])
        assert data.n_samples == 2

    def test_non_finite(self):
        with pytest.raises(InvalidDatasetError):
            LabeledDataset(np.arange(4.0), np.array([[0.0, np.nan, 0.0, 0.0],
                                                     [0.0, 0.0, 0.0, 0.0]]), ["a", "b"])
        with pytest.raises(InvalidDatasetError):
            _dataset([0.0, 1.0, np.inf, 3.0])


class TestDerivative:
    def test_constant_first(self):
        out = _deriv(np.arange(9.0), np.full(9, 5.0), 1)
        assert np.max(np.abs(out)) <= 1e-12

    def test_linear_ramp(self):
        wn = np.arange(10.0)
        out = _deriv(wn, 3.0 * wn, 1)
        assert np.allclose(out, 3.0, atol=1e-10)

    def test_quadratic_second(self):
        wn = np.arange(12.0)
        out = _deriv(wn, wn ** 2, 2)
        assert np.allclose(out[1:-1], 2.0, atol=1e-9)

    def test_endpoint_stencils_second_order(self):
        # second-order one-sided stencils are exact for quadratics
        wn = np.arange(8.0)
        out = _deriv(wn, wn ** 2, 1)
        assert np.allclose(out, 2.0 * wn, atol=1e-9)
        out2 = _deriv(wn, wn ** 2, 2)
        assert np.allclose(out2, 2.0, atol=1e-9)

    def test_non_uniform_grid_rejected(self):
        wn = np.array([0.0, 1.0, 2.5, 3.0, 4.0, 5.0])
        with pytest.raises(InvalidDatasetError):
            _deriv(wn, np.zeros(6), 1)

    def test_fewer_than_5_points_rejected(self):
        with pytest.raises(InvalidDatasetError, match="at least 5 points"):
            _deriv(np.arange(4.0), np.zeros(4), 2)

    def test_descending_grid_sign(self):
        wn = np.linspace(10.0, 1.0, 10)
        out = _deriv(wn, 2.0 * wn, 1)
        assert np.allclose(out, 2.0, atol=1e-10)

    def test_matrix_matches_single(self):
        rng = np.random.default_rng(0)
        wn = np.arange(16.0)
        block = rng.standard_normal((3, 16))
        out = derivative_matrix(wn, block, 2)
        for i in range(3):
            assert np.allclose(out[i], _deriv(wn, block[i], 2))

    def test_bad_order(self):
        with pytest.raises(InvalidInputError):
            _deriv(np.arange(6.0), np.arange(6.0), 3)


class TestStandardScale:
    def test_feature_axis_stats(self):
        rng = np.random.default_rng(1)
        arr = rng.standard_normal((12, 6)) * 3 + 1
        cfg = PreprocessConfig(center=True, scale=True, axis="feature")
        out = _scale(arr, cfg)
        assert np.max(np.abs(out.mean(axis=0))) <= 1e-12
        assert np.max(np.abs(out.std(axis=0) - 1)) <= 1e-12

    def test_constant_feature_column_zeroed(self):
        arr = np.array([[1.0, 2.0], [1.0, 4.0], [1.0, 9.0]])
        cfg = PreprocessConfig(center=True, scale=True, axis="feature")
        out = _scale(arr, cfg)
        assert np.allclose(out[:, 0], 0.0)

    def test_sample_axis_hand_computed(self):
        arr = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        cfg = PreprocessConfig(center=True, scale=True, axis="sample")
        assert fit_scaler(arr, cfg) is None  # per-row, nothing to fit
        out = _scale(arr, cfg)
        expect = np.array([-1.2247448713915890, 0.0, 1.2247448713915890])
        assert np.allclose(out[0], expect, atol=1e-12)

    def test_identity_when_disabled(self):
        rng = np.random.default_rng(2)
        arr = rng.standard_normal((4, 5))
        cfg = PreprocessConfig(center=False, scale=False)
        out = _scale(arr, cfg)
        assert np.array_equal(out, arr)

    def test_feature_axis_needs_two_samples(self):
        cfg = PreprocessConfig(center=True, axis="feature")
        with pytest.raises(InvalidInputError):
            fit_scaler(np.ones((1, 4)), cfg)

    def test_apply_scaler_requires_stats(self):
        cfg = PreprocessConfig(center=True, axis="feature")
        with pytest.raises(InvalidInputError):
            apply_scaler(np.ones((2, 3)), cfg, None)
        # stats fitted without scaling hold no std to scale by
        stats = fit_scaler(np.eye(3), cfg)
        with pytest.raises(InvalidInputError):
            apply_scaler(np.ones((2, 3)), PreprocessConfig(center=True, scale=True), stats)

    @pytest.mark.parametrize("axis", ["feature", "sample"])
    def test_centring_alone_subtracts_the_mean_and_fits_no_std(self, axis):
        arr = np.asfortranarray(np.random.default_rng(28).standard_normal((7, 33)))
        cfg = PreprocessConfig(center=True, axis=axis)
        stats = fit_scaler(arr, cfg)
        assert stats is None if axis == "sample" else stats.std is None
        mean = arr.mean(axis=0) if axis == "feature" else arr.mean(axis=-1, keepdims=True)
        out = _scale(arr, cfg)
        want = arr - mean
        assert out.strides == want.strides and out.tobytes("A") == want.tobytes("A")


class TestResamplePow2:
    def test_pow2_uniform_unchanged(self):
        # a uniform power-of-two grid is its own target: WTT and DWT skip
        # the resample
        rng = np.random.default_rng(4)
        wn = np.linspace(0, 1, 1024)
        assert np.array_equal(pow2_grid(wn), wn)
        data = LabeledDataset(wn, rng.standard_normal((4, 1024)), ["a", "b"] * 2)
        for decomposition in ({"kind": "wtt", "rank": 1},
                              {"kind": "dwt", "family": "daubechies", "order": 4,
                               "mode": "periodization"}):
            (config,) = expand_grid({
                "preprocess": {}, "decomposition": decomposition,
                "model": {"kind": "hac", "affinity": "euclidean", "linkage": "average"}})
            signals = SignalTable(data)
            fitted = fit_pipeline(config, FoldMemo(signals, np.arange(4)))
            assert signals.target is None
            assert fitted.train_features.shape == (4, 1024)

    def test_pow2_non_uniform_resampled(self):
        # 64 points that are not the uniform grid are resampled onto it
        # before any decomposition: the DWT and WTT read power-of-two
        # signals only
        rng = np.random.default_rng(5)
        wn = np.linspace(0, 1, 64) ** 2
        data = LabeledDataset(wn, rng.standard_normal((4, 64)), ["a", "b"] * 2)
        for decomposition in ({"kind": "wtt", "rank": 1},
                              {"kind": "dwt", "family": "daubechies", "order": 4,
                               "mode": "periodization"}):
            (config,) = expand_grid({
                "preprocess": {}, "decomposition": decomposition,
                "model": {"kind": "hac", "affinity": "euclidean", "linkage": "average"}})
            signals = SignalTable(data)
            fitted = fit_pipeline(config, FoldMemo(signals, np.arange(4)))
            assert signals.target is not None and signals.target.size == 64
            assert fitted.train_features.shape == (4, 64)

    def test_linear_reproduction(self):
        wn = np.linspace(2000.0, 400.0, 1000)
        grid, out = _resample(wn, 0.5 * wn + 3.0)
        assert out.size == 1024
        assert np.allclose(out, 0.5 * grid + 3.0, atol=1e-9)

    def test_sine_interpolation_error(self):
        n = 1000
        wn = np.linspace(0.0, 50.0, n)  # 20 samples per period of sin(2 pi x / 1)
        grid, out = _resample(wn, np.sin(2 * np.pi * wn / 2.5))
        assert out.size == 1024
        err = np.max(np.abs(out - np.sin(2 * np.pi * grid / 2.5)))
        assert err <= 1e-4

    def test_output_grid_uniform_pow2(self):
        rng = np.random.default_rng(3)
        wn = np.sort(rng.uniform(0, 10, 100))
        grid, out = _resample(wn, rng.standard_normal(100))
        n = out.size
        assert n == 128 and (n & (n - 1)) == 0
        assert np.allclose(np.diff(grid), np.diff(grid)[0])

    def test_knot_passthrough(self):
        # resampling a descending grid keeps the endpoints exactly
        wn = np.linspace(100.0, 10.0, 37)
        y = np.cos(wn / 7.0)
        grid, out = _resample(wn, y)
        assert grid[0] == wn[0] and grid[-1] == wn[-1]
        assert abs(out[0] - y[0]) <= 1e-12
        assert abs(out[-1] - y[-1]) <= 1e-12

    def test_pow2_grid_helper(self):
        assert pow2_grid(np.linspace(0, 1, 1000)).size == 1024



def _scipy_resample(wn, y, new_wn):
    """The resample as scipy's natural CubicSpline computes it."""
    from scipy.interpolate import CubicSpline
    if wn[0] > wn[-1]:
        wn, y = wn[::-1], y[:, ::-1]
    return CubicSpline(wn, y, axis=-1, bc_type="natural")(new_wn)


def _assert_bit_identical(out, ref):
    assert out.shape == ref.shape and out.strides == ref.strides
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))


def _spectra(rng, rows, n):
    return 10.0 * rng.standard_normal((rows, n)) + 3.0


class TestSplineMatchesScipy:
    """``resample_matrix`` does the floating-point operations of scipy's
    natural ``CubicSpline`` and its ``PPoly`` evaluation, so the bytes agree."""

    # row counts of a partial block, a full one, a last block of one row
    # and one after two full blocks, besides the workloads' block sizes
    @pytest.mark.parametrize("rows", [1, 60, 250, 500, SPLINE_BLOCK_ROWS - 1,
                                      SPLINE_BLOCK_ROWS, SPLINE_BLOCK_ROWS + 1,
                                      2 * SPLINE_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("n", [2, 3, 4, 50, 801, 1600])
    @pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
    def test_uniform_grid(self, n, rows, descending):
        rng = np.random.default_rng(n * 1000 + rows)
        wn = np.linspace(400.0, 4000.0, n)
        if descending:
            wn = wn[::-1].copy()
        y = _spectra(rng, rows, n)
        grid = pow2_grid(wn) if n > 2 else np.linspace(wn[0], wn[-1], 5)
        _assert_bit_identical(resample_matrix(wn, y, grid), _scipy_resample(wn, y, grid))

    @pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
    def test_knots_and_points_outside_the_grid(self, descending):
        rng = np.random.default_rng(11)
        wn = np.linspace(0.0, 30.0, 31)
        if descending:
            wn = wn[::-1].copy()
        y = _spectra(rng, 60, wn.size)
        points = np.concatenate([wn, [-2.5, -0.25, 30.25, 33.0], wn[:-1] + 0.5])
        _assert_bit_identical(resample_matrix(wn, y, points),
                              _scipy_resample(wn, y, points))

    @pytest.mark.parametrize("rows", [1, 60])
    def test_non_uniform_grid_that_never_doubles_its_spacing(self, rows):
        rng = np.random.default_rng(5)
        h = rng.uniform(1.0, 1.9, 300)  # neighbouring spacings differ < 2x
        wn = np.concatenate([[400.0], 400.0 + np.cumsum(h)])
        y = _spectra(rng, rows, wn.size)
        grid = pow2_grid(wn)
        _assert_bit_identical(resample_matrix(wn, y, grid), _scipy_resample(wn, y, grid))

    @pytest.mark.parametrize("rows", [1, 60])
    def test_spacing_jump_agrees_to_rounding(self, rows):
        """Where the spacing more than doubles from the first interval to
        the second, the first pivot of the slope system is smaller than the
        entry below it, so LAPACK's gtsv, which scipy's spline calls, swaps
        the two rows; this spline never swaps.  Both eliminations solve the
        same diagonally dominant system, so the results differ by rounding
        only."""
        rng = np.random.default_rng(9)
        h = np.concatenate([[1.0, 5.0], rng.uniform(0.2, 6.0, 200)])
        wn = np.concatenate([[0.0], np.cumsum(h)])
        y = _spectra(rng, rows, wn.size)
        grid = pow2_grid(wn)
        out, ref = resample_matrix(wn, y, grid), _scipy_resample(wn, y, grid)
        assert out.strides == ref.strides
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_scratch_memory_is_bounded(self):
        """The coefficient stack is built a block of rows at a time, so a
        500-row block peaks below four times its output (the whole-block
        stack took 7.7 times)."""
        rng = np.random.default_rng(2)
        wn = np.linspace(400.0, 4000.0, 1600)
        y, grid = _spectra(rng, 500, wn.size), pow2_grid(wn)
        tracemalloc.start()
        try:
            out = resample_matrix(wn, y, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (500, 2048)
        assert peak < 4 * out.nbytes


class TestTakeAbs:
    @staticmethod
    def _abs(y):
        """The preprocessing of a take_abs config on a one-row block."""
        y = np.asarray(y, dtype=float)
        pre = Preprocessor(PreprocessConfig(take_abs=True), None)
        return pre.scaled(y[None, :])[0]

    def test_examples(self):
        assert np.array_equal(self._abs([-1.0, 2.0, -3.0, 4.0]), [1.0, 2.0, 3.0, 4.0])
        pos = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(self._abs(pos), pos)

    def test_idempotent(self):
        once = self._abs([-1.0, 2.0, -3.0, 0.0, 5.0])
        assert np.array_equal(self._abs(once), once)


class TestLabeledDataset:
    def test_grid_consistency_enforced(self, tmp_path):
        # samples share the header's grid: a row with one value too many
        path = tmp_path / "ragged.csv"
        path.write_text("label,0,1,2,3\nx,1,1,1,1\ny,1,1,1,1,1\n")
        with pytest.raises(GridMismatchError):
            load_dataset(str(path))

    def test_label_count(self):
        with pytest.raises(InvalidInputError):
            LabeledDataset(np.arange(4.0), np.ones((2, 4)), ["only-one"])
