"""Tests for the synthetic generator's drift smoothing, a numpy transcription
of scipy's ``gaussian_filter1d``, the range of its width, and for numpy being
the package's only runtime dependency."""
import json
from pathlib import Path

import numpy as np
import pytest

from wavefeat import synth
from wavefeat.errors import InvalidInputError
from wavefeat.synth import SyntheticSpec, synth_dataset

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("sigma", [0.8, 1, 2.5, 7.3, 40, 40.05, 100])
@pytest.mark.parametrize("n", [5, 16, 128, 1000, 1600, 2048])
def test_gaussian_smooth_matches_scipy_bit_for_bit(sigma, n):
    # sigma 40 and up on 5 or 16 points reaches past both ends more than once
    from scipy.ndimage import gaussian_filter1d
    x = np.random.default_rng(n).standard_normal(n)
    want = gaussian_filter1d(x, sigma, mode="reflect")
    assert synth._gaussian_smooth(x, sigma).tobytes() == want.tobytes()


def _golden_spec(seed):
    doc = json.loads((ROOT / "tests" / "golden" / "synth.json").read_text())
    return SyntheticSpec(**{k: tuple(v) if isinstance(v, list) else v
                            for k, v in doc.items()}, seed=seed)


@pytest.mark.parametrize("spec", [SyntheticSpec(seed=7), SyntheticSpec(seed=11),
                                  _golden_spec(3), _golden_spec(7)],
                         ids=["default-7", "default-11", "golden-3", "golden-7"])
def test_dataset_equals_the_one_smoothed_by_scipy(monkeypatch, spec):
    from scipy.ndimage import gaussian_filter1d
    ours = synth_dataset(spec)
    monkeypatch.setattr(synth, "_gaussian_smooth",
                        lambda x, sigma: gaussian_filter1d(x, sigma, mode="reflect"))
    theirs = synth_dataset(spec)
    assert ours.intensities.tobytes() == theirs.intensities.tobytes()
    assert ours.wavenumbers.tobytes() == theirs.wavenumbers.tobytes()
    assert ours.labels == theirs.labels


def test_drift_widths_at_the_ends_of_their_range_build_finite_data():
    # sigma of 1e-100 bins squares without underflow, and sigma of
    # 2.5 x grid_points bins has a kernel radius of 10 x grid_points
    small = dict(class_count=2, samples_per_class=(1, 1), grid_points=64)
    bin_width = 1600.0 / 63
    for bins in (synth.MIN_DRIFT_BINS, synth.MAX_DRIFT_BINS_PER_POINT * 64):
        data = synth_dataset(SyntheticSpec(**small, drift_width=bins * bin_width))
        assert np.isfinite(data.intensities).all()
    for bins in (synth.MIN_DRIFT_BINS / 2, synth.MAX_DRIFT_BINS_PER_POINT * 64 * 1.01):
        with pytest.raises(InvalidInputError, match="drift_width must lie in"):
            SyntheticSpec(**small, drift_width=bins * bin_width)


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert "scipy>=1.10" in project["optional-dependencies"]["test"]
