"""Synthetic spectral dataset generator.

Produces class-structured absorbance-like signals on a descending
wavenumber grid: every class shares a set of strong common bands (with
per-sample amplitude jitter and a global scale factor), while class
identity is carried by a few narrow minor bands.  A random smooth
polynomial baseline, a Gaussian-smoothed drift and white noise are added
per sample, which makes raw signals deliberately hard to cluster.

The drift's smoothing is a numpy transcription of scipy's
``gaussian_filter1d`` in reflect mode, byte-identical to it, so the
generator needs numpy only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, is_count, is_number
from .preprocess import LabeledDataset

# (position cm^-1, width cm^-1, base amplitude)
DEFAULT_COMMON_PEAKS = (
    (1650.0, 80.0, 1.00),
    (1540.0, 55.0, 0.75),
    (1450.0, 45.0, 0.55),
    (1240.0, 65.0, 0.60),
    (1050.0, 90.0, 0.90),
    (600.0, 70.0, 0.35),
)

DEFAULT_CLASS_PEAKS = (
    ((1732.0, 10.0, 0.20), (1162.0, 9.0, 0.16), (873.0, 12.0, 0.14)),
    ((1712.0, 11.0, 0.18), (1318.0, 8.0, 0.16), (942.0, 10.0, 0.12)),
    ((1687.0, 9.0, 0.16), (1368.0, 10.0, 0.18), (788.0, 11.0, 0.14)),
    ((1757.0, 8.0, 0.14), (1282.0, 12.0, 0.20), (701.0, 9.0, 0.12)),
    ((1605.0, 9.0, 0.18), (1122.0, 10.0, 0.14), (843.0, 8.0, 0.16)),
    ((1582.0, 10.0, 0.12), (1412.0, 9.0, 0.20), (917.0, 11.0, 0.14)),
    ((1667.0, 12.0, 0.16), (1215.0, 8.0, 0.12), (758.0, 10.0, 0.18)),
)


# the drift's Gaussian width in grid bins: squared, it must not underflow,
# and its kernel radius int(4 sigma + 0.5) is at most 10 x grid_points
MIN_DRIFT_BINS = 1e-100
MAX_DRIFT_BINS_PER_POINT = 2.5


@dataclass(frozen=True)
class SyntheticSpec:
    class_count: int = 7
    samples_per_class: tuple = (12, 11, 12, 11, 14, 9, 11)
    grid_start: float = 2000.0
    grid_end: float = 400.0
    grid_points: int = 1600
    common_peaks: tuple = DEFAULT_COMMON_PEAKS
    class_peaks: tuple = DEFAULT_CLASS_PEAKS
    amplitude_jitter: float = 0.15
    scale_jitter: float = 0.08
    shift_jitter: float = 0.5  # cm^-1, per-sample wavenumber calibration drift
    baseline_degree: int = 2
    baseline_scale: float = 0.20
    drift_sigma: float = 0.10  # smooth correlated disturbance amplitude
    drift_width: float = 40.0  # cm^-1 correlation length of the drift
    noise_sigma: float = 0.008
    seed: int = 7

    def __post_init__(self):
        if not all(is_count(getattr(self, name)) for name in
                   ("class_count", "grid_points", "baseline_degree", "seed")):
            raise InvalidInputError(
                "class_count, grid_points, baseline_degree and seed must be integers")
        if not all(is_number(getattr(self, name)) for name in (
                "grid_start", "grid_end", "amplitude_jitter", "scale_jitter",
                "shift_jitter", "baseline_scale", "drift_sigma", "drift_width",
                "noise_sigma")):
            raise InvalidInputError("grid ends, jitters, scales, sigmas and widths "
                                    "must be finite numbers")
        if self.class_count < 1 or self.grid_points < 8:
            raise InvalidInputError("class_count and grid_points must be positive")
        if self.baseline_degree < 0 or self.seed < 0:
            raise InvalidInputError("baseline_degree and seed must not be negative")
        if self.drift_width <= 0:
            raise InvalidInputError("drift_width must be positive")
        bin_width = abs(self.grid_end - self.grid_start) / (self.grid_points - 1)
        lo = MIN_DRIFT_BINS * bin_width
        hi = MAX_DRIFT_BINS_PER_POINT * self.grid_points * bin_width
        if not lo <= self.drift_width <= hi:
            raise InvalidInputError(
                f"drift_width must lie in [{lo:g}, {hi:g}] cm^-1, that is "
                f"{MIN_DRIFT_BINS:g} to {MAX_DRIFT_BINS_PER_POINT:g} x grid_points "
                f"grid bins, got {self.drift_width!r}")
        if (not _is_list(self.samples_per_class)
                or len(self.samples_per_class) != self.class_count
                or not all(is_count(c) for c in self.samples_per_class)):
            raise InvalidInputError(
                "samples_per_class must list one integer count per class")
        if any(c < 1 for c in self.samples_per_class):
            raise InvalidInputError("every class needs at least one sample")
        if not _is_list(self.class_peaks) or len(self.class_peaks) < self.class_count:
            raise InvalidInputError("need a peak set per class")
        lo, hi = sorted((self.grid_start, self.grid_end))
        for peaks in (self.common_peaks, *self.class_peaks[:self.class_count]):
            if not (_is_list(peaks) and all(
                    _is_list(peak) and len(peak) == 3 and all(map(is_number, peak))
                    for peak in peaks)):
                raise InvalidInputError(
                    "a peak set lists peaks of three numbers: position, width, "
                    "amplitude")
            for pos, width, amp in peaks:
                if not lo <= pos <= hi:
                    raise InvalidInputError(f"peak at {pos} outside grid range")
                if width <= 0 or amp <= 0:
                    raise InvalidInputError("peak widths and amplitudes must be positive")


def _is_list(value) -> bool:
    return isinstance(value, (tuple, list))


def _gauss(wn: np.ndarray, pos: float, width: float) -> np.ndarray:
    return np.exp(-0.5 * ((wn - pos) / width) ** 2)


def _gaussian_smooth(x: np.ndarray, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter1d(x, sigma, mode="reflect")``, byte
    for byte: the kernel of scipy's ``_gaussian_kernel1d``, cut at 4 sigma,
    on the half-sample mirror of x, summed in the order of the symmetric
    branch of its ``NI_Correlate1D``, outermost pair of taps first."""
    r = int(4.0 * float(sigma) + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = w / w.sum()
    n = x.shape[0]
    ext = np.pad(x, r, mode="symmetric")
    out = ext[r:r + n] * w[r]
    for j in range(r, 0, -1):
        out += (ext[r - j:r - j + n] + ext[r + j:r + j + n]) * w[r - j]
    return out


def _smooth_drift(rng, n: int, width_bins: float, sigma: float) -> np.ndarray:
    """Unit-normalized Gaussian-smoothed noise scaled to sigma: one draw of
    n normals per sample, smoothed by ``_gaussian_smooth``."""
    raw = _gaussian_smooth(rng.standard_normal(n), width_bins)
    std = raw.std()
    if std == 0:
        return np.zeros(n)
    return sigma * raw / std


def synth_dataset(spec: SyntheticSpec = SyntheticSpec()) -> LabeledDataset:
    """Generate the dataset deterministically from spec.seed."""
    rng = np.random.default_rng(spec.seed)
    wn = np.linspace(spec.grid_start, spec.grid_end, spec.grid_points)
    t = np.linspace(0.0, 1.0, spec.grid_points)
    bin_width = abs(wn[1] - wn[0])
    drift_bins = spec.drift_width / bin_width
    rows, labels = [], []
    for cls in range(spec.class_count):
        peaks = list(spec.common_peaks) + list(spec.class_peaks[cls])
        positions = np.array([p for p, _, _ in peaks])
        widths = np.array([w for _, w, _ in peaks])
        base_amp = np.array([a for _, _, a in peaks])
        for _ in range(spec.samples_per_class[cls]):
            jit = 1.0 + spec.amplitude_jitter * rng.standard_normal(len(peaks))
            scale = 1.0 + spec.scale_jitter * rng.standard_normal()
            shift = spec.shift_jitter * rng.standard_normal()
            shapes = np.stack([_gauss(wn, p + shift, w)
                               for p, w in zip(positions, widths)])
            signal = scale * ((base_amp * jit) @ shapes)
            coeffs = spec.baseline_scale * rng.standard_normal(spec.baseline_degree + 1)
            baseline = np.polynomial.polynomial.polyval(t, coeffs)
            drift = _smooth_drift(rng, spec.grid_points, drift_bins, spec.drift_sigma)
            noise = spec.noise_sigma * rng.standard_normal(spec.grid_points)
            rows.append(signal + baseline + drift + noise)
            labels.append(f"class_{cls}")
    return LabeledDataset(wn, np.stack(rows), labels)
