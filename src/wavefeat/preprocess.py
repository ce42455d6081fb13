"""The dataset container and the block preprocessing steps.

``LabeledDataset`` holds spectra that share one strictly monotone
wavenumber grid (ascending or descending), with one label per sample.  The
steps work along the intensity axis of (n_samples, n_points) blocks:
finite-difference derivatives, natural cubic-spline resampling onto a
power-of-two grid, and centering and scaling along the feature axis (with
statistics fitted on a training block) or the sample axis.  The pipeline
runs them in that order (derivative and resample in ``harness.SignalTable``,
the scaler in ``harness.Preprocessor``), then the optional absolute value.

The spline is written in numpy so that importing the package loads no scipy
module (scipy's interpolation package alone took most of the start-up of
every process).  It does the floating-point operations of scipy's
``CubicSpline(x, y, axis=-1, bc_type="natural")`` and the evaluation of the
``PPoly`` it builds, so its output is byte-identical wherever LAPACK's
``gtsv``, which that spline calls, makes no row interchange: always on a
uniform grid, and on any grid whose spacing does not more than double between
neighbouring intervals.  Elsewhere the two agree to rounding.  It solves the
knot slopes of all rows in one pass, then builds and evaluates the
polynomial pieces ``SPLINE_BLOCK_ROWS`` rows at a time: each row's
arithmetic is unchanged, and the scratch memory stays a small multiple of
the output.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDatasetError, InvalidInputError, is_count

DERIVATIVE_ORDERS = (0, 1, 2)
SCALE_AXES = ("feature", "sample")
# rows of one coefficient stack in resample_matrix
SPLINE_BLOCK_ROWS = 64


@dataclass
class LabeledDataset:
    """Spectra sharing one wavenumber grid, with one class label per sample."""

    wavenumbers: np.ndarray
    intensities: np.ndarray  # shape (n_samples, n_points)
    labels: list = field(default_factory=list)

    def __post_init__(self):
        self.wavenumbers = np.asarray(self.wavenumbers, dtype=float)
        self.intensities = np.asarray(self.intensities, dtype=float)
        self.labels = list(self.labels)
        if self.intensities.ndim != 2:
            raise InvalidInputError("intensities must be (n_samples, n_points)")
        if self.intensities.shape[0] < 2:
            raise InvalidInputError("dataset needs at least 2 samples")
        if self.intensities.shape[1] != self.wavenumbers.size:
            raise InvalidInputError("grid length does not match sample length")
        if self.wavenumbers.size == 0:
            raise InvalidInputError("wavenumber grid has no points")
        if len(self.labels) != self.intensities.shape[0]:
            raise InvalidInputError("one label per sample required")
        if not (np.all(np.isfinite(self.wavenumbers))
                and np.all(np.isfinite(self.intensities))):
            raise InvalidDatasetError("dataset contains non-finite values")
        d = np.diff(self.wavenumbers)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise InvalidDatasetError("wavenumber grid must be strictly monotone")

    @property
    def n_samples(self) -> int:
        return self.intensities.shape[0]


@dataclass(frozen=True)
class PreprocessConfig:
    derivative_order: int = 0
    center: bool = False
    scale: bool = False
    axis: str = "feature"
    take_abs: bool = False

    def __post_init__(self):
        if not (is_count(self.derivative_order)
                and self.derivative_order in DERIVATIVE_ORDERS):
            raise InvalidInputError(f"derivative_order must be one of "
                                    f"{DERIVATIVE_ORDERS}, got {self.derivative_order!r}")
        for name in ("center", "scale", "take_abs"):
            if not isinstance(getattr(self, name), bool):
                raise InvalidInputError(
                    f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.axis not in SCALE_AXES:
            raise InvalidInputError(f"axis must be one of {SCALE_AXES}")


def _uniform_spacing(wn: np.ndarray) -> float:
    d = np.diff(wn)
    h = d.mean()
    if np.max(np.abs(d - h)) > 1e-6 * abs(h):
        raise InvalidDatasetError("derivative requires a uniform wavenumber grid")
    return float(h)


def derivative_matrix(wavenumbers: np.ndarray, y: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference derivative of every row of an (n_samples, n_points)
    block on a uniform grid, second-order accurate.

    Central stencils on interior points, one-sided second-order stencils at
    the two endpoints; the output has the shape of the input.  Order 0
    returns the block itself.  A grid that is not uniform or has fewer
    than 5 points is a fault of the dataset: InvalidDatasetError.
    """
    if order == 0:
        return y
    if order not in (1, 2):
        raise InvalidInputError("order must be 1 or 2")
    if y.shape[-1] < 5:
        raise InvalidDatasetError("derivative needs at least 5 points")
    h = _uniform_spacing(np.asarray(wavenumbers, dtype=float))
    out = np.empty_like(y)
    if order == 1:
        out[..., 1:-1] = (y[..., 2:] - y[..., :-2]) / (2.0 * h)
        out[..., 0] = (-3.0 * y[..., 0] + 4.0 * y[..., 1] - y[..., 2]) / (2.0 * h)
        out[..., -1] = (3.0 * y[..., -1] - 4.0 * y[..., -2] + y[..., -3]) / (2.0 * h)
    else:
        h2 = h * h
        out[..., 1:-1] = (y[..., 2:] - 2.0 * y[..., 1:-1] + y[..., :-2]) / h2
        out[..., 0] = (2.0 * y[..., 0] - 5.0 * y[..., 1] + 4.0 * y[..., 2] - y[..., 3]) / h2
        out[..., -1] = (2.0 * y[..., -1] - 5.0 * y[..., -2] + 4.0 * y[..., -3] - y[..., -4]) / h2
    return out


@dataclass(frozen=True)
class ScalerStats:
    """Feature-axis statistics learned on a training block."""

    mean: np.ndarray
    # None unless the config scales; zero-variance positions carry std = 0
    # and are never divided
    std: np.ndarray | None


def fit_scaler(y: np.ndarray, cfg: PreprocessConfig) -> ScalerStats | None:
    """Learn feature-axis mean, and std when the config scales, on a
    training block; None if stateless."""
    if cfg.axis != "feature" or not (cfg.center or cfg.scale):
        return None
    if y.shape[0] < 2:
        raise InvalidInputError("feature-axis scaling needs at least 2 samples")
    std = y.std(axis=0) if cfg.scale else None  # population (divisor N)
    return ScalerStats(mean=y.mean(axis=0), std=std)


def apply_scaler(y: np.ndarray, cfg: PreprocessConfig, stats: ScalerStats | None) -> np.ndarray:
    """Center and/or scale a block along the configured axis.

    Feature axis uses the fitted stats; sample axis is per-row and stateless.
    Zero-variance positions are centered but never divided.
    """
    if not (cfg.center or cfg.scale):
        return y
    if cfg.axis == "feature":
        if stats is None or (cfg.scale and stats.std is None):
            raise InvalidInputError("feature-axis scaling requires fitted stats")
        mean, std = stats.mean, stats.std
    else:
        mean = y.mean(axis=-1, keepdims=True)
        std = y.std(axis=-1, keepdims=True) if cfg.scale else None
    out = y
    if cfg.center:
        out = out - mean
    if cfg.scale:
        out = out / np.where(std > 0, std, 1.0)
    return out


def pow2_grid(wavenumbers: np.ndarray) -> np.ndarray:
    """Uniform grid of 2^ceil(log2 n) points spanning the input range."""
    wn = np.asarray(wavenumbers, dtype=float)
    n = wn.size
    target = 1 << int(np.ceil(np.log2(n)))
    return np.linspace(wn[0], wn[-1], target)


def _natural_slopes(h: list[float], b: np.ndarray) -> np.ndarray:
    """Solve the natural spline's tridiagonal system for the knot slopes,
    in place in the right-hand side b of shape (n_points, rows).

    This is LAPACK ``dgtsv``'s elimination without row interchanges: the
    diagonals are Python floats, and each knot updates all rows with one
    ufunc call per operation, forward, then back substitution.
    """
    n = len(h) + 1
    d = [2 * h[0]] + [2 * (h[i - 1] + h[i]) for i in range(1, n - 1)] + [2 * h[-1]]
    du = [h[0]] + h[:-1]
    dl = h[1:] + [h[-1]]
    rows = list(b)
    tmp = np.empty(b.shape[1:])
    for i in range(n - 1):
        fact = dl[i] / d[i]
        d[i + 1] -= fact * du[i]
        np.multiply(rows[i], fact, out=tmp)
        np.subtract(rows[i + 1], tmp, out=rows[i + 1])
    np.divide(rows[-1], d[-1], out=rows[-1])
    for i in range(n - 2, -1, -1):
        np.multiply(rows[i + 1], du[i], out=tmp)
        np.subtract(rows[i], tmp, out=rows[i])
        np.divide(rows[i], d[i], out=rows[i])
    return b


def resample_matrix(wavenumbers: np.ndarray, y: np.ndarray, new_wn: np.ndarray) -> np.ndarray:
    """Natural cubic spline resample of an (n_samples, n_points) block.

    The spline through each row has zero second derivative at both ends; it
    is evaluated at new_wn, and points outside the grid extrapolate the end
    pieces.  The output, of shape (n_samples, new_wn.size), is byte-identical
    to scipy's ``CubicSpline(x, y, axis=-1, bc_type="natural")(new_wn)`` and
    has its strides, wherever ``gtsv`` makes no row interchange (see the
    module docstring).

    The knot slopes of all rows are solved in one pass.  The polynomial
    coefficients are then built, as ``PPoly`` holds them, for
    ``SPLINE_BLOCK_ROWS`` rows at a time into one reused
    (4, n_points - 1, block) stack, and each block is evaluated into its
    columns of the output.  Every operation acts on each row alone, so the
    blocks change no byte; they bound the scratch memory to about three
    times the output.
    """
    x = np.asarray(wavenumbers, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if x[0] > x[-1]:  # the spline runs over increasing x
        x = x[::-1]
        y = y[:, ::-1]
    y = y.T  # (n_points, rows): one knot per row, as scipy's moveaxis
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    b = np.empty(y.shape)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    # the end rows of scipy's system, with the second derivative 0.0
    b[0] = -0.5 * 0.0 * dx[0] ** 2 + 3 * (y[1] - y[0])
    b[-1] = 0.5 * 0.0 * dx[-1] ** 2 + 3 * (y[-1] - y[-2])
    s = _natural_slopes(dx.tolist(), b)
    new = np.asarray(new_wn, dtype=float)
    idx = np.clip(np.searchsorted(x, new, "right") - 1, 0, n - 2)
    h = (new - x[idx])[:, None]
    h2 = h * h
    h3 = h2 * h
    rows = y.shape[1]
    res = np.empty((new.size, rows))  # returned transposed, as PPoly's output
    width = min(SPLINE_BLOCK_ROWS, rows)
    stack = np.empty(4 * (n - 1) * width)
    terms = np.empty(new.size * width)
    for lo in range(0, rows, SPLINE_BLOCK_ROWS):
        hi = min(lo + SPLINE_BLOCK_ROWS, rows)
        w, cols = hi - lo, slice(lo, hi)
        # contiguous buffers, and mode "clip" for indices already in range,
        # so that np.take neither copies its input nor buffers its output
        c = stack[:4 * (n - 1) * w].reshape(4, n - 1, w)  # highest power first
        term = terms[:new.size * w].reshape(new.size, w)
        sb, sl = s[:, cols], slope[:, cols]
        t = np.add(sb[:-1], sb[1:], out=c[0])
        t -= 2 * sl
        t /= dxr
        np.subtract(sl, sb[:-1], out=c[1])
        c[1] /= dxr
        c[1] -= t
        t /= dxr
        c[2] = sb[:-1]
        c[3] = y[:-1, cols]
        out = res[:, cols]
        np.take(c[3], idx, axis=0, out=term, mode="clip")
        np.add(term, 0.0, out=out)  # PPoly sums from 0.0, which turns -0.0 into 0.0
        np.take(c[2], idx, axis=0, out=term, mode="clip")
        term *= h
        out += term
        np.take(c[1], idx, axis=0, out=term, mode="clip")
        term *= h2
        out += term
        np.take(c[0], idx, axis=0, out=term, mode="clip")
        term *= h3
        out += term
    return res.T
