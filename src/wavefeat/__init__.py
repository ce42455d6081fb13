"""Wavelet and tensor-train feature extraction for 1-D spectral data."""

import os
import sys

# numpy's OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads, and a
# product summed by 2 threads rounds differently from one summed by 1, so a
# run's output bytes would follow the thread count of the shell that
# launched it.  The study's blocks (tens to hundreds of rows) gain nothing
# from more threads, so every process that imports this package before
# numpy, as the CLI does, runs BLAS on one thread, whatever the launching
# shell set.  A caller that imported numpy first keeps its own setting.
# Other BLAS builds (MKL, Accelerate) read other variables and are not
# covered.
if "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from . import dataio, dwt, features, grids, harness, metrics, models, numerics, preprocess, synth, wtt  # noqa: E402,F401
