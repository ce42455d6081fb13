"""Bounds on the traced peak memory of the CSV loader and of three kernels
of the 500-spectrum clustering run.

tracemalloc counts the buffers numpy allocates, so each bound is a multiple
of the result's own bytes, plus SLACK for small Python objects.  The
comments give what each call peaked at before the loader streamed its file
and the kernels wrote their outputs in place.
"""
import tracemalloc

import numpy as np
import pytest

from wavefeat import dwt, models, wtt
from wavefeat.dataio import load_dataset, save_dataset
from wavefeat.preprocess import LabeledDataset

SLACK = 64 * 1024


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def spectra():
    return np.random.default_rng(26).standard_normal((500, 2048))


def test_loading_a_csv_holds_about_twice_its_array(tmp_path):
    # 250 rows: three full blocks and a part block.  The loader used to hold
    # every line of the file, and peaked at 3.8 arrays (11.6 MiB for 3.1 MiB)
    rng = np.random.default_rng(0)
    data = LabeledDataset(np.linspace(4000.0, 400.0, 1600), rng.standard_normal((250, 1600)),
                          [f"class {i % 7}" for i in range(250)])
    path = str(tmp_path / "spectra.csv")
    save_dataset(path, data)
    back, peak = _traced_peak(load_dataset, path)
    assert back.intensities.tobytes() == data.intensities.tobytes()
    assert peak <= 2.15 * back.intensities.nbytes + SLACK


@pytest.mark.parametrize("rank, bound", [(1, 2.5), (2, 2.5), (6, 2.75)])
def test_wtt_forward_holds_under_three_outputs(spectra, rank, bound):
    # it used to peak at 3.0, 3.5 and 4.75 outputs at ranks 1, 2 and 6
    # (27.3 MiB at rank 2 and 37.1 MiB at rank 6, for 7.8 MiB of output)
    bank = wtt.train_group_filters(spectra[:60], rank)
    for x in (spectra, np.asfortranarray(spectra)):
        out, peak = _traced_peak(wtt.wtt_forward, x, bank)
        assert peak <= bound * out.nbytes + SLACK


def test_gram_matrix_holds_little_more_than_its_output(spectra):
    # the squares of the whole block used to take the peak to 5.1 outputs
    # (9.7 MiB for 1.9 MiB)
    (g, sq), peak = _traced_peak(models.gram_matrix, spectra)
    assert peak <= g.nbytes + sq.nbytes + SLACK


def test_wavedec_holds_under_two_outputs(spectra):
    # it used to peak at 2.0 outputs: a wrapped copy of each level's input,
    # then the concatenation of the levels (15.6 MiB for 7.8 MiB)
    w = dwt.lookup_wavelet("daubechies", 4)
    for x in (spectra, np.asfortranarray(spectra)):
        out, peak = _traced_peak(dwt.wavedec, x, w, dwt.max_level(x.shape[-1], w))
        assert peak <= 1.8 * out.nbytes + SLACK
