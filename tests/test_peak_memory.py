"""Bounds on the traced peak memory of the CSV loader, of four kernels and
of a final clustering of the 500-spectrum clustering run.

tracemalloc counts the buffers numpy allocates, so each bound is a multiple
of the result's own bytes, or of the input's, plus SLACK for small Python
objects.  The comments give what each call peaked at before the loader
streamed its file, the kernels wrote their outputs in place and ran in row
blocks, and a final clustering kept one stage's output at a time.
"""
import tracemalloc

import numpy as np
import pytest

from wavefeat import dwt, harness, models, synth, wtt
from wavefeat.dataio import load_dataset, save_dataset
from wavefeat.grids import expand_grid
from wavefeat.metrics import adjusted_mutual_info, adjusted_rand, fowlkes_mallows
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


@pytest.mark.parametrize("rank, blocks", [(1, 2.5), (2, 2.5), (6, 2.75)])
def test_wtt_forward_holds_under_three_outputs(spectra, rank, blocks):
    # its output and a few 64-row blocks.  It used to peak at 3.0, 3.5 and
    # 4.75 outputs at ranks 1, 2 and 6 (27.3 MiB at rank 2 and 37.1 MiB at
    # rank 6, for 7.8 MiB of output), then, writing in place, at 2.5, 2.5
    # and 2.75 outputs before it ran one row block at a time
    bank = wtt.train_group_filters(spectra[:60], rank)
    block = wtt.FORWARD_BLOCK_ROWS * spectra.shape[1] * spectra.itemsize
    for x in (spectra, np.asfortranarray(spectra)):
        out, peak = _traced_peak(wtt.wtt_forward, x, bank)
        assert peak <= out.nbytes + blocks * block + SLACK


@pytest.mark.parametrize("rank", [1, 2, 6])
def test_training_holds_one_copy_of_its_input(spectra, rank):
    # column-major, as the spline hands it.  It used to peak at 2.0 inputs
    # (15.6 MiB for 7.8 MiB): a reshaped copy of the block, then the whole
    # product of each level
    x = np.asfortranarray(spectra)
    _, peak = _traced_peak(wtt.train_group_filters, x, rank)
    assert peak <= 1.15 * x.nbytes + SLACK


def test_gram_matrix_holds_little_more_than_its_output(spectra):
    # the squares of the whole block used to take the peak to 5.1 outputs
    # (9.7 MiB for 1.9 MiB)
    (g, sq), peak = _traced_peak(models.gram_matrix, spectra)
    assert peak <= g.nbytes + sq.nbytes + SLACK


def test_wavedec_holds_under_two_outputs(spectra):
    # its output and one 64-row block.  It used to peak at 2.0 outputs: a
    # wrapped copy of each level's input, then the concatenation of the
    # levels (15.6 MiB for 7.8 MiB); then at 1.76 outputs before it ran one
    # row block at a time
    w = dwt.lookup_wavelet("daubechies", 4)
    block = dwt.DEC_BLOCK_ROWS * spectra.shape[1] * spectra.itemsize
    for x in (spectra, np.asfortranarray(spectra)):
        out, peak = _traced_peak(dwt.wavedec, x, w, dwt.max_level(x.shape[-1], w))
        assert peak <= out.nbytes + block + SLACK


@pytest.mark.parametrize("decomposition, model", [
    ({"kind": "wtt", "rank": 2}, {"kind": "hac", "affinity": "cosine", "linkage": "average"}),
    ({"kind": "dwt", "family": "daubechies", "order": 4, "mode": "periodization"},
     {"kind": "hac", "affinity": "euclidean", "linkage": "ward"}),
])
def test_a_final_clustering_holds_one_stage_output_at_a_time(decomposition, model):
    # 500 spectra, as the cluster-large workload clusters them.  The memo of
    # every stage's output used to take the peak to 3.75 of the table's
    # power-of-two blocks (29.3 MiB for 7.8 MiB)
    data = synth.synth_dataset(synth.SyntheticSpec(
        seed=7, samples_per_class=(72, 71, 72, 71, 72, 71, 71)))
    (config,) = expand_grid({
        "preprocess": {"derivative_order": 0, "center": True},
        "decomposition": decomposition,
        "transform": {"kind": "contrast", "tau_quantile": 0.9}, "model": model})
    signals = harness.SignalTable(data)
    full = signals.block(0, True)
    (tree, scores), peak = _traced_peak(harness.final_clustering, config, signals)
    assert peak <= 2.5 * full.nbytes + SLACK
    # the same tree and scores as a fit through a memo that stores the stages
    rows = np.arange(data.n_samples)
    stored = harness.fit_pipeline(config, harness.FoldMemo(signals, rows)).model
    assert tree == stored
    pred = models.cut_tree(stored, len(set(data.labels)))
    assert scores == {"ari": adjusted_rand(data.labels, pred),
                      "ami": adjusted_mutual_info(data.labels, pred),
                      "fm": fowlkes_mallows(data.labels, pred)}
