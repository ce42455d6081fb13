"""Tests for the pipeline stage list, its per-fold memo, grid search,
repeated CV and the seeded splits."""
import dataclasses
import warnings
import weakref

import numpy as np
import pytest

from wavefeat import harness, models, wtt
from wavefeat.errors import InvalidConfigError, InvalidInputError
from wavefeat.grids import expand_grid, grid_for_task, load_grid_document
from wavefeat.harness import (FoldMemo, SignalTable, fit_pipeline, grid_search,
                              kfold_split, repeated_cv)
from wavefeat.metrics import (accuracy, adjusted_mutual_info, adjusted_rand, f1_weighted,
                              fowlkes_mallows)
from wavefeat.preprocess import LabeledDataset
from wavefeat.synth import SyntheticSpec, synth_dataset

# 100 points: not a power of two, so WTT configs resample to 128
SPEC = SyntheticSpec(class_count=3, samples_per_class=(6, 5, 6), grid_points=100,
                     seed=5)

CLASSIFICATION_GRID = {
    "preprocess": {"derivative_order": [0, 1], "center": True},
    "decomposition": [
        {"kind": "none"},
        {"kind": "dwt", "family": "daubechies", "order": 4, "mode": "periodization"},
        {"kind": "wtt", "rank": [1, 3]},
    ],
    "transform": [
        {"kind": "none"},
        {"kind": "threshold", "threshold_kind": "hard", "tau_quantile": 0.9},
        {"kind": "sign", "tau_quantile": 0.9},
    ],
    "model": [
        {"kind": "lda"},
        {"kind": "lr", "penalty": ["l2", "l1"], "inverse_reg": 10.0},
    ],
}


@pytest.fixture(scope="module")
def data():
    return synth_dataset(SPEC)


@pytest.fixture(scope="module")
def clustering_grid():
    return grid_for_task(load_grid_document(), "clustering")


def _fit(config, data, rows, held_out=None):
    """A fresh fit on the rows of ``data``: its own table and memo."""
    return fit_pipeline(config, FoldMemo(SignalTable(data), rows, held_out))


def _config(decomposition, transform, model, derivative_order=0):
    # a section without lists expands to exactly one config
    (config,) = expand_grid({
        "preprocess": {"derivative_order": derivative_order, "center": True},
        "decomposition": decomposition, "transform": transform, "model": model})
    return config


# ----------------------------------------------------------------------
# grid search against per-config evaluation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("grid_name", ["clustering", "classification"])
def test_grid_search_equals_fresh_memo_per_config(data, clustering_grid, grid_name):
    grid = (clustering_grid if grid_name == "clustering"
            else expand_grid(CLASSIFICATION_GRID))
    folds = kfold_split(data.n_samples, 3, 2)
    result = grid_search(grid, SignalTable(data), folds)
    by_label = {r.config.label(): r for r in result.leaderboard}
    assert len(by_label) == len(grid)
    for config in grid:
        alone = repeated_cv([config], SignalTable(data), [folds])[0][0]
        shared = by_label[config.label()]
        assert shared.per_fold == alone.per_fold, config.label()
        assert shared.lr_fits == alone.lr_fits


def test_clustering_grid_search_equals_one_run_per_config(data, monkeypatch):
    # 32 complete, average and ward configs against 11 or 12 fitting rows:
    # each fold links its matrices side by side, a config alone one by one
    grid = expand_grid({
        "preprocess": {"derivative_order": [0, 1], "center": True},
        "decomposition": [{"kind": "none"}, {"kind": "wtt", "rank": 2}],
        "model": [{"kind": "hac", "affinity": "euclidean",
                   "linkage": list(models.LINKAGES)},
                  {"kind": "hac", "affinity": ["cosine", "manhattan"],
                   "linkage": ["single", "complete", "average"]}],
    })
    calls = []
    original = models.hac_fit

    def recorded(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(models, "hac_fit", recorded)
    folds = kfold_split(data.n_samples, 3, 2)
    result = grid_search(grid, SignalTable(data), folds)
    stacks = calls[:]
    assert [len(trees) for trees in stacks] == [len(grid)] * 3
    alone = []
    for i, config in enumerate(grid):
        calls.clear()
        alone.append(repeated_cv([config], SignalTable(data), [folds])[0][0])
        assert [trees[0].merges for trees in calls] == [
            trees[i].merges for trees in stacks], config.label()
    order = sorted(range(len(grid)), key=lambda i: (-alone[i].means["ari"], i))
    assert [r.config for r in result.leaderboard] == [grid[i] for i in order]
    for i, report in zip(order, result.leaderboard):
        assert report.per_fold == alone[i].per_fold
        assert [set(row) for row in report.per_fold] == [{"ari"}] * 3


def test_repeated_cv_equals_per_config_repeats(data):
    grid = expand_grid(CLASSIFICATION_GRID)
    splits = [kfold_split(data.n_samples, 3, seed) for seed in (5, 6)]
    reports, _, _ = repeated_cv(grid, SignalTable(data), splits)
    assert [r.config for r in reports] == list(grid)
    for config, report in zip(grid, reports):
        alone = [repeated_cv([config], SignalTable(data), [folds])[0][0]
                 for folds in splits]
        assert report.per_fold == alone[0].per_fold + alone[1].per_fold, config.label()
        assert report.lr_fits == alone[0].lr_fits + alone[1].lr_fits
        assert report.warnings == alone[0].warnings + alone[1].warnings
        assert (report.n_folds, report.n_runs) == (3, 6)


@pytest.mark.parametrize("grid_name", ["clustering", "classification"])
def test_repeated_cv_sums_the_counters_of_its_splits(data, clustering_grid, grid_name):
    grid = (clustering_grid if grid_name == "clustering"
            else expand_grid(CLASSIFICATION_GRID))
    splits = [kfold_split(data.n_samples, 3, seed) for seed in (5, 6)]
    _, fits, hits = repeated_cv(grid, SignalTable(data), splits)
    alone = [repeated_cv(grid, SignalTable(data), [folds])[1:] for folds in splits]
    for i, summed in enumerate((fits, hits)):
        assert list(summed) == list(FoldMemo.NAMES)
        assert summed == {name: alone[0][i][name] + alone[1][i][name]
                          for name in FoldMemo.NAMES}
    assert fits["model"] == 2 * 3 * len(grid)


def test_wtt_trainings_equal_distinct_fold_preprocess_rank_keys(
        data, clustering_grid, monkeypatch):
    calls = []
    original = wtt.train_group_filters

    def counted(signals, rank):
        calls.append(rank)
        return original(signals, rank)

    monkeypatch.setattr(wtt, "train_group_filters", counted)
    k = 3
    result = grid_search(clustering_grid, SignalTable(data),
                         kfold_split(data.n_samples, k, 2))
    keys = {(c.preprocess, c.decomposition.rank) for c in clustering_grid
            if isinstance(c.decomposition, harness.WttSpec)}
    assert len(calls) == k * len(keys) == 18
    # every config fits its own model; every other stage is mostly shared
    assert result.fits["model"] == k * len(clustering_grid)
    assert result.memo_hits["model"] == 0
    for stage in ("preprocess", "decompose", "features", "distances"):
        assert result.fits[stage] + result.memo_hits[stage] > result.fits[stage] > 0
    # each (preprocess, pow2) key once per fold: three derivative orders,
    # with and without the resample that every decomposition reads
    assert result.fits["preprocess"] == k * 3 * 2


def test_cross_validate_scores_equal_fresh_fits_on_raw_held_out_rows(data):
    # WTT ranks 1 and 3 on 100 points resampled to 128: the signal rows are
    # sliced out of column-major table blocks
    grid = expand_grid(CLASSIFICATION_GRID)
    folds = kfold_split(data.n_samples, 3, 2)
    reports, _, _ = repeated_cv(grid, SignalTable(data), [folds])
    for config, report in zip(grid, reports):
        for fold, row in zip(folds, report.per_fold):
            rest = np.setdiff1d(np.arange(data.n_samples), fold)
            fitted = _fit(config, data, rest, fold)
            scores = {}
            for part, idx, feats in (("train", rest, fitted.train_features),
                                     ("test", fold, fitted.held_out_features)):
                true = [data.labels[i] for i in idx]
                pred = harness.STAGES[-1].apply(fitted.model, feats)
                scores[f"{part}_accuracy"] = accuracy(true, pred)
                scores[f"{part}_f1"] = f1_weighted(true, pred)
            assert row == scores, config.label()


def test_perturbed_held_out_rows_leave_the_fold_fits_unchanged(data):
    grid = expand_grid(CLASSIFICATION_GRID)
    fold = kfold_split(data.n_samples, 3, 2)[0]
    perturbed = data.intensities.copy()
    rng = np.random.default_rng(0)
    perturbed[fold] += rng.normal(0.0, 5.0, size=perturbed[fold].shape)
    other = LabeledDataset(data.wavenumbers, perturbed, data.labels)
    # the signal table of each run covers every row, the perturbed ones too
    a = repeated_cv(grid, SignalTable(data), [[fold]])[0]
    b = repeated_cv(grid, SignalTable(other), [[fold]])[0]
    for x, y in zip(a, b):
        for name in ("train_accuracy", "train_f1"):
            assert x.per_fold[0][name] == y.per_fold[0][name], x.config.label()
        assert x.lr_fits == y.lr_fits
    assert any(x.per_fold[0]["test_accuracy"] != y.per_fold[0]["test_accuracy"]
               for x, y in zip(a, b))


@pytest.mark.parametrize("grid_name", ["clustering", "classification"])
def test_each_cv_run_computes_each_signal_once(data, clustering_grid, monkeypatch,
                                               grid_name):
    calls = {"derivative": [], "resample": []}
    derivative, resample = harness.derivative_matrix, harness.resample_matrix

    def counted_derivative(wn, y, order):
        calls["derivative"].append(order)
        return derivative(wn, y, order)

    def counted_resample(wn, y, new_wn):
        calls["resample"].append(y.shape)
        return resample(wn, y, new_wn)

    monkeypatch.setattr(harness, "derivative_matrix", counted_derivative)
    monkeypatch.setattr(harness, "resample_matrix", counted_resample)
    if grid_name == "clustering":
        grid = clustering_grid
        grid_search(grid, SignalTable(data), kfold_split(data.n_samples, 3, 2))
    else:
        grid = expand_grid(CLASSIFICATION_GRID)
        # one run over both repeats
        repeated_cv(grid, SignalTable(data),
                    [kfold_split(data.n_samples, 3, seed) for seed in (5, 6)])
    orders = sorted({c.preprocess.derivative_order for c in grid})
    pow2_orders = {c.preprocess.derivative_order for c in grid
                   if c.decomposition is not None}
    assert sorted(calls["derivative"]) == orders
    assert calls["resample"] == [data.intensities.shape] * len(pow2_orders)


def test_dwt_and_wtt_read_one_resampled_signal(monkeypatch):
    # the default 1,600-point set: DWT and WTT configs of one derivative
    # order share its one resample, and both give 2,048 coefficients
    data = synth_dataset(SyntheticSpec())
    calls = []
    resample = harness.resample_matrix
    monkeypatch.setattr(harness, "resample_matrix",
                        lambda wn, y, new_wn: calls.append(y.shape) or
                        resample(wn, y, new_wn))
    grid = expand_grid({
        "preprocess": {"derivative_order": 1, "center": True},
        "decomposition": [{"kind": "dwt", "family": "daubechies", "order": 4,
                           "mode": "periodization"}, {"kind": "wtt", "rank": 2}],
        "model": {"kind": "hac", "affinity": "euclidean", "linkage": "average"}})
    rows = np.arange(data.n_samples)
    memo = FoldMemo(SignalTable(data), rows)
    fitted = [fit_pipeline(config, memo) for config in grid]
    assert calls == [data.intensities.shape] == [(80, 1600)]
    assert [f.train_features.shape for f in fitted] == [(80, 2048)] * 2


# ----------------------------------------------------------------------
# the stage list
# ----------------------------------------------------------------------

LEAKAGE_CONFIGS = [
    _config({"kind": "wtt", "rank": 3},
            {"kind": "threshold", "threshold_kind": "soft", "tau_quantile": 0.9},
            {"kind": "lr", "penalty": "l2", "inverse_reg": 10.0}),
    _config({"kind": "dwt", "family": "daubechies", "order": 4,
             "mode": "periodization"},
            {"kind": "sign", "tau_quantile": 0.9}, {"kind": "lda"},
            derivative_order=1),
    _config({"kind": "wtt", "rank": 2}, {"kind": "contrast", "tau_quantile": 0.95},
            {"kind": "hac", "affinity": "cosine", "linkage": "average"}),
]


def _assert_identical(a, b, path="state"):
    """Bit-identical arrays, equal scalars, recursively through containers,
    dataclasses and plain objects."""
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), path
        assert a.tobytes() == b.tobytes(), path
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_identical(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_identical(x, y, f"{path}[{i}]")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            _assert_identical(a[key], b[key], f"{path}[{key!r}]")
    elif hasattr(a, "__dict__"):
        _assert_identical(vars(a), vars(b), path)
    else:
        assert a == b, path


@pytest.mark.parametrize("config", LEAKAGE_CONFIGS, ids=lambda c: c.label())
def test_held_out_rows_do_not_reach_the_fitted_state(data, config):
    test_idx = kfold_split(data.n_samples, 4, 1)[0]
    train_idx = np.setdiff1d(np.arange(data.n_samples), test_idx)
    perturbed = data.intensities.copy()
    rng = np.random.default_rng(0)
    perturbed[test_idx] += rng.normal(0.0, 5.0, size=perturbed[test_idx].shape)
    other = LabeledDataset(data.wavenumbers, perturbed, data.labels)
    a = _fit(config, data, train_idx)
    b = _fit(config, other, train_idx)
    _assert_identical(a.states, b.states)
    _assert_identical(a.train_features, b.train_features)
    assert a.states[0].scaler is not None and a.states[2].tau is not None


@pytest.mark.parametrize("config", LEAKAGE_CONFIGS, ids=lambda c: c.label())
def test_signal_rows_are_the_rows_processed_alone(data, config, monkeypatch):
    # bytes and memory layout: sums over a block (the scaler's mean, the WTT
    # products) round differently in a column-major block
    seen = []
    apply = harness.apply_scaler
    monkeypatch.setattr(harness, "apply_scaler",
                        lambda y, *args: seen.append(y) or apply(y, *args))
    fold = kfold_split(data.n_samples, 4, 1)[0]
    rest = np.setdiff1d(np.arange(data.n_samples), fold)
    _fit(config, data, rest, fold)
    assert len(seen) == 2  # the fitting rows, then the held-out rows
    for y, idx in zip(seen, (rest, fold)):
        # the table of a dataset that holds these rows alone
        subset = LabeledDataset(data.wavenumbers, data.intensities[idx],
                                [data.labels[i] for i in idx])
        alone = SignalTable(subset).block(config.preprocess.derivative_order,
                                          config.decomposition is not None)
        assert y.strides == alone.strides
        assert y.tobytes("A") == alone.tobytes("A")


def test_fold_rows_are_one_copy_with_the_layout_of_a_copy_of_the_rows(data):
    # the spline's column-major block and the derivative's row-major one
    signals = SignalTable(data)
    rows = np.setdiff1d(np.arange(data.n_samples), kfold_split(data.n_samples, 4, 1)[0])
    for resampled in (True, False):
        full = signals.block(1, resampled)
        got = harness._signal_rows(full, rows, resampled)
        want = np.asfortranarray(full[rows]) if resampled else full[rows]
        assert got.strides == want.strides
        assert got.tobytes("A") == want.tobytes("A")
        assert not np.shares_memory(got, full)


def test_a_power_of_two_grid_is_its_own_target():
    # a uniform 128-point grid: the resampled signal is the derivative itself
    data = synth_dataset(dataclasses.replace(SPEC, grid_points=128))
    signals = SignalTable(data)
    assert signals.target is None
    for order in (0, 1):
        assert signals.block(order, True) is signals.block(order, False)


FINAL_CLUSTERING_CONFIGS = [
    LEAKAGE_CONFIGS[2],
    # uncentred raw signal: the block goes through every stage to HAC as is
    dataclasses.replace(
        _config({"kind": "none"}, {"kind": "none"},
                {"kind": "hac", "affinity": "euclidean", "linkage": "ward"}),
        preprocess=harness.PreprocessConfig()),
]


@pytest.mark.parametrize("config", FINAL_CLUSTERING_CONFIGS, ids=lambda c: c.label())
def test_a_final_clustering_reads_the_table_block_itself(data, config, monkeypatch):
    signals = SignalTable(data)
    resampled = config.decomposition is not None
    full = signals.block(config.preprocess.derivative_order, resampled)
    before = full.copy(order="A")
    seen = []  # the rows the preprocess stage is fitted on
    fit_scaler = harness.fit_scaler
    monkeypatch.setattr(harness, "fit_scaler",
                        lambda y, cfg: seen.append(y) or fit_scaler(y, cfg))
    harness.final_clustering(config, signals)
    assert len(seen) == 1 and np.shares_memory(seen[0], full)
    assert signals.block(config.preprocess.derivative_order, resampled) is full
    assert full.strides == before.strides and full.tobytes("A") == before.tobytes("A")


def test_memo_hit_returns_the_same_arrays(data):
    rows = np.arange(0, data.n_samples, 2)
    memo = FoldMemo(SignalTable(data), rows)
    thresholded = LEAKAGE_CONFIGS[0]
    plain = dataclasses.replace(thresholded, transform=harness.TransformSpec("none"))
    first = fit_pipeline(thresholded, memo)
    second = fit_pipeline(plain, memo)
    assert memo.hits["preprocess"] == memo.hits["decompose"] == 1
    assert memo.fits["features"] == 2
    assert first.states[0] is second.states[0]
    assert first.states[1] is second.states[1]   # one trained bank
    fresh = _fit(plain, data, rows)
    assert fresh.train_features.tobytes() == second.train_features.tobytes()


def test_a_stack_of_clustering_configs_fits_like_each_alone(data):
    rows = np.arange(data.n_samples)
    configs = [LEAKAGE_CONFIGS[2], dataclasses.replace(
        LEAKAGE_CONFIGS[2], model=harness.ModelSpec("hac", affinity="euclidean",
                                                    linkage="ward"))]
    stack = _fit(configs, data, rows)
    for config, fitted in zip(configs, stack):
        (alone,) = _fit([config], data, rows)
        assert fitted.config == config and fitted.train_features is None
        assert fitted.model.merges == alone.model.merges
        assert fitted.model.n_leaves == alone.model.n_leaves == data.n_samples
        assert fitted.model.linkage == config.model.linkage
    with pytest.raises(InvalidConfigError):
        _fit([LEAKAGE_CONFIGS[2], LEAKAGE_CONFIGS[0]], data, rows)


FINAL_CONFIGS = [
    _config({"kind": "none"}, {"kind": "none"},
            {"kind": "hac", "affinity": "euclidean", "linkage": "ward"}),
    _config({"kind": "dwt", "family": "daubechies", "order": 4,
             "mode": "periodization"}, {"kind": "contrast", "tau_quantile": 0.9},
            {"kind": "hac", "affinity": "euclidean", "linkage": "average"},
            derivative_order=1),
    LEAKAGE_CONFIGS[2],
]


@pytest.mark.parametrize("config", FINAL_CONFIGS, ids=lambda c: c.label())
@pytest.mark.parametrize("shared", [True], ids=["shared-signals"])
def test_final_clustering_cuts_a_fresh_fit_of_all_rows(data, config, shared):
    # a table its grid search has filled, as the cluster command's is
    signals = SignalTable(data)
    grid_search([config], signals, kfold_split(data.n_samples, 3, 2))
    tree, scores = harness.final_clustering(config, signals)
    (fresh,) = _fit([config], data, np.arange(data.n_samples))
    fresh = fresh.model
    assert tree == fresh
    pred = models.cut_tree(fresh, len(set(data.labels)))
    assert scores == {"ari": adjusted_rand(data.labels, pred),
                      "ami": adjusted_mutual_info(data.labels, pred),
                      "fm": fowlkes_mallows(data.labels, pred)}


def test_final_clustering_frees_its_fitted_pipeline(data, monkeypatch):
    fitted = []
    original = harness.fit_pipeline

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        fitted.extend(weakref.ref(f) for f in result)  # a stack of one
        return result

    monkeypatch.setattr(harness, "fit_pipeline", recorded)
    # what the caller holds keeps no pipeline, nor its features, alive
    result = harness.final_clustering(LEAKAGE_CONFIGS[2], SignalTable(data))
    assert len(result) == 2 and len(fitted) == 1 and fitted[0]() is None
    with pytest.raises(InvalidConfigError):
        harness.final_clustering(LEAKAGE_CONFIGS[0], SignalTable(data))


def test_linking_warnings_are_recorded_not_shown(data, monkeypatch):
    hac_fit = models.hac_fit

    def warning_hac_fit(*args, **kwargs):
        warnings.warn("linkage warning", RuntimeWarning)
        return hac_fit(*args, **kwargs)

    monkeypatch.setattr(models, "hac_fit", warning_hac_fit)
    rows = np.arange(data.n_samples)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a shown warning fails the test
        (alone,) = _fit([LEAKAGE_CONFIGS[2]], data, rows)
        stack = _fit([LEAKAGE_CONFIGS[2]] * 2, data, rows)
    for fitted in [alone, *stack]:
        assert fitted.warnings.count("linkage warning") == 1


# ----------------------------------------------------------------------
# seeded splits
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n,k", [(17, 4), (20, 5), (7, 7), (9, 2)])
@pytest.mark.parametrize("seed", [0, 3])
def test_kfold_split_partitions_with_near_equal_sizes(n, k, seed):
    folds = kfold_split(n, k, seed)
    assert len(folds) == k
    assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(n))
    sizes = [f.size for f in folds]
    assert max(sizes) - min(sizes) <= 1
    assert all(np.all(np.diff(f) > 0) for f in folds)
    assert all(np.array_equal(a, b) for a, b in zip(folds, kfold_split(n, k, seed)))


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_kfold_split_stratified_gives_each_fold_its_class_share(data, seed):
    k = 4
    folds = kfold_split(data.n_samples, k, seed, labels=data.labels, stratify=True)
    assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(data.n_samples))
    sizes = [f.size for f in folds]
    assert max(sizes) - min(sizes) <= 1
    labels = np.asarray(data.labels, dtype=object)
    for cls in set(data.labels):
        total = int(np.sum(labels == cls))
        shares = [int(np.sum(labels[f] == cls)) for f in folds]
        assert sum(shares) == total
        assert set(shares) <= {total // k, -(-total // k)}


def test_kfold_split_rejects_bad_k():
    with pytest.raises(InvalidInputError):
        kfold_split(5, 6, 0)
    with pytest.raises(InvalidInputError):
        kfold_split(5, 2, 0, stratify=True)


# ----------------------------------------------------------------------
# grid expansion
# ----------------------------------------------------------------------

def test_grid_counts_cross_stage_skips():
    grid = expand_grid(CLASSIFICATION_GRID)
    # 2 preprocess x (1 raw x 1 transform + 3 decompositions x 3 transforms) x 3 models
    assert len(grid) == 2 * (1 + 3 * 3) * 3
    assert grid.skipped == {"transform 'threshold' requires a decomposition": 6,
                            "transform 'sign' requires a decomposition": 6}


@pytest.mark.parametrize("section,value", [
    ("model", {"kind": "lda", "penalty": "l2x"}),
    ("model", {"kind": "lr", "penalty": "l2x", "inverse_reg": 1.0}),
    ("model", {"kind": "hac", "affinity": "cosine", "linkage": "ward"}),
    ("model", {"kind": "lda", "shrinkage": 0.1}),
    ("transform", {"kind": "threshold", "threshold_kind": "medium", "tau_quantile": 0.9}),
    ("decomposition", {"kind": "wtt", "rank": 0}),
    ("decomposition", {"kind": "none", "rank": 2}),
    ("transform", {"kind": "sign", "threshold_kind": "soft", "tau_quantile": 0.9}),
    ("transform", {"kind": "contrast", "threshold_kind": "hard", "tau_quantile": 0.9}),
    ("transform", {"kind": "quantize", "tau_quantile": 0.9}),
])
def test_grid_invalid_value_raises(section, value):
    doc = dict(CLASSIFICATION_GRID)
    doc[section] = [value]
    with pytest.raises(InvalidConfigError):
        expand_grid(doc)


@pytest.mark.parametrize("fields, message", [
    ({"derivative_order": True}, "derivative_order must be one of (0, 1, 2), got True"),
    ({"derivative_order": 1.0}, "derivative_order must be one of (0, 1, 2), got 1.0"),
    ({"derivative_order": "1"}, "derivative_order must be one of (0, 1, 2), got '1'"),
    ({"center": "no"}, "center must be true or false, got 'no'"),
    ({"center": 1}, "center must be true or false, got 1"),
    ({"scale": "yes"}, "scale must be true or false, got 'yes'"),
    ({"take_abs": 0}, "take_abs must be true or false, got 0"),
    ({"take_abs": None}, "take_abs must be true or false, got None"),
])
def test_preprocess_value_of_the_wrong_type_raises(fields, message):
    # "center": "no" used to centre the data, and True and 1.0 were read
    # as derivative order 1, labelled dTruec and d1.0c
    doc = {**CLASSIFICATION_GRID, "preprocess": {"derivative_order": 0, **fields}}
    with pytest.raises(InvalidConfigError) as grid_exc:
        expand_grid(doc)
    assert str(grid_exc.value) == message


DWT_DB4 = {"kind": "dwt", "family": "daubechies", "order": 4, "mode": "periodization"}


@pytest.mark.parametrize("q", [True, False, "0.9", None, float("nan"), -0.1, 1.5])
def test_tau_quantile_that_is_not_a_number_in_the_unit_interval_raises(q):
    # True was labelled qTrue and thresholded at q = 1
    with pytest.raises(InvalidConfigError,
                       match=r"tau_quantile must be a number in \[0, 1\], got "):
        _config(DWT_DB4, {"kind": "sign", "tau_quantile": q}, {"kind": "lda"})


@pytest.mark.parametrize("q, label", [(0, "q0"), (1, "q1"), (0.9, "q0.9")])
def test_tau_quantile_takes_ints_and_floats(q, label):
    config = _config(DWT_DB4, {"kind": "sign", "tau_quantile": q}, {"kind": "lda"})
    assert config.label().split("|")[2] == f"sign({label})"
