"""Tests for the command-line entry points."""
import json
from pathlib import Path

import numpy as np
import pytest

from wavefeat import cli, dataio
from wavefeat.harness import PipelineConfig, fit_pipeline, load_pipeline


def test_gridsearch_manifest_records_runtime_and_solver_outcome(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"class_count": 3, "samples_per_class": [6, 6, 6], "grid_points": 128}))
    data = tmp_path / "data.csv"
    assert cli.main(["synth", "--config", str(spec), "--seed", "3",
                     "--out", str(data)]) == 0
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"schema": "wavefeat-grid", "classification": {
        "preprocess": {"derivative_order": 0, "center": True},
        "model": [{"kind": "lda"},
                  {"kind": "lr", "penalty": "l1", "inverse_reg": 100.0}],
    }}))
    out = tmp_path / "out"
    assert cli.main(["gridsearch", "--data", str(data), "--config", str(grid),
                     "--seed", "3", "--folds", "2", "--repeats", "2",
                     "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    winners = manifest["winners"]
    assert set(winners) == {"lda|original|d0", "lr|original|d0"}
    for report in (manifest["best"], *winners.values()):
        assert report["runtime_seconds"] > 0
    assert "solver" not in winners["lda|original|d0"]
    solver = winners["lr|original|d0"]["solver"]
    # two repeats of 2-fold CV: four fits, each converged
    assert solver["fits_attempted"] == 4
    assert solver["fits_converged"] == 4
    assert 0 < solver["max_n_iter"] <= 100
    assert 0.0 <= solver["max_gap"] <= 1e-9
    capsys.readouterr()
    assert cli.main(["report", "--run-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    assert (f"LR fits converged 4/4, Newton steps at most {solver['max_n_iter']}, "
            f"largest duality gap {solver['max_gap']:.1e}") in printed
    assert printed.count("LR fits converged") == 1  # the LDA winner has none


def _tiny_dataset(tmp_path, name="data.csv"):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"class_count": 3, "samples_per_class": [5, 5, 5], "grid_points": 100}))
    data = tmp_path / name
    assert cli.main(["synth", "--config", str(spec), "--seed", "3",
                     "--out", str(data)]) == 0
    return data


CLUSTER_GRID = {"schema": "wavefeat-grid", "clustering": {
    "preprocess": {"derivative_order": 0, "center": True},
    "decomposition": [{"kind": "none"}, {"kind": "wtt", "rank": 2}],
    "transform": [{"kind": "none"}, {"kind": "contrast", "tau_quantile": [0.9, 0.95]}],
    "model": [{"kind": "hac", "affinity": "euclidean", "linkage": ["ward", "average"]}],
}}


def test_nan_in_csv_dataset_exits_3(tmp_path, capsys):
    data = _tiny_dataset(tmp_path)
    lines = data.read_text().splitlines()
    fields = lines[4].split(",")
    fields[17] = "nan"
    lines[4] = ",".join(fields)
    data.write_text("\n".join(lines) + "\n")
    assert cli.main(["cluster", "--data", str(data), "--folds", "2",
                     "--out-dir", str(tmp_path / "out")]) == 3
    assert f"{data}:5: non-finite intensity" in capsys.readouterr().err


def test_nan_in_json_dataset_exits_3(tmp_path, capsys):
    data = _tiny_dataset(tmp_path, "data.json")
    doc = json.loads(data.read_text())
    doc["samples"][6]["intensities"][3] = float("inf")
    data.write_text(json.dumps(doc))
    assert cli.main(["cluster", "--data", str(data), "--folds", "2",
                     "--out-dir", str(tmp_path / "out")]) == 3
    assert "sample 6 has a non-finite intensity" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [
    {"kind": "hac", "affinity": "cosine", "linkage": "wardx"},
    {"kind": "hac", "affinity": "cosine", "linkage": "average", "metric": "l1"},
])
def test_invalid_grid_value_exits_2(tmp_path, capsys, entry):
    data = _tiny_dataset(tmp_path)
    grid = tmp_path / "grid.json"
    doc = json.loads(json.dumps(CLUSTER_GRID))
    doc["clustering"]["model"].append(entry)
    grid.write_text(json.dumps(doc))
    assert cli.main(["cluster", "--data", str(data), "--config", str(grid),
                     "--folds", "2", "--out-dir", str(tmp_path / "out")]) == 2
    assert "usage error" in capsys.readouterr().err


def test_cluster_manifest_records_stage_counters_and_skips(tmp_path, capsys):
    data = _tiny_dataset(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(CLUSTER_GRID))
    out = tmp_path / "out"
    assert cli.main(["cluster", "--data", str(data), "--config", str(grid),
                     "--seed", "1", "--folds", "2", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grid_size"] == 8
    assert manifest["grid_skipped"] == {"transform 'contrast' requires a decomposition": 4}
    fits, hits = manifest["counters"]["fits"], manifest["counters"]["memo_hits"]
    # per fold: 8 configs; preprocess with and without the resample; one
    # bank; raw + three wtt feature maps, each with one Gram matrix and one
    # distance matrix
    assert fits == {"preprocess": 4, "decompose": 4, "features": 8,
                    "gram": 8, "distances": 8, "model": 16}
    assert hits == {"preprocess": 12, "decompose": 12, "features": 8,
                    "gram": 0, "distances": 8, "model": 0}
    capsys.readouterr()
    assert cli.main(["report", "--run-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "preprocess 4/12" in printed and "model 16/0" in printed
    assert "grid points skipped: 4 (transform 'contrast' requires a decomposition)" in printed


@pytest.mark.parametrize("kind", ["swapped", "repeated"])
def test_unordered_grid_in_csv_dataset_exits_3(tmp_path, capsys, kind):
    data = _tiny_dataset(tmp_path)
    lines = data.read_text().splitlines()
    header = lines[0].split(",")
    if kind == "swapped":
        header[5], header[6] = header[6], header[5]
    else:
        header[6] = header[5]
    lines[0] = ",".join(header)
    data.write_text("\n".join(lines) + "\n")
    assert cli.main(["cluster", "--data", str(data), "--folds", "2",
                     "--out-dir", str(tmp_path / "out")]) == 3
    assert "wavenumber grid must be strictly monotone" in capsys.readouterr().err


def test_unordered_grid_in_json_dataset_exits_3(tmp_path, capsys):
    data = _tiny_dataset(tmp_path, "data.json")
    doc = json.loads(data.read_text())
    wn = doc["wavenumbers"]
    wn[10], wn[11] = wn[11], wn[10]
    data.write_text(json.dumps(doc))
    assert cli.main(["cluster", "--data", str(data), "--folds", "2",
                     "--out-dir", str(tmp_path / "out")]) == 3
    assert "wavenumber grid must be strictly monotone" in capsys.readouterr().err


def test_synth_config_unknown_key_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"class_count": 3, "samples_per_class": [5, 5, 5],
                                "grid_pionts": 100}))
    assert cli.main(["synth", "--config", str(spec),
                     "--out", str(tmp_path / "data.csv")]) == 2
    assert "grid_pionts" in capsys.readouterr().err


PIPELINE = {"preprocess": {"derivative_order": 0, "center": True},
            "model": {"kind": "lda"}}


@pytest.mark.parametrize("change", [
    {"drop": "preprocess"},
    {"drop": "model"},
    {"add": {"tranform": {"kind": "none"}}},
], ids=["no-preprocess", "no-model", "unknown-key"])
def test_train_config_stage_keys_exit_2(tmp_path, capsys, change):
    data = _tiny_dataset(tmp_path)
    doc = {k: v for k, v in PIPELINE.items() if k != change.get("drop")}
    doc.update(change.get("add", {}))
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["train", "--data", str(data), "--config", str(config),
                     "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "usage error: pipeline config" in err
    assert change.get("drop", "tranform") in err


def test_train_config_with_all_stage_keys_runs(tmp_path):
    data = _tiny_dataset(tmp_path)
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({**PIPELINE, "decomposition": {"kind": "none"},
                                  "transform": {"kind": "none"}}))
    out = tmp_path / "out"
    assert cli.main(["train", "--data", str(data), "--config", str(config),
                     "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "pipeline.npz"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == {"pipeline": "pipeline.npz"}
    dataset = dataio.load_dataset(str(data))
    fitted = fit_pipeline(PipelineConfig.from_dict(json.loads(config.read_text())),
                          dataset, np.arange(dataset.n_samples))
    loaded = load_pipeline(str(out / "pipeline.npz"))
    assert loaded.predict(dataset.intensities) == fitted.predict(dataset.intensities)


@pytest.mark.parametrize("argv", [
    ["synth", "--jobs", "2"], ["synth", "--stratify"],
    ["train", "--jobs", "2"], ["train", "--stratify"], ["train", "--seed", "1"],
    # the folds run one after another; only --jobs 1 is accepted
    ["gridsearch", "--jobs", "2"], ["cluster", "--jobs", "2"],
])
def test_flags_a_command_does_not_read_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_grid_section_unknown_key_exits_2(tmp_path, capsys):
    data = _tiny_dataset(tmp_path)
    grid = tmp_path / "grid.json"
    doc = json.loads(json.dumps(CLUSTER_GRID))
    doc["clustering"]["models"] = doc["clustering"].pop("model")
    grid.write_text(json.dumps(doc))
    assert cli.main(["cluster", "--data", str(data), "--config", str(grid),
                     "--folds", "2", "--out-dir", str(tmp_path / "out")]) == 2
    assert "usage error: grid section: unknown keys ['models']" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "train", "gridsearch", "cluster"])
def test_config_that_is_not_json_exits_2(tmp_path, capsys, command):
    data = _tiny_dataset(tmp_path)
    config = tmp_path / "broken.json"
    config.write_text('{"class_count": 3,')
    argv = [command, "--config", str(config), "--out-dir", str(tmp_path / "out")]
    if command != "synth":
        argv += ["--data", str(data)]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert f"usage error: {config}: invalid JSON" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    data = _tiny_dataset(tmp_path)
    config = tmp_path / "grid.json"
    config.write_bytes(json.dumps(CLUSTER_GRID).encode()[:-1] + b"\xff}")
    capsys.readouterr()
    assert cli.main(["cluster", "--data", str(data), "--config", str(config),
                     "--folds", "2", "--out-dir", str(tmp_path / "out")]) == 2
    assert f"usage error: {config}: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["data.csv", "data.json"])
def test_dataset_that_is_not_utf8_exits_3(tmp_path, capsys, name):
    data = _tiny_dataset(tmp_path, name)
    data.write_bytes(data.read_bytes().replace(b"class_1", b"class_\xff", 1))
    capsys.readouterr()
    assert cli.main(["cluster", "--data", str(data), "--folds", "2",
                     "--out-dir", str(tmp_path / "out")]) == 3
    assert f"data error: {data}: cannot decode" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{\"command\": ", "[1, 2]", None],
                         ids=["not-json", "list", "directory"])
def test_report_on_a_bad_manifest_exits_3(tmp_path, capsys, text):
    manifest = tmp_path / "manifest.json"
    if text is None:
        manifest.mkdir()
    else:
        manifest.write_text(text)
    assert cli.main(["report", "--run-dir", str(tmp_path)]) == 3
    assert f"data error: {manifest}: " in capsys.readouterr().err


@pytest.mark.parametrize("manifest, message", [
    ({"winners": 5}, "winners must be a JSON object"),
    ({"counters": {"fits": 3}}, "counters.fits must be a JSON object"),
    ({"counters": {"fits": {"model": 2}, "memo_hits": {}}},
     "counters.memo_hits.model must be a number"),
    ({"data": {"sha256": 7}}, "data.sha256 must be a string"),
    ({"winners": {"WTT|d0": {"scores": {"ari": 0.5}}}},
     "winners.WTT|d0.scores.ami must be a number"),
    ({"winners": {"lr|WTT|d0": {"means": {"test_accuracy": "high"}}}},
     "winners.lr|WTT|d0.means.test_accuracy must be a number"),
    ({"grid_skipped": [1]}, "grid_skipped must be a JSON object"),
    ({"wall_time_seconds": "1s"}, "wall_time_seconds must be a number"),
    ({"winners": {"lr|WTT|d0": {"means": {"test_accuracy": 0.9}, "solver": {
        "fits_attempted": 4, "fits_converged": 4, "max_n_iter": 30, "max_gap": "0"}}}},
     "winners.lr|WTT|d0.solver.max_gap must be a number"),
], ids=["winners", "fits", "hits", "sha256", "scores", "means", "skipped", "wall",
        "max-gap"])
def test_report_on_a_manifest_with_a_mistyped_field_exits_3(
        tmp_path, capsys, manifest, message):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert cli.main(["report", "--run-dir", str(tmp_path)]) == 3
    assert (f"data error: {tmp_path / 'manifest.json'}: {message}"
            in capsys.readouterr().err)


def test_cluster_with_non_finite_distances_exits_4(tmp_path, capsys):
    # finite intensities near 1e200, whose squares overflow the Gram matrix
    rng = np.random.default_rng(0)
    data = tmp_path / "huge.csv"
    lines = ["label," + ",".join(str(v) for v in np.linspace(2000.0, 1000.0, 64))]
    lines += [f"c{i % 3}," + ",".join(str(v) for v in row)
              for i, row in enumerate(1e200 * (1.0 + 0.5 * rng.random((12, 64))))]
    data.write_text("\n".join(lines) + "\n")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"schema": "wavefeat-grid", "clustering": {
        "preprocess": {"derivative_order": 0},
        "model": {"kind": "hac", "affinity": "euclidean", "linkage": "average"}}}))
    assert cli.main(["cluster", "--data", str(data), "--config", str(grid),
                     "--folds", "2", "--out-dir", str(tmp_path / "out")]) == 4
    assert ("numerical failure: the distance matrix has non-finite entries"
            in capsys.readouterr().err)


def test_cluster_with_non_finite_distances_in_a_stack_exits_4(tmp_path, capsys):
    # manhattan distances stay finite, euclidean ones overflow: the fold's
    # six fitting rows meet nine complete and average configs, so the fold
    # links side by side and one matrix of the stack is not finite
    rng = np.random.default_rng(0)
    data = tmp_path / "huge.csv"
    lines = ["label," + ",".join(str(v) for v in np.linspace(2000.0, 1000.0, 64))]
    lines += [f"c{i % 3}," + ",".join(str(v) for v in row)
              for i, row in enumerate(1e200 * (1.0 + 0.5 * rng.random((12, 64))))]
    data.write_text("\n".join(lines) + "\n")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"schema": "wavefeat-grid", "clustering": {
        "preprocess": {"derivative_order": [0, 1, 2]},
        "model": [{"kind": "hac", "affinity": "manhattan", "linkage": "complete"},
                  {"kind": "hac", "affinity": ["manhattan", "euclidean"],
                   "linkage": "average"}]}}))
    assert cli.main(["cluster", "--data", str(data), "--config", str(grid),
                     "--folds", "2", "--out-dir", str(tmp_path / "out")]) == 4
    assert ("numerical failure: the distance matrix has non-finite entries"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["gridsearch", "cluster", "train"])
def test_missing_or_unreadable_input_file_exits_2_or_3(tmp_path, capsys, command):
    data = _tiny_dataset(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(PIPELINE if command == "train" else CLUSTER_GRID))
    out = ["--out-dir", str(tmp_path / "out")]
    cases = [
        (["--data", str(data), "--config", str(tmp_path / "nope.json")], 2,
         f"usage error: {tmp_path / 'nope.json'}: cannot read"),
        (["--data", str(tmp_path / "nope.csv"), "--config", str(config)], 3,
         f"data error: {tmp_path / 'nope.csv'}: cannot read"),
        (["--data", str(tmp_path), "--config", str(config)], 3,
         f"data error: {tmp_path}: cannot read"),
    ]
    capsys.readouterr()
    for args, code, message in cases:
        assert cli.main([command, *args, *out]) == code
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gridsearch", "cluster"])
def test_grid_that_is_not_a_json_object_exits_2(tmp_path, capsys, command):
    data = _tiny_dataset(tmp_path)
    grid = tmp_path / "list.json"
    grid.write_text("[1, 2]")
    capsys.readouterr()
    assert cli.main([command, "--data", str(data), "--config", str(grid),
                     "--out-dir", str(tmp_path / "out")]) == 2
    assert "usage error: grid document must be a JSON object" in capsys.readouterr().err


def _mixed_label_copy(tmp_path, data):
    """The dataset with class_k relabelled k: an int in even samples and a
    string in odd ones, so each class mixes 0 and "0"."""
    doc = json.loads(data.read_text())
    for i, sample in enumerate(doc["samples"]):
        k = sample["label"].removeprefix("class_")
        sample["label"] = int(k) if i % 2 == 0 else k
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(doc))
    for sample in doc["samples"]:
        sample["label"] = str(sample["label"])
    clean = tmp_path / "clean.json"
    clean.write_text(json.dumps(doc))
    return mixed, clean


def test_gridsearch_mixed_int_and_str_labels_are_one_class(tmp_path):
    mixed, clean = _mixed_label_copy(tmp_path, _tiny_dataset(tmp_path, "data.json"))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"schema": "wavefeat-grid", "classification": {
        "preprocess": {"derivative_order": 0, "center": True},
        "model": {"kind": "lda"}}}))
    tables = []
    for name, data in (("mixed", mixed), ("clean", clean)):
        out = tmp_path / name
        assert cli.main(["gridsearch", "--data", str(data), "--config", str(grid),
                         "--seed", "2", "--folds", "2", "--repeats", "1",
                         "--out-dir", str(out)]) == 0
        tables.append((out / "table_lda.tsv").read_text())
    assert tables[0] == tables[1]


def test_cluster_mixed_int_and_str_labels_are_one_class(tmp_path):
    mixed, clean = _mixed_label_copy(tmp_path, _tiny_dataset(tmp_path, "data.json"))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(CLUSTER_GRID))
    tables = []
    for name, data in (("mixed", mixed), ("clean", clean)):
        out = tmp_path / name
        assert cli.main(["cluster", "--data", str(data), "--config", str(grid),
                         "--seed", "2", "--folds", "2", "--out-dir", str(out)]) == 0
        tables.append((out / "table_clustering.tsv").read_text())
    assert tables[0] == tables[1]


@pytest.mark.parametrize("command, flag, value, message", [
    ("gridsearch", "--folds", "1", "must be at least 2, got 1"),
    ("gridsearch", "--folds", "-3", "must be at least 2, got -3"),
    ("gridsearch", "--repeats", "0", "must be at least 1, got 0"),
    ("gridsearch", "--repeats", "two", "expected an integer, got 'two'"),
    ("cluster", "--folds", "1", "must be at least 2, got 1"),
    ("cluster", "--folds", "0", "must be at least 2, got 0"),
])
def test_bad_fold_or_repeat_count_exits_2_before_reading_data(
        tmp_path, capsys, command, flag, value, message):
    # the data file does not exist: reading it first would exit 3
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--data", str(tmp_path / "missing.csv"), flag, value,
                  "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


WTT_RANK = {"kind": "wtt", "rank": 2.5}
DWT = {"kind": "dwt", "family": "daubechies", "order": 4, "mode": "periodization"}


@pytest.mark.parametrize("command, stages, message", [
    ("cluster", {"decomposition": WTT_RANK,
                 "model": {"kind": "hac", "affinity": "euclidean", "linkage": "ward"}},
     "rank must be an integer >= 1, got 2.5"),
    ("gridsearch", {"decomposition": {**DWT, "level": "3"}, "model": {"kind": "lda"}},
     "level must be an integer >= 1 or null, got '3'"),
    ("train", {"decomposition": {**DWT, "level": 2.5}, "model": {"kind": "lda"}},
     "level must be an integer >= 1 or null, got 2.5"),
    ("gridsearch", {"model": {"kind": "lr", "penalty": "l2", "inverse_reg": "100"}},
     "inverse_reg must be a finite positive number, got '100'"),
    ("cluster", {"preprocess": {"derivative_order": 0, "center": "no"},
                 "model": {"kind": "hac", "affinity": "euclidean", "linkage": "ward"}},
     "center must be true or false, got 'no'"),
    ("gridsearch", {"decomposition": DWT, "transform": {"kind": "sign", "tau_quantile": True},
                    "model": {"kind": "lda"}},
     "tau_quantile must be a number in [0, 1], got True"),
], ids=["wtt-rank-2.5", "dwt-level-str", "dwt-level-2.5", "lr-inverse-reg-str",
        "center-str", "tau-quantile-bool"])
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, command, stages,
                                                message):
    data = _tiny_dataset(tmp_path)
    doc = {"preprocess": {"derivative_order": 0}, **stages}
    if command != "train":
        task = "clustering" if command == "cluster" else "classification"
        doc = {"schema": "wavefeat-grid", task: doc}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert cli.main([command, "--data", str(data), "--config", str(config),
                     "--folds", "2", "--out-dir", str(tmp_path / "out")]
                    if command != "train" else
                    ["train", "--data", str(data), "--config", str(config),
                     "--out-dir", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gridsearch", "cluster"])
@pytest.mark.parametrize("order", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_non_finite_dwt_order_exits_2(tmp_path, capsys, command, order):
    # json writes these as the literals Infinity and NaN, which json reads back
    data = _tiny_dataset(tmp_path)
    task, model = (("classification", {"kind": "lda"}) if command == "gridsearch" else
                   ("clustering", {"kind": "hac", "affinity": "euclidean",
                                   "linkage": "ward"}))
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"schema": "wavefeat-grid", task: {
        "preprocess": {"derivative_order": 0},
        "decomposition": {**DWT, "order": [order]}, "model": model}}))
    assert cli.main([command, "--data", str(data), "--config", str(config),
                     "--folds", "2", "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"usage error: unsupported order '{order}' for daubechies" in err
    assert "Traceback" not in err


def test_gridsearch_with_every_feature_thresholded_to_zero_fits_l1(tmp_path):
    # a hard threshold at the block's largest magnitude (q = 1) keeps no
    # coefficient, so the L1 model sees only zero columns
    data = _tiny_dataset(tmp_path)
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"schema": "wavefeat-grid", "classification": {
        "preprocess": {"derivative_order": 0}, "decomposition": DWT,
        "transform": {"kind": "threshold", "threshold_kind": "hard", "tau_quantile": 1},
        "model": {"kind": "lr", "penalty": "l1", "inverse_reg": 10.0}}}))
    out = tmp_path / "out"
    assert cli.main(["gridsearch", "--data", str(data), "--config", str(config),
                     "--folds", "2", "--out-dir", str(out)]) == 0
    solver = json.loads((out / "manifest.json").read_text())["best"]["solver"]
    assert solver["fits_converged"] == solver["fits_attempted"] == 2
    assert solver["max_n_iter"] == 0


def test_one_class_dataset_in_gridsearch_exits_3(tmp_path, capsys):
    data = _tiny_dataset(tmp_path)
    lines = data.read_text().splitlines()
    one_class = [lines[0]] + ["c0," + line.split(",", 1)[1] for line in lines[1:]]
    data.write_text("\n".join(one_class) + "\n")
    assert cli.main(["gridsearch", "--data", str(data), "--folds", "2",
                     "--out-dir", str(tmp_path / "out")]) == 3
    assert (f"data error: {data}: classification needs at least 2 classes, found 1"
            in capsys.readouterr().err)


def test_one_class_dataset_in_cluster_exits_3(tmp_path, capsys):
    # any clustering matches the one class, so ARI, AMI and FM would read 1
    data = _tiny_dataset(tmp_path)
    lines = data.read_text().splitlines()
    one_class = [lines[0]] + ["c0," + line.split(",", 1)[1] for line in lines[1:]]
    data.write_text("\n".join(one_class) + "\n")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(CLUSTER_GRID))
    assert cli.main(["cluster", "--data", str(data), "--config", str(grid),
                     "--folds", "2", "--out-dir", str(tmp_path / "out")]) == 3
    assert (f"data error: {data}: clustering needs at least 2 classes, found 1"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "table_clustering.tsv").exists()


@pytest.mark.parametrize("command", ["gridsearch", "cluster"])
def test_features_that_overflow_exit_4(tmp_path, capsys, command):
    # the golden synth set scaled to intensities of up to 1e308: the data
    # are finite, and centring them overflows, which is arithmetic
    golden = Path(__file__).resolve().parent / "golden"
    data = tmp_path / "data.csv"
    assert cli.main(["synth", "--config", str(golden / "synth.json"), "--seed", "3",
                     "--out", str(data)]) == 0
    header, *lines = data.read_text().splitlines()
    labels = [line.split(",", 1)[0] for line in lines]
    values = np.array([[float(v) for v in line.split(",")[1:]] for line in lines])
    values *= 1e308 / np.max(np.abs(values))
    data.write_text("\n".join([header] + [
        label + "," + ",".join(repr(float(v)) for v in row)
        for label, row in zip(labels, values)]) + "\n")
    args = ["--folds", "2"] + (["--repeats", "1"] if command == "gridsearch" else [])
    assert cli.main([command, "--data", str(data), "--config", str(golden / "grid.json"),
                     "--out-dir", str(tmp_path / "out"), *args]) == 4
    assert ("numerical failure: the preprocess stage's output is not finite"
            in capsys.readouterr().err)


@pytest.mark.parametrize("fields, message", [
    ({"samples_per_class": 5}, "samples_per_class must list one integer count"),
    ({"common_peaks": [[1650.0, 80.0]]}, "a peak set lists peaks of three numbers"),
    ({"seed": "x"}, "seed must be integers"),
], ids=["samples-per-class-int", "two-number-peak", "seed-str"])
def test_synth_config_with_a_malformed_field_exits_2(tmp_path, capsys, fields,
                                                     message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(fields))
    assert cli.main(["synth", "--config", str(spec),
                     "--out", str(tmp_path / "data.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "data.csv").exists()
