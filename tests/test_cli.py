"""Tests for the command-line entry points."""
import json

import pytest

from wavefeat import cli


def test_gridsearch_manifest_records_runtime_and_solver_outcome(tmp_path):
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
    assert 0 < solver["max_n_iter"] < 5000


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
    # bank; raw + three wtt feature maps, each with one distance matrix
    assert fits == {"preprocess": 4, "decompose": 4, "features": 8,
                    "distances": 8, "model": 16}
    assert hits == {"preprocess": 12, "decompose": 12, "features": 8,
                    "distances": 8, "model": 0}
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
    assert (out / "model.npz").exists()


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
