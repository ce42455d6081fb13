"""Tests for the command-line entry points."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wavefeat import cli, dwt, harness


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
    assert manifest["peak_rss_mb"] > 0
    assert (f"wall time: {manifest['wall_time_seconds']:.1f}s, "
            f"peak RSS {manifest['peak_rss_mb']:.1f} MB") in printed


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
    assert manifest["peak_rss_mb"] > 0
    assert f"peak RSS {manifest['peak_rss_mb']:.1f} MB" in printed


def test_peak_rss_is_null_without_the_resource_module(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "resource", None)
    data = _tiny_dataset(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(CLUSTER_GRID))
    out = tmp_path / "out"
    assert cli.main(["cluster", "--data", str(data), "--config", str(grid),
                     "--folds", "2", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["peak_rss_mb"] is None
    capsys.readouterr()
    assert cli.main(["report", "--run-dir", str(out)]) == 0
    assert "peak RSS -\n" in capsys.readouterr().out


def test_peak_rss_counts_kib_on_linux_and_bytes_on_macos(monkeypatch):
    class Usage:
        ru_maxrss = 3 << 20

    class Resource:
        RUSAGE_SELF = 0

        @staticmethod
        def getrusage(who):
            return Usage

    monkeypatch.setattr(cli, "resource", Resource)
    monkeypatch.setattr(cli.sys, "platform", "linux")
    assert cli._peak_rss_mb() == 3 << 10
    monkeypatch.setattr(cli.sys, "platform", "darwin")
    assert cli._peak_rss_mb() == 3


@pytest.mark.parametrize("with_run", [False, True], ids=["alone", "with-run-dir"])
def test_report_writes_the_filter_registry(tmp_path, capsys, with_run):
    registry = tmp_path / "registry.tsv"
    argv = ["report", "--registry", str(registry)]
    if with_run:
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"command": "cluster", "wall_time_seconds": 2.5}))
        argv += ["--run-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert registry.read_text() == dwt.dump_registry()
    out = capsys.readouterr().out
    assert out.startswith(f"wrote filter registry to {registry}\n")
    assert ("wall time: 2.5s, peak RSS -\n" in out) == with_run


def test_report_renders_a_manifest_without_peak_rss(tmp_path, capsys):
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"command": "cluster", "wall_time_seconds": 2.5}))
    assert cli.main(["report", "--run-dir", str(tmp_path)]) == 0
    assert "wall time: 2.5s, peak RSS -\n" in capsys.readouterr().out


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
    assert f"{data}: wavenumber grid must be strictly monotone" in capsys.readouterr().err


def test_unordered_grid_in_json_dataset_exits_3(tmp_path, capsys):
    data = _tiny_dataset(tmp_path, "data.json")
    doc = json.loads(data.read_text())
    wn = doc["wavenumbers"]
    wn[10], wn[11] = wn[11], wn[10]
    data.write_text(json.dumps(doc))
    assert cli.main(["cluster", "--data", str(data), "--folds", "2",
                     "--out-dir", str(tmp_path / "out")]) == 3
    assert f"{data}: wavenumber grid must be strictly monotone" in capsys.readouterr().err


def test_synth_config_unknown_key_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"class_count": 3, "samples_per_class": [5, 5, 5],
                                "grid_pionts": 100}))
    assert cli.main(["synth", "--config", str(spec),
                     "--out", str(tmp_path / "data.csv")]) == 2
    assert "grid_pionts" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["synth", "--jobs", "2"], ["synth", "--stratify"],
    # not a command: argparse rejects it as an invalid choice
    ["train", "--data", "x.csv"],
    ["report", "--seed", "1"], ["report", "--stratify"],
    # the folds run one after another; only --jobs 1 is accepted
    ["gridsearch", "--jobs", "2"], ["cluster", "--jobs", "2"],
])
def test_flags_a_command_does_not_read_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


PIPELINE = {"preprocess": {"derivative_order": 0, "center": True},
            "model": {"kind": "lda"}}


@pytest.mark.parametrize("change", [
    {"drop": "preprocess"},
    {"drop": "model"},
    {"add": {"tranform": {"kind": "none"}}},
], ids=["no-preprocess", "no-model", "unknown-key"])
def test_train_config_stage_keys_exit_2(tmp_path, capsys, change):
    # the one-pipeline stage document, read as a gridsearch classification section
    data = _tiny_dataset(tmp_path)
    doc = {k: v for k, v in PIPELINE.items() if k != change.get("drop")}
    doc.update(change.get("add", {}))
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"schema": "wavefeat-grid", "classification": doc}))
    capsys.readouterr()
    assert cli.main(["gridsearch", "--data", str(data), "--config", str(config),
                     "--folds", "2", "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "usage error: grid section" in err
    assert change.get("drop", "tranform") in err


def test_grid_section_unknown_key_exits_2(tmp_path, capsys):
    # a section maps stage keys only, and preprocess and model are required
    data = _tiny_dataset(tmp_path)
    grid = tmp_path / "grid.json"
    section = CLUSTER_GRID["clustering"]
    without = {key: {k: v for k, v in section.items() if k != key}
               for key in ("preprocess", "model")}
    cases = [
        (without["preprocess"], "missing ['preprocess']"),
        (without["model"], "missing ['model']"),
        ({**section, "tranform": {"kind": "none"}}, "unknown keys ['tranform']"),
        ({**without["model"], "models": section["model"]}, "unknown keys ['models']"),
    ]
    # a stage entry is an object or a list of objects
    cases += [({**section, key: value},
               f"{key} must be an object or a list of objects")
              for key, value in (("decomposition", None), ("decomposition", [5]),
                                 ("decomposition", "dwt"), ("decomposition", [None]),
                                 ("preprocess", None), ("preprocess", 3),
                                 ("preprocess", ["x"]), ("transform", True),
                                 ("model", [{"kind": "lda"}, 1]))]
    capsys.readouterr()
    for doc, message in cases:
        grid.write_text(json.dumps({"schema": "wavefeat-grid", "clustering": doc}))
        assert cli.main(["cluster", "--data", str(data), "--config", str(grid),
                         "--folds", "2", "--out-dir", str(tmp_path / "out")]) == 2
        assert f"usage error: grid section: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "gridsearch", "cluster"])
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
    ({"peak_rss_mb": "120 MB"}, "peak_rss_mb must be a number or null"),
    ({"winners": {"lr|WTT|d0": {"means": {"test_accuracy": 0.9}, "solver": {
        "fits_attempted": 4, "fits_converged": 4, "max_n_iter": 30, "max_gap": "0"}}}},
     "winners.lr|WTT|d0.solver.max_gap must be a number"),
    # JSON booleans, which Python reads as the ints 1 and 0
    ({"winners": {"lr|WTT|d0": {"means": {"test_accuracy": 0.9}, "solver": {
        "fits_attempted": 4, "fits_converged": True, "max_n_iter": False}}}},
     "winners.lr|WTT|d0.solver.fits_converged must be a number"),
    ({"peak_rss_mb": False}, "peak_rss_mb must be a number or null"),
], ids=["winners", "fits", "hits", "sha256", "scores", "means", "skipped", "wall",
        "peak-rss", "max-gap", "solver-bool", "peak-rss-bool"])
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


@pytest.mark.parametrize("command", ["gridsearch", "cluster"])
def test_missing_or_unreadable_input_file_exits_2_or_3(tmp_path, capsys, command):
    data = _tiny_dataset(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CLUSTER_GRID))
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
    # a negative seed used to reach the fold split and end in a traceback
    ("gridsearch", "--seed", "-1", "must be at least 0, got -1"),
    ("cluster", "--seed", "-1", "must be at least 0, got -1"),
])
def test_bad_fold_or_repeat_count_exits_2_before_reading_data(
        tmp_path, capsys, command, flag, value, message):
    # the data file does not exist: reading it first would exit 3
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--data", str(tmp_path / "missing.csv"), flag, value,
                  "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gridsearch", "cluster"])
def test_more_folds_than_samples_exits_2_before_writing(tmp_path, capsys, command):
    # 15 samples: 15 folds are leave-one-out, 16 cannot be split
    data = _tiny_dataset(tmp_path)
    out = tmp_path / "out"
    assert cli.main([command, "--data", str(data), "--folds", "16",
                     "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"usage error: --folds 16 exceeds the 15 samples of {data}" in err
    assert "Traceback" not in err
    assert not out.exists()


def _rows_of(tmp_path, data, rows: list[int], name: str) -> Path:
    """A copy of the dataset ``data`` with its rows ``rows`` (0-based), in
    that order."""
    header, *lines = data.read_text().splitlines()
    subset = tmp_path / name
    subset.write_text("\n".join([header] + [lines[i] for i in rows]) + "\n")
    return subset


def test_gridsearch_fold_of_one_class_exits_2_before_writing(tmp_path, capsys):
    # classes of 4, 1 and 1, the lone rows first and fifth: at seed 0 a
    # 2-fold split puts both in one fold, whose fitting rows are all class_0
    data = _rows_of(tmp_path, _tiny_dataset(tmp_path), [5, 0, 1, 2, 10, 3], "six.csv")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"schema": "wavefeat-grid", "classification": {
        "preprocess": {"derivative_order": 0, "center": True}, "model": {"kind": "lda"}}}))
    args = ["gridsearch", "--data", str(data), "--config", str(grid), "--folds", "2",
            "--repeats", "1"]
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main([*args, "--seed", "0", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"usage error: {data}: --folds 2: fold 2 of 2 at seed 0 leaves "
                   "3 rows of 1 class to fit on; try --stratify or fewer folds\n")
    assert not out.exists()
    # stratified folds give each fold a lone row
    assert cli.main([*args, "--seed", "0", "--stratify", "--out-dir", str(out)]) == 0
    # the grid search's split at seed 8 fits; repeated CV's at seed 9 does
    # not, and is checked with it, before anything is written
    capsys.readouterr()
    late = tmp_path / "late"
    assert cli.main([*args, "--seed", "8", "--out-dir", str(late)]) == 2
    assert "fold 2 of 2 at seed 9 leaves 3 rows of 1 class" in capsys.readouterr().err
    assert not late.exists()


def test_cluster_fold_of_one_row_exits_2_before_writing(tmp_path, capsys):
    # three spectra in 2 folds: the fold of 2 leaves 1 row to cluster
    data = _rows_of(tmp_path, _tiny_dataset(tmp_path), [0, 5, 10], "three.csv")
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["cluster", "--data", str(data), "--folds", "2",
                     "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"usage error: {data}: --folds 2: fold 1 of 2 at seed 0 leaves "
                   "1 of 3 rows to fit on; try more folds\n")
    assert not out.exists()


WTT_RANK = {"kind": "wtt", "rank": 2.5}
DWT = {"kind": "dwt", "family": "daubechies", "order": 4, "mode": "periodization"}


@pytest.mark.parametrize("command, stages, message", [
    ("cluster", {"decomposition": WTT_RANK,
                 "model": {"kind": "hac", "affinity": "euclidean", "linkage": "ward"}},
     "rank must be an integer >= 1, got 2.5"),
    ("gridsearch", {"decomposition": {**DWT, "level": "3"}, "model": {"kind": "lda"}},
     "level must be an integer >= 1 or null, got '3'"),
    ("gridsearch", {"decomposition": {**DWT, "level": 2.5}, "model": {"kind": "lda"}},
     "level must be an integer >= 1 or null, got 2.5"),
    ("gridsearch", {"model": {"kind": "lr", "penalty": "l2", "inverse_reg": "100"}},
     "inverse_reg must be a finite positive number, got '100'"),
    ("cluster", {"preprocess": {"derivative_order": 0, "center": "no"},
                 "model": {"kind": "hac", "affinity": "euclidean", "linkage": "ward"}},
     "center must be true or false, got 'no'"),
    ("gridsearch", {"decomposition": DWT, "transform": {"kind": "sign", "tau_quantile": True},
                    "model": {"kind": "lda"}},
     "tau_quantile must be a number in [0, 1], got True"),
    ("gridsearch", {"decomposition": {**DWT, "mode": "symmetric"}, "model": {"kind": "lda"}},
     "unsupported mode 'symmetric'; the DWT runs in 'periodization' only"),
    ("cluster", {"decomposition": {**DWT, "family": "biorthogonal", "order": "2.2"},
                 "model": {"kind": "hac", "affinity": "euclidean", "linkage": "ward"}},
     "unknown family 'biorthogonal'"),
    # the tiny set resamples to 128 points, where db4's deepest level is 4
    ("gridsearch", {"decomposition": {**DWT, "level": 20}, "model": {"kind": "lda"}},
     "level 20 out of range 1..4"),
], ids=["wtt-rank-2.5", "dwt-level-str", "dwt-level-2.5", "lr-inverse-reg-str",
        "center-str", "tau-quantile-bool", "dwt-mode-symmetric", "dwt-family-bior",
        "dwt-level-20"])
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, command, stages,
                                                message):
    data = _tiny_dataset(tmp_path)
    task = "clustering" if command == "cluster" else "classification"
    doc = {"schema": "wavefeat-grid",
           task: {"preprocess": {"derivative_order": 0}, **stages}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert cli.main([command, "--data", str(data), "--config", str(config),
                     "--folds", "2", "--out-dir", str(tmp_path / "out")]) == 2
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


def test_dwt_entry_without_mode_runs_in_periodization(tmp_path):
    data = _tiny_dataset(tmp_path)
    config = tmp_path / "grid.json"
    dwt_no_mode = {k: v for k, v in DWT.items() if k != "mode"}
    config.write_text(json.dumps({"schema": "wavefeat-grid", "classification": {
        "preprocess": {"derivative_order": 0}, "decomposition": dwt_no_mode,
        "model": {"kind": "lda"}}}))
    out = tmp_path / "out"
    assert cli.main(["gridsearch", "--data", str(data), "--config", str(config),
                     "--folds", "2", "--repeats", "1", "--out-dir", str(out)]) == 0
    rows = (out / "leaderboard_classification.tsv").read_text().splitlines()
    assert [r.split("\t")[3] for r in rows[2:]] == ["d0|dwt(db4,periodization,Lmax)|none|lda"]


def test_gridsearch_computes_each_signal_once(tmp_path, monkeypatch):
    # the grid search and the repeated CV of its winners read one table
    data = _tiny_dataset(tmp_path)  # 100 points, resampled to 128
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"schema": "wavefeat-grid", "classification": {
        "preprocess": {"derivative_order": [0, 1], "center": True},
        "decomposition": [{"kind": "none"}, DWT, {"kind": "wtt", "rank": 2}],
        "model": {"kind": "lda"}}}))
    calls = {"derivative": [], "resample": []}
    derivative, resample = harness.derivative_matrix, harness.resample_matrix
    monkeypatch.setattr(harness, "derivative_matrix", lambda wn, y, order: (
        calls["derivative"].append(order) or derivative(wn, y, order)))
    monkeypatch.setattr(harness, "resample_matrix", lambda wn, y, new_wn: (
        calls["resample"].append(y.shape) or resample(wn, y, new_wn)))
    assert cli.main(["gridsearch", "--data", str(data), "--config", str(config),
                     "--folds", "2", "--repeats", "2",
                     "--out-dir", str(tmp_path / "out")]) == 0
    assert sorted(calls["derivative"]) == [0, 1]
    assert calls["resample"] == [(15, 100)] * 2


def test_non_uniform_grid_with_a_derivative_exits_3(tmp_path, capsys):
    # strictly monotone, so the dataset loads; only the derivative needs a
    # uniform grid
    data = _tiny_dataset(tmp_path)
    lines = data.read_text().splitlines()
    header = lines[0].split(",")
    header[1] = repr(float(header[2]) + 3 * (float(header[2]) - float(header[3])))
    data.write_text("\n".join([",".join(header)] + lines[1:]) + "\n")
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"schema": "wavefeat-grid", "classification": {
        "preprocess": {"derivative_order": 1}, "model": {"kind": "lda"}}}))
    assert cli.main(["gridsearch", "--data", str(data), "--config", str(config),
                     "--folds", "2", "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "data error: derivative requires a uniform wavenumber grid" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("name", ["data.csv", "data.json"])
@pytest.mark.parametrize("command", ["gridsearch", "cluster"])
def test_dataset_without_wavenumbers_exits_3(tmp_path, capsys, name, command):
    # it used to load and then fail as a usage error of the grid search
    data = tmp_path / name
    if name == "data.csv":
        data.write_text("label\na\nb\na\nb\n")
    else:
        data.write_text(json.dumps({
            "schema": "wavefeat-dataset", "wavenumbers": [],
            "samples": [{"label": c, "intensities": []} for c in "abab"]}))
    assert cli.main([command, "--data", str(data), "--folds", "2",
                     "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"data error: {data}: wavenumber grid has no points" in err
    assert "Traceback" not in err


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
    ({"drift_width": -40}, "drift_width must be positive"),
    ({"drift_width": 0}, "drift_width must be positive"),
    # sigma squared underflows; a kernel far wider than the grid, which ran
    # out of memory or ran for minutes
    ({"drift_width": 1e-200}, "drift_width must lie in [1.00063e-100, 4002.5] cm^-1"),
    ({"drift_width": 1e5}, "drift_width must lie in [1.00063e-100, 4002.5] cm^-1"),
    ({"drift_width": 1e16}, "drift_width must lie in [1.00063e-100, 4002.5] cm^-1"),
], ids=["samples-per-class-int", "two-number-peak", "seed-str", "drift-width-negative",
        "drift-width-zero", "drift-width-1e-200", "drift-width-1e5", "drift-width-1e16"])
def test_synth_config_with_a_malformed_field_exits_2(tmp_path, capsys, fields,
                                                     message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(fields))
    assert cli.main(["synth", "--config", str(spec),
                     "--out", str(tmp_path / "data.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "data.csv").exists()


@pytest.mark.parametrize("command", ["report", "synth", "gridsearch", "cluster"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, command):
    # report's registry in a directory that does not exist; a regular file
    # where the other commands make their output directory
    data = _tiny_dataset(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(CLUSTER_GRID))
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    argv = {
        "report": ["report", "--registry", str(tmp_path / "nope" / "x.tsv")],
        "synth": ["synth", "--out", str(blocker / "d.csv")],
        "gridsearch": ["gridsearch", "--data", str(data), "--folds", "2",
                       "--out-dir", str(blocker)],
        "cluster": ["cluster", "--data", str(data), "--config", str(grid),
                    "--folds", "2", "--out-dir", str(blocker)],
    }[command]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write: ")
    assert "Traceback" not in err


ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads"


def _launch(args: list[str], threads: str) -> subprocess.CompletedProcess:
    """``args`` in a fresh interpreter launched with OPENBLAS_NUM_THREADS set
    to ``threads``, the package's source first on its path."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), path]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True)


@pytest.mark.parametrize("imports, expected", [("wavefeat", "1"), ("numpy, wavefeat", "2")],
                         ids=["package-first", "numpy-first"])
def test_package_imported_before_numpy_sets_one_blas_thread(imports, expected):
    code = f"import os, {imports}; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _launch(["-c", code], "2").stdout == expected + "\n"


def test_cluster_output_does_not_depend_on_the_launching_thread_count(tmp_path):
    # the 500-spectrum workload: its raw block's dendrogram rounded by the
    # thread count when the launching shell chose it
    data = tmp_path / "data.csv"
    _launch(["-m", "wavefeat.cli", "synth", "--seed", "7", "--config",
             str(WORKLOADS / "synth_large.json"), "--out", str(data)], "1")
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        _launch(["-m", "wavefeat.cli", "cluster", "--data", str(data), "--seed", "7",
                 "--config", str(WORKLOADS / "cluster_large_grid.json"),
                 "--folds", "2", "--out-dir", str(out)], threads)
        runs[threads] = {path.name: path.read_bytes() for path in out.iterdir()
                         if path.name != "manifest.json"}
    assert "dendrogram_original_d0.json" in runs["1"]
    assert runs["1"] == runs["2"]
