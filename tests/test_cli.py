"""Tests for the command-line entry points."""
import json

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
