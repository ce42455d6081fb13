"""Tests for dataset files: lossless round trips and row-named errors."""
import numpy as np
import pytest

from wavefeat import cli
from wavefeat.dataio import load_dataset, save_dataset
from wavefeat.errors import InvalidInputError
from wavefeat.preprocess import LabeledDataset


def _awkward_dataset():
    """Values whose shortest repr needs all 17 digits, extremes of the
    double range, signed zero, and labels with spaces and '#'."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 6)) * 10.0 ** rng.integers(-300, 300, (4, 6))
    x[0, :3] = [-0.0, 5e-324, np.finfo(float).max]
    x[1, :2] = [0.1 + 0.2, -np.finfo(float).tiny]
    wn = np.sort(rng.uniform(400.0, 4000.0, 6))[::-1]
    return LabeledDataset(wn, x, ["a b", "#1", "c#", "-7"])


@pytest.mark.parametrize("name", ["data.csv", "data.json"])
def test_round_trip_is_bit_exact(tmp_path, name):
    data = _awkward_dataset()
    path = str(tmp_path / name)
    save_dataset(path, data)
    back = load_dataset(path)
    assert back.wavenumbers.tobytes() == data.wavenumbers.tobytes()
    assert back.intensities.tobytes() == data.intensities.tobytes()
    assert back.labels == data.labels


def test_label_containing_hash_is_not_a_comment(tmp_path):
    path = tmp_path / "hash.csv"
    path.write_text("label,1,2\n#a,0.5,1.5\nb#,2.5,3.5\n")
    data = load_dataset(str(path))
    assert data.labels == ["#a", "b#"]
    assert data.intensities.tolist() == [[0.5, 1.5], [2.5, 3.5]]


def test_one_sample_csv_parses_as_one_row(tmp_path):
    # the block parse keeps a single row two-dimensional, so the dataset
    # check that rejects it is the sample count, not the array shape
    path = tmp_path / "one.csv"
    path.write_text("label,1,2,3\nx,0.5,1.5,2.5\n")
    with pytest.raises(InvalidInputError, match="at least 2 samples"):
        load_dataset(str(path))


@pytest.mark.parametrize("row, message", [
    ("x,1,1,1", "row has 3 values, grid has 4"),
    ("x,1,1,1,1,1", "row has 5 values, grid has 4"),
    (" ,1,1,1,1", "empty label"),
    ("x,1,one,1,1", "non-numeric intensity"),
    ("x,1,1,,1", "non-numeric intensity"),
    ("x,1,1,nan,1", "non-finite intensity"),
    ("x,1,-inf,1,1", "non-finite intensity"),
], ids=["short", "long", "empty-label", "word", "empty-value", "nan", "inf"])
def test_bad_row_is_named_and_exits_3(tmp_path, capsys, row, message):
    rows = ["y,1,2,3,4", "z,5,6,7,8", "w,9,10,11,12", "v,13,14,15,16"]
    rows[2] = row
    path = tmp_path / "bad.csv"
    path.write_text("label,1,2,3,4\n" + "\n".join(rows) + "\n")
    assert cli.main(["cluster", "--data", str(path), "--folds", "2",
                     "--out-dir", str(tmp_path / "out")]) == 3
    assert f"{path}:4: {message}" in capsys.readouterr().err
