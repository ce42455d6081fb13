"""Tests for dataset files: lossless round trips and row-named errors."""
import codecs
import json

import numpy as np
import pytest

from wavefeat import cli, dataio
from wavefeat.dataio import load_dataset, save_dataset
from wavefeat.errors import DataFormatError, InvalidDatasetError, ParseError
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
    with pytest.raises(InvalidDatasetError, match="at least 2 samples"):
        load_dataset(str(path))


@pytest.mark.parametrize("name, text", [
    ("one.csv", "label,1,2,3\nx,0.5,1.5,2.5\n"),
    ("none.json", json.dumps({"schema": "wavefeat-dataset", "version": 1,
                              "wavenumbers": [1, 2, 3], "samples": []})),
], ids=["one-sample-csv", "no-sample-json"])
def test_fewer_than_2_samples_is_a_data_error_exit_3(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert cli.main(["cluster", "--data", str(path), "--folds", "2",
                     "--out-dir", str(tmp_path / "out")]) == 3
    assert (f"data error: {path}: dataset needs at least 2 samples"
            in capsys.readouterr().err)


BAD_ROWS = pytest.mark.parametrize("row, message", [
    ("x,1,1,1", "row has 3 values, grid has 4"),
    ("x,1,1,1,1,1", "row has 5 values, grid has 4"),
    (" ,1,1,1,1", "empty label"),
    ("x,1,one,1,1", "non-numeric intensity"),
    ("x,1,1,,1", "non-numeric intensity"),
    ("x,1,1,nan,1", "non-finite intensity"),
    ("x,1,-inf,1,1", "non-finite intensity"),
], ids=["short", "long", "empty-label", "word", "empty-value", "nan", "inf"])


@BAD_ROWS
def test_bad_row_is_named_and_exits_3(tmp_path, capsys, row, message):
    rows = ["y,1,2,3,4", "z,5,6,7,8", "w,9,10,11,12", "v,13,14,15,16"]
    rows[2] = row
    path = tmp_path / "bad.csv"
    path.write_text("label,1,2,3,4\n" + "\n".join(rows) + "\n")
    assert cli.main(["cluster", "--data", str(path), "--folds", "2",
                     "--out-dir", str(tmp_path / "out")]) == 3
    assert f"{path}:4: {message}" in capsys.readouterr().err


@BAD_ROWS
def test_bad_row_after_blank_lines_is_named_by_its_line_in_the_file(
        tmp_path, capsys, row, message):
    rows = ["y,1,2,3,4", "", "  ", "z,5,6,7,8", row, "v,13,14,15,16"]
    path = tmp_path / "bad.csv"
    path.write_text("label,1,2,3,4\n" + "\n".join(rows) + "\n")
    assert cli.main(["cluster", "--data", str(path), "--folds", "2",
                     "--out-dir", str(tmp_path / "out")]) == 3
    assert f"{path}:6: {message}" in capsys.readouterr().err


def _rows(count):
    return [f"c{i % 3},{i},{i + 1},{i + 2},{i + 3}" for i in range(count)]


@BAD_ROWS
def test_bad_row_past_the_first_block_is_named(tmp_path, row, message):
    rows = _rows(2 * dataio.CSV_BLOCK_ROWS + 5)
    rows[dataio.CSV_BLOCK_ROWS + 7] = row
    path = tmp_path / "bad.csv"
    path.write_text("\nlabel,1,2,3,4\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataFormatError, match=f":{dataio.CSV_BLOCK_ROWS + 10}: {message}"):
        load_dataset(str(path))


def test_non_finite_wavenumber_is_named_by_its_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("\n\nlabel,1,inf,3\nx,1,2,3\ny,4,5,6\n")
    with pytest.raises(ParseError, match=r"bad\.csv:3: non-finite wavenumber"):
        load_dataset(str(path))


@pytest.mark.parametrize("first, second, named", [
    # the first faulty row in the file is named, whatever its fault
    ("x,1,nan,3,4", "x,1,2", "3: non-finite intensity"),
    ("x,1,2", "x,1,one,3,4", "3: row has 2 values, grid has 4"),
    ("x,1,one,3,4", " ,1,2,3,4", "3: non-numeric intensity"),
    ("x,1,inf,3,4", "x,1,one,3,4", "3: non-finite intensity"),
    # within one row, the value count, then the label, then the values
    ("x,1,one", "y,1,2,3,4", "3: row has 2 values, grid has 4"),
    (" ,1,one,3,4", "y,1,2,3,4", "3: empty label"),
    ("x,one,nan,3,4", "y,1,2,3,4", "3: non-numeric intensity"),
], ids=["non-finite-then-short", "short-then-word", "word-then-empty-label",
        "inf-then-word", "short-row-with-a-word", "empty-label-and-a-word",
        "word-and-nan"])
def test_of_two_faulty_rows_the_first_is_named(tmp_path, first, second, named):
    rows = ["y,1,2,3,4", first, "z,5,6,7,8", second, "w,9,10,11,12"]
    path = tmp_path / "bad.csv"
    path.write_text("label,1,2,3,4\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataFormatError) as err:
        load_dataset(str(path))
    assert f"bad.csv:{named}" in str(err.value)


def test_a_fault_in_an_earlier_block_is_named_before_a_later_one(tmp_path):
    rows = _rows(3 * dataio.CSV_BLOCK_ROWS)
    rows[2 * dataio.CSV_BLOCK_ROWS + 1] = "x,1,2"
    rows[dataio.CSV_BLOCK_ROWS - 1] = "x,1,2,nan,4"
    path = tmp_path / "bad.csv"
    path.write_text("label,1,2,3,4\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError, match=f":{dataio.CSV_BLOCK_ROWS + 1}: non-finite"):
        load_dataset(str(path))


def test_rows_over_several_blocks_with_blank_lines_load_in_order(tmp_path):
    count = 2 * dataio.CSV_BLOCK_ROWS + 1
    rows = _rows(count)
    path = tmp_path / "many.csv"
    path.write_text("label,1,2,3,4\n" + "\n\n".join(rows) + "\n")
    data = load_dataset(str(path))
    assert data.labels == [f"c{i % 3}" for i in range(count)]
    want = np.arange(count)[:, None] + np.arange(4.0)
    assert data.intensities.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["data.csv", "data.json"])
def test_a_byte_order_mark_is_read_past(tmp_path, name):
    # spreadsheets' "CSV UTF-8" starts the file with one
    data = _awkward_dataset()
    data.labels[0] = "Mentha \u00d7 piperita"
    plain = tmp_path / name
    save_dataset(str(plain), data)
    text = plain.read_bytes()
    assert not text.startswith(codecs.BOM_UTF8)
    text.decode("utf-8")  # the JSON writer escapes the label to ASCII
    marked = tmp_path / ("bom-" + name)
    marked.write_bytes(codecs.BOM_UTF8 + text)
    back, want = load_dataset(str(marked)), load_dataset(str(plain))
    assert back.labels == want.labels == data.labels
    assert back.wavenumbers.tobytes() == want.wavenumbers.tobytes()
    assert back.intensities.tobytes() == want.intensities.tobytes()


@pytest.mark.parametrize("wavenumbers, message", [
    ("123", '"wavenumbers" must be a list, got str'),
    (None, '"wavenumbers" must be a list, got NoneType'),
    ([1, "two", 3], "malformed document"),
], ids=["string", "null", "word"])
def test_malformed_structured_wavenumbers_exit_3(tmp_path, capsys, wavenumbers, message):
    # a string would otherwise be read one character per wavenumber
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "wavefeat-dataset", "version": 1,
                                "wavenumbers": wavenumbers, "samples": [
                                    {"label": "a", "intensities": [1, 2, 3]},
                                    {"label": "b", "intensities": [4, 5, 6]}]}))
    assert cli.main(["cluster", "--data", str(path), "--folds", "2",
                     "--out-dir", str(tmp_path / "out")]) == 3
    assert f"data error: {path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("samples, message", [
    ({"label": "a", "intensities": [1, 2, 3]}, '"samples" must be a list, got dict'),
    (7, '"samples" must be a list, got int'),
    ([{"label": "a", "intensities": [1, 2, 3]}, [1, 2, 3]],
     "sample 1 must be an object, got list"),
    (["a", "b"], "sample 0 must be an object, got str"),
    ([{"label": "a", "intensities": 5}, {"label": "b", "intensities": [1, 2, 3]}],
     "sample 0: intensities must be a list, got int"),
], ids=["samples-object", "samples-number", "entry-list", "entry-string",
        "intensities-number"])
def test_malformed_structured_samples_exit_3(tmp_path, capsys, samples, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "wavefeat-dataset", "version": 1,
                                "wavenumbers": [1, 2, 3], "samples": samples}))
    assert cli.main(["cluster", "--data", str(path), "--folds", "2",
                     "--out-dir", str(tmp_path / "out")]) == 3
    assert f"data error: {path}: {message}" in capsys.readouterr().err
