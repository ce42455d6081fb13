"""Golden end-to-end runs: synth, gridsearch and cluster, with every table
and leaderboard compared byte for byte with committed files.

- ``tests/golden/expected`` holds the run of a tiny grid
  (``tests/golden/grid.json``) on 18 spectra of 128 points.
- ``tests/golden/expected_packaged`` holds the run of the packaged grids (no
  ``--config``) on 42 spectra of 400 points, 7 classes of 6, with 2 folds and
  one repeat.  It pins f' and f'', threshold, sign and contrast, WTT ranks
  1, 2 and 6, both LR penalties and every HAC model of the packaged grids,
  and its cells are off the ceiling, so a move of any of them shows.

A change that is meant to move results regenerates both sets of expected
files with

    PYTHONPATH=src python tests/test_golden.py

and shows the difference in its description.
"""
import filecmp
import shutil
import tempfile
from pathlib import Path

from wavefeat import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected"
EXPECTED_PACKAGED = GOLDEN / "expected_packaged"
COMPARED = ("table_*.tsv", "leaderboard_*.tsv")
# expected files -> (synth spec, grid arguments, gridsearch --repeats)
RUNS = {
    EXPECTED: (GOLDEN / "synth.json", ["--config", str(GOLDEN / "grid.json")], "2"),
    EXPECTED_PACKAGED: (GOLDEN / "synth_packaged.json", [], "1"),
}


def _run(out_dir: Path, expected: Path) -> list[str]:
    """Run the three commands of expected's run into out_dir; the names of
    the compared files."""
    spec, grid, repeats = RUNS[expected]
    data = out_dir / "data.csv"
    assert cli.main(["synth", "--config", str(spec),
                     "--seed", "3", "--out", str(data)]) == 0
    assert cli.main(["gridsearch", "--data", str(data), *grid,
                     "--seed", "3", "--folds", "2", "--repeats", repeats,
                     "--out-dir", str(out_dir)]) == 0
    assert cli.main(["cluster", "--data", str(data), *grid,
                     "--seed", "3", "--folds", "2",
                     "--out-dir", str(out_dir)]) == 0
    return sorted(p.name for pattern in COMPARED for p in out_dir.glob(pattern))


def _assert_matches(out_dir: Path, expected: Path) -> None:
    names = _run(out_dir, expected)
    assert names == sorted(p.name for p in expected.iterdir())
    _, mismatch, errors = filecmp.cmpfiles(out_dir, expected, names, shallow=False)
    assert mismatch == [] and errors == []


def test_tables_and_leaderboards_match_golden_files(tmp_path):
    _assert_matches(tmp_path, EXPECTED)


def test_packaged_grids_match_golden_files(tmp_path):
    _assert_matches(tmp_path, EXPECTED_PACKAGED)


if __name__ == "__main__":
    for expected in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            expected.mkdir(exist_ok=True)
            for name in _run(Path(tmp), expected):
                shutil.copyfile(Path(tmp) / name, expected / name)
