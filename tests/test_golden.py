"""Golden end-to-end run: synth, gridsearch and cluster on a tiny data set,
with every table and leaderboard compared byte for byte with the files in
``tests/golden/expected``.

A change that is meant to move results regenerates the expected files with

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
COMPARED = ("table_*.tsv", "leaderboard_*.tsv")


def _run(out_dir: Path) -> list[str]:
    """Run the three commands into out_dir; the names of the compared files."""
    data = out_dir / "data.csv"
    grid = str(GOLDEN / "grid.json")
    assert cli.main(["synth", "--config", str(GOLDEN / "synth.json"),
                     "--seed", "3", "--out", str(data)]) == 0
    assert cli.main(["gridsearch", "--data", str(data), "--config", grid,
                     "--seed", "3", "--folds", "2", "--repeats", "2",
                     "--out-dir", str(out_dir)]) == 0
    assert cli.main(["cluster", "--data", str(data), "--config", grid,
                     "--seed", "3", "--folds", "2",
                     "--out-dir", str(out_dir)]) == 0
    return sorted(p.name for pattern in COMPARED for p in out_dir.glob(pattern))


def test_tables_and_leaderboards_match_golden_files(tmp_path):
    names = _run(tmp_path)
    assert names == sorted(p.name for p in EXPECTED.iterdir())
    _, mismatch, errors = filecmp.cmpfiles(tmp_path, EXPECTED, names, shallow=False)
    assert mismatch == [] and errors == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        EXPECTED.mkdir(exist_ok=True)
        for name in _run(Path(tmp)):
            shutil.copyfile(Path(tmp) / name, EXPECTED / name)
