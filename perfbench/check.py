"""Output check for one CLI run of a benchmark workload.

Parses the leaderboard and every ``table_*.tsv`` the command writes, checks
that each grid config is ranked exactly once, that every score is finite and
in range, and that the table cells for the grid's derivative orders are
filled (and the others are not).  A clustering run must also write one
dendrogram per filled table cell.  Returns the sha256 of each checked file,
so that a change which claims only speed can show byte-identical outputs.
"""
from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

DERIVATIVES = ("f", "f'", "f''")
CLASSIFY_TABLES = {
    "table_lda.tsv": ("original", "DWT (thr)", "DWT (sign)", "WTT (thr)", "WTT (sign)"),
    "table_lr.tsv": ("original", "DWT", "WTT"),
}
CLUSTER_SPACES = ("original", "DWT", "WTT")
# clustering table row -> score range
CLUSTER_ROWS = {
    "adjusted_rand": (-1.0, 1.0),
    "adjusted_mutual_info": (-1.0, 1.0),
    "fowlkes_mallows": (0.0, 1.0),
}


class CheckError(Exception):
    """An output file is missing, malformed or out of range."""


def _rows(path: Path) -> list[list[str]]:
    if not path.is_file():
        raise CheckError(f"missing output {path.name}")
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# wavefeat"):
        raise CheckError(f"{path.name}: no self-describing header")
    return [line.split("\t") for line in lines[1:]]


def _score(text: str, lo: float, hi: float, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckError(f"{where}: {text!r} is not a number") from None
    if not (math.isfinite(value) and lo <= value <= hi):
        raise CheckError(f"{where}: {value} outside [{lo}, {hi}]")
    return value


def canonical(config: dict) -> str:
    return json.dumps(config, sort_keys=True)


def check_leaderboard(path: Path, metric: str, lo: float, hi: float,
                      expected: list[str]) -> None:
    rows = _rows(path)
    if not rows or rows[0] != ["rank", "score", "metric", "label", "config"]:
        raise CheckError(f"{path.name}: unexpected header")
    seen, last = [], math.inf
    for rank, row in enumerate(rows[1:], start=1):
        where = f"{path.name} rank {rank}"
        if len(row) != 5 or row[0] != str(rank) or row[2] != metric:
            raise CheckError(f"{where}: malformed row")
        score = _score(row[1], lo, hi, where)
        if score > last:
            raise CheckError(f"{where}: leaderboard not sorted")
        last = score
        try:
            seen.append(canonical(json.loads(row[4])))
        except json.JSONDecodeError:
            raise CheckError(f"{where}: config is not JSON") from None
    missing = Counter(expected) - Counter(seen)
    extra = Counter(seen) - Counter(expected)
    if missing or extra:
        raise CheckError(f"{path.name}: {sum(missing.values())} grid configs missing, "
                         f"{sum(extra.values())} unexpected or repeated")


def _cells(row: list[str], first: int, orders: set[int], lo: float, hi: float,
           where: str) -> list[float]:
    """Score cells in groups of three derivative columns starting at
    ``first``; cells for orders outside the grid must read '-'."""
    values = []
    for col in range(first, len(row)):
        order = (col - first) % 3
        if order in orders:
            values.append(_score(row[col], lo, hi, f"{where} col {col}"))
        elif row[col] != "-":
            raise CheckError(f"{where} col {col}: filled for an order not in the grid")
    return values


def check_classification_table(path: Path, spaces, orders: set[int]) -> list[float]:
    """Returns the test-accuracy cells."""
    rows = _rows(path)
    header = ["feature_space", "part"] + [
        f"{metric}:{d}" for metric in ("accuracy", "f1_weighted") for d in DERIVATIVES]
    if not rows or rows[0] != header:
        raise CheckError(f"{path.name}: unexpected header")
    expected = [(space, part) for space in spaces for part in ("train", "test")]
    if [tuple(r[:2]) for r in rows[1:]] != expected:
        raise CheckError(f"{path.name}: unexpected rows")
    test_accuracy = []
    for row in rows[1:]:
        if len(row) != len(header):
            raise CheckError(f"{path.name} {row[:2]}: wrong column count")
        values = _cells(row, 2, orders, 0.0, 1.0, f"{path.name} {row[0]}/{row[1]}")
        if row[1] == "test":
            test_accuracy.extend(values[:len(values) // 2])
    return test_accuracy


def check_clustering_table(path: Path, orders: set[int]) -> list[float]:
    """Returns the adjusted Rand index cells."""
    rows = _rows(path)
    header = ["score"] + [f"{s}:{d}" for s in CLUSTER_SPACES for d in DERIVATIVES]
    if not rows or rows[0] != header:
        raise CheckError(f"{path.name}: unexpected header")
    if [r[0] for r in rows[1:]] != list(CLUSTER_ROWS):
        raise CheckError(f"{path.name}: unexpected rows")
    ari = []
    for row in rows[1:]:
        if len(row) != len(header):
            raise CheckError(f"{path.name} {row[0]}: wrong column count")
        lo, hi = CLUSTER_ROWS[row[0]]
        values = _cells(row, 1, orders, lo, hi, f"{path.name} {row[0]}")
        if row[0] == "adjusted_rand":
            ari = values
    return ari


def check_dendrograms(out_dir: Path, orders: set[int]) -> list[Path]:
    """One ``dendrogram_<space>_d<order>.json`` per filled clustering cell,
    each a JSON tree over the whole dataset."""
    expected = sorted(f"dendrogram_{space}_d{order}.json"
                      for space in CLUSTER_SPACES for order in orders)
    found = sorted(p.name for p in out_dir.glob("dendrogram_*.json"))
    if found != expected:
        raise CheckError(f"dendrograms {found}, expected {expected}")
    paths = [out_dir / name for name in expected]
    for path in paths:
        try:
            tree = json.loads(path.read_text())
        except json.JSONDecodeError:
            raise CheckError(f"{path.name} is not JSON") from None
        if not isinstance(tree, dict) or "root" not in tree or tree.get("n_leaves", 0) < 2:
            raise CheckError(f"{path.name}: not a dendrogram")
    return paths


def check_run(out_dir: Path, task: str, expected: list[str]) -> dict:
    """Check one run's outputs against the expanded grid (canonical config
    JSON strings).  Returns {"score_mean": ..., "sha256": {file: digest}}."""
    orders = {json.loads(c)["preprocess"]["derivative_order"] for c in expected}
    dendrograms = []
    if task == "classification":
        board = out_dir / "leaderboard_classification.tsv"
        check_leaderboard(board, "test_accuracy", 0.0, 1.0, expected)
        tables = [out_dir / name for name in CLASSIFY_TABLES]
        scores = []
        for table in tables:
            scores += check_classification_table(table, CLASSIFY_TABLES[table.name], orders)
    else:
        board = out_dir / "leaderboard_clustering.tsv"
        check_leaderboard(board, "ari", -1.0, 1.0, expected)
        tables = [out_dir / "table_clustering.tsv"]
        scores = check_clustering_table(tables[0], orders)
        dendrograms = check_dendrograms(out_dir, orders)
    found = sorted(p.name for p in out_dir.glob("table_*.tsv"))
    if found != sorted(t.name for t in tables):
        raise CheckError(f"unexpected table set {found}")
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckError(f"manifest.json unreadable: {exc}") from None
    if manifest.get("grid_size") != len(expected):
        raise CheckError(f"manifest grid_size {manifest.get('grid_size')} != {len(expected)}")
    return {
        "score_mean": sum(scores) / len(scores),
        "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in [board, *tables, *dendrograms]},
    }
