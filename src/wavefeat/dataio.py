"""Dataset file ingestion and writing.

Two formats carry the same schema (shared wavenumber grid, one labeled
intensity row per sample):

* delimited (.csv): header ``label,<wn_0>,<wn_1>,...`` then one row per
  sample; floats are written with repr so a round trip is lossless.  Blank
  lines are skipped.  The loader streams the rows: it checks each row's
  value count and label as it reads it, and parses the intensities
  ``CSV_BLOCK_ROWS`` rows at a time with ``np.loadtxt``, so it never holds
  more than one block of the file's text.  Only when a block's parse fails
  does it look for the offending row, so error messages still name it by
  its line in the file.  Of two faulty rows the first in the file is
  named; a row whose value count or label is wrong is named before its
  intensities are read.
* structured (.json): ``{"schema": "wavefeat-dataset", "version": 1,
  "wavenumbers": [...], "samples": [{"label": ..., "intensities": [...]}]}``.

Both formats are read as UTF-8 with an optional byte-order mark, as
spreadsheets write it, and written as UTF-8 without one.  Every wavenumber
and intensity must be a finite number; NaN or infinity is a ParseError
naming the row (delimited) or the sample index (structured).
Labels are strings in both formats: a structured label such as ``1`` is
read as ``"1"``, so ``1`` and ``"1"`` name one class.  A file that cannot be
read is a ParseError, and a file with fewer than 2 samples an
InvalidDatasetError.
"""
from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

from .errors import (GridMismatchError, InvalidDatasetError, InvalidInputError,
                     MissingLabelError, ParseError)
from .preprocess import LabeledDataset

FORMATS = ("delimited", "structured")
SCHEMA_NAME = "wavefeat-dataset"
CSV_BLOCK_ROWS = 64  # rows of a delimited file parsed per np.loadtxt call


def sniff_format(path: str) -> str:
    ext = os.path.splitext(path)[1].lower()
    return "structured" if ext == ".json" else "delimited"


def save_dataset(path: str, data: LabeledDataset, format: str | None = None) -> None:
    fmt = format or sniff_format(path)
    if fmt == "delimited":
        with open(path, "w", encoding="utf-8") as fh:
            header = ["label"] + [repr(float(v)) for v in data.wavenumbers]
            fh.write(",".join(header) + "\n")
            for label, row in zip(data.labels, data.intensities):
                fh.write(",".join([str(label)] + [repr(float(v)) for v in row]) + "\n")
    elif fmt == "structured":
        doc = {
            "schema": SCHEMA_NAME,
            "version": 1,
            "wavenumbers": [float(v) for v in data.wavenumbers],
            "samples": [
                {"label": str(label), "intensities": [float(v) for v in row]}
                for label, row in zip(data.labels, data.intensities)
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
    else:
        raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def load_dataset(path: str, format: str | None = None) -> LabeledDataset:
    """Read a dataset file.  A file that cannot be read is a ParseError, and
    a dataset that breaks a LabeledDataset precondition (fewer than 2
    samples, for one) is an InvalidDatasetError; both name the file."""
    fmt = format or sniff_format(path)
    if fmt not in FORMATS:
        raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    load = _load_delimited if fmt == "delimited" else _load_structured
    try:
        wn, rows, labels = load(path)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: cannot decode: {exc}") from exc
    try:
        return LabeledDataset(wn, rows, labels)
    except InvalidInputError as exc:
        raise InvalidDatasetError(f"{path}: {exc}") from exc


def _load_delimited(path: str) -> tuple[np.ndarray, np.ndarray, list]:
    with open(path, encoding="utf-8-sig") as fh:
        # (line number in the file, line) of every line that is not blank
        numbered = ((i, ln) for i, ln in enumerate(fh, start=1) if not ln.isspace())
        head_no, head = next(numbered, (0, ""))
        first = next(numbered, None)
        if first is None:
            raise ParseError(f"{path}: need a header row and at least one sample")
        header = head.rstrip("\n").split(",")
        if header[0].strip().lower() != "label":
            raise MissingLabelError(f"{path}: first header column must be 'label'")
        try:
            wn = np.array([float(v) for v in header[1:]])
        except ValueError as exc:
            raise ParseError(f"{path}: non-numeric wavenumber in header: {exc}") from exc
        if not np.all(np.isfinite(wn)):
            raise ParseError(f"{path}:{head_no}: non-finite wavenumber in header")
        labels, blocks, block = [], [], []
        for i, line in itertools.chain([first], numbered):
            values = line.count(",")
            label = line.split(",", 1)[0].rstrip("\n")
            if values != wn.size or label.strip() == "":
                if block:  # a row before this one may hold an earlier fault
                    _parse_block(path, block, wn.size)
                if values != wn.size:
                    raise GridMismatchError(
                        f"{path}:{i}: row has {values} values, grid has {wn.size}")
                raise MissingLabelError(f"{path}:{i}: empty label")
            labels.append(label)
            block.append((i, line))
            if len(block) == CSV_BLOCK_ROWS:
                blocks.append(_parse_block(path, block, wn.size))
                block = []
    if block:
        blocks.append(_parse_block(path, block, wn.size))
    del block  # the last block's text is not held while the blocks are joined
    rows = np.concatenate(blocks)
    return wn, rows, labels


def _parse_block(path: str, block: list, size: int) -> np.ndarray:
    """The intensities of ``block``'s (line number, line) pairs as a
    (rows, size) array; a ParseError names the first row that has a
    non-numeric or a non-finite intensity."""
    try:
        rows = np.loadtxt([line for _, line in block], delimiter=",", comments=None,
                          usecols=range(1, size + 1), ndmin=2)
    except ValueError as exc:
        for i, line in block:
            try:
                values = [float(v) for v in line.split(",")[1:]]
            except ValueError as row_exc:
                raise ParseError(f"{path}:{i}: non-numeric intensity: {row_exc}") from exc
            if not all(map(math.isfinite, values)):
                raise ParseError(f"{path}:{i}: non-finite intensity") from exc
        raise ParseError(f"{path}: non-numeric intensity: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ParseError(f"{path}:{block[bad[0]][0]}: non-finite intensity")
    return rows


def _load_structured(path: str) -> tuple[np.ndarray, np.ndarray, list]:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_NAME:
        raise ParseError(f"{path}: not a {SCHEMA_NAME} document")
    for key in ("wavenumbers", "samples"):
        if not isinstance(doc.get(key), list):
            raise ParseError(f'{path}: "{key}" must be a list, '
                             f"got {type(doc.get(key)).__name__}")
    try:
        wn = np.array([float(v) for v in doc["wavenumbers"]])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed document: {exc}") from exc
    if not np.all(np.isfinite(wn)):
        raise ParseError(f"{path}: non-finite wavenumber")
    samples = doc["samples"]
    labels, rows = [], []
    for i, sample in enumerate(samples):
        if not isinstance(sample, dict):
            raise ParseError(f"{path}: sample {i} must be an object, "
                             f"got {type(sample).__name__}")
        if "label" not in sample:
            raise MissingLabelError(f"{path}: sample {i} has no label")
        vals = sample.get("intensities")
        if not isinstance(vals, (list, type(None))):
            raise ParseError(f"{path}: sample {i}: intensities must be a list, "
                             f"got {type(vals).__name__}")
        if vals is None or len(vals) != wn.size:
            raise GridMismatchError(
                f"{path}: sample {i} has {0 if vals is None else len(vals)} "
                f"values, grid has {wn.size}")
        labels.append(str(sample["label"]))
        try:
            rows.append([float(v) for v in vals])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: sample {i}: non-numeric intensity: {exc}") from exc
        if not np.all(np.isfinite(rows[-1])):
            raise ParseError(f"{path}: sample {i} has a non-finite intensity")
    return wn, np.array(rows, dtype=float).reshape(len(rows), wn.size), labels
