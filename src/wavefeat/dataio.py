"""Dataset file ingestion and writing.

Two formats carry the same schema (shared wavenumber grid, one labeled
intensity row per sample):

* delimited (.csv): header ``label,<wn_0>,<wn_1>,...`` then one row per
  sample; floats are written with repr so a round trip is lossless.  The
  loader checks each row's value count and label, then parses every
  intensity in one ``np.loadtxt`` block; only when that parse fails does it
  look for the offending row, so error messages still name it.
* structured (.json): ``{"schema": "wavefeat-dataset", "version": 1,
  "wavenumbers": [...], "samples": [{"label": ..., "intensities": [...]}]}``.

Every wavenumber and intensity must be a finite number; NaN or infinity is
a ParseError naming the row (delimited) or the sample index (structured).
Labels are strings in both formats: a structured label such as ``1`` is
read as ``"1"``, so ``1`` and ``"1"`` name one class.  A file that cannot be
read is a ParseError, and a file with fewer than 2 samples an
InvalidDatasetError.
"""
from __future__ import annotations

import json
import os

import numpy as np

from .errors import (GridMismatchError, InvalidDatasetError, InvalidInputError,
                     MissingLabelError, ParseError)
from .preprocess import LabeledDataset

FORMATS = ("delimited", "structured")
SCHEMA_NAME = "wavefeat-dataset"


def sniff_format(path: str) -> str:
    ext = os.path.splitext(path)[1].lower()
    return "structured" if ext == ".json" else "delimited"


def save_dataset(path: str, data: LabeledDataset, format: str | None = None) -> None:
    fmt = format or sniff_format(path)
    if fmt == "delimited":
        with open(path, "w") as fh:
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
        with open(path, "w") as fh:
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
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise ParseError(f"{path}: need a header row and at least one sample")
    header = lines[0].split(",")
    if not header or header[0].strip().lower() != "label":
        raise MissingLabelError(f"{path}: first header column must be 'label'")
    try:
        wn = np.array([float(v) for v in header[1:]])
    except ValueError as exc:
        raise ParseError(f"{path}: non-numeric wavenumber in header: {exc}") from exc
    if not np.all(np.isfinite(wn)):
        raise ParseError(f"{path}:1: non-finite wavenumber in header")
    labels = []
    for i, line in enumerate(lines[1:], start=2):
        if line.count(",") != wn.size:
            raise GridMismatchError(
                f"{path}:{i}: row has {line.count(',')} values, grid has {wn.size}")
        label = line.split(",", 1)[0]
        if label.strip() == "":
            raise MissingLabelError(f"{path}:{i}: empty label")
        labels.append(label)
    try:
        rows = np.loadtxt(lines[1:], delimiter=",", comments=None,
                          usecols=range(1, wn.size + 1), ndmin=2)
    except ValueError as exc:
        for i, line in enumerate(lines[1:], start=2):
            try:
                [float(v) for v in line.split(",")[1:]]
            except ValueError as row_exc:
                raise ParseError(f"{path}:{i}: non-numeric intensity: {row_exc}") from exc
        raise ParseError(f"{path}: non-numeric intensity: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ParseError(f"{path}:{bad[0] + 2}: non-finite intensity")
    return wn, rows, labels


def _load_structured(path: str) -> tuple[np.ndarray, np.ndarray, list]:
    try:
        with open(path) as fh:
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
