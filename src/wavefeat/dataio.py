"""Dataset file ingestion and writing.

Two formats carry the same schema (shared wavenumber grid, one labeled
intensity row per sample):

* delimited (.csv): header ``label,<wn_0>,<wn_1>,...`` then one row per
  sample; floats are written with repr so a round trip is lossless.
* structured (.json): ``{"schema": "wavefeat-dataset", "version": 1,
  "wavenumbers": [...], "samples": [{"label": ..., "intensities": [...]}]}``.

Every wavenumber and intensity must be a finite number; NaN or infinity is
a ParseError naming the row (delimited) or the sample index (structured).
"""
from __future__ import annotations

import json
import os

import numpy as np

from .errors import GridMismatchError, MissingLabelError, ParseError
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
    fmt = format or sniff_format(path)
    if fmt == "delimited":
        return _load_delimited(path)
    if fmt == "structured":
        return _load_structured(path)
    raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _load_delimited(path: str) -> LabeledDataset:
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
    labels, rows = [], []
    for i, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != wn.size + 1:
            raise GridMismatchError(
                f"{path}:{i}: row has {len(fields) - 1} values, grid has {wn.size}")
        if fields[0].strip() == "":
            raise MissingLabelError(f"{path}:{i}: empty label")
        labels.append(fields[0])
        try:
            rows.append([float(v) for v in fields[1:]])
        except ValueError as exc:
            raise ParseError(f"{path}:{i}: non-numeric intensity: {exc}") from exc
        if not np.all(np.isfinite(rows[-1])):
            raise ParseError(f"{path}:{i}: non-finite intensity")
    return LabeledDataset(wn, np.array(rows), labels)


def _load_structured(path: str) -> LabeledDataset:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_NAME:
        raise ParseError(f"{path}: not a {SCHEMA_NAME} document")
    try:
        wn = np.array([float(v) for v in doc["wavenumbers"]])
        samples = doc["samples"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed document: {exc}") from exc
    if not np.all(np.isfinite(wn)):
        raise ParseError(f"{path}: non-finite wavenumber")
    labels, rows = [], []
    for i, sample in enumerate(samples):
        if "label" not in sample:
            raise MissingLabelError(f"{path}: sample {i} has no label")
        vals = sample.get("intensities")
        if vals is None or len(vals) != wn.size:
            raise GridMismatchError(
                f"{path}: sample {i} has {0 if vals is None else len(vals)} "
                f"values, grid has {wn.size}")
        labels.append(sample["label"])
        try:
            rows.append([float(v) for v in vals])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: sample {i}: non-numeric intensity: {exc}") from exc
        if not np.all(np.isfinite(rows[-1])):
            raise ParseError(f"{path}: sample {i} has a non-finite intensity")
    return LabeledDataset(wn, np.array(rows), labels)
