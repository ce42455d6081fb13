"""Dataset file ingestion and writing.

A dataset is a delimited CSV file: a header ``label,<wn_0>,<wn_1>,...``
(the shared wavenumber grid), then one row per sample, its label and its
intensities.  Floats are written with repr, so a round trip is lossless.
Blank lines are skipped.  The loader streams the rows: it checks each row's
value count and label as it reads it, and parses the intensities
``CSV_BLOCK_ROWS`` rows at a time with ``np.loadtxt``, so it never holds more
than one block of the file's text.  Only when a block's parse fails does it
look for the offending row, so error messages still name it by its line in
the file.  Of two faulty rows the first in the file is named; a row whose
value count or label is wrong is named before its intensities are read.

Files are read as UTF-8 with an optional byte-order mark, as spreadsheets
write it, and written as UTF-8 without one.  Every wavenumber and intensity
must be a finite number; NaN or infinity is a ParseError naming the row.
Labels are strings.  A file whose header does not start with ``label`` is
not a CSV dataset (a JSON document, say) and is a ParseError, as is any
file that cannot be read; a file with fewer than 2 samples is an
InvalidDatasetError.
"""
from __future__ import annotations

import itertools
import re

import numpy as np

from .errors import (GridMismatchError, InvalidDatasetError, InvalidInputError,
                     MissingLabelError, ParseError)
from .preprocess import LabeledDataset

CSV_BLOCK_ROWS = 64  # rows of a delimited file parsed per np.loadtxt call


def save_dataset(path: str, data: LabeledDataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        header = ["label"] + [repr(float(v)) for v in data.wavenumbers]
        fh.write(",".join(header) + "\n")
        for label, row in zip(data.labels, data.intensities):
            fh.write(",".join([str(label)] + [repr(float(v)) for v in row]) + "\n")


def load_dataset(path: str) -> LabeledDataset:
    """Read a dataset file.  A file that cannot be read is a ParseError, and
    a dataset that breaks a LabeledDataset precondition (fewer than 2
    samples, for one) is an InvalidDatasetError; both name the file."""
    try:
        wn, rows, labels = _load_delimited(path)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: cannot decode: {exc}") from exc
    try:
        return LabeledDataset(wn, rows, labels)
    except (InvalidInputError, InvalidDatasetError) as exc:
        raise InvalidDatasetError(f"{path}: {exc}") from exc


def _load_delimited(path: str) -> tuple[np.ndarray, np.ndarray, list]:
    with open(path, encoding="utf-8-sig") as fh:
        # (line number in the file, line) of every line that is not blank
        numbered = ((i, ln) for i, ln in enumerate(fh, start=1) if not ln.isspace())
        head_no, head = next(numbered, (0, ""))
        header = head.rstrip("\n").split(",")
        if header[0].strip().lower() != "label":
            raise ParseError(f"{path}: not a CSV dataset: the first column of "
                             f"its header must be 'label'")
        first = next(numbered, None)
        if first is None:
            raise ParseError(f"{path}: need a header row and at least one sample")
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


def _intensities(lines: list, size: int) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments=None,
                      usecols=range(1, size + 1), ndmin=2)


def _parse_block(path: str, block: list, size: int) -> np.ndarray:
    """The intensities of ``block``'s (line number, line) pairs as a
    (rows, size) array; a ParseError names the first row that has a
    non-numeric or a non-finite intensity.  When the block fails to parse,
    each row is parsed alone by the same parser, so the row named is one
    that parser rejects (Python's ``float`` accepts more, ``1_0`` for one)."""
    try:
        rows = _intensities([line for _, line in block], size)
    except ValueError as exc:
        for i, line in block:
            try:
                row = _intensities([line], size)
            except ValueError as row_exc:
                # the parser counts rows from 0 within what it was given
                reason = re.sub(r" at row \d+,", " at", str(row_exc))
                raise ParseError(f"{path}:{i}: non-numeric intensity: {reason}") from exc
            if not np.isfinite(row).all():
                raise ParseError(f"{path}:{i}: non-finite intensity") from exc
        raise ParseError(f"{path}: non-numeric intensity: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ParseError(f"{path}:{block[bad[0]][0]}: non-finite intensity")
    return rows
