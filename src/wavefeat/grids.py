"""Config-lattice expansion from a structured grid document.

A grid document has one section per pipeline stage; list-valued fields are
crossed in declared order, and the stages combine as
preprocess x decomposition x transform x model (preprocess slowest).
Each stage's specs are built first, so an invalid value raises: an unknown
wavelet, a parameter a model does not take, or ward linkage crossed with a
non-euclidean affinity (list such pairs as separate entries).  Combinations
that break a cross-stage rule (a transform without a decomposition, sign
quantization with clustering, contrasting with a classifier) are skipped
and counted by rule.
"""
from __future__ import annotations

import itertools
import json
from collections import Counter
from importlib import resources

from .errors import InvalidConfigError
from .harness import (ModelSpec, PipelineConfig, PreprocessConfig, TransformSpec,
                      check_stage_keys, decomposition_from_dict, spec_from_dict)

GRID_SCHEMA = "wavefeat-grid"


def _expand_mapping(entry: dict) -> list[dict]:
    keys = list(entry.keys())
    value_lists = [v if isinstance(v, list) else [v] for v in entry.values()]
    return [dict(zip(keys, combo)) for combo in itertools.product(*value_lists)]


def _expand_section(doc: dict, key: str) -> list[dict]:
    """Stage ``key``'s fields: an object or a list of objects (absent: kind
    none); anything else raises InvalidConfigError."""
    section = doc.get(key, {"kind": "none"})
    entries = [section] if isinstance(section, dict) else section
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise InvalidConfigError(
            f"grid section: {key} must be an object or a list of objects")
    return [combo for entry in entries for combo in _expand_mapping(entry)]


class ConfigGrid(list):
    """Configs in grid order; ``skipped`` maps each cross-stage rule to the
    number of grid points it removed."""

    def __init__(self, configs, skipped: dict):
        super().__init__(configs)
        self.skipped = skipped


def expand_grid(doc: dict) -> ConfigGrid:
    """Expand one task section ({preprocess, decomposition, transform, model})."""
    check_stage_keys(doc)
    preps = [spec_from_dict(PreprocessConfig, e)
             for e in _expand_section(doc, "preprocess")]
    decs = [decomposition_from_dict(e)
            for e in _expand_section(doc, "decomposition")]
    transforms = [spec_from_dict(TransformSpec, e)
                  for e in _expand_section(doc, "transform")]
    mdls = [spec_from_dict(ModelSpec, e) for e in _expand_section(doc, "model")]
    configs, skipped = [], Counter()
    for parts in itertools.product(preps, decs, transforms, mdls):
        try:
            configs.append(PipelineConfig(*parts))
        except InvalidConfigError as exc:  # only cross-stage rules remain
            skipped[str(exc)] += 1
    if not configs:
        raise InvalidConfigError("grid expands to no valid configurations")
    return ConfigGrid(configs, dict(skipped))


def load_json_config(path: str):
    """Parse a JSON config file; a file that cannot be read or decoded, or
    text that is not JSON, is a config error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidConfigError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidConfigError(f"{path}: invalid JSON: {exc}") from exc


def load_grid_document(path: str | None = None) -> dict:
    """Read a grid file, or the packaged default when path is None."""
    if path is None:
        doc = json.loads(
            resources.files("wavefeat").joinpath("default_grid.json").read_text())
    else:
        doc = load_json_config(path)
    if not isinstance(doc, dict) or doc.get("schema") != GRID_SCHEMA:
        raise InvalidConfigError(
            f"grid document must be a JSON object declaring schema {GRID_SCHEMA!r}")
    return doc


def grid_for_task(doc: dict, task: str) -> ConfigGrid:
    if task not in doc:
        raise InvalidConfigError(f"grid document has no {task!r} section")
    return expand_grid(doc[task])
