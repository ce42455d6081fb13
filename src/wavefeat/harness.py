"""Cross-validated evaluation of feature pipelines: seeded splits, the stage
list, grid search over shared prefixes, repeated CV, and full-dataset
clustering.

A pipeline is the signal (derivative, then, when the config has a
decomposition, the power-of-two spline resample), which is stateless, and
the ordered list ``STAGES``:

1. preprocess: feature-axis scaler -> abs;
2. decompose: a fixed DWT, whose state is its (wavelet, level), or the
   WTT filter bank trained on the block; its output is the block's flat
   coefficient array, or the block itself without a decomposition;
3. features: the config's transform kind (none, threshold, sign or
   contrast) on those coefficients, with tau a quantile of the block's
   coefficient magnitudes found by one selection
   (``features.magnitude_quantile``, equal to ``np.quantile``); without a
   decomposition the features are the signal itself;
4. model: LDA, one-vs-rest LR, or HAC.

Each stage has ``fit`` (fitting block -> state) and ``apply(state, block)``.
``fit_pipeline`` fits the list on the fitting rows of a ``FoldMemo`` only,
and applies every stage but the model to them and, in a classification
fold, to the held-out rows: one ``_fit_stage`` applies each stage to both
blocks, so train and test cannot diverge.  A ``SignalTable`` owns one
dataset and computes each of its signals once, on all rows; a command
builds one table, and its grid search, repeated CV and final clusterings
all read it.  Each fold gathers its rows out of the table in one copy; a
fit of all rows in order, as a final clustering is, reads the table's block
itself.  A final clustering's one config shares no prefix with another, so
its memo stores no stage output, and the fit holds one stage's output once
the next has read it.

A stage's key is the key of the stage before it plus the config fields the
stage reads, so two configs with equal keys share everything up to that
stage.  A ``FoldMemo`` holds one fold's rows and, per stage, only the last
key fitted with its state and outputs.  ``repeated_cv``, the one fold
loop, runs folds one after another, and configs in grid order inside each.
Grids expand with preprocessing slowest, so grid order is a depth-first
walk of the prefix tree: one live entry per stage catches every repeat,
and memory stays at one fitted prefix per fold.  A hit returns the arrays
the fit computed, so no result depends on whether a stage was shared.  HAC
configs that differ only in linkage also share one distance matrix per
(features key, affinity).  A clustering fold fits its configs in one
stack call of ``fit_pipeline``: every config fits its stages through its
distance matrix, and one call of ``models.hac_fit`` links all the
matrices, side by side when the walks are at least as many as the fold's
rows.  Each tree is scored by ARI alone, the selection metric; the final
clusterings also report AMI and FM.  A grid search is one split of
``repeated_cv``, and all repeats of the search's winners are one run of
it, so they share each fold's memo.
"""
from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict
from typing import Callable, NamedTuple

import numpy as np

from . import dwt as dwt_mod
from . import models, wtt
from .errors import (InvalidConfigError, InvalidInputError, NumericalError,
                     SplitError, is_count, is_number)
from .features import FeatureMap, extract_features, magnitude_quantile
from .metrics import (accuracy, adjusted_mutual_info, adjusted_rand,
                      f1_weighted, fowlkes_mallows)
from .preprocess import (LabeledDataset, PreprocessConfig, ScalerStats,
                         apply_scaler, derivative_matrix, fit_scaler,
                         pow2_grid, resample_matrix)

CLASSIFIER_KINDS = ("lda", "lr")
STAGE_KEYS = ("preprocess", "decomposition", "transform", "model")


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DwtSpec:
    family: str
    order: str
    mode: str = "periodization"  # the one mode; the grids and labels carry it
    level: int | None = None  # None = deepest usable level

    def __post_init__(self):
        object.__setattr__(self, "order", dwt_mod._normalize_order(self.order))
        dwt_mod.lookup_wavelet(self.family, self.order)  # validates the pair
        if self.mode != "periodization":
            raise InvalidConfigError(
                f"unsupported mode {self.mode!r}; the DWT runs in 'periodization' only")
        if self.level is not None and not (is_count(self.level) and self.level >= 1):
            raise InvalidConfigError(
                f"level must be an integer >= 1 or null, got {self.level!r}")

    def wavelet_and_level(self, n: int) -> tuple:
        """The (wavelet, level) of a length-n signal, the level being the
        deepest the signal allows when the config's is null; a level the
        signal cannot take raises."""
        w = dwt_mod.lookup_wavelet(self.family, self.order)
        level = dwt_mod.max_level(n, w) if self.level is None else self.level
        dwt_mod.check_level(n, w, level)
        return w, level


@dataclass(frozen=True)
class WttSpec:
    rank: int

    def __post_init__(self):
        if not (is_count(self.rank) and self.rank >= 1):
            raise InvalidConfigError(f"rank must be an integer >= 1, got {self.rank!r}")


@dataclass(frozen=True)
class TransformSpec:
    kind: str = "none"  # none | threshold | sign | contrast
    threshold_kind: str | None = None
    tau_quantile: float | None = None

    def __post_init__(self):
        if self.kind not in ("none", "threshold", "sign", "contrast"):
            raise InvalidConfigError(f"unknown transform kind {self.kind!r}")
        if self.kind == "none":
            if self.threshold_kind is not None or self.tau_quantile is not None:
                raise InvalidConfigError("transform 'none' takes no parameters")
            return
        if not (is_number(self.tau_quantile) and 0.0 <= self.tau_quantile <= 1.0):
            raise InvalidConfigError(
                f"tau_quantile must be a number in [0, 1], got {self.tau_quantile!r}")
        if self.kind == "threshold":
            if self.threshold_kind not in ("hard", "soft"):
                raise InvalidConfigError("threshold requires kind 'hard' or 'soft'")
        elif self.threshold_kind is not None:
            raise InvalidConfigError(f"{self.kind} fixes its threshold kind")


@dataclass(frozen=True)
class ModelSpec:
    kind: str  # lda | lr | hac
    penalty: str | None = None
    inverse_reg: float | None = None
    affinity: str | None = None
    linkage: str | None = None

    def __post_init__(self):
        if self.kind == "lda":
            if any(v is not None for v in
                   (self.penalty, self.inverse_reg, self.affinity, self.linkage)):
                raise InvalidConfigError("lda takes no parameters")
        elif self.kind == "lr":
            if self.penalty not in models.PENALTIES or self.inverse_reg is None:
                raise InvalidConfigError("lr requires penalty and inverse_reg")
            if not (is_number(self.inverse_reg) and self.inverse_reg > 0):
                raise InvalidConfigError("inverse_reg must be a finite positive "
                                         f"number, got {self.inverse_reg!r}")
            if self.affinity is not None or self.linkage is not None:
                raise InvalidConfigError("lr takes no clustering parameters")
        elif self.kind == "hac":
            if self.affinity not in models.AFFINITIES or self.linkage not in models.LINKAGES:
                raise InvalidConfigError("hac requires affinity and linkage")
            if self.linkage == "ward" and self.affinity != "euclidean":
                raise InvalidConfigError("ward linkage requires euclidean affinity")
            if self.penalty is not None or self.inverse_reg is not None:
                raise InvalidConfigError("hac takes no regression parameters")
        else:
            raise InvalidConfigError(f"unknown model kind {self.kind!r}")


def spec_from_dict(cls, fields: dict):
    """One stage's spec from a document entry; a field the spec does not
    have raises InvalidConfigError like an invalid value does."""
    try:
        return cls(**fields)
    except TypeError as exc:
        raise InvalidConfigError(f"{cls.__name__}: {exc}") from exc


def check_stage_keys(doc) -> None:
    """A task section of a grid is a mapping of the stage keys, of which
    preprocess and model are required; anything else raises
    InvalidConfigError."""
    if not isinstance(doc, dict):
        raise InvalidConfigError("grid section must be a JSON object")
    unknown = sorted(set(doc) - set(STAGE_KEYS))
    if unknown:
        raise InvalidConfigError(
            f"grid section: unknown keys {unknown}; expected {list(STAGE_KEYS)}")
    missing = [k for k in ("preprocess", "model") if k not in doc]
    if missing:
        raise InvalidConfigError(f"grid section: missing {missing}")


def decomposition_from_dict(d: dict | None) -> DwtSpec | WttSpec | None:
    dec = dict(d or {"kind": "none"})
    kind = dec.pop("kind", "none")
    if kind == "none":
        if dec:
            raise InvalidConfigError("decomposition 'none' takes no parameters")
        return None
    if kind == "wtt":
        return spec_from_dict(WttSpec, dec)
    if kind == "dwt":
        return spec_from_dict(DwtSpec, dec)
    raise InvalidConfigError(f"unknown decomposition kind {kind!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """A full pipeline.  Each spec validates its own values; the rules here
    are the cross-stage ones, which grid expansion counts as skips."""

    preprocess: PreprocessConfig
    decomposition: DwtSpec | WttSpec | None
    transform: TransformSpec
    model: ModelSpec

    def __post_init__(self):
        t, m = self.transform, self.model
        if t.kind != "none" and self.decomposition is None:
            raise InvalidConfigError(
                f"transform {t.kind!r} requires a decomposition")
        if t.kind == "sign" and m.kind not in CLASSIFIER_KINDS:
            raise InvalidConfigError("sign quantization is a classification transform")
        if t.kind == "contrast" and m.kind != "hac":
            raise InvalidConfigError("contrasting is a clustering transform")

    @property
    def task(self) -> str:
        return "clustering" if self.model.kind == "hac" else "classification"

    def to_dict(self) -> dict:
        out = {
            "preprocess": asdict(self.preprocess),
            "transform": asdict(self.transform),
            "model": asdict(self.model),
        }
        if self.decomposition is None:
            out["decomposition"] = {"kind": "none"}
        elif isinstance(self.decomposition, WttSpec):
            out["decomposition"] = {"kind": "wtt", **asdict(self.decomposition)}
        else:
            out["decomposition"] = {"kind": "dwt", **asdict(self.decomposition)}
        return out

    def label(self) -> str:
        """Short human-readable identifier used in leaderboards."""
        p = self.preprocess
        prep = f"d{p.derivative_order}" + ("c" if p.center else "") + \
               ("s" if p.scale else "") + ("a" if p.take_abs else "")
        if self.decomposition is None:
            dec = "raw"
        elif isinstance(self.decomposition, WttSpec):
            dec = f"wtt(r{self.decomposition.rank})"
        else:
            d = self.decomposition
            dec = f"dwt({dwt_mod.FAMILIES[d.family]}{d.order},{d.mode},L{d.level or 'max'})"
        t = self.transform
        tr = t.kind if t.kind == "none" else (
            f"{t.kind}({t.threshold_kind + ',' if t.threshold_kind else ''}q{t.tau_quantile})")
        m = self.model
        if m.kind == "lr":
            mdl = f"lr({m.penalty},C{m.inverse_reg})"
        elif m.kind == "hac":
            mdl = f"hac({m.affinity},{m.linkage})"
        else:
            mdl = "lda"
        return "|".join([prep, dec, tr, mdl])


# ----------------------------------------------------------------------
# splitting
# ----------------------------------------------------------------------

def kfold_split(n: int, k: int, seed: int, labels=None,
                stratify: bool = False) -> list[np.ndarray]:
    """Seeded shuffle + contiguous chunking into k folds (sizes differ <= 1).

    With stratify=True the shuffle-and-chunk runs per class, so every fold
    gets a proportional share of each class.
    """
    if k < 1 or k > n:
        raise InvalidInputError(f"k must lie in 1..{n}")
    rng = np.random.default_rng(seed)
    if not stratify:
        perm = rng.permutation(n)
        sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
        folds, start = [], 0
        for s in sizes:
            folds.append(np.sort(perm[start:start + s]))
            start += s
        return folds
    if labels is None:
        raise InvalidInputError("stratified split requires labels")
    buckets: list[list[int]] = [[] for _ in range(k)]
    arr = np.asarray(labels, dtype=object)
    offset = 0
    for cls in sorted(set(labels)):
        idx = np.flatnonzero(arr == cls)
        idx = idx[rng.permutation(idx.size)]
        for j, sample in enumerate(idx):
            buckets[(j + offset) % k].append(int(sample))
        offset += idx.size % k
    return [np.sort(np.array(b, dtype=int)) for b in buckets]


def checked_split(data: LabeledDataset, k: int, seed: int, task: str,
                  stratify: bool = False) -> list[np.ndarray]:
    """``kfold_split`` of ``data``, whose every fold leaves rows to fit on:
    at least 2, and for a classification ``task`` of at least 2 classes.
    Otherwise SplitError names the first fold that does not, counted from 1.
    The search commands draw every split through this before writing."""
    folds = kfold_split(data.n_samples, k, seed, labels=data.labels,
                        stratify=stratify)
    labels = np.asarray(data.labels, dtype=object)
    for i, fold in enumerate(folds, start=1):
        fitting = np.delete(labels, fold)
        where = f"fold {i} of {k} at seed {seed} leaves"
        if fitting.size < 2:
            raise SplitError(f"{where} {fitting.size} of {data.n_samples} rows to fit on")
        if task == "classification" and len(set(fitting)) < 2:
            raise SplitError(f"{where} {fitting.size} rows of 1 class to fit on")
    return folds


# ----------------------------------------------------------------------
# the stage list
# ----------------------------------------------------------------------

class SignalTable:
    """The signal of every row of ``data``: derivative, then the power-of-two
    resample onto ``target``, which is None when the grid already is that
    grid.  Blocks are computed at first use and kept, keyed by (derivative
    order, resampled); a resampled block is built from the unresampled block
    of its order, so each order costs one derivative and at most one
    resample, which its DWT and WTT configs share."""

    def __init__(self, data: LabeledDataset):
        self.data = data
        wn = data.wavenumbers
        target = pow2_grid(wn)
        self.target = None if target.size == wn.size and np.allclose(target, wn) else target
        self._blocks: dict = {}

    def block(self, order: int, resampled: bool) -> np.ndarray:
        """The signal of derivative ``order``, resampled when asked and the
        table has a target."""
        key = (order, resampled and self.target is not None)
        if key not in self._blocks:
            wn = self.data.wavenumbers
            self._blocks[key] = (
                resample_matrix(wn, self.block(order, False), self.target) if key[1]
                else derivative_matrix(wn, self.data.intensities, order))
        return self._blocks[key]


def check_dwt_levels(grid: list, signals: SignalTable) -> None:
    """Raise for the first DWT config of ``grid`` whose level the table's
    power-of-two signal cannot take, before any config is fitted."""
    n = (signals.data.wavenumbers if signals.target is None else signals.target).size
    for spec in dict.fromkeys(config.decomposition for config in grid):
        if isinstance(spec, DwtSpec):
            spec.wavelet_and_level(n)


class FoldMemo:
    """One fold of the dataset of ``signals``: its rows (``rows``: the
    fitting rows ``train_idx``, then any held-out rows), the signal table it
    reads, and a last-key memo of its stage fits.

    ``fits`` and ``hits`` count computed and reused entries per name.
    """

    # a miss on one name drops the entries of every later name: their keys
    # extend the old prefix, so they cannot hit again
    NAMES = ("preprocess", "decompose", "features", "gram", "distances", "model")

    def __init__(self, signals: SignalTable, train_idx, held_out_idx=None):
        self.signals = signals
        self.rows = [np.asarray(train_idx, dtype=int)] + (
            [] if held_out_idx is None else [np.asarray(held_out_idx, dtype=int)])
        self.labels = [signals.data.labels[i] for i in self.rows[0]]
        self.fits = dict.fromkeys(self.NAMES, 0)
        self.hits = dict.fromkeys(self.NAMES, 0)
        self._last: dict = {}  # name -> (key, value, [(category, message)])

    def get(self, name: str, key, compute: Callable):
        """``compute()``, or its stored value when ``key`` was the last key
        of ``name``.  Warnings raised while computing are stored with the
        value and raised again on every use, so each caller sees them."""
        last = self._last.get(name)
        if last is not None and last[0] == key:
            self.hits[name] += 1
        else:
            for later in self.NAMES[self.NAMES.index(name):]:
                self._last.pop(later, None)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                value = compute()
            self.fits[name] += 1
            last = self._last[name] = (
                key, value, [(w.category, str(w.message)) for w in caught])
        for category, message in last[2]:
            warnings.warn(message, category)
        return last[1]


class _UnsharedMemo(FoldMemo):
    """The memo of a fit whose config shares no prefix with another, as a
    final clustering's one config does: ``get`` computes and stores
    nothing, so the fit holds one stage's output once the next stage has
    read it.  Fits are still counted."""

    def get(self, name: str, key, compute: Callable):
        self.fits[name] += 1
        return compute()


@dataclass(frozen=True, eq=False)
class Preprocessor:
    """Fitted preprocessing of a signal block: scaler -> abs."""

    config: PreprocessConfig
    scaler: ScalerStats | None

    def scaled(self, y: np.ndarray) -> np.ndarray:
        y = apply_scaler(y, self.config, self.scaler)
        return np.abs(y) if self.config.take_abs else y


def _fit_preprocess(config, fold, key, y) -> Preprocessor:
    """The scaler fitted on the fitting rows' signal ``y``, which the table
    resampled onto its power-of-two grid for any decomposition."""
    return Preprocessor(config.preprocess, fit_scaler(y, config.preprocess))


def _fit_decompose(config, fold, key, y):
    """None, the WTT bank trained on ``y``, or the DWT's (wavelet, level),
    the level being the deepest the signal allows when the config's is null."""
    spec = config.decomposition
    if spec is None:
        return None
    if isinstance(spec, WttSpec):
        return wtt.train_group_filters(y, spec.rank)
    return spec.wavelet_and_level(y.shape[-1])


def _apply_decompose(state, y: np.ndarray) -> np.ndarray:
    """The coefficients of ``y``, or ``y`` itself without a decomposition."""
    if state is None:
        return y
    if isinstance(state, wtt.WttFilterBank):
        return wtt.wtt_forward(y, state)
    return dwt_mod.wavedec(y, *state)


def _fit_features(config, fold, key, coeffs) -> FeatureMap:
    t = config.transform
    tau = None if t.kind == "none" else magnitude_quantile(coeffs, t.tau_quantile)
    return FeatureMap(t.kind, t.threshold_kind, tau)


def _fit_model(config, fold, key, feats):
    m = config.model
    if m.kind == "lda":
        return models.lda_fit(feats, fold.labels)
    if m.kind == "lr":
        return models.lr_fit(feats, fold.labels, m.penalty, m.inverse_reg)
    # HAC: the distance matrix, which fit_pipeline links.  key[0] is the
    # features key: the euclidean and cosine matrices share one Gram matrix,
    # and linkages on one affinity share the matrix
    def compute_distances():
        gram = (None if m.affinity == "manhattan" else
                fold.get("gram", key[0], lambda: models.gram_matrix(feats)))
        return models.pairwise_distances(feats, m.affinity, gram)

    return fold.get("distances", (key[0], m.affinity), compute_distances)


def _apply_model(model, feats: np.ndarray) -> list:
    if isinstance(model, models.LdaModel):
        return models.lda_predict(model, feats)
    return models.lr_predict(model, feats)


class Stage(NamedTuple):
    """One pipeline step.

    ``part(config)`` is what the stage reads of the config.
    ``fit(config, fold, key, x)`` returns the stage's state,
    fitted on the fitting block ``x``; ``apply(state, x)`` maps any block.
    """

    name: str
    part: Callable
    fit: Callable
    apply: Callable


STAGES = (
    Stage("preprocess", lambda c: (c.preprocess, c.decomposition is not None),
          _fit_preprocess, Preprocessor.scaled),
    Stage("decompose", lambda c: c.decomposition, _fit_decompose, _apply_decompose),
    Stage("features", lambda c: c.transform, _fit_features,
          lambda fm, coeffs: extract_features(coeffs, fm)),
    Stage("model", lambda c: c.model, _fit_model, _apply_model),
)


@dataclass
class FittedPipeline:
    """One fitted state per stage of ``STAGES``, fitted on a memo's fitting
    rows, and the features of the memo's blocks."""

    config: PipelineConfig
    states: tuple
    train_features: np.ndarray | None  # features of the fitting block; None in a stack
    held_out_features: np.ndarray | None = None  # of the memo's held-out rows
    warnings: list = field(default_factory=list)

    @property
    def model(self):
        """LdaModel, LrModel, or in a stack the LinkageTree of the fitting
        block (a clustering config fitted alone stops at its distance matrix)."""
        return self.states[3]


def _signal_rows(full: np.ndarray, idx: np.ndarray, resampled: bool) -> np.ndarray:
    """The rows ``idx`` of a signal table block, in the layout that
    processing them alone gives: column-major for the spline's output,
    row-major otherwise.  Later sums (scaler mean, WTT products) round by
    it.  All rows in order are the block itself, which has that layout;
    other rows are gathered in one copy."""
    order = "F" if resampled else "C"
    if np.array_equal(idx, np.arange(len(full))) and full.flags[f"{order}_CONTIGUOUS"]:
        return full
    if resampled:
        # rows of the column-major block are columns of its row-major
        # transpose; np.take would first copy a column-major source whole
        return np.take(full.T, idx, axis=1).T
    return full[idx]


def _fit_stage(stage: Stage, config, memo: FoldMemo, key, blocks) -> tuple:
    """The stage's state, fitted on the fitting rows ``blocks[0]``, and its
    output on each block (none for the model).  ``blocks`` is None for the
    first stage, which reads the signal of the memo's rows.  The loader
    admits finite data only, so an output that is not finite overflowed in
    the stage's arithmetic, which raises ``NumericalError``."""
    if blocks is None:
        resampled = config.decomposition is not None and memo.signals.target is not None
        full = memo.signals.block(config.preprocess.derivative_order, resampled)
        blocks = [_signal_rows(full, idx, resampled) for idx in memo.rows]
    state = stage.fit(config, memo, key, blocks[0])
    if stage.name == "model":
        return state, None
    out = [stage.apply(state, x) for x in blocks]
    if not all(np.isfinite(block).all() for block in out):
        raise NumericalError(f"the {stage.name} stage's output is not finite")
    return state, out


@contextmanager
def _recording():
    """Record the warnings raised in the block, unshown: the list it yields
    gets their messages when the block ends."""
    messages: list = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield messages
    messages.extend(str(w.message) for w in caught)


def _fit_states(config: PipelineConfig, memo: FoldMemo) -> tuple[list, list]:
    """Each stage's state for ``config`` on the memo's rows (a clustering
    config's model state is its distance matrix) and the features of each
    of the memo's blocks."""
    states, key, blocks = [], (), None
    for stage in STAGES:
        key = (key, stage.part(config))
        state, out = memo.get(
            stage.name, key, lambda: _fit_stage(stage, config, memo, key, blocks))
        states.append(state)
        blocks = blocks if out is None else out
    return states, blocks


def fit_pipeline(config: PipelineConfig | list, memo: FoldMemo) -> FittedPipeline | list:
    """Fit the stage list on the memo's fitting rows only.

    The configs of one fold share its memo; a fresh fit is
    ``fit_pipeline(config, FoldMemo(SignalTable(data), rows))``.  When the
    memo has held-out rows, their features are ``held_out_features``.

    One config is the form for classification.  Clustering configs come as
    a list, a stack: each fits its stages in turn, its model stage fitting
    the distance matrix of the fitting rows, one call of ``models.hac_fit``
    links all the matrices into the LinkageTrees that are the models, and
    one FittedPipeline per config comes back, without features
    (``train_features`` is None) so that a grid's configs do not hold all
    their features at once.

    The warnings raised by the fits and the linking are recorded in
    ``FittedPipeline.warnings`` instead of shown; those of a stack's
    linking go to every config of the stack.
    """
    if isinstance(config, PipelineConfig):
        with _recording() as caught:
            states, blocks = _fit_states(config, memo)
        # blocks: the features of the fitting rows, then of any held-out rows
        return FittedPipeline(config, tuple(states), *blocks, warnings=caught)
    configs = list(config)
    if not configs or any(c.task != "clustering" for c in configs):
        raise InvalidConfigError("a stack of configs must be clustering configs")
    fits = []  # (states, warnings) per config
    for c in configs:
        with _recording() as caught:
            states = _fit_states(c, memo)[0]
        fits.append((states, caught))
    with _recording() as linked:
        trees = models.hac_fit([states[-1] for states, _ in fits],
                               [c.model.linkage for c in configs],
                               [c.model.affinity for c in configs])
    return [FittedPipeline(c, (*states[:-1], tree), None, warnings=caught + linked)
            for c, (states, caught), tree in zip(configs, fits, trees)]


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

@dataclass
class CvReport:
    config: PipelineConfig
    n_folds: int
    n_runs: int
    per_fold: list            # one dict of scores per fit/score run
    means: dict
    stds: dict
    runtime_seconds: float
    warnings: list = field(default_factory=list)
    lr_fits: list = field(default_factory=list)  # (converged, n_iter, gap) per LR fit

    def to_dict(self) -> dict:
        out = {
            "config": self.config.to_dict(),
            "label": self.config.label(),
            "task": self.config.task,
            "n_folds": self.n_folds,
            "n_runs": self.n_runs,
            "per_fold": self.per_fold,
            "means": self.means,
            "stds": self.stds,
            "runtime_seconds": self.runtime_seconds,
            "warnings": self.warnings,
        }
        if self.config.model.kind == "lr":
            gaps = [gap for _, _, gap in self.lr_fits if gap is not None]
            out["solver"] = {
                "fits_attempted": len(self.lr_fits),
                "fits_converged": sum(conv for conv, _, _ in self.lr_fits),
                "max_n_iter": max((n_it for _, n_it, _ in self.lr_fits), default=0),
                "max_gap": max(gaps) if gaps else None,
            }
        return out


def _score_classification(fitted: FittedPipeline, memo: FoldMemo) -> dict:
    """Accuracy and weighted F1 on the memo's fitting and held-out rows."""
    scores = {}
    for part, idx, feats in zip(("train", "test"), memo.rows,
                                (fitted.train_features, fitted.held_out_features)):
        true = [memo.signals.data.labels[i] for i in idx]
        pred = _apply_model(fitted.model, feats)
        scores.update({f"{part}_accuracy": accuracy(true, pred),
                       f"{part}_f1": f1_weighted(true, pred)})
    return scores


def _fit_and_score(config: PipelineConfig, memo: FoldMemo) -> tuple:
    """(scores, seconds, warnings, LR outcome or None) of one classification
    config on the memo's fold."""
    t0 = time.perf_counter()
    fitted = fit_pipeline(config, memo)
    scores = _score_classification(fitted, memo)
    model = fitted.model
    lr_fit = ((model.converged, model.n_iter, model.duality_gap)
              if isinstance(model, models.LrModel) else None)
    return scores, time.perf_counter() - t0, fitted.warnings, lr_fit


def _fit_and_score_clusterings(grid: list[PipelineConfig], memo: FoldMemo) -> list:
    """``_fit_and_score`` of every clustering config of ``grid`` on the
    memo's fold: one stack call of ``fit_pipeline`` fits them all, and each
    tree is cut and scored by ARI, the selection metric.  The configs share
    the fold's time equally."""
    t0 = time.perf_counter()
    fitted = fit_pipeline(grid, memo)
    n_classes = len(set(memo.labels))
    scores = [{"ari": adjusted_rand(memo.labels, models.cut_tree(f.model, n_classes))}
              for f in fitted]
    share = (time.perf_counter() - t0) / len(grid)
    return [(score, share, f.warnings, None) for score, f in zip(scores, fitted)]


def repeated_cv(configs: list[PipelineConfig], signals: SignalTable,
                splits: list[list[np.ndarray]]) -> tuple[list[CvReport], dict, dict]:
    """One CvReport per config, in the order given, over the folds of every
    k-fold split in ``splits``, and the fits and memo hits of each stage
    name, summed over the folds' memos.  The configs are of one task; give
    them in grid order, so that those with a common prefix share its fits.

    The folds run one after another, configs in order inside each, sharing
    the fold's FoldMemo, and every fold reads the table ``signals``.  A
    config's runtime is the sum of its per-fold times; a shared stage counts
    towards the config that fitted it first.
    """
    cells = []
    fits, hits = dict.fromkeys(FoldMemo.NAMES, 0), dict.fromkeys(FoldMemo.NAMES, 0)
    for folds in splits:
        for fold in folds:
            rest = np.setdiff1d(np.arange(signals.data.n_samples), fold)
            if configs[0].task == "classification":
                memo = FoldMemo(signals, rest, fold)
                cells.append([_fit_and_score(config, memo) for config in configs])
            else:
                memo = FoldMemo(signals, rest)
                cells.append(_fit_and_score_clusterings(configs, memo))
            for name in FoldMemo.NAMES:
                fits[name] += memo.fits[name]
                hits[name] += memo.hits[name]
    reports = []
    for config, runs in zip(configs, zip(*cells)):
        rows = [run[0] for run in runs]
        reports.append(CvReport(
            config=config, n_folds=len(splits[0]), n_runs=len(rows), per_fold=rows,
            means={name: float(np.mean([r[name] for r in rows])) for name in rows[0]},
            stds={name: float(np.std([r[name] for r in rows])) for name in rows[0]},
            runtime_seconds=sum(run[1] for run in runs),
            warnings=[w for run in runs for w in run[2]],
            lr_fits=[run[3] for run in runs if run[3] is not None]))
    return reports, fits, hits


SELECTION_METRIC = {"classification": "test_accuracy", "clustering": "ari"}


@dataclass
class GridSearchResult:
    leaderboard: list  # CvReports sorted by selection metric desc, ties by grid order
    selection_metric: str
    fits: dict       # stage -> entries computed
    memo_hits: dict  # stage -> entries reused


def grid_search(grid: list[PipelineConfig], signals: SignalTable,
                folds: list[np.ndarray]) -> GridSearchResult:
    """``repeated_cv`` of a config lattice, all of one task, over the one
    split ``folds``, ranked by the task's selection metric."""
    metric = SELECTION_METRIC[grid[0].task]
    reports, fits, hits = repeated_cv(grid, signals, [folds])
    # a stable sort: ties keep grid order
    leaderboard = sorted(reports, key=lambda report: -report.means[metric])
    return GridSearchResult(leaderboard, metric, fits, hits)


def final_clustering(config: PipelineConfig, signals: SignalTable):
    """Cluster the full dataset of ``signals`` at the true class count,
    with a memo of all its rows that reads that table and stores no stage
    output, so the fit holds one stage's output at a time.

    Returns the LinkageTree and its ARI, AMI and FM scores, cut at the true
    class count; the fitted pipeline and its features are freed on return.
    """
    if config.task != "clustering":
        raise InvalidConfigError("final_clustering requires a clustering config")
    true = signals.data.labels
    (fitted,) = fit_pipeline([config], _UnsharedMemo(signals, np.arange(len(true))))
    tree = fitted.model
    pred = models.cut_tree(tree, len(set(true)))
    return tree, {"ari": adjusted_rand(true, pred),
                  "ami": adjusted_mutual_info(true, pred),
                  "fm": fowlkes_mallows(true, pred)}
