"""Cross-validated evaluation: seeded splits, pipeline fitting without
train/test leakage, grid search, repeated CV, and full-dataset clustering.

A pipeline is preprocess -> optional decomposition -> optional coefficient
transform -> model.  Everything stateful (feature-axis scaler, adaptive
filter bank, threshold level) is fitted on the training portion only; for
clustering there is no held-out portion and the set being clustered is the
fitting set.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from . import dwt as dwt_mod
from . import models, wtt
from .errors import InvalidConfigError, InvalidInputError
from .features import (DwtTransform, FeatureMap, ThresholdRule, WttTransform,
                       extract_features)
from .metrics import (accuracy, adjusted_mutual_info, adjusted_rand,
                      f1_weighted, fowlkes_mallows)
from .preprocess import (LabeledDataset, PreprocessConfig, ScalerStats,
                         apply_scaler, derivative_matrix, fit_scaler,
                         pow2_grid, resample_matrix)

CLASSIFIER_KINDS = ("lda", "lr")


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DwtSpec:
    family: str
    order: str
    mode: str = "symmetric"
    level: int | None = None  # None = deepest usable level

    def __post_init__(self):
        object.__setattr__(self, "order", dwt_mod._normalize_order(self.order))
        dwt_mod.lookup_wavelet(self.family, self.order)  # validates the pair
        if self.mode not in dwt_mod.PADDING_MODES:
            raise InvalidConfigError(f"unknown padding mode {self.mode!r}")


@dataclass(frozen=True)
class WttSpec:
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise InvalidConfigError("rank must be >= 1")


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
        if self.tau_quantile is None or not 0.0 <= self.tau_quantile <= 1.0:
            raise InvalidConfigError("tau_quantile must lie in [0, 1]")
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
            if self.penalty not in models.PENALTIES or not self.inverse_reg:
                raise InvalidConfigError("lr requires penalty and inverse_reg")
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


@dataclass(frozen=True)
class PipelineConfig:
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

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        dec = dict(d.get("decomposition") or {"kind": "none"})
        kind = dec.pop("kind", "none")
        if kind == "none":
            decomposition = None
        elif kind == "wtt":
            decomposition = WttSpec(**dec)
        elif kind == "dwt":
            decomposition = DwtSpec(**dec)
        else:
            raise InvalidConfigError(f"unknown decomposition kind {kind!r}")
        return cls(
            preprocess=PreprocessConfig(**d["preprocess"]),
            decomposition=decomposition,
            transform=TransformSpec(**d.get("transform", {})),
            model=ModelSpec(**d["model"]),
        )

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


# ----------------------------------------------------------------------
# pipeline fitting
# ----------------------------------------------------------------------

@dataclass
class FittedPipeline:
    """Everything learned from a training block, applicable to new signals."""

    config: PipelineConfig
    wavenumbers: np.ndarray
    scaler: ScalerStats | None
    feature_map: FeatureMap
    tau: float | None
    model: object | None          # LdaModel / LrModel; None for clustering
    train_features: np.ndarray    # features of the fitting block
    warnings: list = field(default_factory=list)

    def features(self, block: np.ndarray) -> np.ndarray:
        y = _prepare_block(self.wavenumbers, block, self.config, self.scaler)
        return extract_features(y, self.feature_map)

    def predict(self, block: np.ndarray) -> list:
        if self.model is None:
            raise InvalidConfigError("clustering pipelines have no predictor")
        feats = self.features(block)
        if self.config.model.kind == "lda":
            return models.lda_predict(self.model, feats)
        return models.lr_predict(self.model, feats)


def _needs_pow2(config: PipelineConfig) -> bool:
    return isinstance(config.decomposition, WttSpec)


def _prepare_block(wn: np.ndarray, block: np.ndarray, config: PipelineConfig,
                   scaler: ScalerStats | None) -> np.ndarray:
    """Stateless preprocessing + fitted scaling, in the fixed order
    derivative -> resample (adaptive banks only) -> center/scale -> abs."""
    y = derivative_matrix(wn, np.asarray(block, dtype=float),
                          config.preprocess.derivative_order)
    if _needs_pow2(config):
        target = pow2_grid(wn)
        if target.size != wn.size or not np.allclose(target, wn):
            y = resample_matrix(wn, y, target)
    y = apply_scaler(y, config.preprocess, scaler)
    if config.preprocess.take_abs:
        y = np.abs(y)
    return y


def fit_pipeline(config: PipelineConfig, data: LabeledDataset,
                 train_idx, collect_warnings: bool = True) -> FittedPipeline:
    """Fit scaler, decomposition, threshold level, and model on train_idx only."""
    train_idx = np.asarray(train_idx, dtype=int)
    wn = data.wavenumbers
    raw = data.intensities[train_idx]
    labels = [data.labels[i] for i in train_idx]

    pre = derivative_matrix(wn, raw, config.preprocess.derivative_order)
    if _needs_pow2(config):
        pre = resample_matrix(wn, pre, pow2_grid(wn))
    scaler = fit_scaler(pre, config.preprocess)
    y = apply_scaler(pre, config.preprocess, scaler)
    if config.preprocess.take_abs:
        y = np.abs(y)

    n_points = y.shape[-1]
    transform_obj = None
    if isinstance(config.decomposition, DwtSpec):
        spec = config.decomposition
        transform_obj = DwtTransform(
            dwt_mod.lookup_wavelet(spec.family, spec.order),
            spec.mode, spec.level, n_points)
    elif isinstance(config.decomposition, WttSpec):
        bank = wtt.train_group_filters(y, config.decomposition.rank)
        transform_obj = WttTransform(bank)

    t = config.transform
    tau = None
    if t.kind != "none":
        coeffs = transform_obj.forward(y)
        tau = float(np.quantile(np.abs(coeffs), t.tau_quantile))

    if t.kind == "none":
        fm = (FeatureMap("identity") if transform_obj is None
              else FeatureMap("coeffs", transform_obj))
    elif t.kind == "threshold":
        fm = FeatureMap("coeffs", transform_obj, ThresholdRule(t.threshold_kind, tau))
    elif t.kind == "sign":
        fm = FeatureMap("sign", transform_obj, ThresholdRule("hard", tau))
    else:
        fm = FeatureMap("contrast", transform_obj, ThresholdRule("soft", tau))

    feats = extract_features(y, fm)

    model = None
    caught: list = []
    if config.model.kind == "lda":
        model = models.lda_fit(feats, labels)
    elif config.model.kind == "lr":
        with warnings.catch_warnings(record=True) as wlist:
            warnings.simplefilter("always" if collect_warnings else "ignore")
            model = models.lr_fit(feats, labels, config.model.penalty,
                                  config.model.inverse_reg)
        caught = [str(w.message) for w in wlist]

    return FittedPipeline(
        config=config,
        wavenumbers=wn,
        scaler=scaler,
        feature_map=fm,
        tau=tau,
        model=model,
        train_features=feats,
        warnings=caught,
    )


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

@dataclass
class CvReport:
    config: PipelineConfig
    task: str
    seed: int | None
    n_folds: int
    n_runs: int
    per_fold: list            # one dict of scores per fit/score run
    means: dict
    stds: dict
    runtime_seconds: float
    warnings: list = field(default_factory=list)
    lr_fits: list = field(default_factory=list)  # (converged, n_iter) per LR fit

    def to_dict(self) -> dict:
        out = {
            "config": self.config.to_dict(),
            "label": self.config.label(),
            "task": self.task,
            "seed": self.seed,
            "n_folds": self.n_folds,
            "n_runs": self.n_runs,
            "per_fold": self.per_fold,
            "means": self.means,
            "stds": self.stds,
            "runtime_seconds": self.runtime_seconds,
            "warnings": self.warnings,
        }
        if self.config.model.kind == "lr":
            out["solver"] = {
                "fits_attempted": len(self.lr_fits),
                "fits_converged": sum(conv for conv, _ in self.lr_fits),
                "max_n_iter": max((n_it for _, n_it in self.lr_fits), default=0),
            }
        return out


def _aggregate(config, task, seed, n_folds, rows, t0, warns, lr_fits) -> CvReport:
    keys = rows[0].keys()
    means = {k: float(np.mean([r[k] for r in rows])) for k in keys}
    stds = {k: float(np.std([r[k] for r in rows])) for k in keys}
    return CvReport(
        config=config, task=task, seed=seed, n_folds=n_folds,
        n_runs=len(rows), per_fold=rows, means=means, stds=stds,
        runtime_seconds=time.perf_counter() - t0, warnings=warns,
        lr_fits=lr_fits,
    )


def _score_classification(fitted: FittedPipeline, data, train_idx, test_idx) -> dict:
    labels = data.labels
    train_true = [labels[i] for i in train_idx]
    test_true = [labels[i] for i in test_idx]
    if fitted.config.model.kind == "lda":
        train_pred = models.lda_predict(fitted.model, fitted.train_features)
    else:
        train_pred = models.lr_predict(fitted.model, fitted.train_features)
    test_pred = fitted.predict(data.intensities[test_idx])
    return {
        "train_accuracy": accuracy(train_true, train_pred),
        "test_accuracy": accuracy(test_true, test_pred),
        "train_f1": f1_weighted(train_true, train_pred),
        "test_f1": f1_weighted(test_true, test_pred),
    }


def _cluster_and_score(config: PipelineConfig, data: LabeledDataset,
                       subset_idx) -> tuple[dict, FittedPipeline, models.LinkageTree, list]:
    fitted = fit_pipeline(config, data, subset_idx)
    feats = fitted.train_features
    tree = models.hac_fit(feats, config.model.linkage, config.model.affinity)
    true = [data.labels[i] for i in subset_idx]
    k = len(set(true))
    pred = models.cut_tree(tree, k)
    scores = {
        "ari": adjusted_rand(true, pred),
        "ami": adjusted_mutual_info(true, pred),
        "fm": fowlkes_mallows(true, pred),
    }
    return scores, fitted, tree, pred


def evaluate_config(config: PipelineConfig, data: LabeledDataset,
                    folds: list[np.ndarray], seed: int | None = None) -> CvReport:
    """Cross-validate one configuration over pre-computed folds.

    Classification: per fold, fit on the complement and score both sides.
    Clustering: per fold, cluster the complement subset and score it against
    the known labels at the true class count.
    """
    t0 = time.perf_counter()
    n = data.n_samples
    all_idx = np.arange(n)
    rows, warns, lr_fits = [], [], []
    for fold in folds:
        rest = np.setdiff1d(all_idx, fold)
        if config.task == "classification":
            fitted = fit_pipeline(config, data, rest)
            rows.append(_score_classification(fitted, data, rest, fold))
            if isinstance(fitted.model, models.LrModel):
                lr_fits.append((fitted.model.converged, fitted.model.n_iter))
        else:
            scores, fitted, _, _ = _cluster_and_score(config, data, rest)
            rows.append(scores)
        warns.extend(fitted.warnings)
    return _aggregate(config, config.task, seed, len(folds), rows, t0, warns,
                      lr_fits)


SELECTION_METRIC = {"classification": "test_accuracy", "clustering": "ari"}


@dataclass
class GridSearchResult:
    best: CvReport
    leaderboard: list  # CvReports sorted by selection metric desc, ties by grid order
    selection_metric: str
    seed: int


def grid_search(grid: list[PipelineConfig], data: LabeledDataset, seed: int,
                k: int = 4, stratify: bool = False,
                jobs: int = 1) -> GridSearchResult:
    """Exhaustively evaluate a config lattice with one fixed seeded split.

    Evaluations are independent; with jobs > 1 they run on a thread pool and
    are reduced in grid order, so the result does not depend on scheduling.
    """
    grid = list(grid)
    if not grid:
        raise InvalidConfigError("empty grid")
    tasks = {c.task for c in grid}
    if len(tasks) != 1:
        raise InvalidConfigError("grid mixes classification and clustering configs")
    task = tasks.pop()
    metric = SELECTION_METRIC[task]
    folds = kfold_split(data.n_samples, k, seed,
                        labels=data.labels, stratify=stratify)
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(evaluate_config, config, data, folds, seed)
                       for config in grid]
            reports = [(idx, f.result()) for idx, f in enumerate(futures)]
    else:
        reports = [(idx, evaluate_config(config, data, folds, seed=seed))
                   for idx, config in enumerate(grid)]
    order = sorted(reports, key=lambda t: (-t[1].means[metric], t[0]))
    leaderboard = [r for _, r in order]
    return GridSearchResult(
        best=leaderboard[0],
        leaderboard=leaderboard,
        selection_metric=metric,
        seed=seed,
    )


def repeated_cv(config: PipelineConfig, data: LabeledDataset, seed: int,
                repeats: int = 25, k: int = 4, stratify: bool = False) -> CvReport:
    """Repeat k-fold CV with derived seeds (seed + i); 25 x 4 = 100 runs."""
    if config.task != "classification":
        raise InvalidConfigError("repeated_cv applies to classification configs")
    t0 = time.perf_counter()
    rows, warns, lr_fits = [], [], []
    for rep in range(repeats):
        folds = kfold_split(data.n_samples, k, seed + rep,
                            labels=data.labels, stratify=stratify)
        rep_report = evaluate_config(config, data, folds, seed=seed + rep)
        rows.extend(rep_report.per_fold)
        warns.extend(rep_report.warnings)
        lr_fits.extend(rep_report.lr_fits)
    return _aggregate(config, "classification", seed, k, rows, t0, warns,
                      lr_fits)


def final_clustering(config: PipelineConfig, data: LabeledDataset):
    """Cluster the full dataset at the true class count.

    Returns (labels, LinkageTree, scores dict, FittedPipeline).
    """
    if config.task != "clustering":
        raise InvalidConfigError("final_clustering requires a clustering config")
    scores, fitted, tree, pred = _cluster_and_score(
        config, data, np.arange(data.n_samples))
    return pred, tree, scores, fitted
