"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of the program at the names their callers
resolve (``wavefeat.harness.derivative_matrix`` rather than
``wavefeat.preprocess.derivative_matrix``, because harness imported the name
into its own namespace).  Each call records one span -- name, start, end,
parent -- in memory; per-layer metrics are computed from the spans after
the run.  ``installed`` restores every original on exit, so code that runs
afterwards in the same process executes unwrapped functions.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import time
from collections import defaultdict
from typing import Callable, NamedTuple

import numpy as np

# spans that cover the tracer's own work (argument hashing); they are
# subtracted from their parent's self time and reported nowhere else
OVERHEAD = "trace.overhead"
# per-layer metric names measured by the benchmark process, not by spans
RUN_LEVEL = ("process.", "trace.")


class Target(NamedTuple):
    """One function to wrap: ``module.attr`` is the name its caller resolves."""

    module: str
    attr: str
    layer: str
    variant: str | None = None       # argument whose value suffixes the layer name
    hashed: bool = False             # hash the arguments for unique_ratio
    observe: Callable | None = None  # result -> {stat: number}


def _lr_outcome(model) -> dict:
    return {"iters": model.n_iter, "converged": float(model.converged)}


TARGETS = (
    Target("wavefeat.cli", "grid_search", "harness.grid_search"),
    Target("wavefeat.cli", "repeated_cv", "harness.repeated_cv"),
    Target("wavefeat.cli", "final_clustering", "harness.final_clustering"),
    Target("wavefeat.harness", "fit_pipeline", "harness.fit_pipeline"),
    Target("wavefeat.dataio", "load_dataset", "dataio.load_dataset"),
    Target("wavefeat.cli", "grid_for_task", "grids.grid_for_task",
           observe=lambda configs: {"configs": len(configs)}),
    Target("wavefeat.harness", "derivative_matrix", "preprocess.derivative_matrix",
           hashed=True),
    Target("wavefeat.harness", "resample_matrix", "preprocess.resample_matrix",
           hashed=True),
    Target("wavefeat.harness", "apply_scaler", "preprocess.apply_scaler"),
    Target("wavefeat.dwt", "wavedec", "dwt.wavedec"),
    Target("wavefeat.dwt", "waverec", "dwt.waverec"),
    Target("wavefeat.wtt", "train_group_filters", "wtt.train_group_filters",
           hashed=True),
    Target("wavefeat.wtt", "wtt_forward", "wtt.wtt_forward"),
    Target("wavefeat.wtt", "wtt_inverse", "wtt.wtt_inverse"),
    Target("wavefeat.wtt", "svd_left", "numerics.svd_left"),
    Target("wavefeat.harness", "extract_features", "features.extract_features"),
    Target("wavefeat.models", "lda_fit", "models.lda_fit"),
    Target("wavefeat.models", "lr_fit", "models.lr_fit", variant="penalty",
           observe=_lr_outcome),
    Target("wavefeat.models", "hac_fit", "models.hac_fit"),
    Target("wavefeat.models", "pairwise_distances", "models.pairwise_distances"),
    Target("wavefeat.models", "lda_predict", "models.predict"),
    Target("wavefeat.models", "lr_predict", "models.predict"),
    Target("wavefeat.harness", "accuracy", "metrics.classification"),
    Target("wavefeat.harness", "f1_weighted", "metrics.classification"),
    Target("wavefeat.harness", "adjusted_rand", "metrics.clustering"),
    Target("wavefeat.harness", "adjusted_mutual_info", "metrics.clustering"),
    Target("wavefeat.harness", "fowlkes_mallows", "metrics.clustering"),
)


def digest(args, kwargs) -> bytes:
    """Content hash of a call's arguments: arrays by dtype, shape and bytes,
    everything else by repr."""
    h = hashlib.blake2b(digest_size=16)
    for value in (*args, *sorted(kwargs.items())):
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).data)
        else:
            h.update(repr(value).encode())
        h.update(b"\0")
    return h.digest()


class Tracer:
    """In-memory span recorder.  A span is ``[name, start, end, parent]``
    with parent the index of the enclosing span, or -1."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.digests: dict[str, set] = defaultdict(set)
        self.observed: dict[str, list[dict]] = defaultdict(list)
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def wrap(self, target: Target, fn: Callable) -> Callable:
        signature = inspect.signature(fn) if target.variant else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = target.layer
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                name = f"{name}.{bound.arguments[target.variant]}"
            if target.hashed:
                index = self._open(OVERHEAD)
                self.digests[name].add(digest(args, kwargs))
                self._close(index)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if target.observe is not None:
                self.observed[name].append(target.observe(result))
            return result

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace each of TARGETS with a traced wrapper; restore all on exit."""
    saved = []
    try:
        for target in TARGETS:
            module = importlib.import_module(target.module)
            original = getattr(module, target.attr)
            saved.append((module, target.attr, original))
            setattr(module, target.attr, tracer.wrap(target, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer, names) -> dict[str, float]:
    """Values for metric names of the form ``<layer>.<stat>``.

    calls, total_s and self_s come from the spans; unique_ratio is distinct
    argument hashes over calls; iters_mean, converged_ratio and configs come
    from observed results.  A layer that was never called reports 0.
    """
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for (name, start, end, _), self_s in zip(tracer.spans, self_times(tracer.spans)):
        calls[name] += 1
        total[name] += end - start
        own[name] += self_s

    def observed(layer, key):
        return [obs[key] for obs in tracer.observed.get(layer, [])]

    out = {}
    for metric in names:
        layer, stat = metric.rsplit(".", 1)
        if stat == "calls":
            value = calls[layer]
        elif stat == "total_s":
            value = total[layer]
        elif stat == "self_s":
            value = own[layer]
        elif stat == "unique_ratio":
            value = len(tracer.digests.get(layer, ())) / calls[layer] if calls[layer] else 0.0
        elif stat == "configs":
            value = sum(observed(layer, "configs"))
        elif stat in ("iters_mean", "converged_ratio"):
            values = observed(layer, "iters" if stat == "iters_mean" else "converged")
            value = sum(values) / len(values) if values else 0.0
        else:
            raise KeyError(f"no tracer statistic for metric {metric!r}")
        out[metric] = value
    return out
