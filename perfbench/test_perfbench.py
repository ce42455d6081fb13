"""Tests of the benchmark's own code: span arithmetic, argument hashing,
wrapper restoration, and the output check on tiny versions of every
workload."""
import dataclasses
import importlib
import json
import shutil

import numpy as np
import pytest

import run
from check import CheckError, check_run
from tracing import RUN_LEVEL, TARGETS, Target, Tracer, installed, layer_metrics, self_times


def ticking_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 7.0, 0],
        ["e", 6.0, 9.0, 0],   # overlaps d; the overlap counts once
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 2.0, 3.0]


def test_nested_wrappers_record_parents_and_self_time():
    tracer = Tracer(clock=ticking_clock())
    inner = tracer.wrap(Target("m", "inner", "layer.inner"), lambda x: x)
    outer = tracer.wrap(Target("m", "outer", "layer.outer"), lambda x: inner(x) + inner(x))
    assert outer(2) == 4
    # clock reads: open outer 0, inner 1-2, inner 3-4, close outer 5
    assert tracer.spans == [["layer.outer", 0.0, 5.0, -1],
                            ["layer.inner", 1.0, 2.0, 0],
                            ["layer.inner", 3.0, 4.0, 0]]
    stats = layer_metrics(tracer, ["layer.outer.self_s", "layer.outer.total_s",
                                   "layer.inner.calls", "layer.inner.self_s",
                                   "layer.never.calls"])
    assert stats == {"layer.outer.self_s": 3.0, "layer.outer.total_s": 5.0,
                     "layer.inner.calls": 2, "layer.inner.self_s": 2.0,
                     "layer.never.calls": 0}


def test_variant_and_observed_results():
    def fit(x, penalty="l2"):
        return dataclasses.make_dataclass("M", ["n_iter", "converged"])(x, x < 10)

    tracer = Tracer(clock=ticking_clock())
    traced = tracer.wrap(Target("m", "fit", "models.fit", variant="penalty",
                                observe=lambda r: {"iters": r.n_iter,
                                                   "converged": float(r.converged)}), fit)
    traced(4, penalty="l1")
    traced(20, "l1")
    traced(6)
    stats = layer_metrics(tracer, ["models.fit.l1.calls", "models.fit.l1.iters_mean",
                                   "models.fit.l1.converged_ratio", "models.fit.l2.calls",
                                   "models.fit.l2.converged_ratio"])
    assert stats == {"models.fit.l1.calls": 2, "models.fit.l1.iters_mean": 12.0,
                     "models.fit.l1.converged_ratio": 0.5, "models.fit.l2.calls": 1,
                     "models.fit.l2.converged_ratio": 1.0}


def test_unique_ratio_counts_distinct_argument_contents():
    tracer = Tracer(clock=ticking_clock())
    traced = tracer.wrap(Target("m", "f", "layer.f", hashed=True), lambda y, k: None)
    a = np.arange(12.0).reshape(3, 4)
    traced(a, 1)
    traced(a.copy(), 1)              # same contents: a repeat
    traced(a.reshape(4, 3), 1)       # same bytes, other shape: distinct
    traced(a, 2)                     # other scalar: distinct
    assert layer_metrics(tracer, ["layer.f.calls", "layer.f.unique_ratio"]) == {
        "layer.f.calls": 4, "layer.f.unique_ratio": 0.75}
    # hashing happens in overhead spans, outside the layer's own span
    assert layer_metrics(tracer, ["layer.f.self_s"])["layer.f.self_s"] == 4.0


def test_unique_ratio_of_distinct_inputs_is_one():
    tracer = Tracer(clock=ticking_clock())
    traced = tracer.wrap(Target("m", "f", "layer.f", hashed=True), lambda y: None)
    for i in range(5):
        traced(np.full(3, float(i)))
    assert layer_metrics(tracer, ["layer.f.unique_ratio"]) == {"layer.f.unique_ratio": 1.0}


def _resolved():
    return {(t.module, t.attr): getattr(importlib.import_module(t.module), t.attr)
            for t in TARGETS}


def test_wrappers_are_removed_after_a_traced_run():
    before = _resolved()
    tracer = Tracer()
    with installed(tracer):
        during = _resolved()
        assert all(during[key] is not before[key] for key in before)
        from wavefeat import models
        models.pairwise_distances(np.eye(3), "euclidean")
    assert [s[0] for s in tracer.spans] == ["models.pairwise_distances"]
    after = _resolved()
    assert all(after[key] is before[key] for key in before)

    with pytest.raises(RuntimeError):
        with installed(Tracer()):
            raise RuntimeError("a failing traced run")
    after = _resolved()
    assert all(after[key] is before[key] for key in before)


def test_every_per_layer_metric_has_a_statistic():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer"]
             if not m["name"].startswith(RUN_LEVEL)]
    layers = {t.layer for t in TARGETS}
    for name in names:
        layer = name.rsplit(".", 1)[0]
        assert layer in layers or layer.rsplit(".", 1)[0] in layers, name
    assert set(layer_metrics(Tracer(), names)) == set(names)


# --- tiny versions of the workloads --------------------------------------

TINY_SYNTH = {"class_count": 2, "samples_per_class": [8, 8], "grid_points": 256}


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Each workload's command once untraced and once traced, on a 16 x 256
    two-class synth set.  Maps the workload name to (run, traced process)."""
    out = tmp_path_factory.mktemp("perfbench")
    synth = out / "tiny_synth.json"
    synth.write_text(json.dumps(TINY_SYNTH))
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "OUT", out)
        for name, workload in run.WORKLOADS.items():
            mp.setitem(run.WORKLOADS, name,
                       dataclasses.replace(workload, synth_config=str(synth)))
            tiny = run.Run(name, seed=3, seconds=0, trace=True)
            tiny.set_up()
            tiny.command("run")
            runs[name] = (tiny, tiny.command("trace"))
    return runs


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_workload_passes_the_output_check(tiny_runs, name):
    tiny, _ = tiny_runs[name]
    assert tiny.errors == []
    command = tiny.commands[0]
    assert command["ok"] and command["exit_code"] == 0
    assert command["fits"]["attempted"] > 0
    tables = ({"table_lda.tsv", "table_lr.tsv"} if name == "classify"
              else {"table_clustering.tsv", "dendrogram_original_d0.json"})
    assert tables < set(command["sha256"])


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_traced_run_matches_untraced(tiny_runs, name):
    tiny, traced = tiny_runs[name]
    # Run.command fails a command whose outputs differ from the first one's
    assert tiny.commands[1]["ok"] and tiny.commands[1]["mode"] == "trace"
    layers = traced.report["layers"]
    fits = tiny.commands[1]["fits"]["attempted"]
    assert layers["grids.grid_for_task.configs"] == run.WORKLOADS[name].configs
    assert layers["harness.fit_pipeline.calls"] == fits
    if name == "classify":
        assert layers["models.lr_fit.l1.calls"] > 0 and layers["models.hac_fit.calls"] == 0
    else:
        assert layers["models.hac_fit.calls"] == fits
        assert layers["models.lr_fit.l1.calls"] == layers["models.lr_fit.l2.calls"] == 0


def _set_cell(row_name, col, value):
    def edit(text):
        rows = [line.split("\t") for line in text.splitlines()]
        for row in rows:
            if row[0] == row_name:
                row[col] = value
        return "\n".join("\t".join(row) for row in rows) + "\n"
    return edit


def _repeat_first_config(text):
    rows = [line.split("\t") for line in text.splitlines()]
    rows[-1][4] = rows[2][4]    # rows: header comment, column names, rank 1, ...
    return "\n".join("\t".join(row) for row in rows) + "\n"


def _rewrite(filename, edit):
    def apply(out):
        path = out / filename
        path.write_text(edit(path.read_text()))
    return apply


@pytest.mark.parametrize("edit", [
    _rewrite("leaderboard_clustering.tsv", _repeat_first_config),
    _rewrite("leaderboard_clustering.tsv",
             lambda text: "\n".join(text.splitlines()[:-1]) + "\n"),   # missing config
    _rewrite("leaderboard_clustering.tsv", _set_cell("1", 1, "1.500000")),  # ARI above 1
    _rewrite("table_clustering.tsv", _set_cell("adjusted_rand", 1, "nan")),
    _rewrite("table_clustering.tsv", _set_cell("fowlkes_mallows", 1, "-1.000")),
    _rewrite("table_clustering.tsv", _set_cell("adjusted_rand", 2, "-")),  # f' is in the grid
    lambda out: (out / "dendrogram_WTT_d1.json").unlink(),              # f' is in the grid
    _rewrite("dendrogram_WTT_d0.json", lambda text: "{"),
    _rewrite("dendrogram_DWT_d0.json", lambda text: "[]"),
])
def test_output_check_rejects_broken_outputs(tiny_runs, tmp_path, edit):
    tiny, _ = tiny_runs["cluster"]
    out = tmp_path / "out"
    shutil.copytree(tiny.work / "out0", out)
    edit(out)
    with pytest.raises(CheckError):
        check_run(out, "clustering", tiny.expected)
