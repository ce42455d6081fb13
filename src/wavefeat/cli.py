"""Command-line entry points.

Four commands: synth (write a synthetic dataset), gridsearch (two-stage
cross-validated search + repeated CV of the winners), cluster (clustering
search + full-dataset clustering with dendrogram export), report (render a
run manifest; optionally dump the wavelet filter registry).

A dataset is one CSV file (see ``dataio``), whatever its name: synth writes
it and --data reads it.  Grid documents, synth specs and manifests are JSON.

Exit codes: 0 ok, 2 usage/config error or an output that cannot be written,
3 data error, 4 numerical failure.

Every command runs numpy's BLAS on one thread: importing the package sets
OPENBLAS_NUM_THREADS=1 before numpy loads, overriding whatever the launching
shell set.  A product summed by more threads rounds differently, so the
output bytes would otherwise follow the shell; and the study's blocks are
too small to gain from more threads.  A library caller that imported numpy
before the package keeps its own setting.  BLAS builds other than OpenBLAS
(MKL, Accelerate) read other variables and are not covered.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

try:
    import resource
except ImportError:  # resource is Unix-only
    resource = None

import numpy as np

from . import __version__, dataio, dwt, models, synth
from .errors import (DataFormatError, InvalidConfigError, InvalidDatasetError,
                     InvalidInputError, NumericalError, SplitError)
from .grids import grid_for_task, load_grid_document, load_json_config
from .harness import (DwtSpec, FoldMemo, PipelineConfig, SignalTable, check_dwt_levels,
                      checked_split, final_clustering, grid_search, repeated_cv,
                      spec_from_dict)

DERIV_NAMES = {0: "f", 1: "f'", 2: "f''"}


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------

def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: str, payload: dict) -> None:
    payload = {"tool": "wavefeat", "version": __version__, **payload}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _peak_rss_mb() -> float | None:
    """This process's peak resident set so far, in MiB, as ``ru_maxrss``
    reports it (KiB on Linux, bytes on macOS); None without ``resource``."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _self_describing_header(kind: str) -> str:
    return f"# wavefeat v{__version__} {kind}\n"


def _write_leaderboard(path: str, result) -> None:
    with open(path, "w") as fh:
        fh.write(_self_describing_header("leaderboard"))
        fh.write("rank\tscore\tmetric\tlabel\tconfig\n")
        for rank, report in enumerate(result.leaderboard, start=1):
            score = report.means[result.selection_metric]
            fh.write(f"{rank}\t{score:.6f}\t{result.selection_metric}\t"
                     f"{report.config.label()}\t"
                     f"{json.dumps(report.config.to_dict(), sort_keys=True)}\n")


def _feature_space(config: PipelineConfig, split_sign: bool) -> str:
    if config.decomposition is None:
        return "original"
    base = "DWT" if isinstance(config.decomposition, DwtSpec) else "WTT"
    if split_sign:
        return base + (" (sign)" if config.transform.kind == "sign" else " (thr)")
    return base


_NUMBER = (int, float)
_NUMBER_OR_NULL = (int, float, type(None))
_KIND_NAMES = {dict: "a JSON object", str: "a string", _NUMBER: "a number",
               _NUMBER_OR_NULL: "a number or null"}


def _manifest_field(doc: dict, key: str, kind, where: str, default=None):
    """``doc[key]``, or ``default`` when the key is absent; DataFormatError
    unless the value has type ``kind``.  ``where`` prefixes the message.  No
    kind admits a JSON boolean, which Python reads as an int."""
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise DataFormatError(f"{where}{key} must be {_KIND_NAMES[kind]}")
    return value


def _tuples(value):
    """A JSON value with its arrays, at every depth, as tuples."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _load_data(args) -> "dataio.LabeledDataset":
    if not args.data:
        raise InvalidConfigError("--data is required for this command")
    return dataio.load_dataset(args.data)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_synth(args) -> int:
    if args.config:
        doc = load_json_config(args.config)
        if not isinstance(doc, dict):
            raise InvalidConfigError("synth config must be a JSON object")
        doc.pop("comment", None)
        if args.seed is not None:
            doc["seed"] = args.seed
        spec = spec_from_dict(synth.SyntheticSpec,
                              {key: _tuples(value) for key, value in doc.items()})
    else:
        spec = synth.SyntheticSpec(seed=7 if args.seed is None else args.seed)
    data = synth.synth_dataset(spec)
    out = args.out or os.path.join(args.out_dir or ".", "dataset.csv")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    dataio.save_dataset(out, data)
    print(f"wrote {data.n_samples} samples x {len(data.wavenumbers)} points "
          f"({len(set(data.labels))} classes) to {out}")
    return 0


def _classification_table(cells: dict, model_kind: str, spaces: list[str]) -> str:
    """Tab-separated train/test accuracy and weighted F1 per feature space
    and derivative order."""
    lines = [_self_describing_header(f"classification table model={model_kind}").rstrip("\n")]
    header = ["feature_space", "part"]
    for metric in ("accuracy", "f1_weighted"):
        for d in (0, 1, 2):
            header.append(f"{metric}:{DERIV_NAMES[d]}")
    lines.append("\t".join(header))
    for space in spaces:
        for part in ("train", "test"):
            row = [space, part]
            for metric in ("accuracy", "f1"):
                for d in (0, 1, 2):
                    rep = cells.get((space, d))
                    if rep is None:
                        row.append("-")
                    else:
                        row.append(f"{rep.means[f'{part}_{metric}']:.3f}")
            lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def _require_classes(args, data, task: str) -> None:
    """Reject a dataset of one class: a classifier has nothing to tell apart,
    and any clustering matches the one class, so every score would read 1."""
    n_classes = len(set(data.labels))
    if n_classes < 2:
        raise InvalidDatasetError(
            f"{args.data}: {task} needs at least 2 classes, found {n_classes}")


def _search(args, task: str, repeats: int) -> tuple:
    """The start of a search command: load the data, check its classes and
    its sample count against ``--folds``, expand the task's grid, draw the
    split of the grid search and of each of ``repeats`` repeated-CV runs,
    build the command's one signal table, check every DWT config's level
    against it, run the grid search and write its leaderboard.  Nothing is
    written before the checks pass.
    Returns (grid, table, result, the repeated-CV splits)."""
    data = _load_data(args)
    _require_classes(args, data, task)
    if args.folds > data.n_samples:
        raise InvalidConfigError(f"--folds {args.folds} exceeds the {data.n_samples} "
                                 f"samples of {args.data}")
    grid = grid_for_task(load_grid_document(args.config), task)
    # each split drawn once, and checked before the output directory exists:
    # the grid search's at --seed, repeat r's at --seed + 1 + r
    splits = [checked_split(data, args.folds, seed, task, args.stratify)
              for seed in range(args.seed, args.seed + 1 + repeats)]
    signals = SignalTable(data)
    check_dwt_levels(grid, signals)
    os.makedirs(args.out_dir, exist_ok=True)
    result = grid_search(grid, signals, splits[0])
    _write_leaderboard(os.path.join(args.out_dir, f"leaderboard_{task}.tsv"), result)
    return grid, signals, result, splits[1:]


def _write_run_manifest(args, grid, result, t_start: float, fields: dict,
                        counters: dict | None = None) -> None:
    """The manifest of a search command: the fields both commands write,
    with the grid search's counters and the command's own ``counters``,
    then the command's own ``fields``."""
    _write_manifest(args.out_dir, {
        "command": args.command,
        "seed": args.seed,
        "folds": args.folds,
        "stratify": args.stratify,
        "data": {"path": os.path.abspath(args.data), "sha256": _digest(args.data)},
        "grid_size": len(grid),
        "grid_skipped": grid.skipped,
        "counters": {"fits": result.fits, "memo_hits": result.memo_hits,
                     **(counters or {})},
        "selection_metric": result.selection_metric,
        **fields,
        "wall_time_seconds": time.perf_counter() - t_start,
        "peak_rss_mb": _peak_rss_mb(),
    })


def cmd_gridsearch(args) -> int:
    t_start = time.perf_counter()
    grid, signals, result, splits = _search(args, "classification", args.repeats)

    # winners per (model kind, feature space, derivative), then repeated CV
    winners: dict = {}
    for report in result.leaderboard:
        cfg = report.config
        split_sign = cfg.model.kind == "lda"
        key = (cfg.model.kind, _feature_space(cfg, split_sign),
               cfg.preprocess.derivative_order)
        winners.setdefault(key, cfg)  # leaderboard is already sorted

    # grid order, so that winners with a common prefix share its fits
    position = {cfg: i for i, cfg in enumerate(grid)}
    keys = sorted(winners, key=lambda key: position[winners[key]])
    reports, fits, hits = repeated_cv([winners[key] for key in keys], signals, splits)
    final = dict(zip(keys, reports))

    model_kinds = sorted({k[0] for k in final})
    table_paths = []
    for mk in model_kinds:
        spaces = (["original", "DWT (thr)", "DWT (sign)", "WTT (thr)", "WTT (sign)"]
                  if mk == "lda" else ["original", "DWT", "WTT"])
        cells = {(space, d): rep for (kind, space, d), rep in final.items()
                 if kind == mk}
        path = os.path.join(args.out_dir, f"table_{mk}.tsv")
        with open(path, "w") as fh:
            fh.write(_classification_table(cells, mk, spaces))
        table_paths.append(path)

    best = result.leaderboard[0]
    _write_run_manifest(args, grid, result, t_start, {
        "repeats": args.repeats,
        "best": best.to_dict(),
        "winners": {f"{k[0]}|{k[1]}|d{k[2]}": rep.to_dict()
                    for k, rep in final.items()},
    }, {"repeated_cv": {"fits": fits, "memo_hits": hits}})
    print(f"evaluated {len(grid)} configs; best {result.selection_metric}="
          f"{best.means[result.selection_metric]:.4f} for {best.config.label()}")
    for path in table_paths:
        print(f"wrote {path}")
    return 0


def cmd_cluster(args) -> int:
    t_start = time.perf_counter()
    grid, signals, result, _ = _search(args, "clustering", 0)

    winners: dict = {}
    for report in result.leaderboard:
        cfg = report.config
        key = (_feature_space(cfg, False), cfg.preprocess.derivative_order)
        winners.setdefault(key, report)

    finals: dict = {}
    for (space, d), report in winners.items():
        tree, scores = final_clustering(report.config, signals)
        dendro = models.dendrogram_export(tree, list(signals.data.labels))
        fname = f"dendrogram_{space.replace(' ', '')}_d{d}.json"
        with open(os.path.join(args.out_dir, fname), "w") as fh:
            fh.write(json.dumps(dendro) + "\n")
        finals[(space, d)] = {
            "config": report.config.to_dict(),
            "label": report.config.label(),
            "cv_ari": report.means["ari"],
            "scores": scores,
            "dendrogram": fname,
        }

    spaces = ["original", "DWT", "WTT"]
    table_path = os.path.join(args.out_dir, "table_clustering.tsv")
    with open(table_path, "w") as fh:
        fh.write(_self_describing_header("clustering table"))
        fh.write("score\t" + "\t".join(
            f"{s}:{DERIV_NAMES[d]}" for s in spaces for d in (0, 1, 2)) + "\n")
        for metric, name in (("ari", "adjusted_rand"),
                             ("ami", "adjusted_mutual_info"),
                             ("fm", "fowlkes_mallows")):
            row = [name]
            for s in spaces:
                for d in (0, 1, 2):
                    cell = finals.get((s, d))
                    row.append("-" if cell is None else f"{cell['scores'][metric]:.3f}")
            fh.write("\t".join(row) + "\n")

    # qualitative ordering on the underived column: WTT >= DWT >= original
    def _ari(space):
        cell = finals.get((space, 0))
        return None if cell is None else cell["scores"]["ari"]

    ari_w, ari_d, ari_o = _ari("WTT"), _ari("DWT"), _ari("original")
    if None in (ari_w, ari_d, ari_o):
        ordering_flag = "unavailable"
    else:
        ordering_flag = "pass" if ari_w >= ari_d >= ari_o else "warn"

    _write_run_manifest(args, grid, result, t_start, {
        "winners": {f"{s}|d{d}": cell for (s, d), cell in finals.items()},
        "ari_ordering_wtt_dwt_original": ordering_flag,
    })
    print(f"evaluated {len(grid)} configs; ARI ordering WTT>=DWT>=original: "
          f"{ordering_flag}")
    print(f"wrote {table_path}")
    return 0


def _solver_line(solver: dict, where: str) -> str:
    """One line on an LR winner's fits: converged of attempted, the most
    Newton steps and the largest duality gap (l1 only)."""
    done, tried, steps = (_manifest_field(solver, name, _NUMBER, where)
                          for name in ("fits_converged", "fits_attempted", "max_n_iter"))
    gap = solver.get("max_gap")
    gap_text = "-" if gap is None else f"{_manifest_field(solver, 'max_gap', _NUMBER, where):.1e}"
    return (f"LR fits converged {done}/{tried}, Newton steps at most {steps}, "
            f"largest duality gap {gap_text}")


def _counters_line(counters: dict, run: str, where: str) -> str:
    """One line of a run's fits and memo hits per stage name."""
    fits, hits = (_manifest_field(counters, name, dict, where)
                  for name in ("fits", "memo_hits"))
    return f"stage fits / memo hits ({run}): " + ", ".join(
        f"{stage} {_manifest_field(fits, stage, _NUMBER, where + 'fits.')}/"
        f"{_manifest_field(hits, stage, _NUMBER, where + 'memo_hits.')}"
        for stage in FoldMemo.NAMES if stage in fits)


def cmd_report(args) -> int:
    if args.registry:
        with open(args.registry, "w") as fh:
            fh.write(dwt.dump_registry())
        print(f"wrote filter registry to {args.registry}")
        if not args.run_dir:
            return 0
    if not args.run_dir:
        raise InvalidConfigError("report requires --run-dir (or --registry)")
    manifest_path = os.path.join(args.run_dir, "manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{manifest_path}: cannot read a manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataFormatError(f"{manifest_path}: a manifest must be a JSON object")
    where = f"{manifest_path}: "
    print(f"wavefeat run: command={manifest.get('command')} "
          f"version={manifest.get('version')} seed={manifest.get('seed')}")
    data_info = _manifest_field(manifest, "data", dict, where, {})
    sha256 = _manifest_field(data_info, "sha256", str, where + "data.", "")
    print(f"data: {data_info.get('path')} sha256={sha256[:12]}...")
    winners = _manifest_field(manifest, "winners", dict, where, {})
    series_rows = []
    for key in sorted(winners):
        entry = _manifest_field(winners, key, dict, where + "winners.")
        at = f"{where}winners.{key}."
        if "means" in entry:
            means = _manifest_field(entry, "means", dict, at)
            main = ("test_accuracy" if "test_accuracy" in means else "ari")
            score = _manifest_field(means, main, _NUMBER, at + "means.")
            print(f"  {key}: {main}={score:.4f} ({entry.get('label')})")
            if "solver" in entry:
                print("    " + _solver_line(_manifest_field(entry, "solver", dict, at),
                                            at + "solver."))
        elif "scores" in entry:
            scores = _manifest_field(entry, "scores", dict, at)
            score, ami, fm = (_manifest_field(scores, name, _NUMBER, at + "scores.")
                              for name in ("ari", "ami", "fm"))
            print(f"  {key}: ARI={score:.4f} AMI={ami:.4f} "
                  f"FM={fm:.4f} ({entry.get('label')})")
        else:
            continue
        series_rows.append((key, score))
    if "counters" in manifest:
        counters = _manifest_field(manifest, "counters", dict, where)
        print(_counters_line(counters, "grid search", where + "counters."))
        if "repeated_cv" in counters:
            print(_counters_line(
                _manifest_field(counters, "repeated_cv", dict, where + "counters."),
                "repeated CV", where + "counters.repeated_cv."))
    for rule, n in sorted(_manifest_field(manifest, "grid_skipped", dict, where,
                                          {}).items()):
        print(f"grid points skipped: {n} ({rule})")
    if "ari_ordering_wtt_dwt_original" in manifest:
        print(f"ARI ordering WTT>=DWT>=original: "
              f"{manifest['ari_ordering_wtt_dwt_original']}")
    if series_rows:
        out = os.path.join(args.run_dir, "report_series.tsv")
        with open(out, "w") as fh:
            fh.write(_self_describing_header("report series"))
            fh.write("group\tscore\n")
            for key, val in series_rows:
                fh.write(f"{key}\t{val:.6f}\n")
        print(f"wrote {out}")
    wall = _manifest_field(manifest, "wall_time_seconds", _NUMBER, where, float("nan"))
    # null where ``resource`` is missing; older manifests have no such field
    rss = _manifest_field(manifest, "peak_rss_mb", _NUMBER_OR_NULL, where)
    rss_text = "-" if rss is None else f"{rss:.1f} MB"
    print(f"wall time: {wall:.1f}s, peak RSS {rss_text}")
    return 0


# ----------------------------------------------------------------------
# parser / entry point
# ----------------------------------------------------------------------

def _int_at_least(low: int):
    """argparse type: an integer of at least low, so a bad count exits 2
    with the flag's name before any data is read."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavefeat",
        description="Wavelet / adaptive-filter-bank feature extraction and "
                    "model evaluation for 1-D spectra.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_data=True):
        if needs_data:
            p.add_argument("--data", help="dataset file (CSV)")
        p.add_argument("--config", default=None,
                       help="grid / generator config file (JSON)")
        p.add_argument("--out-dir", default="wavefeat_out")

    def search(p):
        p.add_argument("--seed", type=_int_at_least(0), default=0)
        p.add_argument("--folds", type=_int_at_least(2), default=4)
        p.add_argument("--jobs", type=int, choices=(1,), default=1,
                       help="only 1; goes once the benchmark stops passing it")
        p.add_argument("--stratify", action="store_true",
                       help="stratify CV folds by class")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p_synth, needs_data=False)
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.add_argument("--out", default=None,
                         help="output dataset path; the file is CSV, whatever its "
                              "extension (default: OUT_DIR/dataset.csv)")
    p_synth.set_defaults(func=cmd_synth)

    p_grid = sub.add_parser("gridsearch",
                            help="classification grid search + repeated CV")
    common(p_grid)
    search(p_grid)
    p_grid.add_argument("--repeats", type=_int_at_least(1), default=25)
    p_grid.set_defaults(func=cmd_gridsearch)

    p_cluster = sub.add_parser("cluster",
                               help="clustering grid search + full-data clustering")
    common(p_cluster)
    search(p_cluster)
    p_cluster.set_defaults(func=cmd_cluster)

    p_report = sub.add_parser("report", help="render a run manifest")
    p_report.add_argument("--run-dir", default=None)
    p_report.add_argument("--registry", default=None,
                          help="write the wavelet filter registry to this path")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except SplitError as exc:
        # only the search commands split; a clustering fold fails only for
        # want of rows, which more folds can cure and --stratify cannot
        hint = "more folds" if args.command == "cluster" else "--stratify or fewer folds"
        print(f"usage error: {args.data}: --folds {args.folds}: {exc}; try {hint}",
              file=sys.stderr)
        return 2
    except (InvalidConfigError, InvalidInputError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        # the loaders report read failures, so this is an output path
        print(f"cannot write: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
