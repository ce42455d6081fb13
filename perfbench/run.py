"""wavefeat benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload classify --seed 7 --seconds 25 --trace 0

A workload generates a synthetic dataset from the seed with ``wavefeat
synth``, then runs one real CLI command on it (``gridsearch`` or
``cluster``, ``--jobs 1``) with a grid file from ``perfbench/workloads`` or
the packaged default grid.  Each command is its own process started from
``src/``.  Untraced runs repeat the command for ``--seconds`` and report
end-to-end metrics; a traced run (``--trace 1``) runs it once untraced and
once under the span tracer and reports the per-layer metrics.  Every
command's outputs go through the output check in ``check.py``, and repeated
commands must write byte-identical tables and dendrograms.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a fuller record, with the
environment and the sha256 of every output, goes to
``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from check import CheckError, canonical, check_run
from tracing import RUN_LEVEL

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0   # a run must end within 180 s
sys.path.insert(0, str(SRC))   # the grid is expanded by the program under test


@dataclass(frozen=True)
class Workload:
    command: str                 # CLI subcommand
    grid: str | None             # grid file in perfbench/workloads; None: packaged default
    configs: int                 # configs the grid expands to
    cli_args: tuple = ()
    synth_config: str | None = None  # synth spec in perfbench/workloads

    @property
    def task(self) -> str:
        return "classification" if self.command == "gridsearch" else "clustering"

    @property
    def grid_path(self) -> str | None:
        return self.grid and str(HERE / "workloads" / self.grid)


WORKLOADS = {
    "classify": Workload("gridsearch", "classify_grid.json", 21,
                         ("--folds", "2", "--repeats", "1")),
    "cluster": Workload("cluster", None, 192),
    "cluster-large": Workload("cluster", "cluster_large_grid.json", 20, ("--folds", "2"),
                              synth_config="synth_large.json"),
}


@dataclass
class Process:
    """One finished child process."""

    exit_code: int
    wall_s: float          # spawn to exit
    setup_s: float | None  # spawn to the end of the wavefeat import
    cpu_s: float           # user + system
    rss_mb: float          # peak resident set
    report: dict | None    # what child.py wrote, None if it wrote nothing


def spawn(mode: str, args: list[str], work: Path, tag: str, deadline: float) -> Process:
    """Run child.py to completion; kill it at the deadline."""
    report_path = work / f"{tag}.report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(work / f"{tag}.log", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(report_path), mode, *args],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=work)
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = json.loads(report_path.read_text()) if report_path.is_file() else None
    setup = report["imported_at"] - start if report else None
    return Process(proc.returncode, wall, setup, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0, report)


def expand_grid(workload: Workload) -> list[str]:
    """The grid's configs as canonical JSON, expanded by the program."""
    from wavefeat.grids import grid_for_task, load_grid_document
    doc = load_grid_document(workload.grid_path)
    configs = [canonical(c.to_dict()) for c in grid_for_task(doc, workload.task)]
    if len(configs) != workload.configs:
        raise CheckError(f"{workload.grid or 'default grid'} expands to {len(configs)} configs, "
                         f"expected {workload.configs}")
    return configs


def source_identity() -> dict:
    """Commit when the tree is a git checkout, and a digest of src/ always."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest()}


class Run:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.name, self.workload = name, WORKLOADS[name]
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = OUT / f"{name}-seed{seed}-trace{int(trace)}"
        self.commands: list[dict] = []   # one record per timed CLI command
        self.errors: list[str] = []

    def spawn(self, mode: str, args: list[str], tag: str) -> Process:
        return spawn(mode, args, self.work, tag, self.deadline)

    def set_up(self) -> None:
        """Generate the dataset, record the environment and the import time
        of that process, and expand the grid."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        synth = ["synth", "--seed", str(self.seed), "--out", str(self.work / "dataset.csv")]
        if self.workload.synth_config:
            synth += ["--config", str(HERE / "workloads" / self.workload.synth_config)]
        proc = self.spawn("run", synth, "synth")
        if proc.exit_code != 0 or proc.report is None:
            raise RuntimeError(f"wavefeat synth failed; see {self.work}/synth.log")
        self.environment = proc.report["environment"]
        self.synth_setup_s = proc.setup_s
        imported = Path(self.environment["wavefeat_file"]).resolve()
        if not imported.is_relative_to(SRC):
            raise RuntimeError(f"imported {imported}, not the tree under {SRC}")
        self.expected = expand_grid(self.workload)

    def command(self, mode: str) -> Process:
        """Run the workload's CLI command once and check its outputs."""
        index = len(self.commands)
        out_dir = self.work / f"out{index}"
        args = [self.workload.command, "--data", str(self.work / "dataset.csv"),
                "--seed", str(self.seed), "--out-dir", str(out_dir), "--jobs", "1",
                *self.workload.cli_args]
        if self.workload.grid_path:
            args += ["--config", self.workload.grid_path]
        proc = self.spawn(mode, args, f"{mode}{index}")
        record = {"mode": mode, "exit_code": proc.exit_code, "wall_s": proc.wall_s,
                  "setup_s": proc.setup_s, "cpu_s": proc.cpu_s, "rss_mb": proc.rss_mb,
                  "fits": (proc.report or {}).get("fits"), "ok": False}
        self.commands.append(record)
        try:
            if proc.exit_code != 0:
                raise CheckError(f"exit code {proc.exit_code}; see {self.work}/{mode}{index}.log")
            record.update(check_run(out_dir, self.workload.task, self.expected))
            first = self.commands[0].get("sha256")
            if first is not None and record["sha256"] != first:
                raise CheckError("outputs differ from the first command's")
            record["ok"] = True
        except CheckError as exc:
            record["error"] = str(exc)
            self.errors.append(f"command {index}: {exc}")
        return proc

    def measure(self) -> dict:
        start = time.monotonic()
        while True:
            proc = self.command("run")
            elapsed = time.monotonic() - start
            if not self.commands[-1]["ok"] or elapsed + proc.wall_s > self.seconds:
                break
        ok = [c for c in self.commands if c["ok"]]
        fits = {"attempted": 0, "failed": 0}
        for c in self.commands:
            counted = c["fits"] or {"attempted": 1, "failed": 0}
            fits["attempted"] += counted["attempted"]
            # a crashed command counts all of its fits as failed
            fits["failed"] += counted["failed"] if c["exit_code"] == 0 else counted["attempted"]
        self.fits = fits
        timed = ok or self.commands
        return {
            "run_s": statistics.median(c["wall_s"] for c in timed),
            "setup_s": statistics.median([self.synth_setup_s] + [
                c["setup_s"] for c in timed if c["setup_s"] is not None]),
            "peak_rss_mb": statistics.median(c["rss_mb"] for c in timed),
            "fit_ok_ratio": 1.0 - fits["failed"] / max(fits["attempted"], 1),
            "table_score_mean": ok[0]["score_mean"] if ok else 0.0,
        }

    def measure_traced(self, layer_names: list[str]) -> dict:
        plain = self.command("run")
        traced = self.command("trace")
        layers = (traced.report or {}).get("layers") or {}
        metrics = {name: layers.get(name, 0.0) for name in layer_names}
        metrics["process.cpu_s"] = plain.cpu_s
        metrics["trace.untraced_s"] = plain.wall_s
        metrics["trace.overhead_ratio"] = traced.wall_s / plain.wall_s - 1.0
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wavefeat" / "cli.py").is_file():
        print(f"no wavefeat source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.set_up()
    except (RuntimeError, CheckError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = run.measure_traced([n for n in units if not n.startswith(RUN_LEVEL)])
    else:
        metrics = run.measure()
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    failed = sum(not c["ok"] for c in run.commands)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **source_identity(), **run.environment,
        "cpu_count": os.cpu_count(), "commands": run.commands, "errors": run.errors,
        "metrics": metrics,
    }
    if not args.trace:
        record["fits"] = run.fits
    record_path = OUT / f"{run.work.name}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    if failed == 0:
        shutil.rmtree(run.work)

    for error in run.errors:
        print(f"error: {error}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6f} {units[name]}")
    if not args.trace:
        print(f"fits: {run.fits['failed']} failed of {run.fits['attempted']} attempted")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.commands),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
