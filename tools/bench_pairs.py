#!/usr/bin/env python3
"""Run the benchmark on a parent commit and on HEAD in alternating pairs.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent <rev> --workload classify --seed 29 \\
        --pairs 10 --out BENCH_7.json

Both trees are exported with ``git archive`` (the parent rev and HEAD, so
only committed files are measured) into one temporary directory, and the
run stops before measuring anything if ``perfbench/`` or ``BENCHMARK.json``
differ between them.  Each pair runs ``perfbench/run.py --trace 0`` once in
each tree, for the ``run_seconds`` that ``BENCHMARK.json`` declares; the side
that runs first alternates from pair to pair.  The JSON file ``--out`` holds
a list of rounds per workload, and each invocation appends one round, so
one file keeps every round of a change, reruns at the same or another seed
included.  A round holds every run's end-to-end metrics and output digests
(one per command, over its output files), and per metric each side's median
and quartiles (``statistics.quantiles(values, n=4)``, as
``perfbench/spread.py``), the pairs each side won (ties count for
neither) and a verdict, the first of these that holds:

- ``gain``: the change wins at least 9 in 10 pairs, and its median is
  better than the parent's by more than the parent's interquartile range;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound, a share of the parent's median (``BENCHMARK.json``);
- ``unresolved``: the parent's interquartile range is wider than the
  bound, and not every run of the change is better than every run of the
  parent;
- ``same``.

Each benchmark run is started in a process group of its own.  When the
tool is stopped (SIGTERM, or an interrupt), it kills that group, so neither
``perfbench/run.py`` nor the ``child.py`` it started outlives it, and it
removes the temporary directory.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export(rev: str, dest: Path) -> str:
    """Extract the committed tree of rev into dest; its full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        # extraction filters exist from Python 3.12 and in later 3.10/3.11
        # patch releases; the archive comes from this repository either way
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return commit


def benchmark_files(tree: Path) -> dict[str, bytes]:
    files = [tree / "BENCHMARK.json", *sorted((tree / "perfbench").rglob("*"))]
    return {str(p.relative_to(tree)): p.read_bytes() for p in files if p.is_file()}


def outputs_digest(files: dict | None) -> str | None:
    """One sha256 over a command's {output file: sha256} map."""
    if files is None:
        return None
    return hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()


def run_in_group(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """Run args in cwd, in a process group of its own, and capture its
    output; on any exception, SIGTERM included (see ``stop``), kill the
    whole group before passing the exception on."""
    with subprocess.Popen(args, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate()
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # the group has already exited
                pass
            raise
    return subprocess.CompletedProcess(args, proc.returncode, out, err)


def stop(signum, frame):
    """SIGTERM handler: raise SystemExit, so that the running group is
    killed and the temporary directory removed on the way out."""
    raise SystemExit(128 + signum)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in tree: its metrics and output digests."""
    done = run_in_group(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"], tree)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"benchmark failed in {tree}:\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    record = json.loads(
        (tree / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "outputs_sha256": [outputs_digest(c.get("sha256")) for c in record["commands"]]}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdict(parent: dict, change: dict, sign: int, bound: float,
            change_wins: int) -> str:
    """gain, worse, unresolved or same (see the module docstring); parent
    and change are ``spread`` results with their ``runs``, and sign is 1
    where higher is better."""
    gain = sign * (change["median"] - parent["median"])
    allowed = bound * abs(parent["median"])
    if change_wins >= 0.9 * len(parent["runs"]) and gain > parent["iqr"]:
        return "gain"
    if gain < -allowed:
        return "worse"
    if (parent["iqr"] > allowed and min(sign * v for v in change["runs"])
            <= max(sign * v for v in parent["runs"])):
        return "unresolved"
    return "same"


def summarize(runs: list[dict], declared: list[dict]) -> dict:
    summary = {}
    for metric in declared:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [r[side]["metrics"][name] for r in runs] for side in SIDES}
        gains = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        sides = {side: {"runs": values[side], **spread(values[side])} for side in SIDES}
        change_wins = sum(g > 0 for g in gains)
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            **sides,
            "change_wins": change_wins,
            "parent_wins": sum(g < 0 for g in gains),
            "verdict": verdict(sides["parent"], sides["change"], sign,
                               metric["bound"], change_wins),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git rev of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")

    signal.signal(signal.SIGTERM, stop)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        commits = {"parent": export(args.parent, trees["parent"]),
                   "change": export("HEAD", trees["change"])}
        if benchmark_files(trees["parent"]) != benchmark_files(trees["change"]):
            raise SystemExit("perfbench/ or BENCHMARK.json differ between "
                             f"{args.parent} and HEAD; the pairs would not compare")
        declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        seconds = declared["run_seconds"]
        runs = []
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            run = {"pair": pair, "first": order[0]}
            for side in order:
                run[side] = run_once(trees[side], args.workload, args.seed, seconds)
            runs.append(run)
            print(f"pair {pair}: " + "  ".join(
                f"{side} run_s={run[side]['metrics']['run_s']:.3f}" for side in SIDES),
                file=sys.stderr)

    summary = summarize(runs, declared["end_to_end"])
    digests = {side: {d for r in runs for d in r[side]["outputs_sha256"]} for side in SIDES}
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.is_file() else {}
    doc.setdefault(args.workload, []).append({
        "seed": args.seed, "seconds": seconds, "pairs": args.pairs,
        "parent": commits["parent"], "change": commits["change"],
        "all_correct": all(r[side]["correct"] for r in runs for side in SIDES),
        "outputs_identical": len(digests["parent"] | digests["change"]) == 1,
        "summary": summary, "runs": runs,
    })
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, s in summary.items():
        print(f"{name:18s} parent {s['parent']['median']:10.4f} "
              f"[{s['parent']['q1']:.4f}, {s['parent']['q3']:.4f}]  "
              f"change {s['change']['median']:10.4f} "
              f"[{s['change']['q1']:.4f}, {s['change']['q3']:.4f}]  "
              f"wins {s['change_wins']}/{args.pairs} {s['unit']:5s} {s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
