"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --seeds 10 [--first-seed 1] [--trace 0|1]

For each workload this runs ``run.py`` once per seed, one after another,
and prints every metric by name and unit with its median, quartiles and
spread: the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``).  For end-to-end metrics it
also prints the bound from BENCHMARK.json and whether the spread is below a
third of it ("steady"), below it ("ok") or above it ("WIDE").  The summary
goes to ``.perfbench_out/spread-trace<0|1>.json`` as well.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    summary, all_correct = {}, True
    for workload in (w["name"] for w in declared["workloads"]):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(declared["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                return 1
            result = json.loads(lines[-1])
            all_correct &= result["correct"]
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"commands={result['attempted']}", flush=True)
        summary[workload] = {}
        print(f"\n{workload}: {len(results)} seeds")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, share = spread(values)
            line = (f"  {name:40s} {median:12.4f} {first['unit']:10s} "
                    f"q1={q1:.4f} q3={q3:.4f} spread={share:.4f}")
            if name in bounds:
                verdict = ("steady" if share < bounds[name] / 3 else
                           "ok" if share <= bounds[name] else "WIDE")
                line += f" bound={bounds[name]} {verdict}"
            print(line)
            summary[workload][name] = {"unit": first["unit"], "median": median, "q1": q1,
                                       "q3": q3, "spread": share, "values": values}
        print(flush=True)
    out = ROOT / ".perfbench_out" / f"spread-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
