"""Tests for the verdicts of tools/bench_pairs.py, and for what it leaves
behind when it is stopped."""
import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

RUN_S = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}
SCORE = {"name": "score", "unit": "score", "better": "higher", "bound": 0.25}


def _runs(name, parent, change):
    return [{"pair": i, "parent": {"metrics": {name: p}},
             "change": {"metrics": {name: c}}}
            for i, (p, c) in enumerate(zip(parent, change))]


PARENT = [2.4, 2.5, 2.5, 2.6, 2.5, 2.4, 2.6, 2.5, 2.5, 2.5]


@pytest.mark.parametrize("change, expected", [
    # 2.0 in every pair: 10 wins and 0.5 off a median whose IQR is 0.1
    ([2.0] * 10, "gain"),
    # 9 of 10 pairs are still a gain
    ([2.0] * 9 + [3.0], "gain"),
    # 8 of 10 are not, and a small shift is the same
    ([2.0] * 8 + [3.0] * 2, "same"),
    ([2.45] * 10, "same"),
    # a median more than 25% above the parent's
    ([3.2] * 10, "worse"),
], ids=["all-pairs", "nine-pairs", "eight-pairs", "small-shift", "worse"])
def test_run_s_verdicts(change, expected):
    summary = bench_pairs.summarize(_runs("run_s", PARENT, change), [RUN_S])["run_s"]
    assert summary["verdict"] == expected
    assert summary["change_wins"] + summary["parent_wins"] <= len(PARENT)


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]  # IQR 1 > 0.25 * 1.5
    change = [1.1, 1.9, 1.1, 1.9, 1.1, 1.9, 1.1, 1.9, 1.1, 1.9]
    summary = bench_pairs.summarize(_runs("score", parent, change), [SCORE])["score"]
    assert (summary["change_wins"], summary["parent_wins"]) == (5, 5)
    assert summary["verdict"] == "unresolved"
    # winning every pair is not enough: 2.01 is not better than every 2.0
    better = [p + 0.01 for p in parent]
    summary = bench_pairs.summarize(_runs("score", parent, better), [SCORE])["score"]
    assert summary["change_wins"] == 10 and summary["verdict"] == "unresolved"
    # every change run above every parent run, by less than the IQR
    summary = bench_pairs.summarize(_runs("score", parent, [2.4] * 10), [SCORE])["score"]
    assert summary["verdict"] == "same"


def test_higher_is_better_metrics_gain_upwards():
    parent = [0.5] * 10
    summary = bench_pairs.summarize(_runs("score", parent, [0.6] * 10), [SCORE])["score"]
    assert summary["verdict"] == "gain"
    summary = bench_pairs.summarize(_runs("score", parent, [0.3] * 10), [SCORE])["score"]
    assert summary["verdict"] == "worse"


# A driver that runs one child the way run_once runs perfbench/run.py; the
# child starts a grandchild, as run.py starts child.py, and writes both pids
DRIVER = """
import signal, sys, tempfile
sys.path.insert(0, sys.argv[1])
import bench_pairs
signal.signal(signal.SIGTERM, bench_pairs.stop)
with tempfile.TemporaryDirectory(prefix="bench_pairs_", dir=sys.argv[2]) as work:
    bench_pairs.run_in_group([sys.executable, "-c", sys.argv[3], sys.argv[4]], work)
"""
CHILD = """
import os, subprocess, sys, time
grandchild = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
with open(sys.argv[1] + ".part", "w") as fh:
    fh.write(f"{os.getpid()} {grandchild.pid}")
os.replace(sys.argv[1] + ".part", sys.argv[1])
time.sleep(30)
"""


def _alive(pid):
    """Whether pid runs; a zombie that no one has reaped yet does not."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _wait_for(condition, seconds=20.0):
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_sigterm_kills_the_run_group_and_removes_the_temp_dir(tmp_path):
    pids = tmp_path / "pids"
    driver = subprocess.Popen([sys.executable, "-c", DRIVER, str(PATH.parent),
                               str(tmp_path), CHILD, str(pids)])
    try:
        assert _wait_for(pids.exists), "the child never started"
        assert len(list(tmp_path.glob("bench_pairs_*"))) == 1
        running = [int(p) for p in pids.read_text().split()]
        assert all(_alive(p) for p in running)
        driver.send_signal(signal.SIGTERM)
        assert driver.wait(timeout=20) == 128 + signal.SIGTERM
        assert _wait_for(lambda: not any(_alive(p) for p in running))
        assert not list(tmp_path.glob("bench_pairs_*"))
    finally:
        driver.kill()
        driver.wait()
        if pids.exists():  # the child leads its group
            try:
                os.killpg(int(pids.read_text().split()[0]), signal.SIGKILL)
            except ProcessLookupError:
                pass
