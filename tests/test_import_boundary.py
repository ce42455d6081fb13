"""Which scipy modules a CLI process loads.

Importing the package loads no scipy module, and neither writing a
synthetic set, nor a classification run, nor a clustering run loads one at
all: numpy is the package's only runtime dependency, and scipy is the
tests' reference.  Each command runs in a fresh interpreter, since this
test process has imported scipy already.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wavefeat import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# prints the scipy modules loaded after the import, then after the command
CHILD = """
import json, sys
import wavefeat.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
after_import = scipy_modules()
code = wavefeat.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "after_import": after_import,
                  "after_run": scipy_modules()}))
"""


@pytest.fixture(scope="module")
def golden_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("boundary") / "data.csv"
    assert cli.main(["synth", "--config", str(GOLDEN / "synth.json"),
                     "--seed", "3", "--out", str(data)]) == 0
    return data


def _run_child(args: list[str]) -> dict:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), path]))}
    done = subprocess.run([sys.executable, "-c", CHILD, *args], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _command(name: str, data: Path, out_dir: Path) -> list[str]:
    args = [name, "--data", str(data), "--config", str(GOLDEN / "grid.json"),
            "--seed", "3", "--folds", "2", "--out-dir", str(out_dir)]
    return args + ["--repeats", "1"] if name == "gridsearch" else args


@pytest.mark.parametrize("config", [[], ["--config", str(GOLDEN / "synth.json")]],
                         ids=["default", "golden"])
def test_synth_loads_no_scipy(tmp_path, config):
    result = _run_child(["synth", *config, "--seed", "3",
                         "--out", str(tmp_path / "data.csv")])
    assert result["code"] == 0
    assert result["after_import"] == []
    assert result["after_run"] == []


def test_classification_run_loads_no_scipy(golden_data, tmp_path):
    result = _run_child(_command("gridsearch", golden_data, tmp_path))
    assert result["code"] == 0
    assert result["after_import"] == []
    assert result["after_run"] == []


def test_clustering_run_loads_only_what_hac_needs(golden_data, tmp_path):
    result = _run_child(_command("cluster", golden_data, tmp_path))
    assert result["code"] == 0
    assert result["after_import"] == []
    assert result["after_run"] == []
