"""tools/compare_runs.py on two synthetic perfbench run records."""
import copy
import json
import os
import subprocess
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                      "compare_runs.py")

RECORD = {
    "workload": "exact-search", "seed": 1, "rounds": 3,
    "ops": [{"id": 0, "type": "find", "pde": "kdv"},
            {"id": 1, "type": "bt-apply", "pde": "chiral-private"}],
    "outputs": {"0": {"terms": [["1", [], "1"]]}, "1": {"image": "M"}},
    "mismatched": [],
    # [operation id, seconds, failed, start]
    "times": [[0, 0.010, False, 0.0], [1, 0.200, False, 0.1],
              [0, 0.030, False, 0.3], [1, 0.100, False, 0.4],
              [0, 0.020, False, 0.5], [1, 0.300, False, 0.6]],
}


def run(tmp_path, parent, change):
    paths = []
    for name, record in (("parent", parent), ("change", change)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(record))
        paths.append(str(path))
    return subprocess.run([sys.executable, SCRIPT, *paths],
                          capture_output=True, text=True, timeout=60)


def test_identical_outputs_pass_and_print_medians(tmp_path):
    change = copy.deepcopy(RECORD)
    for row in change["times"]:
        row[1] /= 2
    proc = run(tmp_path, RECORD, change)
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.splitlines()
    assert lines[1].split() == ["0", "find", "kdv", "20.000", "10.000",
                                "0.500"]
    assert lines[2].split() == ["1", "bt-apply", "chiral-private", "200.000",
                                "100.000", "0.500"]
    assert lines[-1] == "outputs identical (2 operations)"


@pytest.mark.parametrize("tamper", ["output", "missing", "mismatched"])
def test_different_outputs_fail(tmp_path, tamper):
    change = copy.deepcopy(RECORD)
    if tamper == "output":
        change["outputs"]["1"] = {"image": "-M"}
    elif tamper == "missing":
        del change["outputs"]["0"]
    else:
        change["mismatched"] = [1]
    proc = run(tmp_path, RECORD, change)
    assert proc.returncode == 1, proc.stdout
    assert "identical" not in proc.stdout
