"""One round of each benchmark workload through perfbench's timed client:
every operation it runs must succeed, so a change to a name or signature
the benchmark calls fails here and not only in a benchmark run."""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    WORKLOADS = [w["name"] for w in json.load(fh)["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_has_no_failed_operation(workload, tmp_path):
    out = tmp_path / f"{workload}.json"
    subprocess.run([sys.executable, os.path.join("perfbench", "client.py"),
                    "--workload", workload, "--seed", "1", "--seconds", "0",
                    "--trace", "0", "--out", str(out)],
                   cwd=ROOT, check=True, timeout=300)
    run = json.loads(out.read_text())
    assert run["rounds"] == 1
    failed = [(op_id, run["outputs"][str(op_id)])
              for op_id, _, bad, _ in run["times"] if bad]
    assert not failed
