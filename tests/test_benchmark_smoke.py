"""One round of each benchmark workload through perfbench's timed client,
untraced and traced: every operation it runs must succeed, so a change to a
name or signature the benchmark calls or traces fails here and not only in
a benchmark run."""
import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("workload, trace",
                         [pytest.param(w, 0, id=w) for w in WORKLOADS]
                         + [pytest.param(w, 1, id=f"{w}-traced")
                            for w in WORKLOADS])
def test_one_round_has_no_failed_operation(workload, trace, tmp_path):
    out = tmp_path / f"{workload}.json"
    subprocess.run([sys.executable, os.path.join("perfbench", "client.py"),
                    "--workload", workload, "--seed", "1", "--seconds", "0",
                    "--trace", str(trace), "--out", str(out)],
                   cwd=ROOT, check=True, timeout=300)
    run = json.loads(out.read_text())
    failed = [(op_id, run["outputs"][str(op_id)])
              for op_id, _, bad, _ in run["times"] if bad]
    assert not failed
    if trace:  # a traced run takes the client's fixed number of rounds
        missing = [m["name"] for m in BENCHMARK["per_layer"]
                   if m["name"] not in run["trace"]]
        assert run["rounds"] >= 1 and not missing
    else:
        assert run["rounds"] == 1


def test_every_traced_name_exists():
    """A traced run (`--trace 1`) wraps each name that perfbench's tracing
    table lists; the table is read from its file, and nothing is wrapped."""
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    listed = [(home, name) for home, names, _ in tracing.GROUPS.values()
              for name in names]
    assert listed
    missing = [f"jetsym.{home}.{name}" for home, name in listed
               if not callable(getattr(importlib.import_module(f"jetsym.{home}"),
                                       name, None))]
    assert not missing
