"""tools/pairs.py on canned run records: two fake checkouts whose
perfbench/run.py prints a fixed result and writes a fixed run record, so
no benchmark runs."""
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "pairs.py")
spec = importlib.util.spec_from_file_location("_tools_pairs", SCRIPT)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

BETTER = {"ops_per_s": "higher", "op_p50_ms": "lower"}


def doc(ops_per_s: float, op_p50_ms: float) -> dict:
    return {"correct": True, "attempted": 100, "failed": 0,
            "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                        "op_p50_ms": {"value": op_p50_ms, "unit": "ms"}}}


def verdicts(lines: list[str]) -> dict:
    """{metric: (wins, rule)} from the rows of `summary`."""
    return {row.split()[0]: (row.split()[1], not row.endswith("not met"))
            for row in lines[1:]}


def test_nine_wins_of_ten_beyond_the_parent_spread_meet_the_rule():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    change = [111, 112, 110, 111, 113, 109, 111, 112, 110, 99]
    runs = [(doc(p, 1.0), doc(c, 1.0)) for p, c in zip(parent, change)]
    got = verdicts(pairs.summary(runs, BETTER))
    assert got["ops_per_s"] == ("9/10", True)
    assert got["op_p50_ms"] == ("0/10", False)  # ties count for neither


def test_eight_wins_or_a_gain_inside_the_spread_do_not():
    parent = [100, 120, 80, 100, 130, 70, 100, 110, 90, 100]
    change = [p + 5 for p in parent]
    runs = [(doc(p, 1.0), doc(c, 0.9)) for p, c in zip(parent, change)]
    got = verdicts(pairs.summary(runs, BETTER))
    assert got["ops_per_s"] == ("10/10", False)  # +5 inside the IQR of 25
    assert got["op_p50_ms"] == ("10/10", True)
    runs[0], runs[1] = (doc(100, 1.0), doc(90, 1.0)), (doc(100, 1.0),
                                                       doc(90, 1.0))
    got = verdicts(pairs.summary(runs, BETTER))
    assert got["op_p50_ms"] == ("8/10", False)


FAKE_RUN = """
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
os.makedirs(".perfbench_runs", exist_ok=True)
name = f"{args['--workload']}-{args['--seed']}-0.json"
with open(os.path.join(".perfbench_runs", name), "w") as fh:
    json.dump({"ops": [], "outputs": {"0": OUTPUT}, "times": TIMES}, fh)
print("a line before the result")
print(json.dumps(DOC))
"""
# [operation id, raw seconds, failed, start]: medians of 20, 200 and 4 ms
TIMES = [[0, 0.010, False, 0.0], [1, 0.200, False, 0.1],
         [0, 0.030, False, 0.3], [1, 0.100, False, 0.4],
         [0, 0.020, False, 0.5], [1, 0.300, True, 0.6], [2, 0.004, False, 0.9]]


def checkout(path, ops_per_s: float, output: str, speed: float = 1.0):
    """A checkout whose run record holds TIMES divided by speed."""
    os.makedirs(path / "perfbench")
    times = [[i, s / speed, f, t] for i, s, f, t in TIMES]
    (path / "perfbench" / "run.py").write_text(
        FAKE_RUN.replace("OUTPUT", repr(output))
        .replace("TIMES", repr(times)).replace("DOC", repr(
            {**doc(ops_per_s, 2.0), "attempted": 7, "failed": 1})))
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": n, "better": b} for n, b in BETTER.items()]}))
    return str(path)


def test_the_script_runs_both_sides_and_compares_their_outputs(tmp_path):
    """Each pair line shows the operations each side completed and its raw
    median, the median of the operations' median raw times, failed ones
    included (20 ms of 20, 200 and 4), which the summary judges as it
    judges the end-to-end metrics."""
    parent = checkout(tmp_path / "parent", 100.0, "x")
    for output, code in (("x", 0), ("y", 1)):
        change = checkout(tmp_path / f"change-{output}", 110.0, output, 2.0)
        proc = subprocess.run(
            [sys.executable, SCRIPT, parent, change, "--workload", "w",
             "--pairs", "2", "--seconds", "1"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].startswith(
            "pair 1 (parent first): outputs "
            + ("identical" if code == 0 else "DIFFER")
            + "; completed 6 -> 6; failed 1/7 -> 1/7")
        assert lines[4].startswith("pair 2 (change first)")
        assert lines[1].split() == ["ops_per_s", "100.0000", "110.0000",
                                    "+10.00", "%"]
        assert lines[3].split() == ["raw_p50_ms", "20.0000", "10.0000",
                                    "-50.00", "%"]
        got = verdicts(lines[-4:])
        assert got["ops_per_s"] == ("2/2", True)
        assert got["raw_p50_ms"] == ("2/2", True)
