"""Run the benchmark in pairs on two checkouts and judge the difference.

    python3 tools/pairs.py PARENT CHANGE --workload W --pairs N --seconds S
        [--seed K]

PARENT and CHANGE are the roots of two checkouts.  Each pair runs
`perfbench/run.py --workload W --seed K --seconds S --trace 0` once in
each checkout, alternating which side runs first (pair 1 runs the parent
first), and compares the outputs of the two run records
(`compare_runs.differences`).  The script prints every pair's end-to-end
metrics side by side, with the operations each side completed, then for
each metric the pairs the change won (ties count for neither side), both
medians, the parent's interquartile range and whether the claim rule
holds: the change wins at least nine tenths of the pairs, and its median
is better than the parent's by more than the parent's interquartile
range.  The metrics and which direction is better are read from CHANGE's
BENCHMARK.json.  One more metric, `raw_p50_ms` (lower is better), is read
from each run record: the median over the operations of each one's
median raw time (`compare_runs.median_ms`), unscaled by the speed probe,
which runs inside the measured process.

A run that exits nonzero leaves its pair out of the comparison, and the
pairs after it still run.  The script ends with a list of every run that
failed or whose oracle read `"correct": false`, by side, pair, seed and
exit code.  It exits 1 when some pair's outputs differ or some run is on
that list, else 0.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare_runs  # noqa: E402


def run_side(checkout: str, workload: str, seed: int,
             seconds: float) -> tuple[subprocess.CompletedProcess,
                                      dict | None, dict | None]:
    """(run.py's finished process, the last line of its output, with
    `raw_p50_ms` added to its metrics, and its run record); the last two
    are None when it exited nonzero."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        return proc, None, None
    doc = json.loads(proc.stdout.splitlines()[-1])
    record = compare_runs.load(os.path.join(
        checkout, ".perfbench_runs", f"{workload}-{seed}-0.json"))
    doc["metrics"]["raw_p50_ms"] = {"unit": "ms", "value": statistics.median(
        compare_runs.median_ms(record).values())}
    return proc, doc, record


def bad_run(side: str, i: int, seed: int, proc: subprocess.CompletedProcess,
            doc: dict | None) -> str | None:
    """The line that lists a run which failed or read "correct": false,
    with the last line of a failed run's stderr; None for a good run."""
    if proc.returncode == 0 and doc["correct"]:
        return None
    line = f"  {side}, pair {i}, seed {seed}: exit {proc.returncode}"
    if proc.returncode:
        last = proc.stderr.strip().splitlines()[-1:]
        return line + (f" ({last[0]})" if last else "")
    return line + ", correct false"


def iqr(values: list[float]) -> float:
    """The distance between the quartiles; nan for fewer than two values."""
    if len(values) < 2:
        return math.nan
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summary(pairs: list[tuple[dict, dict]], better: dict[str, str]
            ) -> list[str]:
    """The verdict table for the metrics `better` names ({name: "higher" or
    "lower"}), over (parent doc, change doc) pairs of run.py's output."""
    need = math.ceil(0.9 * len(pairs))
    lines = [f"{'metric':<12} {'wins':>6} {'parent med':>12} "
             f"{'change med':>12} {'change %':>9} {'parent IQR':>11}  rule"]
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        p = [a["metrics"][name]["value"] for a, _ in pairs]
        c = [b["metrics"][name]["value"] for _, b in pairs]
        wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
        mp, mc, spread = statistics.median(p), statistics.median(c), iqr(p)
        met = wins >= need and sign * (mc - mp) > spread
        lines.append(f"{name:<12} {wins:>3}/{len(pairs):<2} {mp:>12.4f} "
                     f"{mc:>12.4f} {100 * (mc - mp) / mp:>+9.2f} "
                     f"{spread:>11.4f}  {'met' if met else 'not met'}")
    return lines


def pair_lines(i: int, first: str, parent: dict, change: dict,
               identical: bool, better: dict[str, str]) -> list[str]:
    """One pair's metrics side by side, its failures and its outputs."""
    out = [f"pair {i} ({first} first): outputs "
           f"{'identical' if identical else 'DIFFER'}; completed "
           f"{parent['attempted'] - parent['failed']} -> "
           f"{change['attempted'] - change['failed']}; failed "
           f"{parent['failed']}/{parent['attempted']} -> "
           f"{change['failed']}/{change['attempted']}; correct "
           f"{parent['correct']} -> {change['correct']}"]
    for name in better:
        x = parent["metrics"][name]["value"]
        y = change["metrics"][name]["value"]
        out.append(f"  {name:<12} {x:>12.4f} {y:>12.4f} "
                   f"{100 * (y - x) / x:>+8.2f} %")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    better["raw_p50_ms"] = "lower"
    sides = {"parent": args.parent, "change": args.change}
    pairs, all_identical, bad = [], True, []
    for i in range(1, args.pairs + 1):
        order = ["parent", "change"] if i % 2 else ["change", "parent"]
        runs = {side: run_side(sides[side], args.workload, args.seed,
                               args.seconds) for side in order}
        for side in sides:
            line = bad_run(side, i, args.seed, *runs[side][:2])
            if line:
                bad.append(line)
        failed = [f"{side} exited {runs[side][0].returncode}"
                  for side in sides if runs[side][0].returncode]
        if failed:
            print(f"pair {i} ({order[0]} first): {'; '.join(failed)}; "
                  "not compared", flush=True)
            continue
        identical = not any(compare_runs.differences(runs["parent"][2],
                                                     runs["change"][2]))
        all_identical &= identical
        pair = (runs["parent"][1], runs["change"][1])
        pairs.append(pair)
        print("\n".join(pair_lines(i, order[0], *pair, identical, better)),
              flush=True)
    print(f"{args.workload}: {len(pairs)} pairs of {args.seconds:g} s, "
          f"seed {args.seed}")
    if pairs:
        print("\n".join(summary(pairs, better)))
    if bad:
        print("failed or incorrect runs:\n" + "\n".join(bad))
    return 0 if all_identical and not bad else 1


if __name__ == "__main__":
    sys.exit(main())
