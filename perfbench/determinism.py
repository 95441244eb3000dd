"""Determinism check: hash seeds must not change any output or count.

    python3 perfbench/determinism.py [--seed N]

Runs the traced client of each workload twice, under PYTHONHASHSEED=1 and
PYTHONHASHSEED=2, with the same benchmark seed, and compares every output
of every operation and every per-layer count.  Exits 1 on any difference.
Run it from the root of a checkout; outputs go to .perfbench_runs/.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

HASH_SEEDS = ("1", "2")


def traced_run(workload: str, seed: int, hash_seed: str) -> dict:
    path = os.path.join(".perfbench_runs",
                        f"determinism-{workload}-{seed}-{hash_seed}.json")
    os.makedirs(".perfbench_runs", exist_ok=True)
    subprocess.run([sys.executable, os.path.join(HERE, "client.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--trace", "1", "--out", path],
                   env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                   check=True, timeout=300)
    with open(path) as fh:
        return json.load(fh)


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["trace"].items()
            if m["unit"] == "count"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    differ = False
    for w in WORKLOADS:
        a, b = (traced_run(w, args.seed, h) for h in HASH_SEEDS)
        outputs_same = a["outputs"] == b["outputs"]
        counts_same = counts(a) == counts(b)
        differ |= not (outputs_same and counts_same)
        print(f"{w}: {len(a['outputs'])} operations, outputs "
              f"{'identical' if outputs_same else 'DIFFER'}, "
              f"{len(counts(a))} counts "
              f"{'identical' if counts_same else 'DIFFER'}")
        if not counts_same:
            for k in counts(a):
                if counts(a)[k] != counts(b)[k]:
                    print(f"  {k}: {counts(a)[k]} vs {counts(b)[k]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
