"""Compare two perfbench run records operation by operation.

    python3 tools/compare_runs.py PARENT.json CHANGE.json

Each argument is a record that `perfbench/run.py` wrote to
`.perfbench_runs/` (for example `exact-search-511-0.json`), one from each
of two checkouts run with the same workload and seed.  The script prints
every operation's median raw time in ms side by side with their ratio, and
exits 1 unless both records hold identical outputs for every operation and
neither saw an operation print different outputs in different rounds.
Raw times are the client's wall-clock seconds, not probe-scaled; run the
two sides alternately so that both see the same machine.
"""
from __future__ import annotations

import json
import statistics
import sys


def median_ms(record: dict) -> dict[int, float]:
    """Median raw ms of each operation id over the rounds of a run."""
    secs: dict[int, list[float]] = {}
    for op_id, s, _failed, _start in record["times"]:
        secs.setdefault(op_id, []).append(s)
    return {i: statistics.median(v) * 1e3 for i, v in secs.items()}


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def differences(parent: dict, change: dict) -> tuple[list[str], list]:
    """The operations whose outputs differ between the two records, and
    those that printed different outputs in different rounds of either."""
    differ = sorted(k for k in set(parent["outputs"]) | set(change["outputs"])
                    if parent["outputs"].get(k) != change["outputs"].get(k))
    return differ, parent.get("mismatched", []) + change.get("mismatched", [])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/compare_runs.py PARENT.json CHANGE.json",
              file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    a, b = median_ms(parent), median_ms(change)
    label = {op["id"]: f"{op['type']} {op['pde']}" for op in parent["ops"]}
    print(f"{'op':>4}  {'operation':<28} {'parent ms':>10} {'change ms':>10}"
          f" {'ratio':>7}")
    for i in sorted(set(a) | set(b)):
        pa, ch = a.get(i), b.get(i)
        ratio = f"{ch / pa:7.3f}" if pa and ch is not None else f"{'-':>7}"
        cells = [f"{v:10.3f}" if v is not None else f"{'-':>10}"
                 for v in (pa, ch)]
        print(f"{i:>4}  {label.get(i, '?'):<28} {cells[0]} {cells[1]} {ratio}")
    differ, unsteady = differences(parent, change)
    if differ:
        print(f"outputs differ at operations {', '.join(differ)}")
    if unsteady:
        print(f"outputs changed between rounds: {unsteady}")
    if differ or unsteady:
        return 1
    print(f"outputs identical ({len(parent['outputs'])} operations)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
