"""jetsym benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload verdict-stream|deep-reduce|exact-search
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout (it imports the engine from ./src).  It

1. measures set-up: SETUP_RUNS fresh interpreters each import jetsym and
   build what the workload uses; the median, scaled by the probes each
   interpreter runs before, during and after it, is setup_s;
2. starts the timed client (client.py), a closed loop of one process and
   one thread, which runs whole rounds of the workload for S seconds and
   writes every time and output to .perfbench_runs/;
3. checks every output with the oracles (oracle.py), in this process, after
   the client has exited;
4. prints, as its last line, one JSON object: `correct`, `attempted`,
   `failed` and the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1).

Every time is scaled to the reference machine: multiplied by
probe.REFERENCE_S / (the probe time measured around it in the same
process).  The speed of a shared machine swings by up to 2x within a
fraction of a second, so each operation is scaled by the probes taken just
before and just after it, not by one figure for the whole run.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from probe import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 9
CLIENT_TIMEOUT_S = 150
OUT_DIR = ".perfbench_runs"


def _client(*args: str, timeout: float) -> str:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "client.py"),
                           *args], capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"client exited with {proc.returncode}")
    return proc.stdout


def measure_setup(workload: str) -> float:
    """Median probe-scaled set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_RUNS):
        doc = json.loads(_client("--workload", workload, "--setup-only",
                                 timeout=60).splitlines()[-1])
        times.append(doc["setup_s"] * REFERENCE_S
                     / statistics.mean(doc["probes"]))
    return statistics.median(times)


def scaled_times(result: dict) -> list[tuple[float, bool]]:
    """(probe-scaled seconds, failed) of every operation run.  An operation
    is scaled by the mean of the probes taken inside it, the last probe
    before it and the first probe after it."""
    at = [t for t, _ in result["probes"]]
    secs = [p for _, p in result["probes"]]
    out = []
    for _, s, failed, start in result["times"]:
        lo = bisect.bisect_right(at, start)
        hi = bisect.bisect_right(at, start + s, lo)
        near = secs[max(lo - 1, 0):hi + 1]
        out.append((s * REFERENCE_S / statistics.mean(near), failed))
    return out


def end_to_end(result: dict, setup_s: float) -> dict:
    times = scaled_times(result)
    done = [s for s, failed in times if not failed]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_p50_ms": {"value": statistics.median(done) * 1e3, "unit": "ms"},
        "ops_per_s": {"value": len(done) / sum(s for s, _ in times),
                      "unit": "1/s"},
        "peak_rss_mb": {"value": result["rss_kb"] / 1024, "unit": "MB"},
    }


def per_layer(result: dict) -> dict:
    """Traced figures; a span total is scaled by the run's median probe,
    since spans cross many operations."""
    scale = REFERENCE_S / statistics.median(p for _, p in result["probes"])
    out = {}
    for name, m in result["trace"].items():
        value = m["value"] * scale if m["unit"] == "ms" else m["value"]
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "jetsym", "__init__.py")):
        print("error: run from the root of a jetsym checkout "
              "(src/jetsym not found)", file=sys.stderr)
        return 2

    setup_s = measure_setup(args.workload) if not args.trace else None
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-"
                                 f"{args.trace}.json")
    _client("--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", path, timeout=CLIENT_TIMEOUT_S)
    with open(path) as fh:
        result = json.load(fh)

    import oracle                   # sympy loads here, after the client
    correct, messages = oracle.check_run(result)
    for m in messages:
        print(m)

    attempted = len(result["times"])
    failed = sum(1 for _, _, f, _ in result["times"] if f)
    if args.trace:
        metrics = per_layer(result)
        traced = end_to_end(result, 0.0)
        print(f"traced: op_p50_ms={traced['op_p50_ms']['value']:.4f} "
              f"ops_per_s={traced['ops_per_s']['value']:.4f}")
    else:
        metrics = end_to_end(result, setup_s)
    print(f"{args.workload}: seed {args.seed}, {result['rounds']} rounds of "
          f"{len(result['ops'])} operations, "
          f"{len(result['probes'])} probes")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
