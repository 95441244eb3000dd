"""Size ladders of the engine's two deepest costs, written to BENCH_ladder.json.

    python3 tools/ladder.py

Run it from the root of a checkout; it writes BENCH_ladder.json there.

* reduce: kdv `reduce_mod_pde(u_t^k)` for k = 4..10, each on a cold
  principal-jet table (a fresh `Pde`), with the term count of the result.
* chain: the chiral Backlund chain on a private problem with the potential
  X declared.  Step 0 applies `bt_apply` to CHAIN_SEED; before each later
  step s, the potential Ps with the gradient `bt_rhs` of the image of step
  s - 1 is declared, and step s applies `bt_apply` to that image, so the
  candidate basis grows 26 -> 40 -> 57 -> 77.  Each repetition builds the
  chain afresh.

Every rung records its operation counts (terms, candidates) next to the
best of REPEATS wall-clock times, so records from noisy machines can still
be compared by their counts.
"""
from __future__ import annotations

import json
import os
import platform
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from jetsym import backlund, catalog, parsing, symmetry  # noqa: E402
from jetsym.core import Dependent, PotentialDef, Problem  # noqa: E402
from jetsym.normalize import nf  # noqa: E402

REPEATS = 3
KDV_ORDERS = range(4, 11)
CHAIN_SEED = "M + 2*inv(g)*g_x - inv(g)*g_t"
CHAIN_STEPS = 4


def timed(fn, *args):
    start = perf_counter()
    out = fn(*args)
    return perf_counter() - start, out


def reduce_ladder() -> list[dict]:
    entry = catalog.get_pde("kdv")
    p, pde = entry.problem, entry.pde
    out = []
    for k in KDV_ORDERS:
        jet = p.jet("t" * k)
        runs, terms = [], None
        for _ in range(REPEATS):
            cold = symmetry.make_pde(pde.name, pde.f, pde.leading, pde.rhs, p)
            secs, r = timed(symmetry.reduce_mod_pde, jet, cold, p)
            runs.append(secs)
            terms = len(nf(r))
        out.append({"k": k, "terms": terms, "best_s": min(runs),
                    "runs_s": runs})
    return out


def private_chiral() -> tuple[Problem, symmetry.Pde]:
    p = Problem(coords=("x", "t"), dependent=Dependent("g", "matrix", True),
                matrices=[("M", False)])
    parse = parsing.parse_expr
    pde = symmetry.make_pde(
        "chiral", parse("D(inv(g)*g_x, x) + D(inv(g)*g_t, t)", p),
        parse("g_tt", p), parse("g_t*inv(g)*g_t + g_x*inv(g)*g_x - g_xx", p),
        p)
    backlund.declare_potential(
        PotentialDef("X", {"x": parse("inv(g)*g_t", p),
                           "t": parse("-(inv(g)*g_x)", p)}), pde, p)
    return p, pde


def chain_once() -> list[tuple[int, int, float]]:
    """(candidates, image terms, seconds) of each bt_apply of one chain."""
    p, pde = private_chiral()
    phi = parsing.parse_expr(CHAIN_SEED, p)
    steps = []
    for step in range(CHAIN_STEPS):
        if step:
            pair = backlund.bt_rhs(phi, p)
            backlund.declare_potential(
                PotentialDef(f"P{step}", {"x": pair.rhs_x, "t": pair.rhs_t}),
                pde, p)
        candidates = len(backlund.default_bt_basis(p))
        secs, phi = timed(backlund.bt_apply, phi, pde, p)
        if phi is None:
            raise RuntimeError(f"chain step {step}: no image")
        steps.append((candidates, len(nf(phi)), secs))
    return steps


def chain_ladder() -> list[dict]:
    chains = [chain_once() for _ in range(REPEATS)]
    out = []
    for step, rungs in enumerate(zip(*chains)):
        candidates, terms, _ = rungs[0]
        runs = [secs for _, _, secs in rungs]
        out.append({"step": step, "candidates": candidates,
                    "image_terms": terms, "best_s": min(runs),
                    "runs_s": runs})
    return out


def main() -> int:
    record = {
        "machine": {"python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "processor": platform.machine(),
                    "cpus": os.cpu_count()},
        "repeats": REPEATS,
        "reduce_kdv_u_t_k": reduce_ladder(),
        "bt_apply_chain": chain_ladder(),
    }
    path = os.path.join(ROOT, "BENCH_ladder.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for r in record["reduce_kdv_u_t_k"]:
        print(f"kdv u_t^{r['k']}: {r['terms']} terms, {r['best_s']:.4f} s")
    for r in record["bt_apply_chain"]:
        print(f"chain step {r['step']}: {r['candidates']} candidates, "
              f"{r['image_terms']} image terms, {r['best_s']:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
